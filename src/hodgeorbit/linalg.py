"""Exact matrices and subspaces over Q(i).

Conventions used throughout the package:

* operators act on column vectors, ``m.apply(v)``;
* a :class:`Subspace` stores its basis as the *rows* of a matrix in reduced
  row-echelon form.  The echelon form is canonical, so two subspaces are
  equal iff their basis matrices are identical -- this is the equality
  witness for every filtration comparison downstream.

Every :class:`Subspace` holds that canonical basis, and ``Subspace.zero(n)``
and ``Subspace.full(n)`` are shared immutable instances.  ``intersect``,
``subspace_sum``, ``Subspace.contains_subspace`` and ``image_of_subspace``
rely on this: when an argument is the zero or the full space the answer is
known without elimination, and they return an argument (or the shared zero
space) unchanged, which is exactly the basis that elimination produces.

Matrices built here from entries that are already ``GaussScalar`` skip the
per-entry coercion through the keyword-only ``_raw`` flag of
:class:`Matrix`; callers outside this module pass plain entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce

from .scalars import GaussScalar, ZERO, ONE


def _coerce(x) -> GaussScalar:
    return x if isinstance(x, GaussScalar) else GaussScalar.of(x)


class Matrix:
    """A dense rows x cols matrix with GaussScalar entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols: int | None = None, *, _raw: bool = False):
        # _raw: ``entries`` is a tuple of equal-length tuples of GaussScalar,
        # as every result computed in this module is, and is stored as is.
        if _raw:
            rows = entries
            ncols = len(rows[0]) if rows else cols
        else:
            rows = tuple(tuple(_coerce(x) for x in row) for row in entries)
            ncols = len(rows[0]) if rows else (cols if cols is not None else 0)
            for row in rows:
                if len(row) != ncols:
                    raise ValueError("ragged matrix")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(((ZERO,) * cols,) * rows, cols, _raw=True)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)), n, _raw=True)

    @staticmethod
    def from_rows(rows, cols: int | None = None) -> "Matrix":
        rows = list(rows)
        if not rows:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            return Matrix.zeros(0, cols)
        return Matrix(rows)

    @staticmethod
    def combination(coeffs, matrices) -> "Matrix":
        """sum_j c_j M_j over equal-shape matrices, at least one, pairing the
        coefficients with the matrices up to the shorter of the two."""
        return reduce(Matrix.__add__, (m.scale(c) for c, m in zip(coeffs, matrices)))

    # -- basic algebra -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.entries == other.entries and self.cols == other.cols

    def __hash__(self):
        return hash((self.cols, self.entries))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            self.cols,
            _raw=True,
        )

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(
            tuple(tuple(a - b for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
            self.cols,
            _raw=True,
        )

    def __neg__(self):
        return Matrix(tuple(tuple(-a for a in row) for row in self.entries), self.cols, _raw=True)

    def scale(self, c) -> "Matrix":
        c = _coerce(c)
        return Matrix(tuple(tuple(c * a for a in row) for row in self.entries), self.cols, _raw=True)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        # The nonzero entries of each row of ``other``, found once.
        support = [[(j, b) for j, b in enumerate(orow) if not b.is_zero()] for orow in other.entries]
        out = []
        for row in self.entries:
            new = [ZERO] * other.cols
            for a, terms in zip(row, support):
                if a.is_zero():
                    continue
                for j, b in terms:
                    new[j] = new[j] + a * b
            out.append(tuple(new))
        return Matrix(tuple(out), other.cols, _raw=True)

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        terms = [(k, x) for k, x in enumerate(map(_coerce, vec)) if not x.is_zero()]
        out = []
        for row in self.entries:
            s = ZERO
            for k, x in terms:
                a = row[k]
                if not a.is_zero():
                    s = s + a * x
            out.append(s)
        return tuple(out)

    def select_rows(self, idx) -> "Matrix":
        """The rows at the given indices, in that order: the product of the
        0/1 selector matrix with one 1 per row (at ``idx[r]``) and ``self``."""
        entries = self.entries
        return Matrix(tuple(entries[i] for i in idx), self.cols, _raw=True)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix(((),) * self.cols, 0, _raw=True)
        return Matrix(tuple(zip(*self.entries)), self.rows, _raw=True)

    def conjugate(self) -> "Matrix":
        return Matrix(tuple(tuple(a.conjugate() for a in row) for row in self.entries), self.cols, _raw=True)

    def conj_transpose(self) -> "Matrix":
        return self.conjugate().transpose()

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of non-square matrix")
        out = Matrix.identity(self.rows)
        for _ in range(k):
            out = out @ self
        return out

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(a.is_zero() for row in self.entries for a in row)

    def is_rational(self) -> bool:
        return all(a.b == 0 for row in self.entries for a in row)

    def row(self, i) -> tuple:
        return self.entries[i]

    def col(self, j) -> tuple:
        return tuple(row[j] for row in self.entries)

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        return Matrix(self.entries + other.entries, self.cols, _raw=True)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; (A kron B)(e_i x e_j) = A e_i x B e_j, with
        e_i x e_j the basis vector at i * other.cols + j.  A zero entry of
        A gives a zero block without multiplying, as in ``@``.

        Read a matrix unknown X row by row, X[r][c] at r * cols + c: then
        vec(A X B) = (A kron B^T) vec(X), and u^T X v is the row u kron v."""
        zeros = (ZERO,) * other.cols
        out = []
        for arow in self.entries:
            for brow in other.entries:
                row = []
                for a in arow:
                    row.extend(zeros if a.is_zero() else [a * b for b in brow])
                out.append(tuple(row))
        return Matrix(tuple(out), self.cols * other.cols, _raw=True)

    @staticmethod
    def block_diag(*blocks: "Matrix") -> "Matrix":
        """The block-diagonal sum: block i sits at the rows and columns after
        those of blocks 0..i-1, every other entry is zero."""
        cols = sum(b.cols for b in blocks)
        out = []
        before = 0
        for b in blocks:
            left, right = (ZERO,) * before, (ZERO,) * (cols - before - b.cols)
            out.extend(left + row + right for row in b.entries)
            before += b.cols
        return Matrix(tuple(out), cols, _raw=True)

    def det(self) -> GaussScalar:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        m = [list(row) for row in self.entries]
        det = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
            if piv is None:
                return ZERO
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                det = -det
            det = det * m[col][col]
            inv = ONE / m[col][col]
            for r in range(col + 1, n):
                f = m[r][col] * inv
                if f.is_zero():
                    continue
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
        return det

    def is_nilpotent(self) -> bool:
        if self.rows != self.cols:
            return False
        try:
            self.nilpotency_degree()
        except ValueError:
            return False
        return True

    def nilpotency_degree(self) -> int:
        """Least d with self**d = 0; raises for non-nilpotent input.  An n x n
        matrix is nilpotent iff its n-th power vanishes."""
        if self.rows == 0:
            return 0
        p, d = self, 1
        while not p.is_zero():
            if d >= self.rows:
                raise ValueError("matrix is not nilpotent")
            p, d = p @ self, d + 1
        return d

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self):
        body = "; ".join(" ".join(repr(a) for a in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def echelonize(m: Matrix) -> Matrix:
    """Canonical reduced row-echelon form with zero rows dropped.

    Row space is preserved; the result is the unique RREF basis, which makes
    it usable as an equality witness for row spaces.
    """
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    piv_row = 0
    for col in range(ncols):
        r = next((i for i in range(piv_row, nrows) if not rows[i][col].is_zero()), None)
        if r is None:
            continue
        rows[piv_row], rows[r] = rows[r], rows[piv_row]
        piv_val = rows[piv_row][col]
        if piv_val != ONE:
            inv = ONE / piv_val
            rows[piv_row] = [x if x.is_zero() else inv * x for x in rows[piv_row]]
        pivot = rows[piv_row]
        support = [j for j, y in enumerate(pivot) if not y.is_zero()]
        for i in range(nrows):
            if i == piv_row:
                continue
            row = rows[i]
            f = row[col]
            if f.is_zero():
                continue
            for j in support:
                row[j] = row[j] - f * pivot[j]
        piv_row += 1
        if piv_row == nrows:
            break
    return Matrix(tuple(tuple(r) for r in rows[:piv_row]), ncols, _raw=True)


def _pivot_cols(rref: Matrix) -> tuple:
    pivots = []
    for row in rref.entries:
        for j, a in enumerate(row):
            if not a.is_zero():
                pivots.append(j)
                break
    return tuple(pivots)


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^n held by its canonical echelon row basis."""

    ambient: int
    basis: Matrix

    @staticmethod
    def from_vectors(ambient: int, vectors) -> "Subspace":
        vecs = tuple(tuple(_coerce(x) for x in v) for v in vectors)
        for v in vecs:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        return _span(ambient, vecs)

    @staticmethod
    def from_matrix_rows(m: Matrix) -> "Subspace":
        return Subspace(m.cols, echelonize(m))

    @staticmethod
    @cache
    def zero(ambient: int) -> "Subspace":
        """The zero subspace; one shared instance per ambient dimension."""
        return Subspace(ambient, Matrix.zeros(0, ambient))

    @staticmethod
    @cache
    def full(ambient: int) -> "Subspace":
        """The whole space; one shared instance per ambient dimension."""
        return Subspace(ambient, Matrix.identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_full(self) -> bool:
        return self.basis.rows == self.ambient

    @cached_property
    def _pivots(self) -> tuple:
        return _pivot_cols(self.basis)

    def pivots(self) -> tuple:
        return self._pivots

    def reduce(self, vec) -> tuple:
        """Subtract the projection onto the pivot coordinates; the result is
        zero iff ``vec`` lies in the subspace."""
        v = [_coerce(x) for x in vec]
        if len(v) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        for row, p in zip(self.basis.entries, self.pivots()):
            c = v[p]
            if not c.is_zero():
                for j, y in enumerate(row):
                    if not y.is_zero():
                        v[j] = v[j] - c * y
        return tuple(v)

    def contains(self, vec) -> bool:
        return all(x.is_zero() for x in self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.dim == 0:
            return True
        if other.ambient != self.ambient:
            raise ValueError("ambient dimension mismatch")
        if self.is_full():
            return True
        if other.dim > self.dim:
            return False
        return all(self.contains(row) for row in other.basis.entries)

    def coords_of(self, vec) -> tuple:
        """Coordinates in the canonical basis; raises if not a member."""
        if not self.contains(vec):
            raise ValueError("vector not in subspace")
        v = [_coerce(x) for x in vec]
        return tuple(v[p] for p in self.pivots())

    def conjugate(self) -> "Subspace":
        # Conjugation of an RREF basis is again RREF (pivots stay 1).
        return Subspace(self.ambient, self.basis.conjugate())

    def is_rational(self) -> bool:
        # The RREF basis of a conjugation-stable subspace is real.
        return self.basis.is_rational()

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, via the standard bilinear
        dot product (no conjugation)."""
        return kernel(self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def _span(ambient: int, rows) -> Subspace:
    """The span of rows that are already tuples of GaussScalar."""
    return Subspace(ambient, echelonize(Matrix(tuple(rows), ambient, _raw=True)))


def kernel(m: Matrix) -> Subspace:
    """Right null space {v : m v = 0}."""
    rref = echelonize(m)
    pivots = _pivot_cols(rref)
    free = [j for j in range(m.cols) if j not in pivots]
    basis = []
    for j in free:
        v = [ZERO] * m.cols
        v[j] = ONE
        for row, p in zip(rref.entries, pivots):
            v[p] = -row[j]
        basis.append(tuple(v))
    return _span(m.cols, basis)


def image(m: Matrix) -> Subspace:
    """Column space of m, i.e. the image of v -> m v."""
    return Subspace.from_matrix_rows(m.transpose())


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: one elimination on [[A|A],[B|0]]; rows with vanishing
    left half span the intersection on the right."""
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.is_full():
        return a
    if b.dim == 0 or a.is_full():
        return b
    n = a.ambient
    pad = (ZERO,) * n
    rows = tuple(r + r for r in a.basis.entries) + tuple(r + pad for r in b.basis.entries)
    rref = echelonize(Matrix(rows, 2 * n, _raw=True))
    out = [row[n:] for row in rref.entries if all(x.is_zero() for x in row[:n])]
    return _span(n, out)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    if b.dim == 0 or a.is_full():
        return a
    if a.dim == 0 or b.is_full():
        return b
    return Subspace.from_matrix_rows(a.basis.stack(b.basis))


def preimage(m: Matrix, s: Subspace) -> Subspace:
    """{v : m v in s}."""
    if m.rows != s.ambient:
        raise ValueError("ambient dimension mismatch")
    ann = s.annihilator().basis
    return kernel(ann @ m)


def image_of_subspace(m: Matrix, s: Subspace) -> Subspace:
    if m.cols != s.ambient:
        raise ValueError("ambient dimension mismatch")
    if s.dim == 0:
        return Subspace.zero(m.rows)
    if s.is_full():
        return image(m)
    return _span(m.rows, [m.apply(row) for row in s.basis.entries])


def graded_coordinates(top: Subspace, low: Subspace):
    """Canonical coordinates on top / low, for low inside top: returns
    ``(project, section)``, where ``project`` is valid on top and kills low,
    and ``section`` maps coordinates to canonical representatives in top."""
    proj_low = quotient_projection(low)
    gr = image_of_subspace(proj_low, top)
    return proj_low.select_rows(gr.pivots()), quotient_section(low) @ gr.basis.transpose()


def solve(m: Matrix, rhs) -> tuple | None:
    """One exact solution of m x = rhs, or None.

    The particular solution is canonical: free coordinates are set to zero
    after reduction to echelon form, so repeated calls give identical lifts.
    """
    rhs = [_coerce(x) for x in rhs]
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    aug = Matrix(tuple(row + (r,) for row, r in zip(m.entries, rhs)), m.cols + 1, _raw=True)
    rref = echelonize(aug)
    x = [ZERO] * m.cols
    for row in rref.entries:
        lead = next((j for j, a in enumerate(row) if not a.is_zero()), None)
        if lead is None:
            continue
        if lead == m.cols:
            return None
        x[lead] = row[m.cols]
    # Back-check: with free coordinates zero the pivot assignment solves the
    # system only if consistent; the explicit multiply guards degenerate rows.
    if any((u - v) for u, v in zip(m.apply(x), rhs)):
        return None
    return tuple(x)


def quotient_projection(s: Subspace) -> Matrix:
    """Canonical projection Q(i)^n -> Q(i)^(n-k) with kernel exactly s.

    Coordinates of the quotient are the non-pivot coordinates of the
    canonical basis of s, evaluated after reduction by s.
    """
    n = s.ambient
    pivots = s.pivots()
    nonpiv = [j for j in range(n) if j not in pivots]
    cols = []
    for j in range(n):
        e = [ZERO] * n
        e[j] = ONE
        red = s.reduce(e)
        cols.append([red[t] for t in nonpiv])
    return Matrix(tuple(zip(*cols)), n, _raw=True)


def quotient_section(s: Subspace) -> Matrix:
    """Right inverse of :func:`quotient_projection` (zero on pivot coords)."""
    n = s.ambient
    pivots = s.pivots()
    nonpiv = [j for j in range(n) if j not in pivots]
    rows = []
    for j in range(n):
        row = [ZERO] * len(nonpiv)
        if j in nonpiv:
            row[nonpiv.index(j)] = ONE
        rows.append(tuple(row))
    return Matrix(tuple(rows), len(nonpiv), _raw=True)


def is_positive_definite_hermitian(m: Matrix) -> bool:
    """Sylvester test: all leading principal minors strictly positive.

    Raises ValueError unless the input equals its conjugate transpose.  One
    elimination without row exchanges does it: while the leading minors
    D_1, ..., D_{j-1} are nonzero, the j-th pivot is D_j / D_{j-1}, so the
    minors are all positive exactly when every pivot is.  The trailing block
    left after each step is again Hermitian, so each pivot is a real
    rational and the test stays exact.
    """
    if m.rows != m.cols:
        raise ValueError("non-square matrix")
    if m != m.conj_transpose():
        raise ValueError("matrix is not Hermitian")
    rows = [list(row) for row in m.entries]
    n = m.rows
    for j in range(n):
        pivot_row = rows[j]
        pivot = pivot_row[j]
        if pivot.re <= 0:
            return False
        inv = ONE / pivot
        for i in range(j + 1, n):
            row = rows[i]
            f = row[j]
            if f.is_zero():
                continue
            f = f * inv
            for k in range(j + 1, n):
                y = pivot_row[k]
                if not y.is_zero():
                    row[k] = row[k] - f * y
    return True
