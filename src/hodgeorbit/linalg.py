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

A :class:`Matrix` stores integer numerator rows over one denominator: the
entry at (r, c) is ``(re[r][c] + i * im[r][c]) / den``.  The storage is
canonical -- ``den > 0``, ``gcd(den, every numerator) = 1``, and ``im`` is
None exactly when every entry is real -- so two matrices are equal iff these
fields are.  Sums, products and elimination run on Python ints.  Scaling a
row leaves its row space unchanged, so elimination is fraction-free and
divides out to the canonical RREF once, at the end.  ``GaussScalar`` is the
entry type at the boundary only: ``Matrix(entries)`` reads scalars, and
``entries``, ``row``, ``col`` and ``apply`` build them on demand.

The rows are lists, shared between matrices and never changed after a
matrix is built.  Lists rather than tuples: CPython keeps up to 2000 freed
tuples of each length below 20 for reuse, so the rows of short-lived
matrices, nearly all that narrow, would stay allocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import chain, compress
from math import gcd, lcm
from operator import mul

from .scalars import GaussScalar, ZERO

_set = object.__setattr__


def _zero_rows(rows: int, cols: int) -> list:
    return [[0] * cols] * rows


def _scaled(rows, c) -> list:
    return [[c * x for x in row] for row in rows]


def _comb(a, c, b, e) -> list:
    """The integer rows c*a + e*b, where None stands for zero rows."""
    if b is None:
        return a if a is None or c == 1 else _scaled(a, c)
    if a is None:
        return b if e == 1 else _scaled(b, e)
    return [[c * x + e * y for x, y in zip(r, s)] for r, s in zip(a, b)]


def _product(a, b, ncols: int) -> list:
    """Integer rows of a @ b, for b with ncols columns.  A row of a with
    few nonzero entries combines the rows of b at those entries; a denser
    one takes dot products with the columns of b."""
    out, bt, zero = [], None, [0] * ncols
    support = range(len(b))
    for row in a:
        ks = list(compress(support, row))
        if 2 * len(ks) > len(row):
            if bt is None:
                bt = [list(col) for col in zip(*b)]
            out.append([sum(map(mul, row, col)) for col in bt])
        elif not ks:
            out.append(zero)
        else:
            x = row[ks[0]]
            acc = b[ks[0]] if x == 1 else [x * v for v in b[ks[0]]]
            for k in ks[1:]:
                x = row[k]
                acc = [u + x * v for u, v in zip(acc, b[k])]
            out.append(acc)
    return out


def _kron(a, b) -> list:
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def _gauss(f, a: "Matrix", b: "Matrix", rows: int, cols: int) -> "Matrix":
    """f(a, b) for a bilinear operation f on integer rows, extended to Q(i):
    f(ar + i*ai, br + i*bi) = f(ar, br) - f(ai, bi) + i*(f(ar, bi) + f(ai, br)).
    Terms with a zero part are skipped."""
    ar = a.re if any(map(any, a.re)) else None
    br = b.re if any(map(any, b.re)) else None
    term = lambda x, y: None if x is None or y is None else f(x, y)
    re = _comb(term(ar, br), 1, term(a.im, b.im), -1)
    im = _comb(term(ar, b.im), 1, term(a.im, br), 1)
    return _new(cols, a.den * b.den, _zero_rows(rows, cols) if re is None else re, im)


def _make(cols: int, den: int, re: list, im) -> "Matrix":
    """A Matrix from fields already in canonical form."""
    m = object.__new__(Matrix)
    _set(m, "rows", len(re))
    _set(m, "cols", cols)
    _set(m, "den", den)
    _set(m, "re", re)
    _set(m, "im", im)
    return m


def _new(cols: int, den: int, re: list, im=None) -> "Matrix":
    """The Matrix (re + i*im)/den for integer rows re, im (im may be None)
    and a nonzero den, brought to canonical form."""
    if im is not None and not any(map(any, im)):
        im = None
    g = abs(den)
    for row in chain(re, im or ()):
        if g == 1:
            break
        g = gcd(g, *row)
    if den < 0:
        g = -g
    if g == 1:
        return _make(cols, den, re, im)
    return _make(cols, den // g, _divided(re, g), None if im is None else _divided(im, g))


def _divided(rows, g) -> list:
    return [[x // g for x in row] for row in rows]


def _over(den: int, *blocks) -> list:
    """The numerator rows (re, im) of each block over den, a multiple of
    its den, with zero rows for im when the block is real.  Numerators of
    canonical matrices over the least common multiple of their dens are
    again canonical, so stacks and block sums need no reduction."""
    out = []
    for b in blocks:
        im = b.im if b.im is not None else _zero_rows(b.rows, b.cols)
        f = den // b.den
        out.append((b.re, im) if f == 1 else (_scaled(b.re, f), _scaled(im, f)))
    return out


class Matrix:
    """A dense rows x cols matrix over Q(i), held as integer numerator rows
    over one positive denominator (see the module docstring)."""

    __slots__ = ("rows", "cols", "den", "re", "im")

    def __init__(self, entries, cols: int | None = None):
        rows = [[GaussScalar.of(x) for x in row] for row in entries]
        ncols = len(rows[0]) if rows else (cols if cols is not None else 0)
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged matrix")
        # Each scalar is reduced, so the numerators over the least common
        # multiple of the denominators are already canonical.
        den = lcm(*(x.d for row in rows for x in row))
        im = [[x.b * (den // x.d) for x in row] for row in rows]
        _set(self, "rows", len(rows))
        _set(self, "cols", ncols)
        _set(self, "den", den)
        _set(self, "re", [[x.a * (den // x.d) for x in row] for row in rows])
        _set(self, "im", im if any(map(any, im)) else None)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return _make(cols, 1, _zero_rows(rows, cols), None)

    @staticmethod
    def identity(n: int) -> "Matrix":
        unit = [0] * (n - 1) + [1] + [0] * (n - 1)
        return _make(n, 1, [unit[n - 1 - i : 2 * n - 1 - i] for i in range(n)], None)

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

    # -- the entries as scalars ----------------------------------------

    @property
    def entries(self) -> tuple:
        """The entries as a tuple of rows of GaussScalar, built on each read."""
        return tuple(self.row(i) for i in range(self.rows))

    def row(self, i) -> tuple:
        raw, den = GaussScalar._raw, self.den
        im = self.im[i] if self.im is not None else [0] * self.cols
        return tuple(raw(a, b, den) for a, b in zip(self.re[i], im))

    def col(self, j) -> tuple:
        raw, den = GaussScalar._raw, self.den
        im = self.im if self.im is not None else _zero_rows(self.rows, self.cols)
        return tuple(raw(a[j], b[j], den) for a, b in zip(self.re, im))

    # -- basic algebra -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.cols == other.cols and self.den == other.den and self.re == other.re and self.im == other.im

    def __hash__(self):
        rows = lambda part: tuple(map(tuple, part))
        return hash((self.cols, self.den, rows(self.re), None if self.im is None else rows(self.im)))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign):
        self._same_shape(other)
        g = gcd(self.den, other.den)
        c, e = other.den // g, sign * (self.den // g)
        re = _comb(self.re, c, other.re, e)
        return _new(self.cols, self.den * c, re, _comb(self.im, c, other.im, e))

    def __neg__(self):
        return _new(self.cols, -self.den, self.re, self.im)

    def scale(self, c) -> "Matrix":
        c = GaussScalar.of(c)
        return _gauss(_kron, _make(1, c.d, [[c.a]], [[c.b]] if c.b else None), self, self.rows, self.cols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return _gauss(lambda a, b: _product(a, b, other.cols), self, other, self.rows, other.cols)

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return (self @ Matrix([[x] for x in vec], 1)).col(0)

    def select_rows(self, idx) -> "Matrix":
        """The rows at the given indices, in that order: the product of the
        0/1 selector matrix with one 1 per row (at ``idx[r]``) and ``self``."""
        idx = list(idx)
        pick = lambda rows: [rows[i] for i in idx]
        return _new(self.cols, self.den, pick(self.re), None if self.im is None else pick(self.im))

    def select_cols(self, idx) -> "Matrix":
        """The columns at the given indices, in that order."""
        idx = list(idx)
        pick = lambda rows: [[row[j] for j in idx] for row in rows]
        return _new(len(idx), self.den, pick(self.re), None if self.im is None else pick(self.im))

    def transpose(self) -> "Matrix":
        flip = lambda rows: [list(col) for col in zip(*rows)] if rows else _zero_rows(self.cols, 0)
        return _make(self.rows, self.den, flip(self.re), None if self.im is None else flip(self.im))

    def conjugate(self) -> "Matrix":
        if self.im is None:
            return self
        return _make(self.cols, self.den, self.re, _scaled(self.im, -1))

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
        return self.im is None and not any(map(any, self.re))

    def is_rational(self) -> bool:
        return self.im is None

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("column mismatch in stack")
        den = lcm(self.den, other.den)
        (re1, im1), (re2, im2) = _over(den, self, other)
        return _make(self.cols, den, re1 + re2, None if self.im is None and other.im is None else im1 + im2)

    def augment(self, other: "Matrix") -> "Matrix":
        """The columns of ``other`` after those of ``self``: [self | other]."""
        if self.rows != other.rows:
            raise ValueError("row mismatch in augment")
        den = lcm(self.den, other.den)
        (re1, im1), (re2, im2) = _over(den, self, other)
        join = lambda a, b: [r + s for r, s in zip(a, b)]
        im = None if self.im is None and other.im is None else join(im1, im2)
        return _make(self.cols + other.cols, den, join(re1, re2), im)

    def vec(self) -> "Matrix":
        """The entries read row by row as one column: X[r][c] at r * cols + c,
        the convention of :meth:`kron`."""
        col = lambda rows: [[x] for row in rows for x in row]
        return _make(1, self.den, col(self.re), None if self.im is None else col(self.im))

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product; (A kron B)(e_i x e_j) = A e_i x B e_j, with
        e_i x e_j the basis vector at i * other.cols + j.

        Read a matrix unknown X row by row, X[r][c] at r * cols + c: then
        vec(A X B) = (A kron B^T) vec(X), and u^T X v is the row u kron v."""
        return _gauss(_kron, self, other, self.rows * other.rows, self.cols * other.cols)

    @staticmethod
    def block_diag(*blocks: "Matrix") -> "Matrix":
        """The block-diagonal sum: block i sits at the rows and columns after
        those of blocks 0..i-1, every other entry is zero."""
        cols = sum(b.cols for b in blocks)
        den = lcm(*(b.den for b in blocks))
        re, im, before = [], [], 0
        for b, (bre, bim) in zip(blocks, _over(den, *blocks)):
            left, right = [0] * before, [0] * (cols - before - b.cols)
            re.extend(left + row + right for row in bre)
            im.extend(left + row + right for row in bim)
            before += b.cols
        return _make(cols, den, re, im if any(b.im is not None for b in blocks) else None)

    def det(self) -> GaussScalar:
        """Fraction-free (Bareiss) elimination over Z[i] on the numerators,
        entries as (re, im) pairs: every intermediate entry is a minor, so
        each division is exact, and the last pivot is the determinant of
        the numerator matrix."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        im = self.im if self.im is not None else _zero_rows(self.rows, self.cols)
        a = [list(zip(r, s)) for r, s in zip(self.re, im)]
        prev, sign = (1, 0), 1
        while a:
            piv = next((i for i, row in enumerate(a) if row[0] != (0, 0)), None)
            if piv is None:
                return ZERO
            if piv:
                a[0], a[piv] = a[piv], a[0]
                sign = -sign
            top, p = a[0], a[0][0]
            a = [[_gdiv(_gmul(p, x), _gmul(row[0], y), prev) for x, y in zip(row[1:], top[1:])] for row in a[1:]]
            prev = p
        return GaussScalar._raw(sign * prev[0], sign * prev[1], self.den**self.rows)

    def is_nilpotent(self) -> bool:
        """An n x n matrix is nilpotent iff its n-th power vanishes."""
        if self.rows != self.cols:
            return False
        p = self
        for _ in range(self.rows - 1):
            if p.is_zero():
                return True
            p = p @ self
        return p.is_zero()

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __repr__(self):
        body = "; ".join(" ".join(repr(a) for a in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gdiv(x, y, d):
    """(x - y) / d for Gaussian integers where d divides x - y."""
    re, im, n = x[0] - y[0], x[1] - y[1], d[0] * d[0] + d[1] * d[1]
    return ((re * d[0] + im * d[1]) // n, (im * d[0] - re * d[1]) // n)


def echelonize(m: Matrix) -> Matrix:
    """Canonical reduced row-echelon form with zero rows dropped.

    Row space is preserved; the result is the unique RREF basis, which makes
    it usable as an equality witness for row spaces.  The elimination runs
    on the integer numerators, clearing each pivot column by integer row
    combinations and dividing every row by the gcd of its entries; each
    pivot row is divided by its pivot at the end.
    """
    if m.im is None:
        return _rref_real(m.cols, [list(row) for row in m.re])
    return _rref_complex(m.cols, [list(row) for row in m.re], [list(row) for row in m.im])


def _rref_real(ncols: int, rows: list) -> Matrix:
    pivots = []
    for col in range(ncols):
        r = _pivot_row(col, len(pivots), rows, None)
        if r is None:
            continue
        piv_row = len(pivots)
        rows[piv_row], rows[r] = rows[r], rows[piv_row]
        pivot = rows[piv_row]
        p = pivot[col]
        support = list(compress(range(col, ncols), pivot[col:]))
        for i, row in enumerate(rows):
            f = row[col]
            if not f or i == piv_row:
                continue
            g = gcd(p, f) if p > 0 else -gcd(p, f)
            c, e = p // g, f // g
            if c == 1:
                # The pivot divides f: subtract on the pivot row's support.
                for j in support:
                    row[j] -= e * pivot[j]
                continue
            row = [c * x - e * y for x, y in zip(row, pivot)]
            g = gcd(*row)
            rows[i] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return _divide_pivots(ncols, pivots, rows, None)


def _rref_complex(ncols: int, res: list, ims: list) -> Matrix:
    pivots = []
    for col in range(ncols):
        r = _pivot_row(col, len(pivots), res, ims)
        if r is None:
            continue
        piv_row = len(pivots)
        res[piv_row], res[r] = res[r], res[piv_row]
        ims[piv_row], ims[r] = ims[r], ims[piv_row]
        yr, yi = res[piv_row], ims[piv_row]
        pr, pi = yr[col], yi[col]
        if pi or pr < 0:
            # Multiply the pivot row by the conjugate of its pivot, which
            # makes the pivot positive.
            yr, yi = [pr * x + pi * y for x, y in zip(yr, yi)], [pr * y - pi * x for x, y in zip(yr, yi)]
            g = gcd(*yr, *yi)
            yr, yi = _divided((yr, yi), g) if g > 1 else (yr, yi)
            res[piv_row], ims[piv_row] = yr, yi
        p = yr[col]
        support = [j for j in range(col, ncols) if yr[j] or yi[j]]
        for i, xr in enumerate(res):
            xi = ims[i]
            fr, fi = xr[col], xi[col]
            if not (fr or fi) or i == piv_row:
                continue
            g = gcd(p, fr, fi)
            c, fr, fi = p // g, fr // g, fi // g
            # row <- c * row - f * pivot row
            if c == 1:
                for j in support:
                    u, v = yr[j], yi[j]
                    xr[j] -= fr * u - fi * v
                    xi[j] -= fr * v + fi * u
                continue
            nr = [c * a - fr * u + fi * v for a, u, v in zip(xr, yr, yi)]
            ni = [c * b - fr * v - fi * u for b, u, v in zip(xi, yr, yi)]
            g = gcd(*nr, *ni)
            res[i], ims[i] = _divided((nr, ni), g) if g > 1 else (nr, ni)
        pivots.append(col)
        if len(pivots) == len(res):
            break
    return _divide_pivots(ncols, pivots, res, ims)


def _pivot_row(col: int, start: int, res: list, ims) -> int | None:
    """The row from ``start`` on whose entry in column col is the first
    unit, or else the first nonzero one; None if there is none."""
    best = None
    for r in range(start, len(res)):
        x = res[r][col]
        if ims is not None and ims[r][col]:
            x = ims[r][col] if not x else 2
        if x == 1 or x == -1:
            return r
        if x and best is None:
            best = r
    return best


def _divide_pivots(ncols: int, pivots: list, res: list, ims) -> Matrix:
    """The RREF from the first len(pivots) rows, reduced except that each
    pivot row holds a real nonzero pivot: every row divided by its pivot,
    over their least common denominator."""
    out_re, out_im, dens = [], [], []
    for xr, xi, col in zip(res, ims or [[]] * len(pivots), pivots):
        g = gcd(*xr, *xi) if xr[col] > 0 else -gcd(*xr, *xi)
        if g != 1:
            xr, xi = _divided((xr, xi), g)
        out_re.append(xr)
        out_im.append(xi)
        dens.append(xr[col])
    # Each row is reduced over its own denominator, so over their least
    # common multiple the numerators are canonical.
    den = lcm(*dens)
    over = lambda rows: [row if d == den else [x * (den // d) for x in row] for row, d in zip(rows, dens)]
    im = None if ims is None else over(out_im)
    return _make(ncols, den, over(out_re), im if im and any(map(any, im)) else None)


def _pivot_cols(rref: Matrix) -> tuple:
    # A pivot is 1, with numerator den > 0, and zeros precede it.
    return tuple(row.index(rref.den) for row in rref.re)


@dataclass(frozen=True, slots=True)
class Subspace:
    """A subspace of Q(i)^n held by its canonical echelon row basis."""

    ambient: int
    basis: Matrix
    _pivots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "_pivots", _pivot_cols(self.basis))

    @staticmethod
    def from_vectors(ambient: int, vectors) -> "Subspace":
        vecs = [tuple(v) for v in vectors]
        if any(len(v) != ambient for v in vecs):
            raise ValueError("vector length does not match ambient dimension")
        return Subspace.from_matrix_rows(Matrix(vecs, ambient))

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

    def pivots(self) -> tuple:
        return self._pivots

    def _projection(self, m: Matrix) -> Matrix:
        """The rows of m projected onto the pivot coordinates: the
        combinations of the basis with the rows' pivot entries as weights.
        A row lies in the subspace iff it equals its projection."""
        return m.select_cols(self.pivots()) @ self.basis

    def reduce(self, vec) -> tuple:
        """Subtract the projection onto the pivot coordinates; the result is
        zero iff ``vec`` lies in the subspace."""
        if len(vec) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        v = Matrix([vec], self.ambient)
        return (v - self._projection(v)).row(0)

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
        return self._projection(other.basis) == other.basis

    def coords_of(self, vec) -> tuple:
        """Coordinates in the canonical basis; raises if not a member."""
        if not self.contains(vec):
            raise ValueError("vector not in subspace")
        return tuple(GaussScalar.of(vec[p]) for p in self.pivots())

    def conjugate(self) -> "Subspace":
        # Conjugation of an RREF basis is again RREF (pivots stay 1).
        return Subspace(self.ambient, self.basis.conjugate())

    def is_rational(self) -> bool:
        # The RREF basis of a conjugation-stable subspace is real.
        return self.basis.is_rational()

    def annihilator(self) -> "Subspace":
        """Functionals vanishing on the subspace, via the standard bilinear
        dot product (no conjugation): the rows of the quotient projection."""
        return Subspace.from_matrix_rows(quotient_projection(self))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"


def kernel(m: Matrix) -> Subspace:
    """Right null space {v : m v = 0}: the annihilator of the row space."""
    return Subspace.from_matrix_rows(m).annihilator()


def image(m: Matrix) -> Subspace:
    """Column space of m, i.e. the image of v -> m v."""
    return Subspace.from_matrix_rows(m.transpose())


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: one elimination on [[A|A],[B|0]]; rows with vanishing
    left half span the intersection on the right.  Those rows come last in
    the RREF, and their right halves are already in RREF."""
    if a.ambient != b.ambient:
        raise ValueError("ambient dimension mismatch")
    if a.dim == 0 or b.is_full():
        return a
    if b.dim == 0 or a.is_full():
        return b
    n = a.ambient
    rref = echelonize(a.basis.augment(a.basis).stack(b.basis.augment(Matrix.zeros(b.dim, n))))
    low = [r for r, p in enumerate(_pivot_cols(rref)) if p >= n]
    return Subspace(n, rref.select_rows(low).select_cols(range(n, 2 * n)))


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
    return Subspace.from_matrix_rows(s.basis @ m.transpose())


def graded_coordinates(top: Subspace, low: Subspace):
    """Canonical coordinates on top / low, for low inside top: returns
    ``(project, section)``, where ``project`` is valid on top and kills low,
    and ``section`` maps coordinates to canonical representatives in top."""
    proj_low = quotient_projection(low)
    gr = image_of_subspace(proj_low, top)
    return proj_low.select_rows(gr.pivots()), quotient_section(low) @ gr.basis.transpose()


def solve(m: Matrix, rhs) -> tuple | None:
    """One exact solution of m x = rhs, or None; ``rhs`` is a sequence of
    scalars or a one-column Matrix.

    The particular solution is canonical: free coordinates are set to zero
    after reduction to echelon form, so repeated calls give identical lifts.
    """
    b = rhs if isinstance(rhs, Matrix) else Matrix([[x] for x in rhs], 1)
    if b.shape != (m.rows, 1):
        raise ValueError("rhs length mismatch")
    rref = echelonize(m.augment(b))
    pivots = _pivot_cols(rref)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [ZERO] * m.cols
    for p, value in zip(pivots, rref.col(m.cols)):
        x[p] = value
    # Back-check: with free coordinates zero the pivot assignment solves the
    # system only if consistent; the explicit multiply guards degenerate rows.
    if m @ Matrix([[v] for v in x], 1) != b:
        return None
    return tuple(x)


def quotient_projection(s: Subspace) -> Matrix:
    """Canonical projection Q(i)^n -> Q(i)^(n-k) with kernel exactly s.

    Coordinates of the quotient are the non-pivot coordinates of the
    canonical basis of s, evaluated after reduction by s: row t is the unit
    vector of the t-th non-pivot c, minus entry c of each basis row at that
    row's pivot.  Over the basis denominator these numerators are already
    canonical, since the pivot columns of the basis hold only den and 0.
    """
    b, n, pivots = s.basis, s.ambient, s.pivots()

    def rows(part, unit):
        out = []
        for c in (j for j in range(n) if j not in pivots):
            row = [0] * n
            row[c] = unit
            for r, p in enumerate(pivots):
                row[p] = -part[r][c]
            out.append(row)
        return out

    return _make(n, b.den, rows(b.re, b.den), None if b.im is None else rows(b.im, 0))


def quotient_section(s: Subspace) -> Matrix:
    """Right inverse of :func:`quotient_projection` (zero on pivot coords)."""
    nonpiv = [j for j in range(s.ambient) if j not in s.pivots()]
    rows = [[0] * len(nonpiv) for _ in range(s.ambient)]
    for t, j in enumerate(nonpiv):
        rows[j][t] = 1
    return _make(len(nonpiv), 1, rows, None)


def is_positive_definite_hermitian(m: Matrix) -> bool:
    """Sylvester test: all leading principal minors strictly positive.

    Raises ValueError unless the input equals its conjugate transpose.  The
    numerator matrix is den * m, with leading minors den^k * D_k of the same
    signs.  Fraction-free (Bareiss) elimination on it without row exchanges
    has the leading minors as its pivots, and divides exactly by the
    previous one.  The minors of a Hermitian matrix are real, so the pivot
    is its real part and the test stays exact.
    """
    if m.rows != m.cols:
        raise ValueError("non-square matrix")
    if m != m.conj_transpose():
        raise ValueError("matrix is not Hermitian")
    re, im, prev = m.re, m.im or _zero_rows(m.rows, m.cols), 1
    while re:
        tr, ti = re[0], im[0]
        p = tr[0]
        if p <= 0:
            return False
        nre, nim = [], []
        for xr, xi in zip(re[1:], im[1:]):
            fr, fi = xr[0], xi[0]
            # x <- (p * x - f * top) / prev, with p and prev real.
            nre.append([(p * a - fr * u + fi * v) // prev for a, u, v in zip(xr[1:], tr[1:], ti[1:])])
            nim.append([(p * b - fr * v - fi * u) // prev for b, u, v in zip(xi[1:], tr[1:], ti[1:])])
        re, im, prev = nre, nim, p
    return True
