"""Differential tests of the integer-row matrix kernel.

The reference functions below are the earlier bodies of ``echelonize``,
``Matrix.__matmul__``, ``kernel``, ``intersect``, ``Matrix.det``, ``solve``
and ``is_positive_definite_hermitian``, which ran on rows of
``GaussScalar`` entries.  They read a matrix through its ``entries`` view
and return rows of scalars, which are turned into a ``Matrix`` through the
public constructor.  The current kernel must give equal matrices --
equal fields, so canonical storage is part of the test -- the same scalars
and the same booleans on every input.
"""

from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hodgeorbit.linalg import (
    Matrix,
    Subspace,
    echelonize,
    intersect,
    is_positive_definite_hermitian,
    kernel,
    solve,
)
from hodgeorbit.scalars import GaussScalar, ONE, ZERO


# -- the reference bodies ------------------------------------------------------


def reference_echelonize(rows, ncols):
    rows = [list(r) for r in rows]
    nrows = len(rows)
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
    return [tuple(r) for r in rows[:piv_row]]


def reference_matmul(a, b, ncols):
    support = [[(j, y) for j, y in enumerate(brow) if not y.is_zero()] for brow in b]
    out = []
    for row in a:
        new = [ZERO] * ncols
        for x, terms in zip(row, support):
            if x.is_zero():
                continue
            for j, y in terms:
                new[j] = new[j] + x * y
        out.append(tuple(new))
    return out


def _pivots(rref):
    return [next(j for j, x in enumerate(row) if not x.is_zero()) for row in rref]


def reference_kernel(rows, ncols):
    rref = reference_echelonize(rows, ncols)
    pivots = _pivots(rref)
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        v = [ZERO] * ncols
        v[j] = ONE
        for row, p in zip(rref, pivots):
            v[p] = -row[j]
        basis.append(tuple(v))
    return reference_echelonize(basis, ncols)


def reference_intersect(a, b, n):
    pad = (ZERO,) * n
    rows = [tuple(r) + tuple(r) for r in a] + [tuple(r) + pad for r in b]
    rref = reference_echelonize(rows, 2 * n)
    return reference_echelonize([row[n:] for row in rref if all(x.is_zero() for x in row[:n])], n)


def reference_det(rows):
    n = len(rows)
    m = [list(row) for row in rows]
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


def reference_solve(rows, ncols, rhs):
    aug = [tuple(row) + (r,) for row, r in zip(rows, rhs)]
    x = [ZERO] * ncols
    for row in reference_echelonize(aug, ncols + 1):
        lead = next(j for j, a in enumerate(row) if not a.is_zero())
        if lead == ncols:
            return None
        x[lead] = row[ncols]
    return tuple(x)


def reference_is_positive_definite_hermitian(m):
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


# -- inputs ----------------------------------------------------------------------

_BIG = (1, 2, 3, 7, 97, 2**31 - 1, 10**12 + 39)


@st.composite
def scalars(draw, kind):
    """Q(i) entries: small integers, with half of them zero, for ``small``;
    fractions over mixed large denominators for ``large``; and either kind
    with an imaginary part for ``complex``."""
    if kind == "small":
        return GaussScalar(draw(st.sampled_from((0, 0, 0, 1, -1, 2, -3))))
    size = draw(st.sampled_from(("small", "large")))

    def part():
        if size == "small":
            return draw(st.integers(-3, 3))
        return Fraction(draw(st.integers(-(10**9), 10**9)), draw(st.sampled_from(_BIG)))

    return GaussScalar(part(), part() if kind == "complex" else 0)


@st.composite
def matrices(draw, rows=None, cols=None, kind=None):
    """Matrices up to 7 x 7, with 0 rows or 0 columns among them; some rows
    are zero or repeat an earlier row up to a scalar, so that the rank is
    often short."""
    rows = draw(st.integers(0, 7)) if rows is None else rows
    cols = draw(st.integers(0, 7)) if cols is None else cols
    kind = draw(st.sampled_from(("small", "real", "complex"))) if kind is None else kind
    out = []
    for _ in range(rows):
        shape = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if shape == "zero":
            out.append([ZERO] * cols)
        elif shape == "repeat" and out:
            c = draw(scalars(kind))
            out.append([c * x for x in draw(st.sampled_from(out))])
        else:
            out.append([draw(scalars(kind)) for _ in range(cols)])
    return Matrix(out, cols)


# -- the kernel against the references ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_echelonize_matches_reference(m):
    want = Matrix(reference_echelonize(m.entries, m.cols), m.cols)
    got = echelonize(m)
    assert got == want and hash(got) == hash(want)
    assert got.entries == want.entries


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_matches_reference(data):
    inner = data.draw(st.integers(0, 7))
    a = data.draw(matrices(cols=inner))
    b = data.draw(matrices(rows=inner))
    want = Matrix(reference_matmul(a.entries, b.entries, b.cols), b.cols)
    got = a @ b
    assert got == want and hash(got) == hash(want)
    assert got.shape == (a.rows, b.cols)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_matches_reference(m):
    want = Subspace(m.cols, Matrix(reference_kernel(m.entries, m.cols), m.cols))
    assert kernel(m) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_intersect_matches_reference(data):
    n = data.draw(st.integers(0, 6))
    a = Subspace.from_matrix_rows(data.draw(matrices(cols=n)))
    b = Subspace.from_matrix_rows(data.draw(matrices(cols=n)))
    want = Matrix(reference_intersect(a.basis.entries, b.basis.entries, n), n)
    assert intersect(a, b) == Subspace(n, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_det_matches_reference(data):
    n = data.draw(st.integers(0, 6))
    m = data.draw(matrices(rows=n, cols=n))
    assert m.det() == reference_det(m.entries)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solve_matches_reference(data):
    m = data.draw(matrices())
    if data.draw(st.booleans()):
        # A consistent right-hand side: m applied to a drawn vector.
        rhs = m.apply([data.draw(scalars("complex")) for _ in range(m.cols)])
    else:
        rhs = tuple(data.draw(scalars("complex")) for _ in range(m.rows))
    want = reference_solve(m.entries, m.cols, rhs)
    assert solve(m, rhs) == want
    assert solve(m, Matrix([[x] for x in rhs], 1)) == want


@st.composite
def hermitian_matrices(draw):
    """B* D B + c I over Q(i), with D diagonal of signs and c in {0, 1}:
    definite, semidefinite, indefinite and singular ones, with large
    denominators among them."""
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, n + 1))
    b = draw(matrices(rows=k, cols=n, kind=draw(st.sampled_from(("small", "complex")))))
    signs = [draw(st.sampled_from((-1, 0, 1, 1, 2))) for _ in range(k)]
    d = Matrix([[signs[i] if i == j else 0 for j in range(k)] for i in range(k)], k)
    return b.conj_transpose() @ d @ b + Matrix.identity(n).scale(draw(st.integers(0, 1)))


@settings(max_examples=150, deadline=None)
@given(hermitian_matrices())
def test_sylvester_matches_reference(m):
    assert is_positive_definite_hermitian(m) == reference_is_positive_definite_hermitian(m)


def test_sylvester_keeps_both_errors():
    for bad in (Matrix([[1, 2]]), Matrix([[0, 1], [0, 0]]), Matrix([[GaussScalar(0, 1)]])):
        with pytest.raises(ValueError) as new:
            is_positive_definite_hermitian(bad)
        with pytest.raises(ValueError) as old:
            reference_is_positive_definite_hermitian(bad)
        assert str(new.value) == str(old.value)


# -- canonical storage ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_equal_matrices_built_by_different_routes_are_equal_fields(data):
    m = data.draw(matrices())
    c = data.draw(scalars("complex"))
    other = data.draw(matrices(rows=m.rows, cols=m.cols))
    routes = [
        Matrix(m.entries, m.cols),
        (m + other) - other,
        -(-m),
        m.conjugate().conjugate(),
        m.transpose().transpose(),
        Matrix.identity(m.rows) @ m,
        m @ Matrix.identity(m.cols),
        m.stack(Matrix.zeros(0, m.cols)),
        m.select_rows(range(m.rows)),
        m.select_cols(range(m.cols)),
        Matrix.block_diag(m, Matrix.zeros(0, 0)),
        m.kron(Matrix.identity(1)),
    ]
    if not c.is_zero():
        routes.append(m.scale(c).scale(ONE / c))
    for route in routes:
        assert route == m and hash(route) == hash(m)
        assert (route.den, route.re, route.im) == (m.den, m.re, m.im)
    assert m.den > 0 and gcd(m.den, *chain(*m.re, *(m.im or ()))) == 1
    assert (m.im is None) == all(x.is_rational() for row in m.entries for x in row)
