import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgeorbit.linalg import (
    Matrix,
    Subspace,
    echelonize,
    image,
    image_of_subspace,
    intersect,
    is_positive_definite_hermitian,
    kernel,
    preimage,
    quotient_projection,
    quotient_section,
    solve,
    subspace_sum,
)
from hodgeorbit.scalars import GaussScalar, I, ONE, ZERO


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[Fraction(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)])


# -- echelon form -----------------------------------------------------------


def test_echelonize_identity_is_canonical():
    m = Matrix.identity(3)
    assert echelonize(m) == m


def test_echelonize_collapses_dependent_rows():
    assert echelonize(Matrix([[2, 4], [1, 2]])) == Matrix([[1, 2]])


def test_echelonize_zero_matrix_drops_rows():
    out = echelonize(Matrix.zeros(2, 2))
    assert out.rows == 0 and out.cols == 2


def test_echelonize_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        e = echelonize(m)
        assert echelonize(e) == e


# -- kernel / image ---------------------------------------------------------


def test_kernel_examples():
    assert kernel(Matrix.zeros(2, 2)).dim == 2
    assert kernel(Matrix.identity(2)).dim == 0
    k = kernel(Matrix([[0, 1], [0, 0]]))
    assert k == Subspace.from_vectors(2, [(1, 0)])


def test_rank_nullity_on_random_matrices():
    rng = random.Random(11)
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = rand_matrix(rng, rows, cols)
        assert kernel(m).dim + echelonize(m).rows == cols
        assert image(m).dim == echelonize(m).rows


# -- lattice operations -----------------------------------------------------


def test_intersect_and_sum_examples():
    s = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    full = Subspace.full(3)
    zero = Subspace.zero(3)
    assert intersect(s, full) == s
    assert subspace_sum(s, zero) == s
    a = Subspace.from_vectors(2, [(1, 0)])
    b = Subspace.from_vectors(2, [(0, 1)])
    assert intersect(a, b).dim == 0


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dimension_formula(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    vecs = st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=0,
        max_size=n,
    )
    a = Subspace.from_vectors(n, data.draw(vecs))
    b = Subspace.from_vectors(n, data.draw(vecs))
    assert a.dim + b.dim == intersect(a, b).dim + subspace_sum(a, b).dim


# -- shortcuts on trivial subspaces, against the general formulas -------------

gauss = st.builds(GaussScalar, st.integers(-2, 2), st.integers(-1, 1))


@st.composite
def subspaces(draw, n):
    """Subspaces of Q(i)^n; the zero and the full space are drawn often."""
    kind = draw(st.sampled_from(("zero", "full", "span")))
    if kind == "zero":
        return Subspace.zero(n)
    if kind == "full":
        return Subspace.full(n)
    vecs = draw(st.lists(st.lists(gauss, min_size=n, max_size=n), max_size=n + 1))
    return Subspace.from_vectors(n, vecs)


def _rref(rows, cols):
    return echelonize(Matrix(rows, cols))


def _intersect_reference(a, b):
    # Zassenhaus on [[A|A],[B|0]], then the canonical basis of the right halves.
    n = a.ambient
    rows = [list(r) + list(r) for r in a.basis.entries]
    rows += [list(r) + [ZERO] * n for r in b.basis.entries]
    rref = _rref(rows, 2 * n)
    return _rref([row[n:] for row in rref.entries if all(x.is_zero() for x in row[:n])], n)


def _sum_reference(a, b):
    return _rref(list(a.basis.entries) + list(b.basis.entries), a.ambient)


def _image_reference(m, s):
    return _rref([m.apply(row) for row in s.basis.entries], m.rows)


def _is_canonical(s):
    return echelonize(s.basis) == s.basis


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_operations_agree_with_general_formulas(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    a = data.draw(subspaces(n))
    b = data.draw(subspaces(n))
    meet, join = intersect(a, b), subspace_sum(a, b)
    assert meet.basis == _intersect_reference(a, b) and _is_canonical(meet)
    assert join.basis == _sum_reference(a, b) and _is_canonical(join)
    assert a.contains_subspace(b) == (_sum_reference(a, b).rows == a.dim)
    assert b.contains_subspace(a) == (_sum_reference(a, b).rows == b.dim)
    rows = data.draw(st.integers(min_value=0, max_value=6))
    m = Matrix(data.draw(st.lists(st.lists(gauss, min_size=n, max_size=n), min_size=rows, max_size=rows)), n)
    img = image_of_subspace(m, a)
    assert img.ambient == rows
    assert img.basis == _image_reference(m, a) and _is_canonical(img)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_select_rows_is_the_selector_product(data):
    rows = data.draw(st.integers(min_value=0, max_value=6))
    cols = data.draw(st.integers(min_value=0, max_value=6))
    m = Matrix(data.draw(st.lists(st.lists(gauss, min_size=cols, max_size=cols), min_size=rows, max_size=rows)), cols)
    idx = data.draw(st.lists(st.integers(0, rows - 1), max_size=6)) if rows else []
    selector = Matrix([[1 if c == p else 0 for c in range(rows)] for p in idx], rows)
    assert m.select_rows(idx) == selector @ m


def _zero_padded_reference(blocks):
    cols = sum(b.cols for b in blocks)
    rows, before = [], 0
    for b in blocks:
        for row in b.entries:
            rows.append([ZERO] * before + list(row) + [ZERO] * (cols - before - b.cols))
        before += b.cols
    return Matrix(rows, cols)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_sum_is_the_zero_padded_build(data):
    blocks = []
    for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
        rows = data.draw(st.integers(min_value=0, max_value=3))
        cols = data.draw(st.integers(min_value=0, max_value=3))
        blocks.append(Matrix(data.draw(st.lists(st.lists(gauss, min_size=cols, max_size=cols), min_size=rows, max_size=rows)), cols))
    out = Matrix.block_diag(*blocks)
    assert out == _zero_padded_reference(blocks)
    assert out.shape == (sum(b.rows for b in blocks), sum(b.cols for b in blocks))


def test_block_sum_with_empty_blocks():
    a = Matrix([[1, 2], [3, 4]])
    assert Matrix.block_diag(a, Matrix.zeros(1, 0)) == Matrix([[1, 2], [3, 4], [0, 0]])
    assert Matrix.block_diag(Matrix.zeros(0, 2), a) == Matrix([[0, 0, 1, 2], [0, 0, 3, 4]])
    assert Matrix.block_diag().shape == (0, 0)


def test_trivial_subspaces_are_shared():
    for n in range(7):
        assert Subspace.zero(n) is Subspace.zero(n)
        assert Subspace.full(n) is Subspace.full(n)
        assert Subspace.full(n).pivots() == tuple(range(n))


def test_preimage_semantics():
    m = Matrix([[1, 0], [0, 0]])
    s = Subspace.from_vectors(2, [(1, 0)])
    pre = preimage(m, s)
    assert pre == Subspace.full(2)
    s2 = Subspace.zero(2)
    assert preimage(m, s2) == Subspace.from_vectors(2, [(0, 1)])


def test_preimage_dimension_mismatch():
    with pytest.raises(ValueError):
        preimage(Matrix.zeros(2, 2), Subspace.zero(3))


# -- quotients ---------------------------------------------------------------


def test_quotient_projection_section_roundtrip():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 6)
        s = Subspace.from_vectors(n, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))])
        proj = quotient_projection(s)
        sec = quotient_section(s)
        assert proj.rows == n - s.dim
        assert (proj @ sec) == Matrix.identity(n - s.dim)
        for row in s.basis.entries:
            assert all(x.is_zero() for x in proj.apply(row))


# -- solving -----------------------------------------------------------------


def test_solve_is_canonical_and_checks_consistency():
    m = Matrix([[1, 1], [0, 0]])
    assert solve(m, [2, 0]) == (GaussScalar(2), ZERO)
    assert solve(m, [0, 1]) is None


# -- positivity --------------------------------------------------------------


def test_positive_definite_examples():
    assert is_positive_definite_hermitian(Matrix.identity(2))
    assert not is_positive_definite_hermitian(Matrix([[-1]]))
    m = Matrix([[GaussScalar(2), I], [-I, GaussScalar(2)]])
    assert is_positive_definite_hermitian(m)


def test_positivity_rejects_non_hermitian():
    with pytest.raises(ValueError):
        is_positive_definite_hermitian(Matrix([[0, 1], [0, 0]]))


def test_positivity_agrees_with_sampling_oracle():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(1, 6)
        a = Matrix(
            [
                [GaussScalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                for _ in range(n)
            ]
        )
        pd = a.conj_transpose() @ a + Matrix.identity(n)  # positive definite
        assert is_positive_definite_hermitian(pd)
        # necessary direction: every sampled vector has positive value
        for _ in range(8):
            v = [GaussScalar(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
            val = ZERO
            mv = pd.apply([x.conjugate() for x in v])
            for x, y in zip(v, mv):
                val = val + x * y
            assert val.im == 0
            if any(not x.is_zero() for x in v):
                assert val.re > 0
        neg = -pd
        assert not is_positive_definite_hermitian(neg)
