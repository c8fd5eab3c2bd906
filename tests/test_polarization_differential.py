"""Differential tests of the per-point polarization test.

The reference functions below are the earlier bodies of
``linalg.is_positive_definite_hermitian`` (leading minors by ``det``),
``verify.hodge_decomposition`` (one Zassenhaus intersection per degree and
per piece, a chain of sums for the span) and ``verify.is_polarized_hs``
(the first Riemann relation through ``kernel``, as in
``datum.OrbitDatum`` and ``verify.griffiths_isotropy_checks``).  The current code must
give the same booleans and the same canonical bases on every input.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hodgeorbit import verify
from hodgeorbit.catalog import catalog_entries, gen_kummer, random_invertible
from hodgeorbit.construct import embed_general
from hodgeorbit.datum import OrbitDatum, Pairing, first_relation_failure, matrix_inverse
from hodgeorbit.filtration import Filtration
from hodgeorbit.linalg import Matrix, Subspace, intersect, is_positive_definite_hermitian, kernel, subspace_sum
from hodgeorbit.scalars import GaussScalar
from hodgeorbit.verify import (
    HodgeDecomposition,
    Policy,
    exp_twisted_combination,
    griffiths_isotropy_checks,
    hodge_decomposition,
    is_polarized_hs,
    sampled_orbit_membership,
)

_I_POWERS = (GaussScalar(1), GaussScalar(0, 1), GaussScalar(-1), GaussScalar(0, -1))


# -- the reference bodies ------------------------------------------------------


def reference_is_positive_definite_hermitian(m: Matrix) -> bool:
    if m.rows != m.cols:
        raise ValueError("non-square matrix")
    if m != m.conj_transpose():
        raise ValueError("matrix is not Hermitian")
    for k in range(1, m.rows + 1):
        minor = Matrix([row[:k] for row in m.entries[:k]], k).det()
        if minor.im != 0:
            raise ValueError("Hermitian minor came out non-real")
        if minor.re <= 0:
            return False
    return True


def reference_hodge_decomposition(w, f):
    n = f.ambient_dim
    if n == 0:
        return HodgeDecomposition(w, ())
    conj_steps = {p: f.at(p).conjugate() for p in range(f.min_index() - 1, f.max_index() + 2)}

    def conj_at(p):
        if p < f.min_index() - 1:
            return Subspace.full(n)
        if p > f.max_index() + 1:
            return Subspace.zero(n)
        return conj_steps[p]

    for p in range(f.min_index(), f.max_index() + 1):
        fp = f.at(p)
        cg = conj_at(w + 1 - p)
        if fp.dim + cg.dim != n or intersect(fp, cg).dim != 0:
            return None
    pieces = []
    total = 0
    for p in range(f.min_index() - 1, f.max_index() + 1):
        q = w - p
        piece = intersect(f.at(p), conj_at(q))
        if piece.dim:
            pieces.append((p, q, piece))
            total += piece.dim
    if total != n:
        return None
    span = Subspace.zero(n)
    for _, _, piece in pieces:
        span = subspace_sum(span, piece)
    if span.dim != n:
        return None
    return HodgeDecomposition(w, tuple(pieces))


def _degrees(w, f):
    lo, hi = f.min_index(), f.max_index()
    return range(min(lo, w + 1 - hi) - 1, max(hi, w + 1 - lo) + 2)


def reference_first_relation_failure(w, f, s):
    n = f.ambient_dim
    for p in _degrees(w, f):
        fp = f.at(p)
        ann = kernel(fp.basis @ s.matrix) if fp.dim else Subspace.full(n)
        if ann != f.at(w + 1 - p):
            return p
    return None


def reference_annihilators_match(w, f, s) -> bool:
    return reference_first_relation_failure(w, f, s) is None


def reference_is_polarized_hs(w, f, s) -> bool:
    n = f.ambient_dim
    if s.matrix.rows != n:
        raise ValueError("pairing size does not match the space")
    if s.twist != -w or s.symmetry != (-1) ** (w % 2):
        raise ValueError("pairing has wrong twist or symmetry for the weight")
    if not s.is_perfect():
        raise ValueError("pairing is degenerate")
    if not reference_annihilators_match(w, f, s):
        return False
    dec = reference_hodge_decomposition(w, f)
    if dec is None:
        return False
    for p, q, piece in dec.pieces:
        c = _I_POWERS[(p - q) % 4]
        basis = piece.basis
        gram = (basis @ s.matrix @ basis.conjugate().transpose()).scale(c)
        try:
            if not reference_is_positive_definite_hermitian(gram):
                return False
        except ValueError:
            return False
    return True


# -- Sylvester -------------------------------------------------------------------


def _gauss(draw):
    return GaussScalar(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))


@st.composite
def hermitian_matrices(draw):
    """Hermitian matrices up to 6 x 6 over Q(i): arbitrary ones (mostly
    indefinite), B* D B with D of mixed signs (indefinite, singular when B
    has fewer rows than columns), and +-(B* B + c I) with c in {0, 1}
    (positive or negative definite, or semidefinite and singular)."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("arbitrary", "signed_gram", "gram")))
    if kind == "arbitrary":
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = GaussScalar(draw(st.integers(-3, 3)))
            for j in range(i + 1, n):
                rows[i][j] = _gauss(draw)
                rows[j][i] = rows[i][j].conjugate()
        return Matrix(rows, n)
    k = draw(st.integers(0, n + 1))
    b = Matrix([[_gauss(draw) for _ in range(n)] for _ in range(k)], n)
    if kind == "signed_gram":
        signs = [draw(st.sampled_from((-1, 0, 1, 2))) for _ in range(k)]
        d = Matrix([[signs[i] if i == j else 0 for j in range(k)] for i in range(k)], k)
        return b.conj_transpose() @ d @ b
    m = b.conj_transpose() @ b + Matrix.identity(n).scale(draw(st.integers(0, 1)))
    return m if draw(st.booleans()) else -m


@settings(max_examples=300, deadline=None)
@given(hermitian_matrices())
def test_one_pass_sylvester_matches_leading_minors(m):
    assert is_positive_definite_hermitian(m) == reference_is_positive_definite_hermitian(m)


def test_one_pass_sylvester_keeps_both_errors():
    for bad in (Matrix([[1, 2]]), Matrix([[0, 1], [0, 0]]), Matrix([[GaussScalar(0, 1)]])):
        with pytest.raises(ValueError) as new:
            is_positive_definite_hermitian(bad)
        with pytest.raises(ValueError) as old:
            reference_is_positive_definite_hermitian(bad)
        assert str(new.value) == str(old.value)


def test_sylvester_answers_on_named_matrices():
    semidefinite = Matrix([[1, 1], [1, 1]])
    indefinite = Matrix([[1, 2], [2, 1]])
    zero_corner = Matrix([[0, 0], [0, 1]])
    for m, want in ((Matrix.identity(0), True), (semidefinite, False), (indefinite, False), (zero_corner, False)):
        assert is_positive_definite_hermitian(m) is want
        assert reference_is_positive_definite_hermitian(m) is want


@st.composite
def flags(draw, n, entry=st.integers(-1, 1)):
    """A decreasing flag on Q(i)^n spanned by prefixes of n small vectors,
    from a random first degree on."""
    vectors = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    dims = sorted(set(draw(st.lists(st.integers(0, n), min_size=1, max_size=4))), reverse=True)
    start = draw(st.integers(-2, 2))
    chain = []
    for i, d in enumerate(dims + [0]):
        sub = Subspace.from_vectors(n, vectors[:d])
        if not chain or sub.dim < chain[-1][1].dim:
            chain.append((start + i, sub))
    return Filtration.make(n, False, chain)


# -- the first relation -----------------------------------------------------------


def _pairing(data, w, perfect):
    """A random pairing of twist -w and symmetry (-1)^w: g^T S0 g with S0
    the identity (w even) or the standard symplectic form (w odd), and g
    invertible when ``perfect``, any small integer matrix otherwise."""
    n = data.draw(st.integers(1, 3)) * (1 if w % 2 == 0 else 2)
    half = n // 2
    if w % 2 == 0:
        s0 = Matrix.identity(n)
    else:
        s0 = Matrix([[1 if c == r + half else (-1 if r == c + half else 0) for c in range(n)] for r in range(n)])
    if perfect:
        g = random_invertible(random.Random(data.draw(st.integers(0, 10**6))), n)
    else:
        g = Matrix([[data.draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(n)])
    return Pairing(g.transpose() @ s0 @ g, -w, (-1) ** (w % 2))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_first_relation_by_dimension_and_product_matches_kernel(data):
    """Random flags against symmetric and antisymmetric pairings, perfect
    or not.  For odd weight every line is isotropic, so short flags pair
    to zero with the wrong dimensions and the dimension count decides.  A
    degenerate pairing fails at the lowest degree, which the raw-parts
    check in ``griffiths_isotropy_checks`` relies on."""
    w = data.draw(st.integers(-2, 2))
    s = _pairing(data, w, data.draw(st.booleans()))
    f = data.draw(flags(s.matrix.rows))
    want = reference_first_relation_failure(w, f, s)
    if s.is_perfect():
        assert first_relation_failure(w, f, s.matrix) == want
    else:
        # ann(V) = ker S at the lowest degree, where F^{w+1-p} = 0.
        assert want == _degrees(w, f)[0]
    assert griffiths_isotropy_checks(w, s, (), f).annihilator_ok == (want is None)


# -- the Hodge decomposition and the polarization test ------------------------------


def _complex_invertible(rng, n):
    """Upper times lower unitriangular with Gaussian integer entries."""

    def unitriangular(below):
        def entry(i, j):
            if i == j:
                return 1
            if (i > j) == below:
                return GaussScalar(rng.randint(-2, 2), rng.randint(-2, 2))
            return 0

        return Matrix([[entry(i, j) for j in range(n)] for i in range(n)])

    return unitriangular(False) @ unitriangular(True)


def _complex_isometry(rng, s):
    """A Cayley transform (I - X)^-1 (I + X) with X = S^-1 A, A Gaussian and
    of the opposite symmetry to S: g^T S g = S, so g keeps the first
    relation while moving the conjugation.  None when I - X is singular."""
    n = s.matrix.rows
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = GaussScalar(rng.randint(-1, 1), rng.randint(-1, 1))
            if i == j and s.symmetry == 1:
                continue
            a[i][j], a[j][i] = x, -x if s.symmetry == 1 else x
    x = matrix_inverse(s.matrix) @ Matrix(a, n)
    one = Matrix.identity(n)
    try:
        return matrix_inverse(one - x) @ (one + x)
    except ValueError:
        return None


def _orbits():
    orbits = [(e.name, e.build()) for e in catalog_entries() if e.kind == "orbit"]
    orbits.append(("kummer_i embedding target", embed_general(gen_kummer(GaussScalar(0, 1))).target))
    return orbits


def _cases():
    """(label, weight, filtration, pairing): each catalog orbit's Hodge
    filtration moved to every grid point, then a rational base change with
    the pairing carried along (polarization kept), the same change with the
    pairing left behind, a Gaussian base change (purity mostly lost), and a
    Gaussian isometry of the pairing (first relation kept, purity and
    positivity sometimes lost)."""
    rng = random.Random(20261019)
    out = []
    for name, o in _orbits():
        for y in Policy().grid_points(len(o.operators)):
            fy = o.hodge_filtration.map_image(exp_twisted_combination(o.operators, y, o.dim))
            out.append((f"{name} {y}", o.weight, fy, o.pairing))
            g = random_invertible(rng, o.dim)
            moved = fy.map_image(g)
            out.append((f"{name} {y} rational", o.weight, moved, o.pairing.transport(g)))
            out.append((f"{name} {y} rational, old pairing", o.weight, moved, o.pairing))
            out.append((f"{name} {y} gaussian", o.weight, fy.map_image(_complex_invertible(rng, o.dim)), o.pairing))
            iso = _complex_isometry(rng, o.pairing)
            if iso is not None:
                out.append((f"{name} {y} isometry", o.weight, fy.map_image(iso), o.pairing))
    return out


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_hodge_decomposition_matches_reference_basis_for_basis(cases):
    pure = set()
    for label, w, f, _ in cases:
        dec = hodge_decomposition(w, f)
        ref = reference_hodge_decomposition(w, f)
        assert dec == ref, label
        if dec is not None:
            assert [piece.basis for _, _, piece in dec.pieces] == [piece.basis for _, _, piece in ref.pieces], label
        pure.add(dec is not None)
    assert pure == {True, False}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_hodge_decomposition_matches_reference_on_random_flags(data):
    """Flags on Q(i)^n, n <= 4, in weights -3..4: Gaussian ones (mostly
    pure for the right weight only) and rational ones (a real flag is never
    pure in odd weight, even with complementary dimensions)."""
    entry = st.sampled_from((st.integers(-1, 1), st.builds(GaussScalar, st.integers(-1, 1), st.integers(-1, 1))))
    f = data.draw(flags(data.draw(st.integers(1, 4)), data.draw(entry)))
    w = data.draw(st.integers(-3, 4))
    assert hodge_decomposition(w, f) == reference_hodge_decomposition(w, f)


def test_real_line_with_complementary_dimensions_is_not_pure():
    """F^1 a real line in Q(i)^2, weight 1: the dimension count passes, the
    two pieces are the same line, and only the span test refuses it."""
    f = Filtration.make(2, False, [(1, Subspace.from_vectors(2, [(1, 0)])), (2, Subspace.zero(2))])
    assert reference_hodge_decomposition(1, f) is None
    assert hodge_decomposition(1, f) is None
    g = Filtration.make(2, False, [(1, Subspace.from_vectors(2, [(1, GaussScalar(0, 1))])), (2, Subspace.zero(2))])
    dec = hodge_decomposition(1, g)
    assert dec is not None and dec == reference_hodge_decomposition(1, g)


def test_is_polarized_hs_matches_reference(cases):
    answers = set()
    for label, w, f, s in cases:
        ok = is_polarized_hs(w, f, s)
        assert ok == reference_is_polarized_hs(w, f, s), label
        answers.add((reference_annihilators_match(w, f, s), hodge_decomposition(w, f) is not None, ok))
    # Past the first relation: polarized, pure but not polarized, and not
    # pure all occur; and the first relation fails too.
    assert {(True, True, True), (True, True, False), (True, False, False)} <= answers
    assert any(not first for first, _, _ in answers)


def test_real_lagrangian_flag_is_not_polarized():
    """F^1 a real Lagrangian in weight 1: the first relation holds and the
    pieces have dimensions adding up to n, but both are F^1 itself; the form
    vanishes on it, so the positivity test refuses it, as the span test did."""
    j = Pairing(Matrix([[0, 1], [-1, 0]]), -1, -1)
    f = Filtration.make(2, False, [(1, Subspace.from_vectors(2, [(1, 0)])), (2, Subspace.zero(2))])
    assert reference_annihilators_match(1, f, j)
    assert not reference_is_polarized_hs(1, f, j)
    assert not is_polarized_hs(1, f, j)


# -- one test per filtration within a call ---------------------------------------------


def test_sampled_membership_reports_every_point_when_filtrations_repeat(monkeypatch):
    o = next(e.build() for e in catalog_entries() if e.name == "stuck_filtration_orbit")
    grid = [(Fraction(4),), (Fraction(8),), (Fraction(4),), (Fraction(16),)]
    moved = [o.hodge_filtration.map_image(exp_twisted_combination(o.operators, y, o.dim)) for y in grid]
    assert len(set(moved)) < len(grid)
    expected = tuple((y, reference_is_polarized_hs(o.weight, f, o.pairing)) for y, f in zip(grid, moved))
    calls = []

    core = verify._is_polarized

    def counted(w, f, s):
        calls.append(f)
        return core(w, f, s)

    # The polarization test shared with is_polarized_hs, whose pairing
    # checks sampled_orbit_membership runs once before the first point.
    monkeypatch.setattr(verify, "_is_polarized", counted)
    report = sampled_orbit_membership(o, y_grid=grid)
    assert report.points == expected
    assert len(calls) == len(set(moved))
    # A second call tests again: nothing is kept between calls.
    sampled_orbit_membership(o, y_grid=grid)
    assert len(calls) == 2 * len(set(moved))


def test_sampled_membership_on_a_shared_filtration_with_mixed_answers():
    """Two orbits with the same operators and Hodge filtration, one with the
    pairing negated: every point keeps its own answer and order."""
    o = next(e.build() for e in catalog_entries() if e.name == "sheared_pair_orbit")
    grid = Policy().grid_points(2) + [(Fraction(4), Fraction(4))]
    for pairing in (o.pairing, o.pairing.negate()):
        datum = OrbitDatum(o.weight, pairing, o.operators, o.hodge_filtration, o.twist_tag)
        want = tuple(
            (tuple(y), reference_is_polarized_hs(o.weight, o.hodge_filtration.map_image(exp_twisted_combination(o.operators, y, o.dim)), pairing))
            for y in grid
        )
        assert sampled_orbit_membership(datum, y_grid=grid).points == want


def test_exp_nilpotent_refuses_non_nilpotent_and_non_square():
    for m in (Matrix([[1]]), Matrix([[0, 1], [1, 0]]), Matrix([[0, 1]])):
        with pytest.raises(ValueError, match="exp of non-nilpotent matrix"):
            verify.exp_nilpotent(m)
    assert verify.exp_nilpotent(Matrix.identity(0)) == Matrix.identity(0)
    n = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert verify.exp_nilpotent(n) == Matrix([[1, 1, Fraction(1, 2)], [0, 1, 1], [0, 0, 1]])
