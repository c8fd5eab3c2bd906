"""Differential tests of the linear systems built from Kronecker products and
of the direct-sum and tensor filtrations.

The reference functions below are the earlier bodies: the constraint loop of
``monodromy._relative_pairs`` and the body of ``construct.solve_selfduality``,
which wrote their coefficient rows entry by entry, and the loops that built
the direct-sum and tensor filtrations in ``datum``, ``extensions`` and
``construct``.  The current code must give the same canonical bases, the same
pairings and the same failures on every input.
"""

import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from hodgeorbit import construct
from hodgeorbit.catalog import catalog_entries, gen_random_mhs, random_invertible
from hodgeorbit.construct import embed_general, solve_selfduality, surject_from_pure
from hodgeorbit.datum import Pairing, graded_maps, make_datum, matrix_inverse
from hodgeorbit.extensions import build_unit_extension
from hodgeorbit.filtration import Filtration
from hodgeorbit.linalg import (
    Matrix,
    Subspace,
    image_of_subspace,
    kernel,
    quotient_projection,
    quotient_section,
    solve,
    subspace_sum,
)
from hodgeorbit.monodromy import (
    MonodromyFiltration,
    _relative_pairs,
    _weight_monodromy_raw,
    relative_monodromy,
    satisfies_relative_axioms,
)
from hodgeorbit.scalars import GaussScalar, ONE, ZERO

# -- the reference bodies ------------------------------------------------------


def reference_relative_pairs(n, w):
    dim = n.rows
    if dim == 0:
        return []
    jumps = w.jumps()
    a = jumps[0]
    if len(jumps) == 1:
        return [(k + a, s) for k, s in _weight_monodromy_raw(n)]
    asub = w.at(a)
    pivots = asub.pivots()
    incl_a = asub.basis.transpose()
    n_a = n.select_rows(pivots) @ incl_a
    m_a_pairs = [(k + a, s) for k, s in _weight_monodromy_raw(n_a)]
    proj = quotient_projection(asub)
    sec = quotient_section(asub)
    n_b = proj @ n @ sec
    w_b = w.map_image(proj)
    m_b_pairs = reference_relative_pairs(n_b, w_b)
    if m_b_pairs is None:
        return None
    m_a = Filtration.make(asub.dim, True, m_a_pairs) if asub.dim else None
    m_b = Filtration.make(proj.rows, True, m_b_pairs)
    rho_a = (n @ sec - sec @ n_b).select_rows(pivots)
    nb_dim, na_dim = proj.rows, asub.dim
    unknowns = na_dim * nb_dim
    rows = []
    rhs = []
    lo = min([k for k, _ in m_b_pairs], default=0)
    hi = max([k for k, _ in m_b_pairs], default=0)
    for k in range(lo, hi + 1):
        mbk = m_b.at(k)
        if mbk.dim == 0:
            continue
        mak2 = m_a.at(k - 2) if m_a else Subspace.zero(0)
        red = quotient_projection(mak2)
        for b_vec in mbk.basis.entries:
            rho_b = rho_a.apply(b_vec)
            nb_b = n_b.apply(b_vec)
            const = red.apply(rho_b)
            coeff_rows = [[ZERO] * unknowns for _ in range(red.rows)]
            for r in range(na_dim):
                e_r = [ONE if t == r else ZERO for t in range(na_dim)]
                na_er = red.apply(n_a.apply(e_r))
                red_er = red.apply(e_r)
                for c in range(nb_dim):
                    idx = r * nb_dim + c
                    for t in range(red.rows):
                        coeff_rows[t][idx] = coeff_rows[t][idx] + na_er[t] * b_vec[c] - red_er[t] * nb_b[c]
            for t in range(red.rows):
                rows.append(coeff_rows[t])
                rhs.append(-const[t])
    if rows:
        sol = solve(Matrix.from_rows(rows, unknowns), rhs)
        if sol is None:
            return None
        phi = Matrix.from_rows([[sol[r * nb_dim + c] for c in range(nb_dim)] for r in range(na_dim)], nb_dim)
    else:
        phi = Matrix.zeros(na_dim, nb_dim)
    lift = sec + incl_a @ phi
    pairs = []
    all_k = sorted(set([k for k, _ in m_a_pairs] + [k for k, _ in m_b_pairs]))
    for k in all_k:
        part_a = image_of_subspace(incl_a, m_a.at(k)) if m_a else Subspace.zero(dim)
        part_b = image_of_subspace(lift, m_b.at(k))
        pairs.append((k, subspace_sum(part_a, part_b)))
    return pairs


def reference_relative_monodromy(n, w):
    pairs = reference_relative_pairs(n, w)
    if pairs is None:
        return None
    filt = Filtration.make(w.ambient_dim, True, pairs)
    if not satisfies_relative_axioms(n, w, filt):
        return None
    return MonodromyFiltration(filt, 0)


def reference_solve_selfduality(ext):
    h = ext.base
    d = ext.datum.dim
    rows = []
    rhs = []

    def add_bilinear_zero(u, v):
        row = [ZERO] * (d * d)
        for r in range(d):
            if GaussScalar.of(u[r]).is_zero():
                continue
            for c in range(d):
                row[r * d + c] = GaussScalar.of(u[r]) * GaussScalar.of(v[c])
        re_row = [x.re for x in row]
        im_row = [x.im for x in row]
        rows.append(re_row)
        rhs.append(Fraction(0))
        if any(im_row):
            rows.append(im_row)
            rhs.append(Fraction(0))

    w1 = ext.datum.weight_filtration.at(-1)
    w2 = ext.datum.weight_filtration.at(-2)
    for u in w1.basis.entries:
        for v in w2.basis.entries:
            add_bilinear_zero(u, v)
            add_bilinear_zero(v, u)
    ff = ext.datum.hodge_filtration
    for p in range(-ff.max_index(), ff.max_index() + 1):
        fp = ff.at(p)
        fmp = ff.at(-p)
        for u in fp.basis.entries:
            for v in fmp.basis.entries:
                add_bilinear_zero(u, v)
    for op in ext.datum.operators:
        for a in range(d):
            for b in range(d):
                row = [Fraction(0)] * (d * d)
                for r in range(d):
                    row[r * d + b] += op.entries[r][a].re
                for c in range(d):
                    row[a * d + c] += op.entries[c][b].re
                if any(row):
                    rows.append(row)
                    rhs.append(Fraction(0))

    def add_value(u, v, value):
        row = [Fraction(0)] * (d * d)
        for r in range(d):
            ur = GaussScalar.of(u[r])
            if ur.is_zero():
                continue
            for c in range(d):
                vc = GaussScalar.of(v[c])
                if not vc.is_zero():
                    row[r * d + c] += (ur * vc).re
        rows.append(row)
        rhs.append(Fraction(value))

    e_vec = [ZERO] * d
    e_vec[d - 1] = ONE
    add_value(e_vec, ext.unit_generator, 1)
    add_value(ext.unit_generator, e_vec, -1)
    q_maps = graded_maps(h.weight_filtration, -1)
    q_pairing = h.pairing(-1)
    for a in range(q_maps.dim):
        ua = tuple(q_maps.section.col(a)) + (ZERO,)
        for b in range(q_maps.dim):
            ub = tuple(q_maps.section.col(b)) + (ZERO,)
            add_value(ua, ub, q_pairing.matrix.entries[a][b].re)

    coeff = Matrix.from_rows(rows, d * d)
    sol = solve(coeff, rhs)
    if sol is None:
        raise ValueError("self-duality system has no solution")
    if kernel(coeff).dim != 0:
        raise AssertionError("self-duality solution is not unique")
    gmat = Matrix.from_rows([[sol[r * d + c] for c in range(d)] for r in range(d)], d)
    if gmat.transpose() != -gmat:
        raise AssertionError("self-duality pairing is not antisymmetric")
    if gmat.det().is_zero():
        raise AssertionError("self-duality pairing is degenerate")
    if not (ext.log_operator.transpose() @ gmat + gmat @ ext.log_operator).is_zero():
        raise AssertionError("self-duality pairing is not compatible with the log operator")
    return Pairing(gmat, 1, -1)


def reference_kron(a, b):
    return Matrix([[x * y for x in arow for y in brow] for arow in a.entries for brow in b.entries], a.cols * b.cols)


def _direct_sum_subspace(s, t):
    return Subspace.from_vectors(s.ambient + t.ambient, Matrix.block_diag(s.basis, t.basis).entries)


def reference_direct_sum(a, b):
    n = a.ambient_dim + b.ambient_dim
    ks = sorted(set(a.jumps()) | set(b.jumps()))
    return Filtration.make(n, a.increasing, [(k, _direct_sum_subspace(a.at(k), b.at(k))) for k in ks])


def reference_pushed_direct_sum(a, b, proj):
    """The W and F of ``datum.pushout``: images of the block sums."""
    ks = sorted(set(a.jumps()) | set(b.jumps()))
    pairs = [(k, image_of_subspace(proj, _direct_sum_subspace(a.at(k), b.at(k)))) for k in ks]
    return Filtration.make(proj.rows, a.increasing, pairs)


def _tensor_subspace(a, b):
    vecs = [tuple(x * y for x in u for y in v) for u in a.basis.entries for v in b.basis.entries]
    return Subspace.from_vectors(a.ambient * b.ambient, vecs)


def reference_tensor(fa, fb):
    n = fa.ambient_dim * fb.ambient_dim
    below = 0 if fa.increasing else 1
    pairs = []
    for k in range(fa.min_index() - below + fb.min_index() - below, fa.max_index() + fb.max_index() + 1):
        total = Subspace.zero(n)
        for i in range(fa.min_index() - below, fa.max_index() + 1):
            total = subspace_sum(total, _tensor_subspace(fa.at(i), fb.at(k - i)))
        pairs.append((k, total))
    return Filtration.make(n, fa.increasing, pairs)


def reference_unit_extension_filtrations(q, rep):
    """The W and F of ``extensions.build_unit_extension``."""
    n = q.dim
    pad = lambda s: Subspace.from_vectors(n + 1, [tuple(row) + (ZERO,) for row in s.basis.entries])
    w_pairs = [(k, pad(s)) for k, s in q.weight_filtration.steps] + [(0, Subspace.full(n + 1))]
    f_pairs = []
    for p in sorted(set(q.hodge_filtration.jumps()) | {0, 1}):
        vecs = [tuple(row) + (ZERO,) for row in q.hodge_filtration.at(p).basis.entries]
        if p <= 0:
            vecs.append(tuple(rep) + (ONE,))
        f_pairs.append((p, Subspace.from_vectors(n + 1, vecs)))
    return Filtration.make(n + 1, True, w_pairs), Filtration.make(n + 1, False, f_pairs)


# -- strategies -------------------------------------------------------------------


def _gauss(draw, rational=False):
    return GaussScalar(draw(st.integers(-2, 2)), 0 if rational else draw(st.integers(-1, 1)))


def _matrix(draw, rows, cols, rational=False):
    return Matrix([[_gauss(draw, rational) if draw(st.booleans()) else 0 for _ in range(cols)] for _ in range(rows)], cols)


@st.composite
def matrices(draw, max_dim=3):
    return _matrix(draw, draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim)))


@st.composite
def filtrations(draw, n, increasing, rational=False):
    """A flag on Q(i)^n adapted to n drawn vectors: the spans of prefixes of
    them at increasing indices with gaps, closed by the whole space
    (increasing) or zero (decreasing)."""
    vectors = [[_gauss(draw, rational) for _ in range(n)] for _ in range(n)]
    dims = sorted(set(draw(st.lists(st.integers(0, n), max_size=3))), reverse=not increasing)
    index = draw(st.integers(-3, 1))
    pairs = []
    for d in dims + [n if increasing else 0]:
        s = Subspace.full(n) if d == n else Subspace.from_vectors(n, vectors[:d])
        if pairs and (s.dim <= pairs[-1][1].dim if increasing else s.dim >= pairs[-1][1].dim):
            continue
        pairs.append((index, s))
        index += draw(st.integers(1, 2))
    return Filtration.make(n, increasing, pairs)


# -- Matrix.kron -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(matrices(), matrices())
def test_kron_matches_the_plain_product(a, b):
    assert a.kron(b) == reference_kron(a, b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kron_reads_matrix_unknowns_row_by_row(data):
    """vec(A X B) = (A kron B^T) vec(X) with X read row by row, and
    u^T X v = (u kron v) vec(X)."""
    r, c, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    a = _matrix(data.draw, m, r)
    x = _matrix(data.draw, r, c)
    b = _matrix(data.draw, c, m)
    vec = lambda y: Matrix([[e] for row in y.entries for e in row], 1)
    assert vec(a @ x @ b) == a.kron(b.transpose()) @ vec(x)
    u, v = _matrix(data.draw, 1, r), _matrix(data.draw, 1, c)
    assert u @ x @ v.transpose() == u.kron(v) @ vec(x)


# -- Filtration.direct_sum and Filtration.tensor ----------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_direct_sum_matches_the_block_sum_loop(data):
    increasing = data.draw(st.booleans())
    a = data.draw(filtrations(data.draw(st.integers(0, 3)), increasing))
    b = data.draw(filtrations(data.draw(st.integers(0, 3)), increasing))
    total = a.direct_sum(b)
    assert total == reference_direct_sum(a, b)
    # The pushout's filtrations: the image of the sum under a surjection.
    n = total.ambient_dim
    rank = data.draw(st.integers(0, n))
    proj = random_invertible(random.Random(data.draw(st.integers(0, 10**6))), n).select_rows(range(rank))
    assert total.map_image(proj) == reference_pushed_direct_sum(a, b, proj)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tensor_matches_the_kronecker_span_loop(data):
    increasing = data.draw(st.booleans())
    a = data.draw(filtrations(data.draw(st.integers(0, 3)), increasing))
    b = data.draw(filtrations(data.draw(st.integers(0, 3)), increasing))
    assert a.tensor(b) == reference_tensor(a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_unit_extension_filtrations_match_the_padding_loop(data):
    n = data.draw(st.integers(0, 3))
    w = data.draw(filtrations(n, True, rational=True))
    q = make_datum(w.shift(-1 - w.max_index()), data.draw(filtrations(n, False)), [])
    rep = tuple(_gauss(data.draw) for _ in range(n))
    ext = build_unit_extension(q, rep)
    assert (ext.weight_filtration, ext.hodge_filtration) == reference_unit_extension_filtrations(q, rep)


# -- the relative monodromy filtration ----------------------------------------------------

PROFILES = (
    ((0, 1), (-1, 2)),
    ((0, 2), (-2, 2)),
    ((1, 2), (0, 2)),
    ((0, 1), (-1, 2), (-2, 1)),
    ((0, 2), (-1, 2), (-2, 1)),
)


def _conjugated(rng, n, w):
    g = random_invertible(rng, n.rows)
    return g @ n @ matrix_inverse(g), w.map_image(g)


def _assert_relative_matches(n, w):
    assert _relative_pairs(n, w) == reference_relative_pairs(n, w)
    assert relative_monodromy(n, w) == reference_relative_monodromy(n, w)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    profile=st.sampled_from(PROFILES),
    n_ops=st.integers(1, 2),
    summed=st.booleans(),
    conjugate=st.booleans(),
)
def test_relative_monodromy_matches_reference_on_random_mhs(seed, profile, n_ops, summed, conjugate):
    """gen_random_mhs inputs, with the first operator or the sum of all,
    also moved by a rational base change, after which the canonical section
    of W no longer commutes with N."""
    h = gen_random_mhs(seed, profile, n_ops)
    n = reduce(Matrix.__add__, h.operators) if summed else h.operators[0]
    w = h.weight_filtration
    if conjugate:
        n, w = _conjugated(random.Random(seed), n, w)
    _assert_relative_matches(n, w)


def _upper_triangular_input(rng):
    """N strictly upper triangular in a basis adapted to W, with 2-3 weights
    of 1-3 dimensions each: N acts on the graded pieces too, which
    gen_random_mhs never does, so the section correction phi can be
    nonzero.  Half the inputs are moved by a rational base change."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    dim = sum(sizes)
    n = Matrix([[rng.choice((0, 0, 1, -1, 2)) if c > r else 0 for c in range(dim)] for r in range(dim)])
    pairs, top, weight = [], 0, rng.randint(-2, 0)
    for size in sizes:
        top += size
        pairs.append((weight, Subspace.from_vectors(dim, Matrix.identity(dim).entries[:top])))
        weight += rng.randint(1, 2)
    w = Filtration.make(dim, True, pairs)
    return _conjugated(rng, n, w) if rng.random() < 0.5 else (n, w)


def test_relative_monodromy_matches_reference_on_operators_acting_on_graded_pieces(monkeypatch):
    """Seeded inputs where the filtration exists with phi = 0, exists with
    phi nonzero, and does not exist all occur."""
    solutions = []

    def recording(m, rhs):
        sol = solve(m, rhs)
        solutions.append(None if sol is None else any(sol))
        return sol

    monkeypatch.setattr("hodgeorbit.monodromy.solve", recording)
    rng = random.Random(3)
    for _ in range(120):
        _assert_relative_matches(*_upper_triangular_input(rng))
    assert {None, False, True} <= set(solutions)


# -- the self-duality solver ----------------------------------------------------------------


@pytest.fixture(scope="module")
def extensions():
    """Every extension handed to solve_selfduality while embedding, and
    surjecting onto, the catalog's mixed entries and seeded inputs."""
    seen = []

    def recording(ext):
        seen.append(ext)
        return solve_selfduality(ext)

    inputs = [e.build() for e in catalog_entries() if e.kind == "mixed"]
    rng = random.Random(20221221)
    # Inadmissible draws are refused before any extension is built, so ten
    # per operator count are drawn to collect at least 30 extensions.
    inputs += [gen_random_mhs(rng.randrange(2**31), ((0, 1), (-1, 2)), n_ops) for n_ops in (1, 2) for _ in range(10)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "solve_selfduality", recording)
        for h in inputs:
            for build in (embed_general, surject_from_pure):
                try:
                    build(h)
                except ValueError:
                    pass
    return seen


def _outcome(solver, ext):
    try:
        return solver(ext)
    except (ValueError, AssertionError) as exc:
        return type(exc).__name__, str(exc)


def test_solve_selfduality_matches_reference(extensions):
    assert len(extensions) >= 30
    kinds = set()
    for ext in extensions:
        got = _outcome(solve_selfduality, ext)
        assert got == _outcome(reference_solve_selfduality, ext)
        kinds.add((isinstance(got, Pairing), ext.datum.hodge_filtration.is_rational()))
    # Solved on rational and on complex Hodge filtrations alike.
    assert {(True, True), (True, False)} <= kinds
