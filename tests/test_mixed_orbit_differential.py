"""Differential tests for the per-call reuse in ``check_mixed_orbit``.

``admissibility_report`` computes each distinct relative monodromy
filtration once per call, and the sampled mixed-Hodge clause moves each
graded piece of W by the operators induced on it, testing each distinct
moved piece once per call.  The code they replaced is kept here as the
reference: the un-memoised ``admissibility_report``, the sampled loop that
built a ``HodgeDatum`` and ran ``is_mhs`` at every grid point, and the
sampled loop that moved F on the whole space before projecting it to each
graded piece.  Verdicts and facts must be identical with either.
"""

import random
from fractions import Fraction

import pytest

from hodgeorbit import datum, monodromy, verify
from hodgeorbit.catalog import catalog_by_name, catalog_entries, gen_random_mhs, random_invertible
from hodgeorbit.datum import graded_maps, graded_piece, make_datum, matrix_inverse
from hodgeorbit.filtration import Filtration, trivial_weight_filtration
from hodgeorbit.linalg import Matrix, Subspace
from hodgeorbit.monodromy import AdmissibilityReport, relative_monodromy
from hodgeorbit.scalars import GaussScalar
from hodgeorbit.verify import Policy, exp_twisted_combination, is_mhs, is_pure_hs, orbit_point

# The profiles of the benchmark's triage workload.
PROFILES = (
    ((0, 1), (-1, 2)),
    ((0, 2), (-2, 2)),
    ((1, 2), (0, 2)),
    ((0, 1), (-1, 2), (-2, 1)),
    ((0, 2), (-1, 2), (-2, 1)),
    ((0, 2), (-2, 2), (-4, 2)),
)
SEEDS = range(5)


def reference_admissibility_report(w, operators, samples=((1,), (2, 3))):
    """``admissibility_report`` with one relative filtration per use."""
    details = []
    ops = list(operators)
    partial_ok = True
    ref = None
    running = None
    for j, op in enumerate(ops):
        running = op if running is None else running + op
        m = relative_monodromy(running, w)
        details.append((f"partial_sum_{j + 1}", m is not None))
        if m is None:
            partial_ok = False
        if j == len(ops) - 1 and m is not None:
            ref = m.filtration
    cone_ok = True
    if ops and partial_ok:
        if ref is None:
            cone_ok = False
        else:
            for sample in samples:
                coeffs = list(sample) * ((len(ops) + len(sample) - 1) // len(sample))
                m = relative_monodromy(Matrix.combination([Fraction(c) for c in coeffs], ops), w)
                same = m is not None and m.filtration == ref
                details.append((f"cone_sample_{sample}", same))
                if not same:
                    cone_ok = False
    return AdmissibilityReport(partial_ok, cone_ok, tuple(details))


def reference_sampled_mhs(w, f, operators, policy):
    """The sampled clause of ``check_mixed_orbit`` as it was: a datum and
    ``is_mhs`` at every grid point, every point tested."""
    sampled_ok = True
    for y in policy.grid_points(len(operators)):
        moved = make_datum(w, orbit_point(f, operators, y), [], {}, 0)
        ok = is_mhs(moved)
        sampled_ok = sampled_ok and ok
    return sampled_ok


def whole_space_orbit_point(f, operators, y):
    """``orbit_point`` without its shortcut for a vanishing exponent."""
    return f.map_image(exp_twisted_combination(operators, y, f.ambient_dim))


def reference_whole_space_sampled_mhs(w, f, operators, policy):
    """``verify._sampled_mhs`` before it moved graded pieces: F moved on the
    whole space at every grid point, then each step intersected with W_k
    and projected to Gr^W_k."""
    pieces = [(k, graded_maps(w, k).project, w.at(k)) for k in w.jumps()]
    for y in policy.grid_points(len(operators)):
        fy = whole_space_orbit_point(f, operators, y)
        if not all(is_pure_hs(k, fy.map_image(project, within=wk)) for k, project, wk in pieces):
            return False
    return True


def reference_unpolarized_mixed_ok(w, operators, f, policy):
    """``verify._unpolarized_mixed_ok`` as it was."""
    if not all(w.is_shifted_by(op, 0) for op in operators):
        return False
    adm = reference_admissibility_report(w, operators)
    if not adm.partial_sums_exist:
        return False
    for y in policy.grid_points(len(operators)):
        fy = orbit_point(f, operators, y)
        try:
            moved = make_datum(w, fy, [], {}, 0)
        except ValueError:
            return False
        if not is_mhs(moved):
            return False
    return True


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _both(fn, h, policy):
    """fn(h, policy) with the current code and with the references; the
    sampled clause of h is evaluated on the whole space."""
    current = _outcome(fn, h, policy)

    def whole_space_sampled_mhs(pieces, n_ops, policy):
        return reference_sampled_mhs(h.weight_filtration, h.hodge_filtration, h.operators, policy)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "admissibility_report", reference_admissibility_report)
        mp.setattr(verify, "_sampled_mhs", whole_space_sampled_mhs)
        mp.setattr(verify, "_unpolarized_mixed_ok", reference_unpolarized_mixed_ok)
        reference = _outcome(fn, h, policy)
    return current, reference


@pytest.fixture(scope="module")
def catalog_inputs():
    return [(e.name, e.build()) for e in catalog_entries() if e.kind == "mixed"]


@pytest.fixture(scope="module")
def seeded_inputs():
    return [
        (f"{profile} n_ops={n_ops} seed={seed}", gen_random_mhs(seed, profile, n_ops))
        for profile in PROFILES
        for n_ops in (1, 2)
        for seed in SEEDS
    ]


def _hodge_shifted(h, d):
    """h with F shifted by d, so that graded pieces are no longer pure of
    their weight: the inputs on which the sampled clause fails."""
    ff = h.hodge_filtration.shift(d)
    return make_datum(h.weight_filtration, ff, h.operators, dict(h.graded_pairings), h.twist_tag)


@pytest.mark.parametrize("grid", [(4, 8, 16), (3,)], ids=str)
def test_check_mixed_orbit_verdicts_match_the_reference(grid, catalog_inputs, seeded_inputs):
    policy = Policy(grid=grid)
    assert len(seeded_inputs) >= 50
    inputs = catalog_inputs + seeded_inputs
    inputs += [(f"{name} F shifted by {d}", _hodge_shifted(h, d)) for name, h in inputs for d in (1, -1)]
    outcomes = set()
    for name, h in inputs:
        current, reference = _both(verify.check_mixed_orbit, h, policy)
        assert current == reference, name
        outcomes.add((current.status, current.clause("sampled_mhs")))
    # Passing and refuted verdicts are among them, with either sampled clause.
    assert {(verify.REFUTED, True), (verify.REFUTED, False), (verify.SUPPORTED, True)} <= outcomes


def test_admissibility_reports_match_the_reference(catalog_inputs, seeded_inputs):
    for name, h in catalog_inputs + seeded_inputs:
        got = _outcome(monodromy.admissibility_report, h.weight_filtration, h.operators)
        want = _outcome(reference_admissibility_report, h.weight_filtration, h.operators)
        assert got == want, name


def test_operator_sum_facts_match_the_reference(catalog_inputs, seeded_inputs):
    two_operators = [(name, h) for name, h in catalog_inputs + seeded_inputs if len(h.operators) >= 2]
    assert "two_operator_kummer" in dict(two_operators)
    two_operators += [(f"{name} F shifted by 1", _hodge_shifted(h, 1)) for name, h in two_operators]
    merged = set()
    for name, h in two_operators:
        current, reference = _both(verify.operator_sum_facts, h, Policy())
        assert current == reference, name
        merged.add(current.sum_is_mixed_orbit)
    assert merged == {True, False}


def test_relative_monodromy_runs_once_per_distinct_operator(monkeypatch, catalog_inputs, seeded_inputs):
    seen = []

    def counted(n, w):
        seen.append(n)
        return relative_monodromy(n, w)

    monkeypatch.setattr(monodromy, "relative_monodromy", counted)
    for name, h in catalog_inputs + seeded_inputs:
        seen.clear()
        report = monodromy.admissibility_report(h.weight_filtration, h.operators)
        assert len(seen) == len(set(seen)), name
        if report.partial_sums_exist and h.operators:
            # The partial sums, then the cone samples; (1,) repeats the
            # last partial sum and so is not computed again.
            running = [Matrix.combination([1] * j, h.operators) for j in range(1, len(h.operators) + 1)]
            doubled = Matrix.combination([Fraction(c) for c in (2, 3) * len(h.operators)], h.operators)
            assert seen == list(dict.fromkeys(running + [doubled])), name


# -- graded pieces moved on their own ------------------------------------------------


def _graded_acting_input(rng):
    """(W, F, (N, N^2)) with N strictly upper triangular in a basis adapted
    to W, built like ``_upper_triangular_input`` of test_kron_differential:
    2-3 weights of 1-3 dimensions, so N preserves W and may act on its
    graded pieces, which no catalog or seeded input does.  F is a flag of
    random complex vectors.  Half the inputs are moved by a rational base
    change."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 3))]
    dim = sum(sizes)
    n = Matrix([[rng.choice((0, 0, 1, -1, 2)) if c > r else 0 for c in range(dim)] for r in range(dim)])
    pairs, top, weight = [], 0, rng.randint(-2, 0)
    for size in sizes:
        top += size
        pairs.append((weight, Subspace.from_vectors(dim, Matrix.identity(dim).entries[:top])))
        weight += rng.randint(1, 2)
    w = Filtration.make(dim, True, pairs)
    vectors = [[GaussScalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
    dims = sorted(rng.sample(range(1, dim), rng.randint(0, dim - 1)), reverse=True) + [0]
    p0 = rng.randint(-2, 1)
    f = Filtration.make(dim, False, [(p0 + i, Subspace.from_vectors(dim, vectors[:d])) for i, d in enumerate(dims)])
    if rng.random() < 0.5:
        g = random_invertible(rng, dim)
        n, w, f = g @ n @ matrix_inverse(g), w.map_image(g), f.map_image(g)
    return w, f, (n, n @ n)


@pytest.fixture(scope="module")
def graded_acting_inputs():
    rng = random.Random(22)
    return [(f"upper triangular #{i}", *_graded_acting_input(rng)) for i in range(60)]


@pytest.fixture(scope="module")
def pure_orbit_inputs():
    """The catalog's pure orbits with W concentrated at their weight: one
    graded piece, moved by N itself, where the sampled verdict depends on
    the point (F is often not pure before it is moved)."""
    orbits = [(e.name, e.build()) for e in catalog_entries() if e.kind == "orbit"]
    return [
        (f"{name} as mixed", trivial_weight_filtration(o.hodge_filtration.ambient_dim, o.weight), o.hodge_filtration, o.operators)
        for name, o in orbits
    ]


def _triples(catalog_inputs, seeded_inputs, graded_acting_inputs, pure_orbit_inputs):
    mixed = [(name, h.weight_filtration, h.hodge_filtration, h.operators) for name, h in catalog_inputs + seeded_inputs]
    return mixed + graded_acting_inputs + pure_orbit_inputs


@pytest.mark.parametrize("grid", [(4, 8, 16), (3,)], ids=str)
def test_graded_orbit_points_equal_the_projected_whole_space_points(
    grid, catalog_inputs, seeded_inputs, graded_acting_inputs, pure_orbit_inputs
):
    """orbit_point(F, N, y) induces on Gr^W_k exactly orbit_point(F_k, N_k, y),
    the same canonical filtration with the same steps, at every jump k."""
    policy = Policy(grid=grid)
    acting = 0
    for name, w, f, ops in _triples(catalog_inputs, seeded_inputs, graded_acting_inputs, pure_orbit_inputs):
        for k, fk, ops_k in verify._graded_pieces(w, f, ops):
            acting += any(not op.is_zero() for op in ops_k)
            gm = graded_maps(w, k)
            for y in policy.grid_points(len(ops)):
                whole = whole_space_orbit_point(f, ops, y).map_image(gm.project, within=w.at(k))
                graded = orbit_point(fk, ops_k, y)
                assert whole == graded and whole.steps == graded.steps, (name, k, y)
    # The identity is exercised where the induced operators move the piece.
    assert acting >= 20


@pytest.mark.parametrize("grid", [(4, 8, 16), (3,)], ids=str)
def test_sampled_mhs_matches_the_whole_space_reference(
    grid, catalog_inputs, seeded_inputs, graded_acting_inputs, pure_orbit_inputs
):
    policy = Policy(grid=grid)
    verdicts = set()
    moved_decides = False
    for name, w, f, ops in _triples(catalog_inputs, seeded_inputs, graded_acting_inputs, pure_orbit_inputs):
        for ff in (f, f.shift(1)):
            pieces = verify._graded_pieces(w, ff, ops)
            got = verify._sampled_mhs(pieces, len(ops), policy)
            assert got == reference_whole_space_sampled_mhs(w, ff, ops, policy), name
            verdicts.add(got)
            moved_decides |= got != all(is_pure_hs(k, fk) for k, fk, _ in pieces)
    assert verdicts == {True, False}
    # Some verdicts differ from those of the unmoved pieces, so a clause
    # that skipped moving them would fail here.
    assert moved_decides


def test_graded_pieces_are_those_of_graded_piece(catalog_inputs, seeded_inputs):
    """The pieces of ``verify._graded_pieces`` and those of ``graded_piece``
    agree."""
    for name, h in catalog_inputs + seeded_inputs:
        want = [(k, graded_piece(h, k).hodge_filtration, graded_piece(h, k).operators) for k in h.weights()]
        assert verify._graded_pieces(h.weight_filtration, h.hodge_filtration, h.operators) == want, name


def test_mixed_verdicts_need_no_graded_piece_datum(catalog_inputs, monkeypatch):
    """``check_mixed_orbit`` and ``mhs_failures`` read their graded pieces
    from ``verify._graded_pieces``: with ``graded_piece`` broken they return
    what they return with the pieces read off ``graded_piece`` data, as
    they once were."""

    def pieces_of_graded_piece(w, f, operators):
        h = make_datum(w, f, operators)
        return [(k, graded_piece(h, k).hodge_filtration, graded_piece(h, k).operators) for k in w.jumps()]

    def broken(*args):
        raise RuntimeError("graded_piece called")

    inputs = catalog_inputs + [(f"{name} F shifted by 1", _hodge_shifted(h, 1)) for name, h in catalog_inputs]
    policy = Policy()
    with monkeypatch.context() as mp:
        mp.setattr(verify, "_graded_pieces", pieces_of_graded_piece)
        want = [(verify.check_mixed_orbit(h, policy), verify.mhs_failures(h)) for _, h in inputs]
    monkeypatch.setattr(datum, "graded_piece", broken)
    monkeypatch.setattr(verify, "graded_piece", broken, raising=False)
    for (name, h), expected in zip(inputs, want):
        assert (verify.check_mixed_orbit(h, policy), verify.mhs_failures(h)) == expected, name
    for (name, _), (verdict, _) in zip(catalog_inputs, want):
        assert verdict.status == catalog_by_name(name).expectation("check_mixed_orbit"), name
    assert any(bad for _, bad in want)
