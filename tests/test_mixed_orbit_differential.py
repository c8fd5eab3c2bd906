"""Differential tests for the per-call reuse in ``check_mixed_orbit``.

``admissibility_report`` computes each distinct relative monodromy
filtration once per call, and the sampled mixed-Hodge clause computes W's
graded coordinates once per call.  The code they replaced is kept here as
the reference: the un-memoised ``admissibility_report`` and the sampled
loop that built a ``HodgeDatum`` and ran ``is_mhs`` at every grid point.
Verdicts and facts must be identical with either.
"""

from fractions import Fraction

import pytest

from hodgeorbit import monodromy, verify
from hodgeorbit.catalog import catalog_entries, gen_random_mhs
from hodgeorbit.datum import make_datum
from hodgeorbit.linalg import Matrix
from hodgeorbit.monodromy import AdmissibilityReport, relative_monodromy
from hodgeorbit.verify import Policy, is_mhs, orbit_point

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


def _both(fn, *args):
    """fn(*args) with the current code and with the references."""
    current = _outcome(fn, *args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "admissibility_report", reference_admissibility_report)
        mp.setattr(verify, "_sampled_mhs", reference_sampled_mhs)
        mp.setattr(verify, "_unpolarized_mixed_ok", reference_unpolarized_mixed_ok)
        reference = _outcome(fn, *args)
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

