"""Tests of the benchmark's own machinery.  Run with

    python3 -m pytest bench/tests
"""

import sys

import pytest

import tracer as tracing
import workloads
from hodgeorbit import catalog, verify


def _bindings():
    """Every attribute of every hodgeorbit module and class, by identity."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "hodgeorbit" or modname.startswith("hodgeorbit."):
            for attr, value in vars(mod).items():
                out[(modname, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        out[(modname, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_rebound_name():
    before = _bindings()
    t = tracing.Tracer()
    t.install()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("hodgeorbit.cli", "weight_monodromy") in changed
        assert ("hodgeorbit.linalg", "Matrix", "__matmul__") in changed
        assert ("hodgeorbit.scalars", "GaussScalar", "_raw") in changed
        monodromy = sys.modules["hodgeorbit.monodromy"]
        h = catalog.gen_tate(0, n_ops=1)
        monodromy.weight_monodromy(h.operators[0])
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert "monodromy.weight_monodromy" in t.names
    assert t.scalar_results[0] > 0 and t.matrices[0] > 0


def test_self_time_arithmetic_on_synthetic_spans():
    # construct.a [0, 10] > linalg.b [1, 4] > linalg.c [2, 3]
    #                     > verify.d [5, 9] > linalg.e [6, 8]
    names = ["construct.a", "linalg.b", "linalg.c", "verify.d", "linalg.e"]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 8.0]
    parent = [-1, 0, 1, 0, 3]
    assert tracing.exclusive_times(start, end, parent) == [3.0, 2.0, 1.0, 2.0, 2.0]
    self_s = tracing.layer_self_times(names, start, end, parent)
    assert self_s == {"construct": 3.0, "linalg": 5.0, "verify": 2.0}
    assert sum(self_s.values()) == end[0] - start[0]
    # Nested spans of one name are timed once, by the outermost.
    assert tracing.outermost(names, parent, {"linalg.b", "linalg.c"}) == [1]
    assert tracing.outermost(names, parent, {"linalg.c", "linalg.e"}) == [2, 4]


def _construct_input(label, h, expected=None):
    status = verify.check_mixed_orbit(h, workloads.POLICY).status
    return workloads.ConstructInput(label, h, status, expected or {})


@pytest.fixture(scope="module")
def construct_inputs():
    return {inp.label: inp for inp in workloads.construct_inputs(seed=1)}


def test_classifier_flags_the_known_defect_input(construct_inputs):
    inp = construct_inputs[workloads.random_mhs_label(*workloads.DEFECT_INPUT)]
    assert inp.mixed_status == verify.REFUTED
    # embed_general returns a verified certificate here (about 6 s to build).
    outcome = workloads.Outcome(0, 6.0, result=(True, "{}"))
    failure = workloads.classify_construct("embed", inp, outcome, 0)
    assert failure.reasons == (workloads.REFUTED_BUT_VERIFIED,)
    assert failure.known


def test_classifier_flags_a_verified_certificate_on_a_catalog_negative_as_unexpected(construct_inputs):
    # The known defect is tied to the inputs where it was seen: the same
    # wrong output on another refuted input is a new failure.
    inp = construct_inputs["kummer_flipped_bottom"]
    assert inp.mixed_status == verify.REFUTED
    outcome = workloads.Outcome(0, 0.0, result=(True, "{}"))
    failure = workloads.classify_construct("surject", inp, outcome, 0)
    assert failure.reasons == (workloads.REFUTED_BUT_VERIFIED,)
    assert not failure.known


def test_classifier_passes_a_catalog_positive():
    entry = catalog.catalog_by_name("two_weight_mixed")
    inp = _construct_input(entry.name, entry.build(), dict(entry.expected))
    outcome = workloads.Outcome(0, 0.0, result=workloads._embed_op(inp.datum)())
    code, _, _ = workloads.run_cli(["verify-certificate"], outcome.result[1])
    assert workloads.classify_construct("embed", inp, outcome, code) is None


@pytest.mark.parametrize(
    "outcome, code, reason",
    [
        (workloads.Outcome(0, 0.0, error=KeyError("x")), None, "raised KeyError"),
        (workloads.Outcome(0, 0.0, result=(False, "{}")), 1, "unverified certificate"),
        (workloads.Outcome(0, 0.0, result=(True, "{}")), 1, "re-checks as verified=False"),
        (workloads.Outcome(0, 0.0, result=(True, "{}")), 2, "exited 2"),
    ],
)
def test_classifier_flags_other_failures_on_a_positive(outcome, code, reason):
    entry = catalog.catalog_by_name("tate_unit")
    inp = _construct_input(entry.name, entry.build(), dict(entry.expected))
    failure = workloads.classify_construct("embed", inp, outcome, code)
    assert any(reason in r for r in failure.reasons)
    assert not failure.known
