"""The three benchmark workloads: their inputs, their ops and the checks on
each op's output.

Each ``build_*`` function turns a seed into a :class:`Plan`.  The timed loop
in ``run.py`` runs the ops in ``Plan.order`` as one pass; afterwards
``Plan.check`` classifies each outcome.  Catalog entries are fixed; only the
``gen_random_mhs`` and ``random_nilpotent`` inputs depend on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import multiprocessing
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from hodgeorbit import catalog, cli, construct, docio, monodromy, verify

# The CLI default, used by every op.
POLICY = verify.Policy()
PASSING = (verify.CERTIFIED, verify.SUPPORTED)

# Fixed input that check_mixed_orbit refutes (admissibility_partial_sums is
# false) but for which embed_general returns a verified certificate.  It is
# embedded only: surject_from_pure on it did not finish within 5 minutes.
DEFECT_INPUT = (0, ((0, 2), (-1, 2), (-2, 1)), 1)

REFUTED_BUT_VERIFIED = "verified certificate on an input check_mixed_orbit refutes"

# The seeded profile on which some inputs show the same disagreement.
SMALL_PROFILE = ((0, 1), (-1, 2))


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    run: object  # no-argument callable; its return value is the op's output


@dataclass
class Outcome:
    op: int  # index into Plan.ops
    latency: float
    result: object = None
    error: BaseException | None = None


@dataclass(frozen=True)
class Failure:
    """A failed op.  ``known`` marks a wrong output the program is known to
    give on that input: it counts as failed and is named in the report, but
    leaves ``correct`` true."""

    kind: str
    label: str
    reasons: tuple
    known: bool = False


@dataclass
class Plan:
    ops: list
    check: object  # callable(plan, outcomes) -> (failures by outcome, canonical output lines)
    notes: dict = field(default_factory=dict)
    # One pass, as indices into ``ops`` in run order; an op listed twice is
    # sampled twice per pass.  By default every op runs once, in order.
    order: list = None

    def __post_init__(self):
        if self.order is None:
            self.order = list(range(len(self.ops)))


def random_mhs_label(seed, profile, n_ops) -> str:
    prof = ",".join(f"({w},{d})" for w, d in profile)
    return f"random_mhs(seed={seed}, profile=[{prof}], n_ops={n_ops})"


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_cli(argv, stdin_text: str):
    """In-process ``hodgeorbit.cli.main`` with stdin fed from a string and
    stdout and stderr captured; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _first_outcomes(outcomes):
    """The first outcome of each op, in op order: every pass repeats the
    same ops, so the canonical output is taken from one pass."""
    first = {}
    for o in outcomes:
        first.setdefault(o.op, o)
    return [first[i] for i in sorted(first)]


# ---------------------------------------------------------------------------
# construct: embed_general and surject_from_pure, each then serialized


@dataclass(frozen=True)
class ConstructInput:
    label: str
    datum: object
    mixed_status: str  # check_mixed_orbit verdict, computed in set-up
    expected: dict  # catalog expectations, empty for generated inputs
    surject: bool = True
    # embed_general and surject_from_pure are known to verify certificates
    # that check_mixed_orbit refutes on this input: DEFECT_INPUT, rmf_missing
    # and some seeded SMALL_PROFILE inputs.  Only that failure is known.
    known_defect: bool = False
    samples: int = 1  # times each of its ops runs in one pass


def _embed_op(h):
    def run():
        cert = construct.embed_general(h, POLICY)
        return cert.verified, docio.serialize_certificate(cert)

    return run


def _surject_op(h):
    def run():
        cert = construct.surject_from_pure(h, POLICY)
        return cert.verified, docio.serialize_certificate(cert)

    return run


# Seeded two-weight inputs per run, by n_ops, each from its own sub-seed.
# The median op falls among their latencies (0.05-0.5 s), so their number
# sets how much op_p50_s follows one seed's draw.  The n_ops=2 inputs lie
# nearest the median, and drawing twice as many of them steadies it for less
# time than more of both.
CONSTRUCT_SMALL_COUNTS = ((1, 8), (2, 16))
# Ops under a second run LIGHT_SAMPLES times per pass, a round apart, so that
# each one's fastest sample misses the machine's slow stretches; the median
# op is one of them.  The ops of several seconds run once, to keep the run
# short: those on three_weight_mixed (2.5 s and 5 s), on the seeded
# [(0,2),(-2,2)] input and on the defect input.
LIGHT_SAMPLES = 2
HEAVY_ENTRIES = ("three_weight_mixed",)


def construct_inputs(seed: int) -> list:
    rng = random.Random(seed)
    raw = []  # (label, datum, expected, surject, known_defect, samples)
    for entry in catalog.catalog_entries():
        if entry.kind == "mixed":
            samples = 1 if entry.name in HEAVY_ENTRIES else LIGHT_SAMPLES
            raw.append((entry.name, entry.build(), dict(entry.expected), True, entry.name == "rmf_missing", samples))
    for n_ops, count in CONSTRUCT_SMALL_COUNTS:
        for _ in range(count):
            sub = rng.randrange(2**31)
            h = catalog.gen_random_mhs(sub, SMALL_PROFILE, n_ops)
            raw.append((random_mhs_label(sub, SMALL_PROFILE, n_ops), h, {}, True, True, LIGHT_SAMPLES))
    sub = rng.randrange(2**31)
    profile = ((0, 2), (-2, 2))
    raw.append((random_mhs_label(sub, profile, 1), catalog.gen_random_mhs(sub, profile, 1), {}, True, False, 1))
    dseed, dprofile, dn = DEFECT_INPUT
    raw.append((random_mhs_label(dseed, dprofile, dn), catalog.gen_random_mhs(dseed, dprofile, dn), {}, False, True, 1))
    return [
        ConstructInput(label, h, verify.check_mixed_orbit(h, POLICY).status, expected, surject, known, samples)
        for label, h, expected, surject, known, samples in raw
    ]


def build_construct(seed: int) -> Plan:
    ops, op_inputs = [], []
    for inp in construct_inputs(seed):
        kinds = [("embed", _embed_op)] + ([("surject", _surject_op)] if inp.surject else [])
        for kind, make in kinds:
            ops.append(Op(kind, inp.label, make(inp.datum)))
            op_inputs.append(inp)
    # A pass is LIGHT_SAMPLES rounds, each shuffled: every op in the first,
    # the ops under a second in every round.  The samples of one op lie about
    # a round apart, and the short ops are spread between the ops of several
    # seconds, so that a slow stretch of the machine does not land on all of
    # them at once.
    rng = random.Random(seed)
    order = []
    for k in range(LIGHT_SAMPLES):
        round_k = [i for i, inp in enumerate(op_inputs) if inp.samples > k]
        rng.shuffle(round_k)
        order += round_k
    return Plan(ops, check_construct, {"inputs": op_inputs}, order)


def classify_construct(kind: str, inp: ConstructInput, outcome: Outcome, recheck_code):
    """The construct op's :class:`Failure`, or None when it passed.

    ``recheck_code`` is the exit code of ``verify-certificate`` on the
    serialized certificate, or None when the op returned none.
    """
    reasons = []
    passes = inp.mixed_status in PASSING
    expected_status = inp.expected.get("check_mixed_orbit")
    if expected_status is not None and expected_status != inp.mixed_status:
        reasons.append(f"check_mixed_orbit gave {inp.mixed_status}, catalog expects {expected_status}")
    err = outcome.error
    if err is not None and not isinstance(err, ValueError):
        reasons.append(f"raised {_error_text(err)}")
    verified = outcome.result[0] if err is None else None
    if passes and err is not None:
        reasons.append(f"raised {_error_text(err)} on an input check_mixed_orbit passes ({inp.mixed_status})")
    if passes and verified is False:
        reasons.append(f"unverified certificate on an input check_mixed_orbit passes ({inp.mixed_status})")
    if not passes and verified:
        reasons.append(REFUTED_BUT_VERIFIED)
    if kind == "embed" and inp.expected.get("embed") == "fail" and verified:
        reasons.append("verified certificate where the catalog expects embed to fail")
    if recheck_code is not None:
        if recheck_code not in (0, 1):
            reasons.append(f"verify-certificate on the serialized certificate exited {recheck_code}")
        elif (recheck_code == 0) != verified:
            reasons.append(f"serialized certificate re-checks as verified={recheck_code == 0}, op said {verified}")
    if not reasons:
        return None
    return Failure(kind, inp.label, tuple(reasons), inp.known_defect and reasons == [REFUTED_BUT_VERIFIED])


# Worker processes that re-check the serialized certificates after the timed
# phase.  The check is untimed, but re-certifying every document takes a
# third as long as the timed phase; two workers, one per core, halve that.
CHECK_WORKERS = 2


def _recheck_code(text: str) -> int:
    return run_cli(["verify-certificate", "--report", "structured"], text)[0]


def recheck_codes(texts) -> dict:
    """Exit code of ``verify-certificate`` on each distinct document.
    Re-checking is deterministic, so each document is checked once; the
    longest go first, so that no long one is left to run alone at the end."""
    distinct = sorted(set(texts), key=len, reverse=True)
    with ProcessPoolExecutor(CHECK_WORKERS, mp_context=multiprocessing.get_context("fork")) as pool:
        return dict(zip(distinct, pool.map(_recheck_code, distinct)))


def check_construct(plan: Plan, outcomes) -> tuple:
    inputs = plan.notes["inputs"]
    codes = recheck_codes(o.result[1] for o in outcomes if o.error is None)
    failures = []
    for o in outcomes:
        op, inp = plan.ops[o.op], inputs[o.op]
        code = codes[o.result[1]] if o.error is None else None
        failures.append(classify_construct(op.kind, inp, o, code))
    lines = []
    for o in _first_outcomes(outcomes):
        op = plan.ops[o.op]
        if o.error is not None:
            body = f"raised {_error_text(o.error)}"
        else:
            body = f"verified={o.result[0]} sha={hashlib.sha256(o.result[1].encode()).hexdigest()}"
        lines.append(f"{op.kind} {op.label} mixed={inputs[o.op].mixed_status} {body}")
    return failures, lines


# ---------------------------------------------------------------------------
# recheck: the CLI re-checks certificates and source documents


def build_recheck(seed: int) -> Plan:
    # The seed is unused: every input is a fixed catalog entry.
    ops = []
    for name in catalog.catalog_names("mixed_positive"):
        h = catalog.catalog_by_name(name).build()
        emb = docio.serialize_certificate(construct.embed_general(h, POLICY))
        sur = docio.serialize_certificate(construct.surject_from_pure(h, POLICY))
        src = docio.serialize(h)
        for kind, argv, text in (
            ("verify-embedding", ("verify-certificate",), emb),
            ("verify-surjection", ("verify-certificate",), sur),
            ("check-mhs", ("check-mhs",), src),
        ):
            ops.append(Op(kind, name, _cli_op(argv + ("--report", "structured"), text)))
    return Plan(ops, check_recheck)


def _cli_op(argv, text):
    return lambda: run_cli(argv, text)


def check_recheck(plan: Plan, outcomes) -> tuple:
    failures = []
    for o in outcomes:
        op = plan.ops[o.op]
        reasons = []
        if o.error is not None:
            reasons.append(f"escaping exception {_error_text(o.error)}")
        else:
            code, _, err = o.result
            if code != cli.EXIT_OK:
                reasons.append(f"exit code {code}, expected {cli.EXIT_OK}")
            if "Traceback" in err:
                reasons.append("traceback on stderr")
        failures.append(Failure(op.kind, op.label, tuple(reasons)) if reasons else None)
    lines = []
    for o in _first_outcomes(outcomes):
        op = plan.ops[o.op]
        out = _error_text(o.error) if o.error is not None else f"exit={o.result[0]} {o.result[1].strip()}"
        lines.append(f"{op.kind} {op.label} {out}")
    return failures, lines


# ---------------------------------------------------------------------------
# triage: many small monodromy and verdict ops

# Four rounds make a pass of about 3 s, so a 12 s run samples each op four
# or five times: more samples of fewer ops keep each op's fastest sample clear
# of the machine's slow stretches better than two samples of twice as many.
TRIAGE_ROUNDS = 4
TRIAGE_DIMS = range(6, 17)
TRIAGE_PROFILES = (
    ((0, 1), (-1, 2)),
    ((0, 2), (-2, 2)),
    ((1, 2), (0, 2)),
    ((0, 1), (-1, 2), (-2, 1)),
    ((0, 2), (-1, 2), (-2, 1)),
    ((0, 2), (-2, 2), (-4, 2)),
)


def _weight_monodromy_op(n):
    return lambda: monodromy.weight_monodromy(n)


def _relative_monodromy_op(h):
    return lambda: monodromy.relative_monodromy(h.operators[0], h.weight_filtration)


def _check_mixed_op(h):
    return lambda: verify.check_mixed_orbit(h, POLICY)


def _check_pure_op(o):
    return lambda: verify.check_pure_orbit(o, POLICY)


def build_triage(seed: int) -> Plan:
    rng = random.Random(seed)
    ops = []
    operators = {}
    for _ in range(TRIAGE_ROUNDS):
        for dim in TRIAGE_DIMS:
            n = catalog.random_nilpotent(rng, dim)
            operators[len(ops)] = n
            ops.append(Op("weight_monodromy", f"random_nilpotent(dim={dim})", _weight_monodromy_op(n)))
        for profile in TRIAGE_PROFILES:
            for n_ops in (1, 2):
                sub = rng.randrange(2**31)
                h = catalog.gen_random_mhs(sub, profile, n_ops)
                label = random_mhs_label(sub, profile, n_ops)
                ops.append(Op("relative_monodromy", label, _relative_monodromy_op(h)))
                ops.append(Op("check_mixed_orbit", label, _check_mixed_op(h)))
    expected = {}
    for entry in catalog.catalog_entries():
        if entry.kind == "orbit":
            expected[len(ops)] = entry.expectation("check_pure_orbit")
            ops.append(Op("check_pure_orbit", entry.name, _check_pure_op(entry.build())))
    return Plan(ops, check_triage, {"operators": operators, "expected": expected})


def _canonical(result) -> str:
    """Stable text of a triage output: RREF bases are canonical."""
    if result is None:
        return "None"
    if isinstance(result, verify.Verdict):
        return f"{result.status} {result.evidence!r}"
    steps = [(k, [[repr(x) for x in row] for row in s.basis.entries]) for k, s in result.filtration.steps]
    return f"center={result.center} {steps}"


def check_triage(plan: Plan, outcomes) -> tuple:
    operators, expected = plan.notes["operators"], plan.notes["expected"]
    failures = []
    oracle = {}  # op -> (filtration, verdict); a repeated equal output keeps its verdict
    for o in outcomes:
        op = plan.ops[o.op]
        reasons = []
        if o.error is not None:
            reasons.append(f"raised {_error_text(o.error)}")
        elif o.op in operators:
            seen = oracle.get(o.op)
            if seen is None or seen[0] != o.result:
                ok = catalog.oracle_monodromy_axioms(operators[o.op], o.result.filtration, o.result.center)
                oracle[o.op] = seen = (o.result, ok)
            if not seen[1]:
                reasons.append("weight filtration fails oracle_monodromy_axioms")
        elif o.op in expected and o.result.status != expected[o.op]:
            reasons.append(f"verdict {o.result.status}, catalog expects {expected[o.op]}")
        failures.append(Failure(op.kind, op.label, tuple(reasons)) if reasons else None)
    lines = []
    for o in _first_outcomes(outcomes):
        op = plan.ops[o.op]
        out = f"raised {_error_text(o.error)}" if o.error is not None else _canonical(o.result)
        lines.append(f"{op.kind} {op.label} {out}")
    return failures, lines


WORKLOADS = {
    "construct": build_construct,
    "recheck": build_recheck,
    "triage": build_triage,
}
