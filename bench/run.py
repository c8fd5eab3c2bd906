"""hodgeorbit benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload construct --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The loop is closed with one caller on one thread: each op starts
when the previous one has returned.  The timed phase runs whole passes over
the workload's ops, at least one, until ``--seconds`` have elapsed; then
every output is checked, untimed (``construct`` re-checks its certificates
in two worker processes).  The last line of stdout is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Set-up builds per run; setup_s takes the median.  A recheck build makes
# every certificate, about 8 s, long enough to average the machine's short
# slow stretches by itself; two keep the run short.
SETUP_REPEATS = {"construct": 3, "recheck": 2, "triage": 3}
# The end-to-end metrics in the result line.  ``op_tail_s`` and ``fail_ratio``
# are printed only: the tail follows the machine's slow stretches more than
# the code, and the fail ratio is 0 on recheck and triage.
BENCHMARKED = ("setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb")
PROBE_REPEATS = 7
OVERHEAD_SAMPLE_S = 2.0
OVERHEAD_ROUNDS = 3


def _import_library():
    """Import hodgeorbit and the workloads from this checkout's ``src/``;
    exit with code 1, printing no result, when the checkout has no library."""
    if not (SRC / "hodgeorbit" / "__init__.py").is_file():
        sys.exit(f"error: no hodgeorbit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import hodgeorbit

    if Path(hodgeorbit.__file__).resolve().parent != (SRC / "hodgeorbit").resolve():
        sys.exit(f"error: hodgeorbit was imported from {hodgeorbit.__file__}, not {SRC}")
    import workloads

    return workloads


def timed_passes(ops, order, seconds, tracer=None):
    """Run whole passes until ``seconds`` have elapsed, at least one pass;
    a pass runs ``ops[i]`` for each ``i`` in ``order``.  Return the outcomes
    and the length of the timed phase."""
    from workloads import Outcome

    outcomes = []
    t0 = time.perf_counter()
    while True:
        for i in order:
            op = ops[i]
            if tracer is not None:
                tracer.begin_op(len(outcomes))
            s = time.perf_counter()
            try:
                out = Outcome(i, 0.0, result=op.run())
            except Exception as exc:  # an op's failure is data, not the end of the run
                out = Outcome(i, 0.0, error=exc)
            out.latency = time.perf_counter() - s
            if tracer is not None:
                tracer.end_op()
            outcomes.append(out)
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return outcomes, elapsed


def tail(latencies):
    """The latency at the highest percentile with at least ten samples
    beyond it: the eleventh largest.  Returns (value, percentile, beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def end_to_end(setup_s, outcomes, n_ops, failed):
    """The end-to-end metrics.

    ``op_p50_s`` and ``ops_per_s`` take each op's latency as its fastest
    sample: the machine's slow stretches only ever add time, and an op run
    in several passes is likely to miss one of them.  ``ops_per_s`` is thus
    the rate of a pass run at those latencies, a best case.  ``op_tail_s``
    is taken over every sample, so that slow stretches and pauses show in it.
    """
    fastest = [math.inf] * n_ops
    for o in outcomes:
        fastest[o.op] = min(fastest[o.op], o.latency)
    tail_s, pct, beyond = tail([o.latency for o in outcomes])
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(fastest), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (n_ops / sum(fastest), "1/s"),
        "fail_ratio": (failed / len(outcomes), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, (pct, beyond)


def probe_ms():
    """Median time of a fixed pure-Python loop, in ms.  The machine's speed
    changes over time, so this is printed with every run, to pair runs taken
    at the same speed; it scales no metric."""
    samples = []
    for _ in range(PROBE_REPEATS):
        s = time.perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        samples.append(time.perf_counter() - s)
    return 1000.0 * statistics.median(samples)


def tracing_overhead(ops, traced_outcomes, tracing):
    """Ratio of traced to untraced time over a sample of the ops, and the
    sample's size.

    The sample is the ops, in plan order, whose traced latency fits in
    OVERHEAD_SAMPLE_S.  Untraced and traced passes over it alternate
    OVERHEAD_ROUNDS times; each side keeps every op's fastest time, so a
    slow stretch of the machine that hits one side only is discarded.
    """
    first = {}
    for o in traced_outcomes:
        first.setdefault(o.op, o.latency)
    sample, budget = [], OVERHEAD_SAMPLE_S
    for i, op in enumerate(ops):
        if first[i] <= budget:
            sample.append(op)
            budget -= first[i]
    best = {"untraced": [math.inf] * len(sample), "traced": [math.inf] * len(sample)}
    for _ in range(OVERHEAD_ROUNDS):
        for side, tracer in (("untraced", None), ("traced", tracing.Tracer())):
            if tracer is not None:
                tracer.install()
            try:
                outcomes, _ = timed_passes(sample, range(len(sample)), 0, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            for o in outcomes:
                best[side][o.op] = min(best[side][o.op], o.latency)
    return sum(best["traced"]) / sum(best["untraced"]), len(sample)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("construct", "recheck", "triage"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = _import_library()
    import_s = time.perf_counter() - _T0
    build = workloads.WORKLOADS[args.workload]
    builds = []
    for _ in range(SETUP_REPEATS[args.workload]):
        s = time.perf_counter()
        plan = build(args.seed)
        builds.append(time.perf_counter() - s)
    # Import once plus the median build: the time from process start to the
    # first timed op, with the build's run-to-run noise damped.
    setup_s = import_s + statistics.median(builds)

    probe_before = probe_ms()
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            outcomes, timed_s = timed_passes(plan.ops, plan.order, args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        outcomes, timed_s = timed_passes(plan.ops, plan.order, args.seconds)
    probe_after = probe_ms()

    failures, canonical = plan.check(plan, outcomes)
    failed = [f for f in failures if f is not None]
    n = len(outcomes)
    print(f"workload {args.workload}  seed {args.seed}  passes {n // len(plan.order)}  ops {n}  timed {timed_s:.3f} s"
          f"  (closed loop, one caller, one thread{', traced' if args.trace else ''})")
    print(f"  machine probe: fixed Python loop {probe_before:.2f} ms before, {probe_after:.2f} ms after the timed phase")
    e2e, (pct, beyond) = end_to_end(setup_s, outcomes, len(plan.ops), len(failed))
    for name, (value, unit) in e2e.items():
        extra = f"  (p{pct:.1f}: {beyond} of {n} samples beyond)" if name == "op_tail_s" else ""
        print(f"  {name:12s} {value:.6g} {unit}{extra}")
    _report_failures(failed)
    print(f"  digest {args.workload}: {workloads.digest(canonical)} ({len(canonical)} canonical outputs)")

    if args.trace:
        kinds = [plan.ops[o.op].kind for o in outcomes]
        metrics = tracing.layer_metrics(tracer, kinds)
        for name, (value, unit) in metrics.items():
            print(f"  {name:48s} {value:.6g} {unit}")
        spans = BENCH_DIR / "out" / f"spans_{args.workload}_{args.seed}.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans)
        print(f"  spans: {len(tracer.names)} written to {spans}")
        ratio, sampled = tracing_overhead(plan.ops, outcomes, tracing)
        print(f"  tracing overhead: {ratio:.3f}x (fastest traced / fastest untraced time of {sampled} ops,"
              f" {OVERHEAD_ROUNDS} alternating rounds)")
    else:
        metrics = {k: e2e[k] for k in BENCHMARKED}

    result = {
        "correct": all(f.known for f in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _report_failures(failed):
    """One line per distinct failure, naming the op and its input."""
    for f, count in Counter(failed).items():
        tag = "known defect" if f.known else "UNEXPECTED"
        print(f"  failed [{tag}] {count}x {f.kind} {f.label}: {'; '.join(f.reasons)}")


if __name__ == "__main__":
    sys.exit(main())
