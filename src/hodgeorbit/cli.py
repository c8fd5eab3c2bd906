"""Command-line surface: verdict checks, filtration computations, and the
embedding/surjection pipelines on serialized documents.

Exit codes: 0 for a positive verdict (CERTIFIED or SUPPORTED, or a passing
computation), 1 for REFUTED or a failed certificate, 2 for usage and
validation errors, 3 for an internal error (a defect of the program, never
a verdict).  Structured reports are canonical JSON, so identical
inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import docio
from .catalog import catalog_by_name, catalog_entries, gen_random_mhs
from .construct import (
    certify_embedding,
    certify_surjection,
    embed_general,
    mixed_to_orbit,
    orbit_to_mixed,
    surject_from_pure,
)
from .datum import HodgeDatum, OrbitDatum, PairedDatum
from .monodromy import relative_monodromy, weight_monodromy
from .verify import Policy, check_mixed_orbit, check_pure_orbit, mhs_failures, shear_equivalence_report

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _policy(args) -> Policy:
    try:
        grid = tuple(int(v) for v in args.grid.split(",") if v.strip())
        shears = tuple(int(v) for v in args.shear.split(",") if v.strip())
    except ValueError:
        raise docio.ValidationError("grid and shear flags take comma-separated integers")
    if not grid or any(v <= 0 for v in grid) or any(v <= 0 for v in shears):
        raise docio.ValidationError("grid and shear values must be positive")
    return Policy(grid=grid, shears=shears)


def _read_input(args) -> str:
    if args.input is None or args.input == "-":
        return sys.stdin.read()
    with open(args.input, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_output(args, text: str):
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_report(args, report: dict):
    if args.report == "structured":
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        _emit_text(report)


def _emit_text(report: dict, indent: str = ""):
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list):
            print(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, indent + "  ")
                else:
                    print(f"{indent}  {item}")
        else:
            print(f"{indent}{key}: {value}")


def _verdict_report(verdict) -> dict:
    return {
        "status": verdict.status,
        "evidence": [
            {"clause": c, "ok": ok, "detail": detail} for c, ok, detail in verdict.evidence
        ],
    }


def _exit_for(verdict) -> int:
    return EXIT_OK if verdict.passed else EXIT_REFUTED


def cmd_check_mhs(args) -> int:
    obj = docio.parse(_read_input(args))
    if isinstance(obj, PairedDatum):
        obj = obj.datum
    if not isinstance(obj, HodgeDatum):
        raise docio.ValidationError("check-mhs expects a mixed document")
    verdict = check_mixed_orbit(obj, _policy(args))
    report = _verdict_report(verdict)
    report["failing_weights"] = mhs_failures(obj)
    _emit_report(args, report)
    return _exit_for(verdict)


def cmd_check_orbit(args) -> int:
    obj = docio.parse(_read_input(args))
    if not isinstance(obj, OrbitDatum):
        raise docio.ValidationError("check-orbit expects an orbit document")
    verdict = check_pure_orbit(obj, _policy(args))
    _emit_report(args, _verdict_report(verdict))
    return _exit_for(verdict)


def _filtration_report(filt) -> list:
    return [{"index": k, "dim": s.dim} for k, s in filt.steps]


def _operator(ops, args):
    """The operator selected by ``--op-index``, counted from 0."""
    if not 0 <= args.op_index < len(ops):
        raise docio.ValidationError("operator index out of range")
    return ops[args.op_index]


def cmd_monodromy(args) -> int:
    obj = docio.parse(_read_input(args))
    ops = obj.operators if not isinstance(obj, PairedDatum) else obj.datum.operators
    m = weight_monodromy(_operator(ops, args))
    _emit_report(args, {"center": m.center, "jumps": _filtration_report(m.filtration)})
    return EXIT_OK


def cmd_rel_monodromy(args) -> int:
    obj = docio.parse(_read_input(args))
    if isinstance(obj, PairedDatum):
        obj = obj.datum
    if not isinstance(obj, HodgeDatum):
        raise docio.ValidationError("rel-monodromy expects a mixed document")
    m = relative_monodromy(_operator(obj.operators, args), obj.weight_filtration)
    if m is None:
        _emit_report(args, {"exists": False})
        return EXIT_REFUTED
    _emit_report(args, {"exists": True, "jumps": _filtration_report(m.filtration)})
    return EXIT_OK


def cmd_embed(args) -> int:
    obj = docio.parse(_read_input(args))
    if not isinstance(obj, HodgeDatum):
        raise docio.ValidationError("embed expects a mixed document")
    cert = embed_general(obj, _policy(args))
    _write_output(args, docio.serialize_certificate(cert))
    _emit_report(
        args,
        {
            "verified": cert.verified,
            "target_dim": cert.target.dim,
            "target_weight": cert.target.weight,
            "new_operators": 1,
            "orbit": _verdict_report(cert.orbit_verdict),
        },
    )
    return EXIT_OK if cert.verified else EXIT_REFUTED


def cmd_surject(args) -> int:
    obj = docio.parse(_read_input(args))
    if not isinstance(obj, HodgeDatum):
        raise docio.ValidationError("surject expects a mixed document")
    cert = surject_from_pure(obj, _policy(args))
    _write_output(args, docio.serialize_certificate(cert))
    _emit_report(
        args,
        {
            "verified": cert.verified,
            "source_dim": cert.source.dim,
            "source_weight": cert.source.weight,
            "orbit": _verdict_report(cert.source_verdict),
        },
    )
    return EXIT_OK if cert.verified else EXIT_REFUTED


def cmd_verify_certificate(args) -> int:
    raw = docio.parse_certificate(_read_input(args))
    policy = _policy(args)
    if raw["kind"] == "embedding":
        cert = certify_embedding(raw["source"], raw["target"], raw["map"], policy, raw["shear"])
        orbit = cert.orbit_verdict
    else:
        cert = certify_surjection(raw["source"], raw["target"], raw["map"], policy)
        orbit = cert.source_verdict
    _emit_report(args, {"verified": cert.verified, "conditions": cert.conditions, "orbit": _verdict_report(orbit)})
    return EXIT_OK if cert.verified else EXIT_REFUTED


def cmd_orbit_to_mixed(args) -> int:
    obj = docio.parse(_read_input(args))
    if not isinstance(obj, OrbitDatum):
        raise docio.ValidationError("orbit-to-mixed expects an orbit document")
    paired = orbit_to_mixed(obj, _policy(args))
    _write_output(args, docio.serialize(paired))
    _emit_report(args, {"weights": list(paired.datum.weights()), "weight": paired.weight})
    return EXIT_OK


def cmd_mixed_to_orbit(args) -> int:
    obj = docio.parse(_read_input(args))
    if not isinstance(obj, PairedDatum):
        raise docio.ValidationError("mixed-to-orbit expects a paired mixed document")
    orbit, verdict = mixed_to_orbit(obj, _policy(args))
    _write_output(args, docio.serialize(orbit))
    _emit_report(args, _verdict_report(verdict))
    return _exit_for(verdict)


def cmd_prop44(args) -> int:
    obj = docio.parse(_read_input(args))
    if not isinstance(obj, OrbitDatum):
        raise docio.ValidationError("prop44 expects an orbit document")
    if not obj.operators:
        raise docio.ValidationError("prop44 needs an orbit document with at least one operator")
    rep = shear_equivalence_report(obj, _policy(args))
    report = {
        "agree": rep.agree,
        "left_positive": rep.left_positive,
        "right_positive": rep.right_positive,
        "left": [{"shear": a, **_verdict_report(v)} for a, v in rep.left],
        "right_mixed": _verdict_report(rep.right_mixed),
        "right_primitive": [{"weight": k, **_verdict_report(v)} for k, v in rep.right_primitive],
    }
    _emit_report(args, report)
    return EXIT_OK if rep.agree else EXIT_REFUTED


def cmd_catalog(args) -> int:
    if args.list:
        _emit_report(args, {"entries": [e.name for e in catalog_entries()]})
        return EXIT_OK
    if not args.name:
        raise docio.ValidationError("catalog needs --name or --list")
    if args.name == "random-mhs":
        obj = gen_random_mhs(args.seed, ((0, 1), (-1, 2)), n_ops=1)
    else:
        entry = catalog_by_name(args.name)
        if entry.kind == "raw":
            raise docio.ValidationError(f"entry {args.name!r} is raw parts, not a document")
        obj = entry.build()
    _write_output(args, docio.serialize(obj))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgeorbit",
        description="Exact verifiers and constructions for mixed Hodge data and nilpotent orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=False, op_index=False):
        p.add_argument("--input", help="input document path (default: stdin)")
        if output:
            p.add_argument("--output", help="output document path")
        if op_index:
            p.add_argument("--op-index", type=int, default=0, dest="op_index")
        p.add_argument("--grid", default="4,8,16", help="sampling grid values")
        p.add_argument("--shear", default="8,16", help="shear candidates")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", choices=("text", "structured"), default="text")

    for name, kwargs in (
        ("check-mhs", {}),
        ("check-orbit", {}),
        ("monodromy", {"op_index": True}),
        ("rel-monodromy", {"op_index": True}),
        ("embed", {"output": True}),
        ("surject", {"output": True}),
        ("verify-certificate", {}),
        ("orbit-to-mixed", {"output": True}),
        ("mixed-to-orbit", {"output": True}),
        ("prop44", {}),
    ):
        common(sub.add_parser(name), **kwargs)
    p = sub.add_parser("catalog")
    p.add_argument("--name")
    p.add_argument("--list", action="store_true")
    p.add_argument("--output")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=("text", "structured"), default="text")
    return parser


# The parser of every ``main`` call in this process.  Building it costs more
# than reading a small document, so it is built once, on the first call --
# not at import, which every importer would pay.
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # Looked up on each call, so that a rebound cmd_* function is the
        # one that runs, whenever the parser was built.
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        return handler(args)
    except (docio.ParseError, docio.ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"refuted: {exc}", file=sys.stderr)
        return EXIT_REFUTED
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a defect, not a verdict: never exit 1 on it
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
