"""Golden digest of canonical outputs on fixed seeded inputs.

Every subspace is held by its canonical RREF basis, so the text of a
filtration or a verdict is a byte-exact witness of the computation.  The
digest below pins that text for ``weight_monodromy``, ``relative_monodromy``
and ``check_pure_orbit``; a rewrite of the linear-algebra kernel, or any
shortcut in it, must leave it unchanged.  A second digest pins the structured
report, exit code and written document of every CLI command on every catalog
document, so a refactor of the pipelines must leave those unchanged too.  A
third pins the verdicts and certificates of the construction on seeded
two-weight inputs, where the catalog alone leaves the sampled multi-operator
checks untested.
"""

import contextlib
import hashlib
import io
import random

from hodgeorbit import catalog, docio
from hodgeorbit.cli import main
from hodgeorbit.construct import embed_general, surject_from_pure
from hodgeorbit.monodromy import relative_monodromy, weight_monodromy
from hodgeorbit.verify import Policy, Verdict, check_mixed_orbit, check_pure_orbit

# Taken from the kernel that eliminated on every call, before the shortcuts
# on the zero and full subspaces.
GOLDEN_SHA256 = "b6150fa91b227e8b09159726918cac1656d93d13f0ad57ead6af3fb6196258f7"

PROFILES = (
    ((0, 1), (-1, 2)),
    ((0, 2), (-2, 2)),
    ((1, 2), (0, 2)),
    ((0, 1), (-1, 2), (-2, 1)),
    ((0, 2), (-1, 2), (-2, 1)),
)
ORBITS = (
    "elliptic_orbit",
    "elliptic_orbit_tau_i",
    "tate_curve_orbit",
    "hodge_tate_orbit",
    "elliptic_sum_orbit",
    "mixed_block_orbit",
    "elliptic_orbit_flipped",
    "tate_curve_orbit_flipped",
    "hodge_tate_orbit_flipped",
    "elliptic_sum_orbit_flipped",
    "mixed_block_orbit_flipped",
    "stuck_filtration_orbit",
    "sheared_pair_orbit",
)


def _canonical(result) -> str:
    if result is None:
        return "None"
    if isinstance(result, Verdict):
        return f"{result.status} {result.evidence!r}"
    steps = [(k, [[repr(x) for x in row] for row in s.basis.entries]) for k, s in result.filtration.steps]
    return f"center={result.center} {steps}"


def golden_lines():
    rng = random.Random(20221220)
    lines = []
    for dim in range(3, 13):
        n = catalog.random_nilpotent(rng, dim)
        lines.append(f"weight_monodromy dim={dim} {_canonical(weight_monodromy(n))}")
    for profile in PROFILES:
        for n_ops in (1, 2):
            h = catalog.gen_random_mhs(rng.randrange(2**31), profile, n_ops)
            m = relative_monodromy(h.operators[0], h.weight_filtration)
            lines.append(f"relative_monodromy {profile} n_ops={n_ops} {_canonical(m)}")
    for name in ORBITS:
        verdict = check_pure_orbit(catalog.catalog_by_name(name).build(), Policy())
        lines.append(f"check_pure_orbit {name} {_canonical(verdict)}")
    return lines


def test_canonical_outputs_match_golden_digest():
    h = hashlib.sha256()
    for line in golden_lines():
        h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == GOLDEN_SHA256


# -- every CLI command on every catalog document -------------------------------

# Taken from the code before the duplicated block sums, transversality loops,
# graded coordinates, shear searches and surjection re-checks were folded, and
# retaken when embed and surject began to refuse inadmissible sources: only
# the embed and surject records on rmf_missing changed (exit 1, named clause).
GOLDEN_CLI_SHA256 = "2007c2dbec02a5b1481f05d679bf37774f1d26b9f7f7a47f04f718aef24739aa"

MIXED_COMMANDS = ("check-mhs", "rel-monodromy", "embed", "surject")
ORBIT_COMMANDS = ("check-orbit", "monodromy", "orbit-to-mixed", "prop44")
WRITES = {"embed", "surject", "orbit-to-mixed"}


def cli_transcript(tmp_path):
    """One record per command run: the command, its exit code, stdout,
    stderr and the document it wrote.  Certificates are re-checked with
    ``verify-certificate`` and mixed outputs sent back with
    ``mixed-to-orbit``."""
    records = []

    def run(name, command, source, written=None):
        argv = [command, "--input", str(source), "--report", "structured"]
        if written is not None:
            argv += ["--output", str(written)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        doc = written.read_text() if written is not None and written.exists() else None
        records.append(f"{name} {command} exit={code}\n{out.getvalue()}{err.getvalue()}{doc}")
        return doc is not None

    for entry in catalog.catalog_entries():
        if entry.kind == "raw":
            continue
        source = tmp_path / f"{entry.name}.json"
        source.write_text(docio.serialize(entry.build()))
        for command in MIXED_COMMANDS if entry.kind == "mixed" else ORBIT_COMMANDS:
            written = tmp_path / f"{entry.name}.{command}.json" if command in WRITES else None
            if not run(entry.name, command, source, written):
                continue
            if command == "orbit-to-mixed":
                run(entry.name, "mixed-to-orbit", written, tmp_path / f"{entry.name}.back.json")
            elif command in WRITES:
                run(entry.name, "verify-certificate", written)
    return records


def test_cli_outputs_match_golden_digest(tmp_path):
    h = hashlib.sha256()
    for record in cli_transcript(tmp_path):
        h.update(record.encode("utf-8") + b"\n")
    assert h.hexdigest() == GOLDEN_CLI_SHA256


# -- the construction on seeded two-weight inputs ------------------------------

# Taken from the code before the pairing transports, induced and dual
# filtrations, filtration shifts and orbit points were folded, and retaken
# when embed_general and surject_from_pure began to refuse inadmissible
# sources: only the lines of inputs check_mixed_orbit refutes changed.
GOLDEN_CONSTRUCT_SHA256 = "9f8557f27db0ede6b266705c1296552cd9438f8aac1ee8ccbd8ef20c56b875e6"

SEEDED_PROFILE = ((0, 1), (-1, 2))
# check_mixed_orbit refutes this input at both operator counts for
# admissibility, yet both of its certificates used to verify; both are now
# refused up front.
REFUTED_BUT_VERIFIED_SEED = 271041745


def construct_lines():
    """One line per seeded input: the check_mixed_orbit status, then for
    embed_general and surject_from_pure the verified flag and the digest of
    the serialized certificate, or the text of the ValueError raised."""
    rng = random.Random(20221221)
    inputs = [(rng.randrange(2**31), n_ops) for n_ops in (1, 2) for _ in range(12)]
    inputs += [(REFUTED_BUT_VERIFIED_SEED, n_ops) for n_ops in (1, 2)]
    policy = Policy()
    lines = []
    for seed, n_ops in inputs:
        h = catalog.gen_random_mhs(seed, SEEDED_PROFILE, n_ops)
        parts = [f"seed={seed} n_ops={n_ops} {check_mixed_orbit(h, policy).status}"]
        for build in (embed_general, surject_from_pure):
            try:
                cert = build(h, policy)
            except ValueError as exc:
                parts.append(f"{build.__name__} raised {exc}")
                continue
            digest = hashlib.sha256(docio.serialize_certificate(cert).encode("utf-8")).hexdigest()
            parts.append(f"{build.__name__} verified={cert.verified} sha={digest}")
        lines.append(" ".join(parts))
    return lines


def test_seeded_construct_outputs_match_golden_digest():
    h = hashlib.sha256()
    for line in construct_lines():
        h.update(line.encode("utf-8") + b"\n")
    assert h.hexdigest() == GOLDEN_CONSTRUCT_SHA256
