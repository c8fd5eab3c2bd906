"""Golden digest of canonical outputs on fixed seeded inputs.

Every subspace is held by its canonical RREF basis, so the text of a
filtration or a verdict is a byte-exact witness of the computation.  The
digest below pins that text for ``weight_monodromy``, ``relative_monodromy``
and ``check_pure_orbit``; a rewrite of the linear-algebra kernel, or any
shortcut in it, must leave it unchanged.
"""

import hashlib
import random

from hodgeorbit import catalog
from hodgeorbit.monodromy import relative_monodromy, weight_monodromy
from hodgeorbit.verify import Policy, Verdict, check_pure_orbit

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
