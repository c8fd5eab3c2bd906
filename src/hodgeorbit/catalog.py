"""Deterministic catalog of positive and negative test objects.

Negative entries violate exactly one clause each (a pairing sign, a stuck
Hodge filtration, a missing relative filtration) so that verifier failures
localize.  Expected verdicts are recorded per entry; the test-suite
recomputes them with the independent oracles in this module rather than
trusting the generators.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .datum import (
    HodgeDatum,
    OrbitDatum,
    Pairing,
    direct_sum,
    make_datum,
    tate_object,
    tate_twist,
    with_tag,
)
from .extensions import build_unit_extension
from .filtration import Filtration, trivial_weight_filtration
from .linalg import Matrix, Subspace, image_of_subspace, subspace_sum
from .scalars import GaussScalar, ONE, ZERO


# ---------------------------------------------------------------------------
# Basic generators


gen_tate = tate_object  # the rank-one twist Q(r), pure of weight -2r


def gen_kummer(z, n_ops: int = 1, flip_weight=None) -> HodgeDatum:
    """Weights {0, -2}, extension representative z, monodromy e -> g.

    ``flip_weight`` negates the declared graded pairing at that weight,
    producing a single-clause negative.
    """
    base = gen_tate(1, n_ops)
    parts = [[1]] + [[0] for _ in range(n_ops - 1)]
    datum = build_unit_extension(base, [GaussScalar.of(z) if not isinstance(z, GaussScalar) else z], monodromy_parts=parts[:n_ops])
    if flip_weight is None:
        return datum
    pairings = {w: (p.negate() if w == flip_weight else p) for w, p in datum.graded_pairings}
    return make_datum(datum.weight_filtration, datum.hodge_filtration, datum.operators, pairings, datum.twist_tag)


def gen_elliptic_orbit(tau=0, flip: bool = False) -> OrbitDatum:
    """Weight 1, rank 2, Jordan-two operator; the One-parameter degeneration
    of an elliptic curve.  F^1 is spanned by e_1 + tau e_2."""
    s = Pairing(Matrix([[0, 1], [-1, 0]]), -1, -1)
    if flip:
        s = s.negate()
    n = Matrix([[0, 0], [1, 0]])
    tau = tau if isinstance(tau, GaussScalar) else GaussScalar.of(tau)
    f = Filtration.make(
        2,
        False,
        [
            (0, Subspace.full(2)),
            (1, Subspace.from_vectors(2, [(ONE, tau)])),
            (2, Subspace.zero(2)),
        ],
    )
    return OrbitDatum(1, s, (n,), f)


def gen_tate_curve_orbit(flip: bool = False) -> OrbitDatum:
    """Weight -1, rank 2: the unit extension with its square-zero operator."""
    s = Pairing(Matrix([[0, -1], [1, 0]]), 1, -1)
    if flip:
        s = s.negate()
    n = Matrix([[0, 1], [0, 0]])
    f = Filtration.make(
        2,
        False,
        [(-1, Subspace.full(2)), (0, Subspace.from_vectors(2, [(0, 1)])), (1, Subspace.zero(2))],
    )
    return OrbitDatum(-1, s, (n,), f)


def gen_hodge_tate_orbit(flip: bool = False) -> OrbitDatum:
    """Weight 2, rank 3, Jordan-three operator, Hodge--Tate type."""
    sign = -1 if flip else 1
    s = Pairing(Matrix([[0, 0, sign], [0, -sign, 0], [sign, 0, 0]]), -2, 1)
    n = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])  # v=e_3, Nv=e_2, N^2v=e_1
    f = Filtration.make(
        3,
        False,
        [
            (0, Subspace.full(3)),
            (1, Subspace.from_vectors(3, [(0, 1, 0), (0, 0, 1)])),
            (2, Subspace.from_vectors(3, [(0, 0, 1)])),
            (3, Subspace.zero(3)),
        ],
    )
    return OrbitDatum(2, s, (n,), f)


def gen_elliptic_sum_orbit(flip_second: bool = False) -> OrbitDatum:
    """Direct sum of two elliptic degenerations; rank 4, weight 1."""
    sign = -1 if flip_second else 1
    s = Pairing(
        Matrix(
            [
                [0, 1, 0, 0],
                [-1, 0, 0, 0],
                [0, 0, 0, sign],
                [0, 0, -sign, 0],
            ]
        ),
        -1,
        -1,
    )
    n = Matrix(
        [
            [0, 0, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 0],
            [0, 0, 2, 0],
        ]
    )
    f = Filtration.make(
        4,
        False,
        [
            (0, Subspace.full(4)),
            (1, Subspace.from_vectors(4, [(1, 0, 0, 0), (0, 0, 1, 0)])),
            (2, Subspace.zero(4)),
        ],
    )
    return OrbitDatum(1, s, (n,), f)


def gen_mixed_block_orbit(flip: bool = False) -> OrbitDatum:
    """Weight 2, rank 4: Jordan blocks of sizes three and one, so the middle
    graded piece has two Lefschetz components."""
    sign = -1 if flip else 1
    s = Pairing(
        Matrix(
            [
                [0, 0, sign, 0],
                [0, -sign, 0, 0],
                [sign, 0, 0, 0],
                [0, 0, 0, 1],
            ]
        ),
        -2,
        1,
    )
    n = Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    f = Filtration.make(
        4,
        False,
        [
            (0, Subspace.full(4)),
            (1, Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])),
            (2, Subspace.from_vectors(4, [(0, 0, 1, 0)])),
            (3, Subspace.zero(4)),
        ],
    )
    return OrbitDatum(2, s, (n,), f)


def gen_stuck_orbit() -> OrbitDatum:
    """Weight 1, rank 2, with F^1 fixed by the operator; the moved
    filtration is never pure, so membership fails at every sample."""
    s = Pairing(Matrix([[0, 1], [-1, 0]]), -1, -1)
    n = Matrix([[0, 0], [1, 0]])
    f = Filtration.make(
        2,
        False,
        [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(0, 1)])), (2, Subspace.zero(2))],
    )
    return OrbitDatum(1, s, (n,), f)


def gen_two_operator_kummer(q=Fraction(2)) -> HodgeDatum:
    """Kummer-type mixed datum with two commuting operators N and q N."""
    base = gen_tate(1, 2)
    return build_unit_extension(base, [GaussScalar(0, 1)], monodromy_parts=[[1], [q]])


def gen_sheared_pair_orbit() -> OrbitDatum:
    """Two commuting operators on the elliptic degeneration: N and 2N."""
    e = gen_elliptic_orbit()
    return OrbitDatum(e.weight, e.pairing, (e.operators[0], e.operators[0].scale(Fraction(2))), e.hodge_filtration)


def gen_two_weight_mixed(n_ops: int = 0) -> HodgeDatum:
    """Weights {0, -1}, dim 3: the unit plus a twisted elliptic structure,
    with a nontrivial extension in the Hodge direction."""
    unit = gen_tate(0, n_ops)
    ell = with_tag(tate_twist(_elliptic_pure_datum(n_ops), 1), 0)
    base = direct_sum(unit, ell)
    u = Matrix(
        [
            [1, 0, 0],
            [GaussScalar(0, Fraction(1, 2)), 1, 0],
            [0, 0, 1],
        ]
    )
    ff = base.hodge_filtration.map_image(u)
    return make_datum(base.weight_filtration, ff, base.operators, dict(base.graded_pairings), base.twist_tag)


def gen_three_weight_mixed(n_ops: int = 1, flip_weight=None) -> HodgeDatum:
    """Weights {0, -1, -2}, dim 4, with one operator sending the top
    generator into the bottom line and fully twisted Hodge filtration."""
    unit = gen_tate(0, n_ops)
    ell = with_tag(tate_twist(_elliptic_pure_datum(n_ops), 1), 0)
    bottom = with_tag(gen_tate(1, n_ops), 0)
    base = direct_sum(direct_sum(unit, ell), bottom)
    ops = []
    for j, op in enumerate(base.operators):
        if j == 0:
            rows = [[ZERO] * 4 for _ in range(4)]
            rows[3][0] = ONE  # top generator -> bottom generator
            ops.append(Matrix(rows))
        else:
            ops.append(op)
    u = Matrix(
        [
            [1, 0, 0, 0],
            [GaussScalar(0, 1), 1, 0, 0],
            [Fraction(1, 2), 0, 1, 0],
            [GaussScalar(1, 1), 0, GaussScalar(0, Fraction(1, 3)), 1],
        ]
    )
    ff = base.hodge_filtration.map_image(u)
    pairings = dict(base.graded_pairings)
    if flip_weight is not None:
        pairings[flip_weight] = pairings[flip_weight].negate()
    return make_datum(base.weight_filtration, ff, ops, pairings, base.twist_tag)


def _elliptic_pure_datum(n_ops: int) -> HodgeDatum:
    """Pure weight 1, dim 2, F^1 spanned by e_1 + i e_2, polarized."""
    wf = trivial_weight_filtration(2, 1)
    ff = Filtration.make(
        2,
        False,
        [
            (0, Subspace.full(2)),
            (1, Subspace.from_vectors(2, [(ONE, GaussScalar(0, 1))])),
            (2, Subspace.zero(2)),
        ],
    )
    pairing = Pairing(Matrix([[0, 1], [-1, 0]]), -1, -1)
    return make_datum(wf, ff, [Matrix.zeros(2, 2)] * n_ops, {1: pairing}, 0)


def gen_rmf_missing_mixed() -> HodgeDatum:
    """Weights {0, 1}, dim 3, operator dropping weight by one: the relative
    monodromy filtration does not exist (parity obstruction)."""
    wf = Filtration.make(
        3, True, [(0, Subspace.from_vectors(3, [(1, 0, 0)])), (1, Subspace.full(3))]
    )
    ff = Filtration.make(
        3,
        False,
        [
            (0, Subspace.full(3)),
            (1, Subspace.from_vectors(3, [(0, ONE, GaussScalar(0, 1))])),
            (2, Subspace.zero(3)),
        ],
    )
    n = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    pairings = {
        0: Pairing(Matrix([[1]]), 0, 1),
        1: Pairing(Matrix([[0, 1], [-1, 0]]), -1, -1),
    }
    return make_datum(wf, ff, [n], pairings, 0)


def gen_nonisotropic_parts():
    """Raw orbit parts whose operator violates infinitesimal isotropy;
    they cannot form a valid OrbitDatum and exist to exercise the raw
    structural checker.  The pairing is symmetric (weight zero), where a
    Jordan block genuinely fails the bilinear identity."""
    s = Pairing(Matrix.identity(2), 0, 1)
    n = Matrix([[0, 1], [0, 0]])
    f = Filtration.make(2, False, [(0, Subspace.full(2)), (1, Subspace.zero(2))])
    return {"weight": 0, "pairing": s, "operators": (n,), "hodge_filtration": f}


# ---------------------------------------------------------------------------
# Seeded random generators


def random_nilpotent(rng: random.Random, dim: int) -> Matrix:
    """Strictly upper-triangular (after a random permutation) rational
    matrix with about 60 % of the entries above the diagonal nonzero;
    always nilpotent."""
    perm = list(range(dim))
    rng.shuffle(perm)
    rows = [[ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            if rng.random() < 0.6:
                rows[perm[i]][perm[j]] = GaussScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return Matrix(rows)


def random_invertible(rng: random.Random, dim: int) -> Matrix:
    """Unit upper-triangular times unit lower-triangular with small rational
    entries; determinant one."""
    up = [[ONE if i == j else (GaussScalar(rng.randint(-2, 2)) if j > i else ZERO) for j in range(dim)] for i in range(dim)]
    lo = [[ONE if i == j else (GaussScalar(rng.randint(-2, 2)) if j < i else ZERO) for j in range(dim)] for i in range(dim)]
    return Matrix(up) @ Matrix(lo)


def gen_random_mhs(seed: int, profile, n_ops: int = 1) -> HodgeDatum:
    """Iterated extension of pure blocks at the profile weights, with seeded
    extension data and weight-lowering commuting operators.

    ``profile`` is a sequence of (weight, dimension) pairs; odd weights need
    even dimensions.  Deterministic per seed.
    """
    profile = sorted(profile, key=lambda t: -t[0])
    total = sum(d for _, d in profile)
    if total > 6 or len(profile) > 3 or total == 0:
        raise ValueError("profile out of range: total dim <= 6 and at most 3 weights")
    rng = random.Random(seed)
    blocks = []
    for w, d in profile:
        if d <= 0:
            raise ValueError("block dimensions must be positive")
        if w % 2 == 0:
            blocks.append(_tate_block(w, d, n_ops))
        else:
            if d % 2:
                raise ValueError(f"odd weight {w} needs even dimension")
            blocks.append(_odd_block(w, d, n_ops))
    datum = blocks[0]
    for b in blocks[1:]:
        datum = direct_sum(datum, b)
    n = datum.dim
    # Unipotent twist of F that is the identity on every graded piece.
    low = [[ZERO] * n for _ in range(n)]
    offsets = _block_offsets(profile)
    for (wi, di), oi in zip(profile, offsets):
        for (wj, dj), oj in zip(profile, offsets):
            if wj >= wi:
                continue
            for a in range(di):
                for b in range(dj):
                    if rng.random() < 0.7:
                        low[oj + b][oi + a] = GaussScalar(
                            Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
                        )
    u = Matrix.identity(n) + Matrix(low)
    ff = datum.hodge_filtration.map_image(u)
    # Operators: rational multiples of powers of one weight-lowering matrix.
    base_low = [[ZERO] * n for _ in range(n)]
    for (wi, di), oi in zip(profile, offsets):
        for (wj, dj), oj in zip(profile, offsets):
            if wj >= wi:
                continue
            for a in range(di):
                for b in range(dj):
                    if rng.random() < 0.5:
                        base_low[oj + b][oi + a] = GaussScalar(rng.randint(-2, 2))
    l0 = Matrix(base_low)
    ops = []
    for j in range(n_ops):
        power = 1 if j == 0 else rng.randint(1, 2)
        ops.append(l0.power(power).scale(Fraction(rng.randint(1, 3))))
    return make_datum(datum.weight_filtration, ff, ops, dict(datum.graded_pairings), datum.twist_tag)


def _block_offsets(profile):
    offs = []
    t = 0
    for _, d in profile:
        offs.append(t)
        t += d
    return offs


def _tate_block(w: int, d: int, n_ops: int) -> HodgeDatum:
    p = -(-w // 2) if w % 2 else w // 2
    wf = trivial_weight_filtration(d, w)
    ff = Filtration.make(d, False, [(p, Subspace.full(d)), (p + 1, Subspace.zero(d))])
    pairing = Pairing(Matrix.identity(d), -w, 1)
    return make_datum(wf, ff, [Matrix.zeros(d, d)] * n_ops, {w: pairing}, 0)


def _odd_block(w: int, d: int, n_ops: int) -> HodgeDatum:
    m = d // 2
    p_top = (w + 1) // 2
    vecs = []
    for j in range(m):
        v = [ZERO] * d
        v[2 * j] = ONE
        v[2 * j + 1] = GaussScalar(0, 1)
        vecs.append(v)
    wf = trivial_weight_filtration(d, w)
    ff = Filtration.make(
        d,
        False,
        [
            (p_top - 1, Subspace.full(d)),
            (p_top, Subspace.from_vectors(d, vecs)),
            (p_top + 1, Subspace.zero(d)),
        ],
    )
    rows = [[ZERO] * d for _ in range(d)]
    for j in range(m):
        rows[2 * j][2 * j + 1] = ONE
        rows[2 * j + 1][2 * j] = -ONE
    pairing = Pairing(Matrix(rows), -w, -1)
    return make_datum(wf, ff, [Matrix.zeros(d, d)] * n_ops, {w: pairing}, 0)


# ---------------------------------------------------------------------------
# Independent oracles


def oracle_monodromy_axioms(n: Matrix, filt: Filtration, center: int = 0) -> bool:
    """Direct evaluation of the two monodromy axioms using only subspace
    images, sums and dimension counts (no quotient matrices), so it is
    independent of how the filtration was built."""
    lo, hi = filt.min_index(), filt.max_index()
    for k in range(lo, hi + 1):
        img = image_of_subspace(n, filt.at(k))
        if not filt.at(k - 2).contains_subspace(img):
            return False
    span = max(hi - center, center - lo, 0)
    for k in range(lo, hi + 1):
        if abs(k - center) > span and filt.graded_dim(k) != 0:
            return False
    for j in range(1, span + 1):
        up = filt.graded_dim(center + j)
        down = filt.graded_dim(center - j)
        if up != down:
            return False
        if up == 0:
            continue
        nj = n.power(j)
        # Surjectivity of gr_{c+j} -> gr_{c-j}: the image of the upper step
        # together with the lower shoulder must cover the lower step.
        pushed = image_of_subspace(nj, filt.at(center + j))
        covered = subspace_sum(pushed, filt.at(center - j - 1))
        if not covered.contains_subspace(filt.at(center - j)):
            return False
        # Well-definedness: one step lower maps into the shoulder.
        pushed_low = image_of_subspace(nj, filt.at(center + j - 1))
        if not filt.at(center - j - 1).contains_subspace(pushed_low):
            return False
    return True


# ---------------------------------------------------------------------------
# The registry


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "orbit" | "mixed" | "raw"
    build: object
    expected: tuple  # ((check, expectation), ...)
    provenance: str
    tags: frozenset = field(default_factory=frozenset)

    def expectation(self, check: str):
        for c, e in self.expected:
            if c == check:
                return e
        return None


def catalog_entries() -> tuple:
    e = []

    def add(name, kind, build, expected, provenance, *tags):
        e.append(CatalogEntry(name, kind, build, tuple(expected.items()), provenance, frozenset(tags)))

    # --- single-operator orbit positives (exact criterion applies)
    add(
        "elliptic_orbit",
        "orbit",
        gen_elliptic_orbit,
        {"check_pure_orbit": "CERTIFIED"},
        "derived: hand-checked limit data of a degenerating elliptic curve",
        "schmid", "orbit_positive", "n1",
    )
    add(
        "elliptic_orbit_tau_i",
        "orbit",
        lambda: gen_elliptic_orbit(tau=GaussScalar(0, 1)),
        {"check_pure_orbit": "CERTIFIED"},
        "derived: base point moved inside the period domain",
        "schmid", "orbit_positive", "n1",
    )
    add(
        "tate_curve_orbit",
        "orbit",
        gen_tate_curve_orbit,
        {"check_pure_orbit": "CERTIFIED"},
        "derived: rank-two unit extension with its square-zero operator",
        "schmid", "orbit_positive", "n1",
    )
    add(
        "hodge_tate_orbit",
        "orbit",
        gen_hodge_tate_orbit,
        {"check_pure_orbit": "CERTIFIED"},
        "derived: weight-two Jordan-three block, signs fixed by the positivity oracle",
        "schmid", "orbit_positive", "n1",
    )
    add(
        "elliptic_sum_orbit",
        "orbit",
        gen_elliptic_sum_orbit,
        {"check_pure_orbit": "CERTIFIED"},
        "derived: orthogonal direct sum of two certified orbits",
        "schmid", "orbit_positive", "n1",
    )
    add(
        "mixed_block_orbit",
        "orbit",
        gen_mixed_block_orbit,
        {"check_pure_orbit": "CERTIFIED"},
        "derived: Jordan sizes three and one, two Lefschetz components in one graded piece",
        "schmid", "orbit_positive", "n1",
    )

    # --- single-operator orbit negatives
    add(
        "elliptic_orbit_flipped",
        "orbit",
        lambda: gen_elliptic_orbit(flip=True),
        {"check_pure_orbit": "REFUTED"},
        "derived: pairing sign flipped on a certified orbit",
        "schmid", "orbit_negative", "n1",
    )
    add(
        "tate_curve_orbit_flipped",
        "orbit",
        lambda: gen_tate_curve_orbit(flip=True),
        {"check_pure_orbit": "REFUTED"},
        "derived: pairing sign flipped",
        "schmid", "orbit_negative", "n1",
    )
    add(
        "hodge_tate_orbit_flipped",
        "orbit",
        lambda: gen_hodge_tate_orbit(flip=True),
        {"check_pure_orbit": "REFUTED"},
        "derived: pairing sign flipped",
        "schmid", "orbit_negative", "n1",
    )
    add(
        "elliptic_sum_orbit_flipped",
        "orbit",
        lambda: gen_elliptic_sum_orbit(flip_second=True),
        {"check_pure_orbit": "REFUTED"},
        "derived: pairing sign flipped on one summand only",
        "schmid", "orbit_negative", "n1",
    )
    add(
        "mixed_block_orbit_flipped",
        "orbit",
        lambda: gen_mixed_block_orbit(flip=True),
        {"check_pure_orbit": "REFUTED"},
        "derived: pairing sign flipped on the Jordan-three summand",
        "schmid", "orbit_negative", "n1",
    )
    add(
        "stuck_filtration_orbit",
        "orbit",
        gen_stuck_orbit,
        {"check_pure_orbit": "REFUTED"},
        "derived: F^1 is operator-fixed, purity fails at every sample",
        "schmid", "orbit_negative", "n1",
    )

    # --- multi-operator orbits
    add(
        "sheared_pair_orbit",
        "orbit",
        gen_sheared_pair_orbit,
        {"check_pure_orbit": "SUPPORTED"},
        "derived: elliptic degeneration with a second proportional operator",
        "orbit_positive", "n2",
    )

    # --- mixed positives
    add(
        "tate_unit",
        "mixed",
        lambda: gen_tate(0),
        {"check_mixed_orbit": "CERTIFIED"},
        "trivial: the unit object",
        "mixed_positive", "embed",
    )
    add(
        "tate_one",
        "mixed",
        lambda: gen_tate(1),
        {"check_mixed_orbit": "CERTIFIED"},
        "trivial: rank-one twist",
        "mixed_positive", "embed",
    )
    add(
        "kummer_i",
        "mixed",
        lambda: gen_kummer(GaussScalar(0, 1)),
        {"check_mixed_orbit": "SUPPORTED"},
        "derived: unit extension of the twist with monodromy, class i",
        "mixed_positive", "embed", "kummer",
    )
    add(
        "kummer_half_i",
        "mixed",
        lambda: gen_kummer(GaussScalar(Fraction(1, 2), 1)),
        {"check_mixed_orbit": "SUPPORTED"},
        "derived: same with class 1/2 + i",
        "mixed_positive", "embed", "kummer",
    )
    add(
        "two_weight_mixed",
        "mixed",
        gen_two_weight_mixed,
        {"check_mixed_orbit": "CERTIFIED"},
        "derived: adjacent weights {0,-1} with a Hodge-direction extension",
        "mixed_positive", "embed",
    )
    add(
        "three_weight_mixed",
        "mixed",
        gen_three_weight_mixed,
        {"check_mixed_orbit": "SUPPORTED"},
        "derived: weights {0,-1,-2}, dim 4, one operator into the bottom line",
        "mixed_positive", "embed", "three_weight",
    )
    add(
        "two_operator_kummer",
        "mixed",
        gen_two_operator_kummer,
        {"check_mixed_orbit": "SUPPORTED"},
        "derived: Kummer-type with two commuting operators",
        "mixed_positive", "two_ops",
    )

    # --- mixed negatives
    add(
        "kummer_flipped_bottom",
        "mixed",
        lambda: gen_kummer(GaussScalar(0, 1), flip_weight=-2),
        {"check_mixed_orbit": "REFUTED", "embed": "fail"},
        "derived: graded pairing negated at weight -2 only",
        "mixed_negative",
    )
    add(
        "three_weight_flipped_middle",
        "mixed",
        lambda: gen_three_weight_mixed(flip_weight=-1),
        {"check_mixed_orbit": "REFUTED", "embed": "fail"},
        "derived: graded pairing negated at weight -1 only",
        "mixed_negative",
    )
    add(
        "rmf_missing",
        "mixed",
        gen_rmf_missing_mixed,
        {"check_mixed_orbit": "REFUTED"},
        "derived: weight-one drop operator, relative filtration cannot exist",
        "mixed_negative", "rmf_missing",
    )

    # --- raw parts (fail construction on purpose)
    add(
        "nonisotropic_parts",
        "raw",
        gen_nonisotropic_parts,
        {"constructible": False, "isotropy": False},
        "derived: operator violating the bilinear identity",
        "raw_negative",
    )
    return tuple(e)


def catalog_by_name(name: str) -> CatalogEntry:
    for entry in catalog_entries():
        if entry.name == name:
            return entry
    raise KeyError(f"no catalog entry named {name!r}")


def catalog_names(*tags) -> list:
    out = []
    for entry in catalog_entries():
        if all(t in entry.tags for t in tags):
            out.append(entry.name)
    return out
