"""Hodge-theoretic verifiers: purity, polarization, orbit criteria.

Every check here is exact.  The single-operator orbit criterion is the
classical one (weight filtration of the operator shifted to the weight, the
induced data a mixed Hodge structure, primitive parts polarized) and is
decisive; multi-operator orbit checks sample the positive cone on a policy
grid, so a passing multi-operator verdict is SUPPORTED, never CERTIFIED,
while any failure refutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .datum import (
    HodgeDatum,
    OrbitDatum,
    Pairing,
    graded_maps,
    graded_piece,
    make_datum,
    matrix_inverse,
    shear_operators,
)
from .filtration import Filtration
from .linalg import (
    Matrix,
    Subspace,
    image_of_subspace,
    intersect,
    is_positive_definite_hermitian,
    kernel,
    subspace_sum,
)
from .monodromy import (
    OperatorSumFacts,
    admissibility_report,
    relative_monodromy,
    shift,
    weight_monodromy,
)
from .scalars import GaussScalar, imaginary

CERTIFIED = "CERTIFIED"
SUPPORTED = "SUPPORTED"
REFUTED = "REFUTED"

_I_POWERS = (GaussScalar(1), GaussScalar(0, 1), GaussScalar(-1), GaussScalar(0, -1))


@dataclass(frozen=True)
class Policy:
    """Sampling policy for the non-effective bounds (y >> 0, a >> 0)."""

    grid: tuple = (4, 8, 16)
    shears: tuple = (8, 16)

    def grid_points(self, n_ops: int):
        if n_ops == 0:
            return [()]
        return [tuple(Fraction(v) for v in pt) for pt in product(self.grid, repeat=n_ops)]


@dataclass(frozen=True)
class Verdict:
    status: str
    evidence: tuple  # (clause, ok, detail) triples

    @property
    def passed(self) -> bool:
        return self.status != REFUTED

    def clause(self, name: str):
        for c, ok, detail in self.evidence:
            if c == name:
                return ok
        return None


# ---------------------------------------------------------------------------
# Exponentials


def exp_nilpotent(m: Matrix) -> Matrix:
    if not m.is_nilpotent():
        raise ValueError("exp of non-nilpotent matrix")
    out = Matrix.identity(m.rows)
    term = Matrix.identity(m.rows)
    k = 1
    while True:
        term = term @ m
        if term.is_zero():
            return out
        out = out + term.scale(Fraction(1, _factorial(k)))
        k += 1


def _factorial(k: int) -> int:
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def exp_twisted_combination(operators, y, dim: int | None = None) -> Matrix:
    """exp(sum_j i*y_j*N_j), exactly over Q(i) for rational y."""
    if len(operators) != len(y):
        raise ValueError("coefficient count mismatch")
    if not operators:
        if dim is None:
            raise ValueError("dimension required for the empty combination")
        return Matrix.identity(dim)
    total = Matrix.zeros(operators[0].rows, operators[0].rows)
    for yj, op in zip(y, operators):
        total = total + op.scale(imaginary(yj))
    return exp_nilpotent(total)


# ---------------------------------------------------------------------------
# Purity and polarization


@dataclass(frozen=True)
class HodgeDecomposition:
    weight: int
    pieces: tuple  # ((p, q, Subspace), ...) with p + q = weight


def hodge_decomposition(w: int, f: Filtration):
    """The (p, q)-decomposition forced by F when V = F^p + conj F^{w+1-p}
    holds in every degree; None if purity fails."""
    n = f.ambient_dim
    if n == 0:
        return HodgeDecomposition(w, ())
    conj_steps = {p: f.at(p).conjugate() for p in range(f.min_index() - 1, f.max_index() + 2)}

    def conj_at(p):
        if p < f.min_index() - 1:
            return Subspace.full(n)
        if p > f.max_index() + 1:
            return Subspace.zero(n)
        return conj_steps[p]

    for p in range(f.min_index(), f.max_index() + 1):
        fp = f.at(p)
        cg = conj_at(w + 1 - p)
        if fp.dim + cg.dim != n or intersect(fp, cg).dim != 0:
            return None
    pieces = []
    total = 0
    for p in range(f.min_index() - 1, f.max_index() + 1):
        q = w - p
        piece = intersect(f.at(p), conj_at(q))
        if piece.dim:
            pieces.append((p, q, piece))
            total += piece.dim
    if total != n:
        return None
    span = Subspace.zero(n)
    for _, _, piece in pieces:
        span = subspace_sum(span, piece)
    if span.dim != n:
        return None
    return HodgeDecomposition(w, tuple(pieces))


def is_pure_hs(w: int, f: Filtration) -> bool:
    """V_C = F^p (+) conj F^{w+1-p} for every p."""
    return hodge_decomposition(w, f) is not None


def is_polarized_hs(w: int, f: Filtration, s: Pairing) -> bool:
    """First Riemann relation, purity, and exact positivity of the form
    (u, v) -> i^(p-q) * S(u, conj v) on each (p, q)-piece."""
    n = f.ambient_dim
    if s.matrix.rows != n:
        raise ValueError("pairing size does not match the space")
    if s.twist != -w or s.symmetry != (-1) ** (w % 2):
        raise ValueError("pairing has wrong twist or symmetry for the weight")
    if not s.is_perfect():
        raise ValueError("pairing is degenerate")
    for p in _mirrored_degrees(f, w):
        fp = f.at(p)
        ann = kernel(fp.basis @ s.matrix) if fp.dim else Subspace.full(n)
        if ann != f.at(w + 1 - p):
            return False
    dec = hodge_decomposition(w, f)
    if dec is None:
        return False
    for p, q, piece in dec.pieces:
        c = _I_POWERS[(p - q) % 4]
        basis = piece.basis
        gram = (basis @ s.matrix @ basis.conjugate().transpose()).scale(c)
        try:
            if not is_positive_definite_hermitian(gram):
                return False
        except ValueError:
            return False
    return True


def mhs_failures(h: HodgeDatum) -> list:
    """Weights whose graded piece is not a pure Hodge structure."""
    bad = []
    for w in h.weights():
        piece = graded_piece(h, w)
        if piece.dim and not is_pure_hs(w, piece.hodge_filtration):
            bad.append(w)
    return bad


def is_mhs(h: HodgeDatum) -> bool:
    return not mhs_failures(h)


# ---------------------------------------------------------------------------
# Structural orbit checks


@dataclass(frozen=True)
class StructureReport:
    transversality: tuple  # per-operator booleans for N F^p in F^{p-1}
    isotropy: tuple  # per-operator booleans
    annihilator_ok: bool

    @property
    def all_pass(self) -> bool:
        return all(self.transversality) and all(self.isotropy) and self.annihilator_ok


def _mirrored_degrees(f: Filtration, w: int):
    """Degrees where the first bilinear relation ann(F^p) = F^{w+1-p} has
    distinct instances: the whole range between the jumps and their
    mirrors about (w+1)/2."""
    if not f.steps:
        return ()
    lo, hi = f.min_index(), f.max_index()
    return range(min(lo, w + 1 - hi) - 1, max(hi, w + 1 - lo) + 2)


def griffiths_isotropy_checks(weight: int, pairing: Pairing, operators, f: Filtration) -> StructureReport:
    """Pointwise Griffiths transversality, infinitesimal isotropy, and the
    self-annihilation of F under the pairing.

    Accepts raw parts so that it can diagnose data that would fail the
    OrbitDatum validators.
    """
    n = f.ambient_dim
    s = pairing.matrix
    trans = tuple(f.is_transverse(op) for op in operators)
    iso = tuple((op.transpose() @ s + s @ op).is_zero() for op in operators)
    ann_ok = True
    for p in _mirrored_degrees(f, weight):
        fp = f.at(p)
        ann = kernel(fp.basis @ s) if fp.dim else Subspace.full(n)
        if ann != f.at(weight + 1 - p):
            ann_ok = False
            break
    return StructureReport(trans, iso, ann_ok)


def structure_report(o: OrbitDatum) -> StructureReport:
    return griffiths_isotropy_checks(o.weight, o.pairing, o.operators, o.hodge_filtration)


# ---------------------------------------------------------------------------
# Primitive decomposition


@dataclass(frozen=True)
class PrimitivePart:
    weight_k: int
    subspace: Subspace  # inside canonical gr_k coordinates
    pairing: Pairing  # (u, v) -> <u, N0^(k-w) v>
    hodge_filtration: Filtration  # induced, in primitive coordinates
    operators: tuple  # induced remaining operators, in primitive coordinates


@dataclass(frozen=True)
class PrimitiveDecomposition:
    weight: int
    parts: tuple
    lefschetz_ok: bool


def primitive_parts(o: OrbitDatum) -> PrimitiveDecomposition:
    """Kernels of powers of the designated operator on the graded pieces of
    its shifted monodromy filtration, with the induced pairings."""
    if not o.operators:
        raise ValueError("orbit datum has no designated operator")
    n0 = o.operators[0]
    w = o.weight
    wfilt = shift(weight_monodromy(n0), w)
    n = o.dim
    parts = []
    count = 0
    for k in range(w, wfilt.max_index() + 1):
        gm = graded_maps(wfilt, k)
        if gm.dim == 0:
            continue
        # P_k = kernel of N_0^(k-w+1) as a map gr_k -> gr_{2w-k-2}.
        power_map = n0.power(k - w + 1)
        gm_t = graded_maps(wfilt, 2 * w - k - 2)
        if gm_t.dim == 0:
            induced = Matrix.zeros(0, gm.dim)
        else:
            induced = gm_t.project @ power_map @ gm.section
        prim = kernel(induced)
        if prim.dim == 0:
            continue
        count += (k - w + 1) * prim.dim
        incl = gm.section @ prim.basis.transpose()  # primitive coords -> V
        power = n0.power(k - w)
        pair_matrix = incl.transpose() @ o.pairing.matrix @ power @ incl
        pairing = Pairing(pair_matrix, -k, (-1) ** (k % 2))
        pivots = prim.pivots()
        sel = Matrix.identity(gm.dim).select_rows(pivots)
        f_pairs = []
        for p in o.hodge_filtration.jumps():
            fp_gr = image_of_subspace(gm.project, intersect(o.hodge_filtration.at(p), wfilt.at(k)))
            f_pairs.append((p, image_of_subspace(sel, intersect(fp_gr, prim))))
        f_pairs.append((o.hodge_filtration.max_index() + 1, Subspace.zero(prim.dim)))
        ff = Filtration.make(prim.dim, False, f_pairs)
        ops = tuple(gm.project.select_rows(pivots) @ op @ gm.section @ prim.basis.transpose() for op in o.operators[1:])
        parts.append(PrimitivePart(k, prim, pairing, ff, ops))
    return PrimitiveDecomposition(w, tuple(parts), count == n)


def lefschetz_graded_pairings(o: OrbitDatum):
    """Graded pairings on gr of W(N_0)[-w] assembled from the primitive
    decomposition (orthogonal components, primitive forms transported by
    powers of N_0)."""
    n0 = o.operators[0]
    w = o.weight
    wfilt = shift(weight_monodromy(n0), w)
    dec = primitive_parts(o)
    by_weight = {part.weight_k: part for part in dec.parts}
    pairings = {}
    for k in wfilt.jumps():
        gm = graded_maps(wfilt, k)
        if gm.dim == 0:
            continue
        cols = []
        blocks = []
        j = 0
        while True:
            m = k + 2 * j
            if m > wfilt.max_index():
                break
            part = by_weight.get(m)
            # N^j is injective on the primitive part of gr_m only while
            # j <= m - w, i.e. m >= 2w - k; lower components push to zero.
            if part is not None and m >= w and m >= 2 * w - k:
                gm_m = graded_maps(wfilt, m)
                incl_m = gm_m.section @ part.subspace.basis.transpose()
                power = n0.power(j)
                for col in range(part.subspace.dim):
                    rep = incl_m.col(col)
                    cols.append(gm.project.apply(power.apply(rep)))
                blocks.append(part.pairing.matrix)
            j += 1
        if len(cols) != gm.dim:
            raise ValueError(f"Lefschetz components do not exhaust gr at weight {k}")
        phi = Matrix.from_rows(list(zip(*cols)), len(cols))
        src = Matrix.block_diag(*blocks)
        phi_inv = matrix_inverse(phi)
        pairings[k] = Pairing(phi_inv.transpose() @ src @ phi_inv, -k, (-1) ** (k % 2))
    return pairings


# ---------------------------------------------------------------------------
# Sampled membership


@dataclass(frozen=True)
class MembershipReport:
    points: tuple  # ((y, ok), ...)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.points)


def sampled_orbit_membership(o: OrbitDatum, y_grid=None, policy: Policy | None = None) -> MembershipReport:
    """Exact polarized-Hodge-structure checks at exp(sum i y_j N_j) F."""
    policy = policy or Policy()
    if y_grid is None:
        y_grid = policy.grid_points(len(o.operators))
    points = []
    for y in y_grid:
        e = exp_twisted_combination(o.operators, y, o.dim)
        fy = o.hodge_filtration.map_image(e)
        points.append((tuple(y), is_polarized_hs(o.weight, fy, o.pairing)))
    return MembershipReport(tuple(points))


# ---------------------------------------------------------------------------
# Orbit verdicts


def check_pure_orbit(o: OrbitDatum, policy: Policy | None = None) -> Verdict:
    """CERTIFIED via the exact single-operator criterion, SUPPORTED via
    sampled checks for two or more operators, REFUTED on any failure."""
    policy = policy or Policy()
    evidence = []
    rep = structure_report(o)
    evidence.append(("transversality", all(rep.transversality), str(rep.transversality)))
    evidence.append(("isotropy", all(rep.isotropy), str(rep.isotropy)))
    evidence.append(("annihilator", rep.annihilator_ok, ""))
    if not rep.all_pass:
        return Verdict(REFUTED, tuple(evidence))
    n_ops = len(o.operators)
    if n_ops == 0:
        ok = is_polarized_hs(o.weight, o.hodge_filtration, o.pairing)
        evidence.append(("polarized", ok, "no operators"))
        return Verdict(CERTIFIED if ok else REFUTED, tuple(evidence))
    if n_ops == 1:
        return _schmid_verdict(o, evidence)
    member = sampled_orbit_membership(o, policy=policy)
    evidence.append(("sampled_membership", member.all_pass, str(member.points)))
    cone_ok = _cone_monodromy_constant(o.operators, policy)
    evidence.append(("cone_monodromy_constant", cone_ok, ""))
    status = SUPPORTED if member.all_pass and cone_ok else REFUTED
    return Verdict(status, tuple(evidence))


def _schmid_verdict(o: OrbitDatum, evidence: list) -> Verdict:
    n0 = o.operators[0]
    wfilt = shift(weight_monodromy(n0), o.weight)
    mixed = make_datum(wfilt, o.hodge_filtration, [], {}, o.twist_tag)
    bad = mhs_failures(mixed)
    evidence.append(("limit_mhs", not bad, f"failing weights {bad}" if bad else ""))
    prim_ok = True
    detail = []
    if not bad:
        dec = primitive_parts(o)
        if not dec.lefschetz_ok:
            prim_ok = False
            detail.append("Lefschetz count failed")
        for part in dec.parts:
            ok = is_polarized_hs(part.weight_k, part.hodge_filtration, part.pairing)
            detail.append(f"P_{part.weight_k}:{'ok' if ok else 'fail'}")
            prim_ok = prim_ok and ok
    else:
        prim_ok = False
    evidence.append(("primitive_polarized", prim_ok, " ".join(detail)))
    ok = (not bad) and prim_ok
    return Verdict(CERTIFIED if ok else REFUTED, tuple(evidence))


def _cone_monodromy_constant(operators, policy: Policy) -> bool:
    """weight_monodromy of sum(y_j N_j) agrees across interior samples."""
    pts = policy.grid_points(len(operators))
    ref = None
    for y in pts[: max(3, len(policy.grid))]:
        total = Matrix.zeros(operators[0].rows, operators[0].rows)
        for yj, op in zip(y, operators):
            total = total + op.scale(Fraction(yj))
        filt = weight_monodromy(total).filtration
        if ref is None:
            ref = filt
        elif filt != ref:
            return False
    return True


def check_mixed_orbit(h: HodgeDatum, policy: Policy | None = None) -> Verdict:
    """Admissibility, polarizable graded pieces, sampled mixed membership.

    With zero operators the clauses collapse to the exact mixed-Hodge checks
    and a pass is CERTIFIED; otherwise a full pass is SUPPORTED.
    """
    policy = policy or Policy()
    evidence = []
    trans_ok = all(h.hodge_filtration.is_transverse(op) for op in h.operators)
    evidence.append(("transversality", trans_ok, ""))
    adm = admissibility_report(h.weight_filtration, h.operators)
    evidence.append(("admissibility_partial_sums", adm.partial_sums_exist, str(adm.details)))
    evidence.append(("admissibility_cone_samples", adm.sampled_cone_constant, ""))
    graded_ok = True
    for w in h.weights():
        piece = graded_piece(h, w)
        if piece.dim == 0:
            continue
        pairing = piece.pairing(w)
        if pairing is None:
            graded_ok = False
            evidence.append((f"graded_{w}", False, "missing pairing"))
            continue
        try:
            gr_orbit = OrbitDatum(w, pairing, piece.operators, piece.hodge_filtration, piece.twist_tag)
        except ValueError as exc:
            graded_ok = False
            evidence.append((f"graded_{w}", False, str(exc)))
            continue
        verdict = check_pure_orbit(gr_orbit, policy)
        evidence.append((f"graded_{w}", verdict.passed, verdict.status))
        graded_ok = graded_ok and verdict.passed
    sampled_ok = True
    for y in policy.grid_points(len(h.operators)):
        e = exp_twisted_combination(h.operators, y, h.dim)
        fy = h.hodge_filtration.map_image(e)
        moved = make_datum(h.weight_filtration, fy, [], {}, h.twist_tag)
        ok = is_mhs(moved)
        sampled_ok = sampled_ok and ok
    evidence.append(("sampled_mhs", sampled_ok, ""))
    all_ok = trans_ok and adm.partial_sums_exist and adm.sampled_cone_constant and graded_ok and sampled_ok
    if not all_ok:
        return Verdict(REFUTED, tuple(evidence))
    return Verdict(CERTIFIED if not h.operators else SUPPORTED, tuple(evidence))


# ---------------------------------------------------------------------------
# The shear-equivalence harness


@dataclass(frozen=True)
class ShearEquivalence:
    left: tuple  # (shear value, Verdict)
    right_mixed: Verdict
    right_primitive: tuple  # (weight k, Verdict)
    agree: bool

    @property
    def left_positive(self) -> bool:
        return all(v.passed for _, v in self.left)

    @property
    def right_positive(self) -> bool:
        return self.right_mixed.passed and all(v.passed for _, v in self.right_primitive)


def shear_equivalence_report(o: OrbitDatum, policy: Policy | None = None) -> ShearEquivalence:
    """Both sides of the shear criterion: the sheared pure orbit with the
    designated operator mixed into the others versus the mixed-orbit and
    primitive-orbit conditions for the designated operator alone."""
    policy = policy or Policy()
    n0 = o.operators[0]
    rest = o.operators[1:]
    left = []
    for a in policy.shears:
        try:
            datum = OrbitDatum(o.weight, o.pairing, shear_operators(o.operators, a), o.hodge_filtration, o.twist_tag)
            left.append((a, check_pure_orbit(datum, policy)))
        except ValueError as exc:
            left.append((a, Verdict(REFUTED, (("construction", False, str(exc)),))))
    wfilt = shift(weight_monodromy(n0), o.weight)
    try:
        pairings = lefschetz_graded_pairings(o)
        mixed = make_datum(wfilt, o.hodge_filtration, rest, pairings, o.twist_tag)
        right_mixed = check_mixed_orbit(mixed, policy)
    except ValueError as exc:
        right_mixed = Verdict(REFUTED, (("construction", False, str(exc)),))
    right_prim = []
    try:
        dec = primitive_parts(o)
        for part in dec.parts:
            try:
                prim_orbit = OrbitDatum(part.weight_k, part.pairing, part.operators, part.hodge_filtration, o.twist_tag)
                right_prim.append((part.weight_k, check_pure_orbit(prim_orbit, policy)))
            except ValueError as exc:
                right_prim.append((part.weight_k, Verdict(REFUTED, (("construction", False, str(exc)),))))
        if not dec.lefschetz_ok:
            right_prim.append((o.weight, Verdict(REFUTED, (("lefschetz_count", False, ""),))))
    except ValueError as exc:
        right_prim.append((o.weight, Verdict(REFUTED, (("construction", False, str(exc)),))))
    report = ShearEquivalence(tuple(left), right_mixed, tuple(right_prim), False)
    agree = report.left_positive == report.right_positive
    return ShearEquivalence(report.left, report.right_mixed, report.right_primitive, agree)


# ---------------------------------------------------------------------------
# Facts about merging two log directions


def operator_sum_facts(h: HodgeDatum, policy: Policy | None = None) -> OperatorSumFacts:
    """For (W, N_1, N_2, ...): the relative filtration of N_1 exists, the
    data re-filtered by it is still a sampled mixed orbit, iterating the
    relative filtration through N_2 matches the relative filtration of
    N_1 + N_2, and merging N_1 + N_2 keeps a sampled mixed orbit."""
    policy = policy or Policy()
    if len(h.operators) < 2:
        raise ValueError("need at least two operators")
    n1, n2 = h.operators[0], h.operators[1]
    rest = h.operators[2:]
    details = []
    m1 = relative_monodromy(n1, h.weight_filtration)
    first_exists = m1 is not None
    details.append(("relative_of_first", first_exists))
    first_orbit = False
    matches = False
    if first_exists:
        w1 = m1.filtration
        first_orbit = _unpolarized_mixed_ok(w1, (n2,) + tuple(rest), h.hodge_filtration, policy)
        details.append(("refiltered_mixed_orbit", first_orbit))
        m2 = relative_monodromy(n2, w1)
        msum = relative_monodromy(n1 + n2, h.weight_filtration)
        matches = m2 is not None and msum is not None and m2.filtration == msum.filtration
        details.append(("iterated_equals_sum", matches))
    sum_orbit = _unpolarized_mixed_ok(
        h.weight_filtration, (n1 + n2,) + tuple(rest), h.hodge_filtration, policy
    )
    details.append(("merged_mixed_orbit", sum_orbit))
    return OperatorSumFacts(first_exists, first_orbit, matches, sum_orbit, tuple(details))


def _unpolarized_mixed_ok(w: Filtration, operators, f: Filtration, policy: Policy) -> bool:
    """Pairing-free mixed-orbit shadow: partial-sum relative filtrations
    exist and the exp-moved filtration is an MHS at each grid point."""
    for op in operators:
        for _, s in w.steps:
            if not s.contains_subspace(image_of_subspace(op, s)):
                return False
    adm = admissibility_report(w, operators)
    if not adm.partial_sums_exist:
        return False
    for y in policy.grid_points(len(operators)):
        e = exp_twisted_combination(operators, y, w.ambient_dim)
        try:
            moved = make_datum(w, f.map_image(e), [], {}, 0)
        except ValueError:
            return False
        if not is_mhs(moved):
            return False
    return True
