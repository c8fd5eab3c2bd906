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
from functools import reduce
from itertools import product

from .datum import (
    HodgeDatum,
    OrbitDatum,
    Pairing,
    first_relation_failure,
    graded_maps,
    make_datum,
    shear_operators,
    weight_symmetry,
)
from .filtration import Filtration
from .linalg import (
    Matrix,
    Subspace,
    echelonize,
    image_of_subspace,
    intersect,
    is_positive_definite_hermitian,
    kernel,
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
    """The finite series sum_k m^k / k!.  An n x n matrix is nilpotent iff
    its n-th power vanishes, so a power still nonzero at k = n refutes it."""
    if m.rows != m.cols:
        raise ValueError("exp of non-nilpotent matrix")
    out = Matrix.identity(m.rows)
    term, k, coeff = m, 1, Fraction(1)
    while not term.is_zero():
        if k >= m.rows:
            raise ValueError("exp of non-nilpotent matrix")
        coeff /= k
        out = out + term.scale(coeff)
        term, k = term @ m, k + 1
    return out


def _twisted_exponent(operators, y) -> Matrix | None:
    """sum_j i*y_j*N_j, or None for the empty combination."""
    if len(operators) != len(y):
        raise ValueError("coefficient count mismatch")
    return Matrix.combination([imaginary(yj) for yj in y], operators) if operators else None


def exp_twisted_combination(operators, y, dim: int | None = None) -> Matrix:
    """exp(sum_j i*y_j*N_j), exactly over Q(i) for rational y."""
    x = _twisted_exponent(operators, y)
    if x is None:
        if dim is None:
            raise ValueError("dimension required for the empty combination")
        return Matrix.identity(dim)
    return exp_nilpotent(x)


def orbit_point(f: Filtration, operators, y) -> Filtration:
    """The point exp(sum_j i*y_j*N_j) F of the nilpotent orbit.  When the
    exponent vanishes the exponential is the identity, which fixes F, so F
    itself is returned."""
    x = _twisted_exponent(operators, y)
    return f if x is None or x.is_zero() else f.map_image(exp_nilpotent(x))


# ---------------------------------------------------------------------------
# Purity and polarization


@dataclass(frozen=True)
class HodgeDecomposition:
    weight: int
    pieces: tuple  # ((p, q, Subspace), ...) with p + q = weight


def hodge_decomposition(w: int, f: Filtration):
    """The (p, q)-decomposition forced by F when V = F^p + conj F^{w+1-p}
    holds in every degree from the first jump to the last; None if purity
    fails.

    The condition is not tested degree by degree.  Instead the pieces
    H^{p,q} = F^p cap conj F^q, for p from one below the first jump to the
    last, must have dimensions adding up to n and span V, so they form a
    direct sum.  Then F^p cap conj F^{w+1-p} lies in both H^{p-1,w+1-p}
    and H^{p,w-p}, so it is zero; and each piece lies in F^p (from p up) or
    in conj F^{w+1-p} (below p), so the two span V."""
    pieces = _hodge_pieces(w, f, lambda p, q: intersect(f.at(p), f.at(q).conjugate()))
    if pieces is None:
        return None
    if pieces and echelonize(reduce(Matrix.stack, (piece.basis for _, _, piece in pieces))).rows != f.ambient_dim:
        return None
    return HodgeDecomposition(w, pieces)


def _hodge_pieces(w: int, f: Filtration, piece_at):
    """The nonzero pieces (p, q, H^{p,q}) for p from one below the first
    jump to the last, with H^{p,q} = piece_at(p, q); None unless their
    dimensions add up to n.  H^{q,p} is the conjugate of H^{p,q}, and
    conjugating the RREF basis of one gives the RREF basis of the other, so
    only half of the pieces are computed."""
    n = f.ambient_dim
    if n == 0:
        return ()
    lo, hi = f.min_index(), f.max_index()
    found = {}
    pieces = []
    total = 0
    for p in range(lo - 1, hi + 1):
        q = w - p
        piece = found[q].conjugate() if q in found else piece_at(p, q)
        found[p] = piece
        if piece.dim:
            pieces.append((p, q, piece))
            total += piece.dim
    return tuple(pieces) if total == n else None


def is_pure_hs(w: int, f: Filtration) -> bool:
    """V_C = F^p (+) conj F^{w+1-p} for every p."""
    return hodge_decomposition(w, f) is not None


def is_polarized_hs(w: int, f: Filtration, s: Pairing) -> bool:
    """First Riemann relation, purity, and exact positivity of the form
    (u, v) -> i^(p-q) * S(u, conj v) on each (p, q)-piece.

    Once the first relation holds, conj F^{w-p} is the orthogonal complement
    of F^{p+1} under h(u, v) = S(u, conj v), so H^{p,q} is the part of F^p
    that h pairs to zero with F^{p+1}.  The pieces are then mutually
    h-orthogonal, so when h is definite on each of them they are
    independent, and with dimensions adding up to n they span V: the
    positivity test settles purity too."""
    _check_polarizing_pairing(w, f.ambient_dim, s)
    return _is_polarized(w, f, s)


def _check_polarizing_pairing(w: int, n: int, s: Pairing):
    """Raise unless S is a perfect pairing of weight w on Q(i)^n."""
    if s.matrix.rows != n:
        raise ValueError("pairing size does not match the space")
    if s.twist != -w or s.symmetry != weight_symmetry(w):
        raise ValueError("pairing has wrong twist or symmetry for the weight")
    if not s.is_perfect():
        raise ValueError("pairing is degenerate")


def _is_polarized(w: int, f: Filtration, s: Pairing) -> bool:
    """The polarization test of ``is_polarized_hs`` for a pairing that
    ``_check_polarizing_pairing`` accepts."""
    if first_relation_failure(w, f, s.matrix) is not None:
        return False
    pieces = _hodge_pieces(w, f, lambda p, q: _polarized_piece(f, p, q, s.matrix))
    if pieces is None:
        return False
    # S is rational, so the form on H^{q,p} = conj H^{p,q} is the conjugate,
    # i.e. the transpose, of the form on H^{p,q}: same leading minors.
    degrees = {p for p, _, _ in pieces}
    for p, q, piece in pieces:
        if q < p and q in degrees:
            continue
        c = _I_POWERS[(p - q) % 4]
        basis = piece.basis
        gram = (basis @ s.matrix @ basis.conjugate().transpose()).scale(c)
        try:
            if not is_positive_definite_hermitian(gram):
                return False
        except ValueError:
            return False
    return True


def _polarized_piece(f: Filtration, p: int, q: int, s: Matrix) -> Subspace:
    """H^{p,q} = F^p cap conj F^q when the first relation holds for the
    rational S: then conj F^q is {u : S(v, conj u) = 0 for v in F^{p+1}}.
    With u = B^T a over the basis B of F^p, that is a kernel in the
    coordinates a: conj(B') S B^T a = 0, B' the basis of F^{p+1}."""
    fp, fnext = f.at(p), f.at(p + 1)
    if fp.is_full():
        return f.at(q).conjugate()
    if fp.dim == 0 or fnext.dim == 0:
        return fp
    coords = fp.basis.transpose()
    return image_of_subspace(coords, kernel(fnext.basis.conjugate() @ s @ coords))


def mhs_failures(h: HodgeDatum) -> list:
    """Weights whose graded piece is not a pure Hodge structure."""
    return [k for k, fk, _ in _graded_pieces(h.weight_filtration, h.hodge_filtration, ()) if not is_pure_hs(k, fk)]


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


def griffiths_isotropy_checks(weight: int, pairing: Pairing, operators, f: Filtration) -> StructureReport:
    """Pointwise Griffiths transversality, infinitesimal isotropy, and the
    self-annihilation of F under the pairing.

    Accepts raw parts so that it can diagnose data that would fail the
    OrbitDatum validators.
    """
    s = pairing.matrix
    trans = tuple(f.is_transverse(op) for op in operators)
    iso = tuple((op.transpose() @ s + s @ op).is_zero() for op in operators)
    # Below the jumps F^p = V, whose annihilator is the kernel of S, and
    # F^{w+1-p} = 0: the relation needs a perfect pairing.
    ann_ok = first_relation_failure(weight, f, s) is None and pairing.is_perfect()
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
    inclusion: Matrix  # primitive coordinates -> V


@dataclass(frozen=True)
class PrimitiveDecomposition:
    weight: int
    weight_filtration: Filtration  # W(N_0)[-w]
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
    powers = _powers(n0, wfilt.max_index() - w + 1)
    parts = []
    count = 0
    for k in range(w, wfilt.max_index() + 1):
        gm = graded_maps(wfilt, k)
        if gm.dim == 0:
            continue
        # P_k = kernel of N_0^(k-w+1) as a map gr_k -> gr_{2w-k-2}.
        power_map = powers[k - w + 1]
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
        pair_matrix = incl.transpose() @ o.pairing.matrix @ powers[k - w] @ incl
        pairing = Pairing.of_weight(pair_matrix, k)
        pivots = prim.pivots()
        sel = Matrix.identity(gm.dim).select_rows(pivots)
        ff = o.hodge_filtration.map_image(gm.project, within=wfilt.at(k)).map_image(sel, within=prim)
        ops = tuple(gm.project.select_rows(pivots) @ op @ gm.section @ prim.basis.transpose() for op in o.operators[1:])
        parts.append(PrimitivePart(k, prim, pairing, ff, ops, incl))
    return PrimitiveDecomposition(w, wfilt, tuple(parts), count == n)


def _powers(m: Matrix, d: int) -> list:
    """[m^0, m^1, ..., m^d], each power multiplied up once."""
    out = [Matrix.identity(m.rows)]
    for _ in range(d):
        out.append(out[-1] @ m)
    return out


def mixed_side(o: OrbitDatum) -> HodgeDatum:
    """The mixed side of an orbit datum: W = W(N_0)[-w], the same F, the
    remaining operators, and graded pairings assembled from the primitive
    decomposition (orthogonal components, primitive forms transported by
    powers of N_0)."""
    dec = primitive_parts(o)
    wfilt, w = dec.weight_filtration, o.weight
    powers = _powers(o.operators[0], wfilt.max_index() - w)
    pairings = {}
    for k in wfilt.jumps():
        # The component N_0^j P_m, m = k + 2j, of gr_k; N_0^j is injective
        # on the primitive part of gr_m only while j <= m - w, i.e.
        # m >= 2w - k, so lower components push to zero.
        comps = [p for p in dec.parts if p.weight_k >= max(k, 2 * w - k) and (p.weight_k - k) % 2 == 0]
        gm = graded_maps(wfilt, k)
        if sum(p.subspace.dim for p in comps) != gm.dim:
            raise ValueError(f"Lefschetz components do not exhaust gr at weight {k}")
        phi = reduce(Matrix.augment, [gm.project @ powers[(p.weight_k - k) // 2] @ p.inclusion for p in comps])
        blocks = Matrix.block_diag(*(p.pairing.matrix for p in comps))
        pairings[k] = Pairing.of_weight(blocks, k).transport(phi)
    return make_datum(wfilt, o.hodge_filtration, o.operators[1:], pairings, o.twist_tag)


# ---------------------------------------------------------------------------
# Sampled membership


@dataclass(frozen=True)
class MembershipReport:
    points: tuple  # ((y, ok), ...)

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok in self.points)


def sampled_orbit_membership(
    o: OrbitDatum, y_grid=None, policy: Policy | None = None, stop_at_failure: bool = False
) -> MembershipReport:
    """Exact polarized-Hodge-structure checks at exp(sum i y_j N_j) F.

    With ``stop_at_failure`` the report ends at the first failing point,
    which decides ``all_pass``."""
    policy = policy or Policy()
    if y_grid is None:
        y_grid = policy.grid_points(len(o.operators))
    # The pairing is the same at every point, so it is validated once.
    _check_polarizing_pairing(o.weight, o.hodge_filtration.ambient_dim, o.pairing)
    points = []
    # Distinct grid points often move F to the same filtration; each
    # filtration is tested once per call.
    tested = {}
    for y in y_grid:
        fy = orbit_point(o.hodge_filtration, o.operators, y)
        if fy not in tested:
            tested[fy] = _is_polarized(o.weight, fy, o.pairing)
        points.append((tuple(y), tested[fy]))
        if stop_at_failure and not tested[fy]:
            break
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
        filt = weight_monodromy(Matrix.combination([Fraction(yj) for yj in y], operators)).filtration
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
    pieces = _graded_pieces(h.weight_filtration, h.hodge_filtration, h.operators)
    for k, fk, ops in pieces:
        pairing = h.pairing(k)
        if pairing is None:
            graded_ok = False
            evidence.append((f"graded_{k}", False, "missing pairing"))
            continue
        try:
            gr_orbit = OrbitDatum(k, pairing, ops, fk, h.twist_tag)
        except ValueError as exc:
            graded_ok = False
            evidence.append((f"graded_{k}", False, str(exc)))
            continue
        verdict = check_pure_orbit(gr_orbit, policy)
        evidence.append((f"graded_{k}", verdict.passed, verdict.status))
        graded_ok = graded_ok and verdict.passed
    sampled_ok = _sampled_mhs(pieces, len(h.operators), policy)
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

    @property
    def agree(self) -> bool:
        return self.left_positive == self.right_positive

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
    if not o.operators:
        raise ValueError("orbit datum has no designated operator")
    policy = policy or Policy()
    left = []
    for a in policy.shears:
        try:
            datum = OrbitDatum(o.weight, o.pairing, shear_operators(o.operators, a), o.hodge_filtration, o.twist_tag)
            left.append((a, check_pure_orbit(datum, policy)))
        except ValueError as exc:
            left.append((a, Verdict(REFUTED, (("construction", False, str(exc)),))))
    try:
        right_mixed = check_mixed_orbit(mixed_side(o), policy)
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
    return ShearEquivalence(tuple(left), right_mixed, tuple(right_prim))


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
    if not all(w.is_shifted_by(op, 0) for op in operators):
        return False
    adm = admissibility_report(w, operators)
    if not adm.partial_sums_exist:
        return False
    return _sampled_mhs(_graded_pieces(w, f, operators), len(operators), policy)


def _graded_pieces(w: Filtration, f: Filtration, operators) -> list:
    """(k, F_k, N_k) for each nonzero graded piece Gr^W_k, in the canonical
    coordinates of ``graded_maps``, as ``graded_piece`` induces them."""
    pieces = []
    for k in w.jumps():
        gm = graded_maps(w, k)
        ops = tuple(gm.project @ op @ gm.section for op in operators)
        pieces.append((k, f.map_image(gm.project, within=w.at(k)), ops))
    return pieces


def _sampled_mhs(pieces, n_ops: int, policy: Policy) -> bool:
    """(W, exp(sum i y_j N_j) F) is a mixed Hodge structure at every grid
    point: each nonzero graded piece of W is pure of its weight.

    ``pieces`` holds (k, F_k, N_k) for each nonzero Gr^W_k: the filtration
    F_k = P_k(F cap W_k) and the operators N_{j,k} = P_k N_j S_k induced in
    the coordinates (P_k, S_k) of ``graded_maps(W, k)``.  The operators
    must preserve W.  Then g = exp(i sum y_j N_j) maps W_k onto itself and
    P_k g = g_k P_k on W_k, with g_k = exp(i sum y_j N_{j,k}), so
    (g F) induces on Gr^W_k exactly the canonical filtration
    ``orbit_point(F_k, N_k, y)``: the same steps and index range as
    ``orbit_point(F, N, y).map_image(P_k, within=W_k)``.  Each piece is
    moved on its own, and each distinct (k, F_{k,y}) is tested once per
    call; a piece whose induced operators vanish is never moved."""
    passed = set()
    for y in policy.grid_points(n_ops):
        for k, fk, ops in pieces:
            fy = orbit_point(fk, ops, y)
            if (k, fy) not in passed:
                if not is_pure_hs(k, fy):
                    return False
                passed.add((k, fy))
    return True
