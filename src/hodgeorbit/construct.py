"""The constructive core: embedding mixed data into pure orbit data.

Pipeline, bottom up:

* ``build_selfdual_extension`` takes a two-weight datum (weights -1, -2 with
  one-dimensional bottom identified with the twisted unit) and produces the
  one-dimension-bigger extension carrying a square-zero operator; its
  quotient modulo the bottom line recovers the twisted dual of the input,
  which is verified by comparing normalized extension representatives.
* ``solve_selfduality`` finds the unique pairing identifying that extension
  with its own twisted dual, by exact linear solving with the prescribed
  graded behaviour; uniqueness is certified by the vanishing of the
  homogeneous solution space.
* ``embed_two_weights`` runs the trace-pushout construction and tensors the
  self-dual extension back up, producing an orbit datum of the top weight
  with exactly one new operator and a verified injection.
* ``embed_general`` recurses over the weight span, gluing the inductively
  embedded lower part and merging the two auxiliary operators into one.
* ``surject_from_pure`` dualizes the embedding into a surjection from a pure
  orbit datum.
* ``orbit_to_mixed`` / ``mixed_to_orbit`` repackage between the orbit-side
  and paired-mixed-side data and verify the two matching conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce

from .datum import (
    HodgeDatum,
    OrbitDatum,
    PairedDatum,
    Pairing,
    dual,
    dual_pairing,
    graded_maps,
    graded_piece,
    make_datum,
    matrix_inverse,
    pushout,
    shear_operators,
    sub_truncate,
    sum_operators,
    quotient_datum,
    tate_object,
    tate_twist,
    tensor,
    transported_pairing,
    weight_symmetry,
)
from .extensions import build_unit_extension, carlson_class, normalize_class, unit_section_difference
from .filtration import Filtration, trivial_weight_filtration
from .linalg import (
    Matrix,
    Subspace,
    echelonize,
    image,
    image_of_subspace,
    kernel,
    preimage,
    quotient_projection,
    quotient_section,
    solve,
)
from .monodromy import admissibility_report, relative_monodromy, shift, weight_monodromy
from .scalars import GaussScalar, ONE, ZERO
from .verify import (
    Policy,
    Verdict,
    check_pure_orbit,
    mixed_side,
    primitive_parts,
    REFUTED,
    sampled_orbit_membership,
)


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class EmbeddingCertificate:
    source: HodgeDatum
    target: OrbitDatum
    injection: Matrix
    condition_a: bool  # F of the source is the preimage of F of the target
    condition_b: bool  # W of the source is the preimage of the relative monodromy filtration
    condition_i: bool  # injective with free cokernel
    condition_ii: bool  # target polarization perfect and correctly symmetric
    intertwines: bool
    new_operator_kills_image: bool
    orbit_verdict: Verdict
    shear: int = 0  # reparametrization coefficient of the log coordinate

    @property
    def conditions(self) -> dict:
        return {
            "a": self.condition_a,
            "b": self.condition_b,
            "i": self.condition_i,
            "ii": self.condition_ii,
            "intertwines": self.intertwines,
            "new_operator_kills_image": self.new_operator_kills_image,
        }

    @property
    def verified(self) -> bool:
        return all(self.conditions.values()) and self.orbit_verdict.passed


@dataclass(frozen=True)
class SurjectionCertificate:
    source: OrbitDatum
    target: HodgeDatum
    surjection: Matrix
    condition_a: bool  # F of the target is the image of F of the source
    condition_b: bool  # W of the target is the image of the relative monodromy filtration
    condition_i: bool  # surjective
    condition_ii: bool
    intertwines: bool
    new_operator_dies: bool
    source_verdict: Verdict

    @property
    def conditions(self) -> dict:
        return {
            "a": self.condition_a,
            "b": self.condition_b,
            "i": self.condition_i,
            "ii": self.condition_ii,
            "intertwines": self.intertwines,
            "new_operator_dies": self.new_operator_dies,
        }

    @property
    def verified(self) -> bool:
        return all(self.conditions.values()) and self.source_verdict.passed


@dataclass(frozen=True)
class SelfDualExtension:
    base: HodgeDatum
    datum: HodgeDatum
    log_operator: Matrix
    inclusion: Matrix
    unit_generator: tuple  # generator of the bottom line inside the new datum


# ---------------------------------------------------------------------------
# The self-dual extension (weights -1, -2 -> weights 0, -1, -2)


def build_selfdual_extension(h: HodgeDatum, unit_generator=None, policy: Policy | None = None) -> SelfDualExtension:
    """Extend h (weights in {-1,-2}, one-dimensional bottom) by the unit so
    that the quotient modulo the bottom line is the twisted dual of h.

    The square-zero operator sends the unit direction to the bottom
    generator.  The extension class is the canonical echelon lift of the
    class of the twisted dual, and the quotient is verified to carry that
    class again.
    """
    policy = policy or Policy()
    n = h.dim
    if not set(h.weights()) <= {-1, -2}:
        raise ValueError("input weights must lie in {-1, -2}")
    bottom = h.weight_filtration.at(-2)
    if bottom.dim != 1:
        raise ValueError("bottom graded piece must be one-dimensional")
    if not all(h.hodge_filtration.is_transverse(op) for op in h.operators):
        raise ValueError("input violates Griffiths transversality")
    if unit_generator is None:
        unit_generator = bottom.basis.row(0)
    g = tuple(GaussScalar.of(x) for x in unit_generator)
    if not bottom.contains(g) or all(x.is_zero() for x in g) or any(x.im != 0 for x in g):
        raise ValueError("unit generator must be a nonzero rational vector in the bottom line")
    q_maps = graded_maps(h.weight_filtration, -1)
    q_datum = graded_piece(h, -1)
    if q_datum.dim and q_datum.pairing(-1) is None:
        raise ValueError("gr_{-1} pairing is required")
    if q_datum.dim:
        gr_orbit = OrbitDatum(-1, q_datum.pairing(-1), q_datum.operators, q_datum.hodge_filtration, q_datum.twist_tag)
        if check_pure_orbit(gr_orbit, policy).status == REFUTED:
            raise ValueError("gr_{-1} pairing is not a polarization datum")

    tilde_q = tate_twist(dual(h), 1)
    # Hodge part of the class of tilde_q, with the quotient identified with
    # the unit by evaluation at g.
    rep_tq, s_q = unit_section_difference(
        tilde_q.hodge_filtration.at(0), g, "twisted dual has no F-preserving unit section"
    )
    v_tq = [op.apply(s_q) for op in tilde_q.operators]

    # Transport from the sub of tilde_q to gr_{-1}(h) via the polarization.
    q_dim = q_datum.dim
    if q_dim:
        s_q_pairing = q_datum.pairing(-1)
        phi = s_q_pairing.matrix.transpose()  # Q -> Q^*(1), u -> <u, .>
        rho = q_maps.section.transpose()  # functionals -> Q^* coordinates
        psi = matrix_inverse(phi) @ rho  # functional coords -> Q coords
        z_q = psi.apply(rep_tq)
        v_q = [psi.apply(v) for v in v_tq]
        # Lift along the projection h -> gr_{-1}(h).  The Hodge and
        # monodromy parts must be lifted through the same rational
        # splitting: normalizing one of them modulo the rational lattice
        # would break the coherence the self-duality pairing needs.
        z_lift = solve(q_maps.project, z_q)
        v_lift = [solve(q_maps.project, v) for v in v_q]
        if z_lift is None or any(v is None for v in v_lift):
            raise ValueError("class lift failed")
    else:
        z_lift = (ZERO,) * n
        v_lift = [(ZERO,) * n for _ in h.operators]
    for v in v_lift:
        if any(x.im != 0 for x in v):
            raise ValueError("monodromy lift is not rational")
    for a in range(len(v_lift)):
        for b in range(a + 1, len(v_lift)):
            if h.operators[a].apply(v_lift[b]) != h.operators[b].apply(v_lift[a]):
                raise ValueError("extension class does not lift: commutator obstruction")

    ext = build_unit_extension(h, z_lift, monodromy_parts=[[x.re for x in v] for v in v_lift])
    # The square-zero operator: unit direction to the bottom generator.
    nn_rows = [[ZERO] * n + [g[i]] for i in range(n)]
    nn_rows.append([ZERO] * (n + 1))
    log_op = Matrix.from_rows(nn_rows, n + 1)
    if not (log_op @ log_op).is_zero():
        raise AssertionError("log operator must square to zero")
    incl = Matrix.block_diag(Matrix.identity(n), Matrix.zeros(1, 0))

    # Transversality is inherited from the twisted dual through the lift;
    # verify it exactly rather than trusting the argument.
    if not all(ext.hodge_filtration.is_transverse(op) for op in ext.operators):
        raise AssertionError("lifted extension violates transversality")
    _verify_quotient_class(h, ext, q_datum, q_maps, psi if q_dim else None, rep_tq, g)
    return SelfDualExtension(h, ext, log_op, incl, g + (ZERO,))


def _verify_quotient_class(h, ext, q_datum, q_maps, psi, rep_tq, g):
    """The quotient of the extension by the bottom line must carry the same
    class as the twisted dual, compared over gr_{-1}(h)."""
    if q_datum.dim == 0:
        return
    qd = quotient_datum(ext, -2)
    # Unit covector on the quotient: e-coordinate of the canonical section.
    bottom = ext.weight_filtration.at(-2)
    sec = quotient_section(bottom)
    e_row = sec.row(ext.dim - 1)
    cls_quot = carlson_class(qd, unit_covector=[x for x in e_row])
    # Transport the quotient-sub coordinates to gr_{-1}(h) coordinates.
    sub = qd.weight_filtration.at(-1)
    reps = [sec.apply(row) for row in sub.basis.entries]
    to_gr = Matrix.from_rows(
        list(zip(*[q_maps.project.apply(r[: h.dim]) for r in reps])), sub.dim
    )
    moved = to_gr.apply(cls_quot.representative)
    want = normalize_class(q_datum, psi.apply(rep_tq))
    got = normalize_class(q_datum, moved)
    if want != got:
        raise AssertionError("quotient class does not match the twisted dual")


# ---------------------------------------------------------------------------
# The self-duality solver


def solve_selfduality(ext: SelfDualExtension) -> Pairing:
    """The unique pairing on the extension matching the prescribed graded
    behaviour: the gr_{-1} polarization, the identity on the unit, and
    multiplication by -1 on the bottom line.

    Solved as an exact rational linear system in the entries of its matrix
    G, read row by row (G[r][c] is unknown r * d + c): u^T G v is then the
    row u kron v, and N^T G + G N is (N^T kron I + I kron N^T) applied to G.
    Uniqueness holds because the homogeneous system (a W-level-dropping
    morphism) only has the zero solution, which is checked.
    """
    h = ext.base
    d = ext.datum.dim
    w1 = ext.datum.weight_filtration.at(-1).basis
    w2 = ext.datum.weight_filtration.at(-2).basis
    zero_blocks = [w1.kron(w2), w2.kron(w1)]
    # F-compatibility: the pairing must kill F^p x F^{-p} for every p
    # (p = 0 is the isotropy of F^0; other p matter for wide Hodge ranges).
    # G is rational, so a complex block stands for its real and imaginary
    # rows, whose span is that of the block and its conjugate.
    ff = ext.datum.hodge_filtration
    for p in range(-ff.max_index(), ff.max_index() + 1):
        block = ff.at(p).basis.kron(ff.at(-p).basis)
        zero_blocks += [block] if block.is_rational() else [block, block.conjugate()]
    one = Matrix.identity(d)
    for op in ext.datum.operators:
        zero_blocks.append(op.transpose().kron(one) + one.kron(op.transpose()))
    # Prescribed values: <e, g> = 1 and <g, e> = -1 for the unit vector e
    # and the bottom generator g, and the gr_{-1} polarization on the
    # canonical sections.
    e = Matrix([[0] * (d - 1) + [1]])
    g = Matrix([ext.unit_generator])
    q_maps = graded_maps(h.weight_filtration, -1)
    sec = Matrix.block_diag(q_maps.section.transpose(), Matrix.zeros(0, 1))
    grams = h.pairing(-1).matrix.entries if q_maps.dim else ()
    homogeneous = reduce(Matrix.stack, zero_blocks)
    coeff = homogeneous.stack(e.kron(g)).stack(g.kron(e)).stack(sec.kron(sec))
    rhs = [0] * homogeneous.rows + [1, -1] + [x for row in grams for x in row]
    sol = solve(coeff, rhs)
    if sol is None:
        raise ValueError("self-duality system has no solution")
    # Uniqueness: homogeneous solutions are W-level-dropping morphisms with
    # vanishing graded data, hence zero.
    if kernel(coeff).dim != 0:
        raise AssertionError("self-duality solution is not unique")
    gmat = Matrix([sol[r * d : (r + 1) * d] for r in range(d)], d)
    if gmat.transpose() != -gmat:
        raise AssertionError("self-duality pairing is not antisymmetric")
    if gmat.det().is_zero():
        raise AssertionError("self-duality pairing is degenerate")
    if not (ext.log_operator.transpose() @ gmat + gmat @ ext.log_operator).is_zero():
        raise AssertionError("self-duality pairing is not compatible with the log operator")
    return Pairing(gmat, 1, -1)


# ---------------------------------------------------------------------------
# Certification


def certify_embedding(
    source: HodgeDatum,
    target: OrbitDatum,
    injection: Matrix,
    policy: Policy | None = None,
    shear: int = 0,
) -> EmbeddingCertificate:
    """Re-derive every certificate clause from scratch."""
    policy = policy or Policy()
    inj = injection
    injective = echelonize(inj.transpose()).rows == source.dim
    cond_i = injective  # free cokernel is automatic over a field
    cond_ii = target.pairing.is_perfect() and target.pairing.symmetry == weight_symmetry(target.weight)
    inter = len(target.operators) == len(source.operators) + 1
    if inter:
        for ns, nt in zip(source.operators, target.operators[1:]):
            if inj @ ns != nt @ inj:
                inter = False
    kills = (target.operators[0] @ inj).is_zero() if target.operators else False
    cond_a = all(
        preimage(inj, target.hodge_filtration.at(p)) == source.hodge_filtration.at(p)
        for p in sorted(set(source.hodge_filtration.jumps()) | set(target.hodge_filtration.jumps()))
    )
    mf = shift(weight_monodromy(target.operators[0]), target.weight)
    rel = relative_monodromy(target.operators[0], trivial_weight_filtration(target.dim, target.weight))
    if rel is None or rel.filtration != mf:
        raise AssertionError("relative and shifted absolute filtrations disagree on pure data")
    cond_b = all(
        preimage(inj, mf.at(k)) == source.weight_filtration.at(k)
        for k in sorted(set(source.weight_filtration.jumps()) | set(mf.jumps()))
    )
    verdict = check_pure_orbit(target, policy)
    return EmbeddingCertificate(
        source, target, inj, cond_a, cond_b, cond_i, cond_ii, inter, kills, verdict, shear
    )


def certify_surjection(
    source: OrbitDatum,
    target: HodgeDatum,
    surjection: Matrix,
    policy: Policy | None = None,
) -> SurjectionCertificate:
    """Re-derive every certificate clause from scratch; the mirror of
    :func:`certify_embedding`."""
    policy = policy or Policy()
    surj = surjection
    surjective = echelonize(surj).rows == target.dim
    inter = len(source.operators) == len(target.operators) + 1
    if inter:
        for ns, nt in zip(source.operators[1:], target.operators):
            if surj @ ns != nt @ surj:
                inter = False
    cond_a = all(
        image_of_subspace(surj, source.hodge_filtration.at(p)) == target.hodge_filtration.at(p)
        for p in sorted(set(target.hodge_filtration.jumps()) | set(source.hodge_filtration.jumps()))
    )
    dies = cond_b = False  # without a designated operator neither can hold
    if source.operators:
        dies = (surj @ source.operators[0]).is_zero()
        mf = shift(weight_monodromy(source.operators[0]), source.weight)
        cond_b = all(
            image_of_subspace(surj, mf.at(k)) == target.weight_filtration.at(k)
            for k in sorted(set(target.weight_filtration.jumps()) | set(mf.jumps()))
        )
    verdict = check_pure_orbit(source, policy)
    return SurjectionCertificate(
        source, target, surj, cond_a, cond_b, surjective, source.pairing.is_perfect(), inter, dies, verdict
    )


# ---------------------------------------------------------------------------
# Two-weight embedding


def _pure_base_certificate(h: HodgeDatum, w: int, policy: Policy) -> EmbeddingCertificate:
    pairing = h.pairing(w)
    if pairing is None:
        raise ValueError(f"missing pairing at weight {w}")
    # Here W_{w-1} = 0 and W_w = V, so gr_w has the coordinates of V and the
    # pairing is taken as it is.
    orbit = OrbitDatum(
        w,
        pairing,
        (Matrix.zeros(h.dim, h.dim),) + h.operators,
        h.hodge_filtration,
        h.twist_tag,
    )
    return certify_embedding(h, orbit, Matrix.identity(h.dim), policy)


def embed_two_weights(h: HodgeDatum, top_weight=None, policy: Policy | None = None) -> EmbeddingCertificate:
    """The trace-pushout construction for data with weights {w, w-1}."""
    policy = policy or Policy()
    w = top_weight if top_weight is not None else max(h.weights())
    if not set(h.weights()) <= {w, w - 1}:
        raise ValueError(f"weights must lie in {{{w}, {w - 1}}}")
    for wt in h.weights():
        if h.pairing(wt) is None:
            raise ValueError(f"missing pairing at weight {wt}")
    if h.weight_filtration.at(w - 1).dim == 0:
        return _pure_base_certificate(h, w, policy)

    b_datum = graded_piece(h, w - 1)
    gm_b = graded_maps(h.weight_filtration, w - 1)
    bdim = b_datum.dim
    bt = tate_twist(dual(b_datum), 1)  # pure of weight -w-1
    tbh = tensor(bt, h)
    tbb = tensor(bt, b_datum)
    incl_bb = Matrix.identity(bdim).kron(gm_b.section)
    # Both pushout legs carry twist tag bt.tag + h.tag = 1.
    unit_1 = tate_object(1, len(h.operators))
    trace = Matrix.from_rows(
        [[ONE if i == j else ZERO for i in range(bdim) for j in range(bdim)]], bdim * bdim
    )
    p_raw, map_tbh, map_unit = pushout(incl_bb, trace, tbb, tbh, unit_1)
    pairings = {-2: transported_pairing(p_raw.weight_filtration, unit_1, -2, map_unit)}
    if p_raw.weight_filtration.graded_dim(-1):
        pairings[-1] = transported_pairing(p_raw.weight_filtration, tbh, -1, map_tbh)
    p_datum = make_datum(
        p_raw.weight_filtration,
        p_raw.hodge_filtration,
        p_raw.operators,
        pairings,
        p_raw.twist_tag,
    )
    g_p = map_unit.col(0)
    ext = build_selfdual_extension(p_datum, unit_generator=g_p, policy=policy)
    s_tp = solve_selfduality(ext)
    bm = tate_twist(b_datum, -1)  # pure of weight w+1
    big = tensor(bm, ext.datum)
    s_bm = bm.pairing(w + 1)
    orbit_pairing = Pairing.of_weight(s_bm.matrix.kron(s_tp.matrix), w)
    new_op = Matrix.identity(bdim).kron(ext.log_operator)
    # Injection: x -> sum_i e_i x (lambda_i x x) pushed into the extension.
    stage = Matrix.identity(bdim).kron(ext.inclusion @ map_tbh)
    unit_map = trace.transpose().kron(Matrix.identity(h.dim))
    inj = stage @ unit_map
    orbit = OrbitDatum(w, orbit_pairing, (new_op,) + big.operators, big.hodge_filtration, big.twist_tag)
    return _certify_with_shears(h, orbit, inj, policy)


def _probe_points(policy: Policy, n_ops: int):
    """A cheap screen: the all-minimal grid point plus, when the grid has
    range, each point with the minimum in one slot and the maximum in the
    others (the directions where shear failures show up first)."""
    lo, hi = Fraction(policy.grid[0]), Fraction(policy.grid[-1])
    pts = [tuple(lo for _ in range(n_ops))]
    if hi != lo:
        for i in range(n_ops):
            pts.append(tuple(lo if t == i else hi for t in range(n_ops)))
    return pts


# ---------------------------------------------------------------------------
# General embedding by induction on the weight span


def _require_admissible(h: HodgeDatum) -> None:
    """Refuse a source that check_mixed_orbit refutes for transversality or
    admissibility, naming the first failing clause.  These are the verdict's
    own expressions, so no source it passes is refused; past them the
    construction can run for minutes on such a source, or certify an
    embedding the verdict contradicts."""
    if not all(h.hodge_filtration.is_transverse(op) for op in h.operators):
        raise ValueError("input violates Griffiths transversality")
    report = admissibility_report(h.weight_filtration, h.operators)
    if not report.admissible:
        clause = next(name for name, ok in report.details if not ok)
        raise ValueError(f"input is not admissible: {clause} fails")


def embed_general(h: HodgeDatum, policy: Policy | None = None) -> EmbeddingCertificate:
    _require_admissible(h)
    return _embed(h, policy or Policy())


def _embed(h: HodgeDatum, policy: Policy) -> EmbeddingCertificate:
    if h.dim == 0:
        raise ValueError("cannot embed the zero datum")
    for wt in h.weights():
        if h.pairing(wt) is None:
            raise ValueError(f"missing pairing at weight {wt}")
    return _embed_window(h, max(h.weights()), policy)


def _embed_window(h: HodgeDatum, window_top: int, policy: Policy) -> EmbeddingCertificate:
    span = window_top - min(h.weights()) + 1
    if span <= 1:
        return _pure_base_certificate(h, window_top, policy)
    if span == 2:
        return embed_two_weights(h, top_weight=window_top, policy=policy)
    w = window_top
    # Inner stages are scaffolding; their verdicts are re-derived on the
    # final merged certificate, so they run on a thin sampling grid; an
    # inner stage, already on it, thins it to itself.
    quick = Policy(grid=policy.grid[:1], shears=policy.shears)
    h_low, incl_low = sub_truncate(h, w - 1)
    low_cert = _embed_window(h_low, w - 1, quick)
    if not low_cert.verified:
        raise ValueError(f"recursive embedding failed below weight {w}")
    j_datum, map_h = _glue_extension(h, w, incl_low, low_cert)
    # The base reparametrization compounds down the tower: each ambient
    # operator of the glued datum may need a multiple of the lower-stage
    # log operator before the next stage is run.
    best = None
    failure = None
    for c in _shear_candidates(policy, len(j_datum.operators)):
        j_c = make_datum(
            j_datum.weight_filtration,
            j_datum.hodge_filtration,
            shear_operators(j_datum.operators, c),
            dict(j_datum.graded_pairings),
            j_datum.twist_tag,
        )
        try:
            top_cert = embed_two_weights(j_c, top_weight=w, policy=quick)
        except ValueError as exc:
            failure = exc
            continue
        merged = sum_operators(top_cert.target, 0, 1)
        inj = top_cert.injection @ map_h
        cert = _certify_with_shears(h, merged, inj, policy)
        if cert.verified:
            return cert
        best = cert
    if best is None:
        raise ValueError(f"two-weight stage failed at weight {w}: {failure}")
    return best


def _shear_candidates(policy: Policy, n_ops: int) -> list:
    """Shear 0 first, then the policy values; a single operator has nothing
    to shear."""
    return [0] if n_ops <= 1 else [0] + [int(a) for a in policy.shears]


def _certify_with_shears(h: HodgeDatum, orbit: OrbitDatum, inj: Matrix, policy: Policy) -> EmbeddingCertificate:
    """Certify, allowing the ambient operators of ``orbit`` to be sheared by
    multiples of its first, new operator (the base-change freedom of the log
    coordinate, q -> q f).  The first verified candidate wins.

    Candidates are screened on the probe points first; the full certificate
    is computed only for those that pass.  When none is verified the
    certificate of the unsheared orbit is returned for diagnosis.
    """
    candidates = _shear_candidates(policy, len(orbit.operators))
    probe = _probe_points(policy, len(orbit.operators))
    unsheared = None
    for a in candidates:
        sheared = replace(orbit, operators=shear_operators(orbit.operators, a)) if a else orbit
        if len(candidates) > 1 and not sampled_orbit_membership(sheared, y_grid=probe, stop_at_failure=True).all_pass:
            continue
        cert = certify_embedding(h, sheared, inj, policy, shear=a)
        if cert.verified:
            return cert
        if not a:
            unsheared = cert
    return unsheared if unsheared is not None else certify_embedding(h, orbit, inj, policy)


def _glue_extension(h: HodgeDatum, w: int, incl_low: Matrix, low_cert: EmbeddingCertificate):
    """The two-weight datum J with gr_w = gr_w(h) and gr_{w-1} the pure
    orbit target of the lower embedding, glued along W_{w-1} h."""
    i_orbit = low_cert.target
    iota = low_cert.injection
    nh, ni = h.dim, i_orbit.dim
    rel = image(incl_low.stack(-iota))
    proj = quotient_projection(rel)
    sec = quotient_section(rel)
    map_h = proj @ Matrix.block_diag(Matrix.identity(nh), Matrix.zeros(ni, 0))
    map_i = proj @ Matrix.block_diag(Matrix.zeros(nh, 0), Matrix.identity(ni))
    nj = proj.rows
    w_pairs = [
        (w - 1, image_of_subspace(map_i, Subspace.full(ni))),
        (w, Subspace.full(nj)),
    ]
    wf = Filtration.make(nj, True, w_pairs)
    ff = h.hodge_filtration.direct_sum(i_orbit.hodge_filtration).map_image(proj)
    ops = []
    pieces = [(Matrix.zeros(nh, nh), i_orbit.operators[0])]
    for jdx in range(len(h.operators)):
        pieces.append((h.operators[jdx], i_orbit.operators[jdx + 1]))
    for op_h, op_i in pieces:
        big = Matrix.block_diag(op_h, op_i)
        moved = image_of_subspace(big, rel)
        if not rel.contains_subspace(moved):
            raise AssertionError("glue operator does not descend")
        ops.append(proj @ big @ sec)
    pairings = {}
    if wf.graded_dim(w):
        pairings[w] = transported_pairing(wf, h, w, map_h)
    pairings[w - 1] = i_orbit.pairing.transport(graded_maps(wf, w - 1).project @ map_i)
    j_datum = make_datum(wf, ff, ops, pairings, h.twist_tag)
    return j_datum, map_h


# ---------------------------------------------------------------------------
# The surjection variant


def orbit_dual(o: OrbitDatum) -> OrbitDatum:
    """Dual orbit datum on the functional coordinates."""
    ops = tuple(-op.transpose() for op in o.operators)
    return OrbitDatum(-o.weight, dual_pairing(o.pairing), ops, o.hodge_filtration.dual(), -o.twist_tag)


def surject_from_pure(h: HodgeDatum, policy: Policy | None = None) -> SurjectionCertificate:
    """Dualize the embedding of the dual: a pure orbit surjecting onto h."""
    policy = policy or Policy()
    _require_admissible(h)
    cert = _embed(dual(h), policy)
    if not cert.verified:
        raise ValueError("embedding of the dual failed")
    return certify_surjection(orbit_dual(cert.target), h, cert.injection.transpose(), policy)


# ---------------------------------------------------------------------------
# The data correspondence at a point


def orbit_to_mixed(o: OrbitDatum, policy: Policy | None = None) -> PairedDatum:
    """The mixed side: same space, pairing and filtration, the designated
    operator distinguished, weight filtration its shifted monodromy
    filtration, graded pairings from the primitive decomposition."""
    policy = policy or Policy()
    if not o.operators:
        raise ValueError("orbit datum has no designated operator")
    verdict = check_pure_orbit(o, policy)
    if verdict.status == REFUTED:
        raise ValueError("orbit datum is refuted; no mixed counterpart")
    datum = mixed_side(o)
    _check_condition_2(o, policy)
    return PairedDatum(datum, o.weight, o.pairing, o.operators[0])


def _check_condition_2(o: OrbitDatum, policy: Policy):
    dec = primitive_parts(o)
    if not dec.lefschetz_ok:
        raise ValueError("condition (2) fails: Lefschetz count is off")
    for part in dec.parts:
        try:
            prim = OrbitDatum(part.weight_k, part.pairing, part.operators, part.hodge_filtration, o.twist_tag)
        except ValueError as exc:
            raise ValueError(f"condition (2) fails at weight {part.weight_k}: {exc}")
        if check_pure_orbit(prim, policy).status == REFUTED:
            raise ValueError(f"condition (2) fails at weight {part.weight_k}")


def mixed_to_orbit(p: PairedDatum, policy: Policy | None = None):
    """The orbit side; returns (orbit datum, its verdict).

    Verifies condition (1), the weight filtration being the shifted
    monodromy filtration of the distinguished operator, and condition (2),
    polarization of the primitive parts.
    """
    policy = policy or Policy()
    wfilt = shift(weight_monodromy(p.log_operator), p.weight)
    if wfilt != p.datum.weight_filtration:
        raise ValueError("condition (1) fails: weight filtration is not the shifted monodromy filtration")
    orbit = OrbitDatum(
        p.weight,
        p.pairing,
        (p.log_operator,) + p.datum.operators,
        p.datum.hodge_filtration,
        p.datum.twist_tag,
    )
    _check_condition_2(orbit, policy)
    return orbit, check_pure_orbit(orbit, policy)
