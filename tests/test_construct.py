import random
import re
import time
from fractions import Fraction

import pytest

from hodgeorbit import construct
from hodgeorbit.catalog import (
    catalog_entries,
    gen_elliptic_orbit,
    gen_kummer,
    gen_random_mhs,
    gen_tate,
    gen_tate_curve_orbit,
    gen_three_weight_mixed,
    gen_two_weight_mixed,
)
from hodgeorbit.construct import (
    build_selfdual_extension,
    certify_surjection,
    embed_general,
    embed_two_weights,
    mixed_to_orbit,
    orbit_dual,
    orbit_to_mixed,
    solve_selfduality,
    surject_from_pure,
)
from hodgeorbit.datum import (
    OrbitDatum,
    Pairing,
    direct_sum,
    dual,
    graded_piece,
    make_datum,
    tate_twist,
    with_tag,
)
from hodgeorbit.extensions import carlson_class, normalize_class
from hodgeorbit.filtration import Filtration, trivial_weight_filtration
from hodgeorbit.linalg import Matrix, Subspace, echelonize
from hodgeorbit.monodromy import admissibility_report, relative_monodromy, shift, weight_monodromy
from hodgeorbit.scalars import GaussScalar, ONE, ZERO
from hodgeorbit.verify import CERTIFIED, REFUTED, Policy, check_mixed_orbit


def windowed_rank3(n_ops=0, z=GaussScalar(0, 1)):
    """Weights {-1,-2}: twisted elliptic over the twist line, with a
    nontrivial Hodge-direction extension; the smallest interesting input
    for the self-dual hull."""
    from hodgeorbit.catalog import _elliptic_pure_datum

    ell = with_tag(tate_twist(_elliptic_pure_datum(n_ops), 1), 0)
    bottom = with_tag(gen_tate(1, n_ops), 0)
    base = direct_sum(ell, bottom)
    u_rows = [
        [1, 0, 0],
        [0, 1, 0],
        [0, z, 1],
    ]
    u = Matrix(u_rows)
    ff = base.hodge_filtration.map_image(u)
    return make_datum(base.weight_filtration, ff, base.operators, dict(base.graded_pairings), 0)


# -- self-dual extension -------------------------------------------------------


def test_selfdual_extension_unit_case():
    ext = build_selfdual_extension(with_tag(gen_tate(1), 0))
    assert ext.datum.dim == 2
    assert ext.datum.weights() == (-2, 0)
    assert (ext.log_operator @ ext.log_operator).is_zero()
    # the operator maps the unit direction onto the bottom generator
    img = ext.log_operator.col(1)
    assert img == ext.unit_generator[:1] + (ZERO,)


def test_selfdual_extension_rank3():
    h = windowed_rank3()
    ext = build_selfdual_extension(h)
    assert ext.datum.dim == 4
    assert ext.datum.weights() == (-2, -1, 0)
    assert (ext.log_operator @ ext.log_operator).is_zero()
    # quotient class round trip is checked internally; rerun the public parts
    qd_class = carlson_class(ext.datum)
    assert qd_class.dim == h.dim


def test_selfdual_extension_rejects_bad_window():
    with pytest.raises(ValueError):
        build_selfdual_extension(gen_kummer(GaussScalar(0, 1)))


def test_solve_selfduality_unit_case_gives_wedge():
    ext = build_selfdual_extension(with_tag(gen_tate(1), 0))
    s = solve_selfduality(ext)
    assert s.matrix == Matrix([[0, -1], [1, 0]])
    assert s.symmetry == -1 and s.twist == 1


def test_solve_selfduality_rank3_unique_antisymmetric():
    ext = build_selfdual_extension(windowed_rank3())
    s = solve_selfduality(ext)
    assert s.matrix.transpose() == -s.matrix
    assert not s.matrix.det().is_zero()
    # gr_{-1} behaviour: lifted values equal the declared pairing
    h = ext.base
    from hodgeorbit.datum import graded_maps

    gm = graded_maps(h.weight_filtration, -1)
    for a in range(gm.dim):
        ua = tuple(gm.section.col(a)) + (ZERO,)
        for b in range(gm.dim):
            ub = tuple(gm.section.col(b)) + (ZERO,)
            assert s.evaluate(ua, ub) == h.pairing(-1).matrix.entries[a][b]


def test_selfdual_extension_with_operator():
    h = windowed_rank3(n_ops=1)
    ops = [Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])]  # elliptic line -> bottom
    h = make_datum(h.weight_filtration, h.hodge_filtration, ops, dict(h.graded_pairings), 0)
    ext = build_selfdual_extension(h)
    assert len(ext.datum.operators) == 1
    s = solve_selfduality(ext)
    n = ext.datum.operators[0]
    assert (n.transpose() @ s.matrix + s.matrix @ n).is_zero()


# -- two-weight embedding ------------------------------------------------------


def test_identity_composite_for_seeded_bases():
    # b -> sum_j g_j x g_j* x b -> b is the identity for any basis (g_j),
    # where g_j* is the dual basis; rank <= 5.
    from hodgeorbit.catalog import random_invertible
    from hodgeorbit.datum import matrix_inverse

    rng = random.Random(41)
    for _ in range(10):
        bdim = rng.randint(1, 5)
        g = random_invertible(rng, bdim)
        g_dual = matrix_inverse(g).transpose()  # columns are the dual basis
        unit_cols = []
        for t in range(bdim):
            vec = [ZERO] * (bdim ** 3)
            for j in range(bdim):
                for r in range(bdim):
                    for s in range(bdim):
                        idx = (r * bdim + s) * bdim + t
                        vec[idx] = vec[idx] + g.entries[r][j] * g_dual.entries[s][j]
            unit_cols.append(vec)
        unit = Matrix.from_rows(list(zip(*unit_cols)), bdim)
        contract = Matrix.from_rows(
            [
                [
                    ONE if (r == i and i2 == t) else ZERO
                    for i in range(bdim)
                    for i2 in range(bdim)
                    for t in range(bdim)
                ]
                for r in range(bdim)
            ],
            bdim ** 3,
        )
        assert contract @ unit == Matrix.identity(bdim)


def test_embed_pure_base_case():
    h = gen_two_weight_mixed()
    top = graded_piece(h, 0)
    cert = embed_two_weights(top, top_weight=0)
    assert cert.verified
    assert cert.target.dim == top.dim
    assert cert.injection == Matrix.identity(top.dim)
    assert cert.target.operators[0].is_zero()
    # On pure data gr_0 has the coordinates of V, so the target polarization
    # is the graded pairing itself.
    assert cert.target.pairing == top.pairing(0)


def test_embed_twist_window_gives_rank_two_orbit():
    cert = embed_two_weights(with_tag(gen_tate(1), 0), top_weight=-1)
    assert cert.verified and cert.target.dim == 2
    assert cert.target.weight == -1
    assert cert.orbit_verdict.status == CERTIFIED


def test_embed_general_kummer():
    h = gen_kummer(GaussScalar(0, 1))
    cert = embed_general(h)
    assert cert.verified
    assert cert.target.weight == 0
    assert len(cert.target.operators) == len(h.operators) + 1
    assert cert.condition_a and cert.condition_b
    # condition (b) against an independently computed relative filtration
    rel = relative_monodromy(
        cert.target.operators[0], trivial_weight_filtration(cert.target.dim, cert.target.weight)
    )
    assert rel is not None
    from hodgeorbit.linalg import preimage

    for k in set(h.weights()) | set(rel.filtration.jumps()):
        assert preimage(cert.injection, rel.filtration.at(k)) == h.weight_filtration.at(k)


def test_embed_general_three_weight():
    h = gen_three_weight_mixed()
    cert = embed_general(h)
    assert cert.verified
    assert cert.target.weight == 0
    assert len(cert.target.operators) == 2
    assert cert.condition_a and cert.condition_b


def test_embed_rejects_missing_pairing():
    h = gen_kummer(GaussScalar(0, 1))
    stripped = make_datum(h.weight_filtration, h.hodge_filtration, h.operators, {}, h.twist_tag)
    with pytest.raises(ValueError):
        embed_general(stripped)


def test_embed_flipped_negative_produces_no_certificate():
    bad = gen_kummer(GaussScalar(0, 1), flip_weight=-2)
    with pytest.raises(ValueError):
        embed_general(bad)


# -- surjection variant ---------------------------------------------------------


def test_surjection_pure_input_is_identity():
    h = gen_two_weight_mixed()
    top = graded_piece(h, 0)
    cert = surject_from_pure(top)
    assert cert.verified
    assert cert.source.dim == top.dim
    assert echelonize(cert.surjection).rows == top.dim


def test_surjection_kummer():
    h = gen_kummer(GaussScalar(0, 1))
    cert = surject_from_pure(h)
    assert cert.verified
    assert cert.source.dim >= 2
    assert cert.condition_a and cert.condition_b


def test_surjection_negative_produces_no_certificate():
    bad = gen_kummer(GaussScalar(0, 1), flip_weight=-2)
    with pytest.raises(ValueError):
        surject_from_pure(bad)


def test_certify_surjection_rechecks_surject_from_pure():
    h = gen_kummer(GaussScalar(0, 1))
    cert = surject_from_pure(h)
    assert certify_surjection(cert.source, h, cert.surjection) == cert


def test_certify_surjection_checks_the_operator_count():
    h = gen_kummer(GaussScalar(0, 1))
    cert = surject_from_pure(h)
    bare = make_datum(h.weight_filtration, h.hodge_filtration, [], dict(h.graded_pairings), h.twist_tag)
    fewer = certify_surjection(cert.source, bare, cert.surjection)
    assert not fewer.intertwines and not fewer.verified
    assert fewer.condition_a and fewer.condition_b and fewer.new_operator_dies
    s = cert.source
    extra = OrbitDatum(s.weight, s.pairing, s.operators + s.operators[-1:], s.hodge_filtration, s.twist_tag)
    more = certify_surjection(extra, h, cert.surjection)
    assert not more.intertwines and not more.verified
    # A source without a designated operator has nothing to certify against.
    none = OrbitDatum(s.weight, s.pairing, (), s.hodge_filtration, s.twist_tag)
    empty = certify_surjection(none, bare, cert.surjection)
    assert not empty.intertwines and not empty.new_operator_dies and not empty.condition_b


def test_double_dual_round_trip_on_certificates():
    h = gen_kummer(GaussScalar(0, 1))
    sc = surject_from_pure(h)
    ec = embed_general(dual(h))
    assert sc.source.canonical_key() == orbit_dual(ec.target).canonical_key()
    assert sc.surjection == ec.injection.transpose()


# -- the data correspondence -----------------------------------------------------


def test_orbit_to_mixed_and_back():
    o = gen_elliptic_orbit()
    p = orbit_to_mixed(o)
    assert p.datum.weights() == (0, 2)
    assert p.datum.weight_filtration == shift(weight_monodromy(o.operators[0]), o.weight)
    o2, verdict = mixed_to_orbit(p)
    assert o2.canonical_key() == o.canonical_key()
    assert verdict.status == CERTIFIED
    p2 = orbit_to_mixed(o2)
    assert p2.datum.canonical_key() == p.datum.canonical_key()
    assert p2.pairing == p.pairing and p2.log_operator == p.log_operator


def test_orbit_to_mixed_rejects_refuted():
    with pytest.raises(ValueError):
        orbit_to_mixed(gen_elliptic_orbit(flip=True))


def test_mixed_to_orbit_condition_1_failure_named():
    o = gen_elliptic_orbit()
    p = orbit_to_mixed(o)
    # Shift the weight filtration while keeping the declared weight: the
    # filtration is then not the shifted monodromy filtration of N.
    wrong = make_datum(
        p.datum.weight_filtration.shift(2),
        p.datum.hodge_filtration,
        p.datum.operators,
        {w + 2: Pairing(q.matrix, q.twist - 2, q.symmetry) for w, q in p.datum.graded_pairings},
        p.datum.twist_tag,
    )
    from hodgeorbit.datum import PairedDatum

    with pytest.raises(ValueError, match="condition \\(1\\)"):
        bad = PairedDatum(wrong, p.weight, p.pairing, p.log_operator)
        mixed_to_orbit(bad)


def test_mixed_to_orbit_condition_2_failure_named():
    o = gen_tate_curve_orbit()
    p = orbit_to_mixed(o)
    from hodgeorbit.datum import PairedDatum

    flipped = PairedDatum(p.datum, p.weight, p.pairing.negate(), p.log_operator)
    with pytest.raises(ValueError, match="condition \\(2\\)"):
        mixed_to_orbit(flipped)


def test_embed_general_delegates_for_two_weights():
    h = gen_two_weight_mixed()
    a = embed_general(h)
    b = embed_two_weights(h, top_weight=0)
    assert a.target.canonical_key() == b.target.canonical_key()
    assert a.injection == b.injection


def test_mixed_to_orbit_trivial_operator_on_pure():
    from hodgeorbit.datum import PairedDatum, graded_maps, matrix_inverse

    h = graded_piece(gen_two_weight_mixed(), 0)  # pure polarized, weight 0
    pairing = h.pairing(0)
    paired = PairedDatum(h, 0, pairing, Matrix.zeros(h.dim, h.dim))
    orbit, verdict = mixed_to_orbit(paired)
    assert verdict.status == CERTIFIED
    assert orbit.hodge_filtration == h.hodge_filtration
    assert orbit.operators[0].is_zero()


def test_selfdual_extension_wide_hodge_range():
    # gr_{-1} with Hodge types (1,-2) and (-2,1): F^{-1} is not the whole
    # space and F^1 is nonzero, so the general F-compatibility rows of the
    # self-duality system matter.
    i = GaussScalar(0, 1)
    wf = trivial_weight_filtration(2, -1)
    ff = Filtration.make(
        2,
        False,
        [
            (-2, Subspace.full(2)),
            (-1, Subspace.from_vectors(2, [(ONE, -i)])),
            (2, Subspace.zero(2)),
        ],
    )
    s = Pairing(Matrix([[0, 1], [-1, 0]]), 1, -1)
    exotic = make_datum(wf, ff, [], {-1: s}, 0)
    h = direct_sum(exotic, with_tag(gen_tate(1), 0))
    assert h.hodge_filtration.at(-1).dim < h.dim
    ext = build_selfdual_extension(h)
    pairing = solve_selfduality(ext)
    assert pairing.matrix.transpose() == -pairing.matrix
    assert not pairing.matrix.det().is_zero()
    # higher-degree compatibility: F^1 pairs to zero against F^{-1}
    f1 = ext.datum.hodge_filtration.at(1)
    fm1 = ext.datum.hodge_filtration.at(-1)
    for u in f1.basis.entries:
        for v in fm1.basis.entries:
            assert pairing.evaluate(u, v).is_zero()


# -- refusing inadmissible sources ------------------------------------------------


class _Reached(Exception):
    """Raised in place of the construction: the source got past the gate."""


def _transversality_failure():
    """F^2 = F^1 is the line of e3, and N e3 = e2 lies outside it."""
    e3 = Subspace.from_vectors(3, [(0, 0, 1)])
    ff = Filtration.make(3, False, [(0, Subspace.full(3)), (2, e3), (3, Subspace.zero(3))])
    n = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    return make_datum(trivial_weight_filtration(3, 0), ff, [n], {}, 0)


def test_embed_and_surject_refuse_exactly_the_inadmissible_sources(monkeypatch):
    """A source is refused, at once and with the first failing clause named,
    exactly when check_mixed_orbit refutes its transversality or
    admissibility clause; every other source reaches the construction."""

    def reached(h, policy):
        raise _Reached

    monkeypatch.setattr(construct, "_embed", reached)
    rng = random.Random(20221222)
    inputs = [e.build() for e in catalog_entries() if e.kind == "mixed"]
    inputs += [gen_random_mhs(rng.randrange(2**31), ((0, 1), (-1, 2)), n_ops) for n_ops in (1, 2) for _ in range(20)]
    inputs.append(_transversality_failure())
    gated = ("transversality", "admissibility_partial_sums", "admissibility_cone_samples")
    refused = 0
    for h in inputs:
        clauses = {name: ok for name, ok, _ in check_mixed_orbit(h).evidence}
        if all(clauses[name] for name in gated):
            for build in (embed_general, surject_from_pure):
                with pytest.raises(_Reached):
                    build(h)
            continue
        if not clauses["transversality"]:
            reason = "Griffiths transversality"
        else:
            details = admissibility_report(h.weight_filtration, h.operators).details
            reason = next(name for name, ok in details if not ok)
        for build in (embed_general, surject_from_pure):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=re.escape(reason)):
                build(h)
            assert time.perf_counter() - start < 0.05
        refused += 1
    # rmf_missing, the transversality failure and 22 of the seeded draws.
    assert refused >= 10
