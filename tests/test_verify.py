from fractions import Fraction
from types import SimpleNamespace

import pytest

from hodgeorbit import verify

from hodgeorbit.catalog import (
    catalog_by_name,
    catalog_entries,
    catalog_names,
    gen_elliptic_orbit,
    gen_elliptic_sum_orbit,
    gen_hodge_tate_orbit,
    gen_kummer,
    gen_nonisotropic_parts,
    gen_rmf_missing_mixed,
    gen_stuck_orbit,
    gen_tate,
    gen_tate_curve_orbit,
    gen_three_weight_mixed,
    gen_two_operator_kummer,
)
from hodgeorbit.construct import embed_general
from hodgeorbit.datum import OrbitDatum, Pairing, graded_maps, make_datum, shear_operators
from hodgeorbit.filtration import Filtration
from hodgeorbit.linalg import Matrix, Subspace
from hodgeorbit.monodromy import shift, weight_monodromy
from hodgeorbit.scalars import GaussScalar
from hodgeorbit.verify import (
    CERTIFIED,
    Policy,
    REFUTED,
    SUPPORTED,
    check_mixed_orbit,
    check_pure_orbit,
    griffiths_isotropy_checks,
    hodge_decomposition,
    is_mhs,
    is_polarized_hs,
    is_pure_hs,
    mhs_failures,
    mixed_side,
    operator_sum_facts,
    orbit_point,
    primitive_parts,
    sampled_orbit_membership,
    shear_equivalence_report,
)


def filt(n, pairs):
    return Filtration.make(n, False, pairs)


# -- purity ------------------------------------------------------------------


def test_unit_is_pure():
    f = filt(1, [(0, Subspace.full(1)), (1, Subspace.zero(1))])
    assert is_pure_hs(0, f)


@pytest.mark.xfail(strict=True, reason="hodge_decomposition tests no degree below the first jump of F")
@pytest.mark.parametrize("w", [-1, -5])
def test_unit_is_pure_of_weight_zero_only(w):
    """Q(i)^1 with F^0 = V and F^1 = 0 is the Hodge structure of type
    (0, 0): for w != 0 some degree p has F^p = V = conj F^{w+1-p}."""
    f = filt(1, [(0, Subspace.full(1)), (1, Subspace.zero(1))])
    assert not is_pure_hs(w, f)


def test_weight_one_purity_needs_transverse_conjugate():
    good = filt(2, [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(GaussScalar(0, 1), 1)])), (2, Subspace.zero(2))])
    assert is_pure_hs(1, good)
    bad = filt(2, [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(1, 0)])), (2, Subspace.zero(2))])
    assert not is_pure_hs(1, bad)


def test_hodge_decomposition_pieces():
    f = filt(2, [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(1, GaussScalar(0, 1))])), (2, Subspace.zero(2))])
    dec = hodge_decomposition(1, f)
    assert dec is not None
    assert sorted((p, q) for p, q, _ in dec.pieces) == [(0, 1), (1, 0)]
    conj = {(q, p) for p, q, _ in dec.pieces}
    assert conj == {(p, q) for p, q, _ in dec.pieces}


# -- polarization ------------------------------------------------------------


def test_unit_polarized():
    assert is_polarized_hs(0, gen_tate(0).hodge_filtration, Pairing(Matrix([[1]]), 0, 1))


def test_elliptic_sign_convention_pins_tau():
    s = Pairing(Matrix([[0, 1], [-1, 0]]), -1, -1)
    up = filt(2, [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(1, GaussScalar(0, 1))])), (2, Subspace.zero(2))])
    down = filt(2, [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(1, GaussScalar(0, -1))])), (2, Subspace.zero(2))])
    assert is_polarized_hs(1, up, s)
    assert not is_polarized_hs(1, down, s)
    assert not is_polarized_hs(1, up, s.negate())


def test_polarized_rejects_malformed_pairing():
    with pytest.raises(ValueError):
        is_polarized_hs(0, gen_tate(0).hodge_filtration, Pairing(Matrix([[1]]), 5, 1))


def test_polarized_forces_complementary_dims():
    o = gen_elliptic_orbit(tau=GaussScalar(0, 1))
    f = o.hodge_filtration
    assert is_polarized_hs(1, f, o.pairing)
    for p in f.jumps():
        assert f.at(p).dim + f.at(1 + 1 - p).dim == 2


# -- mixed -------------------------------------------------------------------


def test_is_mhs_on_catalog():
    assert is_mhs(gen_kummer(GaussScalar(0, 1)))
    assert is_mhs(gen_three_weight_mixed())
    assert is_mhs(gen_tate(1))


def test_mhs_failure_names_weight():
    bad = filt(2, [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(1, 0)])), (2, Subspace.zero(2))])
    from hodgeorbit.datum import make_datum
    from hodgeorbit.filtration import trivial_weight_filtration

    h = make_datum(trivial_weight_filtration(2, 1), bad, [], {})
    assert mhs_failures(h) == [1]


# -- structural reports ------------------------------------------------------


def test_griffiths_isotropy_on_raw_negative():
    parts = gen_nonisotropic_parts()
    rep = griffiths_isotropy_checks(parts["weight"], parts["pairing"], parts["operators"], parts["hodge_filtration"])
    assert not all(rep.isotropy)
    with pytest.raises(ValueError):
        OrbitDatum(parts["weight"], parts["pairing"], parts["operators"], parts["hodge_filtration"])


def test_griffiths_all_pass_on_certified_orbit():
    o = gen_elliptic_orbit()
    rep = griffiths_isotropy_checks(o.weight, o.pairing, o.operators, o.hodge_filtration)
    assert rep.all_pass


def test_zero_operators_pass_structure():
    o = gen_elliptic_orbit(tau=GaussScalar(0, 1))
    rep = griffiths_isotropy_checks(o.weight, o.pairing, (), o.hodge_filtration)
    assert rep.all_pass


# -- primitive decomposition ---------------------------------------------------


def test_primitive_parts_zero_operator():
    o = gen_elliptic_orbit(tau=GaussScalar(0, 1))
    o0 = OrbitDatum(o.weight, o.pairing, (Matrix.zeros(2, 2),), o.hodge_filtration)
    dec = primitive_parts(o0)
    assert dec.lefschetz_ok
    assert [p.weight_k for p in dec.parts] == [1]
    assert dec.parts[0].subspace.dim == 2


def test_primitive_parts_jordan_two():
    dec = primitive_parts(gen_elliptic_orbit())
    assert dec.lefschetz_ok
    assert [(p.weight_k, p.subspace.dim) for p in dec.parts] == [(2, 1)]


def test_lefschetz_dimension_identity():
    for o in (gen_elliptic_orbit(), gen_hodge_tate_orbit(), gen_elliptic_sum_orbit(), gen_tate_curve_orbit()):
        dec = primitive_parts(o)
        total = sum((p.weight_k - o.weight + 1) * p.subspace.dim for p in dec.parts)
        assert total == o.dim and dec.lefschetz_ok


def test_lefschetz_graded_pairings_polarize():
    o = gen_hodge_tate_orbit()
    pairings = dict(mixed_side(o).graded_pairings)
    wfilt = shift(weight_monodromy(o.operators[0]), o.weight)
    assert set(pairings) == set(wfilt.jumps())
    for w, p in pairings.items():
        assert p.symmetry == (-1) ** (w % 2) and p.is_perfect()


def reference_lefschetz_graded_pairings(o):
    """The graded pairings of ``mixed_side`` as they were first assembled:
    W(N_0)[-w] computed afresh, and each primitive basis vector carried by
    a power of N_0 and projected to gr_k one column at a time."""
    n0 = o.operators[0]
    w = o.weight
    wfilt = shift(weight_monodromy(n0), w)
    by_weight = {part.weight_k: part for part in primitive_parts(o).parts}
    pairings = {}
    for k in wfilt.jumps():
        gm = graded_maps(wfilt, k)
        cols = []
        blocks = []
        for j, m in enumerate(range(k, wfilt.max_index() + 1, 2)):
            part = by_weight.get(m)
            if part is not None and m >= w and m >= 2 * w - k:
                incl_m = graded_maps(wfilt, m).section @ part.subspace.basis.transpose()
                for col in range(part.subspace.dim):
                    cols.append(gm.project.apply(n0.power(j).apply(incl_m.col(col))))
                blocks.append(part.pairing.matrix)
        if len(cols) != gm.dim:
            raise ValueError(f"Lefschetz components do not exhaust gr at weight {k}")
        phi = Matrix.from_rows(list(zip(*cols)), len(cols))
        pairings[k] = Pairing.of_weight(Matrix.block_diag(*blocks), k).transport(phi)
    return pairings


def reference_mixed_side(o):
    wfilt = shift(weight_monodromy(o.operators[0]), o.weight)
    pairings = reference_lefschetz_graded_pairings(o)
    return make_datum(wfilt, o.hodge_filtration, o.operators[1:], pairings, o.twist_tag)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _orbits_of_the_harness(o):
    """o, the sheared orbits ``shear_equivalence_report`` builds from it,
    and its primitive sub-orbits that keep an operator."""
    out = [o]
    for a in Policy().shears:
        try:
            out.append(OrbitDatum(o.weight, o.pairing, shear_operators(o.operators, a), o.hodge_filtration, o.twist_tag))
        except ValueError:
            pass
    for part in primitive_parts(o).parts:
        try:
            out.append(OrbitDatum(part.weight_k, part.pairing, part.operators, part.hodge_filtration, o.twist_tag))
        except ValueError:
            continue
    return [x for x in out if x.operators]


def test_mixed_side_matches_the_column_by_column_reference():
    # The catalog orbits, and the targets of the catalog embeddings: up to
    # dimension 24, with two Lefschetz components on some graded pieces.
    sources = [e.build() for e in catalog_entries() if e.kind == "orbit"]
    sources += [embed_general(catalog_by_name(name).build()).target for name in catalog_names("embed", "mixed_positive")]
    orbits = [x for o in sources for x in _orbits_of_the_harness(o)]
    assert any(len(o.operators) == 2 for o in orbits) and max(o.dim for o in orbits) == 24
    for o in orbits:
        assert _outcome(mixed_side, o) == _outcome(reference_mixed_side, o)


def test_one_mixed_side_computes_the_weight_filtration_once(monkeypatch):
    counts = {"weight_monodromy": 0, "primitive_parts": 0}

    def counted(name):
        fn = getattr(verify, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        monkeypatch.setattr(verify, name, wrapper)

    counted("weight_monodromy")
    counted("primitive_parts")
    for entry in catalog_entries():
        if entry.kind == "orbit":
            counts.update(weight_monodromy=0, primitive_parts=0)
            _outcome(mixed_side, entry.build())
            assert counts == {"weight_monodromy": 1, "primitive_parts": 1}, entry.name


def test_shear_equivalence_needs_a_designated_operator():
    o = gen_elliptic_orbit()
    bare = OrbitDatum(o.weight, o.pairing, (), o.hodge_filtration)
    with pytest.raises(ValueError, match="^orbit datum has no designated operator$"):
        shear_equivalence_report(bare)


# -- sampling ----------------------------------------------------------------


def test_sampled_membership_examples():
    o = gen_elliptic_orbit()
    assert sampled_orbit_membership(o, y_grid=[(Fraction(4),)]).all_pass
    assert sampled_orbit_membership(o).all_pass
    assert not sampled_orbit_membership(gen_elliptic_orbit(flip=True)).all_pass
    o0 = OrbitDatum(1, o.pairing, (), gen_elliptic_orbit(tau=GaussScalar(0, 1)).hodge_filtration)
    assert sampled_orbit_membership(o0).all_pass


def test_orbit_point_is_f_itself_when_the_exponent_vanishes():
    o = gen_elliptic_orbit()
    f, n = o.hodge_filtration, o.operators[0]
    four = Fraction(4)
    assert orbit_point(f, (), ()) is f
    assert orbit_point(f, (n, n), (four, -four)) is f
    assert orbit_point(f, (n.scale(0),), (four,)) is f
    moved = orbit_point(f, (n,), (four,))
    assert moved != f and moved == f.map_image(verify.exp_twisted_combination((n,), (four,)))
    with pytest.raises(ValueError, match="coefficient count mismatch"):
        orbit_point(f, (n, n), (four,))


def test_sampled_mhs_tests_each_distinct_graded_filtration_once(monkeypatch):
    calls = []

    def counted(w, f):
        calls.append((w, f))
        return is_pure_hs(w, f)

    monkeypatch.setattr(verify, "is_pure_hs", counted)
    # Graded operators that vanish leave each piece where it is: one test
    # per piece, however many grid points.
    h = gen_two_operator_kummer()
    pieces = verify._graded_pieces(h.weight_filtration, h.hodge_filtration, h.operators)
    assert all(op.is_zero() for _, _, ops in pieces for op in ops)
    assert verify._sampled_mhs(pieces, 2, Policy())
    assert sorted(calls, key=lambda c: c[0]) == [(k, fk) for k, fk, _ in sorted(pieces, key=lambda p: p[0])]
    # A piece the operator moves: the grid (4, 8, 4) meets two distinct
    # points, each tested once; a second call tests them again.
    o = gen_elliptic_orbit()
    pieces = [(o.weight, o.hodge_filtration, o.operators)]
    for _ in range(2):
        calls.clear()
        assert verify._sampled_mhs(pieces, 1, Policy(grid=(4, 8, 4)))
        assert calls == [(1, orbit_point(o.hodge_filtration, o.operators, (Fraction(y),))) for y in (4, 8)]


def test_sampled_membership_validates_the_pairing_once(monkeypatch):
    o = gen_elliptic_orbit()
    perfect = []
    is_perfect = Pairing.is_perfect

    def counted(p):
        perfect.append(p)
        return is_perfect(p)

    monkeypatch.setattr(Pairing, "is_perfect", counted)
    report = sampled_orbit_membership(o)
    assert report.all_pass and len(report.points) == 3
    assert len(perfect) == 1


@pytest.mark.parametrize(
    "pairing, message",
    [
        (Pairing(Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), -1, -1), "pairing size does not match the space"),
        (Pairing(Matrix([[1, 0], [0, 1]]), -1, 1), "pairing has wrong twist or symmetry for the weight"),
        (Pairing(Matrix([[0, 0], [0, 0]]), -1, -1), "pairing is degenerate"),
    ],
)
def test_sampled_membership_refuses_a_bad_pairing_before_the_first_point(monkeypatch, pairing, message):
    o = gen_elliptic_orbit()
    moved = []
    monkeypatch.setattr(verify, "orbit_point", lambda *args: moved.append(args))
    datum = SimpleNamespace(weight=1, pairing=pairing, operators=o.operators, hodge_filtration=o.hodge_filtration)
    with pytest.raises(ValueError, match=message):
        sampled_orbit_membership(datum)
    assert moved == []


def test_sampled_membership_stops_at_the_first_failing_point(monkeypatch):
    tested = []
    core = verify._is_polarized

    def counted(w, f, s):
        tested.append(f)
        return core(w, f, s)

    monkeypatch.setattr(verify, "_is_polarized", counted)
    o = gen_elliptic_orbit(flip=True)
    grid = Policy().grid_points(1)
    full = sampled_orbit_membership(o, y_grid=grid)
    assert not full.points[0][1] and len(full.points) == len(grid) == len(tested)
    tested.clear()
    probe = sampled_orbit_membership(o, y_grid=grid, stop_at_failure=True)
    assert probe.points == full.points[:1] and not probe.all_pass
    assert len(tested) == 1
    # A passing probe still reports every point.
    ok = gen_elliptic_orbit()
    assert sampled_orbit_membership(ok, y_grid=grid, stop_at_failure=True) == sampled_orbit_membership(ok, y_grid=grid)


# -- verdicts ----------------------------------------------------------------


def test_check_pure_orbit_certified_and_refuted():
    assert check_pure_orbit(gen_elliptic_orbit()).status == CERTIFIED
    assert check_pure_orbit(gen_elliptic_orbit(flip=True)).status == REFUTED
    assert check_pure_orbit(gen_stuck_orbit()).status == REFUTED


def test_check_pure_orbit_zero_operator_case():
    o = gen_elliptic_orbit(tau=GaussScalar(0, 1))
    o0 = OrbitDatum(o.weight, o.pairing, (), o.hodge_filtration)
    assert check_pure_orbit(o0).status == CERTIFIED


def test_check_mixed_orbit_statuses():
    assert check_mixed_orbit(gen_tate(0)).status == CERTIFIED
    assert check_mixed_orbit(gen_kummer(GaussScalar(0, 1))).status == SUPPORTED
    v = check_mixed_orbit(gen_rmf_missing_mixed())
    assert v.status == REFUTED
    assert v.clause("admissibility_partial_sums") is False


def test_check_mixed_orbit_names_failing_weight():
    bad = gen_kummer(GaussScalar(0, 1), flip_weight=-2)
    v = check_mixed_orbit(bad)
    assert v.status == REFUTED
    assert v.clause("graded_-2") is False
    assert v.clause("graded_0") is True


def test_operator_sum_facts_all_pass():
    facts = operator_sum_facts(gen_two_operator_kummer())
    assert facts.all_pass


def test_operator_sum_facts_zero_second_operator():
    h = gen_kummer(GaussScalar(0, 1), n_ops=2)  # second operator is zero
    facts = operator_sum_facts(h)
    assert facts.all_pass


def test_operator_sum_facts_needs_two_operators():
    with pytest.raises(ValueError):
        operator_sum_facts(gen_kummer(GaussScalar(0, 1)))


def test_shear_equivalence_degenerate_single_operator():
    rep = shear_equivalence_report(gen_elliptic_orbit())
    assert rep.agree and rep.left_positive and rep.right_positive


def test_shear_equivalence_negative_agrees():
    rep = shear_equivalence_report(gen_elliptic_orbit(flip=True))
    assert rep.agree and not rep.left_positive and not rep.right_positive


def test_sampled_membership_monotone_stability_on_catalog():
    # regression property over the catalog positives: doubling the sample
    # point keeps membership
    from hodgeorbit.catalog import catalog_entries

    for entry in catalog_entries():
        if "orbit_positive" not in entry.tags:
            continue
        o = entry.build()
        n = len(o.operators)
        for y in ((Fraction(4),) * n, (Fraction(8),) * n):
            assert sampled_orbit_membership(o, y_grid=[y]).all_pass, entry.name


def test_operator_sum_facts_all_operators_zero():
    h = gen_kummer(GaussScalar(0, 1), n_ops=2)
    zeroed = h
    from hodgeorbit.datum import make_datum

    zeroed = make_datum(
        h.weight_filtration,
        h.hodge_filtration,
        [Matrix.zeros(2, 2), Matrix.zeros(2, 2)],
        dict(h.graded_pairings),
        h.twist_tag,
    )
    facts = operator_sum_facts(zeroed)
    assert facts.all_pass


def test_check_mixed_orbit_surjection_route():
    from hodgeorbit.construct import surject_from_pure

    h = gen_kummer(GaussScalar(0, 1))
    assert check_mixed_orbit(h).status == SUPPORTED
    assert surject_from_pure(h).verified


def test_purity_invariant_under_rational_basis_change():
    import random as _random
    from hodgeorbit.catalog import random_invertible

    rng = _random.Random(71)
    f_good = Filtration.make(
        2,
        False,
        [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(1, GaussScalar(0, 1))])), (2, Subspace.zero(2))],
    )
    f_bad = Filtration.make(
        2,
        False,
        [(0, Subspace.full(2)), (1, Subspace.from_vectors(2, [(1, 0)])), (2, Subspace.zero(2))],
    )
    for _ in range(8):
        g = random_invertible(rng, 2)
        assert is_pure_hs(1, f_good.map_image(g))
        assert not is_pure_hs(1, f_bad.map_image(g))


def test_transversality_detected_between_jumps():
    # an operator dropping the Hodge degree by two: the violated instance
    # sits strictly between stored filtration jumps
    from hodgeorbit.catalog import gen_tate
    from hodgeorbit.extensions import build_unit_extension

    bad = build_unit_extension(gen_tate(2, 1), [GaussScalar(0, 1)], monodromy_parts=[[1]])
    v = check_mixed_orbit(bad)
    assert v.status == REFUTED and v.clause("transversality") is False
    rep = griffiths_isotropy_checks(
        0,
        Pairing(Matrix.identity(2), 0, 1),
        bad.operators,
        bad.hodge_filtration,
    )
    assert not all(rep.transversality)


def test_deep_gap_extension_is_certified_mixed():
    from hodgeorbit.catalog import gen_tate
    from hodgeorbit.extensions import build_unit_extension

    deep = build_unit_extension(gen_tate(2, 0), [GaussScalar(0, 1)])
    assert deep.weights() == (-4, 0)
    assert check_mixed_orbit(deep).status == CERTIFIED
