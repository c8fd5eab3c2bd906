"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; all
checks are exact (zero tolerance) and the whole suite is sized to finish in
well under two minutes.
"""

import random
from fractions import Fraction

import pytest

from hodgeorbit import docio
from hodgeorbit.catalog import (
    catalog_by_name,
    catalog_entries,
    catalog_names,
    gen_tate,
    oracle_monodromy_axioms,
    random_invertible,
    random_nilpotent,
)
from hodgeorbit.cli import main as cli_main
from hodgeorbit.construct import (
    build_selfdual_extension,
    embed_general,
    mixed_to_orbit,
    orbit_to_mixed,
    solve_selfduality,
    surject_from_pure,
)
from hodgeorbit.datum import (
    OrbitDatum,
    direct_sum,
    graded_maps,
    make_datum,
    matrix_inverse,
    tate_twist,
    with_tag,
)
from hodgeorbit.filtration import Filtration, trivial_weight_filtration
from hodgeorbit.linalg import Matrix, Subspace, image_of_subspace, preimage
from hodgeorbit.monodromy import relative_monodromy, shift, weight_monodromy
from hodgeorbit.scalars import GaussScalar, ONE, ZERO
from hodgeorbit.verify import (
    CERTIFIED,
    Policy,
    REFUTED,
    check_pure_orbit,
    sampled_orbit_membership,
    shear_equivalence_report,
)


def _line(num, name, ok):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_monodromy_axioms_and_equivariance():
    rng = random.Random(2024)
    ok = True
    for case in range(200):
        dim = rng.randint(1, 8)
        n = random_nilpotent(rng, dim)
        filt = weight_monodromy(n).filtration
        if not oracle_monodromy_axioms(n, filt):
            ok = False
            break
        g = random_invertible(rng, dim)
        conj = g @ n @ matrix_inverse(g)
        moved = Filtration.make(dim, True, [(k, image_of_subspace(g, s)) for k, s in filt.steps])
        if weight_monodromy(conj).filtration != moved:
            ok = False
            break
    _line(1, "monodromy axioms + conjugation equivariance, 200 cases", ok)


def test_criterion_02_relative_degeneration():
    rng = random.Random(1789)
    ok = True
    for case in range(100):
        dim = rng.randint(1, 8)
        n = random_nilpotent(rng, dim)
        w = rng.randint(-4, 4)
        m = relative_monodromy(n, trivial_weight_filtration(dim, w))
        if m is None or m.filtration != shift(weight_monodromy(n), w):
            ok = False
            break
    _line(2, "relative filtration degenerates to the shifted absolute one, 100 cases", ok)


def test_criterion_03_single_operator_exact_vs_sampled():
    positives = catalog_names("schmid", "orbit_positive")
    negatives = catalog_names("schmid", "orbit_negative")
    assert len(positives) >= 5 and len(negatives) >= 5
    policy = Policy(grid=(4, 8, 16))
    ok = True
    for name in positives + negatives:
        orbit = catalog_by_name(name).build()
        assert orbit.dim <= 6 and len(orbit.operators) == 1
        exact = check_pure_orbit(orbit, policy).status != REFUTED
        sampled = sampled_orbit_membership(orbit, policy=policy).all_pass
        if exact != sampled:
            ok = False
            print(f"  disagreement on {name}: exact={exact} sampled={sampled}")
    _line(3, "exact single-operator criterion agrees with sampled membership", ok)


def test_criterion_04_shear_equivalence_harness():
    policy = Policy(grid=(4, 8, 16), shears=(8, 16))
    ok = True
    for entry in catalog_entries():
        if entry.kind != "orbit":
            continue
        orbit = entry.build()
        if len(orbit.operators) > 2:
            continue
        rep = shear_equivalence_report(orbit, policy)
        if not rep.agree:
            ok = False
            print(f"  shear harness disagrees on {entry.name}")
    _line(4, "shear equivalence agrees on every catalog orbit, a in {8,16}", ok)


def test_criterion_05_embedding_pipeline():
    ok = True
    for entry in catalog_entries():
        if "mixed_positive" not in entry.tags:
            continue
        h = entry.build()
        cert = embed_general(h)
        checks = [
            cert.verified,
            cert.target.weight == max(h.weights()),
            len(cert.target.operators) == len(h.operators) + 1,
        ]
        # conditions (a) and (b) re-verified here against independently
        # computed filtrations
        n0 = cert.target.operators[0]
        rel = relative_monodromy(n0, trivial_weight_filtration(cert.target.dim, cert.target.weight))
        checks.append(rel is not None)
        if rel is not None:
            for k in set(h.weights()) | set(rel.filtration.jumps()):
                checks.append(preimage(cert.injection, rel.filtration.at(k)) == h.weight_filtration.at(k))
        for p in set(h.hodge_filtration.jumps()) | set(cert.target.hodge_filtration.jumps()):
            checks.append(
                preimage(cert.injection, cert.target.hodge_filtration.at(p)) == h.hodge_filtration.at(p)
            )
        if not all(checks):
            ok = False
            print(f"  embedding fails on {entry.name}")
    _line(5, "embedding succeeds and verifies (a),(b) on every mixed positive", ok)


def _selfdual_inputs():
    from hodgeorbit.catalog import _elliptic_pure_datum
    from hodgeorbit.filtration import trivial_weight_filtration as _twf
    from hodgeorbit.datum import Pairing as _Pairing

    out = [("unit window", with_tag(gen_tate(1), 0))]
    i = GaussScalar(0, 1)
    wide_ff = Filtration.make(
        2,
        False,
        [
            (-2, Subspace.full(2)),
            (-1, Subspace.from_vectors(2, [(ONE, -i)])),
            (2, Subspace.zero(2)),
        ],
    )
    wide = make_datum(_twf(2, -1), wide_ff, [], {-1: _Pairing(Matrix([[0, 1], [-1, 0]]), 1, -1)}, 0)
    out.append(("wide Hodge range", direct_sum(wide, with_tag(gen_tate(1), 0))))
    for n_ops, z in ((0, GaussScalar(0, 1)), (0, GaussScalar(Fraction(1, 2), Fraction(3, 2))), (1, GaussScalar(0, 2))):
        ell = with_tag(tate_twist(_elliptic_pure_datum(n_ops), 1), 0)
        bottom = with_tag(gen_tate(1, n_ops), 0)
        base = direct_sum(ell, bottom)
        u = Matrix([[1, 0, 0], [0, 1, 0], [0, z, 1]])
        ff = base.hodge_filtration.map_image(u)
        ops = list(base.operators)
        if n_ops:
            ops = [Matrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])]
        h = make_datum(base.weight_filtration, ff, ops, dict(base.graded_pairings), 0)
        out.append((f"rank 3, {n_ops} ops, z={z}", h))
    return out


def test_criterion_06_selfduality_exists_unique():
    ok = True
    for name, h in _selfdual_inputs():
        try:
            ext = build_selfdual_extension(h)
            pairing = solve_selfduality(ext)  # raises unless unique
        except (ValueError, AssertionError) as exc:
            ok = False
            print(f"  self-duality failed on {name}: {exc}")
            continue
        d = ext.datum.dim
        e_vec = [ZERO] * d
        e_vec[d - 1] = ONE
        checks = [
            pairing.evaluate(e_vec, ext.unit_generator) == GaussScalar(1),
            pairing.evaluate(ext.unit_generator, e_vec) == GaussScalar(-1),
            pairing.matrix.transpose() == -pairing.matrix,
        ]
        gm = graded_maps(h.weight_filtration, -1)
        for a in range(gm.dim):
            ua = tuple(gm.section.col(a)) + (ZERO,)
            for b in range(gm.dim):
                ub = tuple(gm.section.col(b)) + (ZERO,)
                checks.append(pairing.evaluate(ua, ub) == h.pairing(-1).matrix.entries[a][b])
        if not all(checks):
            ok = False
            print(f"  graded behaviour wrong on {name}")
    _line(6, "self-dual pairing exists with prescribed graded data and is unique", ok)


def test_criterion_07_identity_composite():
    rng = random.Random(777)
    ok = True
    for case in range(50):
        bdim = rng.randint(1, 5)
        g = random_invertible(rng, bdim)
        g_dual = matrix_inverse(g).transpose()
        unit_cols = []
        for t in range(bdim):
            vec = [ZERO] * (bdim ** 3)
            for j in range(bdim):
                for r in range(bdim):
                    gr = g.entries[r][j]
                    if gr.is_zero():
                        continue
                    for s in range(bdim):
                        idx = (r * bdim + s) * bdim + t
                        vec[idx] = vec[idx] + gr * g_dual.entries[s][j]
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
        if contract @ unit != Matrix.identity(bdim):
            ok = False
            break
    _line(7, "unit/trace composite is the identity, 50 seeded cases", ok)


def test_criterion_08_surjections_both_directions():
    ok = True
    for entry in catalog_entries():
        if "mixed_positive" not in entry.tags:
            continue
        cert = surject_from_pure(entry.build())
        if not cert.verified:
            ok = False
            print(f"  surjection fails on {entry.name}")
            continue
        verdict = check_pure_orbit(cert.source)
        if verdict.status == REFUTED:
            ok = False
        if len(cert.source.operators) == 1 and verdict.status != CERTIFIED:
            ok = False
            print(f"  single-operator source not certified on {entry.name}")
    for entry in catalog_entries():
        if "mixed_negative" not in entry.tags:
            continue
        try:
            surject_from_pure(entry.build())
            ok = False
            print(f"  negative {entry.name} produced a certificate")
        except ValueError:
            pass
    _line(8, "surjection certificates exist exactly for the positives", ok)


def test_criterion_09_correspondence_round_trip():
    ok = True
    for entry in catalog_entries():
        if "orbit_positive" not in entry.tags:
            continue
        orbit = entry.build()
        paired = orbit_to_mixed(orbit)
        back, verdict = mixed_to_orbit(paired)
        if back != orbit or verdict.status == REFUTED:
            ok = False
            print(f"  orbit round trip fails on {entry.name}")
        paired2 = orbit_to_mixed(back)
        if (
            paired2.datum != paired.datum
            or paired2.pairing != paired.pairing
            or paired2.log_operator != paired.log_operator
        ):
            ok = False
            print(f"  mixed round trip fails on {entry.name}")
    _line(9, "data correspondence round trips are identities", ok)


def test_criterion_10_io_and_cli(tmp_path, capsys):
    ok = True
    for entry in catalog_entries():
        if entry.kind == "raw":
            continue
        text = docio.serialize(entry.build())
        if docio.serialize(docio.parse(text)) != text:
            ok = False
            print(f"  round trip not byte-stable for {entry.name}")
    ell = tmp_path / "ell.json"
    kummer = tmp_path / "kummer.json"
    bad = tmp_path / "bad.json"
    cert = tmp_path / "cert.json"
    mixed = tmp_path / "mixed.json"
    back = tmp_path / "back.json"
    session = [
        (("catalog", "--name", "elliptic_orbit", "--output", str(ell)), 0),
        (("check-orbit", "--input", str(ell)), 0),
        (("catalog", "--name", "kummer_i", "--output", str(kummer)), 0),
        (("check-mhs", "--input", str(kummer)), 0),
        (("monodromy", "--input", str(ell)), 0),
        (("rel-monodromy", "--input", str(kummer)), 0),
        (("embed", "--input", str(kummer), "--output", str(cert)), 0),
        (("verify-certificate", "--input", str(cert)), 0),
        (("catalog", "--name", "kummer_flipped_bottom", "--output", str(bad)), 0),
        (("check-mhs", "--input", str(bad)), 1),
        (("orbit-to-mixed", "--input", str(ell), "--output", str(mixed)), 0),
        (("mixed-to-orbit", "--input", str(mixed), "--output", str(back)), 0),
        (("prop44", "--input", str(ell)), 0),
    ]
    for argv, want in session:
        code = cli_main(list(argv))
        capsys.readouterr()
        if code != want:
            ok = False
            print(f"  CLI {' '.join(argv)} exited {code}, wanted {want}")
    with capsys.disabled():
        _line(10, "serialization byte-stable and CLI session exit codes match", ok)
