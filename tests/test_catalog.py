import random

import pytest

from hodgeorbit.catalog import (
    catalog_by_name,
    catalog_entries,
    catalog_names,
    gen_random_mhs,
    oracle_monodromy_axioms,
    random_nilpotent,
)
from hodgeorbit.datum import graded_piece
from hodgeorbit.filtration import Filtration
from hodgeorbit.linalg import Matrix, Subspace
from hodgeorbit.monodromy import weight_monodromy
from hodgeorbit.verify import is_pure_hs


def test_registry_lookup():
    entry = catalog_by_name("elliptic_orbit")
    assert entry.kind == "orbit"
    assert entry.expectation("check_pure_orbit") == "CERTIFIED"
    with pytest.raises(KeyError):
        catalog_by_name("nope")


def test_registry_has_enough_schmid_entries():
    assert len(catalog_names("schmid", "orbit_positive")) >= 5
    assert len(catalog_names("schmid", "orbit_negative")) >= 5


def test_every_entry_has_provenance():
    for entry in catalog_entries():
        assert entry.provenance
        assert entry.expected


def test_random_mhs_is_seed_reproducible():
    profile = ((0, 1), (-1, 2), (-2, 1))
    a = gen_random_mhs(12, profile, n_ops=2)
    b = gen_random_mhs(12, profile, n_ops=2)
    c = gen_random_mhs(13, profile, n_ops=2)
    assert a == b
    assert a != c


def test_random_mhs_is_mhs_by_brute_force_graded_check():
    # per-weight direct-sum test, independent of is_mhs
    for seed in range(6):
        h = gen_random_mhs(seed, ((0, 2), (-1, 2)), n_ops=1)
        for w in h.weights():
            piece = graded_piece(h, w)
            assert is_pure_hs(w, piece.hodge_filtration)
        for op in h.operators:
            assert op.is_nilpotent()


def test_random_mhs_rejects_infeasible_profiles():
    with pytest.raises(ValueError):
        gen_random_mhs(0, ((1, 3),))  # odd weight, odd dimension
    with pytest.raises(ValueError):
        gen_random_mhs(0, ((0, 7),))  # too big


def test_oracle_passes_on_constructions_and_rejects_perturbations():
    rng = random.Random(5)
    for _ in range(10):
        n = random_nilpotent(rng, rng.randint(2, 8))
        filt = weight_monodromy(n).filtration
        assert oracle_monodromy_axioms(n, filt)
        assert not oracle_monodromy_axioms(n, filt.shift(1))


def test_oracle_rejects_non_preserved_filtration():
    n = Matrix([[0, 1], [0, 0]])
    w = Filtration.make(2, True, [(-1, Subspace.from_vectors(2, [(0, 1)])), (0, Subspace.full(2))])
    assert not oracle_monodromy_axioms(n, w)
