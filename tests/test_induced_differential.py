"""Differential tests for the induced data and for dataclass equality.

``graded_piece``, ``sub_truncate`` and ``quotient_datum`` all go through
``datum._induced``; the bodies they replaced are kept in
``reference_induced`` and must give equal data and equal inclusions at
every weight, on every mixed catalog entry and on seeded data, half of them
in a random rational basis.  Data compare through the ``__eq__`` and
``__hash__`` that ``@dataclass(frozen=True)`` generates; they must agree
with the field-by-field ``canonical_key`` they replaced.
"""

import itertools
import random

import pytest

from hodgeorbit import docio
from hodgeorbit.catalog import catalog_entries, gen_random_mhs, random_invertible
from hodgeorbit.datum import (
    OrbitDatum,
    graded_maps,
    graded_piece,
    make_datum,
    matrix_inverse,
    quotient_datum,
    shear_operators,
    sub_truncate,
    with_tag,
)
from reference_induced import (
    reference_graded_piece,
    reference_hodge_key,
    reference_orbit_key,
    reference_quotient_datum,
    reference_sub_truncate,
)

# The profiles of the benchmark's triage workload.
PROFILES = (
    ((0, 1), (-1, 2)),
    ((0, 2), (-2, 2)),
    ((1, 2), (0, 2)),
    ((0, 1), (-1, 2), (-2, 1)),
    ((0, 2), (-1, 2), (-2, 1)),
    ((0, 2), (-2, 2), (-4, 2)),
)
SEEDS = range(5)


def _base_changed(h, g):
    """h in the coordinates x -> g x: W, F and the operators moved by g, and
    each graded pairing along the isomorphism that g induces on its piece."""
    wf = h.weight_filtration.map_image(g)
    g_inv = matrix_inverse(g)
    pairings = {w: p.transport(graded_maps(wf, w).project @ g @ h.graded(w).section) for w, p in h.graded_pairings}
    ops = [g @ op @ g_inv for op in h.operators]
    return make_datum(wf, h.hodge_filtration.map_image(g), ops, pairings, h.twist_tag)


@pytest.fixture(scope="module")
def mixed_inputs():
    rng = random.Random(20261022)
    out = [(e.name, e.build()) for e in catalog_entries() if e.kind == "mixed"]
    for i, (profile, n_ops, seed) in enumerate(itertools.product(PROFILES, (1, 2), SEEDS)):
        h = gen_random_mhs(seed, profile, n_ops)
        name = f"{profile} n_ops={n_ops} seed={seed}"
        if i % 2:
            h, name = _base_changed(h, random_invertible(rng, h.dim)), name + " base-changed"
        out.append((name, h))
    return out


def test_induced_data_match_the_reference_bodies(mixed_inputs):
    moved_pivots = 0
    for name, h in mixed_inputs:
        weights = h.weights()
        for j in range(min(weights) - 1, max(weights) + 1):
            sub, incl = sub_truncate(h, j)
            ref_sub, ref_incl = reference_sub_truncate(h, j)
            pairs = (
                (graded_piece(h, j), reference_graded_piece(h, j)),
                (sub, ref_sub),
                (quotient_datum(h, j), reference_quotient_datum(h, j)[0]),
            )
            for got, want in pairs:
                assert got == want, (name, j)
                assert reference_hodge_key(got) == reference_hodge_key(want), (name, j)
            assert incl == ref_incl, (name, j)
            pivots = h.weight_filtration.at(j).pivots()
            moved_pivots += pivots != tuple(range(len(pivots)))
    # Some sub-objects are not spanned by the first coordinates, so the
    # restriction to the pivots is exercised.
    assert moved_pivots >= 10


def _one_field_variants(d):
    """Data that differ from d in one field: a flipped pairing sign, another
    twist tag, a sheared operator (when there are two)."""
    if isinstance(d, OrbitDatum):
        yield OrbitDatum(d.weight, d.pairing.negate(), d.operators, d.hodge_filtration, d.twist_tag)
        yield OrbitDatum(d.weight, d.pairing, d.operators, d.hodge_filtration, d.twist_tag + 1)
        if len(d.operators) > 1:
            yield OrbitDatum(d.weight, d.pairing, shear_operators(d.operators, 1), d.hodge_filtration, d.twist_tag)
        return
    pairings = dict(d.graded_pairings)
    w = max(w for w, p in d.graded_pairings if p.matrix.rows)
    yield make_datum(d.weight_filtration, d.hodge_filtration, d.operators, {**pairings, w: pairings[w].negate()}, d.twist_tag)
    yield with_tag(d, d.twist_tag + 1)
    if len(d.operators) > 1:
        yield make_datum(d.weight_filtration, d.hodge_filtration, shear_operators(d.operators, 1), pairings, d.twist_tag)


def test_dataclass_equality_and_hash_agree_with_canonical_key(mixed_inputs):
    orbits = [(e.name, e.build()) for e in catalog_entries() if e.kind == "orbit"]
    differ = 0
    for name, d in mixed_inputs + orbits:
        key = reference_orbit_key if isinstance(d, OrbitDatum) else reference_hodge_key
        copy = docio.parse(docio.serialize(d))
        assert copy is not d and copy == d and hash(copy) == hash(d), name
        assert key(copy) == key(d), name
        for other in _one_field_variants(d):
            assert (other == d) == (key(other) == key(d)), name
            assert other != d or hash(other) == hash(d), name
            differ += other != d
    # Every flipped sign and twist tag differs, and so do most shears.
    assert differ >= 2 * len(mixed_inputs + orbits)
