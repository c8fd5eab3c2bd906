import random

import pytest

from hodgeorbit import catalog
from hodgeorbit.filtration import Filtration, trivial_weight_filtration
from hodgeorbit.linalg import Matrix, Subspace, image_of_subspace


def line(ambient, *coords):
    return Subspace.from_vectors(ambient, [coords])


def test_increasing_evaluation_and_jumps():
    w = Filtration.make(2, True, [(-2, line(2, 1, 0)), (0, Subspace.full(2))])
    assert w.at(-3).dim == 0
    assert w.at(-2).dim == 1 and w.at(-1).dim == 1
    assert w.at(0).dim == 2 and w.at(5).dim == 2
    assert w.jumps() == (-2, 0)
    assert w.graded_dim(-2) == 1 and w.graded_dim(-1) == 0


def test_decreasing_evaluation():
    f = Filtration.make(2, False, [(0, Subspace.full(2)), (1, line(2, 1, 0)), (2, Subspace.zero(2))])
    assert f.at(-5).dim == 2
    assert f.at(1).dim == 1
    assert f.at(2).dim == 0 and f.at(9).dim == 0


def test_validation_rejects_non_nested():
    with pytest.raises(ValueError):
        Filtration.make(2, True, [(-1, line(2, 1, 0)), (0, line(2, 0, 1))])


def test_validation_requires_exhaustion():
    with pytest.raises(ValueError):
        Filtration.make(2, True, [(0, line(2, 1, 0))])


def test_redundant_steps_are_normalized_away():
    w = Filtration.make(2, True, [(-5, Subspace.zero(2)), (0, Subspace.full(2)), (3, Subspace.full(2))])
    assert w.jumps() == (0,)


def test_shift_moves_indices():
    w = trivial_weight_filtration(1, 0)
    assert w.shift(3).jumps() == (3,)
    assert w.shift(3).shift(-3) == w


def test_map_image():
    w = Filtration.make(2, True, [(-2, line(2, 1, 0)), (0, Subspace.full(2))])
    swap = Matrix([[0, 1], [1, 0]])
    moved = w.map_image(swap)
    assert moved.at(-2) == line(2, 0, 1)


def _transverse_reference(f, op):
    """The inline loop that every transversality check used to write out."""
    for p in range(f.min_index(), f.max_index() + 2):
        img = image_of_subspace(op, f.at(p))
        if not f.at(p - 1).contains_subspace(img):
            return False
    return True


def test_is_transverse_agrees_with_the_inline_loop_on_the_catalog():
    rng = random.Random(5)
    built = [entry.build() for entry in catalog.catalog_entries() if entry.kind != "raw"]
    # Every operator of every entry and its transpose, against every Hodge
    # filtration of the same dimension and a random rational base change of
    # it, so that both answers occur.
    ops = [op for obj in built for n in obj.operators for op in (n, n.transpose())]
    filtrations = [obj.hodge_filtration for obj in built]
    filtrations += [f.map_image(catalog.random_invertible(rng, f.ambient_dim)) for f in filtrations]
    seen = {True: 0, False: 0}
    for f in filtrations:
        for op in ops:
            if op.rows == f.ambient_dim:
                want = _transverse_reference(f, op)
                assert f.is_transverse(op) == want
                seen[want] += 1
    assert seen[True] and seen[False]


def test_is_transverse_examples():
    n = Matrix([[0, 1], [0, 0]])
    f = Filtration.make(2, False, [(0, Subspace.full(2)), (1, line(2, 1, 0)), (2, Subspace.zero(2))])
    assert f.is_transverse(n)
    assert f.is_transverse(Matrix.zeros(2, 2))
    g = Filtration.make(2, False, [(0, Subspace.full(2)), (1, line(2, 0, 1)), (3, Subspace.zero(2))])
    assert not g.is_transverse(n)  # N F^2 = <e1> is not inside F^1 = <e2>
    assert Filtration.make(0, False, []).is_transverse(Matrix.zeros(0, 0))
