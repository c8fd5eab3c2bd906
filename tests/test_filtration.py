import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from hodgeorbit import catalog
from hodgeorbit.datum import matrix_inverse
from hodgeorbit.filtration import Filtration, trivial_weight_filtration
from hodgeorbit.linalg import Matrix, Subspace, image_of_subspace, intersect, quotient_projection
from hodgeorbit.scalars import GaussScalar


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


# -- map_image, dual and is_shifted_by against the loops they replace ---------

gauss = st.builds(GaussScalar, st.integers(-2, 2), st.integers(-1, 1))


def gauss_rows(n, rows):
    return st.lists(st.lists(gauss, min_size=n, max_size=n), min_size=rows, max_size=rows)


@st.composite
def adapted_flags(draw, increasing):
    """(filtration, basis, levels): a filtration of Q(i)^n, 1 <= n <= 4,
    with the columns b_j of ``basis`` adapted to it, b_j entering at
    levels[j]: W_k = span{b_j : levels[j] <= k}, or F^p = span{b_j :
    levels[j] >= p} for a decreasing filtration."""
    n = draw(st.integers(1, 4))
    basis = Matrix(draw(gauss_rows(n, n)), n)
    assume(not basis.det().is_zero())
    levels = sorted(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))

    def value(k):
        return Subspace.from_vectors(
            n, [basis.col(j) for j in range(n) if (levels[j] <= k if increasing else levels[j] >= k)]
        )

    pairs = [(k, value(k)) for k in set(levels)] + [(levels[-1] + 1, value(levels[-1] + 1))]
    return Filtration.make(n, increasing, pairs), basis, levels


def _induced_reference(f, m, within):
    """m(at(k) cap within) at every index from one below the first jump to
    one past the last, as satisfies_relative_axioms wrote it out; the loops
    of graded_piece, sub_truncate, quotient_datum and primitive_parts took
    the jumps, with or without a zero step past the last, which gives the
    same filtration."""
    pairs = [
        (k, image_of_subspace(m, intersect(f.at(k), within)))
        for k in range(f.min_index() - 1, f.max_index() + 2)
    ]
    return Filtration.make(m.rows, f.increasing, pairs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_map_image_is_the_induced_filtration_loop(data):
    f, basis, _ = data.draw(adapted_flags(data.draw(st.booleans())))
    n = f.ambient_dim
    u = Subspace.from_vectors(n, data.draw(st.lists(st.lists(gauss, min_size=n, max_size=n), max_size=n)))
    # Coordinates on a sub-object, as sub_truncate takes them; a quotient,
    # as quotient_datum takes it; an invertible map, as an orbit point is.
    restrict = Matrix.identity(n).select_rows(u.pivots())
    assert f.map_image(restrict, within=u) == _induced_reference(f, restrict, u)
    proj = quotient_projection(u)
    assert f.map_image(proj) == _induced_reference(f, proj, Subspace.full(n))
    assert f.map_image(basis) == _induced_reference(f, basis, Subspace.full(n))


def _dual_reference(f):
    """The loops of datum.dual (W and F) and construct.orbit_dual (F)."""
    if f.increasing:
        pairs = [(idx, f.at(-idx - 1).annihilator()) for k in f.jumps() for idx in (-k, -k - 1)]
    else:
        pairs = [(idx, f.at(1 - idx).annihilator()) for p in f.jumps() for idx in (1 - p, 2 - p)]
    return Filtration.make(f.ambient_dim, f.increasing, pairs)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_dual_is_the_annihilator_loop_and_an_involution(data):
    f, _, _ = data.draw(adapted_flags(data.draw(st.booleans())))
    d = f.dual()
    assert d == _dual_reference(f)
    assert d.dual() == f
    c = -1 if f.increasing else 1
    for i in range(c - f.max_index() - 2, c - f.min_index() + 3):
        assert d.at(i) == f.at(c - i).annihilator()


def _shift_reference(w, op, d):
    """op W_k within W_{k+d} at every index, not only at the stored steps
    where the loops of HodgeDatum, PairedDatum, relative_monodromy,
    _unpolarized_mixed_ok (d = 0) and the monodromy axiom checks (d = -2)
    tested it."""
    return all(
        w.at(k + d).contains_subspace(image_of_subspace(op, w.at(k)))
        for k in range(w.min_index() - 1, w.max_index() + 2)
    )


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_is_shifted_by_gives_both_answers_of_the_loop(data):
    w, basis, levels = data.draw(adapted_flags(True))
    n = w.ambient_dim
    d = data.draw(st.sampled_from((0, -2)))
    # b_j goes into the span of the b_i with levels[i] <= levels[j] + d,
    # so op W_k lies in W_{k+d}.
    allowed = [[levels[i] <= levels[j] + d for j in range(n)] for i in range(n)]
    coeffs = [[x if ok else 0 for x, ok in zip(row, oks)] for row, oks in zip(data.draw(gauss_rows(n, n)), allowed)]
    inverse = matrix_inverse(basis)
    good = basis @ Matrix(coeffs, n) @ inverse
    assert w.is_shifted_by(good, d) and _shift_reference(w, good, d)
    # Adding b_j -> b_i for a forbidden pair breaks it at level levels[j].
    forbidden = [(i, j) for i in range(n) for j in range(n) if not allowed[i][j]]
    if forbidden:
        i, j = data.draw(st.sampled_from(forbidden))
        unit = Matrix([[1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)], n)
        bad = good + basis @ unit @ inverse
        assert not w.is_shifted_by(bad, d) and not _shift_reference(w, bad, d)
