"""Differential tests of the monodromy weight filtration.

The reference functions below are the earlier bodies of
``_weight_monodromy_raw``, which lifted each inner step through
``preimage_in`` (an intersection with a preimage), of
``satisfies_monodromy_axioms``, which re-tested through
``_induced_map_on_graded`` that N^j sends W_{c+j} into W_{c-j}, and of
``Matrix.is_nilpotent``, which went through ``nilpotency_degree``.  The
current code must give equal filtrations -- equal fields, so the canonical
bases are part of the test -- the same booleans and the same errors.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from hodgeorbit.catalog import random_invertible, random_nilpotent
from hodgeorbit.datum import matrix_inverse
from hodgeorbit.filtration import Filtration
from hodgeorbit.linalg import (
    Matrix,
    Subspace,
    graded_coordinates,
    image_of_subspace,
    intersect,
    kernel,
    preimage,
    subspace_sum,
)
from hodgeorbit.monodromy import MonodromyFiltration, satisfies_monodromy_axioms, weight_monodromy


# -- the reference bodies ------------------------------------------------------


def reference_nilpotency_degree(m: Matrix) -> int:
    if m.rows == 0:
        return 0
    p, d = m, 1
    while not p.is_zero():
        if d >= m.rows:
            raise ValueError("matrix is not nilpotent")
        p, d = p @ m, d + 1
    return d


def reference_is_nilpotent(m: Matrix) -> bool:
    if m.rows != m.cols:
        return False
    try:
        reference_nilpotency_degree(m)
    except ValueError:
        return False
    return True


def reference_preimage_in(domain: Subspace, mp: Matrix, target: Subspace) -> Subspace:
    return intersect(domain, preimage(mp, target))


def reference_weight_monodromy_raw(n: Matrix) -> list:
    dim = n.rows
    if dim == 0:
        return []
    if n.is_zero():
        return [(0, Subspace.full(dim))]
    k, nk = 1, n
    while not (nxt := nk @ n).is_zero():
        if k == dim:
            raise ValueError("matrix is not nilpotent")
        k, nk = k + 1, nxt
    ker_top = kernel(nk)
    im_bot = image_of_subspace(nk, Subspace.full(dim))
    to_q, sec = graded_coordinates(ker_top, im_bot)
    inner = reference_weight_monodromy_raw(to_q @ n @ sec)
    pairs = [(k, Subspace.full(dim)), (k - 1, ker_top), (-k, im_bot)]
    for j, s in inner:
        if j >= k - 1 or j < -k:
            continue
        pairs.append((j, subspace_sum(im_bot, reference_preimage_in(ker_top, to_q, s))))
    return pairs


def reference_induced_map_on_graded(m: Matrix, filt: Filtration, k_from: int, k_to: int):
    top_from = filt.at(k_from)
    top_to = filt.at(k_to)
    if not top_to.contains_subspace(image_of_subspace(m, top_from)):
        return None
    project, _ = graded_coordinates(top_to, filt.at(k_to - 1))
    _, section = graded_coordinates(top_from, filt.at(k_from - 1))
    return project @ m @ section


def reference_satisfies_monodromy_axioms(n: Matrix, filt: Filtration, center: int = 0) -> bool:
    if not filt.is_shifted_by(n, -2):
        return False
    lo, hi = filt.min_index(), filt.max_index()
    span = max(hi - center, center - lo, 0)
    power = Matrix.identity(n.rows)
    for j in range(1, span + 1):
        power = power @ n
        g_hi = filt.graded_dim(center + j)
        g_lo = filt.graded_dim(center - j)
        if g_hi != g_lo:
            return False
        if g_hi == 0:
            continue
        m = reference_induced_map_on_graded(power, filt, center + j, center - j)
        if m is None or m.rows != m.cols or m.det().is_zero():
            return False
    for k in range(lo, hi + 1):
        if abs(k - center) > span and filt.graded_dim(k) != 0:
            return False
    return True


def reference_weight_monodromy(n: Matrix) -> MonodromyFiltration:
    if n.rows != n.cols:
        raise ValueError("operator must be square")
    if not reference_is_nilpotent(n):
        raise ValueError("operator is not nilpotent")
    filt = Filtration.make(n.rows, True, reference_weight_monodromy_raw(n))
    if not reference_satisfies_monodromy_axioms(n, filt, center=0):
        raise AssertionError("peel-off produced a filtration violating the axioms")
    return MonodromyFiltration(filt, 0)


# -- inputs --------------------------------------------------------------------


def jordan_sum(sizes) -> Matrix:
    return Matrix.block_diag(*(Matrix([[int(c == r + 1) for c in range(k)] for r in range(k)]) for k in sizes))


@st.composite
def nilpotents(draw):
    """A seeded random nilpotent of dimension 0-12, a direct sum of Jordan
    blocks or a zero matrix, each possibly conjugated by a random
    invertible matrix."""
    kind = draw(st.sampled_from(("random", "jordan", "zero")))
    rng = random.Random(draw(st.integers(0, 2**31)))
    if kind == "random":
        n = random_nilpotent(rng, draw(st.integers(0, 12)))
    elif kind == "jordan":
        n = jordan_sum(draw(st.lists(st.integers(1, 4), max_size=4)))
    else:
        dim = draw(st.integers(0, 6))
        n = Matrix.zeros(dim, dim)
    if draw(st.booleans()):
        g = random_invertible(rng, n.rows)
        n = g @ n @ matrix_inverse(g)
    return n, rng


# -- the properties ------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(nilpotents())
def test_weight_monodromy_matches_reference(case):
    n, _ = case
    assert weight_monodromy(n) == reference_weight_monodromy(n)


@settings(max_examples=80, deadline=None)
@given(nilpotents())
def test_monodromy_axioms_match_reference(case):
    """On W(N) itself, centered anywhere; on W(N) shifted off its center;
    on W(N) with every index doubled, which N still lowers by two but whose
    graded maps N^j are not isomorphisms; and on W(N) moved by a random
    invertible matrix, which N in general does not lower."""
    n, rng = case
    w = weight_monodromy(n).filtration
    g = random_invertible(rng, n.rows)
    candidates = [
        (w, 0),
        (w.shift(3), 3),
        (w.shift(1), 0),
        (w.shift(-1), 0),
        (Filtration.make(n.rows, True, [(2 * k, s) for k, s in w.steps]), 0),
        (w.map_image(g), 0),
    ]
    for filt, center in candidates:
        expected = reference_satisfies_monodromy_axioms(n, filt, center)
        assert satisfies_monodromy_axioms(n, filt, center) == expected
    assert satisfies_monodromy_axioms(n, w, 0)


@settings(max_examples=80, deadline=None)
@given(nilpotents(), st.integers(1, 6))
def test_is_nilpotent_matches_reference(case, size):
    n, rng = case
    diagonal = Matrix([[rng.randint(1, 3) if r == c else 0 for c in range(size)] for r in range(size)])
    triangular = random_nilpotent(rng, size) + diagonal  # nonzero eigenvalues
    cycle = Matrix([[0, 1], [1, 0]])
    for m in (n, Matrix.identity(size), cycle, triangular, Matrix.zeros(size, size + 1)):
        assert m.is_nilpotent() == reference_is_nilpotent(m)
    assert n.is_nilpotent()
    assert not triangular.is_nilpotent()


@pytest.mark.parametrize(
    "m, text",
    [
        (Matrix.zeros(2, 3), "operator must be square"),
        (Matrix.identity(1), "operator is not nilpotent"),
        (Matrix.identity(3), "operator is not nilpotent"),
        (Matrix([[0, 1], [1, 0]]), "operator is not nilpotent"),
        (Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]), "operator is not nilpotent"),
    ],
)
def test_weight_monodromy_errors_match_reference(m, text):
    for build in (weight_monodromy, reference_weight_monodromy):
        with pytest.raises(ValueError) as exc:
            build(m)
        assert str(exc.value) == text
