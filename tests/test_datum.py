import random
from fractions import Fraction

import pytest

from hodgeorbit.catalog import gen_kummer, gen_tate, gen_three_weight_mixed, gen_two_weight_mixed
from hodgeorbit.datum import (
    HodgeDatum,
    Pairing,
    direct_sum,
    dual,
    graded_piece,
    is_morphism,
    make_datum,
    pushout,
    sub_truncate,
    sum_operators,
    tate_twist,
    tensor,
    with_tag,
)
from hodgeorbit.filtration import Filtration, trivial_weight_filtration
from hodgeorbit.linalg import Matrix, Subspace
from hodgeorbit.scalars import GaussScalar


def test_datum_validation_rejects_bad_operators():
    wf = trivial_weight_filtration(2, 0)
    ff = Filtration.make(2, False, [(0, Subspace.full(2)), (1, Subspace.zero(2))])
    with pytest.raises(ValueError):
        make_datum(wf, ff, [Matrix.identity(2)], {})  # not nilpotent
    n1 = Matrix([[0, 1], [0, 0]])
    n2 = Matrix([[0, 0], [1, 0]])
    with pytest.raises(ValueError):
        make_datum(wf, ff, [n1, n2], {})  # do not commute


def test_pairing_validation():
    with pytest.raises(ValueError):
        Pairing(Matrix([[0, 1], [1, 0]]), 0, -1)  # wrong symmetry
    p = Pairing(Matrix([[0, 1], [-1, 0]]), -1, -1)
    assert p.is_perfect()


def test_dual_is_involutive_on_canonical_forms():
    for h in (gen_tate(1), gen_kummer(GaussScalar(0, 1)), gen_three_weight_mixed()):
        assert dual(dual(h)) == h


def test_dual_negates_weights():
    h = gen_kummer(GaussScalar(0, 1))
    assert dual(h).weights() == (0, 2)
    assert dual(gen_tate(1)) == gen_tate(-1)


def test_tate_twist_bookkeeping():
    h = gen_kummer(GaussScalar(0, 1))
    assert tate_twist(h, 0) == h
    assert tate_twist(tate_twist(h, 2), -2) == h
    t = tate_twist(gen_tate(0), 1)
    assert t.weights() == (-2,)
    assert t.hodge_filtration.at(-1).dim == 1 and t.hodge_filtration.at(0).dim == 0


def test_tensor_unit_and_dimensions():
    h = gen_kummer(GaussScalar(0, 1), n_ops=0)
    unit = gen_tate(0)
    t = tensor(unit, h)
    assert t.dim == h.dim
    assert t.weights() == h.weights()
    a = gen_two_weight_mixed()
    b = gen_tate(1)
    assert tensor(a, b).dim == a.dim * b.dim
    assert set(tensor(a, b).weights()) == {wa + wb for wa in a.weights() for wb in b.weights()}


def test_tensor_associative_on_canonical_forms():
    a = gen_tate(1)
    b = tate_twist(gen_tate(0), -1)
    c = gen_two_weight_mixed()
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left == right


def test_direct_sum_blocks():
    a = gen_tate(0)
    b = with_tag(gen_tate(1), 0)
    s = direct_sum(a, b)
    assert s.dim == 2
    assert s.weights() == (-2, 0)
    assert s.weight_filtration.graded_dim(0) == 1


def test_graded_piece_examples():
    h = gen_kummer(GaussScalar(0, 1))
    bottom = graded_piece(h, -2)
    assert bottom.dim == 1 and bottom.weights() == (-2,)
    # Kummer at -2 is the rank-one twist on the nose.
    assert bottom == gen_tate(1, n_ops=1)
    assert graded_piece(h, -1).dim == 0
    top = graded_piece(h, 0)
    assert top.weights() == (0,) and top.dim == 1
    pure = gen_tate(1)
    assert graded_piece(pure, -2) == pure


def test_sub_truncate_and_morphism():
    h = gen_three_weight_mixed()
    low, incl = sub_truncate(h, -1)
    assert low.weights() == (-2, -1)
    assert is_morphism(incl, low, h)


def test_pushout_identity_legs():
    a = gen_tate(1)
    out, mb, mc = pushout(Matrix.identity(1), Matrix.identity(1), a, a, a)
    assert out.dim == 1
    assert (mb - mc).is_zero()


def test_pushout_requires_morphisms():
    a, b = gen_tate(1), gen_tate(0)
    with pytest.raises(ValueError):
        pushout(Matrix.identity(1), Matrix.identity(1), a, a, b)


def test_pushout_commutes_on_the_square():
    # glue two copies of a rank-one object along itself scaled by 2
    a = gen_tate(1)
    f = Matrix([[1]])
    g = Matrix([[2]])
    out, mb, mc = pushout(f, g, a, a, a)
    assert out.dim == 1
    assert mb @ f == mc @ g


def test_sum_operators():
    h = gen_kummer(GaussScalar(0, 1), n_ops=2)
    merged = sum_operators(h, 0, 1)
    assert len(merged.operators) == 1
    assert merged.operators[0] == h.operators[0] + h.operators[1]
    with pytest.raises(ValueError):
        sum_operators(h, 0, 0)
    zero_extra = sum_operators(h, 0, 1)
    assert zero_extra.dim == h.dim


def test_dual_and_twist_commute():
    h = gen_kummer(GaussScalar(0, 1))
    a = dual(tate_twist(h, 1))
    b = tate_twist(dual(h), -1)
    assert a == b


def test_trace_is_a_morphism_into_the_unit():
    from hodgeorbit.catalog import _elliptic_pure_datum
    from hodgeorbit.scalars import ONE, ZERO

    a = _elliptic_pure_datum(0)
    t = tensor(dual(a), a)
    n = a.dim
    trace = Matrix.from_rows([[ONE if i == j else ZERO for i in range(n) for j in range(n)]], n * n)
    unit = gen_tate(0)
    assert is_morphism(trace, t, unit)


def test_direct_sum_with_zero_datum():
    from hodgeorbit.datum import zero_datum

    a = gen_tate(1)
    z = zero_datum(0, 0, a.twist_tag)
    assert direct_sum(a, z) == a


def test_trace_pushout_dimension_count():
    # dim P = dim(B*(1) x H) - dim(B*(1) x B) + 1 for the trace pushout
    from hodgeorbit.catalog import gen_two_weight_mixed
    from hodgeorbit.datum import graded_maps
    from hodgeorbit.scalars import ONE, ZERO

    h = gen_two_weight_mixed()
    b = graded_piece(h, -1)
    gm_b = graded_maps(h.weight_filtration, -1)
    bt = tate_twist(dual(b), 1)
    tbh = tensor(bt, h)
    tbb = tensor(bt, b)
    incl = Matrix.identity(b.dim).kron(gm_b.section)
    unit = tate_twist(gen_tate(0), 1)
    trace = Matrix.from_rows(
        [[ONE if i == j else ZERO for i in range(b.dim) for j in range(b.dim)]], b.dim * b.dim
    )
    p, _, _ = pushout(incl, trace, tbb, tbh, unit)
    assert p.dim == tbh.dim - tbb.dim + 1
    assert p.weights() == (-2, -1)
