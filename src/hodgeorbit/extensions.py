"""Extension classes of the unit object by negative-weight data.

An extension 0 -> Q -> E -> Q(0)-unit -> 0 with the weights of Q at most -1
is classified (in the Hodge direction) by the difference of an F-preserving
section and a rational section of the quotient, a vector in Q_C taken modulo
F^0 Q_C + Q_Q.  Representatives are normalized by exact reduction modulo the
canonical echelon basis of that real-rational subspace, which makes class
equality decidable.

The monodromy direction of an extension over a log point is the tuple of
rational vectors N_j(e) for a rational lift e of the unit; it is handled by
the builders below rather than stored in the class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datum import HodgeDatum, make_datum, sub_truncate, tate_object
from .linalg import Matrix, Subspace, echelonize, solve
from .scalars import GaussScalar, ONE, ZERO


@dataclass(frozen=True)
class ExtensionClass:
    """A normalized representative in Q-coordinates, modulo F^0 + Q_Q."""

    dim: int
    representative: tuple

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.representative)


def _realify(vec) -> tuple:
    re = [GaussScalar.of(x.re) for x in vec]
    im = [GaussScalar.of(x.im) for x in vec]
    return tuple(re + im)


def _unrealify(vec) -> tuple:
    n = len(vec) // 2
    return tuple(GaussScalar(vec[t].re, vec[n + t].re) for t in range(n))


def _carlson_lattice(q: HodgeDatum) -> Subspace:
    """F^0 Q_C + Q_Q as a rational subspace of the realified coordinates."""
    n = q.dim
    gens = []
    f0 = q.hodge_filtration.at(0)
    for row in f0.basis.entries:
        gens.append(_realify(row))
        gens.append(_realify(tuple(GaussScalar(0, 1) * x for x in row)))
    for t in range(n):
        e = [ZERO] * n
        e[t] = ONE
        gens.append(_realify(e))
    return Subspace.from_vectors(2 * n, gens)


def normalize_class(q: HodgeDatum, vec) -> ExtensionClass:
    """The canonical representative of vec modulo F^0 Q_C + Q_Q."""
    if max(q.weights(), default=-1) > -1:
        raise ValueError("extension classes need weights at most -1")
    lattice = _carlson_lattice(q)
    reduced = lattice.reduce(_realify([GaussScalar.of(x) for x in vec]))
    return ExtensionClass(q.dim, _unrealify(reduced))


def class_sum(q: HodgeDatum, a: ExtensionClass, b: ExtensionClass) -> ExtensionClass:
    """Baer sum on normalized representatives."""
    if a.dim != b.dim:
        raise ValueError("classes live over different spaces")
    return normalize_class(q, tuple(x + y for x, y in zip(a.representative, b.representative)))


def class_negate(q: HodgeDatum, a: ExtensionClass) -> ExtensionClass:
    return normalize_class(q, tuple(-x for x in a.representative))


def _unit_covector(e: HodgeDatum):
    ann = e.weight_filtration.at(-1).annihilator()
    if ann.dim != 1:
        raise ValueError("quotient by W_{-1} is not one-dimensional")
    cov = ann.basis.row(0)
    if any(x.im != 0 for x in cov):
        raise ValueError("unit covector is not rational")
    return cov


def carlson_class(e: HodgeDatum, unit_covector=None) -> ExtensionClass:
    """The class of 0 -> W_{-1}E -> E -> unit -> 0 over the sub-datum.

    ``unit_covector`` fixes the identification of the quotient with the unit
    object (a rational functional vanishing on W_{-1}E); by default the
    canonical echelon generator of the annihilator is used.
    """
    if e.weight_filtration.max_index() != 0 or e.weight_filtration.graded_dim(0) != 1:
        raise ValueError("not an extension of the unit object")
    cov = tuple(GaussScalar.of(x) for x in (unit_covector if unit_covector is not None else _unit_covector(e)))
    wlow = e.weight_filtration.at(-1)
    for row in wlow.basis.entries:
        if sum((c * x for c, x in zip(cov, row)), ZERO):
            raise ValueError("unit covector does not kill W_{-1}")
    rep, _ = unit_section_difference(
        e.hodge_filtration.at(0), cov, "no F-preserving section: the Hodge filtration misses the unit"
    )
    sub, _ = sub_truncate(e, -1)
    return normalize_class(sub, wlow.coords_of(rep))


def unit_section_difference(f0: Subspace, cov, missing: str) -> tuple:
    """The Hodge representative of an extension of the unit whose quotient
    map is the functional ``cov``: (s_F - s_Q, s_Q), where s_F is the
    canonical vector of F^0 with cov(s_F) = 1 and s_Q the canonical rational
    solution of re(cov)(s_Q) = 1.  Raises ValueError(missing) when F^0 has
    no such vector."""
    coeffs = [sum((c * x for c, x in zip(cov, row)), ZERO) for row in f0.basis.entries]
    sol = solve(Matrix([coeffs]) if coeffs else Matrix.zeros(1, 0), [ONE])
    if sol is None:
        raise ValueError(missing)
    s_f = [ZERO] * f0.ambient
    for c, row in zip(sol, f0.basis.entries):
        s_f = [x + c * y for x, y in zip(s_f, row)]
    s_q = solve(Matrix([[x.re for x in cov]]), [ONE])
    if s_q is None:
        raise ValueError("unit covector vanishes identically")
    return tuple(a - GaussScalar.of(b) for a, b in zip(s_f, s_q)), s_q


def push_class(c: ExtensionClass, surj: Matrix, target: HodgeDatum) -> ExtensionClass:
    """Image of a class under a surjection of coefficient data."""
    if surj.cols != c.dim:
        raise ValueError("surjection shape mismatch")
    return normalize_class(target, surj.apply(c.representative))


def lift_class(c: ExtensionClass, surj: Matrix, source: HodgeDatum, target: HodgeDatum) -> ExtensionClass:
    """A class over ``source`` pushing forward to c along ``surj``.

    The representative is the canonical echelon preimage of the normalized
    representative, so lifts are reproducible.
    """
    if max(source.weights(), default=-1) > -1:
        raise ValueError("lift target must have weights at most -1")
    if echelonize(surj).rows != target.dim:
        raise ValueError("map is not surjective on complexifications")
    pre = solve(surj, c.representative)
    if pre is None:
        raise ValueError("representative has no preimage")
    return normalize_class(source, pre)


def build_unit_extension(q: HodgeDatum, rep, monodromy_parts=None) -> HodgeDatum:
    """The extension datum of the unit object by q with Hodge representative
    ``rep`` (a vector in q-coordinates) and rational monodromy parts N_j(e).

    The new rational coordinate e sits last; F^0 picks up rep + e.
    """
    n = q.dim
    if max(q.weights(), default=-1) > -1:
        raise ValueError("extension base must have weights at most -1")
    rep = tuple(GaussScalar.of(x) for x in rep)
    parts = monodromy_parts if monodromy_parts is not None else [[0] * n for _ in q.operators]
    if len(parts) != len(q.operators):
        raise ValueError("one monodromy part per operator required")
    unit = tate_object(0)
    wf = q.weight_filtration.direct_sum(unit.weight_filtration)
    # F is that of q + unit, moved by the automorphism fixing q and sending
    # the unit vector e to rep + e.
    move = Matrix([list(row) + [r] for row, r in zip(Matrix.identity(n).entries, rep)] + [[0] * n + [1]])
    ff = q.hodge_filtration.direct_sum(unit.hodge_filtration).map_image(move)
    ops = []
    for op, part in zip(q.operators, parts):
        rows = [list(row) + [GaussScalar.of(part[i])] for i, row in enumerate(op.entries)]
        rows.append([ZERO] * (n + 1))
        ops.append(Matrix.from_rows(rows, n + 1))
    pairings = dict(q.graded_pairings)
    pairings[0] = unit.pairing(0)
    return make_datum(wf, ff, ops, pairings, q.twist_tag)

