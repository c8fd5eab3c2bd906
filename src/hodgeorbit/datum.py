"""Filtered objects: mixed data, orbit data, pairings, and their functors.

A :class:`HodgeDatum` packages a finite-dimensional Q(i)-space with an
increasing (rational) weight filtration, a decreasing Hodge filtration,
a family of commuting nilpotent rational operators, graded pairings, and a
formal Tate-twist tag.  An :class:`OrbitDatum` is the pure counterpart: a
single weight, one global pairing, and operators N_0..N_n.

Graded pairings are stored in the canonical coordinates of the graded piece
(see :func:`graded_maps`); every construction that moves pairings around does
so by explicit base change, so equality of canonical forms is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .linalg import (
    Matrix,
    Subspace,
    echelonize,
    graded_coordinates,
    image,
    image_of_subspace,
    intersect,
    quotient_projection,
    quotient_section,
)
from .filtration import Filtration, trivial_weight_filtration
from .scalars import GaussScalar, ZERO


def matrix_inverse(m: Matrix) -> Matrix:
    """The inverse, read off the RREF of [m | I]: m is invertible iff the
    left half of that RREF is the identity, and then the right half is the
    inverse."""
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    n = m.rows
    rref = echelonize(m.augment(Matrix.identity(n)))
    if rref.select_cols(range(n)) != Matrix.identity(n):
        raise ValueError("matrix is singular")
    return rref.select_cols(range(n, 2 * n))


# ---------------------------------------------------------------------------
# Pairings


def weight_symmetry(w: int) -> int:
    """The symmetry of a pairing on a piece of weight w: +1 for even w,
    -1 for odd w."""
    return (-1) ** (w % 2)


@dataclass(frozen=True)
class Pairing:
    """A bilinear form u, v -> u^T M v with values in Q * (2 pi i)^twist."""

    matrix: Matrix
    twist: int
    symmetry: int  # +1 or -1

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise ValueError("pairing matrix must be square")
        if self.symmetry not in (1, -1):
            raise ValueError("symmetry must be +1 or -1")
        if not self.matrix.is_rational():
            raise ValueError("pairing matrix must be rational")
        if self.matrix.transpose() != self.matrix.scale(self.symmetry):
            raise ValueError("pairing does not have the declared symmetry")

    def evaluate(self, u, v) -> GaussScalar:
        mv = self.matrix.apply(v)
        s = ZERO
        for a, b in zip(u, mv):
            s = s + GaussScalar.of(a) * b
        return s

    def is_perfect(self) -> bool:
        return echelonize(self.matrix).rows == self.matrix.rows

    def negate(self) -> "Pairing":
        return Pairing(-self.matrix, self.twist, self.symmetry)

    @staticmethod
    def of_weight(matrix: Matrix, w: int) -> "Pairing":
        """The pairing of a piece of weight w: values in Q * (2 pi i)^(-w)."""
        return Pairing(matrix, -w, weight_symmetry(w))

    def transport(self, phi: Matrix) -> "Pairing":
        """The same pairing in new coordinates, phi mapping old coordinates
        to new: M becomes phi^-T M phi^-1."""
        phi_inv = matrix_inverse(phi)
        return Pairing(phi_inv.transpose() @ self.matrix @ phi_inv, self.twist, self.symmetry)


def dual_pairing(p: Pairing) -> Pairing:
    """The induced pairing on the dual space, in dual-basis coordinates."""
    if p.matrix.rows == 0:
        return Pairing(p.matrix, -p.twist, p.symmetry)
    return Pairing(matrix_inverse(p.matrix).transpose(), -p.twist, p.symmetry)


# ---------------------------------------------------------------------------
# Graded coordinates


@dataclass(frozen=True)
class GradedMaps:
    """Canonical coordinates on gr^W_w = W_w / W_{w-1}.

    ``project`` is a (g x n)-matrix valid on W_w, killing W_{w-1};
    ``section`` maps graded coordinates to canonical representatives in W_w.
    """

    weight: int
    dim: int
    project: Matrix
    section: Matrix


def graded_maps(weight_filtration: Filtration, w: int) -> GradedMaps:
    project, section = graded_coordinates(weight_filtration.at(w), weight_filtration.at(w - 1))
    return GradedMaps(w, project.rows, project, section)


# ---------------------------------------------------------------------------
# The mixed datum


@dataclass(frozen=True)
class HodgeDatum:
    weight_filtration: Filtration
    hodge_filtration: Filtration
    operators: tuple
    graded_pairings: tuple  # sorted ((weight, Pairing), ...), possibly partial
    twist_tag: int = 0

    def __post_init__(self):
        n = self.weight_filtration.ambient_dim
        if not self.weight_filtration.increasing:
            raise ValueError("weight filtration must be increasing")
        if self.hodge_filtration.increasing:
            raise ValueError("Hodge filtration must be decreasing")
        if self.hodge_filtration.ambient_dim != n:
            raise ValueError("filtration ambient dimensions differ")
        if not self.weight_filtration.is_rational():
            raise ValueError("weight filtration must be rational")
        for op in self.operators:
            if op.shape != (n, n):
                raise ValueError("operator has wrong shape")
            if not op.is_rational():
                raise ValueError("operators must be rational")
            if not op.is_nilpotent():
                raise ValueError("operator is not nilpotent")
            if not self.weight_filtration.is_shifted_by(op, 0):
                raise ValueError("operator does not preserve the weight filtration")
        for i in range(len(self.operators)):
            for j in range(i + 1, len(self.operators)):
                if self.operators[i] @ self.operators[j] != self.operators[j] @ self.operators[i]:
                    raise ValueError("operators do not commute")
        for w, p in self.graded_pairings:
            g = self.weight_filtration.graded_dim(w)
            if p.matrix.rows != g:
                raise ValueError(f"pairing at weight {w} has wrong size")
            if p.twist != -w:
                raise ValueError(f"pairing at weight {w} must have twist {-w}")
            if p.symmetry != weight_symmetry(w):
                raise ValueError(f"pairing at weight {w} has wrong symmetry")
            if not p.is_perfect():
                raise ValueError(f"pairing at weight {w} is degenerate")

    # -- accessors ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.weight_filtration.ambient_dim

    def weights(self) -> tuple:
        return self.weight_filtration.jumps()

    def pairing(self, w: int):
        for ww, p in self.graded_pairings:
            if ww == w:
                return p
        return None

    def graded(self, w: int) -> GradedMaps:
        return graded_maps(self.weight_filtration, w)


def make_datum(weight_filtration, hodge_filtration, operators, pairings=None, twist_tag=0) -> HodgeDatum:
    items = tuple(sorted((pairings or {}).items()))
    return HodgeDatum(weight_filtration, hodge_filtration, tuple(operators), items, twist_tag)


def with_tag(h: HodgeDatum, twist_tag: int) -> HodgeDatum:
    """Same filtered object with the formal twist tag overridden."""
    return HodgeDatum(h.weight_filtration, h.hodge_filtration, h.operators, h.graded_pairings, twist_tag)


def first_relation_failure(w: int, f: Filtration, s: Matrix):
    """The least degree p at which the first bilinear relation
    ann(F^p) = F^{w+1-p} fails, or None, for a perfect symmetric or
    antisymmetric S.

    ann(F^p) has dimension n - dim F^p, so it equals F^{w+1-p} exactly when
    the dimensions add up to n and S pairs the two spaces to zero: one
    product, no elimination.  Below the jumps of F and their mirrors about
    (w+1)/2, F^p = V and F^{w+1-p} = 0, which holds; and since
    ann(ann X) = X, degree w+1-p fails exactly when degree p does, so the
    degrees above (w+1)/2 need no test either."""
    if not f.steps:
        return None
    n = f.ambient_dim
    for p in range(min(f.min_index(), w + 1 - f.max_index()), (w + 1) // 2 + 1):
        fp, fq = f.at(p), f.at(w + 1 - p)
        if fp.dim + fq.dim != n:
            return p
        if fp.dim and fq.dim and not (fp.basis @ s @ fq.basis.transpose()).is_zero():
            return p
    return None


# ---------------------------------------------------------------------------
# The pure orbit datum


@dataclass(frozen=True)
class OrbitDatum:
    """Candidate pure nilpotent-orbit data (V, w, <,>, N_0..N_n, F)."""

    weight: int
    pairing: Pairing
    operators: tuple
    hodge_filtration: Filtration
    twist_tag: int = 0

    def __post_init__(self):
        n = self.pairing.matrix.rows
        if self.hodge_filtration.increasing or self.hodge_filtration.ambient_dim != n:
            raise ValueError("Hodge filtration malformed")
        if self.pairing.twist != -self.weight:
            raise ValueError("pairing twist must be minus the weight")
        if self.pairing.symmetry != weight_symmetry(self.weight):
            raise ValueError("pairing has wrong symmetry for the weight")
        if not self.pairing.is_perfect():
            raise ValueError("pairing is degenerate")
        s = self.pairing.matrix
        for op in self.operators:
            if op.shape != (n, n) or not op.is_rational():
                raise ValueError("operator malformed")
            if not op.is_nilpotent():
                raise ValueError("operator is not nilpotent")
            if not (op.transpose() @ s + s @ op).is_zero():
                raise ValueError("operator is not infinitesimally isotropic")
        for i in range(len(self.operators)):
            for j in range(i + 1, len(self.operators)):
                if self.operators[i] @ self.operators[j] != self.operators[j] @ self.operators[i]:
                    raise ValueError("operators do not commute")
        p = first_relation_failure(self.weight, self.hodge_filtration, s)
        if p is not None:
            raise ValueError(f"annihilator of F^{p} is not F^{self.weight + 1 - p}")

    @property
    def dim(self) -> int:
        return self.pairing.matrix.rows

    def canonical_key(self) -> "OrbitDatum":
        """A hashable key, equal exactly when the data are: the datum itself,
        since every field is canonical.  The benchmark tracer keys repeated
        ``check_pure_orbit`` calls on it; elsewhere compare data with ``==``."""
        return self


@dataclass(frozen=True)
class PairedDatum:
    """A mixed datum with a global pairing and a distinguished nilpotent
    operator N: H -> H(-1); the data of the correspondence with weight-w
    pure objects over one extra log direction."""

    datum: HodgeDatum
    weight: int
    pairing: Pairing
    log_operator: Matrix

    def __post_init__(self):
        h, w, s, nn = self.datum, self.weight, self.pairing, self.log_operator
        n = h.dim
        if s.matrix.rows != n:
            raise ValueError("global pairing has wrong size")
        if s.twist != -w or s.symmetry != weight_symmetry(w):
            raise ValueError("global pairing has wrong twist or symmetry")
        if not s.is_perfect():
            raise ValueError("global pairing is degenerate")
        if nn.shape != (n, n) or not nn.is_rational() or not nn.is_nilpotent():
            raise ValueError("log operator malformed")
        if not (nn.transpose() @ s.matrix + s.matrix @ nn).is_zero():
            raise ValueError("log operator is not infinitesimally isotropic")
        for op in h.operators:
            if op @ nn != nn @ op:
                raise ValueError("log operator does not commute with the operators")
        if not h.weight_filtration.is_shifted_by(nn, 0):
            raise ValueError("log operator does not preserve the weight filtration")
        # Pairing compatibility with W: <W_a, W_b> = 0 once a + b < 2w.
        for a, sa in h.weight_filtration.steps:
            for b, sb in h.weight_filtration.steps:
                if a + b < 2 * w and sa.dim and sb.dim:
                    if not (sa.basis @ s.matrix @ sb.basis.transpose()).is_zero():
                        raise ValueError("pairing does not respect the weight filtration")
        # Pairing compatibility with F: <F^a, F^b> = 0 once a + b > w;
        # the binding instances can sit between stored jumps, so the whole
        # index range is walked.
        lo_f, hi_f = h.hodge_filtration.min_index() - 1, h.hodge_filtration.max_index()
        for a in range(lo_f, hi_f + 1):
            for b in range(lo_f, hi_f + 1):
                fa, fb = h.hodge_filtration.at(a), h.hodge_filtration.at(b)
                if a + b > w and fa.dim and fb.dim:
                    if not (fa.basis @ s.matrix @ fb.basis.transpose()).is_zero():
                        raise ValueError("pairing does not respect the Hodge filtration")
        # N F^p inside F^{p-1}: N is a morphism into the (-1)-twist.
        if not h.hodge_filtration.is_transverse(nn):
            raise ValueError("log operator violates Griffiths transversality")


# ---------------------------------------------------------------------------
# Morphisms


def morphism_defects(f: Matrix, a: HodgeDatum, b: HodgeDatum) -> list:
    """Reasons why f is not a strict morphism a -> b; empty list if it is."""
    defects = []
    if f.shape != (b.dim, a.dim):
        return [f"shape {f.shape} does not map dim {a.dim} to dim {b.dim}"]
    if a.twist_tag != b.twist_tag:
        defects.append("twist tags differ")
    if len(a.operators) != len(b.operators):
        defects.append("operator counts differ")
    else:
        for j, (na, nb) in enumerate(zip(a.operators, b.operators)):
            if f @ na != nb @ f:
                defects.append(f"does not intertwine operator {j}")
    idx = sorted(set(a.weight_filtration.jumps()) | set(b.weight_filtration.jumps()))
    fa_img = image_of_subspace(f, Subspace.full(a.dim))
    for k in idx:
        img = image_of_subspace(f, a.weight_filtration.at(k))
        if not b.weight_filtration.at(k).contains_subspace(img):
            defects.append(f"does not preserve W_{k}")
        elif img != intersect(fa_img, b.weight_filtration.at(k)):
            defects.append(f"not strict at W_{k}")
    for p in sorted(set(a.hodge_filtration.jumps()) | set(b.hodge_filtration.jumps())):
        img = image_of_subspace(f, a.hodge_filtration.at(p))
        if not b.hodge_filtration.at(p).contains_subspace(img):
            defects.append(f"does not preserve F^{p}")
    return defects


def is_morphism(f: Matrix, a: HodgeDatum, b: HodgeDatum) -> bool:
    return not morphism_defects(f, a, b)


# ---------------------------------------------------------------------------
# Functors


def dual(h: HodgeDatum) -> HodgeDatum:
    """Dual datum: W_k^* = ann W_{-k-1}, F^p^* = ann F^{1-p}, N^* = -N^T."""
    wf, ff = h.weight_filtration.dual(), h.hodge_filtration.dual()
    ops = tuple(-op.transpose() for op in h.operators)
    pairings = {}
    for w, p in h.graded_pairings:
        gm = h.graded(w)
        if gm.dim == 0:
            continue
        # Evaluation matrix between gr_{-w}(h^*) and gr_w(h) canonical bases.
        ev = graded_maps(wf, -w).section.transpose() @ gm.section
        pairings[-w] = dual_pairing(p).transport(ev)
    return make_datum(wf, ff, ops, pairings, -h.twist_tag)


def tate_twist(h: HodgeDatum, r: int) -> HodgeDatum:
    """Tensor with the rank-one twist: weights shift by -2r, F by -r."""
    wf, ff = h.weight_filtration.shift(-2 * r), h.hodge_filtration.shift(-r)
    pairings = {
        w - 2 * r: Pairing(p.matrix, p.twist + 2 * r, p.symmetry)
        for w, p in h.graded_pairings
    }
    return make_datum(wf, ff, h.operators, pairings, h.twist_tag + r)


def tensor(a: HodgeDatum, b: HodgeDatum) -> HodgeDatum:
    """Tensor product with Leibniz operators and multiplicative pairings."""
    if len(a.operators) != len(b.operators):
        raise ValueError("operator counts differ")
    if a.dim == 0 or b.dim == 0:
        return zero_datum(0, len(a.operators), a.twist_tag + b.twist_tag)
    wf = a.weight_filtration.tensor(b.weight_filtration)
    ff = a.hodge_filtration.tensor(b.hodge_filtration)
    ia, ib = Matrix.identity(a.dim), Matrix.identity(b.dim)
    ops = tuple(na.kron(ib) + ia.kron(nb) for na, nb in zip(a.operators, b.operators))
    pairings = {}
    for w in wf.jumps():
        gm = graded_maps(wf, w)
        if gm.dim == 0:
            continue
        sections = []
        blocks = []
        ok = True
        for i in a.weights():
            ga, gb = a.graded(i), b.graded(w - i)
            if ga.dim == 0 or gb.dim == 0:
                continue
            pa, pb = a.pairing(i), b.pairing(w - i)
            if pa is None or pb is None:
                ok = False
                break
            sections.append(ga.section.kron(gb.section))
            blocks.append(pa.matrix.kron(pb.matrix))
        if not ok or sum(s.cols for s in sections) != gm.dim:
            continue  # graded piece not exhausted by paired blocks
        # The basis change gr_i(a) x gr_{w-i}(b) -> gr_w, block by block.
        phi = gm.project @ reduce(Matrix.stack, [s.transpose() for s in sections]).transpose()
        pairings[w] = Pairing.of_weight(Matrix.block_diag(*blocks), w).transport(phi)
    return make_datum(wf, ff, ops, pairings, a.twist_tag + b.twist_tag)


def direct_sum(a: HodgeDatum, b: HodgeDatum) -> HodgeDatum:
    if len(a.operators) != len(b.operators):
        raise ValueError("operator counts differ")
    if a.twist_tag != b.twist_tag:
        raise ValueError("twist tags differ")
    wf = a.weight_filtration.direct_sum(b.weight_filtration)
    ff = a.hodge_filtration.direct_sum(b.hodge_filtration)
    ops = tuple(Matrix.block_diag(na, nb) for na, nb in zip(a.operators, b.operators))
    pairings = {}
    for w in wf.jumps():
        gm = graded_maps(wf, w)
        ga, gb = a.graded(w), b.graded(w)
        pa, pb = a.pairing(w), b.pairing(w)
        if ga.dim and pa is None:
            continue
        if gb.dim and pb is None:
            continue
        if ga.dim + gb.dim != gm.dim:
            continue
        phi = gm.project @ Matrix.block_diag(ga.section, gb.section)
        blocks = [p.matrix for p in (pa, pb) if p is not None]
        pairings[w] = Pairing.of_weight(Matrix.block_diag(*blocks), w).transport(phi)
    return make_datum(wf, ff, ops, pairings, a.twist_tag)


def tate_object(r: int, n_ops: int = 0) -> HodgeDatum:
    """The rank-one twist Q(r): pure of weight -2r, F jumping at -r."""
    wf = trivial_weight_filtration(1, -2 * r)
    ff = Filtration.make(1, False, [(-r, Subspace.full(1)), (-r + 1, Subspace.zero(1))])
    pairing = Pairing(Matrix([[1]]), 2 * r, 1)
    return make_datum(wf, ff, [Matrix.zeros(1, 1)] * n_ops, {-2 * r: pairing}, r)


def zero_datum(dim: int, n_ops: int, twist_tag: int = 0) -> HodgeDatum:
    if dim != 0:
        raise ValueError("zero_datum builds the zero object")
    wf = Filtration.make(0, True, [])
    ff = Filtration.make(0, False, [])
    return make_datum(wf, ff, [Matrix.zeros(0, 0)] * n_ops, {}, twist_tag)


def transported_pairing(wf: Filtration, src: HodgeDatum, w: int, mp: Matrix) -> Pairing:
    """The weight-w pairing of src carried along mp, a map inducing an
    isomorphism of gr_w(src) onto gr_w of the filtration wf."""
    return src.pairing(w).transport(graded_maps(wf, w).project @ mp @ src.graded(w).section)


def _induced(h: HodgeDatum, to: Matrix, section: Matrix, within: Subspace | None = None) -> HodgeDatum:
    """The datum induced on a subquotient of h: W and F restricted to
    ``within`` (the whole space when None) and carried into new coordinates
    by ``to``, each operator moved to ``to @ N @ section`` for a section of
    ``to``, and the pairing of each graded piece that survives transported.
    Sub-objects, quotients and graded pieces are all of this form."""
    wf = h.weight_filtration.map_image(to, within=within)
    ff = h.hodge_filtration.map_image(to, within=within)
    ops = tuple(to @ op @ section for op in h.operators)
    pairings = {w: transported_pairing(wf, h, w, to) for w, _ in h.graded_pairings if wf.graded_dim(w)}
    return make_datum(wf, ff, ops, pairings, h.twist_tag)


def graded_piece(h: HodgeDatum, w: int) -> HodgeDatum:
    """The weight-w graded quotient as a standalone pure datum."""
    gm = h.graded(w)
    if gm.dim == 0:
        return zero_datum(0, len(h.operators), h.twist_tag)
    return _induced(h, gm.project, gm.section, within=h.weight_filtration.at(w))


def sub_truncate(h: HodgeDatum, j: int):
    """The sub-datum W_j(h) in its canonical coordinates.

    Returns (datum, inclusion matrix into h).
    """
    s = h.weight_filtration.at(j)
    incl = s.basis.transpose()
    restrict = Matrix.identity(h.dim).select_rows(s.pivots())
    return _induced(h, restrict, incl, within=s), incl


def quotient_datum(h: HodgeDatum, j: int) -> HodgeDatum:
    """The quotient h / W_j in canonical coordinates."""
    s = h.weight_filtration.at(j)
    return _induced(h, quotient_projection(s), quotient_section(s))


def pushout(f: Matrix, g: Matrix, a: HodgeDatum, b: HodgeDatum, c: HodgeDatum):
    """Pushout (b + c) / {(f x, -g x)} of b <- a -> c along strict morphisms.

    Returns (datum, map_from_b, map_from_c).
    """
    for name, (mp, src, dst) in {
        "f": (f, a, b),
        "g": (g, a, c),
    }.items():
        defects = morphism_defects(mp, src, dst)
        if defects:
            raise ValueError(f"pushout leg {name} is not a strict morphism: {defects}")
    if b.twist_tag != c.twist_tag:
        raise ValueError("pushout legs have different twist tags")
    rel = image(f.stack(-g))
    proj = quotient_projection(rel)
    sec = quotient_section(rel)
    map_b = proj @ Matrix.block_diag(Matrix.identity(b.dim), Matrix.zeros(c.dim, 0))
    map_c = proj @ Matrix.block_diag(Matrix.zeros(b.dim, 0), Matrix.identity(c.dim))
    wf = b.weight_filtration.direct_sum(c.weight_filtration).map_image(proj)
    ff = b.hodge_filtration.direct_sum(c.hodge_filtration).map_image(proj)
    ops = []
    for nb, nc in zip(b.operators, c.operators):
        big = Matrix.block_diag(nb, nc)
        moved = image_of_subspace(big, rel)
        if not rel.contains_subspace(moved):
            raise ValueError("operators do not descend to the pushout")
        ops.append(proj @ big @ sec)
    out = make_datum(wf, ff, ops, {}, b.twist_tag)
    return out, map_b, map_c


def shear_operators(operators, a) -> tuple:
    """Shear (N_0, N_1, ...) by a: (N_0, N_1 + a N_0, ...), the change of
    the log coordinate that mixes the first direction into the others."""
    n0 = operators[0]
    return (n0,) + tuple(op + n0.scale(Fraction(a)) for op in operators[1:])


def sum_operators(h, i: int, j: int):
    """Replace the operator pair (N_i, N_j) by the single sum N_i + N_j."""
    ops = list(h.operators)
    if i == j or not (0 <= i < len(ops)) or not (0 <= j < len(ops)):
        raise ValueError("bad operator indices")
    lo, hi = min(i, j), max(i, j)
    merged = ops[lo] + ops[hi]
    ops = ops[:lo] + [merged] + ops[lo + 1 : hi] + ops[hi + 1 :]
    if isinstance(h, OrbitDatum):
        return OrbitDatum(h.weight, h.pairing, tuple(ops), h.hodge_filtration, h.twist_tag)
    return HodgeDatum(h.weight_filtration, h.hodge_filtration, tuple(ops), h.graded_pairings, h.twist_tag)
