"""Monodromy weight filtrations, absolute and relative to a weight filtration.

The absolute filtration W(N) of a nilpotent N is computed by the classical
peel-off recursion (top layer from ker/im of the highest nonzero power, then
recurse on the subquotient) and verified against its two defining axioms
before being returned.

The relative filtration M(N, W) is computed by peeling the bottom weight
layer A = W_a: writing V as an extension of B = V/A, a filtered lift of the
recursively computed M on B is a single linear unknown phi: B -> A, and the
compatibility of N with the candidate filtration is a linear constraint
system in the entries of phi, read row by row and built from Kronecker
products (see ``Matrix.kron``).  The system is solvable iff the relative
filtration exists; any solution produces it, and the output is verified
against the defining axioms regardless.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .filtration import Filtration
from .linalg import (
    Matrix,
    Subspace,
    graded_coordinates,
    image_of_subspace,
    kernel,
    quotient_projection,
    quotient_section,
    solve,
    subspace_sum,
)


@dataclass(frozen=True)
class MonodromyFiltration:
    filtration: Filtration
    center: int


# ---------------------------------------------------------------------------
# Axiom checks


def satisfies_monodromy_axioms(n: Matrix, filt: Filtration, center: int = 0) -> bool:
    """Direct check of the two axioms: N shifts the filtration by -2 and
    N^j induces isomorphisms gr_{c+j} -> gr_{c-j}."""
    if not filt.is_shifted_by(n, -2):
        return False
    lo, hi = filt.min_index(), filt.max_index()
    span = max(hi - center, center - lo, 0)
    power = Matrix.identity(n.rows)
    for j in range(1, span + 1):
        power = power @ n  # N^j
        g_hi = filt.graded_dim(center + j)
        g_lo = filt.graded_dim(center - j)
        if g_hi != g_lo:
            return False
        if g_hi == 0:
            continue
        # The shift by -2 puts N^j W_{c+j} inside W_{c-j}, so N^j induces
        # a map gr_{c+j} -> gr_{c-j}.
        project, _ = graded_coordinates(filt.at(center - j), filt.at(center - j - 1))
        _, section = graded_coordinates(filt.at(center + j), filt.at(center + j - 1))
        if (project @ power @ section).det().is_zero():
            return False
    # Graded dimensions outside the symmetric range must vanish.
    for k in range(lo, hi + 1):
        if abs(k - center) > span and filt.graded_dim(k) != 0:
            return False
    return True


def satisfies_relative_axioms(n: Matrix, w: Filtration, m: Filtration) -> bool:
    """N M_k inside M_{k-2}, and on every gr^W_w the induced filtration of M
    satisfies the centered monodromy axioms for the induced operator."""
    if not m.is_shifted_by(n, -2):
        return False
    for wt in w.jumps():
        ww = w.at(wt)
        to_gr, sec = graded_coordinates(ww, w.at(wt - 1))
        if to_gr.rows == 0:
            continue
        n_gr = to_gr @ n @ sec
        try:
            induced = m.map_image(to_gr, within=ww)
        except ValueError:
            return False
        if not satisfies_monodromy_axioms(n_gr, induced, center=wt):
            return False
    return True


# ---------------------------------------------------------------------------
# Absolute monodromy filtration


def _weight_monodromy_raw(n: Matrix) -> list:
    """Jump pairs of W(N) centered at 0, by the peel-off recursion."""
    dim = n.rows
    if dim == 0:
        return []
    if n.is_zero():
        return [(0, Subspace.full(dim))]
    k, nk = 1, n  # the highest nonzero power N^k
    while not (nxt := nk @ n).is_zero():
        if k == dim:
            raise ValueError("operator is not nilpotent")
        k, nk = k + 1, nxt
    ker_top = kernel(nk)
    im_bot = image_of_subspace(nk, Subspace.full(dim))
    # Recurse on ker N^k / im N^k with the induced operator.
    to_q, sec = graded_coordinates(ker_top, im_bot)
    n_q = to_q @ n @ sec
    inner = _weight_monodromy_raw(n_q)
    pairs = [(k, Subspace.full(dim)), (k - 1, ker_top), (-k, im_bot)]
    for j, s in inner:
        if j >= k - 1 or j < -k:
            continue
        # sec lands in ker N^k, to_q @ sec = I, and to_q kills exactly
        # im N^k on ker N^k: im N^k + sec(s) is the preimage of s there.
        pairs.append((j, subspace_sum(im_bot, image_of_subspace(sec, s))))
    return pairs


def weight_monodromy(n: Matrix) -> MonodromyFiltration:
    """The unique increasing filtration centered at 0 with N W_k within
    W_{k-2} and N^k : gr_k ~ gr_{-k}; verified against both axioms."""
    if n.rows != n.cols:
        raise ValueError("operator must be square")
    pairs = _weight_monodromy_raw(n)
    filt = Filtration.make(n.rows, True, pairs)
    if not satisfies_monodromy_axioms(n, filt, center=0):
        raise AssertionError("peel-off produced a filtration violating the axioms")
    return MonodromyFiltration(filt, 0)


def shift(m: MonodromyFiltration, w: int) -> Filtration:
    """W(N)[-w]: the value at k of the result is the value at k - w."""
    return m.filtration.shift(w)


# ---------------------------------------------------------------------------
# Relative monodromy filtration


def _relative_pairs(n: Matrix, w: Filtration):
    """Jump pairs of M(N, W) or None when it does not exist."""
    dim = n.rows
    if dim == 0:
        return []
    jumps = w.jumps()
    a = jumps[0]
    if len(jumps) == 1:
        return [(k + a, s) for k, s in _weight_monodromy_raw(n)]
    # Peel the bottom layer A = W_a.
    asub = w.at(a)
    pivots = asub.pivots()
    incl_a = asub.basis.transpose()
    n_a = n.select_rows(pivots) @ incl_a
    m_a_pairs = [(k + a, s) for k, s in _weight_monodromy_raw(n_a)]
    proj = quotient_projection(asub)
    sec = quotient_section(asub)
    n_b = proj @ n @ sec
    w_b = w.map_image(proj)
    m_b_pairs = _relative_pairs(n_b, w_b)
    if m_b_pairs is None:
        return None
    # A is a nonzero step of W, so M^A is a filtration of a nonzero space.
    m_a = Filtration.make(asub.dim, True, m_a_pairs)
    m_b = Filtration.make(proj.rows, True, m_b_pairs)
    # rho measures the failure of the coordinate section to commute with N;
    # it lands in A, and rho_a is rho in A-coordinates.
    rho_a = (n @ sec - sec @ n_b).select_rows(pivots)
    # Solve for phi: B -> A with N_A phi - phi N_B + rho mapping M^B_k into
    # M^A_{k-2} for every k.  With red the projection modulo M^A_{k-2} and
    # phi read row by row, red(N_A phi b - phi N_B b) is the row
    # (red N_A) kron b^T - red kron (N_B b)^T applied to phi.  Between the
    # jumps of M^B the left side is constant and M^A_{k-2} can only grow,
    # so the jumps suffice.
    nb_dim, na_dim = proj.rows, asub.dim
    coeff, rhs = Matrix.zeros(0, na_dim * nb_dim), Matrix.zeros(0, 1)
    for k, mbk in m_b.steps:
        red = quotient_projection(m_a.at(k - 2))
        bk = mbk.basis
        coeff = coeff.stack((red @ n_a).kron(bk) - red.kron(bk @ n_b.transpose()))
        rhs = rhs.stack(-(red @ rho_a @ bk.transpose()).vec())
    sol = solve(coeff, rhs)
    if sol is None:
        return None
    phi = Matrix([sol[r * nb_dim : (r + 1) * nb_dim] for r in range(na_dim)], nb_dim)
    lift = sec + incl_a @ phi  # the filtered section t = s + phi
    pairs = []
    all_k = sorted(set([k for k, _ in m_a_pairs] + [k for k, _ in m_b_pairs]))
    for k in all_k:
        part_a = image_of_subspace(incl_a, m_a.at(k))
        part_b = image_of_subspace(lift, m_b.at(k))
        pairs.append((k, subspace_sum(part_a, part_b)))
    return pairs


def relative_monodromy(n: Matrix, w: Filtration):
    """Deligne's relative monodromy filtration M(N, W), or None.

    Existence can fail; the returned filtration is always verified against
    the two defining properties, and a verification failure is reported as
    non-existence.
    """
    if n.rows != n.cols or n.rows != w.ambient_dim:
        raise ValueError("operator and filtration dimensions differ")
    if not n.is_nilpotent():
        raise ValueError("operator is not nilpotent")
    if not w.is_shifted_by(n, 0):
        raise ValueError("operator does not preserve the weight filtration")
    pairs = _relative_pairs(n, w)
    if pairs is None:
        return None
    filt = Filtration.make(w.ambient_dim, True, pairs)
    if not satisfies_relative_axioms(n, w, filt):
        return None
    return MonodromyFiltration(filt, 0)


# ---------------------------------------------------------------------------
# Admissibility-flavoured reports


@dataclass(frozen=True)
class AdmissibilityReport:
    partial_sums_exist: bool
    sampled_cone_constant: bool
    details: tuple

    @property
    def admissible(self) -> bool:
        return self.partial_sums_exist and self.sampled_cone_constant


# The positive coefficient patterns of the cone spot check, each repeated
# across the operators.
CONE_SAMPLES = ((1,), (2, 3))


def admissibility_report(w: Filtration, operators) -> AdmissibilityReport:
    """Partial-sum relative filtrations exist, plus a spot check that the
    relative filtration is constant across sampled positive combinations.

    The two clauses are reported separately: partial sums follow the order
    given, the cone samples are positive rational coefficient vectors.
    """
    details = []
    ops = list(operators)
    # M(N, W) of each distinct N, once per call: the cone sample (1,) is
    # the last partial sum again.
    memo = {}

    def relative(n):
        if n not in memo:
            memo[n] = relative_monodromy(n, w)
        return memo[n]

    partial_ok = True
    ref = None
    running = None
    for j, op in enumerate(ops):
        running = op if running is None else running + op
        m = relative(running)
        details.append((f"partial_sum_{j + 1}", m is not None))
        if m is None:
            partial_ok = False
        if j == len(ops) - 1 and m is not None:
            ref = m.filtration
    cone_ok = True
    if ops and partial_ok:
        if ref is None:
            cone_ok = False
        else:
            for sample in CONE_SAMPLES:
                coeffs = list(sample) * ((len(ops) + len(sample) - 1) // len(sample))
                m = relative(Matrix.combination([Fraction(c) for c in coeffs], ops))
                same = m is not None and m.filtration == ref
                details.append((f"cone_sample_{sample}", same))
                if not same:
                    cone_ok = False
    return AdmissibilityReport(partial_ok, cone_ok, tuple(details))


@dataclass(frozen=True)
class OperatorSumFacts:
    """Booleans for the iterated-relative-filtration facts used when two
    log directions are merged into one."""

    first_exists: bool
    first_is_mixed_orbit: bool
    iterated_matches_sum: bool
    sum_is_mixed_orbit: bool
    details: tuple

    @property
    def all_pass(self) -> bool:
        return (
            self.first_exists
            and self.first_is_mixed_orbit
            and self.iterated_matches_sum
            and self.sum_is_mixed_orbit
        )
