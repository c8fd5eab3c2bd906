"""Finite filtrations of Q(i)^n by nested subspaces.

An increasing filtration W stores the indices where its value jumps up; below
the first jump it is zero and it must reach the full space.  A decreasing
filtration F stores the indices where its value drops; below the first stored
index it is the full space and it must reach zero.  Both evaluations are
constant between stored indices, so a filtration is a finite object with a
decidable equality given by the canonical echelon bases of its steps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, Subspace, image_of_subspace, intersect, subspace_sum


@dataclass(frozen=True)
class Filtration:
    ambient_dim: int
    increasing: bool
    steps: tuple  # ((index, Subspace), ...) sorted, duplicates removed

    @staticmethod
    def make(ambient_dim: int, increasing: bool, pairs) -> "Filtration":
        pairs = sorted(pairs, key=lambda kv: kv[0])
        norm = []
        prev = Subspace.zero(ambient_dim) if increasing else Subspace.full(ambient_dim)
        for k, s in pairs:
            if s.ambient != ambient_dim:
                raise ValueError("filtration step in wrong ambient space")
            if s == prev:
                continue
            norm.append((k, s))
            prev = s
        filt = Filtration(ambient_dim, increasing, tuple(norm))
        filt._validate()
        return filt

    def _validate(self):
        default = Subspace.zero(self.ambient_dim) if self.increasing else Subspace.full(self.ambient_dim)
        prev = default
        for _, s in self.steps:
            if self.increasing:
                if not (s.contains_subspace(prev) and s.dim > prev.dim):
                    raise ValueError("increasing filtration is not strictly nested")
            else:
                if not (prev.contains_subspace(s) and s.dim < prev.dim):
                    raise ValueError("decreasing filtration is not strictly nested")
            prev = s
        top_dim = prev.dim
        want = self.ambient_dim if self.increasing else 0
        if top_dim != want:
            kind = "full space" if self.increasing else "zero"
            raise ValueError(f"filtration never reaches the {kind}")

    # -- evaluation ----------------------------------------------------

    def at(self, k: int) -> Subspace:
        value = Subspace.zero(self.ambient_dim) if self.increasing else Subspace.full(self.ambient_dim)
        for idx, s in self.steps:
            if idx <= k:
                value = s
            else:
                break
        return value

    def jumps(self) -> tuple:
        return tuple(k for k, _ in self.steps)

    def min_index(self) -> int:
        return self.steps[0][0] if self.steps else 0

    def max_index(self) -> int:
        return self.steps[-1][0] if self.steps else 0

    def graded_dim(self, k: int) -> int:
        if self.increasing:
            return self.at(k).dim - self.at(k - 1).dim
        return self.at(k).dim - self.at(k + 1).dim

    # -- transforms ----------------------------------------------------

    def shift(self, d: int) -> "Filtration":
        """Index shift: value at k of the result is the value at k - d."""
        return Filtration(self.ambient_dim, self.increasing, tuple((k + d, s) for k, s in self.steps))

    def map_image(self, m: Matrix, within: Subspace | None = None) -> "Filtration":
        """Image filtration under a linear map: the value at k is
        m(at(k)), or m(at(k) cap within), the filtration induced on a
        subspace and carried into its coordinates, when ``within`` is given
        (sub-objects, quotients, graded pieces, isomorphisms).  m is to map
        ``within``, or the whole space, onto its target: only the stored
        steps are mapped, and below them a decreasing result is the full
        target.  Once a value is the full target (increasing) or zero
        (decreasing), so are the later ones, which are not computed."""
        end = m.rows if self.increasing else 0
        pairs = []
        for k, s in self.steps:
            value = image_of_subspace(m, s if within is None else intersect(s, within))
            pairs.append((k, value))
            if value.dim == end:
                break
        return Filtration.make(m.rows, self.increasing, pairs)

    def dual(self) -> "Filtration":
        """The filtration of annihilators on the dual space: the value at i is
        ann(at(c - i)), with c = -1 for an increasing filtration and c = 1
        for a decreasing one.  It changes where at(c - i) does, so the
        indices on both sides of each jump suffice."""
        c = -1 if self.increasing else 1
        pairs = [(i, self.at(c - i).annihilator()) for k in self.jumps() for i in (c - k, c - k + 1)]
        return Filtration.make(self.ambient_dim, self.increasing, pairs)

    def direct_sum(self, other: "Filtration") -> "Filtration":
        """The filtration of the direct sum, this space first: the value at k
        is at(k) + other.at(k), which changes only at the jumps of the two.
        The block sum of two RREF bases is the RREF basis of the sum."""
        n = self.ambient_dim + other.ambient_dim
        ks = sorted(set(self.jumps()) | set(other.jumps()))
        blocks = [(k, Subspace(n, Matrix.block_diag(self.at(k).basis, other.at(k).basis))) for k in ks]
        return Filtration.make(n, self.increasing, blocks)

    def tensor(self, other: "Filtration") -> "Filtration":
        """The filtration of the tensor product in Kronecker coordinates: the
        value at k is the sum over i of at(i) x other.at(k - i).  The
        distinct terms have i from the first jump to the last, one lower for
        a decreasing filtration (where at(i) is still the whole space), and
        the values change only for k in the matching range.  The Kronecker
        product of two RREF bases is the RREF basis of the product."""
        n = self.ambient_dim * other.ambient_dim
        below = 0 if self.increasing else 1
        lo, hi = self.min_index() - below, self.max_index()
        pairs = []
        for k in range(lo + other.min_index() - below, hi + other.max_index() + 1):
            total = Subspace.zero(n)
            for i in range(lo, hi + 1):
                total = subspace_sum(total, Subspace(n, self.at(i).basis.kron(other.at(k - i).basis)))
            pairs.append((k, total))
        return Filtration.make(n, self.increasing, pairs)

    def is_shifted_by(self, op: Matrix, d: int) -> bool:
        """op W_k within W_{k+d} for every k, for an increasing filtration:
        d = 0 says that op preserves it, d = -2 that op lowers it by two as a
        monodromy operator does.  Between the stored steps the left side is
        constant and the right side can only grow, so the steps suffice."""
        return all(self.at(k + d).contains_subspace(image_of_subspace(op, s)) for k, s in self.steps)

    def is_transverse(self, op: Matrix) -> bool:
        """Griffiths transversality op F^p within F^{p-1}, for a decreasing
        filtration.  The distinct instances sit at the jumps and one degree
        above them, where the right side shrinks."""
        return all(
            self.at(p - 1).contains_subspace(image_of_subspace(op, self.at(p)))
            for p in range(self.min_index(), self.max_index() + 2)
        )

    def is_rational(self) -> bool:
        return all(s.is_rational() for _, s in self.steps)

    def __repr__(self):
        kind = "W" if self.increasing else "F"
        body = ", ".join(f"{k}:{s.dim}" for k, s in self.steps)
        return f"{kind}[{body}] on dim {self.ambient_dim}"


def trivial_weight_filtration(ambient_dim: int, weight: int) -> Filtration:
    """Increasing filtration concentrated at a single weight."""
    return Filtration.make(ambient_dim, True, [(weight, Subspace.full(ambient_dim))])

