"""The ring of the full flag bundle as a computable quotient:
base[x_1..x_n] / (e_i(x) - c_i).

Reduction uses the closed-form basis G_k = sum_i (-1)^i c_i h_{M-i}(x_1..x_k)
with M = n - k + 1, whose leading monomials x_k^(n-k+1) are pairwise coprime;
by Buchberger's first criterion this is already a Groebner basis, so the
irreducible form is the unique normal form.  Normal-form monomials satisfy
a_k <= n - k.  Variables other than x_1..x_n (the y-roots, generators) are
treated as base-ring constants throughout.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from operator import add

from .memo import TermMemo
from .rings import CoefficientRing, SparsePoly, sum_of_products

__all__ = ["FlagRingPresentation", "MAX_X_DEGREE"]

# The largest total x-degree reduce accepts: the work grows like a power of
# the degree (x1^1500 takes about 2 s at n = 2), and past it would run on.
MAX_X_DEGREE = 1500


def _complete_homogeneous(ring, m: int, names: list) -> SparsePoly:
    """h_m(names): sum of all monomials of total degree m."""
    combos = combinations_with_replacement(names, m)
    return SparsePoly(ring, {tuple(Counter(c).items()): 1 for c in combos})


def _order_key(alpha: tuple) -> tuple:
    """Heap entry for an x-exponent vector: larger in the graded order
    with x_n most significant pops first."""
    return (-sum(alpha), tuple(-a for a in reversed(alpha)), alpha)


@dataclass(frozen=True)
class FlagRingPresentation:
    n: int
    base_chern: tuple  # c_1..c_n as SparsePoly over ring
    ring: CoefficientRing
    # x_k^M - G_k per k, as (x-exponents, coefficient) pairs
    _tails: tuple = field(init=False, repr=False, compare=False)
    # normal forms of the x-monomials reduce has met, by exponent vector
    _normal_forms: TermMemo = field(init=False, repr=False, compare=False,
                                    default_factory=TermMemo)

    def __post_init__(self):
        if len(self.base_chern) != self.n:
            raise ValueError(f"need n={self.n} base Chern classes")
        ring = self.ring
        # (-1)^i c_i for i = 0..n
        signed = [(-1) ** i * c for i, c in enumerate(
            (SparsePoly.const(ring, 1),) + tuple(self.base_chern))]
        tails = []
        for k in range(1, self.n + 1):
            M = self.n - k + 1
            names = [f"x{j}" for j in range(1, k + 1)]
            hs = [_complete_homogeneous(ring, M - i, names)
                  for i in range(M + 1)]
            g = sum_of_products(zip(signed, hs), ring)
            tail = SparsePoly.var(ring, f"x{k}", M) - g
            tails.append(tuple(tail.split(self._xs).items()))
        object.__setattr__(self, "_tails", tuple(tails))

    @staticmethod
    def trivial(n: int, ring: CoefficientRing) -> "FlagRingPresentation":
        zeros = tuple(SparsePoly.zero(ring) for _ in range(n))
        return FlagRingPresentation(n, zeros, ring)

    @staticmethod
    def symbolic(n: int, ring: CoefficientRing) -> "FlagRingPresentation":
        cs = tuple(SparsePoly.var(ring, f"c{i}") for i in range(1, n + 1))
        return FlagRingPresentation(n, cs, ring)

    # -- reduction -----------------------------------------------------------

    @property
    def _xs(self) -> tuple:
        return tuple(f"x{k}" for k in range(1, self.n + 1))

    def _normal_form(self, alpha: tuple) -> SparsePoly:
        """The memoised normal form of x^alpha.

        A worklist of x-exponent vectors, each with the (coefficient, tail)
        pairs whose products sum to its coefficient, a polynomial in the
        other variables.  The vector that comes first in the graded order
        with x_n most significant is taken next: one with coefficient zero
        is dropped, a memoised or irreducible one contributes its normal
        form, and a reducible one has its highest reducible power x_k^M
        rewritten as x_k^M - G_k, whose monomials all come later.  So every
        vector is taken once, with all its coefficients gathered.  Besides
        alpha's, only the normal forms of irreducible vectors, which are
        themselves, are memoised."""
        memo = self._normal_forms
        nf = memo.get(alpha)
        if nf is not None:
            return nf
        ring, n = self.ring, self.n
        one = SparsePoly.const(ring, 1)
        work = {alpha: [(one, one)]}
        heap = [_order_key(alpha)]
        out = []
        while heap:
            beta = heapq.heappop(heap)[2]
            coeff = sum_of_products(work.pop(beta), ring)
            if not coeff:
                continue
            nf = memo.get(beta) if beta is not alpha else None
            if nf is None:
                for k in range(n, 0, -1):
                    M = n - k + 1
                    if beta[k - 1] >= M:
                        break
                else:
                    nf = SparsePoly.monomial(ring, self._xs, beta)
                    memo.put(beta, nf)
            if nf is not None:
                out.append((coeff, nf))
                continue
            base = list(beta)
            base[k - 1] -= M
            for delta, tail in self._tails[k - 1]:
                gamma = tuple(map(add, base, delta))
                pairs = work.get(gamma)
                if pairs is None:
                    pairs = work[gamma] = []
                    heapq.heappush(heap, _order_key(gamma))
                pairs.append((coeff, tail))
        nf = sum_of_products(out, ring)
        memo.put(alpha, nf)
        return nf

    def reduce(self, p: SparsePoly) -> SparsePoly:
        """The normal form of p; raises ValueError for a term of x-degree
        above MAX_X_DEGREE."""
        parts = p.split(self._xs)
        degree = max(map(sum, parts), default=0)
        if degree > MAX_X_DEGREE:
            raise ValueError(f"x-degree {degree} exceeds {MAX_X_DEGREE}")
        return sum_of_products([(rest, self._normal_form(alpha))
                                for alpha, rest in parts.items()], p.ring)

    def equal_in_ring(self, p: SparsePoly, q: SparsePoly) -> bool:
        return self.reduce(p - q).is_zero()

    def normal_form_monomials(self) -> list:
        """All x-monomials with a_k <= n - k; there are n! of them."""
        ranges = [range(self.n - k + 1) for k in range(1, self.n + 1)]
        return [tuple((f"x{k}", e) for k, e in enumerate(exps, start=1) if e)
                for exps in product(*ranges)]
