"""The ring of the full flag bundle as a computable quotient:
base[x_1..x_n] / (e_i(x) - c_i).

Reduction uses the closed-form basis G_k = sum_i (-1)^i c_i h_{M-i}(x_1..x_k)
with M = n - k + 1, whose leading monomials x_k^(n-k+1) are pairwise coprime;
by Buchberger's first criterion this is already a Groebner basis, so the
irreducible form is the unique normal form.  Normal-form monomials satisfy
a_k <= n - k.  Variables other than x_1..x_n (the y-roots, generators) are
treated as base-ring constants throughout.

G_k is monic in x_k: G_k = x_k^M - tail_k, where tail_k involves only
x_1..x_k and has x_k-degree below M.  So reduce eliminates x_n, ..., x_1 in
turn, keeping the remainder of rings.divide_monic by G_k, in which each
x_k^a with a >= M has become x_k^(a-M) tail_k.  A later step never brings
back an x_j with j >= k, so the result has a_k <= n - k for every k.
"""

from __future__ import annotations

from .rings import (CoefficientRing, RingMismatchError, SparsePoly,
                    divide_monic, sum_of_products)

__all__ = ["FlagRingPresentation", "MAX_X_DEGREE"]

# The largest total x-degree reduce accepts: the work grows like a power of
# the degree (x1^1500 takes about 0.5 s at n = 2), and past it would run on.
MAX_X_DEGREE = 1500


class FlagRingPresentation:
    __slots__ = ("n", "base_chern", "ring", "_tails")

    def __init__(self, n: int, base_chern: tuple, ring: CoefficientRing):
        """base_chern is c_1..c_n as SparsePoly over ring."""
        if len(base_chern) != n:
            raise ValueError(f"need n={n} base Chern classes")
        self.n, self.base_chern, self.ring = n, base_chern, ring
        # (-1)^i c_i for i = 0..n
        signed = [(-1) ** i * c for i, c in enumerate(
            (SparsePoly.const(ring, 1),) + tuple(base_chern))]
        # hs[m] = h_m(x_1..x_k), extended to x_k by the recursion
        # h_m(.., x_k) = h_m(..) + x_k h_(m-1)(.., x_k); G_k needs m <= M
        hs = [SparsePoly.const(ring, 1)] + [SparsePoly.zero(ring)] * n
        tails = []
        for k in range(1, n + 1):
            M = n - k + 1
            x = SparsePoly.var(ring, f"x{k}")
            for m in range(1, M + 1):
                hs[m] = hs[m] + x * hs[m - 1]
            g = sum_of_products(list(zip(signed, hs[M::-1])), ring)
            tail = SparsePoly.var(ring, f"x{k}", M) - g
            tails.append(tuple((j, t) for (j,), t in
                               tail.split((f"x{k}",)).items()))
        # tail_k = x_k^M - G_k per k, as (j, T_j) pairs: tail_k = sum T_j x_k^j
        self._tails = tuple(tails)

    @staticmethod
    def trivial(n: int, ring: CoefficientRing) -> "FlagRingPresentation":
        zeros = tuple(SparsePoly.zero(ring) for _ in range(n))
        return FlagRingPresentation(n, zeros, ring)

    @staticmethod
    def symbolic(n: int, ring: CoefficientRing) -> "FlagRingPresentation":
        cs = tuple(SparsePoly.var(ring, f"c{i}") for i in range(1, n + 1))
        return FlagRingPresentation(n, cs, ring)

    # -- reduction -----------------------------------------------------------

    def reduce(self, p: SparsePoly) -> SparsePoly:
        """The normal form of p.  Raises RingMismatchError for p over
        another ring, ValueError for x-degree above MAX_X_DEGREE."""
        if p.ring != self.ring:
            raise RingMismatchError(f"{p.ring.kind} vs {self.ring.kind}")
        if p.degree() > MAX_X_DEGREE:    # a bound on the x-degree
            xs = [f"x{k}" for k in range(1, self.n + 1)]
            degree = max(map(sum, p.split(xs)), default=0)
            if degree > MAX_X_DEGREE:
                raise ValueError(f"x-degree {degree} exceeds {MAX_X_DEGREE}")
        for k in range(self.n, 0, -1):
            _, p = divide_monic(p, f"x{k}", self.n - k + 1, self._tails[k - 1])
        return p

    def equal_in_ring(self, p: SparsePoly, q: SparsePoly) -> bool:
        return self.reduce(p - q).is_zero()
