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
from dataclasses import dataclass, field

from .rings import (
    CoefficientRing, SparsePoly, _FIELD, _check_guard, _clean, _slot)

__all__ = ["FlagRingPresentation", "MAX_X_DEGREE"]

# The largest total x-degree reduce accepts: the work grows like a power of
# the degree (x1^1500 takes about 2 s at n = 2), and past it would run on.
MAX_X_DEGREE = 1500


def _complete_homogeneous(ring, m: int, names: list) -> SparsePoly:
    """h_m(names): sum of all monomials of total degree m."""
    if m == 0:
        return SparsePoly.const(ring, 1)
    polys = [SparsePoly.var(ring, v) for v in names]
    # h_m over k variables via the recursion on the last variable
    table = [SparsePoly.const(ring, 1)] + [SparsePoly.zero(ring)] * m
    for v in polys:
        for d in range(1, m + 1):
            table[d] = table[d] + v * table[d - 1]
    return table[m]


def _order_key(alpha: tuple) -> tuple:
    """Heap entry for an x-exponent vector: larger in the graded order
    with x_n most significant pops first."""
    return (-sum(alpha), tuple(-a for a in reversed(alpha)), alpha)


@dataclass(frozen=True)
class FlagRingPresentation:
    n: int
    base_chern: tuple  # c_1..c_n as SparsePoly over ring
    ring: CoefficientRing
    # x_k^M - G_k per k, as (x-exponents, other monomial, coefficient)
    _tails: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.base_chern) != self.n:
            raise ValueError(f"need n={self.n} base Chern classes")
        object.__setattr__(self, "_slots", tuple(
            _slot(f"x{k}") for k in range(1, self.n + 1)))
        tails = []
        for k in range(1, self.n + 1):
            M = self.n - k + 1
            names = [f"x{j}" for j in range(1, k + 1)]
            g = _complete_homogeneous(self.ring, M, names)
            sign = -1
            for i in range(1, M + 1):
                g = g + sign * self.base_chern[i - 1] * \
                    _complete_homogeneous(self.ring, M - i, names)
                sign = -sign
            tail = SparsePoly.var(self.ring, f"x{k}", M) - g
            tails.append(tuple(self._split(m) + (c,)
                               for m, c in tail._terms.items()))
        object.__setattr__(self, "_tails", tuple(tails))
        object.__setattr__(self, "_nf_cache", {})

    @staticmethod
    def trivial(n: int, ring: CoefficientRing) -> "FlagRingPresentation":
        zeros = tuple(SparsePoly.zero(ring) for _ in range(n))
        return FlagRingPresentation(n, zeros, ring)

    @staticmethod
    def symbolic(n: int, ring: CoefficientRing) -> "FlagRingPresentation":
        cs = tuple(SparsePoly.var(ring, f"c{i}") for i in range(1, n + 1))
        return FlagRingPresentation(n, cs, ring)

    # -- reduction -----------------------------------------------------------

    def _split(self, m: int) -> tuple:
        """(exponents of x_1..x_n, the packed monomial in every other
        variable)."""
        exps = tuple(m >> shift & _FIELD for shift, _ in self._slots)
        return exps, m - self._x_key(exps)

    def _x_key(self, exps: tuple) -> int:
        return sum(e * unit for e, (_, unit) in zip(exps, self._slots))

    def _normal_form_of_exponents(self, alpha: tuple) -> dict:
        """Memoised normal form of x^alpha, as a map monomial -> coefficient.

        A worklist of x-exponent vectors, each with its coefficients (maps
        from monomials in the other variables).  The vector that comes first
        in the graded order with x_n most significant is taken next: a
        memoised one is expanded, a reducible one has its highest reducible
        power x_k^M rewritten as x_k^M - G_k, whose monomials all come
        later.  So every vector is taken once, with all its coefficients
        gathered, and no normal form other than alpha's is kept."""
        cached = self._nf_cache.get(alpha)
        if cached is not None:
            return cached
        work = {alpha: {0: 1}}
        heap = [_order_key(alpha)]
        out: dict = {}
        while heap:
            beta = heapq.heappop(heap)[2]
            coeffs = work.pop(beta)
            _check_guard(coeffs)
            nf = self._nf_cache.get(beta)
            if nf is None:
                for k in range(self.n, 0, -1):
                    M = self.n - k + 1
                    if beta[k - 1] >= M:
                        break
                else:
                    nf = {self._x_key(beta): 1}
            if nf is not None:
                for rest, c in coeffs.items():
                    for m2, c2 in nf.items():
                        m = m2 + rest
                        out[m] = out.get(m, 0) + c * c2
                continue
            base = list(beta)
            base[k - 1] -= M
            for delta, t_rest, t_c in self._tails[k - 1]:
                gamma = tuple(a + d for a, d in zip(base, delta))
                target = work.get(gamma)
                if target is None:
                    target = work[gamma] = {}
                    heapq.heappush(heap, _order_key(gamma))
                for rest, c in coeffs.items():
                    m = rest + t_rest
                    target[m] = target.get(m, 0) + c * t_c
        out = {m: c for m, c in out.items() if c}
        _check_guard(out)
        self._nf_cache[alpha] = out
        return out

    def reduce(self, p: SparsePoly) -> SparsePoly:
        """The normal form of p; raises ValueError for a term of x-degree
        above MAX_X_DEGREE."""
        split = [self._split(m) + (c,) for m, c in p._terms.items()]
        degree = max((sum(alpha) for alpha, _, _ in split), default=0)
        if degree > MAX_X_DEGREE:
            raise ValueError(f"x-degree {degree} exceeds {MAX_X_DEGREE}")
        acc: dict = {}
        for alpha, rest, c in split:
            for m2, c2 in self._normal_form_of_exponents(alpha).items():
                m = m2 + rest
                acc[m] = acc.get(m, 0) + c * c2
        _check_guard(acc)
        return SparsePoly._new(p.ring, _clean(acc, p.ring.rational))

    def equal_in_ring(self, p: SparsePoly, q: SparsePoly) -> bool:
        return self.reduce(p - q).is_zero()

    def normal_form_monomials(self) -> list:
        """All x-monomials with a_k <= n - k; there are n! of them."""
        from itertools import product
        out = []
        for exps in product(*[range(self.n - k + 1)
                              for k in range(1, self.n + 1)]):
            mono = tuple((f"x{k}", e)
                         for k, e in enumerate(exps, start=1) if e)
            out.append(mono)
        return out
