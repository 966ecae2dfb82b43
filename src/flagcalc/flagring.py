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

from .rings import CoefficientRing, SparsePoly, _mono_mul

__all__ = ["FlagRingPresentation"]


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
        slot = {f"x{k}": k - 1 for k in range(1, self.n + 1)}
        object.__setattr__(self, "_slot", slot)
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
            tail = SparsePoly(self.ring, {((f"x{k}", M),): 1}) - g
            tails.append(tuple(self._split(m) + (c,)
                               for m, c in tail.terms.items()))
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

    def _split(self, mono) -> tuple:
        """(exponents of x_1..x_n, the monomial in every other variable)."""
        exps = [0] * self.n
        rest = []
        for v, e in mono:
            k = self._slot.get(v)
            if k is None:
                rest.append((v, e))
            else:
                exps[k] = e
        return tuple(exps), tuple(rest)

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
        names = [f"x{k}" for k in range(1, self.n + 1)]
        work = {alpha: {(): 1}}
        heap = [_order_key(alpha)]
        out: dict = {}
        while heap:
            beta = heapq.heappop(heap)[2]
            coeffs = work.pop(beta)
            nf = self._nf_cache.get(beta)
            if nf is None:
                for k in range(self.n, 0, -1):
                    M = self.n - k + 1
                    if beta[k - 1] >= M:
                        break
                else:
                    nf = {tuple((names[j], e) for j, e in enumerate(beta)
                                if e): 1}
            if nf is not None:
                for rest, c in coeffs.items():
                    for m2, c2 in nf.items():
                        m = _mono_mul(m2, rest)
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
                    m = _mono_mul(rest, t_rest)
                    target[m] = target.get(m, 0) + c * t_c
        out = {m: c for m, c in out.items() if c}
        self._nf_cache[alpha] = out
        return out

    def reduce(self, p: SparsePoly) -> SparsePoly:
        acc: dict = {}
        for mono, c in p.terms.items():
            alpha, rest = self._split(mono)
            for m2, c2 in self._normal_form_of_exponents(alpha).items():
                m = _mono_mul(m2, rest)
                acc[m] = acc.get(m, 0) + c * c2
        return SparsePoly(p.ring, acc)

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
