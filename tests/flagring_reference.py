"""Reference flag-ring reduction: one heap worklist over the packed
x-exponent vectors of the whole input, each rewritten term by term with
the tails of the basis, where flagcalc.flagring eliminates x_n, ..., x_1
in turn with ``sum_of_products``.  It reads the packed keys of
flagcalc.rings directly; the property tests hold the library to it."""

import heapq
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm

from flagcalc.rings import SparsePoly, _FIELD, _check_guard, _clean, _slot


def _complete_homogeneous(ring, m: int, names: list) -> SparsePoly:
    """h_m(names): one monomial per multiset of m names, where
    flagcalc.flagring builds h_m by the recursion on the last variable."""
    combos = combinations_with_replacement(names, m)
    return SparsePoly(ring, {tuple(Counter(c).items()): 1 for c in combos})


def normal_form_monomials(n: int) -> list:
    """All x-monomials with a_k <= n - k; there are n! of them."""
    ranges = [range(n - k + 1) for k in range(1, n + 1)]
    return [tuple((f"x{k}", e) for k, e in enumerate(exps, start=1) if e)
            for exps in product(*ranges)]


def _order_key(alpha: tuple) -> tuple:
    return (-sum(alpha), tuple(-a for a in reversed(alpha)), alpha)


class ReferencePresentation:
    """base[x_1..x_n] / (e_i(x) - c_i)."""

    def __init__(self, n: int, base_chern: tuple, ring):
        self.n = n
        self.ring = ring
        self.slots = tuple(_slot(f"x{k}") for k in range(1, n + 1))
        self.tails = []
        for k in range(1, n + 1):
            M = n - k + 1
            names = [f"x{j}" for j in range(1, k + 1)]
            g = _complete_homogeneous(ring, M, names)
            sign = -1
            for i in range(1, M + 1):
                g = g + sign * base_chern[i - 1] * \
                    _complete_homogeneous(ring, M - i, names)
                sign = -sign
            tail = SparsePoly.var(ring, f"x{k}", M) - g
            self.tails.append(tuple(self._split(m) + (c,)
                                    for m, c in tail._terms.items()))

    def _split(self, m: int) -> tuple:
        exps = tuple(m >> shift & _FIELD for shift, _ in self.slots)
        return exps, m - self._x_key(exps)

    def _x_key(self, exps: tuple) -> int:
        return sum(e * unit for e, (_, unit) in zip(exps, self.slots))

    def reduce(self, p: SparsePoly) -> SparsePoly:
        """One worklist over the whole input: its x-exponent vectors, each
        with a map from the rest of the key to a coefficient, popped in
        the order of _order_key.  A vector with a_k >= n - k + 1 for some
        k (the largest) is rewritten by tail_k, whose vectors come later
        in that order, so no popped vector is pushed again.  The input is
        scaled to integer coefficients first, so the worklist does no
        Fraction arithmetic."""
        scale = lcm(*(c.denominator for c in p._terms.values()))
        work: dict = {}
        heap = []
        for m, c in p._terms.items():
            alpha, rest = self._split(m)
            if alpha not in work:
                work[alpha] = {}
                heapq.heappush(heap, _order_key(alpha))
            work[alpha][rest] = c.numerator * (scale // c.denominator)
        out: dict = {}
        while heap:
            beta = heapq.heappop(heap)[2]
            coeffs = work.pop(beta)
            _check_guard(coeffs)
            for k in range(self.n, 0, -1):
                M = self.n - k + 1
                if beta[k - 1] >= M:
                    break
            else:
                key = self._x_key(beta)
                for rest, c in coeffs.items():
                    out[key + rest] = Fraction(c, scale) if scale > 1 else c
                continue
            base = list(beta)
            base[k - 1] -= M
            for delta, t_rest, t_c in self.tails[k - 1]:
                gamma = tuple(a + d for a, d in zip(base, delta))
                target = work.get(gamma)
                if target is None:
                    target = work[gamma] = {}
                    heapq.heappush(heap, _order_key(gamma))
                for rest, c in coeffs.items():
                    m = rest + t_rest
                    target[m] = target.get(m, 0) + c * t_c
        _check_guard(out)
        return SparsePoly._new(p.ring, _clean(out, p.ring.rational))
