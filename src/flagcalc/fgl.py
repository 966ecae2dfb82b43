"""Formal group laws: additive, multiplicative and the rational universal law.

A law is a truncated bivariate series F(u, v) = u + v + ... together with
its formal inverse chi(u), satisfying F(u, chi(u)) = 0 modulo degree > D.
The universal law is modelled over Q[m1..mK] through its logarithm
log(t) = t + m1 t^2 + ... + mK t^(K+1); this rational model misses torsion
phenomena but has fully generic low-order coefficients.
"""

from __future__ import annotations

from .rings import (
    CoefficientRing,
    SparsePoly,
    TruncatedSeries,
    beta_ring,
    compositional_inverse,
    lazard_rational,
    sum_of_products,
)

__all__ = [
    "FormalGroupLaw",
    "make_additive",
    "make_multiplicative",
    "make_universal_rational",
    "chern_tensor_dual",
]


class FormalGroupLaw:
    """F in u, v and chi in u as series truncated at D, over F's ring.  A
    law equals only itself, so a memo keyed on it hashes no series."""

    __slots__ = ("ring", "F", "chi", "D")

    def __init__(self, F: SparsePoly, chi: SparsePoly, D: int):
        self.ring, self.D = F.ring, D
        self.F, self.chi = TruncatedSeries(F, D), TruncatedSeries(chi, D)

    def sum_series(self, a: SparsePoly, b: SparsePoly) -> SparsePoly:
        """F(a, b) truncated at D; a, b must have zero constant term."""
        return self.F.substitute_into({"u": a, "v": b}).body

    def inverse_series(self, a: SparsePoly) -> SparsePoly:
        """chi(a) truncated at D; a must have zero constant term."""
        return self.chi.substitute_into({"u": a}).body


def make_additive(D: int, ring: CoefficientRing | None = None
                  ) -> FormalGroupLaw:
    """F(u, v) = u + v and chi(u) = -u: the multiplicative law at b = 0."""
    return make_multiplicative(0, D, ring)


def make_multiplicative(b, D: int, ring: CoefficientRing | None = None
                        ) -> FormalGroupLaw:
    """F(u, v) = u + v - b u v with parameter b (a polynomial or constant)
    and its inverse chi(u) = -u / (1 - b u) = -sum_k b^k u^(k+1)."""
    ring = ring or beta_ring()
    if not isinstance(b, SparsePoly):
        b = SparsePoly.const(ring, b)
    u = SparsePoly.var(ring, "u")
    v = SparsePoly.var(ring, "v")
    F = u + v - b * u * v
    if D < 0:
        raise ValueError(f"negative truncation degree {D}")
    powers = [SparsePoly.const(ring, -1)]  # -b^k; at D = 0, -u is above D
    for _ in range(1, D):
        powers.append(powers[-1] * b)
    chi = sum_of_products([(c, SparsePoly.var(ring, "u", k + 1))
                           for k, c in enumerate(powers)], ring, D)
    return FormalGroupLaw(F, chi, D)


def make_universal_rational(K: int, D: int) -> FormalGroupLaw:
    """The universal law in its rational log model over Q[m1..mK]."""
    if D < 0:
        raise ValueError(f"negative truncation degree {D}")
    if K < D:
        raise ValueError(f"need K >= D log generators (K={K}, D={D})")
    ring = lazard_rational(K)
    t = SparsePoly.var(ring, "t")
    log = t + sum_of_products([
        (SparsePoly.var(ring, f"m{k}"), SparsePoly.var(ring, "t", k + 1))
        for k in range(1, K + 1)], ring)
    exp = compositional_inverse(log, D)
    log_u = log.substitute({"t": SparsePoly.var(ring, "u")}, bound=D)
    log_v = log.substitute({"t": SparsePoly.var(ring, "v")}, bound=D)
    return FormalGroupLaw(exp.substitute({"t": log_u + log_v}, bound=D),
                          exp.substitute({"t": -log_u}, bound=D), D)


def chern_tensor_dual(fgl: FormalGroupLaw, x_roots: list, y_roots: list
                      ) -> tuple:
    """Chern polynomial and top Chern class of Hom(E, F) built from roots.

    x_roots are the roots of F, y_roots of E.  Returns
    (prod (1 + F(x_i, chi(y_j)) t), prod F(x_i, chi(y_j))) truncated at D
    in the roots, as sum_k e_k t^k and the last e_k for the elementary
    symmetric functions e_k of the factors."""
    ring = fgl.ring
    es = [SparsePoly.const(ring, 1)]
    chi_ys = [fgl.inverse_series(yj) for yj in y_roots]
    for xi in x_roots:
        for chi_yj in chi_ys:
            factor = fgl.sum_series(xi, chi_yj)
            es.append(SparsePoly.zero(ring))
            for k in range(len(es) - 1, 0, -1):
                es[k] += sum_of_products([(factor, es[k - 1])], ring, fgl.D)
    chern = sum_of_products(
        [(e, SparsePoly.var(ring, "t", k)) for k, e in enumerate(es)], ring)
    return chern, es[-1]
