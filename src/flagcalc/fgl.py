"""Formal group laws: additive, multiplicative and the rational universal law.

A law is a truncated bivariate series F(u, v) = u + v + ... together with
its formal inverse chi(u), satisfying F(u, chi(u)) = 0 modulo degree > D.
The universal law is modelled over Q[m1..mK] through its logarithm
log(t) = t + m1 t^2 + ... + mK t^(K+1); this rational model misses torsion
phenomena but has fully generic low-order coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import (
    CoefficientRing,
    SparsePoly,
    TruncatedSeries,
    beta_ring,
    compositional_inverse,
    lazard_rational,
    series_reciprocal,
    sum_of_products,
)

__all__ = [
    "FormalGroupLaw",
    "make_additive",
    "make_multiplicative",
    "make_universal_rational",
    "chern_tensor_dual",
]


@dataclass(frozen=True)
class FormalGroupLaw:
    ring: CoefficientRing
    F: TruncatedSeries   # in u, v
    chi: TruncatedSeries  # in u
    D: int

    def sum_series(self, a: SparsePoly, b: SparsePoly) -> SparsePoly:
        """F(a, b) truncated at D; a, b must have zero constant term."""
        return self.F.substitute_into({"u": a, "v": b}).body

    def inverse_series(self, a: SparsePoly) -> SparsePoly:
        """chi(a) truncated at D; a must have zero constant term."""
        return self.chi.substitute_into({"u": a}).body


def make_additive(D: int, ring: CoefficientRing | None = None
                  ) -> FormalGroupLaw:
    ring = ring or beta_ring()
    u = SparsePoly.var(ring, "u")
    v = SparsePoly.var(ring, "v")
    return FormalGroupLaw(ring, TruncatedSeries(u + v, D),
                          TruncatedSeries(-u, D), D)


def make_multiplicative(b, D: int, ring: CoefficientRing | None = None
                        ) -> FormalGroupLaw:
    """F(u, v) = u + v - b u v with parameter b (a polynomial or constant)
    and its inverse chi(u) = -u / (1 - b u)."""
    ring = ring or beta_ring()
    if not isinstance(b, SparsePoly):
        b = SparsePoly.const(ring, b)
    u = SparsePoly.var(ring, "u")
    v = SparsePoly.var(ring, "v")
    F = TruncatedSeries(u + v - b * u * v, D)
    recip = series_reciprocal(TruncatedSeries(1 - b * u, D)).body
    chi = TruncatedSeries(sum_of_products([(recip, -u)], ring, D), D)
    return FormalGroupLaw(ring, F, chi, D)


def make_universal_rational(K: int, D: int) -> FormalGroupLaw:
    """The universal law in its rational log model over Q[m1..mK]."""
    if K < D:
        raise ValueError(f"need K >= D log generators (K={K}, D={D})")
    ring = lazard_rational(K)
    t = SparsePoly.var(ring, "t")
    log = t
    for k in range(1, K + 1):
        log = log + SparsePoly.var(ring, f"m{k}") * t ** (k + 1)
    log_s = TruncatedSeries(log, D)
    exp_s = compositional_inverse(log_s)
    u = SparsePoly.var(ring, "u")
    v = SparsePoly.var(ring, "v")
    log_u = log_s.substitute_into({"t": u}).body
    log_v = log_s.substitute_into({"t": v}).body
    F = exp_s.substitute_into({"t": log_u + log_v})
    chi = exp_s.substitute_into({"t": -log_u})
    return FormalGroupLaw(ring, F, chi, D)


def chern_tensor_dual(fgl: FormalGroupLaw, x_roots: list, y_roots: list
                      ) -> tuple:
    """Chern polynomial and top Chern class of Hom(E, F) built from roots.

    x_roots are the roots of F, y_roots of E.  Returns
    (prod (1 + F(x_i, chi(y_j)) t), prod F(x_i, chi(y_j))) truncated at D
    in the roots, as sum_k e_k t^k and the last e_k for the elementary
    symmetric functions e_k of the factors."""
    ring = fgl.ring
    es = [SparsePoly.const(ring, 1)]
    for xi in x_roots:
        for yj in y_roots:
            factor = fgl.sum_series(xi, fgl.inverse_series(yj))
            es.append(SparsePoly.zero(ring))
            for k in range(len(es) - 1, 0, -1):
                es[k] += sum_of_products([(factor, es[k - 1])], ring, fgl.D)
    chern = sum_of_products(
        [(e, SparsePoly.var(ring, "t", k)) for k, e in enumerate(es)], ring)
    return chern, es[-1]
