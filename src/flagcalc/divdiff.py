"""Divided-difference operators: sigma_i, phi_i, their specialisations and
the generalised operators attached to a formal group law.

Every operator is partial_i(q p) for a fixed q: phi_i, partial_i and pi_i
take q = 1 + beta x_{i+1}, and A_i takes q = 1/g, the inverse of the unit
g with F(x_i, chi(x_{i+1})) = (x_i - x_{i+1}) g, truncated.  One
closed-form kernel, ``rings.divided_difference``, applies partial_i, so
the only inexact step for a general law is the truncation at the context
bound D.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

from .fgl import FormalGroupLaw
from .memo import TermMemo
from .rings import (
    SparsePoly,
    TruncatedSeries,
    divide_by_difference,
    divided_difference,
    series_reciprocal,
    sum_of_products,
)

__all__ = ["OperatorContext", "braid_check"]

# 1/g per (law, i, D); see OperatorContext._denominator_unit
_GINV_MEMO = TermMemo()


@dataclass(frozen=True)
class OperatorContext:
    """Operators act on polynomials in x_1..x_n, over the ring of each
    polynomial they are given.

    ``fgl`` is only needed for the generalised operators; D bounds the
    truncation they introduce."""

    n: int
    _: KW_ONLY
    fgl: FormalGroupLaw | None = None
    D: int | None = None

    def __post_init__(self):
        if self.D is None and self.fgl is not None:
            object.__setattr__(self, "D", self.fgl.D)

    def _check_index(self, i: int):
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"index {i} out of range for n={self.n}")

    # -- elementary operators ------------------------------------------------

    def swap(self, i: int, p: SparsePoly) -> SparsePoly:
        self._check_index(i)
        xi = SparsePoly.var(p.ring, f"x{i}")
        xi1 = SparsePoly.var(p.ring, f"x{i + 1}")
        return p.substitute({f"x{i}": xi1, f"x{i + 1}": xi})

    def _phi_with_beta(self, i: int, p: SparsePoly, beta) -> SparsePoly:
        """partial_i((1 + beta x_{i+1}) p).

        partial_i is linear, so the kernel takes p and p beta x_{i+1} as
        two parts, in place of their sum."""
        self._check_index(i)
        if not isinstance(beta, SparsePoly):
            beta = SparsePoly.const(p.ring, beta)
        shifts = beta * SparsePoly.var(p.ring, f"x{i + 1}")
        return divided_difference([p, p * shifts], f"x{i}", f"x{i + 1}")

    def phi_beta(self, i: int, p: SparsePoly) -> SparsePoly:
        """((1 + b x_{i+1}) p - (1 + b x_i) sigma_i p) / (x_i - x_{i+1})."""
        return self._phi_with_beta(i, p, SparsePoly.var(p.ring, "b"))

    def partial(self, i: int, p: SparsePoly) -> SparsePoly:
        """The classical divided difference (beta = 0)."""
        return self._phi_with_beta(i, p, 0)

    def pi_op(self, i: int, p: SparsePoly) -> SparsePoly:
        """The isobaric divided difference (beta = -1)."""
        return self._phi_with_beta(i, p, -1)

    def phi_param(self, i: int, p: SparsePoly, beta) -> SparsePoly:
        """phi with an explicit parameter (polynomial or constant)."""
        return self._phi_with_beta(i, p, beta)

    # -- generalised operator ------------------------------------------------

    def _denominator_unit(self, i: int) -> SparsePoly:
        """The reciprocal of the unit g with F(x_i, chi(x_{i+1})) =
        (x_i - x_{i+1}) g, truncated at D - 1; memoised per law, i and D.
        It is built once, for i = 1, and renamed x1 -> x_i, x2 -> x_{i+1}."""
        fgl = self.fgl
        if fgl is None:
            raise ValueError("context has no formal group law")
        key = (fgl, i, self.D)
        ginv = _GINV_MEMO.get(key)
        if ginv is None:
            xi = SparsePoly.var(fgl.ring, f"x{i}")
            xi1 = SparsePoly.var(fgl.ring, f"x{i + 1}")
            if i > 1:
                ginv = self._denominator_unit(1).substitute({"x1": xi, "x2": xi1})
            else:
                denom = fgl.sum_series(xi, fgl.inverse_series(xi1))
                g = divide_by_difference(denom, f"x{i}", f"x{i + 1}")
                ginv = series_reciprocal(TruncatedSeries(g, self.D - 1)).body
            _GINV_MEMO.put(key, ginv)
        return ginv

    def A_op(self, i: int, p: SparsePoly) -> SparsePoly:
        """(1 + sigma_i)(p / F(x_i, chi(x_{i+1}))) modulo degree > D,
        computed as partial_i of (p / g) truncated at D + 1."""
        self._check_index(i)
        ginv = self._denominator_unit(i)
        r = sum_of_products([(p, ginv)], p.ring, self.D + 1)
        return divided_difference([r], f"x{i}", f"x{i + 1}")

    # -- words ---------------------------------------------------------------

    def apply(self, i: int, p: SparsePoly, mode: str = "beta") -> SparsePoly:
        if mode == "beta":
            return self.phi_beta(i, p)
        if mode == "partial":
            return self.partial(i, p)
        if mode == "pi":
            return self.pi_op(i, p)
        if mode == "fgl":
            return self.A_op(i, p)
        raise ValueError(f"unknown mode {mode!r}")

    def compose_word(self, word: tuple, p: SparsePoly, mode: str = "beta"
                     ) -> SparsePoly:
        """Apply the operator for i_1 first, then i_2, and so on."""
        for i in word:
            p = self.apply(i, p, mode)
        return p


def braid_check(ctx: OperatorContext, i: int, samples, mode: str = "beta"
                ) -> dict:
    """Compare O_i O_{i+1} O_i with O_{i+1} O_i O_{i+1} on sample inputs.

    Returns {"holds": bool, "witness": poly-or-None, "input": sample-or-None}
    with the difference of the two sides as witness on first failure."""
    ctx._check_index(i + 1)
    for p in samples:
        lhs = ctx.compose_word((i, i + 1, i), p, mode)
        rhs = ctx.compose_word((i + 1, i, i + 1), p, mode)
        diff = lhs - rhs
        if not diff.is_zero():
            return {"holds": False, "witness": diff, "input": p}
    return {"holds": True, "witness": None, "input": None}
