"""Divided-difference operators: phi_i, its specialisations and the
generalised operators attached to a formal group law.

Every operator is partial_i(q p) for a fixed q: phi_i, partial_i and pi_i
take q = 1 + beta x_{i+1}, and A_i takes q = 1/g, the inverse of the unit
g with F(x_i, chi(x_{i+1})) = (x_i - x_{i+1}) g, truncated.  One
closed-form kernel, ``rings.divided_difference``, applies partial_i, so
the only inexact step for a general law is the truncation at the law's
bound D.
"""

from __future__ import annotations

from .fgl import FormalGroupLaw
from .memo import TermMemo
from .rings import (
    SparsePoly,
    divide_by_difference,
    divided_difference,
    series_reciprocal,
    sum_of_products,
)

__all__ = ["OperatorContext", "braid_check"]

# 1/g per (law, i); see OperatorContext._denominator_unit
_GINV_MEMO = TermMemo()


class OperatorContext:
    """Operators act on polynomials in x_1..x_n, over the ring of each
    polynomial they are given.

    ``fgl`` is only needed for the generalised operators, which truncate
    at the law's bound D."""

    __slots__ = ("n", "fgl")

    def __init__(self, n: int, *, fgl: FormalGroupLaw | None = None):
        self.n, self.fgl = n, fgl

    # the law's bound, which bench/trace_layers.py reads in its A_op hook
    D = property(lambda self: self.fgl.D)

    def _check_index(self, i: int):
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"index {i} out of range for n={self.n}")

    # -- elementary operators ------------------------------------------------

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
        (x_i - x_{i+1}) g, truncated at D - 1; memoised per law and i.
        It is built once, for i = 1, and renamed x1 -> x_i, x2 -> x_{i+1}."""
        fgl = self.fgl
        if fgl is None:
            raise ValueError("context has no formal group law")
        if fgl.D < 1:
            raise ValueError(f"A_op needs D >= 1, the law has D = {fgl.D}")

        def build():
            xi = SparsePoly.var(fgl.ring, f"x{i}")
            xi1 = SparsePoly.var(fgl.ring, f"x{i + 1}")
            if i > 1:
                return self._denominator_unit(1).substitute({"x1": xi, "x2": xi1})
            denom = fgl.sum_series(xi, fgl.inverse_series(xi1))
            g = divide_by_difference(denom, f"x{i}", f"x{i + 1}")
            return series_reciprocal(g, fgl.D - 1)
        return _GINV_MEMO.value((fgl, i), build)

    def A_op(self, i: int, p: SparsePoly) -> SparsePoly:
        """(1 + sigma_i)(p / F(x_i, chi(x_{i+1}))) modulo degree > D,
        computed as partial_i of (p / g) truncated at D + 1."""
        self._check_index(i)
        ginv = self._denominator_unit(i)
        r = sum_of_products([(p, ginv)], p.ring, self.fgl.D + 1)
        return divided_difference([r], f"x{i}", f"x{i + 1}")

    # -- words ---------------------------------------------------------------

    def compose_word(self, word: tuple, p: SparsePoly, op) -> SparsePoly:
        """Apply op, such as ``ctx.A_op``, for i_1 first, then i_2, ..."""
        for i in word:
            p = op(i, p)
        return p


def braid_check(ctx: OperatorContext, i: int, samples, mode: str = "beta"
                ) -> dict:
    """Compare O_i O_{i+1} O_i with O_{i+1} O_i O_{i+1} on sample inputs.

    Returns {"holds": bool, "witness": poly-or-None, "input": sample-or-None}
    with the difference of the two sides as witness on first failure.
    mode names the operator: "beta" (phi_i) or "fgl" (A_i)."""
    if not 1 <= i <= ctx.n - 2:
        raise ValueError(f"braid index {i} out of range for n={ctx.n}")
    op = {"beta": ctx.phi_beta, "fgl": ctx.A_op}.get(mode)
    if op is None:
        raise ValueError(f"unknown mode {mode!r}")
    for p in samples:
        lhs = ctx.compose_word((i, i + 1, i), p, op)
        rhs = ctx.compose_word((i + 1, i, i + 1), p, op)
        diff = lhs - rhs
        if not diff.is_zero():
            return {"holds": False, "witness": diff, "input": p}
    return {"holds": True, "witness": None, "input": None}
