"""The length-based rewriting rule for the degenerate Hecke algebra.

u_w u_i = u_{w s_i} if the length goes up, b u_w otherwise; a product
scales the left factor by each coefficient c_v of the right one and
applies the generators of a reduced word of v one at a time.
``HeckeElement.__mul__`` walks each basis element along the other's
reduced word in one pass, and the tests hold it and
``mul_by_generator`` to this rule.

At a point of (Z/P)^m, P = 2^61 - 1, an element is n! numbers, and a
word of h-factors is one pass per factor over them: ``chain_at_point``
uses neither ``HeckeElement`` nor ``SparsePoly``, and ``evaluate`` gives
each polynomial's value there."""

from flagcalc.hecke import HeckeElement, hecke_one
from flagcalc.perms import all_reduced_words, identity, transposition
from flagcalc.rings import SparsePoly, beta_ring

_RING = beta_ring()
P = 2 ** 61 - 1  # a Mersenne prime


def h_factor(n: int, i: int, c: SparsePoly) -> HeckeElement:
    """h_i(c) = 1 + c u_i, as one element."""
    return HeckeElement.from_dict(
        n, {identity(n): SparsePoly.const(_RING, 1), transposition(n, i): c})


def mul_by_generator(e: HeckeElement, i: int) -> HeckeElement:
    if not 1 <= i <= e.n - 1:
        raise ValueError(f"index {i} out of range for n={e.n}")
    b = SparsePoly.var(_RING, "b")
    d: dict = {}
    for w, c in e.coeffs:
        ws = w.right_multiply(i)
        if ws.length() > w.length():
            d[ws] = d.get(ws, SparsePoly.zero(_RING)) + c
        else:
            d[w] = d.get(w, SparsePoly.zero(_RING)) + b * c
    return HeckeElement.from_dict(e.n, d)


def mul(a: HeckeElement, other: HeckeElement) -> HeckeElement:
    out: dict = {}
    for v, cv in other.coeffs:
        term = a.scale(cv)
        for i in min(all_reduced_words(v)):
            term = mul_by_generator(term, i)
        for w, c in term.coeffs:
            out[w] = out.get(w, SparsePoly.zero(_RING)) + c
    return HeckeElement.from_dict(a.n, out)


def build_H(n: int) -> HeckeElement:
    """H(x) = alpha_1(x_1) ... alpha_{n-1}(x_{n-1}), alpha_i(x) the word
    h_{n-1}(x) ... h_i(x), one h-factor per product."""
    e = hecke_one(n)
    for i in range(1, n):
        x = SparsePoly.var(_RING, f"x{i}")
        for j in range(n - 1, i - 1, -1):
            e = e * h_factor(n, j, x)
    return e


def evaluate(p: SparsePoly, point: dict) -> int:
    """p in Z/P at the point, a map from each variable of p to a number."""
    powers: dict = {}  # (v, e) -> point[v]^e in Z/P
    total = 0
    for mono, c in p.terms.items():
        # an int or a Fraction: both have a numerator and a denominator
        term = c.numerator * pow(c.denominator, -1, P)
        for ve in mono:
            if ve not in powers:
                powers[ve] = pow(point[ve[0]], ve[1], P)
            term = term * powers[ve] % P
        total += term
    return total % P


def chain_at_point(n: int, factors, b: int) -> dict:
    """h_{i_1}(c_1) h_{i_2}(c_2) ... in Z/P for the (i, c) pairs, c and b
    numbers, as a map from the images of w to the coefficient of u_w, zeros
    left out.  By the Demazure rule, e h_i(c) sends a u_w to a u_w plus
    c a u_{w s_i} at an ascent w(i) < w(i+1), and plus b c a u_w at a
    descent."""
    state = {tuple(range(1, n + 1)): 1}
    for i, c in factors:
        out = dict(state)
        for w, a in state.items():
            if w[i - 1] < w[i]:
                ws = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
                out[ws] = (out.get(ws, 0) + c * a) % P
            else:
                out[w] = (out[w] + b * c * a) % P
        state = out
    return {w: a for w, a in state.items() if a}
