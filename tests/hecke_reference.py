"""The length-based rewriting rule for the degenerate Hecke algebra.

u_w u_i = u_{w s_i} if the length goes up, b u_w otherwise; a product
scales the left factor by each coefficient c_v of the right one and
applies the generators of a reduced word of v one at a time.
``HeckeElement.__mul__`` walks each basis element along the other's
reduced word in one pass, and the tests hold it and
``mul_by_generator`` to this rule."""

from flagcalc.hecke import HeckeElement
from flagcalc.perms import all_reduced_words
from flagcalc.rings import SparsePoly, beta_ring

_RING = beta_ring()


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
