"""The named polynomial families: the two-parameter-set family h_w over
Z[b], its Schubert / Grothendieck specialisations, and the push-forward
classes attached to words over an arbitrary formal group law.
"""

from __future__ import annotations

from .divdiff import OperatorContext
from .fgl import FormalGroupLaw
from .hecke import oplus
from .memo import TermMemo
from .perms import Permutation, apply_word, lex_smallest_reduced_word, longest_element
from .rings import SparsePoly, beta_ring, sum_of_products

__all__ = [
    "cell_product",
    "h_top",
    "beta_poly",
    "beta_poly_via_word",
    "double_schubert",
    "double_grothendieck",
    "bott_samelson_initial",
    "bott_samelson_class",
]

# h_v per permutation v, filled along the walks of beta_poly
_FAMILY_MEMO = TermMemo()
# push-forward classes per (law, n, word)
_BS_MEMO = TermMemo()


def cell_product(ring, cells, factor, bound=None) -> SparsePoly:
    """prod factor(x_i, y_j) over the cells (i, j); with a bound, no
    partial product has a term above it."""
    out = SparsePoly.const(ring, 1)
    for i, j in cells:
        f = factor(SparsePoly.var(ring, f"x{i}"), SparsePoly.var(ring, f"y{j}"))
        out = sum_of_products([(out, f)], ring, bound)
    return out


def h_top(n: int) -> SparsePoly:
    """prod_{i+j <= n} (x_i + y_j + b x_i y_j) over Z[b]: the product over
    the diagram of w0."""
    return cell_product(beta_ring(), longest_element(n).diagram(), oplus)


def beta_poly_via_word(w: Permutation, word: tuple) -> SparsePoly:
    """Evaluate the family member for w along an explicit reduced word of
    w0*w; the result must not depend on the word (braid relations)."""
    n = w.n
    target = longest_element(n).compose(w)
    if apply_word(word, n) != target or len(word) != target.length():
        raise ValueError("word is not a reduced word of w0*w")
    ctx = OperatorContext(n)
    return ctx.compose_word(word, h_top(n), mode="beta")


def beta_poly(w: Permutation) -> SparsePoly:
    """h_w, computed along the lex-smallest reduced word of w0*w.

    The walk h_{v_0} = h_top(n), h_{v_k} = phi_{i_k} h_{v_{k-1}} with
    v_k = w0 s_{i_1} ... s_{i_k} starts at the longest prefix already
    memoised and memoises every h_{v_k} it passes.  Each prefix is the
    lex-smallest reduced word of w0*v_k, and h_v does not depend on the
    word, so a full sweep of S_n costs n! - 1 operator applications."""
    p = _FAMILY_MEMO.get(w)
    if p is not None:
        return p
    n = w.n
    word = lex_smallest_reduced_word(longest_element(n).compose(w))
    chain = [longest_element(n)]
    for i in word:
        chain.append(chain[-1].right_multiply(i))
    k = len(word)
    while p is None and k > 0:
        k -= 1
        p = _FAMILY_MEMO.get(chain[k])
    if p is None:
        p = h_top(n)
        _FAMILY_MEMO.put(chain[0], p)
    ctx = OperatorContext(n)
    for k in range(k, len(word)):
        p = ctx.phi_beta(word[k], p)
        _FAMILY_MEMO.put(chain[k + 1], p)
    return p


def double_schubert(w: Permutation) -> SparsePoly:
    """Specialise b -> 0 and y_j -> -y_j; lands over Z."""
    from .rings import ZZ
    p = beta_poly(w)
    assignment = {"b": 0}
    for j in range(1, w.n + 1):
        assignment[f"y{j}"] = -SparsePoly.var(ZZ, f"y{j}")
    return p.substitute(assignment, ring=ZZ)


def double_grothendieck(w: Permutation) -> SparsePoly:
    """Specialise b -> -1; lands over Z."""
    from .rings import ZZ
    return beta_poly(w).substitute({"b": -1}, ring=ZZ)


def bott_samelson_initial(fgl: FormalGroupLaw, n: int) -> SparsePoly:
    """prod_{k+j <= n} F(x_k, y_j) truncated at D.

    The y_j slots stand for already-inverted first Chern classes of the
    subquotient line bundles; compose with the formal inverse per variable
    when holding un-inverted roots."""
    return cell_product(fgl.ring, longest_element(n).diagram(),
                        fgl.sum_series, fgl.D)


def bott_samelson_class(fgl: FormalGroupLaw, word: tuple, n: int
                        ) -> SparsePoly:
    """Apply the word's generalised operators to the initial class, from
    the longest memoised prefix of the word (the empty prefix holds the
    initial class); every prefix passed is memoised.  Results are
    word-dependent in general: no deduplication across words with equal
    products."""
    word = tuple(word)
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"index {i} out of range for n={n}")
    k = len(word)
    while (out := _BS_MEMO.get((fgl, n, word[:k]))) is None and k:
        k -= 1
    if out is None:
        out = bott_samelson_initial(fgl, n)
        _BS_MEMO.put((fgl, n, ()), out)
    ctx = OperatorContext(n, fgl=fgl)
    for k in range(k, len(word)):
        out = ctx.A_op(word[k], out)
        _BS_MEMO.put((fgl, n, word[:k + 1]), out)
    return out
