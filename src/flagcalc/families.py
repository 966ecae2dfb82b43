"""The named polynomial families: the two-parameter-set family h_w over
Z[b], its Schubert / Grothendieck specialisations, and the push-forward
classes attached to words over an arbitrary formal group law.
"""

from __future__ import annotations

from .divdiff import OperatorContext
from .fgl import FormalGroupLaw
from .memo import TermMemo
from .perms import (Permutation, apply_word, identity, longest_element,
                    rank_function)
from .rings import ZZ, SparsePoly, beta_ring, sum_of_products

__all__ = [
    "oplus",
    "cell_product",
    "h_top",
    "beta_poly",
    "beta_poly_via_word",
    "double_schubert",
    "double_grothendieck",
    "bott_samelson_initial",
    "bott_samelson_class",
]

# h_v per permutation v without its fixed tail, one pruned chain each
_FAMILY_MEMO = TermMemo()
# push-forward classes per (law, n, word)
_BS_MEMO = TermMemo()
_PIPE_MEMO = TermMemo()  # pipe_rows(n) per n


def oplus(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    """a + b + beta*a*b, the multiplicative formal sum."""
    return a + b + SparsePoly.var(beta_ring(), "b") * a * b


def cell_product(ring, cells, factor, bound=None) -> SparsePoly:
    """prod factor(x_i, y_j) over the cells (i, j), a sequence.  Every factor
    has no constant term, so with a bound the product of the first k of m
    cells needs, and keeps, no term above bound - (m - k)."""
    out, m = SparsePoly.const(ring, 1), len(cells)
    for k, (i, j) in enumerate(cells, start=1):
        f = factor(SparsePoly.var(ring, f"x{i}"), SparsePoly.var(ring, f"y{j}"))
        out = sum_of_products([(out, f)], ring,
                              None if bound is None else bound - (m - k))
    return out


def h_top(n: int) -> SparsePoly:
    """prod_{i+j <= n} (x_i + y_j + b x_i y_j) over Z[b]: the product over
    the diagram of w0."""
    return cell_product(beta_ring(), longest_element(n).diagram(), oplus)


def pipe_rows(n: int) -> tuple:
    """Row i < n holds h_{i+j-1}(x_i (+) y_j), j = n-i..1; built once."""
    ring = beta_ring()
    return _PIPE_MEMO.value(n, lambda: tuple(
        tuple((i + j - 1, oplus(SparsePoly.var(ring, f"x{i}"),
                                SparsePoly.var(ring, f"y{j}")))
              for j in range(n - i, 0, -1)) for i in range(1, n)))


def hecke_chain(states: dict, factors, keep=None) -> dict:
    """sum_z states[z] u_z times each h_i(c) = 1 + c u_i of factors (i, c,
    b c), in place: an ascent z(i) < z(i+1) keeps c_z and adds c c_z at
    z s_i if keep(z s_i); a descent's c_z becomes c_z + b c c_z + c c_(z s_i).
    States go in permutation order (insertion order raised peak RSS 2%)."""
    ring = beta_ring()
    one = SparsePoly.const(ring, 1)
    for i, c, bc in factors:
        for z in sorted(states):
            zs = z.right_multiply(i)
            if z[i - 1] > z[i]:
                states[z] = sum_of_products(
                    [(states[z], one), (states[z], bc)]
                    + ([(states[zs], c)] if zs in states else []), ring)
            elif zs not in states and (keep is None or keep(zs)):
                states[zs] = sum_of_products([(states[z], c)], ring)
    return states


def row_walk(n: int, rows, start=(), w=None):
    """Yield (v, c_v) of e h(start) h(row_1) ... in lex order of v, by
    hecke_chain.  Row k is the last to move position k, so its states split
    by v(k) and each part runs the later rows alone, depth first.  With w,
    only w's part and the states <= w in Bruhat order are kept."""
    keep = None if w is None else (lambda v, r_w=rank_function(w): all(
        map(int.__ge__, rank_function(v), r_w)))
    b = SparsePoly.var(beta_ring(), "b")
    start, *rows = [[(i, c, b * c) for i, c in row] for row in (start, *rows)]
    stack = [(0, hecke_chain({identity(n): SparsePoly.const(beta_ring(), 1)},
                             start, keep))]
    while stack:
        k, states = stack.pop()
        if k == len(rows):
            yield from sorted(states.items())
            continue
        parts: dict = {}
        for v, c in hecke_chain(states, rows[k], keep).items():
            if w is None or v[k] == w[k]:
                parts.setdefault(v[k], {})[v] = c
        stack += ((k + 1, parts[a]) for a in sorted(parts, reverse=True))


def beta_poly_via_word(w: Permutation, word: tuple) -> SparsePoly:
    """Evaluate the family member for w along an explicit reduced word of
    w0*w; the result must not depend on the word (braid relations)."""
    n = w.n
    target = longest_element(n).compose(w)
    if apply_word(word, n) != target or len(word) != target.length():
        raise ValueError("word is not a reduced word of w0*w")
    ctx = OperatorContext(n)
    return ctx.compose_word(word, h_top(n), ctx.phi_beta)


def _stable(w: Permutation) -> Permutation:
    """w with its fixed tail k+1, ..., n dropped: w in the smallest S_k."""
    k = w.n
    while k > 1 and w[k - 1] == k:
        k -= 1
    return w if k == w.n else Permutation._trusted(w[:k])


def _pruned_chain(w: Permutation) -> SparsePoly:
    """h_w by the walk of pipe_rows(n) on w's part, the states <= w."""
    return dict(row_walk(w.n, pipe_rows(w.n), w=w))[w]


def beta_poly(w: Permutation) -> SparsePoly:
    """h_w by _pruned_chain in the smallest S_n that holds w (h_w is stable
    under embedding), memoised under w without its fixed tail: w and
    w.embed(n + 1) share one entry."""
    w = _stable(w)
    return _FAMILY_MEMO.value(w, lambda: _pruned_chain(w))


def double_schubert(w: Permutation) -> SparsePoly:
    """Specialise b -> 0 and y_j -> -y_j; lands over Z."""
    p = beta_poly(w)
    assignment = {"b": 0}
    for j in range(1, w.n + 1):
        assignment[f"y{j}"] = -SparsePoly.var(ZZ, f"y{j}")
    return p.substitute(assignment, ring=ZZ)


def double_grothendieck(w: Permutation) -> SparsePoly:
    """Specialise b -> -1; lands over Z."""
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
    """Apply the word's generalised operators to the initial class, memoised
    per law, n and prefix of the word (the empty prefix holds the initial
    class).  Results are word-dependent in general: no deduplication
    across words with equal products."""
    word = tuple(word)
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"index {i} out of range for n={n}")
    return _BS_MEMO.resume(
        word, lambda k: (fgl, n, word[:k]),
        lambda: bott_samelson_initial(fgl, n), OperatorContext(n, fgl=fgl).A_op)
