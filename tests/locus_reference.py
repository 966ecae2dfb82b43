"""References for the locus polynomials: the walks in x and y, block
symmetry by swapping variables, and the slots substituted back in.

``walk_from_top`` applies phi_beta from h_top(m) = h_{w0} along the
lex-smallest reduced word of w0 times the triple's permutation embedded
in S_m, with a memo of its own, so it walks in S_m where ``beta_poly``
would drop the fixed tail; the variables beyond x_f and y_e are then set
to zero.  ``walk_from_dominant`` starts lower, at a dominant
permutation, with r(f - r) steps.  ``porteous.specialize_nu`` substitutes
the slots back into the CK body, which ``porteous`` walks in the d-slots,
and the tests hold it and the body to these walks.
``porteous.check_rect_symmetry`` and ``to_elementary`` compare split
coefficients, and the tests hold them to ``symmetric_by_swaps``.
``porteous.from_elementary`` multiplies memoised products of elementary
symmetric polynomials, and the tests hold it to
``from_elementary_by_substitution``."""

from itertools import combinations

from flagcalc.divdiff import OperatorContext
from flagcalc.families import cell_product, h_top, oplus
from flagcalc.memo import TermMemo
from flagcalc.perms import lex_smallest_reduced_word, longest_element
from flagcalc.porteous import elementary_symmetric
from flagcalc.rings import SparsePoly, beta_ring


# h_top(m) after each prefix of a word, keyed by (m, prefix)
_WALKS = TermMemo()


def _walk(m: int, word: tuple):
    p = _WALKS.get((m, word))
    if p is None:
        p = h_top(m) if not word else OperatorContext(m).phi_beta(
            word[-1], _walk(m, word[:-1]))
        _WALKS.put((m, word), p)
    return p


def walk_from_top(t, n_pad: int = 0):
    m = t.n + n_pad
    w = t.permutation().embed(m)
    p = _walk(m, lex_smallest_reduced_word(longest_element(m).compose(w)))
    dead = {f"x{i}": 0 for i in range(t.f + 1, m + 1)}
    dead.update({f"y{j}": 0 for j in range(t.e + 1, m + 1)})
    return p.substitute(dead)


def walk_from_dominant(t):
    """phi in x and y along the lex-smallest reduced word of u^-1 nu, from
    the member of the dominant u = t.dominant(), the product over its
    rectangle: r(f - r) steps on x_1..x_f."""
    start = cell_product(beta_ring(), t.dominant().diagram(), oplus)
    word = lex_smallest_reduced_word(t.dominant().inverse().compose(
        t.permutation()))
    ctx = OperatorContext(t.n)
    return ctx.compose_word(word, start, ctx.phi_beta)


def expected_codim(t) -> int:
    """(e - r)(f - r), the codimension of the locus of triple t."""
    return (t.e - t.r) * (t.f - t.r)


def is_dominant(w) -> bool:
    """132-avoiding: no positions i < j < k with w(i) < w(k) < w(j)."""
    return not any(a < c < b for a, b, c in combinations(w, 3))


def symmetric_by_swaps(p, t) -> bool:
    """Invariance under all adjacent swaps inside each block, each swap
    substituted into the whole polynomial."""
    pairs = [(f"x{i}", f"x{i + 1}") for i in range(1, t.f)]
    pairs += [(f"y{j}", f"y{j + 1}") for j in range(1, t.e)]
    return all(p.substitute({a: SparsePoly.var(p.ring, b),
                             b: SparsePoly.var(p.ring, a)}) == p
               for a, b in pairs)


def from_elementary_by_substitution(dp):
    """The body with e_i(x_1..x_f) for c_i and e_j(y_1..y_e) for d_j, in
    one general substitution."""
    t, ring = dp.triple, dp.body.ring
    xs = [f"x{i}" for i in range(1, t.f + 1)]
    ys = [f"y{j}" for j in range(1, t.e + 1)]
    images = {f"c{i}": elementary_symmetric(ring, i, xs)
              for i in range(1, t.f + 1)}
    images.update({f"d{j}": elementary_symmetric(ring, j, ys)
                   for j in range(1, t.e + 1)})
    return dp.body.substitute(images)
