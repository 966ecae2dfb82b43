"""References for the locus polynomials: the walks in x and y, block
symmetry by swapping variables, and the slots substituted back in.

``walk_from_top`` applies phi_beta from h_top(m) = h_{w0} along the
lex-smallest reduced word of w0 times the triple's permutation embedded
in S_m, with a memo of its own, so it walks in S_m where ``beta_poly``
would drop the fixed tail; the variables beyond x_f and y_e are then set
to zero.  ``walk_from_dominant`` starts lower, at a dominant
permutation, with r(f - r) steps, and ``walk_in_d_slots`` takes the same
steps from the rectangle's rows written in the d-slots, then rewrites the
x-block.  ``porteous`` builds the CK body as a bialternant, with no step, and
``porteous.specialize_nu`` substitutes the slots back into it; the tests
hold the body and the member to these walks.
``porteous.check_rect_symmetry`` and ``to_elementary`` compare split
coefficients, and the tests hold them to ``symmetric_by_swaps``.
``porteous.from_elementary`` multiplies memoised products of elementary
symmetric polynomials, and the tests hold it to
``from_elementary_by_substitution``."""

from itertools import combinations

from flagcalc.divdiff import OperatorContext
from flagcalc.families import cell_product, h_top, oplus
from flagcalc.memo import TermMemo
from flagcalc.perms import (
    Permutation, lex_smallest_reduced_word, longest_element)
from flagcalc.porteous import _blocks, _reduce_block, elementary_symmetric
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


def dominant(t) -> Permutation:
    """u = (e+1, ..., n, 1, ..., e): dominant, its diagram the (f - r)
    x e rectangle.  The triple's permutation lies r(f - r) steps below
    it in the right weak order: its inverted value pairs are u's whose
    smaller value is above r."""
    return Permutation([*range(t.e + 1, t.n + 1), *range(1, t.e + 1)])


def walk_from_dominant(t):
    """phi in x and y along the lex-smallest reduced word of u^-1 nu, from
    the member of the dominant u = dominant(t), the product over its
    rectangle: r(f - r) steps on x_1..x_f."""
    start = cell_product(beta_ring(), dominant(t).diagram(), oplus)
    word = lex_smallest_reduced_word(dominant(t).inverse().compose(
        t.permutation()))
    ctx = OperatorContext(t.n)
    return ctx.compose_word(word, start, ctx.phi_beta)


def walk_in_d_slots(t):
    """walk_from_dominant in the d-slots: phi along the same word, from the
    rectangle's rows prod_j (x + y_j + b x y_j) =
    sum_k x^(e - k) (1 + b x)^k d_k with d_0 = 1 (phi never touches y);
    then only the x-block is rewritten, in the c-slots."""
    ring = beta_ring()
    d = [1] + [SparsePoly.var(ring, f"d{k}") for k in range(1, t.e + 1)]
    start = SparsePoly.const(ring, 1)
    for x in (SparsePoly.var(ring, f"x{i}") for i in range(1, t.f - t.r + 1)):
        unit = 1 + SparsePoly.var(ring, "b") * x
        start *= sum(x ** (t.e - k) * unit ** k * d[k] for k in range(t.e + 1))
    word = lex_smallest_reduced_word(dominant(t).inverse().compose(
        t.permutation()))
    ctx = OperatorContext(t.n)
    return _reduce_block(ctx.compose_word(word, start, ctx.phi_beta),
                         *_blocks(t)[0])


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
