"""The degenerate Hecke algebra on generators u_i with u_i^2 = b u_i,
braid and commutation relations, over Z[b][x, y].

Elements are kept in the basis {u_w : w in S_n} at all times.  One rule
multiplies them, u_z u_w = b^k u_{z*w} with * the Demazure product: walk z
along the lex-smallest reduced word of w, taking z <- z s_i at an ascent
z(i) < z(i+1) and a factor b at a descent.  Equality is a map comparison.
"""

from __future__ import annotations

from itertools import zip_longest

from .divdiff import OperatorContext
from .families import beta_poly, h_top, oplus, pipe_rows, row_walk
from .perms import (Permutation, all_permutations,
                    lex_smallest_reduced_word, longest_element, transposition)
from .rings import SparsePoly, beta_ring, sum_of_products

__all__ = [
    "HeckeElement",
    "hecke_one",
    "build_Htilde",
    "build_Hxy",
    "alternative_product",
    "builder_word",
    "coefficient",
    "identity_words",
    "verify_identities",
]

_RING = beta_ring()


class HeckeElement:
    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple):
        """coeffs is a tuple of (Permutation, SparsePoly), normalised."""
        self.n, self.coeffs = n, coeffs

    def __eq__(self, other):
        return (type(other) is HeckeElement
                and (self.n, self.coeffs) == (other.n, other.coeffs))

    def __hash__(self):
        return hash((self.n, self.coeffs))

    @staticmethod
    def from_dict(n: int, d: dict) -> "HeckeElement":
        return HeckeElement(n, tuple(sorted(
            (w, c) for w, c in d.items() if not c.is_zero())))

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def scale(self, c: SparsePoly) -> "HeckeElement":
        return HeckeElement.from_dict(
            self.n, {w: c * p for w, p in self.coeffs})

    def mul_by_generator(self, i: int) -> "HeckeElement":
        """Right multiplication by u_i."""
        return self * hecke_generator(self.n, i)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("ranks differ")
        out: dict = {}  # images of z * w -> pairs (c_z, c_w b^k)
        for w, cw in other.coeffs:
            word = lex_smallest_reduced_word(w)
            scaled = [cw]  # scaled[k] = c_w b^k
            for z, cz in self.coeffs:
                im, k = list(z), 0
                for i in word:
                    if im[i - 1] < im[i]:
                        im[i - 1], im[i] = im[i], im[i - 1]
                    else:
                        k += 1
                while len(scaled) <= k:
                    scaled.append(scaled[-1] * SparsePoly.var(_RING, "b"))
                out.setdefault(tuple(im), []).append((cz, scaled[k]))
        return HeckeElement.from_dict(self.n, {
            Permutation._trusted(im): sum_of_products(pairs, _RING)
            for im, pairs in out.items()})

    def is_zero(self) -> bool:
        return not self.coeffs


def hecke_one(n: int) -> HeckeElement:
    return _collect(n, [])


def hecke_generator(n: int, i: int) -> HeckeElement:
    return HeckeElement.from_dict(
        n, {transposition(n, i): SparsePoly.const(_RING, 1)})


def _alpha(n: int, i: int, x: SparsePoly) -> list:
    """The word h_{n-1}(x) ... h_i(x), descending index order."""
    return [(j, x) for j in range(n - 1, i - 1, -1)]


def _alpha_tilde(n: int, i: int, y: SparsePoly) -> list:
    """The word h_i(y) ... h_{n-1}(y), ascending index order."""
    return [(j, y) for j in range(i, n)]


def builder_word(name: str, n: int) -> tuple:
    """The builder called name as row_walk's (rows, start): H(x, y) runs
    the rows alpha_i(x_i) of H(x) after H~(y) = alpha~_{n-1}(y_{n-1}) ..."""
    if name == "alternative_product":
        return pipe_rows(n), []
    htilde = [f for i in range(n - 1, 0, -1)
              for f in _alpha_tilde(n, i, SparsePoly.var(_RING, f"y{i}"))]
    return ([_alpha(n, i, SparsePoly.var(_RING, f"x{i}")) for i in range(1, n)]
            if name == "build_Hxy" else []), htilde


def _collect(n: int, rows, start=()) -> HeckeElement:
    return HeckeElement.from_dict(n, dict(row_walk(n, rows, start)))


def build_Htilde(n: int) -> HeckeElement:
    return _collect(n, *builder_word("build_Htilde", n))


def build_Hxy(n: int) -> HeckeElement:
    return _collect(n, *builder_word("build_Hxy", n))


def alternative_product(n: int) -> HeckeElement:
    return _collect(n, *builder_word("alternative_product", n))


def coefficient(e: HeckeElement, w: Permutation) -> SparsePoly:
    return e.as_dict().get(w, SparsePoly.zero(_RING))


# -- verification suite -------------------------------------------------------

def identity_words(n: int) -> dict:
    """The h-factor certificates of verify_identities by name, in its order,
    each a list of (lhs, rhs) pairs of words whose products are equal."""
    x = SparsePoly.var(_RING, "x1")
    y = SparsePoly.var(_RING, "y1")
    xy = oplus(x, y)
    ys = {k: SparsePoly.var(_RING, f"y{k}") for k in range(1, n)}
    words = {}
    if n >= 2:
        words["h_i(x) h_i(y) = h_i(x (+) y)"] = [([(1, x), (1, y)], [(1, xy)])]
    if n >= 3:
        words["Yang-Baxter for h-factors"] = [
            ([(1, x), (2, xy), (1, y)], [(2, y), (1, xy), (2, x)])]
    words["alpha commutation"] = [
        (a + b, b + a) for i in range(1, n)
        for a, b in ((_alpha(n, i, x), _alpha(n, i, y)),
                     (_alpha(n, i, x), _alpha_tilde(n, i, y)))]
    words["exchange identity"] = [
        ([f for k in range(n - 1, i - 1, -1)
          for f in _alpha_tilde(n, k, ys[k])] + _alpha(n, i, x),
         [(k, oplus(x, ys[k])) for k in range(n - 1, i - 1, -1)]
         + [f for k in range(n - 1, i, -1)
            for f in _alpha_tilde(n, k, ys[k - 1])])
        for i in range(1, n)]
    return words


def verify_identities(n: int) -> list:
    """Check the defining and structural identities of the algebra at
    rank n; returns a list of {"name": ..., "ok": bool} certificates."""
    results = []

    def record(name, ok):
        results.append({"name": name, "ok": bool(ok)})

    b = SparsePoly.var(_RING, "b")

    # defining relations on basis elements
    ok = True
    for w in all_permutations(n):
        e = HeckeElement.from_dict(n, {w: SparsePoly.const(_RING, 1)})
        u = {i: e.mul_by_generator(i) for i in range(1, n)}  # e u_i
        for i in range(1, n):
            ok = ok and u[i].mul_by_generator(i) == u[i].scale(b)
            for j in range(i + 2, n):
                ok = ok and (u[i].mul_by_generator(j)
                             == u[j].mul_by_generator(i))
            if i + 1 < n:
                ok = ok and (u[i].mul_by_generator(i + 1).mul_by_generator(i)
                             == u[i + 1].mul_by_generator(i)
                             .mul_by_generator(i + 1))
    record("generator relations", ok)

    for name, pairs in identity_words(n).items():
        record(name, all(_collect(n, [], a) == _collect(n, [], b)
                         for a, b in pairs))

    # one coefficient at a time: with every c_w = beta_poly(w), phi_i H =
    # H u_i - b H is c_(w s_i) at a descent i of w and -b c_w at an ascent
    ctx, w0 = OperatorContext(n), longest_element(n)
    alt, dd, top = True, True, False
    for (v, c), (u, a), w in zip_longest(
            row_walk(n, *builder_word("build_Hxy", n)),
            row_walk(n, *builder_word("alternative_product", n)),
            all_permutations(n), fillvalue=(None, None)):
        alt = alt and v == u == w and c == a
        dd = dd and v == w and c == beta_poly(w) and all(
            ctx.phi_beta(i, c) == (beta_poly(w.right_multiply(i))
                                   if w[i - 1] > w[i] else -(b * c))
            for i in range(1, n))
        top = top or (w == v == w0 and c == h_top(n))
    record("alternative product equals H(x, y)", alt)
    record("divided-difference identity on H(x, y)", dd)
    # with c_(w0), the descents of dd give every c_w down from w0
    record("coefficients reproduce the recursive family", dd and top)

    return results
