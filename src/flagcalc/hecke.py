"""The degenerate Hecke algebra on generators u_i with u_i^2 = b u_i,
braid and commutation relations, over Z[b][x, y].

Elements are kept in the basis {u_w : w in S_n} at all times.  One rule
multiplies them, u_z u_w = b^k u_{z*w} with * the Demazure product: walk z
along the lex-smallest reduced word of w, taking z <- z s_i at an ascent
z(i) < z(i+1) and a factor b at a descent.  Equality is a map comparison.
"""

from __future__ import annotations

from .divdiff import OperatorContext
from .families import beta_poly, hecke_chain, oplus, pipe_rows
from .perms import (Permutation, all_permutations, identity,
                    lex_smallest_reduced_word, transposition)
from .rings import SparsePoly, beta_ring, sum_of_products

__all__ = [
    "HeckeElement",
    "hecke_one",
    "build_Htilde",
    "build_Hxy",
    "alternative_product",
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

    def _combine(self, other: "HeckeElement", op) -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("ranks differ")
        d = self.as_dict()
        for w, c in other.coeffs:
            d[w] = op(d.get(w, SparsePoly.zero(_RING)), c)
        return HeckeElement.from_dict(self.n, d)

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        return self._combine(other, SparsePoly.__add__)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self._combine(other, SparsePoly.__sub__)

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
    return HeckeElement.from_dict(
        n, {identity(n): SparsePoly.const(_RING, 1)})


def hecke_generator(n: int, i: int) -> HeckeElement:
    return HeckeElement.from_dict(
        n, {transposition(n, i): SparsePoly.const(_RING, 1)})


def _chain(e: HeckeElement, factors) -> HeckeElement:
    """e h_{i_1}(c_1) h_{i_2}(c_2) ... for the (i, c) pairs of a word."""
    return HeckeElement.from_dict(e.n, hecke_chain(e.as_dict(), factors))


def _alpha(n: int, i: int, x: SparsePoly) -> list:
    """The word h_{n-1}(x) ... h_i(x), descending index order."""
    return [(j, x) for j in range(n - 1, i - 1, -1)]


def _alpha_tilde(n: int, i: int, y: SparsePoly) -> list:
    """The word h_i(y) ... h_{n-1}(y), ascending index order."""
    return [(j, y) for j in range(i, n)]


def build_Htilde(n: int) -> HeckeElement:
    """alpha~_{n-1}(y_{n-1}) ... alpha~_1(y_1)."""
    return _chain(hecke_one(n), [
        f for i in range(n - 1, 0, -1)
        for f in _alpha_tilde(n, i, SparsePoly.var(_RING, f"y{i}"))])


def build_Hxy(n: int) -> HeckeElement:
    """H~(y) chained with H(x) = alpha_1(x_1) ... alpha_{n-1}(x_{n-1})."""
    return _chain(build_Htilde(n), [
        f for i in range(1, n)
        for f in _alpha(n, i, SparsePoly.var(_RING, f"x{i}"))])


def alternative_product(n: int) -> HeckeElement:
    """The double product of h_{i+j-1}(x_i (+) y_j), row by row."""
    return _chain(hecke_one(n), [f for row in pipe_rows(n) for f in row])


def coefficient(e: HeckeElement, w: Permutation) -> SparsePoly:
    for v, c in e.coeffs:
        if v == w:
            return c
    return SparsePoly.zero(_RING)


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
    one = hecke_one(n)

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
        record(name, all(_chain(one, a) == _chain(one, b) for a, b in pairs))

    H = build_Hxy(n)
    record("alternative product equals H(x, y)", H == alternative_product(n))

    # operator identity phi_i H = H u_i - b H, one coefficient at a time:
    # (H u_i - b H)_w is c_(w s_i) at a descent i of w and -b c_w at an ascent
    coeffs, zero = H.as_dict(), SparsePoly.zero(_RING)
    ctx = OperatorContext(n)
    ok = True
    for i in range(1, n):
        for w in all_permutations(n):
            c = coeffs.get(w, zero)
            rhs = (coeffs.get(w.right_multiply(i), zero) if w[i - 1] > w[i]
                   else -(b * c))
            ok = ok and ctx.phi_beta(i, c) == rhs
    record("divided-difference identity on H(x, y)", ok)

    ok = True
    for w in all_permutations(n):
        ok = ok and coeffs.get(w, zero) == beta_poly(w)
    record("coefficients reproduce the recursive family", ok)

    return results
