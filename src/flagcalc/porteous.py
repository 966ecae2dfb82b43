"""Universal degeneracy-locus polynomials in Chern classes.

The single rank condition (e, f, r) is encoded by a Grassmannian-type
permutation; the corresponding family member is symmetric separately in
the surviving x- and y-variables and is rewritten in the elementary
symmetric functions of the two blocks (c_i for the x-side, d_j for the
y-side).
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from operator import itemgetter

from .divdiff import OperatorContext
from .memo import TermMemo
from .perms import Permutation, lex_smallest_reduced_word, nu_triple
from .rings import SparsePoly, ZZ, beta_ring, sum_of_products

__all__ = [
    "RankTriple",
    "DPoly",
    "specialize_nu",
    "check_rect_symmetry",
    "elementary_symmetric",
    "to_elementary",
    "from_elementary",
    "thom_porteous",
    "SymmetryError",
]

# the CK body of each triple's locus, from which every theory is derived
_CK_MEMO = TermMemo()
_ELEMENTARY_MEMO = TermMemo()
# each product's (partition, coefficient) pairs, sized by their number
_PARTITION_MEMO = TermMemo()


class SymmetryError(ValueError):
    """Input is not symmetric in the declared variable blocks."""


class RankTriple(tuple):
    __slots__ = ()
    e, f, r = map(property, map(itemgetter, range(3)))

    def __new__(cls, e: int, f: int, r: int):
        """e and f are the ranks of the source (y-side) and target (x-side)
        bundles, r the rank bound."""
        t = tuple.__new__(cls, (e, f, r))
        if not (0 <= r <= min(e, f)):
            raise ValueError(f"need 0 <= r <= min(e, f), got {t}")
        if e + f - r < 1:
            raise ValueError("empty triple")
        return t

    def __repr__(self):
        return f"RankTriple(e={self.e!r}, f={self.f!r}, r={self.r!r})"

    def __getnewargs__(self):  # copy and pickle pass these to __new__
        return tuple(self)

    @property
    def n(self) -> int:
        return self.e + self.f - self.r

    def permutation(self) -> Permutation:
        # slot fixing: (s, t, u) = (e, f, r); validated by the codimension
        # identity l = (e - r)(f - r)
        return nu_triple((self.e, self.f, self.r))

    def dominant(self) -> Permutation:
        """u = (e+1, ..., n, 1, ..., e): dominant, its diagram the (f - r)
        x e rectangle.  The triple's permutation lies r(f - r) steps below
        it in the right weak order: its inverted value pairs are u's whose
        smaller value is above r."""
        return Permutation([*range(self.e + 1, self.n + 1),
                            *range(1, self.e + 1)])


class DPoly(tuple):
    """A body in c_1..c_f (x-side) and d_1..d_e (y-side) for a triple;
    theory is Beta, CH, K0 or CK, and slot_labels label the c- and the
    d-slots."""

    __slots__ = ()
    triple, theory, body, slot_labels = map(
        property, map(itemgetter, range(4)))

    def __new__(cls, triple, theory: str, body: SparsePoly, slot_labels):
        return tuple.__new__(cls, (triple, theory, body, slot_labels))

    def __repr__(self):
        return (f"DPoly(triple={self.triple!r}, theory={self.theory!r}, "
                f"body={self.body!r}, slot_labels={self.slot_labels!r})")

    def __getnewargs__(self):  # copy and pickle pass these to __new__
        return tuple(self)


def specialize_nu(t: RankTriple, n_pad: int = 0) -> SparsePoly:
    """The family member for the triple's permutation nu: the memoised CK
    body with the elementary symmetric functions substituted back in.

    No variable beyond x_f or y_e appears, and the member inside
    S_{n + n_pad} is the same polynomial, so ``n_pad`` changes nothing."""
    if n_pad < 0:
        raise ValueError(f"n_pad must be >= 0, got {n_pad}")
    return from_elementary(thom_porteous(t, "ck"))


def _ck_body(t: RankTriple) -> SparsePoly:
    """The CK body: the walk from the dominant u = t.dominant(), whose
    member is the product over its rectangle, applying phi along the
    lex-smallest reduced word of u^-1 nu (r(f - r) steps on x_1..x_f),
    started in the d-slots; then only the x-block is rewritten.  A row of
    the start is prod_j (x + y_j + b x y_j) = sum_k x^(e - k) (1 + b x)^k d_k
    with d_0 = 1; phi never touches y."""
    ring = beta_ring()
    d = [1] + [SparsePoly.var(ring, f"d{k}") for k in range(1, t.e + 1)]
    start = SparsePoly.const(ring, 1)
    for x in (SparsePoly.var(ring, f"x{i}") for i in range(1, t.f - t.r + 1)):
        unit = 1 + SparsePoly.var(ring, "b") * x
        start *= sum(x ** (t.e - k) * unit ** k * d[k] for k in range(t.e + 1))
    word = lex_smallest_reduced_word(t.dominant().inverse().compose(
        t.permutation()))
    ctx = OperatorContext(t.n)
    return _reduce_block(ctx.compose_word(word, start, ctx.phi_beta),
                         *_blocks(t)[0])


def _blocks(t: RankTriple):
    """x_1..x_f, whose slots are c_i, and y_1..y_e, whose slots are d_j."""
    return (("c", [f"x{i}" for i in range(1, t.f + 1)]),
            ("d", [f"y{i}" for i in range(1, t.e + 1)]))


def _e_product(ring, block: list, exps: tuple) -> SparsePoly:
    """prod_j e_j(block)^exps[j-1], memoised by ring, block and exps."""
    return _ELEMENTARY_MEMO.value((ring, tuple(block), exps), lambda: prod(
        (elementary_symmetric(ring, j, block) ** a
         for j, a in enumerate(exps, start=1) if a),
        start=SparsePoly.const(ring, 1)))


def _symmetric(parts: dict) -> bool:
    """Whether each key of a split map has its adjacent swaps' coefficient."""
    return all(parts.get(a[:i] + (a[i + 1], a[i]) + a[i + 2:]) == c
               for a, c in parts.items() for i in range(len(a) - 1)
               if a[i] != a[i + 1])


def check_rect_symmetry(p: SparsePoly, t: RankTriple) -> bool:
    """Invariance under all permutations inside each block."""
    return all(_symmetric(p.split(block)) for _, block in _blocks(t))


def elementary_symmetric(ring, k: int, names: list) -> SparsePoly:
    """e_k(names): the sum of the products of k distinct names."""
    return SparsePoly(ring, {tuple((v, 1) for v in combo): 1
                             for combo in combinations(names, k)})


def _is_partition(a: tuple) -> bool:
    return all(x >= y for x, y in zip(a, a[1:]))


def _partitions(ring, block: list, exps: tuple) -> list:
    """The (mu, c) of _e_product(ring, block, exps).split(block), mu a
    partition."""
    return _PARTITION_MEMO.value((ring, tuple(block), exps), lambda: [
        (mu, c) for mu, c in _e_product(ring, block, exps).split(block).items()
        if _is_partition(mu)])


def _reduce_block(p: SparsePoly, prefix: str, block: list) -> SparsePoly:
    """Rewrite p in the slots, the elementary symmetric functions e_j of
    ``block``; raise SymmetryError unless p is symmetric in the block.

    p is sum c_l m_l over partitions l, m_l the monomial symmetric
    function and c_l the coefficient of the block monomial l.  Record the
    largest l left as c_l prod e_j^(l_j - l_(j+1)), and subtract c_l times
    that product's partition coefficients, the largest of which is 1 at l."""
    parts = p.split(block)
    if not _symmetric(parts):
        raise SymmetryError(f"input not symmetric in {block}")
    lams = {a: c for a, c in parts.items() if _is_partition(a)}
    slots = [f"{prefix}{i}" for i in range(1, len(block) + 1)]
    pairs = []
    while lams:
        lam = max(lams)
        coeff = lams[lam]
        exps = tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))
        pairs.append((coeff, SparsePoly.monomial(p.ring, slots, exps)))
        for mu, c in _partitions(p.ring, block, exps):
            rest = lams.pop(mu, 0) - coeff * c
            if rest:
                lams[mu] = rest
    return sum_of_products(pairs, p.ring)


def to_elementary(p: SparsePoly, t: RankTriple) -> DPoly:
    """p in c_i (x-block) and d_j (y-block), which from_elementary inverts;
    SymmetryError exactly when check_rect_symmetry rejects p."""
    for prefix, block in _blocks(t):
        p = _reduce_block(p, prefix, block)
    return DPoly(t, "Beta", p, ("c_i(F)", "c_j(Edual)"))


def from_elementary(dp: DPoly) -> SparsePoly:
    """Substitute the elementary symmetric functions back in, by block."""
    p = dp.body
    for prefix, block in _blocks(dp.triple):
        slots = [f"{prefix}{i}" for i in range(1, len(block) + 1)]
        p = sum_of_products([(rest, _e_product(p.ring, block, exps))
                             for exps, rest in p.split(slots).items()], p.ring)
    return p


def thom_porteous(t: RankTriple, theory: str = "ck") -> DPoly:
    """The universal polynomial for the rank <= r locus of a map E -> F.

    theory: "ck" keeps the symbolic parameter b and "k0" sets b = -1; in
    both the d-slots stand for c_j(E^dual).  "ch" sets b = 0 and flips
    the sign of the d-slots, which then stand for -c_j(E^dual), that is
    (-1)^(j+1) c_j(E)."""
    theory = theory.lower()
    flips = {f"d{j}": -SparsePoly.var(ZZ, f"d{j}") for j in range(1, t.e + 1)}
    assignment = {"ck": None, "k0": {"b": -1}, "ch": {"b": 0, **flips}}
    if theory not in assignment:
        raise ValueError(f"unknown theory {theory!r}")
    body = _CK_MEMO.value(t, lambda: _ck_body(t))
    if assignment[theory]:
        body = body.substitute(assignment[theory], ring=ZZ)
    d_label = "-c_j(Edual)" if theory == "ch" else "c_j(Edual)"
    return DPoly(t, theory.upper(), body, ("c_i(F)", d_label))
