"""Universal degeneracy-locus polynomials in Chern classes.

The single rank condition (e, f, r) is encoded by a Grassmannian-type
permutation; the corresponding family member is symmetric separately in
the surviving x- and y-variables and is rewritten in the elementary
symmetric functions of the two blocks (c_i for the x-side, d_j for the
y-side).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .divdiff import OperatorContext
from .families import cell_product
from .hecke import oplus
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


class SymmetryError(ValueError):
    """Input is not symmetric in the declared variable blocks."""


@dataclass(frozen=True)
class RankTriple:
    e: int  # rank of the source bundle (y-side)
    f: int  # rank of the target bundle (x-side)
    r: int  # rank bound

    def __post_init__(self):
        if not (0 <= self.r <= min(self.e, self.f)):
            raise ValueError(f"need 0 <= r <= min(e, f), got {self}")
        if self.e + self.f - self.r < 1:
            raise ValueError("empty triple")

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
        return Permutation(tuple(range(self.e + 1, self.n + 1))
                           + tuple(range(1, self.e + 1)))

    def expected_codim(self) -> int:
        return (self.e - self.r) * (self.f - self.r)


@dataclass(frozen=True)
class DPoly:
    triple: RankTriple
    theory: str  # Beta | CH | K0 | CK
    body: SparsePoly  # in c_1..c_f (x-side), d_1..d_e (y-side)
    slot_labels: tuple  # (label for the c-slots, label for the d-slots)


def specialize_nu(t: RankTriple, n_pad: int = 0) -> SparsePoly:
    """The family member for the triple's permutation nu.

    The walk starts at the dominant u = t.dominant(), whose member is the
    product over its rectangle, and applies phi along a reduced word of
    u^-1 nu: r(f - r) steps on x_1..x_f, so no variable beyond x_f or y_e
    appears.  ``n_pad`` runs the same steps inside S_{n + n_pad}."""
    if n_pad < 0:
        raise ValueError(f"n_pad must be >= 0, got {n_pad}")
    start = cell_product(beta_ring(), t.dominant().diagram(), oplus)
    return _walk(t, start, n_pad)


def _walk(t: RankTriple, start: SparsePoly, n_pad: int = 0) -> SparsePoly:
    """phi along the lex-smallest reduced word of u^-1 nu, in S_{n + n_pad}."""
    word = lex_smallest_reduced_word(t.dominant().inverse().compose(
        t.permutation()))
    ctx = OperatorContext(t.n + n_pad)
    return ctx.compose_word(word, start, ctx.phi_beta)


def _ck_body(t: RankTriple) -> SparsePoly:
    """The CK body: the walk started in the d-slots, then only the x-block
    rewritten.  A row of the start is prod_j (x + y_j + b x y_j) =
    sum_k x^(e - k) (1 + b x)^k d_k with d_0 = 1; phi never touches y."""
    ring = beta_ring()
    d = [1] + [SparsePoly.var(ring, f"d{k}") for k in range(1, t.e + 1)]
    start = SparsePoly.const(ring, 1)
    for x in (SparsePoly.var(ring, f"x{i}") for i in range(1, t.f - t.r + 1)):
        unit = 1 + SparsePoly.var(ring, "b") * x
        start *= sum(x ** (t.e - k) * unit ** k * d[k] for k in range(t.e + 1))
    return _reduce_block(_walk(t, start), *_blocks(t)[0])


def _blocks(t: RankTriple):
    """x_1..x_f, whose slots are c_i, and y_1..y_e, whose slots are d_j."""
    return (("c", [f"x{i}" for i in range(1, t.f + 1)]),
            ("d", [f"y{i}" for i in range(1, t.e + 1)]))


def _e_product(ring, block: list, exps: tuple) -> SparsePoly:
    """prod_j e_j(block)^exps[j-1], memoised by ring, block and exps, each
    built from the memoised product with one factor fewer, e_1 first."""
    p, done = SparsePoly.const(ring, 1), [0] * len(exps)
    for j, a in enumerate(exps):
        for k in range(1, a + 1):
            done[j] = k
            key = (ring, tuple(block), tuple(done))
            q = _ELEMENTARY_MEMO.get(key)
            if q is None:
                q = p * elementary_symmetric(ring, j + 1, block)
                _ELEMENTARY_MEMO.put(key, q)
            p = q
    return p


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
        for mu, c in _e_product(p.ring, block, exps).split(block).items():
            if _is_partition(mu):
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
    body = _CK_MEMO.get(t)
    if body is None:
        body = _ck_body(t)
        _CK_MEMO.put(t, body)
    if assignment[theory]:
        body = body.substitute(assignment[theory], ring=ZZ)
    d_label = "-c_j(Edual)" if theory == "ch" else "c_j(Edual)"
    return DPoly(t, theory.upper(), body, ("c_i(F)", d_label))
