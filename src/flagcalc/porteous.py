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
from .families import h_top
from .perms import Permutation, lex_smallest_reduced_word, longest_element, nu_triple
from .rings import SparsePoly, ZZ

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

    def expected_codim(self) -> int:
        return (self.e - self.r) * (self.f - self.r)


@dataclass(frozen=True)
class DPoly:
    triple: RankTriple
    theory: str  # Beta | CH | K0 | CK
    body: SparsePoly  # in c_1..c_f (x-side), d_1..d_e (y-side)
    slot_labels: tuple  # (label for the c-slots, label for the d-slots)


def specialize_nu(t: RankTriple, n_pad: int = 0) -> SparsePoly:
    """The family member for the triple's permutation with the variables
    beyond x_f and y_e set to zero.  ``n_pad`` computes inside a larger
    symmetric group to exercise stabilisation."""
    w = t.permutation()
    if n_pad:
        w = w.embed(w.n + n_pad)
    n = w.n
    # the recursion only touches x-variables, so the dead y-slots can be
    # zeroed before running it; building the product with them already
    # zero keeps the intermediate polynomials small
    start = h_top(n, t.e)
    word = lex_smallest_reduced_word(longest_element(n).compose(w))
    p = OperatorContext(n).compose_word(word, start, mode="beta")
    return p.substitute({f"x{i}": 0 for i in range(t.f + 1, n + 1)})


def check_rect_symmetry(p: SparsePoly, t: RankTriple) -> bool:
    """Invariance under all adjacent swaps inside each block."""
    def swapped(q, a, b):
        va = SparsePoly.var(q.ring, a)
        vb = SparsePoly.var(q.ring, b)
        return q.substitute({a: vb, b: va})
    for i in range(1, t.f):
        if swapped(p, f"x{i}", f"x{i + 1}") != p:
            return False
    for j in range(1, t.e):
        if swapped(p, f"y{j}", f"y{j + 1}") != p:
            return False
    return True


def elementary_symmetric(ring, k: int, names: list) -> SparsePoly:
    """e_k(names): the sum of the products of k distinct names."""
    return SparsePoly(ring, {tuple((v, 1) for v in combo): 1
                             for combo in combinations(names, k)})


def _reduce_block(p: SparsePoly, block: list, out_prefix: str) -> SparsePoly:
    """Rewrite a polynomial symmetric in ``block`` in the elementary
    symmetric functions of the block, emitted as out_prefix1..k.

    Leading-term subtraction: the block exponents of the leading term form
    a partition l_1 >= l_2 >= ...; subtract its coefficient times
    prod e_k^(l_k - l_{k+1}) and record the same product in the output
    symbols.  The leading partition strictly decreases, so this stops."""
    ring = p.ring
    k = len(block)
    es = [None] + [elementary_symmetric(ring, j, block) for j in range(1, k + 1)]
    out = SparsePoly.zero(ring)
    rest = p
    while True:
        parts = rest.split(block)
        best = max((e for e in parts if any(e)), default=None)
        if best is None:
            return out + rest
        if list(best) != sorted(best, reverse=True):
            raise SymmetryError(
                f"leading exponents {best} in {block} are not a partition; "
                "input not symmetric")
        # coefficient of the leading block-monomial (a poly in other vars)
        coeff = parts[best]
        lam = list(best) + [0]
        e_prod = SparsePoly.const(ring, 1)
        sym_prod = SparsePoly.const(ring, 1)
        for j in range(1, k + 1):
            mult = lam[j - 1] - lam[j]
            if mult:
                e_prod = e_prod * es[j] ** mult
                sym_prod = sym_prod * SparsePoly.var(
                    ring, f"{out_prefix}{j}", mult)
        rest = rest - coeff * e_prod
        out = out + coeff * sym_prod


def to_elementary(p: SparsePoly, t: RankTriple) -> DPoly:
    """Rewrite the doubly symmetric polynomial in c_i (x-block) and d_j
    (y-block); round-trip substitution recovers the input exactly."""
    if not check_rect_symmetry(p, t):
        raise SymmetryError("input is not symmetric in the two blocks")
    xs = [f"x{i}" for i in range(1, t.f + 1)]
    ys = [f"y{j}" for j in range(1, t.e + 1)]
    body = _reduce_block(p, xs, "c")
    body = _reduce_block(body, ys, "d")
    return DPoly(t, "Beta", body, ("c_i(F)", "c_j(Edual)"))


def from_elementary(dp: DPoly) -> SparsePoly:
    """Substitute the elementary symmetric functions back in."""
    ring = dp.body.ring
    t = dp.triple
    assignment = {}
    for i in range(1, t.f + 1):
        assignment[f"c{i}"] = elementary_symmetric(
            ring, i, [f"x{k}" for k in range(1, t.f + 1)])
    for j in range(1, t.e + 1):
        assignment[f"d{j}"] = elementary_symmetric(
            ring, j, [f"y{k}" for k in range(1, t.e + 1)])
    return dp.body.substitute(assignment)


def thom_porteous(t: RankTriple, theory: str = "ck") -> DPoly:
    """The universal polynomial for the rank <= r locus of a map E -> F.

    theory: "ck" keeps the symbolic parameter b, "ch" sets b = 0 and flips
    the sign of the d-slots (which then stand for -c_j(E)), "k0" sets
    b = -1."""
    theory = theory.lower()
    base = to_elementary(specialize_nu(t), t)
    if theory == "ck":
        return DPoly(t, "CK", base.body, ("c_i(F)", "c_j(Edual)"))
    if theory == "k0":
        body = base.body.substitute({"b": -1}, ring=ZZ)
        return DPoly(t, "K0", body, ("c_i(F)", "c_j(Edual)"))
    if theory == "ch":
        assignment = {"b": 0}
        for j in range(1, t.e + 1):
            assignment[f"d{j}"] = -SparsePoly.var(ZZ, f"d{j}")
        body = base.body.substitute(assignment, ring=ZZ)
        return DPoly(t, "CH", body, ("c_i(F)", "c_j(E)"))
    raise ValueError(f"unknown theory {theory!r}")
