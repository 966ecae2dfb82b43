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
from .perms import Permutation, lex_smallest_reduced_word, nu_triple
from .rings import SparsePoly, ZZ, beta_ring

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
    u = t.dominant()
    start = cell_product(beta_ring(), u.diagram(), oplus)
    word = lex_smallest_reduced_word(u.inverse().compose(t.permutation()))
    return OperatorContext(t.n + n_pad).compose_word(word, start, mode="beta")


def check_rect_symmetry(p: SparsePoly, t: RankTriple) -> bool:
    """Invariance under all adjacent swaps inside each block."""
    pairs = [(f"x{i}", f"x{i + 1}") for i in range(1, t.f)]
    pairs += [(f"y{j}", f"y{j + 1}") for j in range(1, t.e)]
    return all(p.substitute({a: SparsePoly.var(p.ring, b),
                             b: SparsePoly.var(p.ring, a)}) == p
               for a, b in pairs)


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
    symbols.  The leading exponents strictly decrease, so this stops,
    either with a remainder free of the block, which happens exactly when
    p is symmetric in it, or on a leading term that is not a partition."""
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
    (y-block); round-trip substitution recovers the input exactly.  It
    raises SymmetryError exactly when check_rect_symmetry rejects p."""
    xs = [f"x{i}" for i in range(1, t.f + 1)]
    ys = [f"y{j}" for j in range(1, t.e + 1)]
    body = _reduce_block(p, xs, "c")
    body = _reduce_block(body, ys, "d")
    return DPoly(t, "Beta", body, ("c_i(F)", "c_j(Edual)"))


def from_elementary(dp: DPoly) -> SparsePoly:
    """Substitute the elementary symmetric functions back in."""
    ring, t = dp.body.ring, dp.triple
    assignment = {}
    for out, var, k in (("c", "x", t.f), ("d", "y", t.e)):
        names = [f"{var}{i}" for i in range(1, k + 1)]
        for i in range(1, k + 1):
            assignment[f"{out}{i}"] = elementary_symmetric(ring, i, names)
    return dp.body.substitute(assignment)


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
    body = to_elementary(specialize_nu(t), t).body
    if assignment[theory]:
        body = body.substitute(assignment[theory], ring=ZZ)
    d_label = "-c_j(Edual)" if theory == "ch" else "c_j(Edual)"
    return DPoly(t, theory.upper(), body, ("c_i(F)", d_label))
