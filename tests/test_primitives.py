"""The polynomial primitives of flagcalc.rings and the paths built on them,
each against a reference kept here or in tests/:

* ``SparsePoly.split`` and ``SparsePoly.monomial`` against grouping the
  tuple monomials by hand, and as a round trip;
* ``sum_of_products`` against the sum of products in rings_reference,
  and with a bound against that sum truncated, also for pairs with the
  constant 1, which it shares or copies;
* ``divided_difference`` on several parts against the reference kernel;
* ``divide_monic`` against the division identity in reference
  arithmetic, and ``divide_by_difference`` on exact and inexact inputs;
* both, on inputs that cancel, storing no zero coefficient;
* ``FlagRingPresentation.reduce`` against the packed worklist in
  flagring_reference, and its tails against the reference's, whose
  complete homogeneous polynomials enumerate multisets;
* ``all_reduced_words`` against the recursive search;
* ``chern_tensor_dual`` against the product of the factors 1 + f t;
* the value classes, equal and hashed alike when built twice.

Hypothesis runs derandomised, so every run draws the same examples."""

from fractions import Fraction
from functools import reduce
from operator import mul

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rings_reference as ref
from hecke_reference import h_factor
from flagcalc import fgl
from flagcalc.flagring import FlagRingPresentation
from flagcalc.perms import Permutation, all_permutations, all_reduced_words
from flagcalc.porteous import RankTriple, thom_porteous
from flagcalc.rings import (
    MAX_EXP,
    QQ,
    ZZ,
    DivisionError,
    ExponentOverflowError,
    RingMismatchError,
    SparsePoly,
    TruncatedSeries,
    beta_ring,
    divide_by_difference,
    divide_monic,
    divided_difference,
    lazard_rational,
    sum_of_products,
)
from flagring_reference import ReferencePresentation

fixed = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40)

RINGS = {"ZZ": ZZ, "QQ": QQ, "Zb": beta_ring(), "Qm": lazard_rational(2)}
NAMES = ["x1", "x2", "x3", "y1", "c1"]


def _names(ring) -> list:
    if ring.kind == "BetaRing":
        return NAMES + ["b"]
    if ring.kind == "LazardRational":
        return NAMES + [f"m{k}" for k in range(1, ring.K + 1)]
    return NAMES


@st.composite
def raw_polys(draw, ring, names, max_terms: int = 5, max_exp: int = 3):
    """A term dict keyed by (name, exponent) tuples in canonical order."""
    coeffs = st.integers(-5, 5)
    if ring.rational:
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple((v, draw(st.integers(0, max_exp))) for v in names)
        mono = tuple(sorted(((v, e) for v, e in mono if e),
                            key=lambda p: ref._var_key(p[0])))
        terms[mono] = draw(coeffs)
    return terms


# -- split, monomial, sum_of_products -----------------------------------------

@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_split_and_monomial_round_trip(kind, data):
    ring = RINGS[kind]
    names = _names(ring)
    p = SparsePoly(ring, data.draw(raw_polys(ring, names), label="p"))
    keys = data.draw(st.lists(st.sampled_from(names + ["x4"]), max_size=4,
                              unique=True), label="keys")
    parts = p.split(keys)
    expected: dict = {}
    for mono, c in p.terms.items():
        exps = tuple(dict(mono).get(v, 0) for v in keys)
        rest = tuple((v, e) for v, e in mono if v not in keys)
        expected.setdefault(exps, {})[rest] = c
    assert parts == {e: SparsePoly(ring, t) for e, t in expected.items()}
    for exps, coeff in parts.items():
        assert coeff and coeff.ring == ring
        mono = SparsePoly.monomial(ring, keys, exps)
        assert mono == SparsePoly(
            ring, {tuple((v, e) for v, e in zip(keys, exps) if e): 1})
        assert mono.split(keys) == {exps: SparsePoly.const(ring, 1)}
    pairs = [(c, SparsePoly.monomial(ring, keys, e)) for e, c in parts.items()]
    assert sum_of_products(pairs, ring) == p


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_sum_of_products_matches_reference(kind, data):
    ring = RINGS[kind]
    names = _names(ring)
    raws = data.draw(st.lists(st.tuples(raw_polys(ring, names),
                                        raw_polys(ring, names)),
                              max_size=4), label="pairs")
    pairs = [(SparsePoly(ring, a), SparsePoly(ring, b)) for a, b in raws]
    expected = ref.RefPoly.zero(ring)
    for a, b in raws:
        expected = expected + ref.RefPoly(ring, a) * ref.RefPoly(ring, b)
    got = sum_of_products(pairs, ring)
    assert got.ring == ring
    assert dict(got.terms.items()) == expected.terms
    assert got.to_text() == expected.to_text()
    if pairs:
        assert got == reduce(lambda s, ab: s + ab[0] * ab[1], pairs,
                             SparsePoly.zero(ring))


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_bounded_sum_of_products_matches_truncated_reference(kind, data):
    """The bounded sum is the unbounded one truncated, at -1, 0, a drawn
    bound, the top degree and above it."""
    ring = RINGS[kind]
    names = _names(ring)
    raws = data.draw(st.lists(st.tuples(raw_polys(ring, names),
                                        raw_polys(ring, names)),
                              max_size=4), label="pairs")
    pairs = [(SparsePoly(ring, a), SparsePoly(ring, b)) for a, b in raws]
    full = ref.RefPoly.zero(ring)
    for a, b in raws:
        full = full + ref.RefPoly(ring, a) * ref.RefPoly(ring, b)
    top = full.degree()
    drawn = data.draw(st.integers(0, max(top, 0)), label="bound")
    for bound in (-1, 0, drawn, top, top + 1, MAX_EXP):
        got = sum_of_products(pairs, ring, bound)
        assert got.ring == ring
        assert dict(got.terms.items()) == full.truncate(bound).terms
    assert sum_of_products([], ring, drawn) == SparsePoly.zero(ring)


@pytest.mark.parametrize("kind", ["Zb", "Qm"])
def test_bound_does_not_count_generators(kind):
    ring = RINGS[kind]
    g = "b" if kind == "Zb" else "m1"
    x1, x2 = SparsePoly.var(ring, "x1"), SparsePoly.var(ring, "x2")
    p = SparsePoly.var(ring, g, 3) * x1 + x2
    q = SparsePoly.var(ring, g, 4) + x2 * x2
    got = sum_of_products([(p, q)], ring, 1)
    assert got == SparsePoly.var(ring, g, 7) * x1 + SparsePoly.var(
        ring, g, 4) * x2
    assert got == (p * q).truncate(1)


@pytest.mark.parametrize("kind", sorted(RINGS))
def test_bounded_sum_of_products_overflow_rule(kind):
    """An overflow in a kept term raises; one that only a pair above the
    bound would make does not, as that pair is never formed."""
    ring = RINGS[kind]
    half = (MAX_EXP + 1) // 2
    p = SparsePoly.var(ring, "x1", half) + SparsePoly.var(ring, "y1")
    q = SparsePoly.var(ring, "x2", half) + 1
    for bound in (None, 2 * half, 2 * MAX_EXP):
        with pytest.raises(ExponentOverflowError):
            sum_of_products([(p, q)], ring, bound)
    kept = sum_of_products([(p, q)], ring, half + 1)
    assert kept == p + SparsePoly.var(ring, "y1") * SparsePoly.var(
        ring, "x2", half)
    for g in [v for v in _names(ring) if v not in NAMES]:
        big = SparsePoly.var(ring, g, half)
        x1 = SparsePoly.var(ring, "x1")
        with pytest.raises(ExponentOverflowError):
            sum_of_products([(big * x1, big)], ring, 1)
        assert sum_of_products([(big * x1 * x1, big)], ring, 1).is_zero()


@pytest.mark.parametrize("kind", sorted(RINGS))
def test_sum_of_products_rejects_other_rings(kind):
    ring = RINGS[kind]
    other = ZZ if ring != ZZ else QQ
    x = SparsePoly.var(ring, "x1")
    y = SparsePoly.var(other, "x1")
    for pairs in ([(x, y)], [(y, x)], [(x, x), (y, y)]):
        with pytest.raises(RingMismatchError):
            sum_of_products(pairs, ring)
    with pytest.raises(RingMismatchError):
        sum_of_products([(x, x)], other)
    assert sum_of_products([], ring) == SparsePoly.zero(ring)


@pytest.mark.parametrize("kind", sorted(RINGS))
def test_sum_of_products_overflow_raises(kind):
    ring = RINGS[kind]
    half = (MAX_EXP + 1) // 2
    p = SparsePoly.var(ring, "x1", half) + SparsePoly.var(ring, "y1")
    q = SparsePoly.var(ring, "x2", half) + 1
    with pytest.raises(ExponentOverflowError):
        sum_of_products([(q, q), (p, q)], ring)
    with pytest.raises(ExponentOverflowError):
        p * q
    r = SparsePoly.var(ring, "x2", half - 1) + 1
    top = sum_of_products([(p, r)], ring)
    assert top.degree() == MAX_EXP and top == p * r


# -- the unit rule: a pair with the constant 1 forms no term pairs ------------

@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_unit_pairs_match_reference(kind, data):
    """The constant 1 as the only, the first and a middle pair, on either
    side of its pair, unbounded and at bounds below, at and above the top
    degree of its other factor."""
    ring = RINGS[kind]
    raws = data.draw(st.lists(raw_polys(ring, _names(ring)), min_size=3,
                              max_size=3), label="polys")
    p, q, r = (SparsePoly(ring, t) for t in raws)
    rp, rq, rr = (ref.RefPoly(ring, t) for t in raws)
    one, rone = SparsePoly.const(ring, 1), ref.RefPoly.const(ring, 1)
    top = p.degree()
    for unit, runit in [((one, p), (rone, rp)), ((p, one), (rp, rone))]:
        for pairs, rpairs in [([unit], [runit]),
                              ([unit, (q, r)], [runit, (rq, rr)]),
                              ([(q, r), unit, (r, q)],
                               [(rq, rr), runit, (rr, rq)])]:
            full = ref.RefPoly.zero(ring)
            for a, b in rpairs:
                full = full + a * b
            got = sum_of_products(pairs, ring)
            assert dict(got.terms.items()) == full.terms
            assert got.to_text() == full.to_text()
            for bound in (-1, top - 1, top, top + 1):
                got = sum_of_products(pairs, ring, bound)
                assert dict(got.terms.items()) == full.truncate(bound).terms
        assert dict((unit[0] * unit[1]).terms.items()) == rp.terms
    assert SparsePoly(ring, raws[0]) == p  # no factor was changed


@pytest.mark.parametrize("kind", sorted(RINGS))
def test_lone_unit_pair_shares_its_factor(kind):
    """A unit pair that is the whole sum gives its other factor itself,
    unless a term of it lies above the bound; p * 1 does the same."""
    ring = RINGS[kind]
    x1, y1 = SparsePoly.var(ring, "x1"), SparsePoly.var(ring, "y1")
    p = x1 * x1 * y1 + 3 * x1 + 2
    one = SparsePoly.const(ring, 1)
    for pair in [(one, p), (p, one), (one, x1), (x1, one)]:
        other = pair[1] if pair[0] is one else pair[0]
        top = other.degree()
        for bound in (None, top, top + 1, MAX_EXP):
            assert sum_of_products([pair], ring, bound) is other
        for bound in (-1, 0, top - 1):
            cut = sum_of_products([pair], ring, bound)
            assert cut is not other and cut == other.truncate(bound)
        assert pair[0] * pair[1] is other
    assert sum_of_products([(one, one)], ring) == one
    for unit in (1, Fraction(1), one):
        assert p * unit is p and unit * p is p and x1 * unit is x1
    text = p.to_text()
    assert sum_of_products([(one, p), (p, x1)], ring) == p + p * x1
    assert sum_of_products([(p, x1), (p, one)], ring) == p + p * x1
    assert p.to_text() == text


@pytest.mark.parametrize("kind", sorted(RINGS))
def test_unit_pair_checks_the_ring_first(kind):
    ring = RINGS[kind]
    other = ZZ if ring != ZZ else QQ
    one, x1 = SparsePoly.const(ring, 1), SparsePoly.var(ring, "x1")
    alien_one = SparsePoly.const(other, 1)
    alien_x1 = SparsePoly.var(other, "x1")
    for pairs in ([(alien_one, x1)], [(x1, alien_one)], [(one, alien_x1)],
                  [(alien_x1, one)], [(one, x1), (alien_one, x1)]):
        for bound in (None, 0, 5):
            with pytest.raises(RingMismatchError):
                sum_of_products(pairs, ring, bound)
    with pytest.raises(RingMismatchError):
        sum_of_products([(one, x1)], other)
    with pytest.raises(RingMismatchError):
        x1 * alien_one
    with pytest.raises(RingMismatchError):
        alien_one * x1


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_divided_difference_of_parts_matches_reference(kind, data):
    ring = RINGS[kind]
    names = _names(ring)
    parts = [SparsePoly(ring, raw) for raw in data.draw(
        st.lists(raw_polys(ring, names), min_size=1, max_size=3),
        label="parts")]
    i = data.draw(st.integers(1, 2), label="i")
    total = reduce(lambda s, q: s + q, parts)
    expected = ref.divided_difference(
        ref.RefPoly(ring, dict(total.terms.items())), i)
    got = divided_difference(parts, f"x{i}", f"x{i + 1}")
    assert dict(got.terms.items()) == expected.terms


# -- division by a polynomial monic in one variable ---------------------------

DIVISION_RINGS = {"ZZ": ZZ, "QQ": QQ, "Zb": beta_ring(),
                  "Qm": lazard_rational(3)}


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(DIVISION_RINGS))
@fixed
@given(data=st.data())
def test_divide_monic_matches_the_division_identity(kind, M, data):
    """p = q (x1^M - sum_j T_j x1^j) + r in reference arithmetic, with r
    of x1-degree below M, for random tails T_j free of x1."""
    ring = DIVISION_RINGS[kind]
    names = _names(ring)
    p = SparsePoly(ring, data.draw(raw_polys(ring, names, max_exp=M + 2),
                                   label="p"))
    rest = [v for v in names if v != "x1"]
    tail = [(j, SparsePoly(ring, data.draw(
        raw_polys(ring, rest, max_terms=3, max_exp=2), label=f"T{j}")))
        for j in range(M)]
    quotient, remainder = divide_monic(p, "x1", M, tail)

    def as_ref(q):
        return ref.RefPoly(ring, dict(q.terms.items()))

    x1 = ref.RefPoly.var(ring, "x1")
    divisor = x1 ** M
    for j, t in tail:
        divisor = divisor - as_ref(t) * x1 ** j
    q = ref.RefPoly.zero(ring)
    for a, c in quotient:
        q = q + as_ref(c) * x1 ** a
    assert (q * divisor + as_ref(remainder)).terms == as_ref(p).terms
    assert all(a < M for (a,) in remainder.split(("x1",)))
    # nothing to divide: every term below x1^M, or no term at all
    low = SparsePoly(ring, data.draw(raw_polys(ring, names, max_exp=M - 1),
                                     label="low"))
    for below in (low, SparsePoly.zero(ring)):
        assert divide_monic(below, "x1", M, tail) == ([], below)


@pytest.mark.parametrize("kind", sorted(DIVISION_RINGS))
@fixed
@given(data=st.data())
def test_divide_by_difference_is_exact_or_raises(kind, data):
    """(va - vb) q divided by (va - vb) is q; (va - vb) q + 1 is not
    divisible, and the error names the difference."""
    ring = DIVISION_RINGS[kind]
    q = SparsePoly(ring, data.draw(raw_polys(ring, _names(ring)), label="q"))
    for va, vb in [("x1", "x2"), ("x2", "y1")]:
        d = SparsePoly.var(ring, va) - SparsePoly.var(ring, vb)
        assert divide_by_difference(d * q, va, vb) == q
        message = re.escape(f"not divisible by ({va} - {vb})")
        with pytest.raises(DivisionError, match=f"^{message}$"):
            divide_by_difference(d * q + 1, va, vb)


def _stores_no_zero(p: SparsePoly) -> bool:
    return 0 not in dict(p.terms.items()).values()


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_cancelled_terms_are_not_stored(kind, data):
    """The pairs (p, q) and (-p, q) cancel in sum_of_products, bounded or
    not, and the divided difference of a part symmetric in x1, x2
    vanishes: the results store no zero coefficient, and are the zero
    polynomial when everything cancels."""
    ring = RINGS[kind]
    names = _names(ring)
    p, q, r, s = (SparsePoly(ring, data.draw(raw_polys(ring, names),
                                             label=label))
                  for label in "pqrs")
    cancelling = [(p, q), (-p, q)]
    for bound in (None, data.draw(st.integers(0, 12), label="bound")):
        assert sum_of_products(cancelling, ring, bound).is_zero()
        got = sum_of_products(cancelling + [(r, s)], ring, bound)
        assert _stores_no_zero(got)
        assert got == sum_of_products([(r, s)], ring, bound)
    x1, x2 = SparsePoly.var(ring, "x1"), SparsePoly.var(ring, "x2")
    symmetric = p + p.substitute({"x1": x2, "x2": x1})
    assert divided_difference([symmetric], "x1", "x2").is_zero()
    got = divided_difference([symmetric, r], "x1", "x2")
    assert _stores_no_zero(got)
    assert got == divided_difference([r], "x1", "x2")


@pytest.mark.parametrize("kind", ["QQ", "Qm"])
def test_rational_products_store_integral_values_as_ints(kind):
    """Over Q, an accumulator that mixes ints and Fractions stores an
    integral Fraction as an int and drops a term that cancels to 0."""
    ring = RINGS[kind]
    x1, x2 = SparsePoly.var(ring, "x1"), SparsePoly.var(ring, "x2")
    half = SparsePoly.const(ring, Fraction(1, 2))
    g = "m1" if kind == "Qm" else "x3"
    pairs = [(x1, x2), (half * x1, x2), (half * x1, x2),  # 1 + 1/2 + 1/2
             (half * x1, x1), (half * x1, x1), (-x1, x1),  # 1/2 + 1/2 - 1
             (half, x2), (SparsePoly.var(ring, g), x2)]
    want = {(("x1", 1), ("x2", 1)): 2, (("x2", 1),): Fraction(1, 2),
            (("x2", 1), (g, 1)): 1}
    for bound in (None, 5):
        got = dict(sum_of_products(pairs, ring, bound).terms.items())
        assert got == want
        assert type(got[(("x1", 1), ("x2", 1))]) is int
    # a monomial times a polynomial: 1/2 x2 times 2
    assert all(type(c) is int for c in ((x1 + half) * x2 * 2).terms.values())


# -- flag-ring normal forms ---------------------------------------------------

FLAG_RINGS = {"ZZ": ZZ, "Zb": beta_ring(), "Qm": lazard_rational(2)}


def _presentation(n: int, ring, symbolic: bool):
    make = FlagRingPresentation.symbolic if symbolic \
        else FlagRingPresentation.trivial
    return make(n, ring)


@st.composite
def flag_inputs(draw, ring, n: int):
    """a (b + x_1^n x_2^(n-1) ... x_n), a and b polynomials in x_1..x_n,
    c_1, y_1 (and b or m1): each term of a times the staircase reaches
    x_k^(n-k+1) for every k, so the elimination runs through all n
    steps."""
    xs = [f"x{k}" for k in range(1, n + 1)]
    names = xs + ["c1", "y1"] + [v for v in ("b", "m1") if v in _names(ring)]
    a = SparsePoly(ring, draw(raw_polys(ring, names, max_terms=4,
                                        max_exp=2)))
    b = SparsePoly(ring, draw(raw_polys(ring, names, max_terms=3,
                                        max_exp=2)))
    return a * (b + SparsePoly.monomial(ring, xs, range(n, 0, -1)))


@pytest.mark.parametrize("symbolic", [True, False],
                         ids=["symbolic", "trivial"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind", sorted(FLAG_RINGS))
@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(data=st.data())
def test_reduce_matches_reference(kind, n, symbolic, data):
    ring = FLAG_RINGS[kind]
    p = data.draw(flag_inputs(ring, n), label="p")
    cold = _presentation(n, ring, symbolic)
    expected = ReferencePresentation(n, cold.base_chern, ring).reduce(p)
    assert cold.reduce(p) == expected
    assert cold.reduce(expected) == expected


@pytest.mark.parametrize("symbolic", [True, False],
                         ids=["symbolic", "trivial"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("kind", sorted(FLAG_RINGS))
def test_tails_match_reference(kind, n, symbolic):
    """Each tail_k = x_k^M - G_k, power by power of x_k."""
    ring = FLAG_RINGS[kind]
    pres = _presentation(n, ring, symbolic)
    want = ReferencePresentation(n, pres.base_chern, ring)
    for k, (tail, terms) in enumerate(zip(pres._tails, want.tails), start=1):
        whole = SparsePoly._new(ring, {want._x_key(exps) + rest: c
                                       for exps, rest, c in terms})
        assert dict(tail) == {
            j: t for (j,), t in whole.split((f"x{k}",)).items()}


def test_presentation_sets_only_declared_fields():
    pres = FlagRingPresentation.symbolic(3, beta_ring())
    x1 = SparsePoly.var(pres.ring, "x1")
    pres.reduce(x1 ** 5)
    assert not hasattr(pres, "__dict__")
    fresh = FlagRingPresentation.symbolic(3, beta_ring())
    for name in FlagRingPresentation.__slots__:
        assert getattr(pres, name) == getattr(fresh, name)


def test_reduce_rejects_another_ring():
    """A normal-form input over another ring would need no rewriting."""
    pres = FlagRingPresentation.trivial(3, beta_ring())
    x1 = SparsePoly.var(ZZ, "x1")
    with pytest.raises(RingMismatchError):
        pres.reduce(x1)


# -- reduced words ------------------------------------------------------------

def _reduced_words_recursive(w: Permutation) -> tuple:
    if w.length() == 0:
        return ((),)
    return tuple(prefix + (i,) for i in w.right_descents()
                 for prefix in _reduced_words_recursive(w.right_multiply(i)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_all_reduced_words_match_recursive_search(n):
    for w in all_permutations(n):
        assert all_reduced_words(w) == _reduced_words_recursive(w)


# -- Chern classes of Hom(E, F) -----------------------------------------------

LAWS = {
    "additive": lambda D: fgl.make_additive(D),
    "mult_b": lambda D: fgl.make_multiplicative(
        SparsePoly.var(beta_ring(), "b"), D, beta_ring()),
    "mult_2": lambda D: fgl.make_multiplicative(2, D, beta_ring()),
    "universal": lambda D: fgl.make_universal_rational(D, D),
}


@pytest.mark.parametrize("D", [1, 3, 4])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_chern_tensor_matches_product_of_factors(law, D):
    """prod (1 + f t) with t left out of the degree, and prod f, each
    product formed in full and then truncated."""
    law = LAWS[law](D)
    ring = law.ring

    def as_ref(p):
        return ref.RefPoly(ring, dict(p.terms.items()))

    for e in range(3):
        for f in range(3):
            xs = [SparsePoly.var(ring, f"x{i}") for i in range(1, f + 1)]
            ys = [SparsePoly.var(ring, f"y{j}") for j in range(1, e + 1)]
            factors = [as_ref(law.sum_series(x, law.inverse_series(y)))
                       for x in xs for y in ys]
            one = ref.RefPoly.const(ring, 1)
            t = ref.RefPoly.var(ring, "t")
            chern = one
            for factor in factors:
                chern = (chern * (one + factor * t)).truncate(
                    D, exclude=("t",))
            top = reduce(mul, factors, one).truncate(D)
            got_chern, got_top = fgl.chern_tensor_dual(law, xs, ys)
            assert got_chern.to_text() == chern.to_text()
            assert got_top.to_text() == top.to_text()


# -- value classes ------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: lazard_rational(3),
    lambda: Permutation((2, 3, 1)),
    lambda: RankTriple(2, 1, 0),
    lambda: TruncatedSeries(SparsePoly.var(ZZ, "t", 3) + 1, 2),
    lambda: h_factor(3, 1, SparsePoly.var(beta_ring(), "x1")),
    lambda: thom_porteous(RankTriple(2, 1, 0), "ch"),
], ids=["ring", "permutation", "triple", "series", "hecke", "dpoly"])
def test_value_classes_compare_by_value(build):
    a, b = build(), build()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)


def test_hecke_element_is_no_tuple():
    e = h_factor(3, 1, SparsePoly.var(beta_ring(), "x1"))
    with pytest.raises(TypeError):
        2 * e
