"""Packed-integer SparsePoly against the tuple-monomial reference in
rings_reference, the exponent limit, and the parse round trip.

Every polynomial is drawn once as a tuple-keyed dict and built both ways;
results must agree term for term and render to the same text, JSON and
LaTeX.  Hypothesis runs derandomised, so every run draws the same
examples."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rings_reference as ref
from test_layout import _fresh
from flagcalc import rings
from flagcalc.cli import parse_poly
from flagcalc.divdiff import OperatorContext
from flagcalc.families import bott_samelson_class
from flagcalc.fgl import make_universal_rational
from flagcalc.hecke import alternative_product
from flagcalc.rings import (
    MAX_EXP,
    QQ,
    ZZ,
    DivisionError,
    ExponentOverflowError,
    SparsePoly,
    beta_ring,
    divide_by_difference,
    lazard_rational,
)

fixed = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40)

RINGS = {"ZZ": ZZ, "QQ": QQ, "Zb": beta_ring(), "Qm": lazard_rational(3)}
GEOMETRIC = ["x1", "x2", "x3", "y1", "t", "c1"]


def _names(ring) -> list:
    if ring.kind == "BetaRing":
        return GEOMETRIC + ["b"]
    if ring.kind == "LazardRational":
        return GEOMETRIC + ["m1", "m2", "m3"]
    return GEOMETRIC


@st.composite
def raw_polys(draw, ring, max_terms: int = 6, max_exp: int = 3):
    """A tuple-keyed term dict over the ring's variables."""
    names = draw(st.lists(st.sampled_from(_names(ring)), min_size=1,
                          max_size=4, unique=True))
    coeffs = st.integers(-6, 6)
    if ring.rational:
        coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple((v, draw(st.integers(0, max_exp))) for v in names)
        mono = tuple(sorted(((v, e) for v, e in mono if e),
                            key=lambda p: ref._var_key(p[0])))
        terms[mono] = draw(coeffs)
    return terms


def both(ring, raw):
    return SparsePoly(ring, raw), ref.RefPoly(ring, raw)


def assert_same(p: SparsePoly, r: ref.RefPoly):
    assert p.ring == r.ring
    assert p.terms == r.terms
    assert len(p) == len(p.terms) == len(r.terms)
    assert p.to_text() == r.to_text()
    assert p.to_json_obj() == r.to_json_obj()
    assert p.to_latex() == r.to_latex()


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_arithmetic_matches_reference(kind, data):
    ring = RINGS[kind]
    p, rp = both(ring, data.draw(raw_polys(ring), label="p"))
    q, rq = both(ring, data.draw(raw_polys(ring), label="q"))
    assert_same(p, rp)
    assert_same(p * q, rp * rq)
    assert_same(p + q, rp + rq)
    assert_same(p - q, rp - rq)
    assert_same(-p, -rp)
    assert_same(p * 3, rp * 3)
    n = data.draw(st.integers(0, 3), label="n")
    assert_same(p ** n, rp ** n)
    assert (p == q) == (rp == rq)


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_terms_is_a_new_plain_dict(kind, data):
    ring = RINGS[kind]
    p, rp = both(ring, data.draw(raw_polys(ring), label="p"))
    terms = p.terms
    assert type(terms) is dict and terms == rp.terms
    assert len(p) == len(terms)
    terms[(("x1", 9),)] = 1
    terms.pop((), None)
    assert p.terms == rp.terms and p.terms is not p.terms


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_truncation_and_degree_match_reference(kind, data):
    ring = RINGS[kind]
    p, rp = both(ring, data.draw(raw_polys(ring, max_exp=4), label="p"))
    bound = data.draw(st.integers(-1, 10), label="bound")
    assert_same(p.truncate(bound), rp.truncate(bound))
    assert_same(p.homogeneous_part(bound), rp.homogeneous_part(bound))
    assert p.degree() == rp.degree()
    assert_same(p.constant_term(), rp.constant_term())
    assert p.variables() == rp.variables()
    for mono in rp.terms:
        assert p.coeff(mono) == rp.coeff(mono)


@st.composite
def assignments(draw, source, target):
    """Images over target for one to three variables of source (numbers,
    monomials and polynomials, built both ways)."""
    ours, theirs = {}, {}
    for v in draw(st.lists(st.sampled_from(_names(source)), min_size=1,
                           max_size=3, unique=True), label="targets"):
        choice = draw(st.integers(0, 2), label=f"image of {v}")
        if choice == 0:
            value = draw(st.integers(-2, 2), label="value")
            ours[v] = theirs[v] = value
        else:
            # a monomial (choice 1) or a polynomial (choice 2) image
            raw = draw(raw_polys(target, max_terms=1 if choice == 1 else 3,
                                 max_exp=2), label="image")
            ours[v], theirs[v] = both(target, raw)
    return ours, theirs


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_substitute_matches_reference(kind, data):
    ring = RINGS[kind]
    p, rp = both(ring, data.draw(raw_polys(ring), label="p"))
    ours, theirs = data.draw(assignments(ring, ring), label="assignment")
    assert_same(p.substitute(ours), rp.substitute(theirs))


@pytest.mark.parametrize("target", sorted(RINGS))
@pytest.mark.parametrize("source", sorted(RINGS))
@fixed
@given(data=st.data())
def test_substitute_into_another_ring_matches_reference(source, target,
                                                        data):
    """The result lives in the target: from Q into Z or Z[b], an integral
    coefficient becomes an int and another raises ValueError, and a term
    left with a generator the target lacks raises RingMismatchError."""
    source, target = RINGS[source], RINGS[target]
    p, rp = both(source, data.draw(raw_polys(source), label="p"))
    ours, theirs = data.draw(assignments(source, target), label="assignment")
    try:
        expected = rp.substitute(theirs, ring=target)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            p.substitute(ours, ring=target)
        assert raised.type is type(exc)
    else:
        assert_same(p.substitute(ours, ring=target), expected)


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_division_and_kernel_match_reference(kind, data):
    ring = RINGS[kind]
    p, rp = both(ring, data.draw(raw_polys(ring), label="p"))
    i = data.draw(st.integers(1, 2), label="i")
    ctx = OperatorContext(3)
    assert_same(ctx.partial(i, p), ref.divided_difference(rp, i))
    xi, xj = f"x{i}", f"x{i + 1}"
    d, rd = both(ring, {((xi, 1),): 1, ((xj, 1),): -1})
    assert_same(divide_by_difference(p * d, xi, xj),
                ref.divide_by_difference(rp * rd, xi, xj))
    if p.substitute({xi: SparsePoly.var(ring, xj)}):
        with pytest.raises(DivisionError):
            divide_by_difference(p, xi, xj)
        with pytest.raises(DivisionError):
            ref.divide_by_difference(rp, xi, xj)


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_parse_round_trip(kind, data):
    ring = RINGS[kind]
    p = SparsePoly(ring, data.draw(raw_polys(ring), label="p"))
    assert parse_poly(p.to_text(), ring) == p


# Names for the rendering property.  y29 and d17 take their packed fields
# before x29 and c17 do, so field order runs against the canonical order;
# no other test names them.
LATE = ["y29", "x29", "d17", "c17"]
for _name in LATE:
    SparsePoly.var(ZZ, _name)
WIDE = LATE + ["x1", "x2", "x3", "y1", "y2", "c1", "c2", "d1", "t"]
WIDE_RINGS = {"ZZ": ZZ, "QQ": QQ, "Zb": beta_ring(), "Qm": lazard_rational(8)}


@st.composite
def wide_polys(draw, ring):
    """Up to 40 terms in up to 8 variables of the x, y, c, d, t, b and m_k
    blocks; drawing no names gives a constant or the zero polynomial, and
    the leading term's coefficient is at times 1 or -1."""
    pool = WIDE + {"BetaRing": ["b"], "LazardRational": ["m1", "m3", "m8"]
                   }.get(ring.kind, [])
    names = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    coeffs = st.integers(-9, 9)
    if ring.rational:
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    terms = {}
    for _ in range(draw(st.integers(0, 40))):
        mono = tuple((v, draw(st.integers(0, 3))) for v in names)
        mono = tuple(sorted(((v, e) for v, e in mono if e),
                            key=lambda p: ref._var_key(p[0])))
        terms[mono] = draw(coeffs)
    lead = draw(st.sampled_from([None, 1, -1]))
    order = ref.RefPoly(ring, terms)._sorted_terms()
    if lead and order:
        terms[order[0][0]] = lead
    return terms


@st.composite
def wide_key_polys(draw, ring):
    """2 to 12 terms in 2 to 5 variables, whose print keys take more than
    one character.  The first variable's exponents are at most 3; the
    second's lie around 32, or around 32 and 1024, and in the first term
    it is one of the two highest, so the total degree reaches 32 or 1024;
    every other variable takes one of the two kinds."""
    pool = WIDE + {"BetaRing": ["b"], "LazardRational": ["m1", "m3", "m8"]
                   }.get(ring.kind, [])
    names = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5,
                          unique=True))
    narrow = [0, 1, 2, 3]
    wide = draw(st.sampled_from([[31, 32, 33],
                                 [31, 32, 33, 1023, 1024, 1025]]))
    cols = [narrow, [0] + wide] + [
        draw(st.sampled_from([narrow, [0] + wide])) for _ in names[2:]]
    coeffs = st.integers(-9, 9)
    if ring.rational:
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    terms = {}
    for k in range(draw(st.integers(2, 12))):
        exps = [draw(st.sampled_from(col)) for col in cols]
        if k == 0:
            exps[1] = draw(st.sampled_from(wide[-2:]))
        mono = tuple(sorted(((v, e) for v, e in zip(names, exps) if e),
                            key=lambda p: ref._var_key(p[0])))
        terms[mono] = draw(coeffs)
    return terms


# pieces of names that the reference's [a-zA-Z]+ then \d* reads in its
# own way: decimal digits of other scripts (Arabic-Indic), letters outside
# ASCII (e acute, the Kelvin sign), a digit that is not decimal (the
# superscript 2), and long runs of digits
NAME_PIECES = ["x", "b", "m", "Zy", "\u00e9", "\u212a", "1", "07", "\u0661",
               "\u0663", "\u00b2", "a", "_", " "]
NAMES = st.one_of(
    st.lists(st.sampled_from(NAME_PIECES), max_size=4).map("".join),
    st.builds(lambda stem, digit, k: stem + digit * k,
              st.sampled_from(["", "x", "\u00e9", "1x"]),
              st.sampled_from(["9", "\u0661"]), st.integers(20, 80)))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(name=NAMES)
@example("x\u0661")
@example("\u00e91")
@example("1x")
@example("x1a")
@example("")
@example("x" + "7" * 60)
def test_name_splitting_matches_reference(name):
    """rings._var_key accepts and rejects the reference's names, with its
    stem and index; to_latex's label prints the stem, then the rest."""
    m = ref._VAR_RE.fullmatch(name)
    if m is None:
        with pytest.raises(ValueError, match="bad variable name"):
            rings._var_key(name)
    else:
        key = rings._var_key(name)
        assert key == ref._var_key(name)
        assert (key[1], name[len(key[1]):]) == m.groups()


@pytest.mark.parametrize("name", ["x\u0661", "xy\u0663\u0664",
                                  "x" + "7" * 60, "Q12"], ids=ascii)
def test_rendering_of_unusual_names_matches_reference(name):
    assert_same(*both(ZZ, {((name, 2),): 1, ((name, 1),): -3}))


def test_late_names_have_late_fields():
    from flagcalc import rings
    assert rings._SLOTS["y29"] < rings._SLOTS["x29"]
    assert rings._SLOTS["d17"] < rings._SLOTS["c17"]


# built alike in the interpreter that pickles and the one that loads: a
# polynomial over each ring and a Hecke element
_VALUES = """
from fractions import Fraction
from flagcalc.hecke import HeckeElement
from flagcalc.perms import Permutation
from flagcalc.rings import QQ, ZZ, SparsePoly, beta_ring, lazard_rational
Zb = beta_ring()
values = [
    SparsePoly(ZZ, {(("x1", 1),): 1, (("y1", 1),): 2}),
    SparsePoly(QQ, {(("x2", 2), ("t", 1)): Fraction(1, 3), (): -1}),
    SparsePoly(Zb, {(("y2", 1), ("b", 1)): 3, (("x1", 1),): 1}),
    SparsePoly(lazard_rational(2), {(("x3", 1), ("m2", 1)): Fraction(-1, 2)}),
    HeckeElement.from_dict(3, {
        Permutation((1, 2, 3)): SparsePoly.const(Zb, 1),
        Permutation((1, 3, 2)): SparsePoly(Zb, {(("x2", 1),): 1, (("y1", 1),): -1})})]
"""


def test_pickle_writes_names_not_fields(tmp_path):
    """A pickle loads as the same values in an interpreter that registered
    the variable names, and so numbered the fields, in another order."""
    path = str(tmp_path / "values.pickle")
    _fresh(_VALUES + f"import pickle\npickle.dump(values, open({path!r}, 'wb'))")
    assert _fresh(
        "from flagcalc.rings import SparsePoly, ZZ\n"
        "SparsePoly.monomial(ZZ, ['z7', 'm2', 'y2', 't', 'x3', 'b', 'y1',"
        " 'x2', 'x1'], [1] * 9)\n"
        f"import pickle\nloaded = pickle.load(open({path!r}, 'rb'))\n"
        + _VALUES + "print(loaded == values)") == "True\n"
    here: dict = {}
    exec(_VALUES, here)
    for v in here["values"]:
        for twin in (copy.copy(v), copy.deepcopy(v),
                     pickle.loads(pickle.dumps(v))):
            assert twin == v


@pytest.mark.parametrize("kind", sorted(WIDE_RINGS))
@fixed
@given(data=st.data())
def test_rendering_matches_reference(kind, data):
    ring = WIDE_RINGS[kind]
    assert_same(*both(ring, data.draw(wide_polys(ring), label="p")))


@pytest.mark.parametrize("kind", sorted(WIDE_RINGS))
@fixed
@given(data=st.data())
def test_rendering_of_wide_keys_matches_reference(kind, data):
    ring = WIDE_RINGS[kind]
    p, r = both(ring, data.draw(wide_key_polys(ring), label="p"))
    assert_same(p, r)
    assert min(map(ord, p.to_text() + p.to_latex())) >= ord(" ")


@pytest.mark.parametrize("kind", sorted(WIDE_RINGS))
@pytest.mark.parametrize("raw", [
    {}, {(): 1}, {(): -1}, {(): 7}, {(): -7},
    {(): 1, (("x29", 1),): -1}, {(): -1, (("y29", 2),): 1},
    {(("x1", 1),): -1, (("y29", 1), ("d17", 2)): 3},
    {(("c17", 1),): 1, (("x1", 1), ("y1", 1)): -1},
], ids=repr)
def test_rendering_edge_cases(kind, raw):
    assert_same(*both(WIDE_RINGS[kind], raw))


@pytest.mark.parametrize("kind", sorted(WIDE_RINGS))
@pytest.mark.parametrize("raw", [
    {(("x1", 16384),): 1, (("x1", 1),): 1},
    {(("x1", 16384),): -2, (("x1", 1), ("y29", 40)): 3, (): 1},
    {(("x1", 20), ("c17", 20)): 1, (): -1},
    {(("y1", 32767),): Fraction(1, 1), (("t", 31),): 5, (("x29", 1024),): -1},
    {(("x1", i), ("y1", j)): i - j for i in range(1, 33)
     for j in range(1, 33)},
], ids=["x1^16384+x1", "mixed", "wide-total", "top-exponent", "dense"])
def test_rendering_of_sparse_high_powers(kind, raw):
    """Bounds far above the number of terms, and one below it; b and the
    m_k add to the total degree."""
    ring = WIDE_RINGS[kind]
    assert_same(*both(ring, raw))
    gen = {"BetaRing": "b", "LazardRational": "m8"}.get(ring.kind)
    if gen:
        raw = {tuple(sorted(mono + ((gen, 40),),
                            key=lambda pair: ref._var_key(pair[0]))): c
               for mono, c in raw.items()}
        assert_same(*both(ring, raw))


@pytest.mark.parametrize("c", [Fraction(-1, 2), Fraction(-7, 3),
                               Fraction(5, 4)], ids=str)
def test_rendering_fractions(c):
    for raw in ({(): c}, {(("x29", 1),): c, (): -c},
                {(("y29", 1),): -1, (("x1", 2),): c}):
        assert_same(*both(QQ, raw))


def test_rendering_of_the_alternative_product():
    for _, c in alternative_product(4).coeffs:
        assert_same(c, ref.RefPoly(c.ring, dict(c.terms.items())))


def test_rendering_of_a_universal_class():
    """The universal Bott-Samelson class at n = 4, D = 8 (3,333 terms in
    x, y and m1..m5, so the m_k columns count in the total degree); its
    coefficients are integers, and at m1 = 1/2 a sixth are fractions."""
    c = bott_samelson_class(make_universal_rational(8, 8), (1, 2, 1), 4)
    for p in (c, c.substitute({"m1": Fraction(1, 2)})):
        assert_same(p, ref.RefPoly(p.ring, dict(p.terms.items())))


class TestExponentLimit:
    """Exponents and the geometric degree stop at MAX_EXP = 2^15 - 1; a
    result that would pass it raises and never wraps."""

    def test_largest_exponent_is_exact(self):
        ring = beta_ring()
        x = SparsePoly.var(ring, "x1", MAX_EXP - 1) * \
            SparsePoly.var(ring, "x1")
        assert x.to_text() == f"x1^{MAX_EXP}"
        b = SparsePoly.var(ring, "b", MAX_EXP) * SparsePoly.var(ring, "y1", 7)
        assert b.to_text() == f"y1^7 b^{MAX_EXP}"

    @fixed
    @given(e1=st.integers(0, MAX_EXP - 3), e2=st.integers(0, MAX_EXP),
           v=st.sampled_from(["x1", "b", "y2"]), other=st.integers(0, 3))
    def test_product_overflow_raises(self, e1, e2, v, other):
        ring = beta_ring()
        p = SparsePoly.var(ring, v, e1) * SparsePoly.var(ring, "x3", other)
        q = SparsePoly.var(ring, v, e2)
        geometric = v != "b"
        over = e1 + e2 > MAX_EXP or geometric and e1 + e2 + other > MAX_EXP
        if over:
            with pytest.raises(ExponentOverflowError):
                p * q
        else:
            expected = {((v, e1 + e2), ("x3", other)): 1}
            assert p * q == SparsePoly(ring, expected)

    def test_geometric_degree_is_bounded(self):
        ring = ZZ
        half = (MAX_EXP + 1) // 2
        x = SparsePoly.var(ring, "x1", half)
        with pytest.raises(ExponentOverflowError):
            x * SparsePoly.var(ring, "y1", half)
        with pytest.raises(ExponentOverflowError):
            SparsePoly(ring, {(("x1", half), ("y1", half)): 1})

    def test_power_and_constructors_raise(self):
        ring = beta_ring()
        with pytest.raises(ExponentOverflowError):
            SparsePoly.var(ring, "x1", 200) ** 200
        with pytest.raises(ExponentOverflowError):
            SparsePoly.var(ring, "x1", MAX_EXP + 1)
        with pytest.raises(ExponentOverflowError):
            SparsePoly(ring, {(("b", 99999999999),): 1})

    @fixed
    @given(e=st.integers(1, 400), k=st.integers(1, 400),
           f=st.integers(0, 3), poly=st.booleans())
    def test_substitute_overflow_raises(self, e, k, f, poly):
        ring = QQ
        p = SparsePoly.var(ring, "x1", e) * SparsePoly.var(ring, "y1", f)
        image = SparsePoly.var(ring, "y1", k)
        if poly:
            image = image + SparsePoly.var(ring, "y2", k)
        if e * k + f > MAX_EXP:
            with pytest.raises(ExponentOverflowError):
                p.substitute({"x1": image})
        else:
            assert p.substitute({"x1": image}).coeff(
                (("y1", e * k + f),)) == 1

    def test_operators_raise(self):
        ring = beta_ring()
        top = SparsePoly.var(ring, "x2", MAX_EXP)
        with pytest.raises(ExponentOverflowError):
            OperatorContext(2).phi_beta(1, top)
        # the carries of the synthetic division raise b's exponent
        p = SparsePoly.var(ring, "x1", 2) * SparsePoly.var(ring, "b", MAX_EXP)
        with pytest.raises(ExponentOverflowError):
            divide_by_difference(p, "x1", "b")
