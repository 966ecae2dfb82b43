"""The closed-form operators, the degree-bounded products and the
weak-order family memo against their references: the
substitute-swap-subtract-divide operators and the full-product reciprocal
in divdiff_reference, the universal-law class built with full products,
and h_w evaluated along an explicit reduced word.

Hypothesis runs derandomised, so every run draws the same examples."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divdiff_reference as ref
from flagcalc import families, memo
from flagcalc.divdiff import OperatorContext
from flagcalc.families import (
    beta_poly,
    beta_poly_via_word,
    bott_samelson_class,
    bott_samelson_initial,
)
from flagcalc.fgl import make_additive, make_multiplicative, make_universal_rational
from flagcalc.perms import (
    all_permutations,
    all_reduced_words,
    longest_element,
)
from flagcalc.rings import (
    ZZ,
    SparsePoly,
    TruncatedSeries,
    beta_ring,
    lazard_rational,
    series_reciprocal,
)

fixed = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40)

K = 3
RINGS = {"ZZ": ZZ, "Zb": beta_ring(), "Qm": lazard_rational(K)}


def _generators(ring) -> list:
    if ring.kind == "BetaRing":
        return ["b"]
    if ring.kind == "LazardRational":
        return [f"m{k}" for k in range(1, K + 1)]
    return []


@st.composite
def polys(draw, ring, nx: int, max_exp: int = 3):
    """Up to six terms in x_1..x_nx, y_1 and the ring's generators."""
    names = [f"x{k}" for k in range(1, nx + 1)] + ["y1"] + _generators(ring)
    coeffs = st.integers(-5, 5)
    if ring.rational:
        coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        c = draw(coeffs)
        term = SparsePoly(ring, {(): c})
        for v in names:
            term = term * SparsePoly.var(ring, v, draw(st.integers(0, max_exp)))
        for mono, tc in term.terms.items():
            terms[mono] = terms.get(mono, 0) + tc
    return SparsePoly(ring, terms)


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_phi_family_matches_reference(kind, data):
    ring = RINGS[kind]
    ctx = OperatorContext(4)
    p = data.draw(polys(ring, 4), label="p")
    i = data.draw(st.integers(1, 3), label="i")
    beta = data.draw(polys(ring, 4, max_exp=1), label="beta")
    assert ctx.partial(i, p) == ref.partial(i, p)
    assert ctx.pi_op(i, p) == ref.pi_op(i, p)
    assert ctx.phi_param(i, p, beta) == ref.phi(i, p, beta)
    assert ctx.phi_param(i, p, -2) == ref.phi(i, p, -2)
    if ring.kind == "BetaRing":
        assert ctx.phi_beta(i, p) == ref.phi_beta(i, p)


def _laws(D: int) -> dict:
    ring = beta_ring()
    b = SparsePoly.var(ring, "b")
    return {
        "additive-ZZ": make_additive(D, ZZ),
        "additive-Zb": make_additive(D, ring),
        "multiplicative-b": make_multiplicative(b, D, ring),
        "multiplicative-2": make_multiplicative(2, D, ring),
        "multiplicative-5": make_multiplicative(5, D, ring),
        # one lower, as before: the universal law costs the most
        "universal": make_universal_rational(D - 1, D - 1),
    }


# each law at two bounds, so A_op runs at D and D - 1
LAWS = {D: _laws(D) for D in (4, 5)}


@pytest.mark.parametrize("name", sorted(LAWS[5]))
@fixed
@given(data=st.data())
def test_A_op_matches_reference(name, data):
    law = LAWS[data.draw(st.sampled_from(sorted(LAWS)), label="D")][name]
    ctx = OperatorContext(3, fgl=law)
    p = data.draw(polys(law.ring, 3, max_exp=2), label="p")
    i = data.draw(st.integers(1, 2), label="i")
    assert ctx.A_op(i, p) == ref.A_op(law, law.D, i, p)


@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_series_reciprocal_matches_full_products(kind, data):
    ring = RINGS[kind]
    p = data.draw(polys(ring, 2, max_exp=2), label="p")
    units = [1, -1, 3, Fraction(-2, 5)] if ring.rational else [1, -1]
    s = p - p.constant_term() + data.draw(st.sampled_from(units), label="c")
    D = data.draw(st.integers(0, 6), label="D")
    got = series_reciprocal(TruncatedSeries(s, D)).body
    assert got == ref.reciprocal(s, D)


@pytest.mark.parametrize("n,D", [(3, 3), (3, 5), (3, 7), (4, 6), (4, 7)])
def test_universal_class_matches_full_product_build(n, D):
    """Every reduced word of length <= 3 in S_n, against the initial
    product formed in full and truncated, then the reference A_op."""
    law = make_universal_rational(D, D)
    ring = law.ring
    initial = SparsePoly.const(ring, 1)
    for i, j in longest_element(n).diagram():
        x, y = SparsePoly.var(ring, f"x{i}"), SparsePoly.var(ring, f"y{j}")
        initial = (initial * law.sum_series(x, y)).truncate(D)
    assert bott_samelson_initial(law, n) == initial
    words = {word for w in all_permutations(n) if w.length() <= 3
             for word in all_reduced_words(w)}
    built = {(): initial}
    for word in sorted(words, key=lambda word: (len(word), word))[1:]:
        built[word] = ref.A_op(law, D, word[-1], built[word[:-1]])
        assert bott_samelson_class(law, word, n) == built[word]


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(order=st.permutations(list(all_permutations(4))), data=st.data())
def test_memo_fill_order_is_word_independent(order, data):
    families._FAMILY_MEMO.clear()
    w0 = longest_element(4)
    for w in order:
        word = data.draw(st.sampled_from(all_reduced_words(w0.compose(w))))
        assert beta_poly(w) == beta_poly_via_word(w, word)


def _count_phi(monkeypatch) -> list:
    calls = []
    original = OperatorContext.phi_beta

    def counted(self, i, p):
        calls.append(i)
        return original(self, i, p)

    monkeypatch.setattr(OperatorContext, "phi_beta", counted)
    return calls


def test_full_sweep_costs_one_application_per_member(monkeypatch):
    families._FAMILY_MEMO.clear()
    calls = _count_phi(monkeypatch)
    for w in all_permutations(4):
        beta_poly(w)
    assert len(calls) == 24 - 1


def test_s4_in_s5_walks_share_the_trunk(monkeypatch):
    families._FAMILY_MEMO.clear()
    calls = _count_phi(monkeypatch)
    for w in all_permutations(4):
        beta_poly(w.embed(5))
    assert len(calls) == 33
    assert families._FAMILY_MEMO.terms <= memo.MAX_TERMS


class TestTermMemo:
    def _poly(self, size):
        ring = beta_ring()
        return SparsePoly(ring, {((f"x{k}", 1),): 1 for k in range(1, size + 1)})

    def test_counts_hits_and_misses(self):
        m = memo.TermMemo()
        assert m.get("a") is None
        m.put("a", self._poly(2))
        assert m.get("a") == self._poly(2)
        assert (m.hits, m.misses, m.terms) == (1, 1, 2)

    def test_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(memo, "MAX_TERMS", 5)
        m = memo.TermMemo()
        m.put("a", self._poly(2))
        m.put("b", self._poly(2))
        m.get("a")
        m.put("c", self._poly(2))
        assert m.get("b") is None
        assert m.get("a") is not None and m.get("c") is not None
        assert m.terms == 4

    def test_oversized_value_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(memo, "MAX_TERMS", 5)
        m = memo.TermMemo()
        m.put("a", self._poly(2))
        m.put("big", self._poly(6))
        assert m.get("big") is None
        assert m.get("a") is not None

