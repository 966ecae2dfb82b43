"""The closed-form operators, the degree-bounded products and the
family memo against their references: the
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
    cell_product,
)
from flagcalc.fgl import make_additive, make_multiplicative, make_universal_rational
from flagcalc.perms import (
    Permutation,
    all_permutations,
    all_reduced_words,
    identity,
    longest_element,
)
from flagcalc.rings import (
    ZZ,
    SparsePoly,
    beta_ring,
    lazard_rational,
    series_reciprocal,
    sum_of_products,
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
    got = series_reciprocal(s, D)
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


@pytest.mark.parametrize("law", ["universal", "multiplicative"])
@pytest.mark.parametrize("n,D", [(2, 1), (2, 2), (2, 4), (3, 2), (3, 3),
                                 (3, 5), (3, 7), (4, 5), (4, 6), (4, 8),
                                 (5, 9), (5, 10), (5, 12)])
def test_bounded_cell_product_is_the_truncated_full_product(law, n, D):
    """cell_product bounds the product of the first k of m cells at
    D - (m - k).  The reference forms each partial product in full and
    truncates it at D: the terms above D form an ideal, so that is the full
    product truncated at D.  For the universal law at n = 5 a full product
    takes 3 to 15 s on a 2-vCPU x86-64 host, so there the reference bounds
    each partial product at D instead.  The initial class of S_n starts in
    degree m = n(n - 1)/2, so at D = m - 1 it is 0."""
    if law == "universal":
        fgl = make_universal_rational(D, D)
    else:
        fgl = make_multiplicative(SparsePoly.var(beta_ring(), "b"), D)
    ring, cells = fgl.ring, longest_element(n).diagram()
    each = D if (law, n) == ("universal", 5) else None
    want = SparsePoly.const(ring, 1)
    for i, j in cells:
        x, y = SparsePoly.var(ring, f"x{i}"), SparsePoly.var(ring, f"y{j}")
        want = sum_of_products([(want, fgl.sum_series(x, y))], ring,
                               each).truncate(D)
    got = cell_product(ring, cells, fgl.sum_series, D)
    assert got == want
    assert got.is_zero() is (D < len(cells))


def test_universal_initial_class_at_n5():
    """n = 5 at D = 10, the lowest bound at which the class is nonzero.
    Each of the ten factors F(x_i, y_j) of the initial product is x_i + y_j
    plus terms of degree 2 and more, so only the linear parts reach degree
    10.  On a 2-vCPU x86-64 host the full products of the test above would
    take 22 s, and each letter of a word through the reference A_op 1.1 s
    for a new index and 0.5 s for one whose 1/g it has built."""
    law = make_universal_rational(10, 10)
    ring = law.ring
    initial = SparsePoly.const(ring, 1)
    for i, j in longest_element(5).diagram():
        x, y = SparsePoly.var(ring, f"x{i}"), SparsePoly.var(ring, f"y{j}")
        initial *= x + y
    assert bott_samelson_initial(law, 5) == initial


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


def _count_tops(monkeypatch) -> list:
    tops = []
    original = families.h_top

    def counted(n):
        tops.append(n)
        return original(n)

    monkeypatch.setattr(families, "h_top", counted)
    return tops


def _count_chains(monkeypatch) -> list:
    chained = []
    original = families._pruned_chain

    def counted(w):
        chained.append(w)
        return original(w)

    monkeypatch.setattr(families, "_pruned_chain", counted)
    return chained


def test_full_sweep_chains_once_per_member(monkeypatch):
    # each member of S_4 is one chain, under the key without its fixed
    # tail, and neither a phi nor a top class; a second sweep reads the memo
    families._FAMILY_MEMO.clear()
    calls, tops = _count_phi(monkeypatch), _count_tops(monkeypatch)
    chained = _count_chains(monkeypatch)
    for _ in range(2):
        for w in all_permutations(4):
            beta_poly(w)
        assert chained == [families._stable(w) for w in all_permutations(4)]
    assert calls == [] and tops == []


def test_s4_in_s5_chains_share_the_s4_keys(monkeypatch):
    # the chains run in S_4, under the keys the sweep of S_4 uses
    families._FAMILY_MEMO.clear()
    calls, chained = _count_phi(monkeypatch), _count_chains(monkeypatch)
    for w in all_permutations(4):
        beta_poly(w.embed(5))
    assert chained == [families._stable(w) for w in all_permutations(4)]
    assert calls == []
    assert all(key.n < 5 for key in families._FAMILY_MEMO._entries)
    assert families._FAMILY_MEMO.terms <= memo.MAX_TERMS


def test_fixed_tail_is_dropped_before_the_walk(monkeypatch):
    # beta_poly reads s_1 and e of S_9 in S_2 and S_1: s_1 is h_top(2)
    families._FAMILY_MEMO.clear()
    calls = _count_phi(monkeypatch)
    ring = beta_ring()
    x1, y1, b = (SparsePoly.var(ring, v) for v in ("x1", "y1", "b"))
    assert beta_poly(Permutation((2, 1, 3, 4, 5, 6, 7, 8, 9))) == \
        x1 + y1 + b * x1 * y1
    assert beta_poly(identity(9)) == SparsePoly.const(ring, 1)
    assert calls == []


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

    def test_a_table_memo_counts_rows(self, monkeypatch):
        monkeypatch.setattr(memo, "MAX_TERMS", 5)
        m = memo.TermMemo()
        m.put("a", [1, 2])
        m.put("b", [3, 4, 5])
        assert m.terms == 5
        m.put("c", [6])
        assert m.get("a") is None and m.get("b") == [3, 4, 5]
        m.put("big", list(range(6)))
        assert m.get("big") is None and m.terms == 4

    def test_value_hit_never_builds(self):
        m = memo.TermMemo()
        m.put("a", self._poly(2))

        def build():
            raise AssertionError("built on a hit")
        assert m.value("a", build) == self._poly(2)
        assert (m.hits, m.misses) == (1, 0)

    def test_value_miss_builds_once_and_stores(self):
        m, calls = memo.TermMemo(), []

        def build():
            calls.append("build")
            return self._poly(3)
        assert m.value("a", build) == self._poly(3)
        assert m.value("a", build) == self._poly(3)
        assert calls == ["build"]
        assert (m.hits, m.misses, m.terms) == (1, 1, 3)
        assert m.get("a") == self._poly(3)

    def test_value_returns_but_does_not_store_an_oversized_value(
            self, monkeypatch):
        monkeypatch.setattr(memo, "MAX_TERMS", 5)
        m, big = memo.TermMemo(), self._poly(6)
        assert m.value("big", lambda: big) is big
        assert (m.hits, m.misses) == (0, 1)
        assert m.get("big") is None and m.terms == 0

    def _resume(self, m, word, calls):
        """m.resume along word, keyed by prefix: start is the one-term y1
        and op(i, p) multiplies by x_i, each call recorded."""
        ring = beta_ring()

        def start():
            calls.append("start")
            return SparsePoly.var(ring, "y1")

        def op(i, p):
            calls.append(i)
            return p * SparsePoly.var(ring, f"x{i}")
        return m.resume(word, lambda k: word[:k], start, op)

    def _value(self, word):
        ring = beta_ring()
        p = SparsePoly.var(ring, "y1")
        for i in word:
            p = p * SparsePoly.var(ring, f"x{i}")
        return p

    def test_resume_cold_runs_start_once_and_stores_every_prefix(self):
        m, calls = memo.TermMemo(), []
        assert self._resume(m, (1, 2, 3), calls) == self._value((1, 2, 3))
        assert calls == ["start", 1, 2, 3]
        for k in range(4):
            assert m.get((1, 2, 3)[:k]) == self._value((1, 2, 3)[:k])

    def test_resume_starts_at_the_longest_stored_prefix(self):
        m, calls = memo.TermMemo(), []
        self._resume(m, (1, 2), calls)
        calls.clear()
        word = (1, 2, 3, 4)
        assert self._resume(m, word, calls) == self._value(word)
        assert calls == [3, 4]
        calls.clear()
        assert self._resume(m, (1, 3), calls) == self._value((1, 3))
        assert calls == [3]

    def test_resume_hit_never_walks(self):
        m, calls = memo.TermMemo(), []
        self._resume(m, (2, 1), calls)
        calls.clear()
        hits = m.hits

        def key(k):
            calls.append(("key", k))
            return (2, 1)[:k]
        assert m.resume((2, 1), key, None, None) == self._value((2, 1))
        assert (calls, m.hits - hits) == ([("key", 2)], 1)

    def test_resume_returns_but_does_not_store_an_oversized_value(
            self, monkeypatch):
        monkeypatch.setattr(memo, "MAX_TERMS", 5)
        m, big = memo.TermMemo(), self._poly(6)
        got = m.resume((), lambda k: "big", lambda: big, None)
        assert got is big
        assert m.get("big") is None and m.terms == 0

