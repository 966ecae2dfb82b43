import math
import random
from itertools import product

import pytest

from flagcalc import families
from flagcalc.divdiff import OperatorContext
from flagcalc.families import (
    beta_poly,
    beta_poly_via_word,
    bott_samelson_class,
    bott_samelson_initial,
    cell_product,
    double_grothendieck,
    double_schubert,
    h_top,
    oplus,
)
from flagcalc.fgl import make_additive, make_multiplicative, make_universal_rational
from flagcalc.memo import TermMemo
from flagcalc.perms import (
    Permutation,
    all_permutations,
    all_reduced_words,
    identity,
    lex_smallest_reduced_word,
    longest_element,
)
from flagcalc.rings import SparsePoly, ZZ, beta_ring, divide_by_difference
from locus_reference import is_dominant
from test_porteous import laplace_det


def V(ring, name, e=1):
    return SparsePoly.var(ring, name, e)


class TestTopClass:
    def test_n1(self):
        assert h_top(1) == SparsePoly.const(beta_ring(), 1)

    def test_n2(self, ring):
        x1, y1, b = V(ring, "x1"), V(ring, "y1"), V(ring, "b")
        assert h_top(2) == x1 + y1 + b * x1 * y1

    def test_degree(self):
        # n(n-1)/2 factors, each of degree 2 in the x/y grading
        assert h_top(4).degree() == 12

    def test_dominant_members_are_cell_products(self):
        # h_u is the product over the diagram of u when u avoids 132
        dominant = [w for n in range(1, 6) for w in all_permutations(n)
                    if is_dominant(w)]
        assert len(dominant) == 64
        for w in dominant:
            assert beta_poly(w) == cell_product(beta_ring(), w.diagram(),
                                                oplus), w


class TestBetaFamily:
    def test_longest_is_top(self):
        for n in (2, 3):
            assert beta_poly(longest_element(n)) == h_top(n)

    def test_identity_n2(self, ring):
        assert beta_poly(identity(2)) == SparsePoly.const(ring, 1)

    def test_word_independence_s3(self):
        # every reduced word of w0*w gives the same polynomial
        w0 = longest_element(3)
        for w in all_permutations(3):
            ref = beta_poly(w)
            for word in all_reduced_words(w0.compose(w)):
                assert beta_poly_via_word(w, word) == ref

    def test_bad_word_rejected(self):
        with pytest.raises(ValueError):
            beta_poly_via_word(identity(2), (1, 1))

    def test_stability(self):
        # walks from h_top(n) and from h_top(n + 1), each along its own
        # lex-smallest reduced word; beta_poly drops the fixed tail, so it
        # reads one memo entry for w and w.embed(n + 1)
        for n in (3, 4):
            w0, w0_up = longest_element(n), longest_element(n + 1)
            for w in all_permutations(n):
                up = w.embed(n + 1)
                ref = beta_poly_via_word(
                    w, lex_smallest_reduced_word(w0.compose(w)))
                assert beta_poly_via_word(
                    up, lex_smallest_reduced_word(w0_up.compose(up))) == ref
                assert beta_poly(w) == beta_poly(up) == ref

    def test_descent_recursion(self, ring):
        # phi_i sends the member for w to the member for w*s_i whenever
        # that shortens w
        ctx = OperatorContext(3)
        for w in all_permutations(3):
            for i in (1, 2):
                ws = w.right_multiply(i)
                if ws.length() < w.length():
                    assert ctx.phi_beta(i, beta_poly(w)) == beta_poly(ws)

    def test_cache_stable(self):
        w = Permutation((2, 3, 1))
        assert beta_poly(w) == beta_poly(w)


@pytest.fixture(scope="class")
def walked_s5():
    """h_v for every v in S_5 from h_top(5) down: phi_i h_v = h_(v s_i) at
    each descent i of v."""
    ctx, w0 = OperatorContext(5), longest_element(5)
    walked, todo = {w0: h_top(5)}, [w0]
    for v in todo:
        for i in v.right_descents():
            u = v.right_multiply(i)
            if u not in walked:
                walked[u] = ctx.phi_beta(i, walked[v])
                todo.append(u)
    assert len(walked) == 120
    return walked


class TestPrunedChain:
    """The chain of pipe_rows(n) on the states that can still reach w,
    which beta_poly takes for every member, w0 included."""

    def test_equals_the_walk_on_S5(self, walked_s5):
        """The chain is the row walk with w given, which yields w alone."""
        for w, p in walked_s5.items():
            assert families._pruned_chain(w) == p, w
            assert list(families.row_walk(
                5, families.pipe_rows(5), w=w)) == [(w, p)], w

    @pytest.fixture
    def chained(self, monkeypatch):
        """The arguments of every _pruned_chain call, on an empty memo."""
        chain, calls = families._pruned_chain, []
        monkeypatch.setattr(families, "_pruned_chain",
                            lambda v: calls.append(v) or chain(v))
        monkeypatch.setattr(families, "_FAMILY_MEMO", TermMemo())
        return calls

    def test_beta_poly_chains_once_per_stable_key_in_S5(self, walked_s5,
                                                        chained):
        """On an empty memo beta_poly takes the chain once for each member
        of S_4, without its fixed tail, then once for each member of S_5
        outside S_4, w0 included, and each equals the walk; a second sweep
        takes it for none."""
        s4 = [families._stable(w) for w in all_permutations(4)]
        for w in s4:
            beta_poly(w)
        assert chained == s4
        for w, p in walked_s5.items():
            assert beta_poly(w) == p, w
        assert chained == s4 + [w for w in walked_s5
                                if families._stable(w).n == 5]
        for w in walked_s5:
            beta_poly(w)
        assert len(chained) == 120

    def test_beta_poly_chains_w0_in_S6(self, chained):
        """The walk from h_top(6) to a seeded member of S_6 of length 13,
        one phi per letter, passes a member of each length from 15 down to
        13: beta_poly, on an empty memo, takes the chain once for each of
        them, w0 included, and each equals the walk."""
        w0 = longest_element(6)
        w = random.Random(6).choice(
            [w for w in all_permutations(6) if w.length() == 13])
        ctx, v, p = OperatorContext(6), w0, h_top(6)
        walked = {v: p}
        for i in lex_smallest_reduced_word(w0.compose(w)):
            v, p = v.right_multiply(i), ctx.phi_beta(i, p)
            walked[v] = p
        for v, p in walked.items():
            assert beta_poly(v) == p, v
        assert chained == list(walked)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_w0_is_h_top(self, n, chained):
        assert beta_poly(longest_element(n)) == h_top(n)
        assert chained == [longest_element(n)]



class TestRowWalk:
    """families.row_walk: the coefficients of a word of rows, in lex order
    of v, with each row run on one part at a time."""

    def test_alternative_product_of_S5_is_the_walk(self, walked_s5):
        """All 120 coefficients arrive once each, in lex order, and equal
        the phi walk down from h_top(5)."""
        got = list(families.row_walk(5, families.pipe_rows(5)))
        assert [v for v, _ in got] == sorted(all_permutations(5))
        assert dict(got) == walked_s5

    def test_each_row_runs_on_one_part(self, monkeypatch):
        """c_e arrives after the start and one run of each row.  Row k runs
        once per part, the states that agree on positions 1..k-1, so it
        leaves at most (n - k + 1)! of them."""
        runs, chain = [], families.hecke_chain

        def recorded(states, factors, keep=None):
            out = chain(states, factors, keep)
            runs.append((min((i for i, *_ in factors), default=0), len(out)))
            return out

        monkeypatch.setattr(families, "hecke_chain", recorded)
        walk = families.row_walk(5, families.pipe_rows(5))
        assert next(walk)[0] == identity(5)
        assert [k for k, _ in runs] == [0, 1, 2, 3, 4]
        list(walk)
        assert len(runs) == 1 + 1 + 5 + 5 * 4 + 5 * 4 * 3
        assert all(size <= math.factorial(5 - k + 1) for k, size in runs[1:])

def bialternant(w):
    """h_w for w with one descent, at m, by the Ikeda-Naruse formula:
    det([x_i|y]^(lam_j + m - j) (1 + b x_i)^(j - 1)) / Delta(x_1..x_m),
    with lam_j = w(m + 1 - j) - (m + 1 - j) and [x|y]^k the product of
    x + y_l + b x y_l over l <= k; the Vandermonde divides exactly."""
    (m,) = w.right_descents()
    ring = beta_ring()
    one, b = SparsePoly.const(ring, 1), V(ring, "b")
    lam = [w(m + 1 - j) - (m + 1 - j) for j in range(1, m + 1)]

    def entry(i, j):
        x, p = V(ring, f"x{i}"), one
        for l in range(1, lam[j - 1] + m - j + 1):
            p = p * oplus(x, V(ring, f"y{l}"))
        for _ in range(j - 1):
            p = p * (one + b * x)
        return p

    p = laplace_det([[entry(i, j) for j in range(1, m + 1)]
                     for i in range(1, m + 1)], one)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            p = divide_by_difference(p, f"x{i}", f"x{j}")
    return p


def test_grassmannian_members_match_the_bialternant():
    grassmannian = [w for w in all_permutations(5)
                    if len(w.right_descents()) == 1]
    assert len(grassmannian) == 26
    for w in grassmannian:
        assert beta_poly(w) == bialternant(w), w


# single-variable specialisation table for S_3 (y_j -> 0): the classical
# one-parameter family, frozen from the standard staircase recursion
_SINGLE_S3 = {
    (1, 2, 3): "1",
    (2, 1, 3): "x1",
    (1, 3, 2): "x1 + x2",
    (2, 3, 1): "x1 x2",
    (3, 1, 2): "x1^2",
    (3, 2, 1): "x1^2 x2",
}


def _kill_y(p, n):
    return p.substitute({f"y{j}": 0 for j in range(1, n + 1)})


class TestSchubert:
    def test_simple_reflection(self):
        got = double_schubert(Permutation((2, 1)))
        assert got == V(ZZ, "x1") - V(ZZ, "y1")

    def test_longest_s3_is_difference_product(self):
        got = double_schubert(longest_element(3))
        want = SparsePoly.const(ZZ, 1)
        for i in range(1, 3):
            for j in range(1, 4 - i):
                want = want * (V(ZZ, f"x{i}") - V(ZZ, f"y{j}"))
        assert got == want

    def test_identity_is_one(self):
        assert double_schubert(identity(3)) == SparsePoly.const(ZZ, 1)

    def test_single_variable_table(self):
        for images, text in _SINGLE_S3.items():
            got = _kill_y(double_schubert(Permutation(images)), 3)
            assert got.to_text() == text

    def test_partial_recursion(self):
        ctx = OperatorContext(3)
        for w in all_permutations(3):
            for i in (1, 2):
                ws = w.right_multiply(i)
                if ws.length() < w.length():
                    assert ctx.partial(i, double_schubert(w)) == \
                        double_schubert(ws)


class TestGrothendieck:
    def test_longest_n2(self):
        x1, y1 = V(ZZ, "x1"), V(ZZ, "y1")
        assert double_grothendieck(longest_element(2)) == x1 + y1 - x1 * y1

    def test_lowest_degree_part_is_schubert(self):
        # with y_j -> -y_j the bottom graded piece recovers the b = 0 family
        for w in all_permutations(3):
            g = double_grothendieck(w)
            flip = g.substitute({f"y{j}": -V(ZZ, f"y{j}") for j in (1, 2, 3)})
            assert flip.homogeneous_part(w.length()) == double_schubert(w)

    def test_pi_recursion(self):
        ctx = OperatorContext(3)
        for w in all_permutations(3):
            for i in (1, 2):
                ws = w.right_multiply(i)
                if ws.length() < w.length():
                    assert ctx.pi_op(i, double_grothendieck(w)) == \
                        double_grothendieck(ws)

    def test_single_variable_top(self):
        got = _kill_y(double_grothendieck(longest_element(3)), 3)
        assert got == V(ZZ, "x1", 2) * V(ZZ, "x2")


class TestBottSamelson:
    def test_initial_additive(self):
        fgl = make_additive(6, ZZ)
        got = bott_samelson_initial(fgl, 3)
        want = SparsePoly.const(ZZ, 1)
        for k in range(1, 3):
            for j in range(1, 4 - k):
                want = want * (V(ZZ, f"x{k}") + V(ZZ, f"y{j}"))
        assert got == want

    def test_initial_matches_beta_top(self, ring):
        # the multiplicative initial class with parameter -b is the
        # two-parameter top class
        fgl = make_multiplicative(-V(ring, "b"), 8, ring)
        assert bott_samelson_initial(fgl, 3) == h_top(3)

    def test_additive_word_agreement(self):
        fgl = make_additive(6, ZZ)
        a = bott_samelson_class(fgl, (1, 2, 1), 3)
        b = bott_samelson_class(fgl, (2, 1, 2), 3)
        assert a == b

    def test_universal_word_dependence(self):
        fgl = make_universal_rational(5, 5)
        a = bott_samelson_class(fgl, (1, 2, 1), 3)
        b = bott_samelson_class(fgl, (2, 1, 2), 3)
        assert a != b

    def test_index_range(self):
        fgl = make_additive(4, ZZ)
        with pytest.raises(ValueError):
            bott_samelson_class(fgl, (3,), 3)

    def test_cache_keys_on_the_law(self):
        # two multiplicative laws that differ only in b, on one word, n, D
        ring = beta_ring()
        word = (1, 2, 1)
        first = bott_samelson_class(make_multiplicative(2, 5), word, 3)
        second = bott_samelson_class(make_multiplicative(5, 5), word, 3)
        y = V(ring, "y1", 2) * V(ring, "y2")
        assert first == 1 + 8 * y
        assert second == 1 + 125 * y

    def test_empty_word_is_initial(self):
        fgl = make_additive(5, ZZ)
        assert bott_samelson_class(fgl, (), 3) == \
            bott_samelson_initial(fgl, 3)

    @pytest.mark.parametrize("law", ["universal", "multiplicative"])
    def test_prefix_walk(self, law, monkeypatch):
        # every word of length <= 3 at n = 3 and n = 4, in shuffled order:
        # each class equals the word applied to a fresh initial class, and
        # each distinct nonempty prefix costs one A_op application
        ring = beta_ring()
        fgl = make_universal_rational(4, 4) if law == "universal" \
            else make_multiplicative(V(ring, "b"), 4, ring)
        calls = []
        a_op = OperatorContext.A_op

        def counted(ctx, i, p):
            calls.append(i)
            return a_op(ctx, i, p)
        monkeypatch.setattr(OperatorContext, "A_op", counted)
        jobs = [(n, word) for n in (3, 4) for k in range(4)
                for word in product(range(1, n), repeat=k)]
        random.Random(10).shuffle(jobs)
        families._BS_MEMO.clear()
        got = {job: bott_samelson_class(fgl, job[1], job[0]) for job in jobs}
        prefixes = {(n, word[:k]) for n, word in jobs
                    for k in range(1, len(word) + 1)}
        assert len(calls) == len(prefixes)
        for (n, word), p in got.items():
            ctx = OperatorContext(n, fgl=fgl)
            fresh = ctx.compose_word(
                word, bott_samelson_initial(fgl, n), ctx.A_op)
            assert p == fresh

    def test_memo_keys_every_prefix_of_the_word(self, monkeypatch):
        """The class of (1, 2, 1) leaves its prefixes under (law, n,
        prefix), so the class of (1, 2) is a hit and runs no A_op."""
        ring = beta_ring()
        fgl = make_multiplicative(V(ring, "b"), 4, ring)
        word = (1, 2, 1)
        families._BS_MEMO.clear()
        bott_samelson_class(fgl, word, 3)
        assert list(families._BS_MEMO._entries) == [
            (fgl, 3, word[:k]) for k in range(4)]
        calls = []
        a_op = OperatorContext.A_op

        def counted(ctx, i, p):
            calls.append(i)
            return a_op(ctx, i, p)
        monkeypatch.setattr(OperatorContext, "A_op", counted)
        ctx = OperatorContext(3, fgl=fgl)
        fresh = a_op(ctx, 2, a_op(ctx, 1, bott_samelson_initial(fgl, 3)))
        assert bott_samelson_class(fgl, (1, 2), 3) == fresh
        assert calls == []

    def test_bad_index_rejected_after_a_memoised_prefix(self):
        fgl = make_additive(4, ZZ)
        bott_samelson_class(fgl, (1, 2), 3)
        with pytest.raises(ValueError, match="index 3"):
            bott_samelson_class(fgl, (1, 2, 3), 3)
