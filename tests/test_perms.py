import copy
import pickle
from itertools import product
from math import factorial

import pytest

from flagcalc import families
from flagcalc.families import _stable, beta_poly
from flagcalc.hecke import build_Hxy
from flagcalc.perms import (
    Permutation,
    all_permutations,
    all_reduced_words,
    apply_word,
    identity,
    is_minimal,
    lex_smallest_reduced_word,
    longest_element,
    nu_triple,
    rank_function,
)
from flagcalc.memo import TermMemo


class TestLength:
    def test_identity(self):
        assert identity(4).length() == 0

    def test_longest(self):
        assert longest_element(4).length() == 6

    def test_simple(self):
        assert Permutation((2, 1, 3)).length() == 1

    def test_length_vs_minimal_word(self):
        # inversion count equals minimal word length
        for w in all_permutations(4):
            words = all_reduced_words(w)
            assert all(len(word) == w.length() for word in words)

    def test_length_changes_by_one(self):
        for w in all_permutations(4):
            for i in range(1, 4):
                assert abs(w.right_multiply(i).length() - w.length()) == 1


class TestLongestElement:
    @pytest.mark.parametrize("n,expected", [
        (1, (1,)), (2, (2, 1)), (3, (3, 2, 1)),
    ])
    def test_values(self, n, expected):
        assert longest_element(n) == expected


class TestWords:
    def test_apply_word(self):
        assert apply_word((1, 2, 1), 3) == longest_element(3)
        assert is_minimal((1, 2, 1), 3)

    def test_non_minimal(self):
        assert apply_word((1, 1), 3) == identity(3)
        assert not is_minimal((1, 1), 3)

    def test_empty_word(self):
        assert apply_word((), 3) == identity(3)
        assert is_minimal((), 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_word((3,), 3)


class TestReducedWords:
    def test_s1(self):
        assert set(all_reduced_words(Permutation((2, 1)))) == {(1,)}

    def test_w0_s3(self):
        assert set(all_reduced_words(longest_element(3))) == \
            {(1, 2, 1), (2, 1, 2)}

    def test_identity(self):
        assert all_reduced_words(identity(3)) == ((),)

    def test_against_brute_force(self):
        # enumerate every word of length l(w) and keep those with product w
        for w in all_permutations(3):
            l = w.length()
            brute = {word for word in product((1, 2), repeat=l)
                     if apply_word(word, 3) == w}
            assert set(all_reduced_words(w)) == brute

    def test_all_words_hit_target(self):
        w = longest_element(4)
        for word in all_reduced_words(w):
            assert apply_word(word, 4) == w
            assert len(word) == w.length()

    def test_lex_smallest(self):
        for n in range(1, 6):
            for w in all_permutations(n):
                assert lex_smallest_reduced_word(w) == min(all_reduced_words(w))


class TestNuTriple:
    def test_s1(self):
        assert nu_triple((1, 1, 0)) == Permutation((2, 1))

    def test_221(self):
        assert nu_triple((2, 2, 1)) == Permutation((1, 3, 2))

    def test_full_rank(self):
        assert nu_triple((2, 2, 2)) == identity(2)

    def test_constraint(self):
        with pytest.raises(ValueError):
            nu_triple((1, 1, 2))

    def test_expected_codimension(self):
        # l(nu) = (e - r)(f - r), exhaustively for e, f <= 4
        for e in range(1, 5):
            for f in range(1, 5):
                for r in range(0, min(e, f) + 1):
                    w = nu_triple((e, f, r))
                    assert w.length() == (e - r) * (f - r)


class TestRankFunction:
    def test_s1(self):
        assert rank_function(Permutation((2, 1))) == (0,)

    def test_identity_is_min(self):
        assert rank_function(identity(3)) == tuple(
            min(i, j) for i in range(1, 3) for j in range(1, 3))

    def test_w0(self):
        # r(2, 2) = #{l <= 2 : w0(l) <= 2} for w0 = 3 2 1, row 2, column 2
        assert rank_function(longest_element(3))[3] == 1

    def test_ranks_give_the_bruhat_order(self):
        """v <= w exactly when v is the product of a subword of a reduced
        word of w (the subword property), on all pairs of S_4."""
        for w in all_permutations(4):
            below = {identity(4)}
            for i in lex_smallest_reduced_word(w):
                below |= {v.right_multiply(i) for v in below}
            for v in all_permutations(4):
                assert (v in below) == all(
                    map(int.__ge__, rank_function(v), rank_function(w))), (v, w)


class TestValueSemantics:
    def test_invalid_images(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 2))

    def test_inverse(self):
        w = Permutation((3, 1, 2))
        assert w.compose(w.inverse()) == identity(3)

    def test_embed(self):
        w = Permutation((2, 1))
        assert w.embed(4) == Permutation((2, 1, 3, 4))

    def test_one_line_round_trip(self):
        w = Permutation((3, 1, 2))
        assert Permutation.from_one_line(w.one_line()) == w


def _checked(w):
    """w, built again with validation; equal to w with the same type."""
    again = Permutation(tuple(w))
    assert type(w) is Permutation and w == again and hash(w) == hash(again)
    return again


class TestTrustedConstruction:
    """Results that are permutations by construction skip the check."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_results_equal_validated(self, n):
        perms = list(all_permutations(n))
        assert sorted(map(_checked, perms)) == perms
        assert len(set(perms)) == factorial(n)
        _checked(identity(n))
        _checked(longest_element(n))
        for w in perms:
            _checked(w.inverse())
            _checked(w.embed(n))
            _checked(w.embed(n + 2))
            _checked(_stable(w))
            for i in range(1, n):
                _checked(w.right_multiply(i))
            for v in perms[::7]:
                assert _checked(w.compose(v)) == tuple(
                    w(v(i)) for i in range(1, n + 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hecke_product_outputs_are_checked_permutations(self, n):
        for w, _ in build_Hxy(n).coeffs:
            _checked(w)

    @pytest.mark.parametrize("images", [
        (1, 1, 2), (0, 1, 2), (1, 2, 4), (2, 3), (1, 2, 2, 4), (3, 1)])
    def test_bad_tuples_still_raise(self, images):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation(images)

    @pytest.mark.parametrize("text", ["1 1 2", "2 3", "0 1", "1,2,4"])
    def test_parsed_input_is_checked(self, text):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation.from_one_line(text)


# w0 in S_4, built from four kinds of iterable of the same images
W0 = (4, 3, 2, 1)
BUILDS = {
    "list": lambda: Permutation(list(W0)),
    "range": lambda: Permutation(range(4, 0, -1)),
    "generator": lambda: Permutation(v for v in W0),
    "tuple": lambda: Permutation(W0),
}


class TestTupleOfImages:
    """A permutation is the tuple of its images, whatever iterable gave
    them."""

    def test_equal_and_hash_alike(self):
        built = [make() for make in BUILDS.values()]
        for w in built:
            assert type(w) is Permutation
            assert w == built[0] == W0 and hash(w) == hash(W0)
            assert len(w) == w.n == 4 and tuple(w) == W0
        assert len(set(built)) == 1

    def test_one_family_memo_entry(self, monkeypatch):
        monkeypatch.setattr(families, "_FAMILY_MEMO", TermMemo())
        h = beta_poly(BUILDS["tuple"]())
        for make in BUILDS.values():
            assert families._FAMILY_MEMO.get(make()) is h
        assert beta_poly(BUILDS["list"]()) is h
        assert len(families._FAMILY_MEMO._entries) == 1

    @pytest.mark.parametrize("kind", BUILDS)
    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies(self, kind, clone):
        w = BUILDS[kind]()
        again = clone(w)
        assert type(again) is Permutation and again == w == W0

    @pytest.mark.parametrize("make", [
        list, tuple, iter, lambda im: (v for v in im)],
        ids=["list", "tuple", "iterator", "generator"])
    def test_invalid_images_name_the_images(self, make):
        with pytest.raises(ValueError, match=r"^not a permutation of "
                           r"1\.\.3: \(1, 1, 2\)$"):
            Permutation(make((1, 1, 2)))
