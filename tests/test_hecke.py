"""The degenerate Hecke algebra: relations, products and the canonical
element.  Products are held to the length-based rule in hecke_reference;
Hypothesis runs derandomised, so every run draws the same examples."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hecke_reference as ref
from hecke_reference import h_factor
from flagcalc import hecke
from flagcalc.__main__ import main
from flagcalc.families import beta_poly, h_top, hecke_chain, oplus
from flagcalc.hecke import (
    HeckeElement,
    alternative_product,
    build_Htilde,
    build_Hxy,
    builder_word,
    coefficient,
    hecke_generator,
    hecke_one,
    identity_words,
    verify_identities,
)
from flagcalc.perms import Permutation, all_permutations, identity
from flagcalc.rings import SparsePoly, beta_ring

_R = beta_ring()

fixed = settings(derandomize=True, database=None, deadline=None,
                 max_examples=40)


def V(name, e=1):
    return SparsePoly.var(_R, name, e)


# a small pool, so that products of several basis elements often land on
# one permutation with coefficients that cancel
POOL = [SparsePoly.const(_R, 1), SparsePoly.const(_R, -1), V("b"), -V("b"),
        V("x1"), -V("x1") * V("b"), V("y2") + V("b")]


@st.composite
def elements(draw, n):
    perms = list(all_permutations(n))
    chosen = draw(st.lists(st.sampled_from(perms), max_size=6, unique=True))
    return HeckeElement.from_dict(
        n, {w: draw(st.sampled_from(POOL)) for w in chosen})


class TestRelations:
    def test_square(self):
        u1 = hecke_generator(3, 1)
        assert u1 * u1 == u1.scale(V("b"))

    def test_braid(self):
        u1, u2 = hecke_generator(3, 1), hecke_generator(3, 2)
        assert u1 * u2 * u1 == u2 * u1 * u2

    def test_commutation(self):
        u1, u3 = hecke_generator(4, 1), hecke_generator(4, 3)
        assert u1 * u3 == u3 * u1

    def test_index_range(self):
        with pytest.raises(ValueError):
            hecke_generator(3, 3)


class TestArithmetic:
    def test_scale_distributes(self):
        a, b = hecke_generator(3, 1), hecke_generator(3, 2)
        c = V("x1")
        both = HeckeElement.from_dict(3, {**a.as_dict(), **b.as_dict()})
        assert both.scale(c).as_dict() == {**a.scale(c).as_dict(),
                                           **b.scale(c).as_dict()}

    def test_mul_matches_generator_chain(self):
        # multiplying by the basis element u_{s1 s2} equals applying u_1, u_2
        e = build_Hxy(3)
        w = Permutation((2, 3, 1))  # s1 * s2
        basis = HeckeElement.from_dict(3, {w: SparsePoly.const(_R, 1)})
        assert e * basis == e.mul_by_generator(1).mul_by_generator(2)

    def test_zero_coefficients_dropped(self):
        one = SparsePoly.const(_R, 1)
        e = HeckeElement.from_dict(3, {identity(3): one - one})
        assert e.coeffs == ()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_h_factor_shares_the_coefficients_it_leaves(self, n):
        """In e * h_i(c), the output at an ascent w of i is e's coefficient
        at w itself; the output at a descent is a new polynomial."""
        e = build_Hxy(n)
        c = oplus(V("x1"), V("y2"))
        for i in range(1, n):
            before = e.as_dict()
            texts = {w: p.to_text() for w, p in e.coeffs}
            out = e * h_factor(n, i, c)
            assert out == ref.mul(e, h_factor(n, i, c))
            for w, p in out.coeffs:
                if w(i) < w(i + 1):
                    assert p is before[w]
                else:
                    assert all(p is not q for q in before.values())
            assert {w: p.to_text() for w, p in e.coeffs} == texts
            e = out


class TestAgainstLengthRule:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @fixed
    @given(data=st.data())
    def test_product(self, n, data):
        a, b = data.draw(elements(n)), data.draw(elements(n))
        assert a * b == ref.mul(a, b)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @fixed
    @given(data=st.data())
    def test_generator(self, n, data):
        a = data.draw(elements(n))
        i = data.draw(st.integers(1, n - 1))
        assert a.mul_by_generator(i) == ref.mul_by_generator(a, i)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cancellation_to_zero(self, n):
        # (b u_w - u_{w s_i}) u_i = b u_{w s_i} - b u_{w s_i} at an ascent
        for w in all_permutations(n):
            for i in range(1, n):
                if w(i) > w(i + 1):
                    continue
                e = HeckeElement.from_dict(n, {
                    w: V("b") * V("x1"), w.right_multiply(i): -V("x1")})
                assert ref.mul_by_generator(e, i).is_zero()
                assert e.mul_by_generator(i).coeffs == ()

    @pytest.mark.parametrize("n, i", [(1, 0), (1, 1), (2, 0), (2, 2),
                                      (4, -1), (4, 4)])
    def test_out_of_range_index(self, n, i):
        with pytest.raises(ValueError):
            hecke_one(n).mul_by_generator(i)
        with pytest.raises(ValueError):
            ref.mul_by_generator(hecke_one(n), i)


class TestFactorIdentities:
    def test_additivity_in_formal_sum(self):
        x, y = V("x1"), V("y1")
        lhs = h_factor(2, 1, x) * h_factor(2, 1, y)
        assert lhs == h_factor(2, 1, oplus(x, y))

    def test_yang_baxter(self):
        x, y = V("x1"), V("y1")
        lhs = h_factor(3, 1, x) * h_factor(3, 2, oplus(x, y)) * h_factor(3, 1, y)
        rhs = h_factor(3, 2, y) * h_factor(3, 1, oplus(x, y)) * h_factor(3, 2, x)
        assert lhs == rhs


class TestCanonicalElement:
    def test_rank_two_closed_form(self):
        H = build_Hxy(2)
        assert coefficient(H, identity(2)) == SparsePoly.const(_R, 1)
        assert coefficient(H, Permutation((2, 1))) == h_top(2)

    def test_coefficients_match_family_n3(self):
        H = build_Hxy(3)
        for w in all_permutations(3):
            assert coefficient(H, w) == beta_poly(w)

    def test_alternative_product_n3(self):
        assert alternative_product(3) == build_Hxy(3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_product_of_full_elements(self, n):
        # no builder multiplies two full elements; this keeps that product
        # pinned to the chained H(x, y)
        assert build_Htilde(n) * ref.build_H(n) == build_Hxy(n)

    def test_product_of_full_elements_against_length_rule(self):
        assert ref.mul(build_Htilde(3), ref.build_H(3)) == build_Hxy(3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_builders_apply_one_h_factor_per_product(self, n):
        """Every builder is one word of h-factors h_i(c) = 1 + c u_i, its
        start and then its rows: n(n - 1)/2 factors for H~(y) and for the
        alternative product, n(n - 1) for H(x, y), each a nonzero c at an
        index of S_n.  Row k moves no position before k, as row_walk
        needs; and up to n = 4, build(n) is the word's product at the point
        of seed n."""
        for build, factors in ((build_Hxy, n * (n - 1)),
                               (alternative_product, n * (n - 1) // 2),
                               (build_Htilde, n * (n - 1) // 2)):
            rows, _ = builder_word(build.__name__, n)
            word = _word(build, n)
            assert len(word) == factors, build.__name__
            assert all(1 <= i < n and c.ring == _R and not c.is_zero()
                       for i, c in word), build.__name__
            assert all(i >= k for k, row in enumerate(rows, start=1)
                       for i, _ in row), build.__name__
            if n <= 4:
                point = _at_point([], n, seed=n)[0]
                assert {w: ref.evaluate(c, point) for w, c in build(n).coeffs
                        } == _product_at(word, n, point), build.__name__

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_chain_step_shares_the_coefficients_it_leaves(self, n):
        """After a chain step h_i(c), the coefficient at every ascent w of i
        is the object it was before the step; at a descent it is a new
        polynomial, and the step is e * h_i(c).  No coefficient changes."""
        e = build_Hxy(n)
        c = oplus(V("x1"), V("y2"))
        states = e.as_dict()
        for i in range(1, n):
            before = dict(states)
            texts = {w: p.to_text() for w, p in before.items()}
            hecke_chain(states, [(i, c, V("b") * c)])
            e = HeckeElement.from_dict(n, states)
            assert e == ref.mul(HeckeElement.from_dict(n, before),
                                h_factor(n, i, c))
            for w, p in states.items():
                if w(i) < w(i + 1):
                    assert p is before[w]
                else:
                    assert all(p is not q for q in before.values())
            assert {w: p.to_text() for w, p in before.items()} == texts

    @pytest.mark.parametrize("i", [0, 3])
    def test_chain_rejects_an_index_outside_the_group(self, i):
        states = {identity(3): SparsePoly.const(_R, 1)}
        with pytest.raises(ValueError, match=f"index {i} out of range"):
            hecke_chain(states, [(i, V("x1"), V("x1") * V("b"))])

    def test_missing_basis_element_gives_zero(self):
        H = ref.build_H(2)  # only x-variables; still supported
        assert coefficient(hecke_one(2), Permutation((2, 1))).is_zero()
        assert not coefficient(H, Permutation((2, 1))).is_zero()


class TestVerification:
    def test_all_certificates_hold_n3(self):
        results = verify_identities(3)
        assert results, "no certificates produced"
        failed = [r["name"] for r in results if not r["ok"]]
        assert not failed, failed

    def test_certificate_names_unique(self):
        names = [r["name"] for r in verify_identities(2)]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("n, words", [
        (1, ["alpha commutation", "exchange identity"]),
        (2, ["h_i(x) h_i(y) = h_i(x (+) y)", "alpha commutation",
             "exchange identity"]),
        (3, ["h_i(x) h_i(y) = h_i(x (+) y)", "Yang-Baxter for h-factors",
             "alpha commutation", "exchange identity"])])
    def test_certificate_names_and_order(self, n, words):
        """The generator relations, then the certificates of identity_words
        in its order, then the three on H(x, y); at n = 1 the two words
        certificates have no pairs."""
        assert list(identity_words(n)) == words
        assert [r["name"] for r in verify_identities(n)] == [
            "generator relations", *words,
            "alternative product equals H(x, y)",
            "divided-difference identity on H(x, y)",
            "coefficients reproduce the recursive family"]
        if n == 1:
            assert not any(identity_words(n).values())

    @pytest.mark.parametrize("fault", ["shift", "drop", "drop_w0"])
    def test_a_planted_fault_fails_the_h_certificates(self, fault,
                                                      monkeypatch, capsys):
        """c_w of the H(x, y) walk shifted by x1, or dropped, at a w with
        an ascent (1) and a descent (2), or c_(w0), the last, dropped: the
        alternative-product, the divided-difference and the family
        certificates read false, the generator and word certificates stay
        true, and the command exits 3."""
        w = Permutation((3, 2, 1) if fault == "drop_w0" else (1, 3, 2))
        walk = hecke.row_walk
        hxy_rows = builder_word("build_Hxy", 3)[0]

        def planted(n, rows, start=()):
            for v, c in walk(n, rows, start):
                if rows != hxy_rows or v != w:
                    yield v, c
                elif fault == "shift":
                    yield v, c + V("x1")

        monkeypatch.setattr(hecke, "row_walk", planted)
        ok = {r["name"]: r["ok"] for r in verify_identities(3)}
        assert not ok.pop("alternative product equals H(x, y)")
        assert not ok.pop("divided-difference identity on H(x, y)")
        assert not ok.pop("coefficients reproduce the recursive family")
        assert all(ok.values()), ok
        with pytest.raises(SystemExit) as exit_:
            main(["hecke", "verify", "--n", "3"])
        assert exit_.value.code == 3
        assert '"ok": false' in capsys.readouterr().out

    def test_a_wrong_top_fails_only_the_family_certificate(self, monkeypatch,
                                                           capsys):
        """h_top(n) shifted by x1: c_(w0) no longer matches the top of the
        phi recursion, so the family certificate alone reads false, and
        the command exits 3."""
        top = hecke.h_top
        monkeypatch.setattr(hecke, "h_top", lambda n: top(n) + V("x1"))
        ok = {r["name"]: r["ok"] for r in verify_identities(3)}
        assert not ok.pop("coefficients reproduce the recursive family")
        assert all(ok.values()), ok
        with pytest.raises(SystemExit) as exit_:
            main(["hecke", "verify", "--n", "3"])
        assert exit_.value.code == 3
        assert '"ok": false' in capsys.readouterr().out

    def test_verify_builds_no_whole_element(self, monkeypatch):
        """verify_identities reads H(x, y) and the alternative product from
        their walks, one coefficient at a time, and calls neither
        builder."""
        def whole(n):
            raise AssertionError("a whole element was built")

        monkeypatch.setattr(hecke, "build_Hxy", whole)
        monkeypatch.setattr(hecke, "alternative_product", whole)
        assert all(r["ok"] for r in verify_identities(4))


# -- H(x, y) at a point -------------------------------------------------------

def _word(build, n: int) -> list:
    """The (i, c) pairs that build(n) chains, in order, as builder_word
    gives them: the start, then each row; nothing is multiplied."""
    rows, start = builder_word(build.__name__, n)
    return [*start, *(f for row in rows for f in row)]


def _at_point(word: list, n: int, seed: int, extra=()) -> tuple:
    """The point drawn from the seed, b, x_1..x_(n-1), y_1..y_(n-1) and
    then the extra variables, and the word's product there."""
    rng = random.Random(seed)
    point = {v: rng.randrange(ref.P) for v in
             ["b", *(f"{s}{k}" for s in "xy" for k in range(1, n)), *extra]}
    return point, _product_at(word, n, point)


def _product_at(word: list, n: int, point: dict) -> dict:
    values = [(i, ref.evaluate(c, point)) for i, c in word]
    return ref.chain_at_point(n, values, point["b"])


def _bruhat_le(w: tuple, v: tuple) -> bool:
    """w <= v in Bruhat order, by the tableau criterion: for every k, the
    sorted w(1..k) is at most the sorted v(1..k) entry by entry."""
    return all(a <= c for k in range(1, len(w))
               for a, c in zip(sorted(w[:k]), sorted(v[:k])))


def _fixed_points(n: int, seed: int):
    """Each p in S_n with its point over Z/P: b and x_1..x_n drawn from
    the seed, and y_j = chi(x_(p(j))), with chi(x) = -x / (1 + b x)."""
    rng = random.Random(seed)
    b = rng.randrange(ref.P)
    x = {i: rng.randrange(ref.P) for i in range(1, n + 1)}
    assert all((1 + b * xi) % ref.P for xi in x.values())
    for p in all_permutations(n):
        yield p, {"b": b, **{f"x{i}": xi for i, xi in x.items()}, **{
            f"y{j}": -x[p(j)] * pow(1 + b * x[p(j)], -1, ref.P) % ref.P
            for j in x}}


class TestAtAPoint:
    """H(x, y) at one seeded point of (Z/P)^m, P = 2^61 - 1.  These are
    randomised identity checks: two different polynomials of total degree
    at most d agree at a uniformly random point with probability at most
    d / P (Schwartz-Zippel).  The seeds are fixed, so every run draws the
    same point."""

    def test_family_of_S5(self):
        """build_Hxy(5)'s word has 20 factors, each of degree at most 2
        with the b of a descent, and beta_poly has total degree at most 30
        on S_5, b counted: a false pass has probability at most
        120 * 40 / P < 3e-15."""
        point, H = _at_point(_word(build_Hxy, 5), 5, seed=5)
        for w in all_permutations(5):
            assert H.get(w, 0) == ref.evaluate(beta_poly(w), point), w

    @pytest.mark.parametrize("n", [6, 7])
    def test_Hxy_word_equals_alternative_word(self, n):
        """build_Hxy chains n(n-1) factors of degree 1 and
        alternative_product n(n-1)/2 of degree 3, with a b per descent, so
        every coefficient has degree at most 2n(n-1): a false pass has
        probability at most n! * 2n(n-1) / P, below 2e-13 at n = 7."""
        hxy = _word(build_Hxy, n)
        alt = _word(alternative_product, n)
        assert (len(hxy), len(alt)) == (n * (n - 1), n * (n - 1) // 2)
        assert _at_point(hxy, n, seed=n)[1] == _at_point(alt, n, seed=n)[1]

    @pytest.mark.parametrize("n", [6, 7])
    def test_divided_difference_identity(self, n):
        """phi_i H = H u_i - b H for every i, coefficientwise at the point
        of seed 60 + n, x_n drawn last.  phi_i f is
        ((1 + b x_(i+1)) f - (1 + b x_i) sigma_i f) / (x_i - x_(i+1)), and
        sigma_i f at the point is f at the point with x_i and x_(i+1)
        swapped.  Times x_i - x_(i+1), each side of a coefficient has degree
        at most 2n(n-1) + 2, b counted: a false pass has probability at
        most (n-1) * n! * (2n(n-1) + 2) / P, below 2e-12 at n = 7."""
        word = _word(build_Hxy, n)
        point, H = _at_point(word, n, seed=60 + n, extra=[f"x{n}"])
        b = point["b"]
        for i in range(1, n):
            xi, xj = point[f"x{i}"], point[f"x{i + 1}"]
            swapped = _product_at(
                word, n, {**point, f"x{i}": xj, f"x{i + 1}": xi})
            # H u_i - b H: u_w u_i is u_(w s_i) at an ascent, b u_w else
            rhs = {w: -b * a for w, a in H.items()}
            for w, a in H.items():
                if w[i - 1] < w[i]:
                    ws = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
                    rhs[ws] = rhs.get(ws, 0) + a
                else:
                    rhs[w] += b * a
            inverse = pow(xi - xj, -1, ref.P)
            for w in set(H) | set(swapped) | set(rhs):
                phi = ((1 + b * xj) * H.get(w, 0)
                       - (1 + b * xi) * swapped.get(w, 0)) * inverse
                assert (phi - rhs.get(w, 0)) % ref.P == 0, (i, w)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_identity_words(self, n):
        """The two words of every pair of identity_words(n) have the same
        product at the point of seed 90 + n.  A word whose factors have
        coefficients of degree d_1, ..., d_L, b counted, has coefficients
        of degree at most the sum of the d_k + 1 (a b per descent): at most
        70 over these words at n = 8.  A false pair differs in some
        coefficient, so it passes with probability at most 70 / P < 4e-17."""
        point = _at_point([], n, seed=90 + n)[0]
        for name, pairs in identity_words(n).items():
            for k, (lhs, rhs) in enumerate(pairs):
                assert (_product_at(lhs, n, point)
                        == _product_at(rhs, n, point)), (name, k)

    def test_short_members_of_S7(self):
        """beta_poly of s_6, s_5 s_6, s_6 s_5 and s_1 s_6, which comes from
        the pruned chain in S_7, against build_Hxy(7)'s word at the point
        of seed 7.  The word has 42 factors of degree 1, with the b of a
        descent, so every coefficient has degree at most 84: a false pass
        has probability at most 4 * 84 / P < 2e-16."""
        point, H = _at_point(_word(build_Hxy, 7), 7, seed=7)
        for text in ("1 2 3 4 5 7 6", "1 2 3 4 6 7 5", "1 2 3 4 7 5 6",
                     "2 1 3 4 5 7 6"):
            w = Permutation.from_one_line(text)
            assert H[w] == ref.evaluate(beta_poly(w), point), w

    def test_bruhat_vanishing_at_short_members_of_S7(self):
        """Billey's formula as on S_4 for w = s_6 and s_5 s_6 in S_7, at the
        points of the first four p with w <= p^-1 and the first four
        without among 100 drawn from seed 7 for each w.  b and x_1..x_7
        come from seed 7.  Here h_w has degree at most 23, b counted, and
        at most 2 in each y_j, so times the cleared denominators
        (1 + b x_(p(j)))^2 it has degree at most 47: a false vanishing has
        probability at most 16 * 47 / P < 4e-16."""
        rng = random.Random(7)
        points = dict(_fixed_points(7, seed=7))
        for text in ("1 2 3 4 5 7 6", "1 2 3 4 6 7 5"):
            w = Permutation.from_one_line(text)
            h = beta_poly(w)
            drawn = rng.sample(sorted(points), 100)
            for below in (True, False):
                ps = [p for p in drawn if _bruhat_le(w, p.inverse()) is below]
                for p in ps[:4]:
                    assert (ref.evaluate(h, points[p]) == 0) is not below, (
                        p, w)
                assert len(ps) >= 4

    def test_bruhat_vanishing_at_the_fixed_points_of_S4(self):
        """Billey's formula (Billey, Duke Math. J. 96, 1999): at
        y_j = chi(x_(p(j))), with chi(x) = -x / (1 + b x), h_w vanishes
        exactly when w <= p^-1 fails in Bruhat order, for all 576 pairs of
        p and w in S_4.  b and x_1..x_4 come from seed 4 over Z/P.  Where
        the formula says h_w vanishes it vanishes identically, so the test
        errs on one side only: a nonzero h_w may vanish at the point by
        chance.  On S_4, h_w has degree at most 18, b counted, and at most
        3 in each y_j, so times the cleared denominators
        (1 + b x_(p(j)))^3 it is a polynomial of degree at most 36: a
        false vanishing has probability at most 576 * 36 / P < 1e-14."""
        family = {w: beta_poly(w) for w in all_permutations(4)}
        for p, point in _fixed_points(4, seed=4):
            below = p.inverse()
            for w, h in family.items():
                assert ((ref.evaluate(h, point) == 0)
                        == (not _bruhat_le(w, below))), (p, w)

    def test_bruhat_vanishing_at_the_fixed_points_of_S5(self):
        """Billey's formula as on S_4, for all 14,400 pairs of p and w in
        S_5, on alternative_product(5)'s word at the point of each p; b
        and x_1..x_5 come from seed 5.  The word has 10 factors
        h_(i+j-1)(x_i (+) y_j) of degree 3, b counted, and a descent adds
        a b, so every coefficient has degree at most 40, and at most 5 - j
        in y_j; times the cleared denominators (1 + b x_(p(j)))^(5-j) it
        is a polynomial of degree at most 60: a false vanishing has
        probability at most 14,400 * 60 / P < 4e-13."""
        word = _word(alternative_product, 5)
        for p, point in _fixed_points(5, seed=5):
            H = _product_at(word, 5, point)
            below = p.inverse()
            for w in all_permutations(5):
                assert (w in H) == _bruhat_le(w, below), (p, w)
