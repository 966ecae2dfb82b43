import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc.rings import (
    DivisionError,
    QQ,
    RingMismatchError,
    SparsePoly,
    TruncatedSeries,
    ZZ,
    beta_ring,
    compositional_inverse,
    divide_by_difference,
    lazard_rational,
    series_reciprocal,
    sum_of_products,
)

from conftest import random_poly


def V(ring, name, e=1):
    return SparsePoly.var(ring, name, e)


class TestArith:
    @pytest.mark.parametrize("ring", [ZZ, QQ, beta_ring(), lazard_rational(2)],
                             ids=["ZZ", "QQ", "Zb", "Qm"])
    def test_compare_with_fraction(self, ring):
        # a non-integral Fraction equals no element of Z or Z[b], and
        # comparing with it must say so rather than raise
        three = SparsePoly.const(ring, 3)
        assert not three == Fraction(1, 2)
        assert three != Fraction(1, 2)
        assert V(ring, "x1") != Fraction(1, 2)
        assert three == Fraction(3) and three == 3 and three != 2
        assert SparsePoly.zero(ring) == Fraction(0) == SparsePoly.zero(ring)
        if ring.rational:
            assert SparsePoly.const(ring, Fraction(1, 2)) == Fraction(1, 2)

    def test_additive_inverse(self, ring):
        x1 = V(ring, "x1")
        assert (x1 + (-x1)).is_zero()

    def test_mul_identity(self, ring):
        p = V(ring, "x1") + V(ring, "y1")
        assert p * SparsePoly.const(ring, 1) == p

    def test_distribute_by_hand(self, ring):
        # (x1 + y1 + b x1 y1) * x2, expanded manually
        b = V(ring, "b")
        x1, x2, y1 = V(ring, "x1"), V(ring, "x2"), V(ring, "y1")
        got = (x1 + y1 + b * x1 * y1) * x2
        assert got == x1 * x2 + x2 * y1 + b * x1 * x2 * y1

    def test_ring_mismatch(self, ring):
        with pytest.raises(RingMismatchError):
            V(ring, "x1") + V(QQ, "x1")

    def test_beta_not_in_integers(self):
        with pytest.raises(RingMismatchError):
            V(ZZ, "b")

    def test_substitute_keeps_no_generator_the_target_lacks(self):
        Zb = beta_ring()
        p = V(Zb, "b") * V(Zb, "x1")
        for image in (2, V(ZZ, "x2") + 1):
            with pytest.raises(RingMismatchError):
                p.substitute({"x1": image}, ring=ZZ)
        assert p.substitute({"x1": 0}, ring=ZZ).is_zero()
        assert p.substitute({"b": 3}, ring=ZZ) == 3 * V(ZZ, "x1")

    def test_allows_generator(self):
        # b only over Z[b]; m1..mK only over Q[m1..mK]; m<digits> nowhere
        # else; any other name (m, mx, x1) is a variable in every ring
        K = 3
        names = ["b", "m", "m0", "m1", f"m{K}", f"m{K + 1}", "mx", "x1"]
        want = {
            ZZ: [False, True, False, False, False, False, True, True],
            QQ: [False, True, False, False, False, False, True, True],
            beta_ring(): [True, True, False, False, False, False, True, True],
            lazard_rational(K):
                [False, True, False, True, True, False, True, True],
        }
        for ring, allowed in want.items():
            assert [ring.allows_generator(v) for v in names] == allowed, ring

    def test_no_fractions_over_integers(self):
        with pytest.raises(ValueError):
            SparsePoly.const(ZZ, Fraction(1, 2))

    def test_zero_terms_pruned(self, ring):
        p = V(ring, "x1") - V(ring, "x1") + V(ring, "x2")
        assert len(p.terms) == 1


class TestDivideLinear:
    def test_difference_itself(self, ring):
        p = V(ring, "x1") - V(ring, "x2")
        assert divide_by_difference(p, "x1", "x2") == SparsePoly.const(ring, 1)

    def test_square_difference(self, ring):
        p = V(ring, "x1", 2) - V(ring, "x2", 2)
        assert (divide_by_difference(p, "x1", "x2")
                == V(ring, "x1") + V(ring, "x2"))

    def test_not_divisible(self, ring):
        with pytest.raises(DivisionError):
            divide_by_difference(V(ring, "x1") + V(ring, "x2"), "x1", "x2")

    def test_antisymmetrised_always_divides(self, ring):
        rng = random.Random(7)
        for _ in range(50):
            p = random_poly(ring, rng)
            swapped = p.substitute({"x1": V(ring, "x2"), "x2": V(ring, "x1")})
            q = divide_by_difference(p - swapped, "x1", "x2")
            assert q * (V(ring, "x1") - V(ring, "x2")) == p - swapped


class TestSeriesReciprocal:
    def test_geometric(self, ring):
        s = TruncatedSeries(
            SparsePoly.const(ring, 1) - V(ring, "b") * V(ring, "x1"), 3)
        b, x1 = V(ring, "b"), V(ring, "x1")
        expected = (SparsePoly.const(ring, 1) + b * x1 + b ** 2 * x1 ** 2
                    + b ** 3 * x1 ** 3)
        assert series_reciprocal(s).body == expected

    def test_one(self, ring):
        s = TruncatedSeries(SparsePoly.const(ring, 1), 5)
        assert series_reciprocal(s).body == SparsePoly.const(ring, 1)

    def test_no_constant_term(self, ring):
        with pytest.raises(ValueError):
            series_reciprocal(TruncatedSeries(V(ring, "x1"), 3))

    def test_random_units_round_trip(self):
        ring = QQ
        rng = random.Random(11)
        one = SparsePoly.const(ring, 1)
        for _ in range(200):
            D = rng.randint(1, 8)
            body = SparsePoly.const(ring, rng.choice([1, -1, 2, 3, -2]))
            for _ in range(3):
                t = SparsePoly.const(ring, rng.randint(-3, 3))
                t = t * V(ring, "x1", rng.randint(1, 3))
                body = body + t
            s = TruncatedSeries(body, D)
            inv = series_reciprocal(s)
            assert sum_of_products([(s.body, inv.body)], ring, D) == one


class TestCompositionalInverse:
    def test_identity(self):
        s = TruncatedSeries(V(QQ, "t"), 5)
        assert compositional_inverse(s).body == V(QQ, "t")

    def test_one_log_generator(self):
        ring = lazard_rational(1)
        t, m1 = V(ring, "t"), V(ring, "m1")
        s = TruncatedSeries(t + m1 * t ** 2, 3)
        assert compositional_inverse(s).body == \
            t - m1 * t ** 2 + 2 * m1 ** 2 * t ** 3

    def test_catalan_numbers(self):
        # the inverse of t + t^2 has coefficients (-1)^(k-1) * Catalan(k-1)
        s = TruncatedSeries(V(ZZ, "t") + V(ZZ, "t", 2), 8)
        inv = compositional_inverse(s)
        cat = [1, 1]
        while len(cat) < 8:
            cat.append(sum(cat[i] * cat[-1 - i] for i in range(len(cat))))
        for k in range(1, 9):
            assert inv.body.coeff((("t", k),)) == (-1) ** (k - 1) * cat[k - 1]

    def test_round_trip(self):
        ring = lazard_rational(4)
        t = V(ring, "t")
        body = t
        for k in range(1, 5):
            body = body + V(ring, f"m{k}") * t ** (k + 1)
        s = TruncatedSeries(body, 5)
        inv = compositional_inverse(s)
        assert s.substitute_into({"t": inv.body}).body == t
        assert inv.substitute_into({"t": s.body}).body == t

    def test_bad_linear_coefficient(self):
        with pytest.raises(ValueError):
            compositional_inverse(TruncatedSeries(2 * V(QQ, "t"), 3))


class TestSubstitute:
    def test_grothendieck_to_schubert_convention(self, ring):
        b = V(ring, "b")
        x1, y1 = V(ring, "x1"), V(ring, "y1")
        p = x1 + y1 + b * x1 * y1
        got = p.substitute({"b": 0, "y1": -V(ZZ, "y1")}, ring=ZZ)
        assert got == V(ZZ, "x1") - V(ZZ, "y1")

    def test_identity_assignment(self, ring):
        x1 = V(ring, "x1")
        assert x1.substitute({"x1": x1}) == x1

    def test_kill_factor(self, ring):
        p = V(ring, "x1") * V(ring, "y1")
        assert p.substitute({"y1": 0}).is_zero()


class TestTruncation:
    def test_idempotent(self, ring):
        p = V(ring, "x1", 5) + V(ring, "x1") * V(ring, "b", 9)
        assert p.truncate(3).truncate(3) == p.truncate(3)

    def test_coefficient_generators_never_truncated(self, ring):
        p = V(ring, "b", 9) * V(ring, "x1")
        assert p.truncate(1) == p


# -- hypothesis: exact ring axioms -------------------------------------------

_coeffs = st.integers(min_value=-6, max_value=6)
_exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))


@st.composite
def polys(draw):
    ring = beta_ring()
    n = draw(st.integers(1, 4))
    p = SparsePoly.zero(ring)
    for _ in range(n):
        c = draw(_coeffs)
        e1, e2, eb = draw(_exps)
        term = SparsePoly(ring, {(): c})
        term = term * SparsePoly.var(ring, "x1", e1)
        term = term * SparsePoly.var(ring, "x2", e2)
        term = term * SparsePoly.var(ring, "b", eb)
        p = p + term
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(polys())
def test_antisymmetric_numerators_divide(p):
    ring = p.ring
    swapped = p.substitute({"x1": SparsePoly.var(ring, "x2"),
                            "x2": SparsePoly.var(ring, "x1")})
    q = divide_by_difference(p - swapped, "x1", "x2")
    diff = SparsePoly.var(ring, "x1") - SparsePoly.var(ring, "x2")
    assert q * diff == p - swapped


class TestCanonicalOutput:
    def test_text(self, ring):
        p = V(ring, "x1") - V(ring, "y1")
        assert p.to_text() == "x1 - y1"

    def test_rational_coeff(self):
        p = SparsePoly.const(QQ, Fraction(3, 2)) * V(QQ, "x1")
        assert p.to_text() == "3/2 x1"

    def test_json_round_shape(self, ring):
        p = V(ring, "x1") + 2 * V(ring, "b")
        obj = p.to_json_obj()
        assert obj["vars"] == ["x1", "b"]
        assert {"exponents": [1, 0], "coeff": "1"} in obj["terms"]

    def test_latex_beta(self, ring):
        p = V(ring, "b") * V(ring, "x1", 2)
        assert p.to_latex() == r"x_{1}^{2} \beta"
