import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flagcalc
from flagcalc.rings import (
    DivisionError,
    QQ,
    RingMismatchError,
    SparsePoly,
    ZZ,
    _encode,
    beta_ring,
    compositional_inverse,
    divide_by_difference,
    lazard_rational,
    series_reciprocal,
    sum_of_products,
)

import rings_reference as ref
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

    def test_power_forms_no_product_with_one(self, ring, monkeypatch):
        # by squaring, p ** n takes bit_length - 1 squares and
        # popcount - 1 further products: none with the constant 1
        p = V(ring, "x1") + V(ring, "y1")
        calls = []
        monkeypatch.setattr(flagcalc.rings, "sum_of_products",
                            lambda pairs, *args: calls.append(pairs)
                            or sum_of_products(pairs, *args))
        direct = SparsePoly.const(ring, 1)
        for n in range(9):
            calls.clear()
            got = p ** n
            assert got == direct, n
            assert len(calls) == max(0, n.bit_length() + n.bit_count() - 2)
            assert not any(a == 1 or b == 1 for pairs in calls
                           for a, b in pairs), n
            direct = sum_of_products([(direct, p)], ring)
        assert p ** 1 is p
        assert p ** 0 == 1 and (p ** 0).ring == ring
        with pytest.raises(ValueError, match="negative power"):
            p ** -1

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

    @pytest.mark.parametrize("target, name", [
        (ZZ, "b"), (lazard_rational(2), "m3")],
        ids=["b-over-Z", "m3-over-Qm2"])
    def test_terms_name_no_generator_the_ring_lacks(self, target, name):
        with pytest.raises(RingMismatchError,
                           match=f"generator '{name}' not in {target.kind}"):
            SparsePoly(target, {(("x1", 1), (name, 1)): 1})

    def test_substitute_keeps_no_generator_the_target_lacks(self):
        Zb = beta_ring()
        p = V(Zb, "b") * V(Zb, "x1")
        for image in (2, V(ZZ, "x2") + 1):
            with pytest.raises(RingMismatchError):
                p.substitute({"x1": image}, ring=ZZ)
        assert p.substitute({"x1": 0}, ring=ZZ).is_zero()
        assert p.substitute({"b": 3}, ring=ZZ) == 3 * V(ZZ, "x1")

    @pytest.mark.parametrize("source, name, target", [
        (beta_ring(), "b", ZZ), (lazard_rational(1), "m1", QQ),
        (lazard_rational(1), "m1", ZZ)],
        ids=["Zb-to-Z", "Qm-to-Q", "Qm-to-Z"])
    def test_substitute_names_the_generator_the_target_lacks(
            self, source, name, target):
        # Q[m] -> Z fails in the constructor, the other two in substitute's
        # own check; all three read as the constructor words it
        p = V(source, name) * V(source, "x1")
        with pytest.raises(RingMismatchError,
                           match=f"^generator '{name}' not in {target.kind}$"):
            p.substitute({"x1": 2}, ring=target)

    def test_allows_generator(self):
        # b only over Z[b]; m1..mK, k in canonical decimal, only over
        # Q[m1..mK]; m<digits> nowhere else; any other name (m, mx, x1) is
        # a variable in every ring
        K = 3
        names = ["b", "m", "m0", "m1", f"m{K}", f"m{K + 1}", "mx", "x1",
                 "m01", "m001"]
        no = [False, False]
        want = {
            ZZ: [False, True, False, False, False, False, True, True] + no,
            QQ: [False, True, False, False, False, False, True, True] + no,
            beta_ring():
                [True, True, False, False, False, False, True, True] + no,
            lazard_rational(K):
                [False, True, False, True, True, False, True, True] + no,
        }
        for ring, allowed in want.items():
            assert [ring.allows_generator(v) for v in names] == allowed, ring

    @pytest.mark.parametrize("name", ["m01", "m001"])
    def test_padded_lazard_names_are_rejected(self, name):
        ring = lazard_rational(2)
        match = f"^generator '{name}' not in LazardRational$"
        with pytest.raises(RingMismatchError, match=match):
            SparsePoly(ring, {((name, 1),): 1})
        with pytest.raises(RingMismatchError, match=match):
            V(ring, name)
        # no ring lets such a term in, so substitute's own check sees one
        # only in a polynomial forged past the constructor
        forged = SparsePoly._new(lazard_rational(3),
                                 {_encode(((name, 1), ("x1", 1))): 1})
        with pytest.raises(RingMismatchError, match=match):
            forged.substitute({"x1": 2}, ring=ring)

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
        p = SparsePoly.const(ring, 1) - V(ring, "b") * V(ring, "x1")
        b, x1 = V(ring, "b"), V(ring, "x1")
        expected = (SparsePoly.const(ring, 1) + b * x1 + b ** 2 * x1 ** 2
                    + b ** 3 * x1 ** 3)
        assert series_reciprocal(p, 3) == expected

    def test_one(self, ring):
        one = SparsePoly.const(ring, 1)
        assert series_reciprocal(one, 5) == one

    def test_no_constant_term(self, ring):
        with pytest.raises(ValueError):
            series_reciprocal(V(ring, "x1"), 3)

    def test_negative_bound_is_named(self, ring):
        one = SparsePoly.const(ring, 1)
        with pytest.raises(ValueError, match="^negative bound -1$"):
            series_reciprocal(one + V(ring, "x1"), -1)

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
            inv = series_reciprocal(body, D)
            assert sum_of_products([(body, inv)], ring, D) == one


class TestCompositionalInverse:
    def test_identity(self):
        assert compositional_inverse(V(QQ, "t"), 5) == V(QQ, "t")

    def test_one_log_generator(self):
        ring = lazard_rational(1)
        t, m1 = V(ring, "t"), V(ring, "m1")
        assert compositional_inverse(t + m1 * t ** 2, 3) == \
            t - m1 * t ** 2 + 2 * m1 ** 2 * t ** 3

    def test_catalan_numbers(self):
        # the inverse of t + t^2 has coefficients (-1)^(k-1) * Catalan(k-1)
        inv = compositional_inverse(V(ZZ, "t") + V(ZZ, "t", 2), 8)
        cat = [1, 1]
        while len(cat) < 8:
            cat.append(sum(cat[i] * cat[-1 - i] for i in range(len(cat))))
        for k in range(1, 9):
            assert inv.coeff((("t", k),)) == (-1) ** (k - 1) * cat[k - 1]

    def test_round_trip(self):
        ring = lazard_rational(4)
        t = V(ring, "t")
        body = t
        for k in range(1, 5):
            body = body + V(ring, f"m{k}") * t ** (k + 1)
        inv = compositional_inverse(body, 5)
        assert body.substitute({"t": inv}, bound=5) == t
        assert inv.substitute({"t": body}, bound=5) == t

    def test_bad_linear_coefficient(self):
        with pytest.raises(ValueError):
            compositional_inverse(2 * V(QQ, "t"), 3)


def _tail(ring, rng, top):
    """t plus seeded random coefficients on t^2..t^top: integers over Z,
    integers and multiples of b^1..b^3 over Z[b], fractions over Q."""
    t, p = V(ring, "t"), V(ring, "t")
    for e in range(2, top + 1):
        if ring == QQ:
            c = SparsePoly.const(ring, Fraction(rng.randint(-5, 5),
                                                rng.randint(1, 6)))
        else:
            c = SparsePoly.const(ring, rng.randint(-3, 3))
            if ring != ZZ:
                c += rng.randint(-2, 2) * V(ring, "b", rng.randint(1, 3))
        p += c * t ** e
    return p


class TestLagrangeInversion:
    """Lagrange inversion against the fixed-point iteration it replaced
    (rings_reference.compositional_inverse), on seeded random series."""

    @pytest.mark.parametrize("K", range(1, 7))
    def test_matches_fixed_point_over_lazard(self, K):
        ring, rng = lazard_rational(K), random.Random(2900 + K)
        t = V(ring, "t")
        for bound in range(1, 10):  # K < bound from bound = K + 2 on
            p = t
            for k in range(1, K + 1):
                c = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
                p += (c * V(ring, f"m{k}") + rng.randint(-2, 2)) * t ** (k + 1)
            assert compositional_inverse(p, bound) == \
                ref.compositional_inverse(p, bound)

    @pytest.mark.parametrize("ring", [ZZ, beta_ring(), QQ],
                             ids=["ZZ", "Zb", "QQ"])
    def test_matches_fixed_point_with_random_tails(self, ring):
        rng = random.Random(2929)
        for _ in range(12):
            p = _tail(ring, rng, rng.randint(2, 9))
            for bound in range(1, 10):
                got = compositional_inverse(p, bound)
                assert got == ref.compositional_inverse(p, bound)
                if not ring.rational:
                    assert all(type(c) is int for c in got.terms.values())

    @pytest.mark.parametrize("ring", [ZZ, beta_ring(), lazard_rational(2)],
                             ids=["ZZ", "Zb", "Qm"])
    def test_bound_one_is_t(self, ring):
        t = V(ring, "t")
        assert compositional_inverse(t + 3 * t ** 2 - t ** 5, 1) == t

    @pytest.mark.parametrize("bound", [0, -1, -5])
    def test_bound_below_one_is_zero(self, bound):
        # t is above the bound, and the series is checked before it is cut
        t = V(QQ, "t")
        assert compositional_inverse(t + t ** 2, bound).is_zero()
        with pytest.raises(ValueError, match="linear coefficient must be 1"):
            compositional_inverse(2 * t + t ** 2, bound)

    def test_variables_besides_t_raise(self):
        t, x1 = V(QQ, "t"), V(QQ, "x1")
        with pytest.raises(ValueError, match="variables besides t"):
            compositional_inverse(t + x1 * t, 3)

    @pytest.mark.parametrize("ring", [ZZ, beta_ring()], ids=["ZZ", "Zb"])
    def test_nonzero_constant_term_raises(self, ring):
        t = V(ring, "t")
        for const in [SparsePoly.const(ring, 1)] + (
                [V(ring, "b")] if ring != ZZ else []):
            with pytest.raises(ValueError, match="nonzero constant term"):
                compositional_inverse(const + t + t ** 2, 3)

    def test_generator_in_degree_one_raises(self):
        # t (1 + b) has no polynomial inverse: its linear part is not t
        t, b = V(beta_ring(), "t"), V(beta_ring(), "b")
        with pytest.raises(ValueError, match="linear coefficient must be 1"):
            compositional_inverse(t + b * t + t ** 2, 4)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("ring", [ZZ, beta_ring()], ids=["ZZ", "Zb"])
    def test_one_monomial_tail(self, ring, k):
        # the inverse of t + t^k is sum_j (-1)^j C(kj, j) / ((k-1)j + 1)
        # t^((k-1)j + 1), the Fuss-Catalan numbers with alternating signs
        t, bound = V(ring, "t"), 13
        want = SparsePoly.zero(ring)
        for j in range(bound):
            if (k - 1) * j + 1 <= bound:
                c = (-1) ** j * math.comb(k * j, j) // ((k - 1) * j + 1)
                want += c * t ** ((k - 1) * j + 1)
        got = compositional_inverse(t + t ** k, bound)
        assert got == want
        assert all(type(c) is int for c in got.terms.values())


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

    @pytest.mark.parametrize("fmt", ["text", "latex", "json"])
    def test_order_does_not_depend_on_first_sight(self, fmt):
        # x and x0, and y1 and y01, read alike as stem and index; each
        # order of the terms registers the names of a pair in another
        # order in a fresh process, and the output is the same
        path = os.pathsep.join(filter(None, [
            str(Path(flagcalc.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]))

        def reduce(text):
            return subprocess.run(
                [sys.executable, "-m", "flagcalc", "flagring", "reduce",
                 "--n", "1", "--trivial", "--input", text, "--format", fmt],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": path}).stdout
        assert reduce("x0 y01 + x y1") == reduce("x y1 + x0 y01")

    def test_latex_beta(self, ring):
        p = V(ring, "b") * V(ring, "x1", 2)
        assert p.to_latex() == r"x_{1}^{2} \beta"
