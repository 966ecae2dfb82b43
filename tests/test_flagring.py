import math
import random
from fractions import Fraction

import pytest

from flagcalc.flagring import FlagRingPresentation
from flagcalc.porteous import elementary_symmetric
from flagcalc.rings import SparsePoly, ZZ, beta_ring, lazard_rational

from conftest import random_poly
from flagring_reference import normal_form_monomials


def V(name, e=1):
    return SparsePoly.var(ZZ, name, e)


class TestConstruction:
    def test_wrong_length(self):
        with pytest.raises(ValueError):
            FlagRingPresentation(3, (SparsePoly.zero(ZZ),), ZZ)

    def test_normal_form_count(self):
        for n in (1, 2, 3):
            pres = FlagRingPresentation.trivial(n, ZZ)
            assert len(normal_form_monomials(n)) == math.factorial(n)


class TestTrivialBundle:
    def test_relations_vanish(self):
        pres = FlagRingPresentation.trivial(2, ZZ)
        assert pres.reduce(V("x1") + V("x2")).is_zero()
        assert pres.reduce(V("x1") * V("x2")).is_zero()
        assert pres.reduce(V("x1", 2)).is_zero()

    def test_x2_reduces_to_minus_x1(self):
        pres = FlagRingPresentation.trivial(2, ZZ)
        assert pres.reduce(V("x2")) == -V("x1")
        assert pres.equal_in_ring(V("x2"), -V("x1"))

    def test_top_power_vanishes(self):
        # x_1^n lies in the ideal for the trivial bundle
        for n in (2, 3):
            pres = FlagRingPresentation.trivial(n, ZZ)
            assert pres.reduce(V("x1", n)).is_zero()

    def test_fundamental_class_survives(self):
        # the staircase monomial is a normal form and nonzero in the ring
        pres = FlagRingPresentation.trivial(3, ZZ)
        mono = V("x1", 2) * V("x2")
        assert pres.reduce(mono) == mono


class TestSymbolicBundle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_elementary_reduce_to_chern(self, n):
        pres = FlagRingPresentation.symbolic(n, ZZ)
        for i in range(1, n + 1):
            e = elementary_symmetric(ZZ, i, [f"x{k}" for k in range(1, n + 1)])
            assert pres.reduce(e) == V(f"c{i}")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("ring, coeff", [
        (ZZ, {(): 1}),
        (beta_ring(), {(): 2, (("b", 1),): 1}),
        (lazard_rational(2), {(("c1", 1),): Fraction(1, 3), (("m2", 1),): -1}),
    ], ids=["ZZ", "Zb", "Qm"])
    def test_reduction_fixes_normal_forms(self, ring, coeff, n):
        # times a coefficient in the ring's generators and c_1, a normal
        # form still: no step of the elimination has anything to divide
        pres = FlagRingPresentation.symbolic(n, ring)
        for mono in normal_form_monomials(n):
            p = SparsePoly(ring, {mono + m: c for m, c in coeff.items()})
            assert pres.reduce(p) == p

    def test_output_is_in_normal_form(self):
        pres = FlagRingPresentation.symbolic(3, ZZ)
        rng = random.Random(3)
        for _ in range(10):
            p = random_poly(ZZ, rng, nvars=3, max_exp=4, with_beta=False)
            q = pres.reduce(p)
            for mono in q.terms:
                for v, e in mono:
                    if v.startswith("x"):
                        k = int(v[1:])
                        assert e <= 3 - k


class TestRingStructure:
    def test_reduce_idempotent(self):
        pres = FlagRingPresentation.symbolic(3, ZZ)
        rng = random.Random(4)
        for _ in range(10):
            p = random_poly(ZZ, rng, nvars=3, max_exp=4, with_beta=False)
            assert pres.reduce(pres.reduce(p)) == pres.reduce(p)

    def test_reduce_additive(self):
        pres = FlagRingPresentation.symbolic(3, ZZ)
        rng = random.Random(5)
        for _ in range(10):
            p = random_poly(ZZ, rng, nvars=3, with_beta=False)
            q = random_poly(ZZ, rng, nvars=3, with_beta=False)
            assert pres.reduce(p + q) == pres.reduce(p) + pres.reduce(q)

    def test_reduce_multiplicative(self):
        pres = FlagRingPresentation.symbolic(3, ZZ)
        rng = random.Random(6)
        for _ in range(10):
            p = random_poly(ZZ, rng, nvars=3, with_beta=False)
            q = random_poly(ZZ, rng, nvars=3, with_beta=False)
            assert pres.reduce(p * q) == \
                pres.reduce(pres.reduce(p) * pres.reduce(q))

    def test_equal_in_ring_detects_difference(self):
        pres = FlagRingPresentation.trivial(2, ZZ)
        assert not pres.equal_in_ring(V("x1"), SparsePoly.const(ZZ, 1))


class TestHighPowers:
    def test_no_recursion_limit(self):
        # a chain of 1500 rewrites, beyond the interpreter's recursion limit
        ring = beta_ring()
        pres = FlagRingPresentation.symbolic(2, ring)
        big = pres.reduce(SparsePoly.var(ring, "x1", 1500))
        assert not big.is_zero()
        for mono in big.terms:
            exps = dict(mono)
            assert exps.get("x1", 0) <= 1 and exps.get("x2", 0) == 0
        half = pres.reduce(SparsePoly.var(ring, "x1", 750))
        assert pres.reduce(half * half) == big


class TestXDegreeBound:
    """reduce refuses an x-degree above MAX_X_DEGREE.  It reads the
    geometric degree first, which counts every x and so bounds the
    x-degree, and splits by x_1..x_n only when that degree is above the
    bound."""

    def test_x_power_above_the_bound_is_refused(self):
        ring = beta_ring()
        pres = FlagRingPresentation.symbolic(2, ring)
        with pytest.raises(ValueError, match="x-degree 1501 exceeds 1500"):
            pres.reduce(SparsePoly.var(ring, "x1", 1501))

    def test_other_variables_do_not_count(self):
        ring = beta_ring()
        pres = FlagRingPresentation.symbolic(2, ring)
        y = SparsePoly.var(ring, "y1", 2000)
        got = pres.reduce(y * SparsePoly.var(ring, "x1", 3))
        assert got == y * pres.reduce(SparsePoly.var(ring, "x1", 3))
        assert not got.is_zero()
