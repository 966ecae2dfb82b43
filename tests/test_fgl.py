from fractions import Fraction

import pytest
import sympy

from flagcalc.fgl import (
    FormalGroupLaw,
    chern_tensor_dual,
    make_additive,
    make_multiplicative,
    make_universal_rational,
)
from flagcalc.rings import (
    QQ, SparsePoly, ZZ, beta_ring, compositional_inverse, lazard_rational,
    series_reciprocal)

import flagcalc.fgl as fgl_module
import rings_reference as ref


def V(ring, name, e=1):
    return SparsePoly.var(ring, name, e)


def test_law_is_hashed_without_its_series(monkeypatch):
    """A memo keyed on a law hashes none of its series; a law equals
    only itself."""
    law = make_universal_rational(6, 6)

    def no_hash(self):
        raise AssertionError("a series was hashed")
    monkeypatch.setattr(SparsePoly, "__hash__", no_hash)
    assert {law: 1}[law] == 1
    assert law != make_universal_rational(6, 6)


@pytest.mark.parametrize("D", [1, 2, 5])
@pytest.mark.parametrize("build", [
    make_additive,
    lambda D: make_multiplicative(V(beta_ring(), "b"), D),
    lambda D: make_universal_rational(D + 1, D),
], ids=["additive", "multiplicative", "universal"])
def test_law_has_one_bound_and_one_ring(build, D):
    law = build(D)
    assert law.D == law.F.bound == law.chi.bound == D
    assert law.ring == law.F.body.ring == law.chi.body.ring


@pytest.mark.parametrize("build", [
    make_additive,
    lambda D: make_multiplicative(V(beta_ring(), "b"), D),
    lambda D: make_universal_rational(2, D),
], ids=["additive", "multiplicative", "universal"])
def test_law_bounds_at_zero_and_below(build):
    """At D = 0 every law is F = chi = 0; D < 0 names the bound."""
    law = build(0)
    assert law.D == 0 and law.F.body.is_zero() and law.chi.body.is_zero()
    with pytest.raises(ValueError, match="^negative truncation degree -1$"):
        build(-1)


def test_law_truncates_its_polynomials():
    ring = beta_ring()
    u, v, b = V(ring, "u"), V(ring, "v"), V(ring, "b")
    law = FormalGroupLaw(u + v - b * u * v, -u - b * u ** 2, 1)
    assert (law.ring, law.F.body, law.chi.body) == (ring, u + v, -u)


class TestAdditive:
    @pytest.mark.parametrize("ring", [beta_ring(), ZZ, QQ],
                             ids=["Zb", "ZZ", "QQ"])
    def test_is_the_multiplicative_law_at_zero(self, ring):
        u, v = V(ring, "u"), V(ring, "v")
        for D in range(1, 10):
            add, mult = make_additive(D, ring), make_multiplicative(0, D, ring)
            assert add.ring == mult.ring == ring
            for law in (add, mult):
                assert law.F.body.to_text() == (u + v).to_text()
                assert law.chi.body.to_text() == (-u).to_text()

    def test_sum(self):
        fgl = make_additive(4)
        r = fgl.ring
        assert fgl.sum_series(V(r, "x1"), V(r, "y1")) == V(r, "x1") + V(r, "y1")

    def test_inverse(self):
        fgl = make_additive(4)
        r = fgl.ring
        assert fgl.inverse_series(V(r, "x1")) == -V(r, "x1")

    def test_constant_term_rejected(self):
        fgl = make_additive(4)
        with pytest.raises(ValueError):
            fgl.sum_series(SparsePoly.const(fgl.ring, 1), V(fgl.ring, "x1"))


class TestMultiplicative:
    def test_sum(self):
        ring = beta_ring()
        fgl = make_multiplicative(V(ring, "b"), 4, ring)
        x1, y1, b = V(ring, "x1"), V(ring, "y1"), V(ring, "b")
        assert fgl.sum_series(x1, y1) == x1 + y1 - b * x1 * y1

    def test_inverse_closed_form(self):
        # chi(u) = -u/(1 - b u) = -u - b u^2 - b^2 u^3 - ...
        ring = beta_ring()
        fgl = make_multiplicative(V(ring, "b"), 3, ring)
        u, b = V(ring, "u"), V(ring, "b")
        assert fgl.chi.body == -u - b * u ** 2 - b ** 2 * u ** 3

    def test_inverse_cancels(self):
        ring = beta_ring()
        fgl = make_multiplicative(V(ring, "b"), 6, ring)
        u = V(ring, "u")
        assert fgl.sum_series(u, fgl.inverse_series(u)).is_zero()

    def test_scalar_parameter(self):
        fgl = make_multiplicative(-1, 4, ZZ)
        x1, y1 = V(ZZ, "x1"), V(ZZ, "y1")
        assert fgl.sum_series(x1, y1) == x1 + y1 + x1 * y1

    @pytest.mark.parametrize("D", range(10))
    @pytest.mark.parametrize("ring, b", [
        (beta_ring(), "b"), (beta_ring(), 2), (beta_ring(), 0), (ZZ, -1)],
        ids=["Zb-b", "Zb-2", "Zb-0", "ZZ-minus-1"])
    def test_inverse_is_the_geometric_series(self, ring, b, D):
        """chi(u) = -u / (1 - b u), by series_reciprocal, at D = 0 the
        zero series."""
        b = V(ring, b) if b == "b" else SparsePoly.const(ring, b)
        u = V(ring, "u")
        want = (-u * series_reciprocal(1 - b * u, D)).truncate(D)
        chi = make_multiplicative(b, D, ring).chi.body
        assert chi == want and chi.to_text() == want.to_text()

    def test_negative_bound_rejected(self):
        ring = beta_ring()
        with pytest.raises(ValueError):
            make_multiplicative(V(ring, "b"), -1, ring)


class TestUniversal:
    def test_needs_enough_log_generators(self):
        with pytest.raises(ValueError):
            make_universal_rational(2, 3)

    def test_low_order_sum(self):
        fgl = make_universal_rational(3, 3)
        r = fgl.ring
        u, v, m1 = V(r, "u"), V(r, "v"), V(r, "m1")
        # degree-2 part is -2 m1 u v: from exp(s) = s - m1 s^2 + ... applied
        # to s = log(u) + log(v), the quadratic terms m1 u^2 + m1 v^2 cancel
        # against -m1 (u + v)^2
        assert fgl.F.body.homogeneous_part(2) == -2 * m1 * u * v

    def test_low_order_inverse(self):
        fgl = make_universal_rational(3, 3)
        r = fgl.ring
        u, m1 = V(r, "u"), V(r, "m1")
        assert fgl.chi.body.homogeneous_part(2) == -2 * m1 * u ** 2

    def test_inverse_against_sympy(self):
        # independent series reversion of the logarithm, then chi = exp(-log u)
        D = 5
        fgl = make_universal_rational(D, D)
        t = sympy.symbols("t")
        ms = sympy.symbols(f"m1:{D + 1}")
        log = t + sum(ms[k - 1] * t ** (k + 1) for k in range(1, D + 1))
        # revert by undetermined coefficients: the t^k coefficient of
        # log(cand) is a_k plus terms in a_1..a_{k-1} and the m's, so a_k
        # is read off once it is seen to enter linearly with coefficient 1
        a = sympy.symbols(f"a1:{D + 1}")
        cand = sum(a[k - 1] * t ** k for k in range(1, D + 1))
        comp = sympy.Poly(log.subs(t, cand), t)
        sol = {}
        for k in range(1, D + 1):
            eq = sympy.expand(comp.coeff_monomial(t ** k).subs(sol))
            rest = sympy.expand(eq - a[k - 1])
            assert not rest.has(*a[k - 1:])
            target = 1 if k == 1 else 0
            sol[a[k - 1]] = sympy.expand(target - rest)
        exp_series = sympy.expand(cand.subs(sol))
        u = sympy.symbols("u")
        chi_ref = sympy.expand(exp_series.subs(t, -log.subs(t, u)))
        chi_ref = sum(
            sympy.expand(chi_ref).coeff(u, k) * u ** k for k in range(D + 1))
        syms = {"u": u, **{f"m{k}": ms[k - 1] for k in range(1, D + 1)}}
        got_sym = sympy.Integer(0)
        for mono, c in fgl.chi.body.terms.items():
            term = sympy.Rational(c)
            for name, e in mono:
                term *= syms[name] ** e
            got_sym += term
        assert sympy.expand(got_sym - chi_ref) == 0

    def test_inverse_cancels(self):
        fgl = make_universal_rational(4, 4)
        u = V(fgl.ring, "u")
        assert fgl.sum_series(u, fgl.inverse_series(u)).is_zero()

    def test_associative(self):
        fgl = make_universal_rational(4, 4)
        r = fgl.ring
        u, v, w = V(r, "u"), V(r, "v"), V(r, "w")
        left = fgl.sum_series(fgl.sum_series(u, v), w)
        right = fgl.sum_series(u, fgl.sum_series(v, w))
        assert left == right

    def test_commutative(self):
        fgl = make_universal_rational(3, 3)
        r = fgl.ring
        u, v = V(r, "u"), V(r, "v")
        assert fgl.sum_series(u, v) == fgl.sum_series(v, u)

    def test_specialises_to_additive(self):
        fgl = make_universal_rational(4, 4)
        kill = {f"m{k}": 0 for k in range(1, 5)}
        got = fgl.F.body.substitute(kill, ring=QQ)
        assert got == V(QQ, "u") + V(QQ, "v")

    def test_specialises_to_multiplicative(self):
        # m_k -> 1/(k+1) is the logarithm of u + v - u v with b = 1
        fgl = make_universal_rational(4, 4)
        sub = {f"m{k}": Fraction(1, k + 1) for k in range(1, 5)}
        got = fgl.F.body.substitute(sub, ring=QQ)
        mult = make_multiplicative(1, 4, QQ)
        u, v = V(QQ, "u"), V(QQ, "v")
        assert got == mult.sum_series(u, v)


class TestUniversalAtSixteen:
    """The law at D = K = 16, built in well under a second."""

    @pytest.fixture(scope="class")
    def law(self):
        return make_universal_rational(16, 16)

    def test_exp_and_log_are_inverse(self, law):
        t = V(law.ring, "t")
        log = t + sum(V(law.ring, f"m{k}") * t ** (k + 1)
                      for k in range(1, 17))
        exp = compositional_inverse(log, 16)
        assert exp.substitute({"t": log}, bound=16) == t
        assert log.substitute({"t": exp}, bound=16) == t

    def test_inverse_cancels(self, law):
        u = V(law.ring, "u")
        assert law.sum_series(u, law.inverse_series(u)).is_zero()

    def test_zero_is_the_unit(self, law):
        assert law.F.body.substitute({"v": 0}) == V(law.ring, "u")

    def test_symmetric(self, law):
        u, v = V(law.ring, "u"), V(law.ring, "v")
        assert law.F.body.substitute({"u": v, "v": u}) == law.F.body


@pytest.mark.parametrize("D", range(1, 10))
def test_universal_law_text_matches_fixed_point_inverse(monkeypatch, D):
    """F and chi print the same text when the law's exp is the old
    fixed-point inverse kept in rings_reference."""
    law = make_universal_rational(D, D)
    monkeypatch.setattr(fgl_module, "compositional_inverse",
                        ref.compositional_inverse)
    old = make_universal_rational(D, D)
    assert law.F.body.to_text() == old.F.body.to_text()
    assert law.chi.body.to_text() == old.chi.body.to_text()


def _universal_by_log_loop(D: int) -> tuple:
    """F and chi of the universal law at K = D, its log summed one
    m_k t^(k+1) at a time."""
    ring = lazard_rational(D)
    t = V(ring, "t")
    log = t
    for k in range(1, D + 1):
        log = log + V(ring, f"m{k}") * t ** (k + 1)
    exp = compositional_inverse(log, D)
    log_u = log.substitute({"t": V(ring, "u")}, bound=D)
    log_v = log.substitute({"t": V(ring, "v")}, bound=D)
    return (exp.substitute({"t": log_u + log_v}, bound=D),
            exp.substitute({"t": -log_u}, bound=D))


@pytest.mark.parametrize("D", range(1, 10))
def test_universal_law_matches_the_log_loop(D):
    law = make_universal_rational(D, D)
    F, chi = _universal_by_log_loop(D)
    assert law.F.body == F and law.F.body.to_text() == F.to_text()
    assert law.chi.body == chi and law.chi.body.to_text() == chi.to_text()


class TestChernTensorDual:
    def test_line_bundles_additive(self):
        fgl = make_additive(4, ZZ)
        x1, y1, t = V(ZZ, "x1"), V(ZZ, "y1"), V(ZZ, "t")
        chern, top = chern_tensor_dual(fgl, [x1], [y1])
        assert top == x1 - y1
        assert chern == SparsePoly.const(ZZ, 1) + (x1 - y1) * t

    def test_line_bundles_multiplicative(self):
        ring = beta_ring()
        fgl = make_multiplicative(V(ring, "b"), 3, ring)
        x1, y1, b = V(ring, "x1"), V(ring, "y1"), V(ring, "b")
        _, top = chern_tensor_dual(fgl, [x1], [y1])
        # (x - y)(1 + b y + b^2 y^2), truncated at total degree 3
        expected = ((x1 - y1) * (SparsePoly.const(ring, 1) + b * y1
                                 + b ** 2 * y1 ** 2)).truncate(3)
        assert top == expected

    def test_rank_two_top_class_degree(self):
        fgl = make_additive(6, ZZ)
        xs = [V(ZZ, "x1"), V(ZZ, "x2")]
        ys = [V(ZZ, "y1"), V(ZZ, "y2")]
        _, top = chern_tensor_dual(fgl, xs, ys)
        assert top.degree() == 4
        # additive top class is the resultant-style product of differences
        prod = SparsePoly.const(ZZ, 1)
        for xi in xs:
            for yj in ys:
                prod = prod * (xi - yj)
        assert top == prod

    def test_marker_variable_not_truncated(self):
        fgl = make_additive(2, ZZ)
        chern, _ = chern_tensor_dual(fgl, [V(ZZ, "x1"), V(ZZ, "x2")],
                                     [V(ZZ, "y1")])
        # t^2 term survives even though D = 2
        assert any(dict(m).get("t", 0) == 2 for m in chern.terms)
