import random

import pytest

from flagcalc import divdiff
from flagcalc.divdiff import OperatorContext, braid_check
from flagcalc.fgl import (
    FormalGroupLaw,
    make_additive,
    make_multiplicative,
    make_universal_rational,
)
from flagcalc.rings import (
    SparsePoly,
    ZZ,
    beta_ring,
    divide_by_difference,
    series_reciprocal,
    sum_of_products,
)

from conftest import random_poly
from divdiff_reference import kappa, swap


def V(ring, name, e=1):
    return SparsePoly.var(ring, name, e)


def samples(ring, seed, count=6, nvars=3):
    rng = random.Random(seed)
    return [random_poly(ring, rng, nvars=nvars, with_beta=False)
            for _ in range(count)]


class TestPartial:
    def test_on_x1(self, ring):
        ctx = OperatorContext(3)
        assert ctx.partial(1, V(ring, "x1")) == SparsePoly.const(ring, 1)

    def test_kills_symmetric(self, ring):
        ctx = OperatorContext(3)
        p = V(ring, "x1") * V(ring, "x2") + V(ring, "x1") + V(ring, "x2")
        assert ctx.partial(1, p).is_zero()

    def test_squares_to_zero(self, ring):
        ctx = OperatorContext(3)
        for p in samples(ring, 1):
            assert ctx.partial(1, ctx.partial(1, p)).is_zero()

    def test_leibniz(self, ring):
        ctx = OperatorContext(3)
        rng = random.Random(5)
        for _ in range(8):
            f = random_poly(ring, rng)
            g = random_poly(ring, rng)
            lhs = ctx.partial(1, f * g)
            rhs = ctx.partial(1, f) * g + swap(1, f) * ctx.partial(1, g)
            assert lhs == rhs


class TestPhiBeta:
    def test_on_one(self, ring):
        ctx = OperatorContext(2)
        one = SparsePoly.const(ring, 1)
        assert ctx.phi_beta(1, one) == -V(ring, "b")

    def test_symmetric_eigenvalue(self, ring):
        # on a swap-invariant input phi_i acts as multiplication by -b
        ctx = OperatorContext(3)
        p = V(ring, "x1") * V(ring, "x2") + V(ring, "x3", 2)
        assert ctx.phi_beta(1, p) == -V(ring, "b") * p

    def test_quadratic_relation(self, ring):
        # phi_i^2 = -b phi_i
        ctx = OperatorContext(3)
        for p in samples(ring, 2):
            lhs = ctx.phi_beta(1, ctx.phi_beta(1, p))
            assert lhs == -V(ring, "b") * ctx.phi_beta(1, p)

    def test_specialisations_agree(self, ring):
        ctx = OperatorContext(3)
        for p in samples(ring, 3):
            assert ctx.phi_param(1, p, 0) == ctx.partial(1, p)
            assert ctx.phi_param(1, p, -1) == ctx.pi_op(1, p)

    def test_index_range(self, ring):
        ctx = OperatorContext(3)
        with pytest.raises(ValueError):
            ctx.phi_beta(3, V(ring, "x1"))


class TestPi:
    def test_idempotent(self, ring):
        ctx = OperatorContext(3)
        for p in samples(ring, 4):
            q = ctx.pi_op(1, p)
            assert ctx.pi_op(1, q) == q


class TestBraid:
    def test_holds(self, ring):
        ctx = OperatorContext(3)
        res = braid_check(ctx, 1, samples(ring, 6), "beta")
        assert res["holds"] and res["witness"] is None
        for op in (ctx.partial, ctx.pi_op):
            for p in samples(ring, 6):
                assert (ctx.compose_word((1, 2, 1), p, op)
                        == ctx.compose_word((2, 1, 2), p, op))

    @pytest.mark.parametrize("mode", ["phi", "partial"])
    def test_unknown_mode_raises(self, ring, mode):
        ctx = OperatorContext(3)
        with pytest.raises(ValueError, match="unknown mode"):
            braid_check(ctx, 1, samples(ring, 6), mode)

    def test_commutation_far_apart(self, ring):
        ctx = OperatorContext(4)
        for p in samples(ring, 7, nvars=4):
            lhs = ctx.phi_beta(1, ctx.phi_beta(3, p))
            assert lhs == ctx.phi_beta(3, ctx.phi_beta(1, p))

    def test_fgl_multiplicative_holds(self, ring):
        fgl = make_multiplicative(V(ring, "b"), 6, ring)
        ctx = OperatorContext(3, fgl=fgl)
        res = braid_check(ctx, 1, samples(ring, 10), "fgl")
        assert res["holds"], res["witness"]

    def test_fgl_universal_fails(self):
        # the generalised operators of a generic law are word-dependent;
        # the check must come back with a concrete counterexample
        fgl = make_universal_rational(4, 4)
        ctx = OperatorContext(3, fgl=fgl)
        sams = [V(fgl.ring, "x1", 2), V(fgl.ring, "x1") * V(fgl.ring, "x2"),
                V(fgl.ring, "x1", 2) * V(fgl.ring, "x2")]
        res = braid_check(ctx, 1, sams, "fgl")
        assert not res["holds"]
        assert res["witness"] is not None and not res["witness"].is_zero()
        assert res["input"] in sams


class TestBraidDefect:
    """The universal law's A_i miss the braid relation by a closed form:
    with alpha = e_i - e_(i+1) and beta = e_(i+1) - e_(i+2),
    A_i A_(i+1) A_i p - A_(i+1) A_i A_(i+1) p
        = kappa(beta, alpha) A_(i+1) p - kappa(alpha, beta) A_i p,
    kappa multiplying on the left.

    At the law's bound D, kappa is exact through D - 4, and A_i turns an
    input exact through E, with no term below degree v, into an output
    exact through min(E, D - 1 + v, D + 1) - 1.  So the two sides agree
    through D - 4 on every input, and through D - 2 on an input with no
    term below degree 3, where a step that cuts one degree too many
    shows."""

    @staticmethod
    def _sample(ring, rng, n, order):
        """A nonzero random polynomial in x_1..x_n with no term below
        degree order."""
        p = SparsePoly.zero(ring)
        while not p:
            p = random_poly(ring, rng, nvars=n, nterms=2, with_beta=False)
            p -= p.truncate(order - 1)
        return p

    @staticmethod
    def _kappas(fgl, i):
        alpha, beta = (i, i + 1), (i + 1, i + 2)
        return (kappa(fgl, alpha, beta, fgl.D - 4),
                kappa(fgl, beta, alpha, fgl.D - 4))

    @pytest.mark.parametrize("D", [8, 9])
    def test_universal_defect_is_the_kappa_formula(self, D):
        fgl = make_universal_rational(D, D)
        kappas = {i: self._kappas(fgl, i) for i in (1, 2)}
        rng, shown = random.Random(31 + D), {0: 0, 3: 0}
        for n, i in ((3, 1), (4, 1), (4, 2)):
            ctx = OperatorContext(n, fgl=fgl)
            k_ab, k_ba = kappas[i]
            for order, exact in ((0, D - 4), (3, D - 2)):
                p = self._sample(fgl.ring, rng, n, order)
                defect = (ctx.compose_word((i, i + 1, i), p, ctx.A_op)
                          - ctx.compose_word((i + 1, i, i + 1), p, ctx.A_op))
                formula = sum_of_products([(k_ba, ctx.A_op(i + 1, p)),
                                           (-k_ab, ctx.A_op(i, p))],
                                          fgl.ring, exact)
                assert (defect - formula).truncate(exact).is_zero(), (n, i, p)
                shown[order] += bool(defect.truncate(exact))
        # the identity is seen on nonzero defects of both kinds of input
        assert all(shown.values()), shown

    def test_kappa_constant_term_is_minus_a12(self):
        # a_12, the u v^2 coefficient of F, is 4 m1^2 - 3 m2
        fgl = make_universal_rational(8, 8)
        m1, m2 = V(fgl.ring, "m1"), V(fgl.ring, "m2")
        a12 = fgl.F.body.split(["u", "v"])[(1, 2)]
        assert a12 == 4 * m1 * m1 - 3 * m2
        for k in self._kappas(fgl, 1):
            assert k.constant_term() == -a12

    @pytest.mark.parametrize("D", [8, 9])
    def test_kappa_vanishes_for_the_braided_laws(self, ring, D):
        for fgl in (make_additive(D, ring),
                    make_multiplicative(V(ring, "b"), D, ring)):
            assert [k.is_zero() for k in self._kappas(fgl, 1)] == [True, True]

    def test_kappa_needs_four_degrees_of_the_law(self):
        with pytest.raises(ValueError, match="exact through"):
            kappa(make_additive(8), (1, 2), (2, 3), 5)


class TestGeneralisedOperator:
    def test_additive_is_partial(self):
        fgl = make_additive(6, ZZ)
        ctx = OperatorContext(3, fgl=fgl)
        rng = random.Random(8)
        for _ in range(6):
            p = random_poly(ZZ, rng, with_beta=False)
            assert ctx.A_op(1, p) == ctx.partial(1, p).truncate(6)

    def test_multiplicative_is_signed_phi(self, ring):
        # for F = u + v - b u v the denominator F(x_i, chi(x_{i+1})) equals
        # (x_i - x_{i+1}) / (1 - b x_{i+1}), so A_i coincides with the
        # operator built from the opposite-sign parameter
        fgl = make_multiplicative(V(ring, "b"), 6, ring)
        ctx = OperatorContext(3, fgl=fgl)
        rng = random.Random(9)
        for _ in range(6):
            p = random_poly(ring, rng, with_beta=False)
            got = ctx.A_op(1, p)
            want = ctx.phi_param(1, p, -V(ring, "b")).truncate(6)
            assert got == want

    def test_requires_law(self, ring):
        ctx = OperatorContext(3)
        with pytest.raises(ValueError):
            ctx.A_op(1, V(ring, "x1"))

    def test_law_and_bound_are_keyword_only(self, ring):
        # a second positional argument once meant the ring; it must not
        # bind the law
        with pytest.raises(TypeError):
            OperatorContext(3, make_additive(4, ring))

    @pytest.mark.parametrize("law", [
        *(f"universal D={D}" for D in (4, 5, 6, 7)),
        "multiplicative b", "multiplicative 3"])
    def test_denominator_unit_is_renamed_per_index(self, law, monkeypatch):
        # 1/g is built once, at i = 1, and renamed for i = 2..5; each
        # rename equals 1/g built directly from F(x_i, chi(x_{i+1}))
        if law.startswith("universal"):
            D = int(law[-1])
            fgl = make_universal_rational(D, D)
        else:
            ring = beta_ring() if law.endswith("b") else ZZ
            b = V(ring, "b") if law.endswith("b") else 3
            fgl = make_multiplicative(b, 6, ring)
        builds = []
        inverse = FormalGroupLaw.inverse_series
        monkeypatch.setattr(FormalGroupLaw, "inverse_series",
                            lambda self, a: builds.append(a) or inverse(self, a))
        divdiff._GINV_MEMO.clear()
        ctx = OperatorContext(6, fgl=fgl)
        got = {i: ctx._denominator_unit(i) for i in (5, 4, 3, 2, 1)}
        assert len(builds) == 1
        for i, ginv in got.items():
            xi, xi1 = V(fgl.ring, f"x{i}"), V(fgl.ring, f"x{i + 1}")
            denom = fgl.sum_series(xi, inverse(fgl, xi1))
            g = divide_by_difference(denom, f"x{i}", f"x{i + 1}")
            want = series_reciprocal(g, fgl.D - 1)
            assert ginv == want, i

    @pytest.mark.parametrize("build", [
        lambda: make_multiplicative(2, 0),
        lambda: make_universal_rational(1, 0),
    ], ids=["multiplicative", "universal"])
    def test_A_op_names_the_bound_at_D_0(self, build):
        """A law builds at D = 0, but A_i truncates 1/g at D - 1."""
        ctx = OperatorContext(3, fgl=build())
        with pytest.raises(ValueError,
                           match="^A_op needs D >= 1, the law has D = 0$"):
            ctx.A_op(1, V(ctx.fgl.ring, "x1"))

    def test_kills_symmetric_to_unit_multiple(self):
        # A_i(1) for the multiplicative law is -(-b) = b times 1... the
        # eigenvalue is chi-linked: A_i(1) = -(-b) = b for parameter -b
        ring = beta_ring()
        fgl = make_multiplicative(V(ring, "b"), 5, ring)
        ctx = OperatorContext(2, fgl=fgl)
        one = SparsePoly.const(ring, 1)
        assert ctx.A_op(1, one) == V(ring, "b")


class TestWords:
    def test_order_convention(self, ring):
        ctx = OperatorContext(3)
        p = V(ring, "x1", 2) * V(ring, "x2")
        assert ctx.compose_word((1, 2), p, ctx.phi_beta) == \
            ctx.phi_beta(2, ctx.phi_beta(1, p))

    def test_empty_word(self, ring):
        ctx = OperatorContext(3)
        p = V(ring, "x1")
        assert ctx.compose_word((), p, ctx.phi_beta) == p
