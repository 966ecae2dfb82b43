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
)

from conftest import random_poly


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
            rhs = ctx.partial(1, f) * g + ctx.swap(1, f) * ctx.partial(1, g)
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
    @pytest.mark.parametrize("mode", ["partial", "beta", "pi"])
    def test_holds(self, ring, mode):
        ctx = OperatorContext(3)
        res = braid_check(ctx, 1, samples(ring, 6), mode)
        assert res["holds"] and res["witness"] is None

    def test_unknown_mode_raises(self, ring):
        ctx = OperatorContext(3)
        with pytest.raises(ValueError, match="unknown mode"):
            braid_check(ctx, 1, samples(ring, 6), "phi")

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
