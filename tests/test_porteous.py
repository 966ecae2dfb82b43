import copy
import itertools
import pickle
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcalc import memo, porteous
from flagcalc.divdiff import OperatorContext
from flagcalc.perms import Permutation
from flagcalc.porteous import (
    DPoly,
    RankTriple,
    SymmetryError,
    check_rect_symmetry,
    elementary_symmetric,
    from_elementary,
    specialize_nu,
    thom_porteous,
    to_elementary,
)
from flagcalc.rings import SparsePoly, ZZ, beta_ring
from locus_reference import (
    dominant,
    expected_codim,
    from_elementary_by_substitution,
    is_dominant,
    symmetric_by_swaps,
    walk_from_dominant,
    walk_from_top,
    walk_in_d_slots,
)


def V(ring, name, e=1):
    return SparsePoly.var(ring, name, e)


SMALL_TRIPLES = [RankTriple(e, f, r)
                 for e in (1, 2) for f in (1, 2)
                 for r in range(min(e, f) + 1)
                 if e + f - r >= 1]

# every triple with 1 <= e, f <= 4: 46 of them
TRIPLES_4 = [RankTriple(e, f, r)
             for e in (1, 2, 3, 4) for f in (1, 2, 3, 4)
             for r in range(min(e, f) + 1)]

# every triple with 1 <= e, f <= 3: 23 of them
TRIPLES_3 = [t for t in TRIPLES_4 if t.e <= 3 and t.f <= 3]

# a bundle of rank 0 on either side: the locus is everything, the body 1
EDGE_TRIPLES = [RankTriple(0, f, 0) for f in (1, 2, 3)] + \
    [RankTriple(e, 0, 0) for e in (1, 2, 3)]

# every triple with max(e, f) = 5; the CH determinant below is a Laplace
# expansion, under a second on every triple here
TRIPLES_5 = [RankTriple(e, f, r)
             for e in range(1, 6) for f in range(1, 6)
             for r in range(min(e, f) + 1) if max(e, f) == 5]


def laplace_det(rows, one):
    """The determinant of a square matrix, given as a list of rows, by
    Laplace expansion along its columns, first to last.  Each minor on a
    set of rows and the last columns is found once: 2^size of them, where
    the expansion over permutations forms size! products."""
    size = len(rows)
    minors = {(): one}

    def minor(keep):
        # the rows keep (ascending) and the last len(keep) columns
        if keep not in minors:
            col = size - len(keep)
            minors[keep] = sum(
                (-1) ** k * rows[r][col] * minor(keep[:k] + keep[k + 1:])
                for k, r in enumerate(keep) if rows[r][col])
        return minors[keep]

    return minor(tuple(range(size)))


@pytest.mark.parametrize("size", range(7))
def test_laplace_det_matches_sympy(size):
    rng = random.Random(size)
    for _ in range(5):
        rows = [[rng.choice([0, 0, 1, -1, 2, -3, 7]) for _ in range(size)]
                for _ in range(size)]
        want = sympy.Matrix(size, size, sum(rows, [])).det()
        assert laplace_det(rows, 1) == want


def near_symmetric(data):
    """A triple (e, f, 0) and a symmetric polynomial from its slots, plus
    at times one monomial in the x-block, the y-block or both."""
    e, f = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    t, ring = RankTriple(e, f, 0), beta_ring()
    exps = st.integers(0, 1)
    slots = [f"c{i}" for i in range(1, f + 1)] + \
        [f"d{j}" for j in range(1, e + 1)] + ["b"]
    body = SparsePoly.zero(ring)
    for _ in range(data.draw(st.integers(0, 3))):
        term = SparsePoly.const(ring, data.draw(st.integers(-3, 3)))
        for name in slots:
            term = term * V(ring, name, data.draw(exps))
        body = body + term
    p = from_elementary(DPoly(t, "Beta", body, ()))
    block = data.draw(st.sampled_from(["", "x", "y", "xy"]))
    names = [f"x{i}" for i in range(1, f + 1)] * ("x" in block) + \
        [f"y{j}" for j in range(1, e + 1)] * ("y" in block)
    if names:
        term = SparsePoly.const(ring, data.draw(st.integers(1, 3)))
        for name in names:
            term = term * V(ring, name, data.draw(st.integers(0, 2)))
        p = p + term
    return t, p


PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=100)


class TestRankTriple:
    def test_validation(self):
        with pytest.raises(ValueError):
            RankTriple(1, 1, 2)
        with pytest.raises(ValueError):
            RankTriple(1, 2, -1)

    def test_group_size(self):
        assert RankTriple(3, 2, 1).n == 4

    def test_value_classes_print_copy_and_pickle(self):
        t = RankTriple(1, 2, 0)
        assert repr(t) == "RankTriple(e=1, f=2, r=0)"
        assert (t.e, t.f, t.r) == t == (1, 2, 0) and hash(t) == hash((1, 2, 0))
        dp = DPoly(RankTriple(1, 1, 0), "CK", SparsePoly.var(ZZ, "c1"),
                   ("c_i(F)", "c_j(Edual)"))
        assert repr(dp) == (
            "DPoly(triple=RankTriple(e=1, f=1, r=0), theory='CK', "
            "body=SparsePoly(c1), slot_labels=('c_i(F)', 'c_j(Edual)'))")
        assert repr(beta_ring()) == "CoefficientRing(kind='BetaRing', K=0)"
        for v in (t, dp, beta_ring(), Permutation((3, 1, 2))):
            for twin in (copy.copy(v), copy.deepcopy(v),
                         pickle.loads(pickle.dumps(v))):
                assert type(twin) is type(v) and twin == v

    def test_codimension(self):
        t = RankTriple(3, 2, 1)
        assert expected_codim(t) == 2
        assert t.permutation().length() == 2


class TestSpecialize:
    def test_line_bundles(self, ring):
        p = specialize_nu(RankTriple(1, 1, 0))
        x1, y1, b = V(p.ring, "x1"), V(p.ring, "y1"), V(p.ring, "b")
        assert p == x1 + y1 + b * x1 * y1

    def test_full_rank_is_one(self):
        p = specialize_nu(RankTriple(2, 2, 2))
        assert p == SparsePoly.const(p.ring, 1)

    @pytest.mark.parametrize("t", SMALL_TRIPLES, ids=str)
    def test_symmetric(self, t):
        assert check_rect_symmetry(specialize_nu(t), t)

    @PROPERTY
    @given(st.data())
    def test_symmetry_check_matches_the_swaps(self, data):
        t, p = near_symmetric(data)
        assert check_rect_symmetry(p, t) == symmetric_by_swaps(p, t)

    @pytest.mark.parametrize("t", SMALL_TRIPLES, ids=str)
    def test_padding_invariance(self, t):
        assert specialize_nu(t, n_pad=1) == walk_from_top(t, n_pad=1)

    @pytest.mark.parametrize(
        "t, n_pad", [(t, n_pad) for t in TRIPLES_3 for n_pad in (0, 1)
                     if t.n + n_pad <= 6], ids=str)
    def test_matches_the_walk_from_top(self, t, n_pad):
        assert specialize_nu(t, n_pad) == walk_from_top(t, n_pad)

    def test_negative_padding_rejected(self):
        with pytest.raises(ValueError):
            specialize_nu(RankTriple(1, 1, 0), n_pad=-1)

    def test_dominant_start_closed_form(self):
        for e in range(6):
            for f in range(6):
                for r in range(min(e, f) + 1):
                    if e + f - r < 1:
                        continue
                    t = RankTriple(e, f, r)
                    u, nu = dominant(t), t.permutation()
                    assert is_dominant(u), t
                    assert set(u.diagram()) == {
                        (i, j) for i in range(1, f - r + 1)
                        for j in range(1, e + 1)}, t
                    steps = u.length() - nu.length()
                    assert steps == r * (f - r), t
                    # nu lies below u in the right weak order
                    assert u.inverse().compose(nu).length() == steps, t

    @pytest.mark.parametrize("t", [RankTriple(3, 3, 1), RankTriple(2, 3, 2),
                                   RankTriple(3, 2, 0)], ids=str)
    def test_walk_length(self, t, monkeypatch):
        # the CK body is a bialternant, so no phi step runs; a cold memo
        # builds it once, and the member and the other theories then read
        # the memoised body
        steps, built = [], []
        phi, body = OperatorContext.phi_beta, porteous._ck_body
        monkeypatch.setattr(OperatorContext, "phi_beta",
                            lambda ctx, i, p: steps.append(i) or phi(ctx, i, p))
        monkeypatch.setattr(porteous, "_ck_body",
                            lambda t: built.append(t) or body(t))
        porteous._CK_MEMO.clear()
        specialize_nu(t)
        specialize_nu(t, n_pad=1)
        thom_porteous(t, "ch")
        assert steps == [] and built == [t]
        assert (porteous._CK_MEMO.misses, porteous._CK_MEMO.hits) == (1, 2)


class TestElementaryRewrite:
    def test_block_of_ones(self, ring):
        x1, y1, b = V(ring, "x1"), V(ring, "y1"), V(ring, "b")
        dp = to_elementary(x1 + y1 + b * x1 * y1, RankTriple(1, 1, 0))
        c1, d1 = V(ring, "c1"), V(ring, "d1")
        assert dp.body == c1 + d1 + b * c1 * d1

    def test_product_block(self):
        t = RankTriple(1, 2, 0)  # x-block of size 2
        p = V(ZZ, "x1") * V(ZZ, "x2")
        dp = to_elementary(p, t)
        assert dp.body == V(ZZ, "c2")

    def test_power_sum(self):
        # Newton: p_2 = e_1^2 - 2 e_2
        t = RankTriple(1, 2, 0)
        p = V(ZZ, "x1", 2) + V(ZZ, "x2", 2)
        dp = to_elementary(p, t)
        assert dp.body == V(ZZ, "c1", 2) - 2 * V(ZZ, "c2")

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            to_elementary(V(ZZ, "x1"), RankTriple(1, 2, 0))

    @pytest.mark.parametrize("t", [RankTriple(2, 1, 0), RankTriple(3, 2, 1),
                                   RankTriple(3, 1, 0)], ids=str)
    def test_rejects_asymmetric_in_y_only(self, t):
        y1, y2 = V(beta_ring(), "y1"), V(beta_ring(), "y2")
        # at (3, 1, 0), y1 y2 alone: every key has the coefficient of its
        # sorted key, but y1 y3 and y2 y3 are missing
        p = y1 * y2 if t == RankTriple(3, 1, 0) else \
            specialize_nu(t) + y1 * V(beta_ring(), "x1")
        assert not symmetric_by_swaps(p, t)
        assert not check_rect_symmetry(p, t)
        with pytest.raises(SymmetryError):
            to_elementary(p, t)

    @PROPERTY
    @given(st.data())
    def test_raises_iff_asymmetric(self, data):
        t, p = near_symmetric(data)
        if symmetric_by_swaps(p, t):
            assert from_elementary(to_elementary(p, t)) == p
        else:
            with pytest.raises(SymmetryError):
                to_elementary(p, t)

    @pytest.mark.parametrize("t", SMALL_TRIPLES, ids=str)
    def test_round_trip(self, t):
        p = specialize_nu(t)
        assert from_elementary(to_elementary(p, t)) == p

    @pytest.mark.parametrize("t", TRIPLES_4 + EDGE_TRIPLES, ids=str)
    def test_from_elementary_matches_substitution(self, t):
        # over Z[b] and, for ch, over Z: the product memo is keyed on ring
        for theory in ("ck", "ch"):
            dp = thom_porteous(t, theory)
            assert from_elementary(dp) == from_elementary_by_substitution(dp)

    def test_elementary_symmetric_values(self):
        assert elementary_symmetric(ZZ, 0, ["x1", "x2"]) == \
            SparsePoly.const(ZZ, 1)
        assert elementary_symmetric(ZZ, 2, ["x1", "x2"]) == \
            V(ZZ, "x1") * V(ZZ, "x2")


class TestPartitionTables:
    """The partition coefficients of each product of elementary symmetric
    polynomials are memoised by ring, block and exponents: tables warmed
    over Z[b] serve no rewrite over Z, and no table skips the symmetry
    check."""

    @pytest.mark.parametrize("t", TRIPLES_3, ids=str)
    def test_warm_tables_keep_the_ring_and_the_check(self, t):
        porteous._PARTITION_MEMO.clear()
        to_elementary(specialize_nu(t), t)  # warm over Z[b]
        dp = thom_porteous(t, "ch")
        p = from_elementary_by_substitution(dp)
        assert p.ring == ZZ and symmetric_by_swaps(p, t)
        got = to_elementary(p, t)
        assert got.body == dp.body
        assert from_elementary_by_substitution(got) == p
        for v in ["x1"] * (t.f > 1) + ["y1"] * (t.e > 1):
            bad = p + V(ZZ, v)
            assert not symmetric_by_swaps(bad, t)
            with pytest.raises(SymmetryError):
                to_elementary(bad, t)
        assert 0 < porteous._PARTITION_MEMO.terms <= memo.MAX_TERMS

    def test_elementary_products_are_keyed_by_exponents(self, ring,
                                                        monkeypatch):
        """e_1^2 e_2 is stored under its own exponents alone, a repeat call
        builds no e_j, and every product of a 3-variable block with
        exponents in {0, 1, 2} is the direct product."""
        block = ["x1", "x2", "x3"]
        porteous._ELEMENTARY_MEMO.clear()
        got = porteous._e_product(ring, block, (2, 1, 0))
        assert list(porteous._ELEMENTARY_MEMO._entries) == [
            (ring, tuple(block), (2, 1, 0))]
        built = []
        monkeypatch.setattr(porteous, "elementary_symmetric",
                            lambda *args: built.append(args)
                            or elementary_symmetric(*args))
        assert porteous._e_product(ring, block, (2, 1, 0)) is got
        assert built == []
        for exps in itertools.product(range(3), repeat=3):
            direct = SparsePoly.const(ring, 1)
            for j, a in enumerate(exps, start=1):
                direct *= elementary_symmetric(ring, j, block) ** a
            assert porteous._e_product(ring, block, exps) == direct, exps
        assert built  # the spy sees the builds of the misses


class TestTheories:
    def test_line_bundles_ck(self, ring):
        dp = thom_porteous(RankTriple(1, 1, 0), "ck")
        c1, d1, b = V(ring, "c1"), V(ring, "d1"), V(ring, "b")
        assert dp.body == c1 + d1 + b * c1 * d1
        assert dp.slot_labels == ("c_i(F)", "c_j(Edual)")

    def test_line_bundles_ch(self):
        dp = thom_porteous(RankTriple(1, 1, 0), "ch")
        assert dp.body == V(ZZ, "c1") - V(ZZ, "d1")
        assert dp.slot_labels == ("c_i(F)", "-c_j(Edual)")

    def test_line_bundles_k0(self):
        dp = thom_porteous(RankTriple(1, 1, 0), "k0")
        c1, d1 = V(ZZ, "c1"), V(ZZ, "d1")
        assert dp.body == c1 + d1 - c1 * d1

    def test_full_rank_is_one(self):
        for theory in ("ck", "ch", "k0"):
            dp = thom_porteous(RankTriple(2, 2, 2), theory)
            assert dp.body == SparsePoly.const(dp.body.ring, 1)

    def test_unknown_theory(self):
        with pytest.raises(ValueError):
            thom_porteous(RankTriple(1, 1, 0), "ko")

    def test_unknown_theory_fails_before_the_walk(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("locus built for an unknown theory")
        monkeypatch.setattr(porteous, "_ck_body", no_walk)
        porteous._CK_MEMO.clear()
        with pytest.raises(ValueError, match="unknown theory"):
            thom_porteous(RankTriple(3, 3, 0), "ko")
        # a known theory on the empty memo runs the patched builder
        with pytest.raises(AssertionError, match="unknown theory"):
            thom_porteous(RankTriple(3, 3, 0), "ck")

    def test_body_does_not_walk_in_x_and_y(self, monkeypatch):
        # the CK body comes from the bialternant alone; the x, y walk and
        # its two-block rewrite are the reference it must equal
        want = {t: to_elementary(walk_from_dominant(t), t).body
                for t in TRIPLES_3[::4]}

        def reference(*args):
            raise AssertionError("thom_porteous ran the x, y pipeline")
        monkeypatch.setattr(porteous, "specialize_nu", reference)
        monkeypatch.setattr(porteous, "to_elementary", reference)
        porteous._CK_MEMO.clear()
        for t, body in want.items():
            assert thom_porteous(t, "ck").body == body

    @pytest.mark.parametrize("t", TRIPLES_4 + EDGE_TRIPLES + [
        RankTriple(5, 4, 2), RankTriple(4, 5, 2)], ids=str)
    def test_body_matches_the_walk_in_d_slots(self, t):
        # the bialternant against r(f - r) phi steps from the rectangle
        assert porteous._ck_body(t) == walk_in_d_slots(t)

    @pytest.mark.parametrize("t", TRIPLES_3 + EDGE_TRIPLES, ids=str)
    def test_theories_share_one_rewrite(self, t):
        # the first theory asked rewrites the locus, the other two hit the
        # memo; each equals its value from a fresh rewrite
        fresh = to_elementary(walk_from_dominant(t), t).body
        flips = {f"d{j}": -V(ZZ, f"d{j}") for j in range(1, t.e + 1)}
        want = {"ck": fresh,
                "ch": fresh.substitute({"b": 0, **flips}, ring=ZZ),
                "k0": fresh.substitute({"b": -1}, ring=ZZ)}
        porteous._CK_MEMO.clear()
        for theory in ("ch", "ck", "k0"):
            dp = thom_porteous(t, theory)
            assert dp.body == want[theory]
            assert (dp.triple, dp.theory) == (t, theory.upper())
        assert (porteous._CK_MEMO.misses, porteous._CK_MEMO.hits) == (1, 2)

    @pytest.mark.parametrize("t", SMALL_TRIPLES, ids=str)
    def test_specialisations_of_ck(self, t):
        ck = thom_porteous(t, "ck").body
        assignment = {"b": 0}
        for j in range(1, t.e + 1):
            assignment[f"d{j}"] = -V(ZZ, f"d{j}")
        assert ck.substitute(assignment, ring=ZZ) == \
            thom_porteous(t, "ch").body
        assert ck.substitute({"b": -1}, ring=ZZ) == \
            thom_porteous(t, "k0").body

    @pytest.mark.parametrize("t", SMALL_TRIPLES + [RankTriple(3, 2, 1)],
                             ids=str)
    def test_weighted_homogeneity(self, t):
        # deg c_i = deg d_i = i, deg b = -1 makes the whole polynomial
        # homogeneous of the expected codimension
        body = thom_porteous(t, "ck").body
        for mono in body.terms:
            w = 0
            for name, e in mono:
                if name.startswith(("c", "d")):
                    w += int(name[1:]) * e
                elif name == "b":
                    w -= e
            assert w == expected_codim(t), mono


class TestDeterminantOracle:
    """The classical rank-locus class is the (e-r) x (e-r) determinant of
    Chern classes of the virtual difference bundle; the b = 0 member must
    agree with it on Chern roots (the y-slots carry dual roots, so the
    E-roots are their negatives)."""

    @pytest.mark.parametrize("t", [RankTriple(2, 2, 1), RankTriple(2, 2, 0),
                                   RankTriple(3, 2, 1), RankTriple(1, 2, 0)],
                             ids=str)
    def test_matches_classical_determinant(self, t):
        got = specialize_nu(t).substitute({"b": 0}, ring=ZZ)
        tv = sympy.symbols("t")
        xs = sympy.symbols(f"x1:{t.f + 1}")
        ys = sympy.symbols(f"y1:{t.e + 1}")
        size = t.e - t.r
        order = t.f - t.r + size + 1
        num = sympy.prod([1 + xi * tv for xi in xs])
        den = sympy.prod([1 - yj * tv for yj in ys])
        series = sympy.series(num / den, tv, 0, order).removeO()
        series = sympy.expand(series)

        def chern(k):
            if k < 0:
                return sympy.Integer(0)
            if k == 0:
                return sympy.Integer(1)
            return series.coeff(tv, k)

        mat = sympy.Matrix(size, size,
                           lambda i, j: chern(t.f - t.r + j - i))
        det = sympy.expand(mat.det())
        syms = {str(s): s for s in xs + ys}
        got_sym = sympy.Integer(0)
        for mono, c in got.terms.items():
            term = sympy.Integer(c)
            for name, e in mono:
                term *= syms[name] ** e
            got_sym += term
        assert sympy.expand(got_sym - det) == 0

    @pytest.mark.parametrize("t", TRIPLES_4 + TRIPLES_5, ids=str)
    def test_ch_slots_match_determinant(self, t):
        # in the slot variables: c(F) = 1 + sum c_i and, the d-slots
        # being -c_j(E^dual) = (-1)^(j+1) c_j(E),
        # c(E) = 1 + sum (-1)^(j+1) d_j; then c(F - E) = c(F) / c(E),
        # whose coefficients are s_k = c_k(F) - sum_j c_j(E) s_(k-j), taken
        # in sympy's sparse polynomial ring, and the determinant of the
        # s_(f-r+j-i) by laplace_det
        names = [f"c{i}" for i in range(1, t.f + 1)] + \
            [f"d{j}" for j in range(1, t.e + 1)]
        R, *gens = sympy.ring(",".join(names), sympy.ZZ)
        syms = dict(zip(names, gens))
        c_f = [R(1)] + gens[:t.f]
        c_e = [R(1)] + [(-1) ** (j + 1) * d
                        for j, d in enumerate(gens[t.f:], start=1)]
        size = t.e - t.r
        series = []
        for k in range(t.f - t.r + size):
            s_k = c_f[k] if k <= t.f else R(0)
            for j in range(1, min(k, t.e) + 1):
                s_k -= c_e[j] * series[k - j]
            series.append(s_k)

        def chern(k):
            return series[k] if k >= 0 else R(0)

        det = laplace_det([[chern(t.f - t.r + j - i) for j in range(size)]
                           for i in range(size)], R(1))
        got = R(0)
        for mono, c in thom_porteous(t, "ch").body.terms.items():
            term = R(c)
            for name, e in mono:
                term *= syms[name] ** e
            got += term
        assert got == det

    def test_dpoly_carries_theory_tag(self):
        dp = thom_porteous(RankTriple(2, 2, 1), "k0")
        assert isinstance(dp, DPoly)
        assert dp.theory == "K0"
