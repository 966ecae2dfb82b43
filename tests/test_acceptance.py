"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a human-readable
report and a CI gate.
"""

import math
import random
from fractions import Fraction

from flagcalc.divdiff import OperatorContext
from flagcalc.families import (
    beta_poly,
    beta_poly_via_word,
    bott_samelson_class,
    bott_samelson_initial,
    h_top,
)
from flagcalc.fgl import (
    make_additive,
    make_multiplicative,
    make_universal_rational,
)
from flagcalc.flagring import FlagRingPresentation
from flagcalc.hecke import (
    HeckeElement,
    alternative_product,
    build_Hxy,
    coefficient,
)
from flagcalc.perms import (
    all_permutations,
    all_reduced_words,
    identity,
    lex_smallest_reduced_word,
    longest_element,
)
from flagcalc.porteous import (
    RankTriple,
    check_rect_symmetry,
    elementary_symmetric,
    from_elementary,
    specialize_nu,
    thom_porteous,
    to_elementary,
)
from flagcalc.rings import (QQ, SparsePoly, ZZ, beta_ring, lazard_rational,
                            sum_of_products)

from conftest import invoke, random_poly
from divdiff_reference import kappa, swap
from flagring_reference import normal_form_monomials
from locus_reference import walk_from_dominant, walk_from_top

_RING = beta_ring()


def V(name, e=1, ring=_RING):
    return SparsePoly.var(ring, name, e)


def report(num, name, ok):
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} ({name}) failed"


def test_01_recursion_ground_truth():
    ok = all(beta_poly(longest_element(n)) == h_top(n) for n in range(1, 6))
    one = SparsePoly.const(_RING, 1)
    ok = ok and all(beta_poly(identity(n)) == one for n in range(1, 5))
    report(1, "recursion ground truth", ok)


def test_02_word_independence_exhaustive():
    w0 = longest_element(4)
    ok = True
    for w in all_permutations(4):
        ref = beta_poly(w)
        for word in all_reduced_words(w0.compose(w)):
            ok = ok and beta_poly_via_word(w, word) == ref
    report(2, "well-definedness across reduced words", ok)


def test_03_stability():
    # each side walks from its own h_top along the lex-smallest reduced
    # word, apart from the family memo, which holds w and its embedding
    # under one key
    def walk(w):
        word = lex_smallest_reduced_word(longest_element(w.n).compose(w))
        return beta_poly_via_word(w, word)
    ok = all(walk(w.embed(n + 1)) == walk(w) == beta_poly(w)
             for n in (3, 4) for w in all_permutations(n))
    report(3, "stability under rank embedding", ok)


def test_04_hecke_oracle_equivalence():
    H = build_Hxy(5)
    ok = all(coefficient(H, w) == beta_poly(w) for w in all_permutations(5))
    report(4, "algebra coefficients equal recursive family", ok)


def test_05_alternative_product():
    ok = all(build_Hxy(n) == alternative_product(n) for n in (2, 3, 4, 5))
    report(5, "alternative product of the canonical element", ok)


def test_06_operator_identity_on_H():
    ok = True
    for n in (2, 3):
        H = build_Hxy(n)
        ctx = OperatorContext(n)
        b = V("b")
        for i in range(1, n):
            lhs = HeckeElement.from_dict(
                n, {w: ctx.phi_beta(i, c) for w, c in H.coeffs})
            rhs = H.mul_by_generator(i).as_dict()  # H u_i - b H
            for w, c in H.scale(b).coeffs:
                rhs[w] = rhs.get(w, SparsePoly.zero(_RING)) - c
            ok = ok and lhs == HeckeElement.from_dict(n, rhs)
    report(6, "divided-difference identity on the canonical element", ok)


def test_07_duality_and_symmetry():
    swap_xy = {}
    for k in range(1, 5):
        swap_xy[f"x{k}"] = V(f"y{k}")
        swap_xy[f"y{k}"] = V(f"x{k}")
    ok = True
    for w in all_permutations(4):
        p = beta_poly(w)
        ok = ok and beta_poly(w.inverse()) == p.substitute(swap_xy)
        wi = w.inverse()
        for i in range(1, 4):
            if w(i) < w(i + 1):
                ok = ok and swap(i, p) == p
            if wi(i) < wi(i + 1):
                swapped = p.substitute({f"y{i}": V(f"y{i + 1}"),
                                        f"y{i + 1}": V(f"y{i}")})
                ok = ok and swapped == p
    report(7, "duality and block symmetry", ok)


def test_08_operator_algebra_randomised():
    rng = random.Random(20240817)
    ctx = OperatorContext(4)
    b = V("b")
    ok = True
    for _ in range(500):
        p = random_poly(_RING, rng, nvars=4, nterms=3)
        i = rng.randint(1, 3)
        ok = ok and ctx.phi_beta(i, ctx.phi_beta(i, p)) == \
            -b * ctx.phi_beta(i, p)
        j = rng.randint(1, 2)
        lhs = ctx.compose_word((j, j + 1, j), p, ctx.phi_beta)
        rhs = ctx.compose_word((j + 1, j, j + 1), p, ctx.phi_beta)
        ok = ok and lhs == rhs
        ok = ok and ctx.phi_beta(1, ctx.phi_beta(3, p)) == \
            ctx.phi_beta(3, ctx.phi_beta(1, p))
        if not ok:
            break
    report(8, "operator algebra on 500 random polynomials", ok)


def test_09_multiplicative_coincidence():
    # with law parameter -b the generalised operator is exactly phi_i, and
    # the push-forward classes reproduce the two-parameter family
    fgl = make_multiplicative(-V("b"), 7, _RING)
    ctx = OperatorContext(4, fgl=fgl)
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        p = random_poly(_RING, rng, nvars=4, nterms=4, max_exp=2,
                        with_beta=False)
        p = (p * V(f"x{rng.randint(1, 4)}")).truncate(5)
        i = rng.randint(1, 3)
        ok = ok and ctx.A_op(i, p) == ctx.phi_beta(i, p)
    fgl8 = make_multiplicative(-V("b"), 8, _RING)
    w0 = longest_element(3)
    for w in all_permutations(3):
        word = lex_smallest_reduced_word(w0.compose(w))
        ok = ok and bott_samelson_class(fgl8, word, 3) == beta_poly(w)
    # over S_4 and S_5 at D = n(n - 1), the degree of h_top(n); one degree
    # lower every class is cut short and differs
    for n in (4, 5):
        top, below = (make_multiplicative(-V("b"), D, _RING)
                      for D in (n * (n - 1), n * (n - 1) - 1))
        w0 = longest_element(n)
        for w in all_permutations(n):
            word = lex_smallest_reduced_word(w0.compose(w))
            ok = ok and bott_samelson_class(top, word, n) == beta_poly(w)
            ok = ok and bott_samelson_class(below, word, n) != beta_poly(w)
    report(9, "multiplicative law reproduces the signed family", ok)


def _braid_defect_named(fgl, n, i, diff) -> bool:
    """Whether diff, A_i A_(i+1) A_i - A_(i+1) A_i A_(i+1) of the initial
    class I, is kappa(beta, alpha) A_(i+1)(I) - kappa(alpha, beta) A_i(I)
    through degree D - 3, where a walk of three letters is exact, with
    alpha = e_i - e_(i+1) and beta = e_(i+1) - e_(i+2) (see TestBraidDefect
    in test_divdiff).  kappa is exact through the law's bound less 4, so it
    comes from the same law at D + 1, over m_1..m_max(K, D + 1); the m_k
    above K first appear in degree k + 1 of the law and so not in kappa's
    degrees <= D - 3."""
    D, K = fgl.D, fgl.ring.K
    wide = make_universal_rational(max(K, D + 1), D + 1)
    drop = {f"m{k}": 0 for k in range(K + 1, D + 2)}
    alpha, beta = (i, i + 1), (i + 1, i + 2)
    k_ab, k_ba = (kappa(wide, a, b, D - 3).substitute(drop, ring=fgl.ring)
                  for a, b in ((alpha, beta), (beta, alpha)))
    ctx = OperatorContext(n, fgl=fgl)
    initial = bott_samelson_initial(fgl, n)
    named = sum_of_products([(k_ba, ctx.A_op(i + 1, initial)),
                             (-k_ab, ctx.A_op(i, initial))], fgl.ring, D - 3)
    return diff.truncate(D - 3) == named


def test_10_universal_braid_failure():
    ok = True
    # (n, K, the degrees D, the pairs of reduced words of one permutation)
    for n, K, degrees, pairs in [
            (3, 7, (3, 4, 5, 6, 7), [((1, 2, 1), (2, 1, 2))]),
            (4, 9, (6, 7, 8, 9), [((1, 2, 1), (2, 1, 2)),
                                  ((2, 3, 2), (3, 2, 3))])]:
        kill = {f"y{j}": 0 for j in range(1, n + 1)}
        pres = FlagRingPresentation.trivial(n, lazard_rational(K))
        one = SparsePoly.const(lazard_rational(K), 1)
        zero_m = {f"m{k}": 0 for k in range(1, K + 1)}
        mult_m = {f"m{k}": Fraction(1, k + 1) for k in range(1, K + 1)}
        for D in degrees:
            fgl = make_universal_rational(K, D)
            for word1, word2 in pairs:
                b1 = bott_samelson_class(fgl, word1, n)
                b2 = bott_samelson_class(fgl, word2, n)
                r1 = pres.reduce(b1.substitute(kill))
                r2 = pres.reduce(b2.substitute(kill))
                witness = r1 - r2
                ok = ok and not witness.is_zero()
                ok = ok and r1 != one and r2 != one
                ok = ok and any(v == "m1" for mono in witness.terms
                                for v, _ in mono)
                diff = b1 - b2
                ok = ok and diff.substitute(zero_m, ring=QQ).is_zero()
                ok = ok and diff.substitute(mult_m, ring=QQ).is_zero()
                if D >= 5:
                    ok = ok and _braid_defect_named(fgl, n, word1[0], diff)
    report(10, "word dependence for the generic law", ok)


def test_11_fgl_axioms():
    laws = [make_additive(8, _RING),
            make_multiplicative(V("b"), 8, _RING),
            make_universal_rational(8, 8)]
    ok = True
    for fgl in laws:
        r = fgl.ring
        u = V("u", ring=r)
        v = V("v", ring=r)
        w = V("w", ring=r)
        zero = SparsePoly.zero(r)
        ok = ok and fgl.sum_series(u, zero) == u
        ok = ok and fgl.sum_series(u, v) == fgl.sum_series(v, u)
        ok = ok and fgl.sum_series(fgl.sum_series(u, v), w) == \
            fgl.sum_series(u, fgl.sum_series(v, w))
        ok = ok and fgl.sum_series(u, fgl.inverse_series(u)).is_zero()
    report(11, "formal group law axioms at D=8", ok)


def test_12_degeneracy_locus_coherence():
    ok = True
    for e in (1, 2, 3, 4):
        for f in (1, 2, 3, 4):
            for r in range(min(e, f) + 1):
                t = RankTriple(e, f, r)
                ok = ok and t.permutation().length() == (e - r) * (f - r)
                # the member and the body against the walk in x and y from
                # the dominant permutation, which skips the d-slots
                p, walk = specialize_nu(t), walk_from_dominant(t)
                ok = ok and p == walk and check_rect_symmetry(p, t)
                dp = to_elementary(walk, t)
                ok = ok and from_elementary(dp) == p
                ck = thom_porteous(t, "ck").body
                ok = ok and ck == dp.body
                sub = {"b": 0}
                for j in range(1, e + 1):
                    sub[f"d{j}"] = -SparsePoly.var(ZZ, f"d{j}")
                ok = ok and ck.substitute(sub, ring=ZZ) == \
                    thom_porteous(t, "ch").body
                ok = ok and ck.substitute({"b": -1}, ring=ZZ) == \
                    thom_porteous(t, "k0").body
                # the walk from w0 inside S_{n+1}, where n + 1 <= 6, and
                # inside S_n where n = 6 (test_03: h_w is stable); not
                # above, where h_top(7) is out of reach; the determinant
                # oracle in test_porteous covers every triple
                n_pad = 1 if t.n < 6 else 0
                if t.n <= 6:
                    ok = ok and specialize_nu(t, n_pad=1) == \
                        walk_from_top(t, n_pad)
    report(12, "degeneracy-locus pipeline coherence", ok)


def test_13_flag_ring_presentation():
    ok = True
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        pres = FlagRingPresentation.symbolic(n, ZZ)
        ok = ok and len(normal_form_monomials(n)) == math.factorial(n)
        for i in range(1, n + 1):
            e = elementary_symmetric(ZZ, i,
                                     [f"x{k}" for k in range(1, n + 1)])
            ok = ok and pres.reduce(e) == SparsePoly.var(ZZ, f"c{i}")
        for _ in range(5):
            p = random_poly(ZZ, rng, nvars=n, max_exp=3, with_beta=False)
            q = random_poly(ZZ, rng, nvars=n, max_exp=3, with_beta=False)
            ok = ok and pres.reduce(p * q) == \
                pres.reduce(pres.reduce(p) * pres.reduce(q))
    report(13, "flag quotient-ring presentation", ok)


def test_14_cli_determinism(capsys):
    commands = [
        ["family", "--perm", "3 1 2", "--format", "json"],
        ["braid", "--law", "universal", "--n", "3", "--trunc", "4",
         "--seed", "11"],
        ["porteous", "--e", "2", "--f", "2", "--r", "1", "--format", "json"],
        ["hecke", "verify", "--n", "2"],
    ]
    ok = True
    for args in commands:
        first, second = invoke(capsys, *args), invoke(capsys, *args)
        ok = ok and first.exit_code == 0 and second.exit_code == 0
        ok = ok and first.output == second.output
    report(14, "deterministic command-line output", ok)
