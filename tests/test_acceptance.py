"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single pass/fail line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a human-readable
report and a CI gate.
"""

import math
import random
from fractions import Fraction

from click.testing import CliRunner

from flagcalc.cli import main as cli_main
from flagcalc.divdiff import OperatorContext
from flagcalc.families import (
    beta_poly,
    beta_poly_via_word,
    bott_samelson_class,
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
from flagcalc.rings import QQ, SparsePoly, ZZ, beta_ring, lazard_rational

from conftest import random_poly
from locus_reference import walk_from_top

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
    ok = all(beta_poly(w.embed(4)) == beta_poly(w)
             for w in all_permutations(3))
    report(3, "stability under rank embedding", ok)


def test_04_hecke_oracle_equivalence():
    H = build_Hxy(5)
    ok = all(coefficient(H, w) == beta_poly(w) for w in all_permutations(5))
    report(4, "algebra coefficients equal recursive family", ok)


def test_05_alternative_product():
    ok = all(build_Hxy(n) == alternative_product(n) for n in (2, 3, 4))
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
            ok = ok and lhs == H.mul_by_generator(i) - H.scale(b)
    report(6, "divided-difference identity on the canonical element", ok)


def test_07_duality_and_symmetry():
    swap_xy = {}
    for k in range(1, 5):
        swap_xy[f"x{k}"] = V(f"y{k}")
        swap_xy[f"y{k}"] = V(f"x{k}")
    ok = True
    ctx = OperatorContext(4)
    for w in all_permutations(4):
        p = beta_poly(w)
        ok = ok and beta_poly(w.inverse()) == p.substitute(swap_xy)
        wi = w.inverse()
        for i in range(1, 4):
            if w(i) < w(i + 1):
                ok = ok and ctx.swap(i, p) == p
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


def test_10_universal_braid_failure():
    kill = {f"y{j}": 0 for j in (1, 2, 3)}
    pres = FlagRingPresentation.trivial(3, lazard_rational(7))
    one = SparsePoly.const(lazard_rational(7), 1)
    zero_m = {f"m{k}": 0 for k in range(1, 8)}
    mult_m = {f"m{k}": Fraction(1, k + 1) for k in range(1, 8)}
    ok = True
    for D in (3, 4, 5, 6, 7):
        fgl = make_universal_rational(7, D)
        b1 = bott_samelson_class(fgl, (1, 2, 1), 3)
        b2 = bott_samelson_class(fgl, (2, 1, 2), 3)
        r1 = pres.reduce(b1.substitute(kill))
        r2 = pres.reduce(b2.substitute(kill))
        witness = r1 - r2
        ok = ok and not witness.is_zero()
        ok = ok and r1 != one and r2 != one
        ok = ok and any(v == "m1" for mono in witness.terms for v, _ in mono)
        diff = b1 - b2
        ok = ok and diff.substitute(zero_m, ring=QQ).is_zero()
        ok = ok and diff.substitute(mult_m, ring=QQ).is_zero()
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
                p = specialize_nu(t)
                ok = ok and check_rect_symmetry(p, t)
                dp = to_elementary(p, t)
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
        ok = ok and len(pres.normal_form_monomials()) == math.factorial(n)
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


def test_14_cli_determinism():
    runner = CliRunner()
    commands = [
        ["family", "--perm", "3 1 2", "--format", "json"],
        ["braid", "--law", "universal", "--n", "3", "--trunc", "4",
         "--seed", "11"],
        ["porteous", "--e", "2", "--f", "2", "--r", "1", "--format", "json"],
        ["hecke", "verify", "--n", "2"],
    ]
    ok = True
    for args in commands:
        first = runner.invoke(cli_main, args, catch_exceptions=False)
        second = runner.invoke(cli_main, args, catch_exceptions=False)
        ok = ok and first.exit_code == 0 and second.exit_code == 0
        ok = ok and first.output == second.output
    report(14, "deterministic command-line output", ok)
