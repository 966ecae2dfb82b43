"""Universal-law outputs have their coefficients in the Lazard ring, in the
degrees where they are exact: a Bott-Samelson class of a word of length l
at bound D through degree D - l, a Chern class through D and the braid
defect coefficient kappa through its bound.  See lazard_reference."""

from fractions import Fraction

import pytest

from divdiff_reference import kappa
from flagcalc.families import bott_samelson_class
from flagcalc.fgl import (FormalGroupLaw, chern_tensor_dual,
                          make_universal_rational)
from flagcalc.perms import all_permutations, all_reduced_words
from flagcalc.rings import SparsePoly, lazard_rational
from lazard_reference import Lattice

LATTICE = Lattice(8)   # weight 7 is the most any check below reaches


def _in_lazard(p) -> bool:
    assert p, "an empty output checks nothing"
    return not LATTICE.rejects(p)


def test_lattice_in_weight_one_is_2Z_m1():
    m1 = SparsePoly.var(lazard_rational(1), "m1")
    assert LATTICE.rejects(m1)
    assert LATTICE.rejects(3 * m1)
    assert _in_lazard(-2 * m1)


@pytest.mark.parametrize("n, K, degrees, words", [
    (3, 7, (3, 4, 5, 6, 7), [(1, 2, 1), (2, 1, 2)]),
    (4, 9, (6, 7, 8, 9), [(1, 2, 1), (2, 1, 2), (2, 3, 2), (3, 2, 3)])])
def test_classes_of_test_10(n, K, degrees, words):
    for D in degrees:
        fgl = make_universal_rational(K, D)
        for word in words:
            c = bott_samelson_class(fgl, word, n).truncate(D - len(word))
            assert _in_lazard(c), (D, word)


@pytest.mark.parametrize("n,D", [(3, 3), (3, 5), (3, 7), (4, 6), (4, 7)])
def test_classes_of_short_words(n, D):
    """The words of test_universal_class_matches_full_product_build: every
    reduced word of length <= 3 in S_n."""
    fgl = make_universal_rational(D, D)
    words = {word for w in all_permutations(n) if w.length() <= 3
             for word in all_reduced_words(w)}
    for word in sorted(words):
        c = bott_samelson_class(fgl, word, n).truncate(D - len(word))
        assert _in_lazard(c), word


@pytest.mark.parametrize("e", [1, 2])
@pytest.mark.parametrize("f", [1, 2])
def test_chern_tensor_dual(e, f):
    fgl = make_universal_rational(6, 6)
    ring = fgl.ring
    chern, top = chern_tensor_dual(
        fgl, [SparsePoly.var(ring, f"x{i}") for i in range(1, f + 1)],
        [SparsePoly.var(ring, f"y{j}") for j in range(1, e + 1)])
    assert _in_lazard(chern) and _in_lazard(top)


@pytest.mark.parametrize("D", [8, 9])
def test_braid_defect_kappa(D):
    fgl = make_universal_rational(D, D)
    for i in (1, 2):
        alpha, beta = (i, i + 1), (i + 1, i + 2)
        assert _in_lazard(kappa(fgl, alpha, beta, D - 4)), (i, "ab")
        assert _in_lazard(kappa(fgl, beta, alpha, D - 4)), (i, "ba")


def test_a_law_with_half_its_m2_is_rejected():
    """log(t) = t + m1 t^2 + m2/2 t^3 + ...: a_12 = 4 m1^2 - 3/2 m2 lies
    outside L, and so do pieces of the class and of kappa."""
    D = 7
    law = make_universal_rational(D, D)
    half = {"m2": SparsePoly.var(law.ring, "m2") * Fraction(1, 2)}
    fgl = FormalGroupLaw(law.F.body.substitute(half),
                         law.chi.body.substitute(half), D)
    assert LATTICE.rejects(fgl.F.body)
    assert LATTICE.rejects(bott_samelson_class(fgl, (1, 2, 1), 3)
                           .truncate(D - 3))
    assert LATTICE.rejects(kappa(fgl, (1, 2), (2, 3), D - 4))
