"""The one substitution engine, SparsePoly.substitute with a bound, and the
series code built on it, against the old series engine and the old
fixed-point formal inverse kept in rings_reference.

Hypothesis runs derandomised, so every run draws the same examples."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rings_reference as ref
from flagcalc.fgl import make_multiplicative
from flagcalc.rings import QQ, SparsePoly, TruncatedSeries, ZZ, beta_ring
from test_packed import (
    GEOMETRIC, RINGS, _names, assert_same, both, fixed, raw_polys)


@st.composite
def series_images(draw, ring):
    """A monomial or polynomial image with zero constant term, built both
    ways."""
    raw = draw(raw_polys(ring, max_terms=draw(st.sampled_from([1, 3])),
                         max_exp=2))
    p, rp = both(ring, raw)
    return p - p.constant_term(), rp - rp.constant_term()


@pytest.mark.parametrize("bound", range(1, 7))
@pytest.mark.parametrize("kind", ["QQ", "Zb", "Qm"])
@settings(fixed, max_examples=15)
@given(data=st.data())
def test_series_substitution_matches_reference(kind, bound, data):
    ring = RINGS[kind]
    body, rbody = both(ring, data.draw(raw_polys(ring, max_exp=4),
                                       label="body"))
    targets = data.draw(st.lists(st.sampled_from(GEOMETRIC), min_size=1,
                                 max_size=3, unique=True), label="targets")
    ours, theirs = {}, {}
    for v in targets:
        ours[v], theirs[v] = data.draw(series_images(ring),
                                       label=f"image of {v}")
    got = TruncatedSeries(body, bound).substitute_into(ours)
    assert got.bound == bound
    assert_same(got.body, ref.series_substitute(rbody, theirs, bound))


@pytest.mark.parametrize("shape", ["monomial", "polynomial"])
@pytest.mark.parametrize("kind", sorted(RINGS))
@fixed
@given(data=st.data())
def test_bound_is_truncation_of_the_substitution(kind, shape, data):
    """Monomial images take the fast path, which drops each term above
    the bound as it maps it; one image of two or more terms sends every term down the general
    path, which truncates powers and partial products."""
    ring = RINGS[kind]
    p = SparsePoly(ring, data.draw(raw_polys(ring, max_exp=4), label="p"))
    bound = data.draw(st.integers(-1, 8), label="bound")
    targets = data.draw(st.lists(st.sampled_from(_names(ring)), min_size=1,
                                 max_size=3, unique=True), label="targets")
    images = {}
    for v in targets:
        raw = data.draw(raw_polys(ring, max_terms=1 if shape == "monomial"
                                  else 4, max_exp=2), label=f"image of {v}")
        images[v] = SparsePoly(ring, raw)
    if shape == "polynomial":
        # two terms no draw can cancel
        images[targets[0]] += (SparsePoly.var(ring, "x3", 5)
                               + SparsePoly.var(ring, "y1", 5))
    assert (p.substitute(images, bound=bound)
            == p.substitute(images).truncate(bound))


@pytest.mark.parametrize("D", range(1, 9))
@pytest.mark.parametrize("b", ["b", 2, 5, -1])
def test_closed_form_chi_matches_fixed_point(b, D):
    ring = beta_ring() if b == "b" else ZZ
    if b == "b":
        fgl = make_multiplicative(SparsePoly.var(ring, "b"), D, ring)
        b = ref.RefPoly.var(ring, "b")
    else:
        fgl = make_multiplicative(b, D, ring)
    u, v = ref.RefPoly.var(ring, "u"), ref.RefPoly.var(ring, "v")
    F = (u + v - b * u * v).truncate(D)
    assert_same(fgl.chi.body, ref.solve_chi(F, D))


@pytest.mark.parametrize("image", [3, Fraction(-1, 2)])
def test_numeric_image_with_constant_is_rejected(image):
    # a number is an image like any other: a nonzero one is a constant term
    F = make_multiplicative(2, 4, QQ).F
    x1 = SparsePoly.var(QQ, "x1")
    with pytest.raises(ValueError, match="constant term"):
        F.substitute_into({"u": image, "v": x1})
    assert F.substitute_into({"u": 0, "v": x1}).body == x1
