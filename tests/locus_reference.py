"""Reference for the locus polynomials: the walk down from w0.

``beta_poly`` walks from h_top(m) = h_{w0} to the triple's permutation
embedded in S_m; the variables beyond x_f and y_e are then set to zero.
``porteous.specialize_nu`` starts lower, at a dominant permutation, and
the tests hold it to this walk."""

from itertools import combinations

from flagcalc.families import beta_poly


def walk_from_top(t, n_pad: int = 0):
    m = t.n + n_pad
    p = beta_poly(t.permutation().embed(m))
    dead = {f"x{i}": 0 for i in range(t.f + 1, m + 1)}
    dead.update({f"y{j}": 0 for j in range(t.e + 1, m + 1)})
    return p.substitute(dead)


def is_dominant(w) -> bool:
    """132-avoiding: no positions i < j < k with w(i) < w(k) < w(j)."""
    return not any(a < c < b for a, b, c in combinations(w.images, 3))
