"""Reference divided-difference operators: substitute x_i <-> x_{i+1},
subtract and divide the numerator by (x_i - x_{i+1}) with synthetic
division.  flagcalc.divdiff applies the same operators with one
closed-form kernel and degree-bounded products; the property tests hold
it to these.  ``kappa`` is the closed form of a formal group law's braid
defect, built without the operators, which the tests compare with the
defect of flagcalc's A_i."""

from fractions import Fraction

from flagcalc.rings import (
    SparsePoly,
    divide_by_difference,
    series_reciprocal,
    sum_of_products,
)


def swap(i, p):
    xi = SparsePoly.var(p.ring, f"x{i}")
    xi1 = SparsePoly.var(p.ring, f"x{i + 1}")
    return p.substitute({f"x{i}": xi1, f"x{i + 1}": xi})


def phi(i, p, beta):
    """((1 + beta x_{i+1}) p - sigma_i((1 + beta x_{i+1}) p)) / (x_i - x_{i+1})."""
    one = SparsePoly.const(p.ring, 1)
    if not isinstance(beta, SparsePoly):
        beta = SparsePoly.const(p.ring, beta)
    q = (one + beta * SparsePoly.var(p.ring, f"x{i + 1}")) * p
    return divide_by_difference(q - swap(i, q), f"x{i}", f"x{i + 1}")


def partial(i, p):
    return phi(i, p, 0)


def pi_op(i, p):
    return phi(i, p, -1)


def phi_beta(i, p):
    return phi(i, p, SparsePoly.var(p.ring, "b"))


def reciprocal(s, D):
    """1/s modulo degree > D, for s whose degree-0 part is a unit constant
    c: the geometric series in 1 - s/c, each power formed in full and
    then truncated."""
    ring = s.ring
    c = s.coeff(())
    cinv = Fraction(1, c) if ring.rational else c
    one = SparsePoly.const(ring, 1)
    r = (one - s * cinv).truncate(D)
    out = power = one
    for _ in range(D):
        power = (power * r).truncate(D)
        out = out + power
    return (out * cinv).truncate(D)


# 1/g per (law, i, D), each built for its own i by full products
_GINV = {}


def A_op(fgl, D, i, p):
    """(1 + sigma_i)(p / F(x_i, chi(x_{i+1}))) modulo degree > D, with the
    unit g of F(x_i, chi(x_{i+1})) = (x_i - x_{i+1}) g inverted once per
    law, i and D, and every product formed in full and then truncated."""
    ginv = _GINV.get((fgl, i, D))
    if ginv is None:
        xi = SparsePoly.var(fgl.ring, f"x{i}")
        xi1 = SparsePoly.var(fgl.ring, f"x{i + 1}")
        denom = fgl.sum_series(xi, fgl.inverse_series(xi1))
        g = divide_by_difference(denom, f"x{i}", f"x{i + 1}")
        ginv = _GINV[fgl, i, D] = reciprocal(g, D - 1)
    r = (p * ginv).truncate(D + 1)
    out = divide_by_difference(r - swap(i, r), f"x{i}", f"x{i + 1}")
    return out.truncate(D)


def kappa(fgl, a, b, bound):
    """The braid defect coefficient of the formal Demazure operators,
    kappa(a, b) = 1/(x_{a+b} x_b) - 1/(x_{a+b} x_{-a}) - 1/(x_a x_b),
    modulo degree > bound (Hoffnung, Malagon-Lopez, Savage & Zainoulline,
    Selecta Math. 20, 2014).  A root e_i - e_j is the pair (i, j), a + b
    is a root, and x_(i, j) = F(x_i, chi(x_j)) = (x_i - x_j) u_(i, j) with
    u a unit.  kappa is N / (x_{a+b} x_b x_{-a} x_a) with
    N = x_{-a} x_a - x_b x_a - x_{a+b} x_{-a}: N through degree bound + 4
    divided by the four differences, which is exact on each homogeneous
    part, times the reciprocal of the product of the four units.  The
    law's x_(i, j) is exact through its D, so bound is at most D - 4."""
    (i, j), (k, l) = a, b
    minus_a, a_plus_b = (j, i), (i, l) if j == k else (k, j)
    ring, top = fgl.ring, bound + 4
    if top > fgl.D:
        raise ValueError(f"bound {bound} needs a law exact through {top}")

    def var(s):
        return SparsePoly.var(ring, f"x{s}")
    x = {(s, t): fgl.sum_series(var(s), fgl.inverse_series(var(t)))
         for s, t in (a, b, minus_a, a_plus_b)}

    def mul(p, q, d):
        return sum_of_products([(p, q)], ring, d)
    num = (mul(x[minus_a], x[a], top) - mul(x[b], x[a], top)
           - mul(x[a_plus_b], x[minus_a], top))
    units = SparsePoly.const(ring, 1)
    for (s, t), x_root in x.items():
        num = divide_by_difference(num, f"x{s}", f"x{t}")
        units = mul(units, divide_by_difference(x_root, f"x{s}", f"x{t}"),
                    bound)
    return mul(num, series_reciprocal(units, bound), bound)
