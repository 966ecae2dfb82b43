"""The tuple-monomial RefPoly arithmetic that flagcalc.rings replaced
with packed-integer monomials, kept as the slow reference the property
tests in test_packed.py and test_substitution.py hold the packed code to.

A monomial is a tuple of (name, exponent) pairs sorted by _var_key, and
multiplying two of them merges the tuples.  RefPoly has the arithmetic,
substitution, truncation and rendering of the old RefPoly;
divide_by_difference and divided_difference are the old synthetic
division and closed-form partial_i kernel on these tuples.
series_substitute is the old series substitution engine with its own
power cache, and solve_chi the old fixed-point solution of
F(u, chi(u)) = 0 built on it.  compositional_inverse is the old
fixed-point inverse of a SparsePoly series, which flagcalc.rings replaced
with Lagrange inversion.
"""

from __future__ import annotations

import re
from fractions import Fraction

from flagcalc.rings import (
    CoefficientRing, DivisionError, RingMismatchError, SparsePoly)

_VAR_RE = re.compile(r"([a-zA-Z]+)(\d*)")

# Ordering of the variable blocks used for the canonical term order:
# x-block < y-block < series/auxiliary block < Chern symbols < generators.
_CATEGORY = {
    "x": 0, "y": 1, "u": 2, "v": 3, "w": 4, "t": 5,
    "c": 6, "d": 7, "b": 8, "m": 9,
}


def _var_key(name: str, _cache: dict = {}) -> tuple:
    key = _cache.get(name)
    if key is None:
        m = _VAR_RE.fullmatch(name)
        if not m:
            raise ValueError(f"bad variable name {name!r}")
        stem, idx = m.group(1), m.group(2)
        cat = _CATEGORY.get(stem, 10)
        key = _cache[name] = (cat, stem, int(idx) if idx else 0, name)
    return key


def is_coefficient_var(name: str) -> bool:
    """True for the generators (b, m_k) that truncation never counts."""
    return name == "b" or (name.startswith("m") and name[1:].isdigit())


Monomial = tuple  # tuple of (name, exponent) pairs, sorted by _var_key


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    # merge of two sorted exponent vectors
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif _var_key(va) < _var_key(vb):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_degree(mono: Monomial, exclude: tuple = ()) -> int:
    return sum(e for v, e in mono
               if not is_coefficient_var(v) and v not in exclude)


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        return f"{c.numerator}/{c.denominator}"
    return str(c)


class RefPoly:
    """Immutable exact multivariate polynomial over a ``CoefficientRing``."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoefficientRing, terms: dict):
        self.ring = ring
        clean = {}
        rational = ring.rational
        for mono, c in terms.items():
            if isinstance(c, Fraction):
                if c.denominator == 1:
                    c = c.numerator
                elif not rational:
                    raise ValueError(
                        f"non-integer coefficient {c} over {ring.kind}")
            else:
                c = int(c)
            if c:
                clean[mono] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: CoefficientRing) -> "RefPoly":
        return RefPoly(ring, {})

    @staticmethod
    def const(ring: CoefficientRing, value) -> "RefPoly":
        return RefPoly(ring, {(): Fraction(value)})

    @staticmethod
    def var(ring: CoefficientRing, name: str, exp: int = 1) -> "RefPoly":
        if not ring.allows_generator(name):
            raise RingMismatchError(f"generator {name!r} not in {ring.kind}")
        if exp < 0:
            raise ValueError("negative exponent")
        if exp == 0:
            return RefPoly.const(ring, 1)
        return RefPoly(ring, {((name, exp),): 1})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RefPoly.const(self.ring, other) if self.ring.rational \
                else RefPoly(self.ring, {(): other})
        if not isinstance(other, RefPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- inspection ----------------------------------------------------------

    def variables(self) -> set:
        return {v for mono in self.terms for v, _ in mono}

    def degree(self, exclude: tuple = ()) -> int:
        """Total degree in the geometric variables (-1 for the zero poly)."""
        if not self.terms:
            return -1
        return max(_mono_degree(m, exclude) for m in self.terms)

    def constant_term(self):
        """Coefficient of the monomial with no geometric variables.

        Returns a RefPoly (it may still involve b or the m_k)."""
        kept = {m: c for m, c in self.terms.items() if _mono_degree(m) == 0}
        return RefPoly(self.ring, kept)

    def coeff(self, mono_pairs) -> "int | Fraction":
        mono = tuple(sorted(
            ((v, e) for v, e in mono_pairs if e), key=lambda p: _var_key(p[0])))
        return self.terms.get(mono, 0)

    def homogeneous_part(self, d: int, exclude: tuple = ()) -> "RefPoly":
        kept = {m: c for m, c in self.terms.items()
                if _mono_degree(m, exclude) == d}
        return RefPoly(self.ring, kept)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "RefPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"{self.ring.kind} vs {other.ring.kind}")

    def _coerce(self, other):
        if isinstance(other, RefPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RefPoly(self.ring, {(): other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) + c
        return RefPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return RefPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            terms[mono] = terms.get(mono, 0) - c
        return RefPoly(self.ring, terms)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, 0) + c1 * c2
        return RefPoly(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = RefPoly.const(self.ring, 1) if self.ring.rational \
            else RefPoly(self.ring, {(): 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, bound: int, exclude: tuple = ()) -> "RefPoly":
        kept = {m: c for m, c in self.terms.items()
                if _mono_degree(m, exclude) <= bound}
        return RefPoly(self.ring, kept)

    # -- substitution --------------------------------------------------------

    def substitute(self, assignment: dict, ring: CoefficientRing | None = None
                   ) -> "RefPoly":
        """Evaluate under var -> RefPoly/number; untouched vars stay."""
        target = ring if ring is not None else self.ring
        images = {}
        for v, val in assignment.items():
            if isinstance(val, RefPoly):
                if val.ring != target:
                    raise RingMismatchError(
                        f"image of {v} lives over {val.ring.kind}")
                images[v] = val
            else:
                images[v] = RefPoly(target, {(): Fraction(val)}) \
                    if target.rational else RefPoly(target, {(): val})
        acc: dict = {}
        # fast path: every image is a monomial (covers variable renames and
        # numeric specialisations), so no polynomial products are needed
        if all(len(img.terms) <= 1 for img in images.values()):
            for mono, c in self.terms.items():
                exps: dict = {}
                dead = False
                for v, e in mono:
                    img = images.get(v)
                    if img is None:
                        exps[v] = exps.get(v, 0) + e
                        continue
                    if not img.terms:
                        dead = True
                        break
                    (im_mono, im_c), = img.terms.items()
                    c = c * im_c ** e
                    for iv, ie in im_mono:
                        exps[iv] = exps.get(iv, 0) + ie * e
                if dead:
                    continue
                m = tuple(sorted(exps.items(), key=lambda p: _var_key(p[0])))
                acc[m] = acc.get(m, 0) + c
        else:
            for mono, c in self.terms.items():
                # c joins at the end, so only the sum need fit the target;
                # a variable kept is checked against the target at the end
                term = RefPoly.const(target, 1)
                for v, e in mono:
                    if v in images:
                        term = term * images[v] ** e
                    else:
                        term = term * RefPoly(target, {((v, e),): 1})
                for m2, c2 in term.terms.items():
                    acc[m2] = acc.get(m2, 0) + c * c2
        out = RefPoly(target, acc)
        for v in out.variables():
            if not target.allows_generator(v):
                raise RingMismatchError(
                    f"generator {v!r} not in {target.kind}")
        return out

    # -- canonical output ----------------------------------------------------

    def _sorted_terms(self):
        def key(mono):
            deg = sum(e for _, e in mono)
            vec = tuple((_var_key(v), -e) for v, e in mono)
            return (deg, vec)
        return sorted(self.terms.items(), key=lambda mc: key(mc[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for mono, c in self._sorted_terms():
            mono_s = " ".join(
                v if e == 1 else f"{v}^{e}" for v, e in mono)
            neg = c < 0
            mag = -c if neg else c
            if not mono_s:
                body = _coeff_str(mag)
            elif mag == 1:
                body = mono_s
            else:
                body = f"{_coeff_str(mag)} {mono_s}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def to_latex(self) -> str:
        if not self.terms:
            return "0"

        def var_tex(v, e):
            m = _VAR_RE.fullmatch(v)
            stem, idx = m.group(1), m.group(2)
            stem = r"\beta" if stem == "b" else stem
            s = f"{stem}_{{{idx}}}" if idx else stem
            return s if e == 1 else f"{s}^{{{e}}}"

        pieces = []
        for mono, c in self._sorted_terms():
            mono_s = " ".join(var_tex(v, e) for v, e in mono)
            neg = c < 0
            mag = -c if neg else c
            if isinstance(mag, Fraction):
                mag_s = rf"\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
            else:
                mag_s = str(mag)
            if not mono_s:
                body = mag_s
            elif mag == 1:
                body = mono_s
            else:
                body = f"{mag_s} {mono_s}"
            if not pieces:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)

    def to_json_obj(self) -> dict:
        vars_ = sorted(self.variables(), key=_var_key)
        terms = []
        for mono, c in self._sorted_terms():
            d = dict(mono)
            terms.append({
                "exponents": [d.get(v, 0) for v in vars_],
                "coeff": _coeff_str(c),
            })
        return {"vars": vars_, "terms": terms}

    def __repr__(self):
        return f"RefPoly({self.to_text()})"


# -- module-level helpers ----------------------------------------------------


def divide_by_difference(p: RefPoly, va: str, vb: str) -> RefPoly:
    """Exact division of p by (va - vb); raises DivisionError otherwise.

    Synthetic division with va as the main variable: writing
    p = sum_a P_a va^a, the quotient satisfies q_{a-1} = P_a + vb*q_a
    read off from the top coefficient downwards."""
    ring = p.ring
    by_exp: dict[int, dict] = {}
    for mono, c in p.terms.items():
        rest = None
        a = 0
        for pos, (v, e) in enumerate(mono):
            if v == va:
                a = e
                rest = mono[:pos] + mono[pos + 1:]
                break
        if rest is None:
            rest = mono
        level = by_exp.get(a)
        if level is None:
            level = by_exp[a] = {}
        level[rest] = level.get(rest, 0) + c
    if not by_exp:
        return RefPoly.zero(ring)
    top = max(by_exp)
    vb_mono = ((vb, 1),)
    q: list[dict] = [{} for _ in range(top)]
    carry: dict = {}
    for a in range(top, 0, -1):
        level = dict(by_exp.get(a, {}))
        for mono, c in carry.items():
            level[mono] = level.get(mono, 0) + c
        q[a - 1] = level
        carry = {}
        for mono, c in level.items():
            if c:
                carry[_mono_mul(mono, vb_mono)] = c
    remainder = dict(by_exp.get(0, {}))
    for mono, c in carry.items():
        remainder[mono] = remainder.get(mono, 0) + c
    if any(c for c in remainder.values()):
        raise DivisionError(f"not divisible by ({va} - {vb})")
    out: dict = {}
    for a, level in enumerate(q):
        va_mono = ((va, a),) if a else ()
        for mono, c in level.items():
            if c:
                m = _mono_mul(mono, va_mono)
                out[m] = out.get(m, 0) + c
    return RefPoly(ring, out)


def divided_difference(p: RefPoly, i: int) -> RefPoly:
    """partial_i p = (p - sigma_i p) / (x_i - x_{i+1}), term by term.

    For a monomial m x_i^a x_{i+1}^c with a > c,
    (x_i^a x_{i+1}^c - x_i^c x_{i+1}^a) / (x_i - x_{i+1})
        = sum_{k=c}^{a-1} x_i^k x_{i+1}^(a+c-1-k),
    the sign flips for a < c and the term vanishes for a = c.  x_i and
    x_{i+1} are adjacent in the canonical variable order, so each new
    monomial is the old one with that middle part replaced."""
    xi, xj = f"x{i}", f"x{i + 1}"
    out: dict = {}
    for mono, coef in p.terms.items():
        for pos, (v, e) in enumerate(mono):
            if v == xi:
                a, c, end = e, 0, pos + 1
                if end < len(mono) and mono[end][0] == xj:
                    c = mono[end][1]
                    end += 1
                break
            if v == xj:
                a, c, end = 0, e, pos + 1
                break
        else:
            continue
        if a == c:
            continue
        if a < c:
            a, c, coef = c, a, -coef
        head, tail = mono[:pos], mono[end:]
        for k in range(c, a):
            mid = ((xi, k),) if k else ()
            if a + c - 1 - k:
                mid += ((xj, a + c - 1 - k),)
            m = head + mid + tail
            out[m] = out.get(m, 0) + coef
    return RefPoly(p.ring, out)


def series_substitute(body: RefPoly, assignment: dict, bound: int) -> RefPoly:
    """The series body with each variable of assignment replaced by its
    image (a RefPoly or a number), truncated at bound.

    Term by term, truncating every power of an image and every partial
    product, so the working size stays bounded.  Every image must have
    zero constant term."""
    ring = body.ring
    images = {}
    for v, img in assignment.items():
        if not isinstance(img, RefPoly):
            img = RefPoly(ring, {(): img})
        elif not img.constant_term().is_zero():
            raise ValueError(f"image of {v} has a constant term")
        images[v] = img
    powers: dict = {v: {0: RefPoly.const(ring, 1)} for v in images}

    def power(v, e):
        cache = powers[v]
        have = max(cache)
        while have < e:
            cache[have + 1] = (cache[have] * images[v]).truncate(bound)
            have += 1
        return cache[e]

    acc: dict = {}
    for mono, c in body.terms.items():
        rest = tuple((v, e) for v, e in mono if v not in images)
        term = RefPoly(ring, {rest: c})
        for v, e in mono:
            if v in images:
                term = (term * power(v, e)).truncate(bound)
        for m, tc in term.terms.items():
            acc[m] = acc.get(m, 0) + tc
    return RefPoly(ring, acc).truncate(bound)


def solve_chi(F: RefPoly, D: int) -> RefPoly:
    """Order-by-order solution chi(u) of F(u, chi(u)) = 0 modulo degree
    > D, for a law F(u, v) = u + v + (higher).

    Since dF/dv = 1 + (higher), the update chi <- chi - F(u, chi) gains one
    order of accuracy per pass."""
    chi = -RefPoly.var(F.ring, "u")
    for _ in range(D):
        err = series_substitute(F, {"v": chi}, D)
        if err.is_zero():
            break
        chi = (chi - err).truncate(D)
    return chi


def compositional_inverse(p: SparsePoly, bound: int) -> SparsePoly:
    """Compositional inverse of t + O(t^2) in t alone, modulo degree > bound.

    Fixed-point iteration g <- g - (p(g) - t), not Newton iteration:
    each pass gains one order of accuracy, so bound passes suffice."""
    ring, p = p.ring, p.truncate(bound)
    if {v for v in p.variables() if not is_coefficient_var(v)} - {"t"}:
        raise ValueError("series involves variables besides t")
    if p.coeff((("t", 1),)) != 1:
        raise ValueError("linear coefficient must be 1")
    if not p.constant_term().is_zero():
        raise ValueError("nonzero constant term")
    t = g = SparsePoly.var(ring, "t")
    for _ in range(bound):
        err = p.substitute({"t": g}, bound=bound) - t
        if err.is_zero():
            break
        g = g - err
    return g
