"""Exact sparse multivariate polynomials and truncated power series.

Coefficients are arbitrary-precision integers or reduced fractions
(``fractions.Fraction``).  A polynomial lives over one of four coefficient
domains:

* ``Integers``       -- plain Z
* ``Rationals``      -- Q
* ``BetaRing``       -- Z[b] with one central generator ``b``
* ``LazardRational`` -- Q[m1, ..., mK]

The generators ``b`` and ``m1..mK`` are stored as ordinary variables inside
the exponent vectors but are *never* counted by truncation: only the
geometric variables (x's, y's, series variables, Chern-class symbols)
contribute to the degree that a ``TruncatedSeries`` bounds.

A monomial is packed into one Python int of 16-bit fields.  Each variable
name gets its own field the first time the process sees it; field 0 holds
the geometric degree.  The top bit of every field is a guard bit that a
valid monomial keeps clear, so exponents (and the geometric degree) are at
most ``MAX_EXP`` = 2^15 - 1.  The product of two monomials is the sum of
their ints: two fields below 2^15 add up to less than 2^16 and never carry
into the next field, so a guard bit set in a sum is exactly an overflow,
and it raises ``ExponentOverflowError``.  Keys are sorted into the
canonical term order only when a polynomial is rendered.
"""

from __future__ import annotations

import re
import sys
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, islice, product, repeat
from operator import add, neg, or_, sub

__all__ = [
    "CoefficientRing",
    "ZZ",
    "QQ",
    "beta_ring",
    "lazard_rational",
    "RingMismatchError",
    "DivisionError",
    "ExponentOverflowError",
    "MAX_EXP",
    "SparsePoly",
    "sum_of_products",
    "divided_difference",
    "divide_by_difference",
    "TruncatedSeries",
    "series_reciprocal",
    "compositional_inverse",
]


class RingMismatchError(ValueError):
    """Operands live over different coefficient rings."""


class DivisionError(ArithmeticError):
    """Exact division left a nonzero remainder."""


class ExponentOverflowError(ValueError):
    """An exponent or a geometric degree would exceed MAX_EXP."""


@dataclass(frozen=True)
class CoefficientRing:
    kind: str  # Integers | Rationals | BetaRing | LazardRational
    K: int = 0  # number of log generators, LazardRational only

    def __post_init__(self):
        if self.kind not in ("Integers", "Rationals", "BetaRing", "LazardRational"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "LazardRational" and self.K < 1:
            raise ValueError("LazardRational needs K >= 1")

    @property
    def rational(self) -> bool:
        return self.kind in ("Rationals", "LazardRational")

    def allows_generator(self, name: str) -> bool:
        if name == "b":
            return self.kind == "BetaRing"
        if name[:1] == "m" and name[1:].isdecimal():
            return self.kind == "LazardRational" and 1 <= int(name[1:]) <= self.K
        return True


ZZ = CoefficientRing("Integers")
QQ = CoefficientRing("Rationals")


def beta_ring() -> CoefficientRing:
    return CoefficientRing("BetaRing")


def lazard_rational(K: int) -> CoefficientRing:
    return CoefficientRing("LazardRational", K)


# -- variables ---------------------------------------------------------------

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
        key = _cache[name] = (cat, stem, int(idx) if idx else 0)
    return key


def is_coefficient_var(name: str) -> bool:
    """True for the generators (b, m_k) that truncation never counts."""
    return name == "b" or (name.startswith("m") and name[1:].isdigit())


# -- packed monomials --------------------------------------------------------

_BITS = 16
MAX_EXP = (1 << _BITS - 1) - 1
_FIELD = (1 << _BITS) - 1      # a field; field 0 is the geometric degree
_SLOTS: dict = {}              # name -> (shift, unit), unit = name^1
_NAMES = [None]                # field index -> variable name
_CANON: list = []              # variable field indices in canonical order
_guard = 1 << _BITS - 1        # the guard bits of every field in use


def _slot(name: str) -> tuple:
    """(shift, unit) of a variable's field, registering the name on first
    use.  A geometric variable's unit also carries 1 in the degree field."""
    slot = _SLOTS.get(name)
    if slot is None:
        global _guard
        _var_key(name)
        k = len(_NAMES)
        shift = _BITS * k
        slot = _SLOTS[name] = (
            shift, (1 << shift) + (not is_coefficient_var(name)))
        _NAMES.append(name)
        _CANON.append(k)
        _CANON.sort(key=lambda j: _var_key(_NAMES[j]))
        _guard |= 1 << shift + _BITS - 1
    return slot


def _check_guard(keys) -> None:
    """Raise unless every packed monomial in keys has its guard bits clear.
    Exact when each key is the sum of two valid ones."""
    if reduce(or_, keys, 0) & _guard:
        raise ExponentOverflowError(f"an exponent exceeds {MAX_EXP}")


def _encode(mono) -> int:
    """Pack (name, exponent) pairs, checking after each pair."""
    key = 0
    for v, e in mono:
        if e < 0:
            raise ValueError("negative exponent")
        if e > MAX_EXP:
            raise ExponentOverflowError(f"{v}^{e}: exponent above {MAX_EXP}")
        key += e * _slot(v)[1]
        if key & _guard:
            raise ExponentOverflowError(f"degree exceeds {MAX_EXP}")
    return key


def _columns(keys) -> tuple:
    """The variables present in keys, in canonical order; the columns of
    the geometric degree and of their exponents, in key order, all decoded
    at once as one array of fields; and each column's OR, a bound on it."""
    present = reduce(or_, keys, 0)
    n = (present.bit_length() + _BITS - 1) // _BITS or 1
    slots = [k for k in _CANON if k < n and present >> _BITS * k & _FIELD]
    fields = array("H", b"".join(
        map(int.to_bytes, keys, repeat(2 * n), repeat("little"))))
    if sys.byteorder == "big":
        fields.byteswap()
    return ([_NAMES[k] for k in slots], [fields[k::n] for k in [0] + slots],
            [present >> _BITS * k & _FIELD for k in [0] + slots])


# print sort keys: base-32 digits below " ", which no printed text has
_KEY_UP = [chr(k) for k in range(32)]
_KEY_DOWN = _KEY_UP[::-1]
_DROP_KEYS = dict.fromkeys(range(32))


def _keys(digits, count) -> list:
    """Keys of one width, in digits' order, of 0 up to at least count - 1."""
    if count <= 32:
        return digits
    width = ((count - 1).bit_length() + 4) // 5
    return list(islice(map("".join, product(digits, repeat=width)), count))


def _clean(terms: dict, rational: bool) -> dict:
    """Drop zero coefficients; over Q store integral fractions as ints.
    Over Z and Z[b] it may return terms itself, which the caller owns."""
    if rational:
        return {m: c.numerator if type(c) is Fraction and c.denominator == 1
                else c for m, c in terms.items() if c}
    if 0 not in terms.values():
        return terms
    return {m: c for m, c in terms.items() if c}


def _output_order(names, degree, cols, values) -> list:
    """Rows (-total degree, *exponents, value) from the columns _columns
    gave and values in key order, sorted into output order: total degree
    (b and the m_k counted) ascending, then exponents descending.  No two
    rows tie before their values, so no values are compared."""
    key = map(neg, degree)
    for v, col in zip(names, cols):
        if is_coefficient_var(v):
            key = map(sub, key, col)
    return sorted(zip(key, *cols, values), reverse=True)


def _coeff_str(c) -> str:
    if type(c) is Fraction:
        return f"{c.numerator}/{c.denominator}"
    return str(c)


class _Terms(Mapping):
    """The terms of a SparsePoly as a map from monomials, tuples of
    (name, exponent) pairs in canonical variable order, to coefficients;
    monomials are decoded on access."""

    __slots__ = ("_packed",)

    def __init__(self, packed: dict):
        self._packed = packed

    def __len__(self):
        return len(self._packed)

    def __iter__(self):
        names, cols, _ = _columns(self._packed)
        for _, *exps in zip(*cols):
            yield tuple(compress(zip(names, exps), exps))

    def __getitem__(self, mono):
        return self._packed[_encode(mono)]

    def items(self):
        return list(zip(self, self._packed.values()))


class SparsePoly:
    """Immutable exact multivariate polynomial over a ``CoefficientRing``."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: CoefficientRing, terms: dict):
        """``terms`` maps tuples of (name, exponent) pairs to coefficients."""
        self.ring = ring
        packed: dict = {}
        for mono, c in terms.items():
            if isinstance(c, Fraction):
                if c.denominator == 1:
                    c = c.numerator
                elif not ring.rational:
                    raise ValueError(
                        f"non-integer coefficient {c} over {ring.kind}")
            else:
                c = int(c)
            key = _encode(mono)
            packed[key] = packed.get(key, 0) + c
        self._terms = _clean(packed, ring.rational)

    @classmethod
    def _new(cls, ring: CoefficientRing, terms: dict) -> "SparsePoly":
        """Trusted constructor: packed keys, nonzero clean coefficients."""
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        return p

    @property
    def terms(self) -> _Terms:
        return _Terms(self._terms)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: CoefficientRing) -> "SparsePoly":
        return SparsePoly._new(ring, {})

    @staticmethod
    def const(ring: CoefficientRing, value) -> "SparsePoly":
        return SparsePoly(ring, {(): Fraction(value)})

    @staticmethod
    def var(ring: CoefficientRing, name: str, exp: int = 1) -> "SparsePoly":
        if not ring.allows_generator(name):
            raise RingMismatchError(f"generator {name!r} not in {ring.kind}")
        return SparsePoly._new(ring, {_encode(((name, exp),)): 1})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            # as a constant term, so a non-integral Fraction over Z or Z[b]
            # is unequal rather than an error
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, frozenset(self._terms.items())))

    # -- inspection ----------------------------------------------------------

    def variables(self) -> set:
        return set(_columns((reduce(or_, self._terms, 0),))[0])

    def degree(self) -> int:
        """Total degree in the geometric variables (-1 for the zero poly)."""
        return max((m & _FIELD for m in self._terms), default=-1)

    def constant_term(self):
        """Coefficient of the monomial with no geometric variables.

        Returns a SparsePoly (it may still involve b or the m_k)."""
        return SparsePoly._new(self.ring, {
            m: c for m, c in self._terms.items() if not m & _FIELD})

    def split(self, names) -> dict:
        """The terms grouped by their exponents of names (distinct): a map
        from exponent tuples to coefficients, polynomials in the other
        variables."""
        slots = [_slot(v) for v in names]
        mask = sum(_FIELD << shift for shift, _ in slots)
        keys: dict = {}    # the fields of names in a key -> their monomial
        groups: dict = {}  # that monomial -> the rest of each term
        for m, c in self._terms.items():
            k = keys.get(m & mask)
            if k is None:
                k = keys[m & mask] = sum(
                    (m >> shift & _FIELD) * unit for shift, unit in slots)
            groups.setdefault(k, {})[m - k] = c
        return {tuple([k >> shift & _FIELD for shift, _ in slots]):
                SparsePoly._new(self.ring, terms)
                for k, terms in groups.items()}

    @staticmethod
    def monomial(ring: CoefficientRing, names, exps) -> "SparsePoly":
        """The product of names[j]^exps[j]; the inverse of split for one
        key."""
        return SparsePoly._new(ring, {_encode(zip(names, exps)): 1})

    def coeff(self, mono_pairs) -> "int | Fraction":
        return self._terms.get(_encode(mono_pairs), 0)

    def homogeneous_part(self, d: int) -> "SparsePoly":
        return SparsePoly._new(self.ring, {
            m: c for m, c in self._terms.items() if m & _FIELD == d})

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "SparsePoly"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"{self.ring.kind} vs {other.ring.kind}")

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            return other
        if isinstance(other, (int, Fraction)):
            return SparsePoly(self.ring, {(): other})
        return None

    def _combine(self, other, op):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        rational = self.ring.rational
        big, small = self._terms, other._terms
        if op is add and len(big) < len(small):
            big, small = small, big
        terms = dict(big)
        get = terms.get
        for m, c in small.items():
            s = op(get(m, 0), c)
            if not s:
                del terms[m]
            elif rational and type(s) is Fraction and s.denominator == 1:
                terms[m] = s.numerator
            else:
                terms[m] = s
        return SparsePoly._new(self.ring, terms)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly._new(
            self.ring, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        small, big = self._terms, other._terms
        if len(small) > len(big):
            small, big = big, small
        if len(small) != 1:
            return sum_of_products(((self, other),), self.ring)
        # a monomial times a polynomial: a shift of the keys
        (k, c0), = small.items()
        terms = {m + k: c * c0 for m, c in big.items()}
        _check_guard(terms)
        return SparsePoly._new(self.ring, _clean(terms, self.ring.rational))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = SparsePoly.const(self.ring, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def truncate(self, bound: int) -> "SparsePoly":
        return SparsePoly._new(self.ring, {
            m: c for m, c in self._terms.items() if m & _FIELD <= bound})

    # -- substitution --------------------------------------------------------

    def substitute(self, assignment: dict, ring: CoefficientRing | None = None,
                   bound: int | None = None) -> "SparsePoly":
        """Evaluate under var -> SparsePoly/number; untouched vars stay.

        With a bound, terms of geometric degree above it are dropped; the
        general path forms no term of a power or partial product above it."""
        target = ring if ring is not None else self.ring
        subs = []
        for v, val in assignment.items():
            if isinstance(val, SparsePoly):
                if val.ring != target:
                    raise RingMismatchError(
                        f"image of {v} lives over {val.ring.kind}")
            else:
                val = SparsePoly(target, {(): val})
            subs.append(_slot(v) + (val,))

        if all(len(img._terms) <= 1 for *_, img in subs):
            # every image is a monomial or zero (variable renames and
            # numeric specialisations): each term maps to one term
            acc: dict = {}
            get = acc.get
            images = []
            for shift, unit, img in subs:
                k, ic = next(iter(img._terms.items()), (0, 0))
                top = max(_columns((k,))[2])
                images.append((shift, unit, k, ic, top))
            for m, c in self._terms.items():
                key = m
                for shift, unit, k, ic, top in images:
                    e = m >> shift & _FIELD
                    if not e:
                        continue
                    if not ic:
                        break
                    # remove v^e and add its image: when the image's fields
                    # times e are valid, this sums two valid keys
                    key += e * (k - unit)
                    if e * top > MAX_EXP or key & _guard:
                        raise ExponentOverflowError(
                            f"an exponent exceeds {MAX_EXP}")
                    c = c * ic ** e
                else:
                    if bound is None or key & _FIELD <= bound:
                        acc[key] = get(key, 0) + c
            out = SparsePoly._new(target, _clean(acc, target.rational))
        else:
            # the terms grouped by their exponents of the substituted
            # variables
            groups: dict = {}
            for m, c in self._terms.items():
                exps = []
                for shift, unit, _ in subs:
                    e = m >> shift & _FIELD
                    m -= e * unit
                    exps.append(e)
                groups.setdefault(tuple(exps), {})[m] = c
            # powers[j][e] is the j-th image to the e-th power; each group's
            # last factor goes into the one final sum
            one = SparsePoly.const(target, 1)
            powers = [[one, img] for *_, img in subs]
            pairs = []
            for exps, rest in groups.items():
                part, factor = SparsePoly._new(target, rest), one
                for e, (*_, img), pw in zip(exps, subs, powers):
                    while len(pw) <= e:
                        pw.append(
                            sum_of_products([(pw[-1], img)], target, bound))
                    if e:
                        part = sum_of_products([(part, factor)], target, bound)
                        factor = pw[e]
                pairs.append((part, factor))
            out = sum_of_products(pairs, target, bound)
        if self.ring.rational and not target.rational:
            # from Q: integral coefficients become ints, others raise
            out = SparsePoly(target, out.terms)
        if target != self.ring and not all(
                map(target.allows_generator, out.variables())):
            raise RingMismatchError(f"a generator is not in {target.kind}")
        return out

    # -- canonical output ----------------------------------------------------

    def _render(self, label, power, magnitude) -> str:
        """Signed terms joined in output order; label(v) prints a variable,
        power(label, e) a power and magnitude(c) a positive coefficient.
        A monomial's text has its total degree as a key, then each exponent
        complemented before its word, so one sort puts the texts in order."""
        if not self._terms:
            return "0"
        names, (total, *cols), (top, *tops) = _columns(self._terms)
        for v, col, t in zip(names, cols, tops):
            if is_coefficient_var(v):
                total, top = map(add, total, col), top + t
        words = [map(_keys(_KEY_UP, top + 1).__getitem__, total)]
        for s, col, t in zip(map(label, names), cols, tops):
            # by exponent: its key, then its printed power after a space
            powers = ["", " " + s]
            if t > 1:
                powers += [" " + power(s, e) for e in range(2, t + 1)]
            words.append(map(list(map(
                add, _keys(_KEY_DOWN, t + 1), powers)).__getitem__, col))
        signs = {c: " +" if c == 1 else " -" if c == -1
                 else " + " + magnitude(c) if c > 0 else " - " + magnitude(-c)
                 for c in set(self._terms.values())}
        signed = dict(zip(map("".join, zip(*words)),
                          map(signs.__getitem__, self._terms.values())))
        order = sorted(signed)
        if self._terms.get(0) in (1, -1):  # a constant 1 or -1 sorts first
            signed[order[0]] += " " + magnitude(1)
        text = "".join(map(add, map(signed.__getitem__, order), order))
        text = text.translate(_DROP_KEYS)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_text(self) -> str:
        return self._render(str, lambda s, e: f"{s}^{e}", _coeff_str)

    def to_latex(self) -> str:
        def label(v):
            m = _VAR_RE.fullmatch(v)
            stem, idx = m.group(1), m.group(2)
            stem = r"\beta" if stem == "b" else stem
            return f"{stem}_{{{idx}}}" if idx else stem

        def magnitude(mag):
            if isinstance(mag, Fraction):
                return rf"\tfrac{{{mag.numerator}}}{{{mag.denominator}}}"
            return str(mag)

        return self._render(label, lambda s, e: f"{s}^{{{e}}}", magnitude)

    def to_json_obj(self) -> dict:
        names, (degree, *cols), _ = _columns(self._terms)
        rows = _output_order(names, degree, cols, self._terms.values())
        return {"vars": names,
                "terms": [{"exponents": exps, "coeff": _coeff_str(c)}
                          for _, *exps, c in rows]}

    def __repr__(self):
        return f"SparsePoly({self.to_text()})"


# -- module-level helpers ----------------------------------------------------

def sum_of_products(pairs, ring: CoefficientRing,
                    bound: int | None = None) -> SparsePoly:
    """The sum of a * b over the pairs (a, b) of polynomials over ring,
    accumulated in one dict, guard-checked and cleaned once.  With a
    bound, it is the sum truncated at that geometric degree, and no pair
    of terms above the bound is formed: an exponent overflow raises
    ExponentOverflowError in a kept term, never in a pair above it."""
    limit = 2 * _FIELD if bound is None else bound  # above any degree sum
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        if (a.ring is not ring and a.ring != ring
                or b.ring is not ring and b.ring != ring):
            raise RingMismatchError(f"{a.ring.kind}, {b.ring.kind}")
        small, big = a._terms, b._terms
        if len(small) > len(big):
            small, big = big, small
        levels = ((0, big),)  # unbounded: one level
        if bound is not None:
            by_degree: dict = {}
            for m2, c2 in big.items():
                by_degree.setdefault(m2 & _FIELD, {})[m2] = c2
            levels = sorted(by_degree.items())  # big's terms by degree
        for m1, c1 in small.items():
            for d2, level in levels:
                if d2 + (m1 & _FIELD) > limit:
                    break
                for m2, c2 in level.items():
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
    _check_guard(acc)
    return SparsePoly._new(ring, _clean(acc, ring.rational))


def divided_difference(parts, va: str, vb: str) -> SparsePoly:
    """(P - P|va<->vb) / (va - vb), P the sum of the parts (at least one,
    all over one ring), term by term: for m va^a vb^c with a > c,
    (va^a vb^c - va^c vb^a) / (va - vb) = sum_{k=c}^{a-1} va^k vb^(a+c-1-k),
    the sign flips for a < c and the term vanishes for a = c.  Each new
    monomial is the old one with the fields of va and vb replaced; no
    exponent grows, so none can overflow."""
    ring = parts[0].ring
    si, ui = _slot(va)
    sj, uj = _slot(vb)
    step = ui - uj
    out: dict = {}
    get = out.get
    for part in parts:
        for m, coef in part._terms.items():
            a = m >> si & _FIELD
            c = m >> sj & _FIELD
            if a == c:
                continue
            m -= a * ui + c * uj
            if a < c:
                a, c, coef = c, a, -coef
            m += c * ui + (a - 1) * uj
            for _ in range(a - c):
                out[m] = get(m, 0) + coef
                m += step
    return SparsePoly._new(ring, _clean(out, ring.rational))


def divide_by_difference(p: SparsePoly, va: str, vb: str) -> SparsePoly:
    """Exact division of p by (va - vb); raises DivisionError otherwise.

    Synthetic division with va as the main variable: writing
    p = sum_a P_a va^a, the quotient sum_a q_a va^a satisfies
    q_{a-1} = P_a + vb q_a, read off from the top coefficient downwards,
    and P_0 + vb q_0 must vanish."""
    ring = p.ring
    parts = p.split((va,))
    carry = zero = SparsePoly.zero(ring)
    quotient = []
    for a in range(max(parts, default=(0,))[0], 0, -1):
        level = parts.get((a,), zero) + carry
        quotient.append((level, SparsePoly.monomial(ring, (va,), (a - 1,))))
        carry = level * SparsePoly.var(ring, vb)
    if parts.get((0,), zero) + carry:
        raise DivisionError(f"not divisible by ({va} - {vb})")
    return sum_of_products(quotient, ring)


# -- truncated power series --------------------------------------------------

@dataclass(frozen=True)
class TruncatedSeries:
    """A polynomial representing a power series modulo degree > bound.

    Only geometric variables count towards the bound; the generators b
    and m_k live in degree 0 for truncation purposes."""

    body: SparsePoly
    bound: int

    def __post_init__(self):
        if self.body.degree() > self.bound:
            object.__setattr__(self, "body", self.body.truncate(self.bound))

    def substitute_into(self, assignment: dict) -> "TruncatedSeries":
        """Substitute polynomials for variables, re-truncating.

        Every image must have zero constant term, so the composite is a
        well-defined series."""
        for v, img in assignment.items():
            if img.constant_term() if isinstance(img, SparsePoly) else img:
                raise ValueError(f"image of {v} has a constant term")
        return TruncatedSeries(
            self.body.substitute(assignment, bound=self.bound), self.bound)


def series_reciprocal(s: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse modulo degree > bound.

    Requires the degree-0 part to be a unit constant: +-1 over Integers
    and BetaRing, any nonzero rational otherwise."""
    ring = s.body.ring
    c0 = s.body.constant_term()
    c = c0.coeff(())
    if c == 0 or c0 != c:
        raise ValueError("constant term is not a unit constant")
    if not ring.rational and c not in (1, -1):
        raise ValueError(f"{c} is not a unit over {ring.kind}")
    cinv = Fraction(1, c) if ring.rational else c  # c = +-1 otherwise
    # s = c(1 - r) with r of positive degree: invert via the geometric series
    one = SparsePoly.const(ring, 1)
    r = one - s.body * cinv
    acc = power = one
    for _ in range(s.bound):
        power = sum_of_products([(power, r)], ring, s.bound)
        if not power:
            break
        acc = acc + power
    return TruncatedSeries(acc * cinv, s.bound)


def compositional_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """Inverse under composition of a series t + O(t^2) in t alone.

    Fixed-point iteration g <- g - (s(g) - t), not Newton iteration:
    each pass gains one order of accuracy, so bound passes suffice."""
    ring = s.body.ring
    if {v for v in s.body.variables() if not is_coefficient_var(v)} - {"t"}:
        raise ValueError("series involves variables besides t")
    if s.body.coeff((("t", 1),)) != 1:
        raise ValueError("linear coefficient must be 1")
    if not s.body.constant_term().is_zero():
        raise ValueError("nonzero constant term")
    t = g = SparsePoly.var(ring, "t")
    for _ in range(s.bound):
        err = s.substitute_into({"t": g}).body - t
        if err.is_zero():
            break
        g = g - err
    return TruncatedSeries(g, s.bound)
