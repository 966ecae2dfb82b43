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

import sys
from fractions import Fraction
from functools import reduce
from itertools import compress, islice, product, repeat
from math import comb
from operator import add, itemgetter, neg, or_, sub

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
    "symmetric",
    "divided_difference",
    "divide_monic",
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


class CoefficientRing(tuple):
    __slots__ = ()
    kind, K = map(property, map(itemgetter, range(2)))

    def __new__(cls, kind: str, K: int = 0):
        """kind is Integers, Rationals, BetaRing or LazardRational; K is
        the number of log generators, of LazardRational only."""
        if kind not in ("Integers", "Rationals", "BetaRing", "LazardRational"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "LazardRational" and K < 1:
            raise ValueError("LazardRational needs K >= 1")
        return tuple.__new__(cls, (kind, K))

    def __repr__(self):
        return f"CoefficientRing(kind={self.kind!r}, K={self.K!r})"

    def __getnewargs__(self):  # copy and pickle pass these to __new__
        return tuple(self)

    @property
    def rational(self) -> bool:
        return self.kind in ("Rationals", "LazardRational")

    def allows_generator(self, name: str) -> bool:
        if name == "b":
            return self.kind == "BetaRing"
        if name[:1] == "m" and name[1:].isdecimal():
            k = int(name[1:])
            return (self.kind == "LazardRational" and name == f"m{k}"
                    and 1 <= k <= self.K)
        return True


ZZ = CoefficientRing("Integers")
QQ = CoefficientRing("Rationals")


def beta_ring() -> CoefficientRing:
    return CoefficientRing("BetaRing")


def lazard_rational(K: int) -> CoefficientRing:
    return CoefficientRing("LazardRational", K)


# -- variables ---------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

# Ordering of the variable blocks used for the canonical term order:
# x-block < y-block < series/auxiliary block < Chern symbols < generators.
_CATEGORY = {
    "x": 0, "y": 1, "u": 2, "v": 3, "w": 4, "t": 5,
    "c": 6, "d": 7, "b": 8, "m": 9,
}


def _var_key(name: str, _cache: dict = {}) -> tuple:
    key = _cache.get(name)
    if key is None:
        idx = name.lstrip(_LETTERS)
        if idx == name or idx and not idx.isdecimal():
            raise ValueError(f"bad variable name {name!r}")
        stem = name[:len(name) - len(idx)]
        cat = _CATEGORY.get(stem, 10)
        # the name last, so that x and x0 (or x1 and x01) do not tie
        key = _cache[name] = (cat, stem, int(idx) if idx else 0, name)
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
_UNIT = {0: 1}                 # the terms of the constant 1


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


def _check_generators(ring: CoefficientRing, names) -> None:
    """Raise RingMismatchError naming the first of names (in sorted order)
    that is a generator ring lacks."""
    for name in sorted(names):
        if not ring.allows_generator(name):
            raise RingMismatchError(f"generator {name!r} not in {ring.kind}")


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


def _fields(key: int) -> list:
    """The fields of one packed key, up to its last nonzero one."""
    return [key >> s & _FIELD for s in range(0, key.bit_length(), _BITS)]


def _columns(keys) -> tuple:
    """The variables present in keys, in canonical order; the columns of
    the geometric degree and of their exponents, in key order, as views of
    the keys' native-order bytes; and each column's OR, a bound on it."""
    present = _fields(reduce(or_, keys, 0)) or [0]
    n = len(present)
    slots = [k for k in _CANON if k < n and present[k]]
    fields = memoryview(b"".join(map(
        int.to_bytes, keys, repeat(2 * n), repeat(sys.byteorder)))).cast("H")
    # a big-endian key holds field 0 in its last place
    at = [k if sys.byteorder == "little" else n - 1 - k for k in [0] + slots]
    return ([_NAMES[k] for k in slots], [fields[j::n] for j in at],
            [present[k] for k in [0] + slots])


# print sort keys: base-32 digits below " ", which no printed text has
_KEY_UP = [chr(k) for k in range(32)]
_KEY_DOWN = _KEY_UP[::-1]
_DROP_KEYS = dict.fromkeys(range(32))


def _keys(digits, top, col) -> "list | dict":
    """Keys of one width, in digits' order, indexed by exponent: a list of
    0 up to at least top, or, when top needs more than one digit and
    exceeds the length of col, a dict of col's exponents alone."""
    if top < 32:
        return digits
    width = (top.bit_length() + 4) // 5
    if top < len(col):
        return list(islice(map("".join, product(digits, repeat=width)),
                           top + 1))
    shifts = range(5 * width - 5, -1, -5)
    return {e: "".join([digits[e >> k & 31] for k in shifts])
            for e in set(col)}


def _clean(terms: dict, rational: bool) -> dict:
    """Drop zero coefficients; over Q store integral fractions as ints.
    It may return terms itself, which the caller owns."""
    values = terms.values()
    if rational and Fraction in set(map(type, values)):
        return {m: c.numerator if type(c) is Fraction and c.denominator == 1
                else c for m, c in terms.items() if c}
    return {m: c for m, c in terms.items() if c} if 0 in values else terms


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
        _check_generators(ring, self.variables())

    @classmethod
    def _new(cls, ring: CoefficientRing, terms: dict) -> "SparsePoly":
        """Trusted constructor: packed keys, nonzero clean coefficients."""
        p = object.__new__(cls)
        p.ring = ring
        p._terms = terms
        return p

    @property
    def terms(self) -> dict:
        """A new dict from monomials, tuples of (name, exponent) pairs in
        canonical variable order, to coefficients."""
        names, cols, _ = _columns(self._terms)
        return {tuple(compress(zip(names, exps), exps)): c
                for (_, *exps), c in zip(zip(*cols), self._terms.values())}

    def __len__(self) -> int:
        """The number of terms; a polynomial is true when it has any."""
        return len(self._terms)

    def __reduce__(self):  # by name: packed keys are this process's fields
        return SparsePoly, (self.ring, self.terms)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: CoefficientRing) -> "SparsePoly":
        return SparsePoly._new(ring, {})

    @staticmethod
    def const(ring: CoefficientRing, value) -> "SparsePoly":
        if type(value) is int:
            return SparsePoly._new(ring, {0: value} if value else {})
        return SparsePoly(ring, {(): Fraction(value)})

    @staticmethod
    def var(ring: CoefficientRing, name: str, exp: int = 1) -> "SparsePoly":
        if not ring.allows_generator(name):
            raise RingMismatchError(f"generator {name!r} not in {ring.kind}")
        return SparsePoly._new(ring, {_encode(((name, exp),)): 1})

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

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
        present = _fields(reduce(or_, self._terms, 0))
        return {_NAMES[k] for k in range(1, len(present)) if present[k]}

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
            return SparsePoly.const(self.ring, other)
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
        if len(small) > len(big) or big == _UNIT:
            small, big = big, small
        if len(small) != 1 or small == _UNIT:
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
        if n == 0:
            return SparsePoly.const(self.ring, 1)
        result, base = None, self  # no product with the constant 1
        while n:
            if n & 1:
                result = base if result is None else result * base
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
                images.append((shift, unit, k, ic, max(_fields(k), default=0)))
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
            # variables; powers[j][e] is the j-th image to the e-th power,
            # and each group's last factor goes into the one final sum
            one = SparsePoly.const(target, 1)
            powers = [[one, img] for *_, img in subs]
            pairs = []
            for exps, rest in self.split(assignment).items():
                part, factor = SparsePoly._new(target, rest._terms), one
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
        if target != self.ring:
            _check_generators(target, out.variables())
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
                total, top = list(map(add, total, col)), top + t
        words = [map(_keys(_KEY_UP, top, total).__getitem__, total)]
        for s, col, t in zip(map(label, names), cols, tops):
            # by exponent: its key, then its printed power after a space
            keys = _keys(_KEY_DOWN, t, col)
            if type(keys) is dict:
                word = {e: k + (" " + power(s, e) if e > 1 else " " + s
                                if e else "") for e, k in keys.items()}
            else:
                powers = ["", " " + s]
                if t > 1:
                    powers += [" " + power(s, e) for e in range(2, t + 1)]
                word = list(map(add, keys, powers))
            words.append(map(word.__getitem__, col))
        sign = {c: " +" if c == 1 else " -" if c == -1
                else " + " + magnitude(c) if c > 0 else " - " + magnitude(-c)
                for c in set(self._terms.values())}
        signs = list(map(sign.__getitem__, self._terms.values()))
        texts = list(map("".join, zip(*words)))
        order = sorted(range(len(texts)), key=texts.__getitem__)
        if self._terms.get(0) in (1, -1):  # a constant 1 or -1 sorts first
            signs[order[0]] += " " + magnitude(1)
        text = "".join([signs[i] + texts[i] for i in order])
        text = text.translate(_DROP_KEYS)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_text(self) -> str:
        return self._render(str, lambda s, e: f"{s}^{e}", _coeff_str)

    def to_latex(self) -> str:
        def label(v):
            stem = _var_key(v)[1]
            idx = v[len(stem):]
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
    """The sum of a * b over the pairs (a, b) of polynomials over ring, a
    sequence, accumulated in one dict, guard-checked and cleaned once.
    With a bound, it is the sum truncated at that geometric degree, and no
    pair of terms above the bound is formed: an exponent overflow raises
    ExponentOverflowError in a kept term, never in a pair above it.  A
    pair with the constant 1 forms no term pairs: as the only pair, within
    the bound, it gives its other factor itself."""
    limit = 2 * _FIELD if bound is None else bound  # above any degree sum
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        if (a.ring is not ring and a.ring != ring
                or b.ring is not ring and b.ring != ring):
            raise RingMismatchError(f"{a.ring.kind}, {b.ring.kind}")
        small, big = a._terms, b._terms
        if len(small) > len(big) or big == _UNIT:
            small, big = big, small
        if small == _UNIT:  # no term pairs: big's terms within the bound
            if bound is not None and any(m & _FIELD > bound for m in big):
                big = {m: c for m, c in big.items() if m & _FIELD <= bound}
            elif len(pairs) == 1:
                return b if b._terms is big else a
            if not acc:
                acc.update(big)
                continue
            for m, c in big.items():
                acc[m] = get(m, 0) + c
            continue
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


def symmetric(parts: dict) -> bool:
    """Whether the polynomial that split into parts is symmetric in the
    split's names: each key has its adjacent swaps' coefficient."""
    return all(parts.get(a[:i] + (a[i + 1], a[i]) + a[i + 2:]) == c
               for a, c in parts.items() for i in range(len(a) - 1)
               if a[i] != a[i + 1])


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


def divide_monic(p: SparsePoly, v: str, M: int, tail) -> tuple:
    """p divided by v^M - sum_j T_j v^j, tail the (j, T_j) with j < M and
    T_j free of v: the quotient as (a, q_a) pairs, q_a the coefficient of
    v^a, and the remainder, of v-degree below M.  From the top power of v
    down, the coefficient c of each v^a with a >= M, one sum_of_products
    of the pairs that reach it, is q_(a-M) and sends (c, T_j) to v^(a-M+j).
    The terms of p below v^M go into the remainder as they are."""
    ring, (shift, unit) = p.ring, _slot(v)
    low, high = {}, {}  # high: a >= M -> the terms of v^a, v^a divided out
    for m, c in p._terms.items():
        a = m >> shift & _FIELD
        if a < M:
            low[m] = c
        else:
            high.setdefault(a, {})[m - a * unit] = c
    if not high:
        return [], p
    one = SparsePoly.const(ring, 1)
    slots = {a: [(SparsePoly._new(ring, t), one)] for a, t in high.items()}
    quotient = []
    for a in range(max(slots), M - 1, -1):
        c = sum_of_products(slots.pop(a, ()), ring)
        if c:
            quotient.append((a - M, c))
            for j, t in tail:
                slots.setdefault(a - M + j, []).append((c, t))
    remainder = sum_of_products([(SparsePoly._new(ring, low), one)] + [
        (c, t * SparsePoly.monomial(ring, (v,), (a,)))
        for a, pairs in slots.items() for c, t in pairs], ring)
    return quotient, remainder


def divide_by_difference(p: SparsePoly, va: str, vb: str) -> SparsePoly:
    """Exact division of p by (va - vb), divide_monic with M = 1 and
    tail vb; raises DivisionError unless the remainder is 0."""
    ring = p.ring
    quotient, remainder = divide_monic(
        p, va, 1, [(0, SparsePoly.var(ring, vb))])
    if remainder:
        raise DivisionError(f"not divisible by ({va} - {vb})")
    return sum_of_products(
        [(c, SparsePoly.monomial(ring, (va,), (a,))) for a, c in quotient],
        ring)


# -- truncated power series --------------------------------------------------

class TruncatedSeries:
    """A polynomial representing a power series modulo degree > bound.

    Only geometric variables count towards the bound; the generators b
    and m_k live in degree 0 for truncation purposes."""

    __slots__ = ("body", "bound")

    def __init__(self, body: SparsePoly, bound: int):
        self.body = body.truncate(bound) if body.degree() > bound else body
        self.bound = bound

    def __eq__(self, other):
        return (type(other) is TruncatedSeries
                and (self.body, self.bound) == (other.body, other.bound))

    def __hash__(self):
        return hash((self.body, self.bound))

    def substitute_into(self, assignment: dict) -> "TruncatedSeries":
        """Substitute polynomials for variables, re-truncating.

        Every image must have zero constant term, so the composite is a
        well-defined series."""
        for v, img in assignment.items():
            if img.constant_term() if isinstance(img, SparsePoly) else img:
                raise ValueError(f"image of {v} has a constant term")
        return TruncatedSeries(
            self.body.substitute(assignment, bound=self.bound), self.bound)


def series_reciprocal(p: SparsePoly, bound: int) -> SparsePoly:
    """Multiplicative inverse of p modulo degree > bound.

    Requires the degree-0 part to be a unit constant: +-1 over Integers
    and BetaRing, any nonzero rational otherwise."""
    if bound < 0:
        raise ValueError(f"negative bound {bound}")
    ring, p = p.ring, p.truncate(bound)
    c0 = p.constant_term()
    c = c0.coeff(())
    if c == 0 or c0 != c:
        raise ValueError("constant term is not a unit constant")
    if not ring.rational and c not in (1, -1):
        raise ValueError(f"{c} is not a unit over {ring.kind}")
    cinv = Fraction(1, c) if ring.rational else c  # c = +-1 otherwise
    # p = c(1 - r) with r of positive degree: invert via the geometric series
    one = SparsePoly.const(ring, 1)
    r = one - p * cinv
    acc = power = one
    for _ in range(bound):
        power = sum_of_products([(power, r)], ring, bound)
        if not power:
            break
        acc = acc + power
    return acc * cinv


def compositional_inverse(p: SparsePoly, bound: int) -> SparsePoly:
    """Compositional inverse of t + O(t^2) in t alone, modulo degree > bound.

    Lagrange inversion: with p = t (1 + M), the t^n coefficient of the
    inverse is (1/n) sum_j (-1)^j C(n-1+j, j) [t^(n-1)] M^j, so one chain
    of bounded powers M^j, j < bound, gives every coefficient.  The
    division by n is exact over Z and Z[b]; a remainder raises."""
    ring = p.ring
    if {v for v in p.variables() if not is_coefficient_var(v)} - {"t"}:
        raise ValueError("series involves variables besides t")
    if p.homogeneous_part(1) != SparsePoly.var(ring, "t"):
        raise ValueError("linear coefficient must be 1")
    if not p.constant_term().is_zero():
        raise ValueError("nonzero constant term")
    p = p.truncate(bound)
    t = _slot("t")[1]  # only t counts, so a key's degree is its power of t
    M = SparsePoly._new(ring, {m - t: c for m, c in p._terms.items() if m != t})
    # M^0 = 1 gives the t term, which is above a bound of 0
    acc, power, j = {}, SparsePoly.const(ring, 1 if bound > 0 else 0), 0
    while power:  # M^j starts in degree j, so M^bound is 0
        for m, c in power._terms.items():
            c *= (-1) ** j * comb((m & _FIELD) + j, j)
            acc[m + t] = acc.get(m + t, 0) + c
        power, j = sum_of_products([(power, M)], ring, bound - 1), j + 1
    for m, c in acc.items():
        q, r = divmod(c, m & _FIELD)
        if r and not ring.rational:
            raise DivisionError(f"{c} is not divisible by {m & _FIELD}")
        acc[m] = Fraction(c, m & _FIELD) if r else q
    return SparsePoly._new(ring, _clean(acc, ring.rational))
