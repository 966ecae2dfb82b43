"""The factor-by-factor parse_poly that flagcalc.cli replaced with a
one-pass parse, kept as the slow reference the differential test in
test_cli.py holds the one-pass parse to.

Each factor of a term is built as its own SparsePoly and multiplied in,
in text order, and the terms are added one at a time, so every check of
a factor (a number over Z or Z[b], a zero denominator, a generator the
ring lacks, an exponent or a product above MAX_EXP) fires where the
factor stands in the text.
"""

from __future__ import annotations

import re
from fractions import Fraction

from flagcalc.cli import UsageError
from flagcalc.rings import SparsePoly

_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"([a-zA-Z]+\d*)(?:\^(\d+))?|(\d+(?:/\d+)?)")


def parse_poly(text: str, ring) -> SparsePoly:
    text = text.replace("*", " ").strip()
    if not text:
        raise UsageError("empty polynomial")
    out = SparsePoly.zero(ring)
    for chunk in _TERM_SPLIT.split(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        term = SparsePoly.const(ring, sign)
        pos = 0
        matched = False
        for m in _FACTOR.finditer(chunk):
            if chunk[pos:m.start()].strip():
                raise UsageError(f"cannot parse {chunk!r}")
            pos = m.end()
            matched = True
            if m.group(3):
                try:
                    c = Fraction(m.group(3))
                except ZeroDivisionError:
                    raise UsageError(
                        f"zero denominator in {chunk!r}") from None
                term = term * SparsePoly(ring, {(): c})
            else:
                term = term * SparsePoly.var(
                    ring, m.group(1), int(m.group(2) or 1))
        if not matched or chunk[pos:].strip():
            raise UsageError(f"cannot parse {chunk!r}")
        out = out + term
    return out
