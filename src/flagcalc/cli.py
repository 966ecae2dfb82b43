"""The flagcalc command's handlers and polynomial parser; its argparse
front end is flagcalc.__main__, so importing this module loads no argparse."""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

from . import families, hecke
from .divdiff import OperatorContext, braid_check
from .fgl import (
    chern_tensor_dual,
    make_additive,
    make_multiplicative,
    make_universal_rational,
)
from .flagring import FlagRingPresentation
from .perms import Permutation
from .porteous import RankTriple, thom_porteous
from .rings import (MAX_EXP, ExponentOverflowError, RingMismatchError,
                    SparsePoly, beta_ring, is_coefficient_var)

_TERM_SPLIT = r"(?=[+-])"  # these compile at first use, in re's cache
_WORD_SPLIT = r"\s*,\s*|\s+"
_FACTOR = r"([a-zA-Z]+\d*)(?:\^(\d+))?|(\d+(?:/\d+)?)"


class UsageError(ValueError):
    """A malformed command line or polynomial."""


def parse_poly(text: str, ring) -> SparsePoly:
    """Parse '2 x1^2 y1 - 3/2 b x2 + 1'-style expressions (no parentheses)."""
    text = text.replace("*", " ").strip()
    if not text:
        raise UsageError("empty polynomial")
    terms: dict = {}
    for chunk in re.split(_TERM_SPLIT, text):    # one sign at most, in front
        chunk = chunk.strip()
        if not chunk:
            continue
        c = -1 if chunk[0] == "-" else 1
        chunk = chunk.lstrip("+-").strip()
        exps, degree, pos = {}, 0, 0    # checked factor by factor, in order
        for m in re.finditer(_FACTOR, chunk):
            if chunk[pos:m.start()].strip():
                raise UsageError(f"cannot parse {chunk!r}")
            pos = m.end()
            if m.group(3):
                try:
                    f = Fraction(m.group(3))
                except ZeroDivisionError:
                    raise UsageError(
                        f"zero denominator in {chunk!r}") from None
                if f.denominator != 1 and not ring.rational:
                    raise ValueError(
                        f"non-integer coefficient {f} over {ring.kind}")
                c *= f
                continue
            v, e = m.group(1), int(m.group(2) or 1)
            if not ring.allows_generator(v):
                raise RingMismatchError(f"generator {v!r} not in {ring.kind}")
            if e > MAX_EXP:
                raise ExponentOverflowError(
                    f"{v}^{e}: exponent above {MAX_EXP}")
            if c:    # a zero term overflows no more
                exps[v] = exps.get(v, 0) + e
                degree += 0 if is_coefficient_var(v) else e
                if exps[v] > MAX_EXP or degree > MAX_EXP:
                    raise ExponentOverflowError(
                        f"an exponent exceeds {MAX_EXP}")
        if not pos or chunk[pos:].strip():
            raise UsageError(f"cannot parse {chunk!r}")
        mono = tuple(exps.items())
        terms[mono] = terms.get(mono, 0) + c
    return SparsePoly(ring, terms)


def emit(poly: SparsePoly, fmt: str):
    if fmt == "json":
        print(json.dumps(poly.to_json_obj(), sort_keys=True))
    else:
        print(poly.to_latex() if fmt == "latex" else poly.to_text())


def _make_law(law: str, trunc: int):
    """The law truncated at trunc.  The universal law has K = trunc log
    generators: m_k first appears in degree k + 1, so no more can show."""
    if law == "additive":
        return make_additive(trunc)
    if law == "multiplicative":
        ring = beta_ring()
        return make_multiplicative(SparsePoly.var(ring, "b"), trunc, ring)
    if law == "universal":
        return make_universal_rational(trunc, trunc)
    raise UsageError(f"unknown law {law!r}")


def _parse_word(text: str) -> tuple:
    """Indices separated by commas or spaces; none may be empty."""
    if not text.strip():
        return ()
    tokens = re.split(_WORD_SPLIT, text.strip())
    if "" in tokens:
        raise UsageError(f"empty index in word {text!r}")
    return tuple(map(int, tokens))


def family(args):
    """Compute a member of one of the named polynomial families."""
    w = Permutation.from_one_line(args.perm)
    build = {"beta": families.beta_poly, "schubert": families.double_schubert,
             "grothendieck": families.double_grothendieck}[args.theory]
    emit(build(w), args.format)


def bott_samelson(args):
    """Push-forward class for a word over a formal group law."""
    D = args.trunc or args.n * (args.n - 1) // 2 + 2
    fgl = _make_law(args.law, D)
    emit(families.bott_samelson_class(fgl, _parse_word(args.word), args.n),
         args.format)


def porteous(args):
    """Universal degeneracy-locus polynomial in Chern classes."""
    dp = thom_porteous(RankTriple(args.e, args.f, args.r), args.theory)
    if args.format == "json":
        slots = {"c": dp.slot_labels[0], "d": dp.slot_labels[1]}
        print(json.dumps({**dp.body.to_json_obj(), "slots": slots,
                          "theory": dp.theory}, sort_keys=True))
    else:
        emit(dp.body, args.format)


def verify(args):
    """Emit a pass/fail certificate for each algebra identity."""
    results = hecke.verify_identities(args.n)
    print(json.dumps(results, sort_keys=True))
    if not all(r["ok"] for r in results):
        sys.exit(3)


def braid(args):
    """Test the braid relation on sample polynomials; report a witness."""
    fgl = None if args.law == "beta" else _make_law(args.law, args.trunc)
    ring = beta_ring() if fgl is None else fgl.ring
    rng = random.Random(args.seed)
    samples = [SparsePoly(ring, {(("x1", 2), ("x2", 1)): 1})]
    for _ in range(5):
        terms: dict = {}
        for _ in range(4):
            c = rng.randint(-3, 3)
            mono = tuple((f"x{k}", rng.randint(0, 2))
                         for k in range(1, args.n + 1))
            terms[mono] = terms.get(mono, 0) + c
        samples.append(SparsePoly(ring, terms))
    report = braid_check(OperatorContext(args.n, fgl=fgl), args.i, samples,
                         "beta" if fgl is None else "fgl")
    out = {"holds": report["holds"]}
    if not report["holds"]:
        out["witness"] = report["witness"].to_text()
        out["input"] = report["input"].to_text()
    print(json.dumps(out, sort_keys=True))


def flagring_reduce(args):
    """Normal form modulo (e_i(x) - c_i)."""
    ring = beta_ring()
    pres = FlagRingPresentation.trivial(args.n, ring) if args.trivial \
        else FlagRingPresentation.symbolic(args.n, ring)
    p = parse_poly(args.input, ring)
    emit(pres.reduce(p), args.format)


def chern_tensor(args):
    """Chern polynomial and top Chern class of Hom(E, F) from roots."""
    fgl = _make_law(args.law, args.trunc)
    xs = [SparsePoly.var(fgl.ring, f"x{i}") for i in range(1, args.f + 1)]
    ys = [SparsePoly.var(fgl.ring, f"y{j}") for j in range(1, args.e + 1)]
    chern, top = chern_tensor_dual(fgl, xs, ys)
    if args.format == "json":
        print(json.dumps({"chern_polynomial": chern.to_json_obj(),
                          "top": top.to_json_obj()}, sort_keys=True))
    else:
        render = (SparsePoly.to_latex if args.format == "latex"
                  else SparsePoly.to_text)
        print(f"chern_polynomial: {render(chern)}\ntop: {render(top)}")
