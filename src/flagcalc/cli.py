"""Batch command-line front-end.

Exit codes: 2 for usage errors (click) and input the library rejects
(ValueError), 3 for violated mathematical contracts (exact-division or
symmetry failures), 1 for anything else.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction

import click

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
from .porteous import RankTriple, SymmetryError, thom_porteous
from .rings import DivisionError, SparsePoly, beta_ring

_POSITIVE = click.IntRange(min=1)
_RANK = click.IntRange(min=0)
_TERM_SPLIT = re.compile(r"(?=[+-])")
_WORD_SPLIT = re.compile(r"\s*,\s*|\s+")
_FACTOR = re.compile(r"([a-zA-Z]+\d*)(?:\^(\d+))?|(\d+(?:/\d+)?)")


def parse_poly(text: str, ring) -> SparsePoly:
    """Parse '2 x1^2 y1 - 3/2 b x2 + 1'-style expressions (no parentheses)."""
    text = text.replace("*", " ").strip()
    if not text:
        raise click.UsageError("empty polynomial")
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
                raise click.UsageError(f"cannot parse {chunk!r}")
            pos = m.end()
            matched = True
            if m.group(3):
                try:
                    c = Fraction(m.group(3))
                except ZeroDivisionError:
                    raise click.UsageError(
                        f"zero denominator in {chunk!r}") from None
                term = term * SparsePoly(ring, {(): c})
            else:
                term = term * SparsePoly.var(
                    ring, m.group(1), int(m.group(2) or 1))
        if not matched or chunk[pos:].strip():
            raise click.UsageError(f"cannot parse {chunk!r}")
        out = out + term
    return out


def emit(poly: SparsePoly, fmt: str):
    if fmt == "json":
        click.echo(json.dumps(poly.to_json_obj(), sort_keys=True))
    elif fmt == "latex":
        click.echo(poly.to_latex())
    else:
        click.echo(poly.to_text())


def _make_law(law: str, trunc: int, loggen: int):
    if law == "additive":
        return make_additive(trunc)
    if law == "multiplicative":
        ring = beta_ring()
        return make_multiplicative(SparsePoly.var(ring, "b"), trunc, ring)
    if law == "universal":
        return make_universal_rational(loggen, trunc)
    raise click.UsageError(f"unknown law {law!r}")


def _parse_word(text: str) -> tuple:
    """Indices separated by commas or spaces; none may be empty."""
    if not text.strip():
        return ()
    tokens = _WORD_SPLIT.split(text.strip())
    if "" in tokens:
        raise click.UsageError(f"empty index in word {text!r}")
    return tuple(map(int, tokens))


fmt_option = click.option("--format", "fmt",
                          type=click.Choice(["text", "json", "latex"]),
                          default="text", show_default=True)


@click.group()
def main():
    """Exact calculator for Schubert-type polynomial families."""


@main.command()
@click.option("--theory", type=click.Choice(["beta", "schubert", "grothendieck"]),
              default="beta", show_default=True)
@click.option("--perm", required=True, help='one-line notation, e.g. "3 1 2"')
@click.option("--n", type=int, default=None,
              help="ambient rank (defaults to the permutation size)")
@fmt_option
def family(theory, perm, n, fmt):
    """Compute a member of one of the named polynomial families."""
    w = Permutation.from_one_line(perm)
    if n is not None:
        w = w.embed(n)
    build = {"beta": families.beta_poly, "schubert": families.double_schubert,
             "grothendieck": families.double_grothendieck}[theory]
    emit(build(w), fmt)


@main.command("bott-samelson")
@click.option("--law", type=click.Choice(["additive", "multiplicative",
                                          "universal"]), default="universal",
              show_default=True)
@click.option("--word", default="", help='comma-separated indices, e.g. "1,2,1"')
@click.option("--n", type=_POSITIVE, required=True)
@click.option("--trunc", type=_POSITIVE, default=None,
              help="truncation bound D (default n(n-1)/2 + 2)")
@click.option("--loggen", type=_POSITIVE, default=None,
              help="number K of log generators (universal law)")
@fmt_option
def bott_samelson(law, word, n, trunc, loggen, fmt):
    """Push-forward class for a word over a formal group law."""
    D = trunc if trunc is not None else n * (n - 1) // 2 + 2
    K = loggen if loggen is not None else D
    fgl = _make_law(law, D, K)
    emit(families.bott_samelson_class(fgl, _parse_word(word), n), fmt)


@main.command()
@click.option("--e", type=int, required=True)
@click.option("--f", type=int, required=True)
@click.option("--r", type=int, required=True)
@click.option("--theory", type=click.Choice(["ck", "ch", "k0"]), default="ck",
              show_default=True)
@fmt_option
def porteous(e, f, r, theory, fmt):
    """Universal degeneracy-locus polynomial in Chern classes."""
    dp = thom_porteous(RankTriple(e, f, r), theory)
    if fmt == "json":
        obj = dp.body.to_json_obj()
        obj["slots"] = {"c": dp.slot_labels[0], "d": dp.slot_labels[1]}
        obj["theory"] = dp.theory
        click.echo(json.dumps(obj, sort_keys=True))
    else:
        emit(dp.body, fmt)


@main.group("hecke")
def hecke_group():
    """Operations in the degenerate Hecke algebra."""


@hecke_group.command()
@click.option("--n", type=_POSITIVE, default=3, show_default=True)
def verify(n):
    """Emit a pass/fail certificate for each algebra identity."""
    results = hecke.verify_identities(n)
    click.echo(json.dumps(results, sort_keys=True))
    if not all(r["ok"] for r in results):
        sys.exit(3)


@main.command()
@click.option("--law", type=click.Choice(["beta", "additive", "multiplicative",
                                          "universal"]), default="universal",
              show_default=True)
@click.option("--n", type=int, default=3, show_default=True)
@click.option("--i", type=int, default=1, show_default=True)
@click.option("--trunc", type=_POSITIVE, default=4, show_default=True)
@click.option("--loggen", type=_POSITIVE, default=None)
@click.option("--seed", type=int, default=0, show_default=True,
              help="seed for the randomised sample polynomials")
def braid(law, n, i, trunc, loggen, seed):
    """Test the braid relation on sample polynomials; report a witness."""
    K = loggen if loggen is not None else max(trunc, 1)
    if law == "beta":
        ctx = OperatorContext(n)
        mode = "beta"
        ring = beta_ring()
    else:
        fgl = _make_law(law, trunc, K)
        ctx = OperatorContext(n, fgl=fgl)
        mode = "fgl"
        ring = fgl.ring
    rng = random.Random(seed)
    samples = [SparsePoly.var(ring, "x1", 2) * SparsePoly.var(ring, "x2")]
    for _ in range(5):
        p = SparsePoly.zero(ring)
        for _ in range(4):
            term = SparsePoly(ring, {(): rng.randint(-3, 3)})
            for k in range(1, n + 1):
                term = term * SparsePoly.var(ring, f"x{k}", rng.randint(0, 2))
            p = p + term
        samples.append(p)
    report = braid_check(ctx, i, samples, mode)
    out = {"holds": report["holds"]}
    if not report["holds"]:
        out["witness"] = report["witness"].to_text()
        out["input"] = report["input"].to_text()
    click.echo(json.dumps(out, sort_keys=True))


@main.group("flagring")
def flagring_group():
    """The flag-bundle quotient ring."""


@flagring_group.command("reduce")
@click.option("--n", type=_POSITIVE, required=True)
@click.option("--trivial", is_flag=True,
              help="zero base Chern classes (trivial bundle)")
@click.option("--input", "input_", required=True, help="polynomial to reduce")
@fmt_option
def flagring_reduce(n, trivial, input_, fmt):
    """Normal form modulo (e_i(x) - c_i)."""
    ring = beta_ring()
    pres = FlagRingPresentation.trivial(n, ring) if trivial \
        else FlagRingPresentation.symbolic(n, ring)
    p = parse_poly(input_, ring)
    emit(pres.reduce(p), fmt)


@main.command("chern-tensor")
@click.option("--law", type=click.Choice(["additive", "multiplicative",
                                          "universal"]), default="multiplicative",
              show_default=True)
@click.option("--e", type=_RANK, required=True, help="rank of E (y-roots)")
@click.option("--f", type=_RANK, required=True, help="rank of F (x-roots)")
@click.option("--trunc", type=_POSITIVE, default=4, show_default=True)
@click.option("--loggen", type=_POSITIVE, default=None)
@fmt_option
def chern_tensor(law, e, f, trunc, loggen, fmt):
    """Chern polynomial and top Chern class of Hom(E, F) from roots."""
    K = loggen if loggen is not None else trunc
    fgl = _make_law(law, trunc, K)
    xs = [SparsePoly.var(fgl.ring, f"x{i}") for i in range(1, f + 1)]
    ys = [SparsePoly.var(fgl.ring, f"y{j}") for j in range(1, e + 1)]
    chern, top = chern_tensor_dual(fgl, xs, ys)
    if fmt == "json":
        click.echo(json.dumps({"chern_polynomial": chern.to_json_obj(),
                               "top": top.to_json_obj()}, sort_keys=True))
    else:
        click.echo("chern_polynomial: " + (chern.to_latex() if fmt == "latex"
                                           else chern.to_text()))
        click.echo("top: " + (top.to_latex() if fmt == "latex"
                              else top.to_text()))


def run():  # pragma: no cover
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(exc.format_message(), err=True)
        sys.exit(2)
    except (DivisionError, SymmetryError) as exc:
        click.echo(f"contract violation: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        # out-of-range permutations, indices, rank triples and rings
        click.echo(f"invalid input: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":  # pragma: no cover
    run()
