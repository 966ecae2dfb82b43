import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import parse_reference
from conftest import invoke
import flagcalc
from flagcalc.__main__ import _parser, main
from flagcalc.cli import UsageError, parse_poly
from flagcalc.families import double_grothendieck, double_schubert
from flagcalc.fgl import make_universal_rational
from flagcalc.perms import Permutation
from flagcalc.rings import QQ, ZZ, SparsePoly, beta_ring, lazard_rational


class TestParsePoly:
    def test_basic(self):
        ring = beta_ring()
        got = parse_poly("2 x1^2 y1 - b x2 + 1", ring)
        x1 = SparsePoly.var(ring, "x1")
        want = (2 * x1 ** 2 * SparsePoly.var(ring, "y1")
                - SparsePoly.var(ring, "b") * SparsePoly.var(ring, "x2")
                + SparsePoly.const(ring, 1))
        assert got == want

    def test_fractions(self):
        got = parse_poly("3/2 x1", QQ)
        assert got.to_text() == "3/2 x1"

    def test_stars_allowed(self):
        ring = beta_ring()
        assert parse_poly("2*x1*x2", ring) == parse_poly("2 x1 x2", ring)

    def test_garbage_rejected(self):
        with pytest.raises(UsageError):
            parse_poly("x1 + (x2)", beta_ring())


def _outcome(parse, text, ring):
    """The polynomial parse reads from text, or its error's class and
    message."""
    try:
        return parse(text, ring)
    except ValueError as exc:
        return type(exc), str(exc)


# the rings of the differential test, each with its generators
PARSE_RINGS = {"ZZ": (ZZ, []), "QQ": (QQ, []), "Zb": (beta_ring(), ["b"]),
               "Qm": (lazard_rational(3), ["m1", "m2", "m3"])}
NUMBERS = ["0", "1", "2", "3", "12", "3/2", "4/2", "0/3", "1/3", "1/0"]
EXPONENTS = ["", "", "", "^0", "^1", "^2", "^3", "^20000", "^32767",
             "^40000"]


def _random_text(rng: random.Random, generators: list) -> str:
    """Up to five terms of one to four factors: signs, numbers anywhere in
    a term, fractions, repeated variables and repeated or cancelling
    terms, and now and then a foreign generator, a huge exponent or a
    stray character."""
    names = ["x1", "x2", "x3", "y1", "t"] + generators
    terms = []
    for _ in range(rng.randint(1, 5)):
        if terms and rng.random() < 0.3:
            factors = rng.choice(terms)[:]
            rng.shuffle(factors)
        else:
            factors = []
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.25:
                    factors.append(rng.choice(NUMBERS))
                elif rng.random() < 0.03:
                    factors.append(rng.choice(["b", "m1", "m4"]))
                else:
                    big = rng.random() < 0.08
                    factors.append(rng.choice(names) + rng.choice(
                        EXPONENTS[7:] if big else EXPONENTS[:7]))
        terms.append(factors)
    text = rng.choice(["", "-", "+", "- "])
    for k, factors in enumerate(terms):
        if k:
            text += rng.choice([" + ", " - ", "+", "-", " -"])
        text += rng.choice([" ", "*", " * "]).join(factors)
    if rng.random() < 0.05:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(["(", ")", "^", "/", "+ -"]) + text[at:]
    return text


class TestParsePolyDifferential:
    """parse_poly against the factor-by-factor parse it replaced: equal
    polynomials for the texts that parse accepts, the same error class
    and message for the rest."""

    @pytest.mark.parametrize("name", list(PARSE_RINGS))
    def test_random_texts(self, name):
        ring, generators = PARSE_RINGS[name]
        rng = random.Random(name)
        accepted = 0
        for _ in range(450):
            text = _random_text(rng, generators)
            want = _outcome(parse_reference.parse_poly, text, ring)
            assert _outcome(parse_poly, text, ring) == want, text
            accepted += isinstance(want, SparsePoly)
        assert accepted >= 150

    @pytest.mark.parametrize("text", [
        "3/2 2 x1", "1/0 x1", "m1", "x1^40000", "x1^20000 x1^20000",
        "x1^20000 y1^20000", "(x1)", "x1 +", "", "--x1", "x1 m1 3/2",
        "3/2 m1", "x1^20000 x1^20000 m1"])
    @pytest.mark.parametrize("name", ["ZZ", "Zb"])
    def test_bad_texts(self, name, text):
        ring = PARSE_RINGS[name][0]
        want = _outcome(parse_reference.parse_poly, text, ring)
        assert not isinstance(want, SparsePoly)
        assert _outcome(parse_poly, text, ring) == want

    @pytest.mark.parametrize("text", [
        "0 x1^20000 x1^20000", "x1^20000 0 x1^20000", "3/2 2 x1",
        "x1 x2 - x2 x1 + 1", "x1^0 b^0"])
    def test_edge_texts(self, text):
        ring = beta_ring() if "b" in text else QQ
        want = _outcome(parse_reference.parse_poly, text, ring)
        assert _outcome(parse_poly, text, ring) == want


class TestFamilyCommand:
    def test_schubert_simple(self, capsys):
        res = invoke(capsys, "family", "--theory", "schubert",
                     "--perm", "2 1")
        assert res.exit_code == 0
        assert res.output.strip() == "x1 - y1"

    def test_beta_identity(self, capsys):
        res = invoke(capsys, "family", "--perm", "1 2")
        assert res.output.strip() == "1"

    def test_matches_library(self, capsys):
        res = invoke(capsys, "family", "--theory", "grothendieck",
                     "--perm", "3 2 1")
        assert res.output.strip() == \
            double_grothendieck(Permutation((3, 2, 1))).to_text()

    def test_embedding_flag(self, capsys):
        res = invoke(capsys, "family", "--theory", "schubert",
                     "--perm", "2 1 3")
        assert res.output.strip() == \
            double_schubert(Permutation((2, 1, 3))).to_text()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_fixed_tail_does_not_change_the_output(self, capsys, fmt):
        small = invoke(capsys, "family", "--perm", "2 1", "--format", fmt)
        big = invoke(capsys, "family", "--perm", "2 1 3 4 5 6 7 8 9",
                     "--format", fmt)
        assert big == small and small.exit_code == 0

    def test_json_output(self, capsys):
        res = invoke(capsys, "family", "--perm", "2 1", "--format", "json")
        obj = json.loads(res.output)
        assert "terms" in obj and "vars" in obj


class TestPorteousCommand:
    def test_ch_line_bundles(self, capsys):
        res = invoke(capsys, "porteous", "--e", "1", "--f", "1", "--r", "0",
                     "--theory", "ch")
        assert res.output.strip() == "c1 - d1"

    def test_json_carries_slots(self, capsys):
        res = invoke(capsys, "porteous", "--e", "1", "--f", "1", "--r", "0",
                     "--theory", "ck", "--format", "json")
        obj = json.loads(res.output)
        assert obj["theory"] == "CK"
        assert obj["slots"]["d"] == "c_j(Edual)"

    def test_json_ch_slot_label(self, capsys):
        res = invoke(capsys, "porteous", "--e", "2", "--f", "1", "--r", "0",
                     "--theory", "ch", "--format", "json")
        assert json.loads(res.output)["slots"]["d"] == "-c_j(Edual)"


class TestHeckeCommand:
    def test_verify_passes(self, capsys):
        res = invoke(capsys, "hecke", "verify", "--n", "2")
        assert res.exit_code == 0
        results = json.loads(res.output)
        assert results and all(r["ok"] for r in results)


class TestBraidCommand:
    def test_beta_mode_holds(self, capsys):
        res = invoke(capsys, "braid", "--law", "beta", "--n", "3")
        assert json.loads(res.output) == {"holds": True}

    def test_universal_counterexample(self, capsys):
        res = invoke(capsys, "braid", "--law", "universal", "--n", "3",
                     "--trunc", "4")
        obj = json.loads(res.output)
        assert obj["holds"] is False
        assert obj["witness"]
        assert obj["input"]

    def test_multiplicative_holds(self, capsys):
        res = invoke(capsys, "braid", "--law", "multiplicative", "--n", "3",
                     "--trunc", "5")
        assert json.loads(res.output)["holds"] is True


class TestFlagringCommand:
    def test_trivial_reduce(self, capsys):
        res = invoke(capsys, "flagring", "reduce", "--n", "2", "--trivial",
                     "--input", "x2")
        want = (-SparsePoly.var(beta_ring(), "x1")).to_text()
        assert res.output.strip() == want

    def test_symbolic_elementary(self, capsys):
        res = invoke(capsys, "flagring", "reduce", "--n", "2",
                     "--input", "x1 x2")
        assert res.output.strip() == "c2"

    def test_leading_minus_input_after_equals(self, capsys):
        res = invoke(capsys, "flagring", "reduce", "--n", "2",
                     "--input=-x1")
        assert (res.exit_code, res.output.strip()) == (0, "-x1")


class TestChernTensorCommand:
    def test_line_bundles(self, capsys):
        res = invoke(capsys, "chern-tensor", "--law", "additive",
                     "--e", "1", "--f", "1")
        lines = res.output.strip().splitlines()
        assert lines[0].startswith("chern_polynomial: ")
        assert lines[1] == "top: x1 - y1"


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("family", "--perm", "3 1 2", "--format", "json"),
        ("braid", "--law", "universal", "--n", "3", "--trunc", "4",
         "--seed", "7"),
        ("porteous", "--e", "2", "--f", "2", "--r", "1", "--format", "json"),
    ], ids=["family", "braid", "porteous"])
    def test_repeated_runs_identical(self, capsys, args):
        first = invoke(capsys, *args)
        second = invoke(capsys, *args)
        assert first.output == second.output
        assert first.exit_code == second.exit_code == 0


class TestErrors:
    def test_bad_perm_is_usage_error(self, capsys):
        res = invoke(capsys, "family", "--perm", "1 1")
        assert res.exit_code != 0

    def test_bad_poly_is_usage_error(self, capsys):
        res = invoke(capsys, "flagring", "reduce", "--n", "2",
                     "--input", "(x1)")
        assert res.exit_code == 2

    @pytest.mark.parametrize("args", [
        ("family", "--perm", "1 1"),
        ("family", "--perm", ""),
        ("porteous", "--e", "1", "--f", "1", "--r", "5"),
        ("bott-samelson", "--word", "5", "--n", "3"),
        ("bott-samelson", "--word", "1,,2", "--n", "3"),
        ("bott-samelson", "--word", "1,2,", "--n", "3"),
        ("braid", "--n", "2"),
        ("braid", "--n", "3", "--i", "2"),
        ("braid", "--n", "3", "--i", "-1"),
        ("flagring", "reduce", "--n", "2", "--input", "1/0 x1"),
        ("flagring", "reduce", "--n", "0", "--input", "x1"),
        ("hecke", "verify", "--n", "0"),
        ("flagring", "reduce", "--n", "2", "--input", "x1^99999999999"),
        ("flagring", "reduce", "--n", "2", "--input", "x1^1501"),
        ("bott-samelson", "--n", "0"),
        ("bott-samelson", "--n", "-2"),
        ("bott-samelson", "--law", "additive", "--n", "3", "--trunc", "0"),
        ("bott-samelson", "--law", "additive", "--n", "3", "--trunc", "-1"),
        ("chern-tensor", "--e", "-1", "--f", "2"),
        ("family", "--theory", "kostant", "--perm", "2 1"),
        ("family", "--perm", "2 1", "--format", "xml"),
        ("family",),
        ("schubert", "--perm", "2 1"),
        ("bott-samelson", "--n", "abc"),
    ], ids=["repeated-image", "empty-perm", "rank-above-min", "word-index",
            "word-empty-index", "word-trailing-comma",
            "braid-n2", "braid-i-past-n", "braid-i-negative",
            "zero-denominator", "flagring-n0", "hecke-n0",
            "exponent-limit", "x-degree-bound", "bott-samelson-n0",
            "bott-samelson-n-negative", "bott-samelson-trunc0",
            "bott-samelson-trunc-negative", "chern-tensor-e-negative",
            "unknown-theory", "unknown-format", "family-no-perm",
            "unknown-command", "n-not-an-integer"])
    def test_bad_input_exits_2(self, args, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["flagcalc", *args])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_rank_error_prints_the_triple(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["porteous", "--e", "2", "--f", "2", "--r", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "invalid input: need 0 <= r <= min(e, f), "
            "got RankTriple(e=2, f=2, r=3)\n")

    @pytest.mark.parametrize("i", ["2", "-1"])
    def test_braid_index_error_names_the_given_i(self, capsys, i):
        with pytest.raises(SystemExit) as exc:
            main(["braid", "--n", "3", "--i", i])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"invalid input: braid index {i} out of range for n=3\n")

    @pytest.mark.parametrize("args", [
        ("porteous", "--e", "4", "--f", "4", "--r", "0", "--format", "json"),
        ("flagring", "reduce", "--n", "3", "--input", "x1^4+b*x2^3",
         "--format", "json"),
    ], ids=["large-output", "small-output"])
    def test_closed_pipe_exits_1_quietly(self, args):
        """stdout is a pipe whose read end is closed before the command
        starts, so the first write fails whatever the timing: inside
        print for the 125 kB body, at the final flush for the 651-byte
        reduction.  The command exits 1 and writes nothing to stderr."""
        path = os.pathsep.join(filter(None, [
            str(Path(flagcalc.__file__).parents[1]),
            os.environ.get("PYTHONPATH")]))
        read, write = os.pipe()
        os.close(read)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "flagcalc", *args], stdout=write,
                stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path})
        finally:
            os.close(write)
        assert (res.returncode, res.stderr) == (1, b"")


class TestHelp:
    # each command's options, in the order its --help lists them
    OPTIONS = {
        (): [],
        ("family",): ["--theory", "--perm", "--format"],
        ("bott-samelson",): ["--law", "--word", "--n", "--trunc", "--format"],
        ("porteous",): ["--e", "--f", "--r", "--theory", "--format"],
        ("hecke",): [],
        ("hecke", "verify"): ["--n"],
        ("braid",): ["--law", "--n", "--i", "--trunc", "--seed"],
        ("flagring",): [],
        ("flagring", "reduce"): ["--n", "--trivial", "--input", "--format"],
        ("chern-tensor",): ["--law", "--e", "--f", "--trunc", "--format"],
    }

    @pytest.mark.parametrize("command", list(OPTIONS),
                             ids=lambda c: " ".join(c) or "top")
    def test_help_names_every_option(self, capsys, command):
        res = invoke(capsys, *command, "--help")
        assert res.exit_code == 0
        words = res.output.replace("[", " ").replace("]", " ").split()
        for option in self.OPTIONS[command]:
            assert option in words
        # the top level and each group name their commands
        subcommands = {c[len(command)] for c in self.OPTIONS
                       if len(c) == len(command) + 1 and c[:-1] == command}
        assert all(name in words for name in subcommands)


def _options(parser, command=()):
    """(command, option) for every option of every command of parser."""
    for action in parser._actions:
        if action.choices and hasattr(action, "add_parser"):
            for name, sub in action.choices.items():
                yield from _options(sub, command + (name,))
        elif action.option_strings and action.dest != "help":
            yield command, action.option_strings[0]


class TestEveryOptionChangesAnOutput:
    """An option that no value of changes the output is a knob to drop.
    Each entry is two command lines that differ only in that option."""

    BS = ("bott-samelson", "--word", "1", "--n", "2")
    BRAID = ("braid", "--law", "multiplicative", "--trunc", "3")
    FLAG = ("flagring", "reduce", "--n", "2", "--input", "x1^2 + x2")
    CT = ("chern-tensor", "--e", "1", "--f", "1")
    PAIRS = {
        ("family", "--theory"): (("family", "--perm", "2 1"),
                                 ("--theory", "schubert")),
        ("family", "--perm"): (("family", "--perm", "2 1"),
                               ("--perm", "3 1 2")),
        ("family", "--format"): (("family", "--perm", "2 1"),
                                 ("--format", "json")),
        ("bott-samelson", "--law"): (BS, ("--law", "additive")),
        ("bott-samelson", "--word"): (BS, ("--word", "")),
        ("bott-samelson", "--n"): (BS, ("--n", "3")),
        ("bott-samelson", "--trunc"): (BS, ("--trunc", "2")),
        ("bott-samelson", "--format"): (BS, ("--format", "latex")),
        ("porteous", "--e"): (("porteous", "--e", "1", "--f", "1", "--r",
                               "0"), ("--e", "2")),
        ("porteous", "--f"): (("porteous", "--e", "1", "--f", "1", "--r",
                               "0"), ("--f", "2")),
        ("porteous", "--r"): (("porteous", "--e", "2", "--f", "2", "--r",
                               "0"), ("--r", "1")),
        ("porteous", "--theory"): (("porteous", "--e", "1", "--f", "1",
                                    "--r", "0"), ("--theory", "k0")),
        ("porteous", "--format"): (("porteous", "--e", "1", "--f", "1",
                                    "--r", "0"), ("--format", "json")),
        ("hecke verify", "--n"): (("hecke", "verify", "--n", "2"),
                                  ("--n", "3")),
        ("braid", "--law"): (BRAID, ("--law", "universal")),
        ("braid", "--n"): (BRAID, ("--n", "4")),
        ("braid", "--i"): (BRAID + ("--n", "4"), ("--i", "2")),
        ("braid", "--trunc"): (BRAID, ("--trunc", "4")),
        ("braid", "--seed"): (BRAID, ("--seed", "1")),
        ("flagring reduce", "--n"): (FLAG, ("--n", "3")),
        ("flagring reduce", "--trivial"): (FLAG, ("--trivial",)),
        ("flagring reduce", "--input"): (FLAG, ("--input", "x1 x2")),
        ("flagring reduce", "--format"): (FLAG, ("--format", "json")),
        ("chern-tensor", "--law"): (CT, ("--law", "additive")),
        ("chern-tensor", "--e"): (CT, ("--e", "2")),
        ("chern-tensor", "--f"): (CT, ("--f", "2")),
        ("chern-tensor", "--trunc"): (CT, ("--trunc", "2")),
        ("chern-tensor", "--format"): (CT, ("--format", "json")),
    }

    def test_every_option_has_an_entry(self):
        options = {(" ".join(c), o) for c, o in _options(_parser())}
        assert options == set(self.PAIRS)

    @pytest.mark.parametrize("key", list(PAIRS), ids=" ".join)
    def test_option_changes_stdout(self, capsys, key):
        base, change = self.PAIRS[key]
        # the option's last occurrence wins, so the lines differ in it alone
        first = invoke(capsys, *base)
        second = invoke(capsys, *base, *change)
        assert first.exit_code == second.exit_code == 0
        assert first.output != second.output


class TestUniversalLawGenerators:
    """m_k first appears in degree k + 1, so the universal law truncated
    at D reads the same with any K >= D log generators: the command line
    builds it with K = D."""

    @pytest.mark.parametrize("D", range(2, 7))
    def test_extra_generators_change_nothing(self, D):
        def text(K):
            law = make_universal_rational(K, D)
            return law.F.body.to_text(), law.chi.body.to_text()
        assert text(D) == text(D + 1) == text(D + 3)
