import json
import sys

import pytest

from conftest import invoke
from flagcalc.cli import UsageError, main, parse_poly
from flagcalc.families import double_grothendieck, double_schubert
from flagcalc.perms import Permutation
from flagcalc.rings import QQ, SparsePoly, beta_ring


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
                     "--perm", "2 1", "--n", "3")
        assert res.output.strip() == \
            double_schubert(Permutation((2, 1, 3))).to_text()

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_fixed_tail_does_not_change_the_output(self, capsys, fmt):
        small = invoke(capsys, "family", "--perm", "2 1", "--format", fmt)
        big = invoke(capsys, "family", "--perm", "2 1", "--n", "9",
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
        ("family", "--perm", "2 1", "--n", "abc"),
    ], ids=["repeated-image", "empty-perm", "rank-above-min", "word-index",
            "word-empty-index", "word-trailing-comma",
            "braid-n2", "zero-denominator", "flagring-n0", "hecke-n0",
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


class TestHelp:
    # each command's options, in the order its --help lists them
    OPTIONS = {
        (): [],
        ("family",): ["--theory", "--perm", "--n", "--format"],
        ("bott-samelson",): ["--law", "--word", "--n", "--trunc", "--loggen",
                             "--format"],
        ("porteous",): ["--e", "--f", "--r", "--theory", "--format"],
        ("hecke",): [],
        ("hecke", "verify"): ["--n"],
        ("braid",): ["--law", "--n", "--i", "--trunc", "--loggen", "--seed"],
        ("flagring",): [],
        ("flagring", "reduce"): ["--n", "--trivial", "--input", "--format"],
        ("chern-tensor",): ["--law", "--e", "--f", "--trunc", "--loggen",
                            "--format"],
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
