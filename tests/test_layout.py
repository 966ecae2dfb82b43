"""The packed-monomial layout is private to flagcalc.rings: no other
module of the package may name its helpers or a polynomial's packed
terms, nor the column decoder and sort keys that printing uses.  Other
modules use SparsePoly.split, SparsePoly.monomial, sum_of_products,
divided_difference and divide_monic instead.

Every callable that ``bench/trace_layers.py`` wraps still exists where
``Tracer.install`` looks it up, so a rename cannot silently drop a layer
from ``bench/run.py --trace 1``.

The permutation constructor that skips validation is called only where
the images are a permutation by construction: in perms, families and
hecke, never in the command line or on parsed input.

Importing the command's handlers and parser (flagcalc.cli) loads the
standard library alone and neither argparse, which only the front end
(flagcalc.__main__) loads, nor array; the package compiles no pattern
and builds no namedtuple class while it is imported: every benchmark
set-up and every script that uses the library starts a fresh interpreter.

A ``TruncatedSeries`` is built only in rings and in
``FormalGroupLaw.__init__``: the law holds its F and chi as series, and
every other caller passes a polynomial and a bound.

Modules import only at their top and only downward: no function body
imports, and families, which h_top and beta_poly live in, imports
nothing from hecke, the oracle that checks them.

A module reaches its memo through ``TermMemo.value`` or
``TermMemo.resume`` alone: outside memo.py no code calls ``get`` or
``put`` on a ``*_MEMO``."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flagcalc

PACKAGE = Path(flagcalc.__file__).parent
# the helpers by whole name, so a local such as c_slots is not a leak
PRIVATE = re.compile(r"\b(_FIELD|_slot|_clean|_check_guard|_encode|_fields"
                     r"|_columns|_keys|_KEY_UP|_KEY_DOWN|_DROP_KEYS)\b"
                     r"|\._terms|\._new\(")
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "rings.py")


def test_every_module_is_checked():
    assert "flagring.py" in MODULES and "divdiff.py" in MODULES


@pytest.mark.parametrize("line, leaks", [
    ("si, ui = rings._slot(v)", True),
    ("key = _encode(mono)", True),
    ("return p._terms", True),
    ("names, cols, tops = rings._columns(keys)", True),
    ("table = _keys(_KEY_DOWN, t, col)", True),
    ("text.translate(_DROP_KEYS)", True),
    ("c_slots = []", False),
    ("json.dumps(obj, sort_keys=True)", False),
    ("def encode_word(w):", False),
])
def test_private_pattern(line, leaks):
    assert bool(PRIVATE.search(line)) is leaks


@pytest.mark.parametrize("module", MODULES)
def test_packed_layout_stays_in_rings(module):
    lines = (PACKAGE / module).read_text().splitlines()
    leaks = [f"{module}:{k}: {line.strip()}"
             for k, line in enumerate(lines, start=1) if PRIVATE.search(line)]
    assert not leaks, "\n".join(leaks)


# the permutation constructor that skips the check, by whole name: it may
# build only images that are a permutation by construction, so it stays in
# the modules that make such images and out of the CLI and every parser
TRUSTED = re.compile(r"\b_trusted\b")
TRUSTED_IN = {"perms.py", "families.py", "hecke.py"}


def _trusted_calls(module: str, text: str) -> list:
    return [f"{module}:{k}: {line.strip()}"
            for k, line in enumerate(text.splitlines(), start=1)
            if TRUSTED.search(line)]


@pytest.mark.parametrize("line, trusted", [
    ("return Permutation._trusted(tuple(im))", True),
    ("w = perms.Permutation._trusted(images)", True),
    ("return self._trusted(tuple(inv))", True),
    ("make = getattr(Permutation, '_trusted')", True),
    ("return Permutation(images)", False),
    ("untrusted = Permutation.from_one_line(text)", False),
])
def test_trusted_pattern(line, trusted):
    assert bool(TRUSTED.search(line)) is trusted


def test_trusted_guard_flags_a_planted_call():
    planted = ("def parse_perm(text):\n"
               "    images = tuple(map(int, text.split()))\n"
               "    return Permutation._trusted(images)\n")
    assert _trusted_calls("cli.py", planted) == [
        "cli.py:3: return Permutation._trusted(images)"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_trusted_permutations_stay_internal(module):
    calls = _trusted_calls(module, (PACKAGE / module).read_text())
    assert bool(calls) is (module in TRUSTED_IN), "\n".join(calls)


def test_parsed_permutations_are_checked():
    text = (PACKAGE / "perms.py").read_text()
    parse = next(node for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "from_one_line")
    body = ast.get_source_segment(text, parse)
    assert "return Permutation(images)" in body
    assert not TRUSTED.search(body)


SERIES = re.compile(r"\bTruncatedSeries\(")


def _series_builds(module: str, text: str) -> list:
    """The lines that build a series outside FormalGroupLaw.__init__."""
    allowed = {k for cls in ast.walk(ast.parse(text))
               if isinstance(cls, ast.ClassDef)
               and cls.name == "FormalGroupLaw"
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
               for k in range(fn.lineno, fn.end_lineno + 1)}
    return [f"{module}:{k}: {line.strip()}"
            for k, line in enumerate(text.splitlines(), start=1)
            if SERIES.search(line) and k not in allowed]


def test_series_guard_flags_a_planted_build():
    planted = ("class FormalGroupLaw:\n"
               "    def __init__(self, F, chi, D):\n"
               "        self.F = TruncatedSeries(F, D)\n"
               "def make_additive(D):\n"
               "    return rings.TruncatedSeries(u + v, D)\n")
    assert _series_builds("fgl.py", planted) == [
        "fgl.py:5: return rings.TruncatedSeries(u + v, D)"]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_law_builds_a_series(module):
    text = (PACKAGE / module).read_text()
    builds = _series_builds(module, text)
    assert not builds, "\n".join(builds)
    assert bool(SERIES.search(text)) is (module == "fgl.py")


# the memo protocol lives in memo.py: a get or put on a module memo
# elsewhere is a hand-written copy of TermMemo.value or TermMemo.resume
def _name(node) -> str:
    """The name of a name node, the last part of an attribute, else ''."""
    return getattr(node, "id", getattr(node, "attr", ""))


def _memo_accesses(module: str, text: str) -> list:
    """The lines that call .get or .put on a name or attribute ending in
    _MEMO, each once."""
    found = {node.lineno for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("get", "put")
             and _name(node.func.value).endswith("_MEMO")}
    lines = text.splitlines()
    return [f"{module}:{k}: {lines[k - 1].strip()}" for k in sorted(found)]


def test_memo_guard_flags_planted_accesses():
    planted = ("def thom_porteous(t):\n"
               "    _CK_MEMO.put(t, body)\n"
               "    q = _ELEMENTARY_MEMO.get(key)\n"
               "    porteous._CK_MEMO.put(k, p)\n"
               "    [_BS_MEMO.put(key, p) for key in keys]\n"
               "    for key in keys:\n"
               "        cache.put(key, p)\n"
               "        cache.get(key)\n"
               "    return _PARTITION_MEMO.value(key, build)\n")
    assert _memo_accesses("porteous.py", planted) == [
        "porteous.py:2: _CK_MEMO.put(t, body)",
        "porteous.py:3: q = _ELEMENTARY_MEMO.get(key)",
        "porteous.py:4: porteous._CK_MEMO.put(k, p)",
        "porteous.py:5: [_BS_MEMO.put(key, p) for key in keys]"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py") if p.name != "memo.py"))
def test_memos_are_reached_through_value_and_resume(module):
    found = _memo_accesses(module, (PACKAGE / module).read_text())
    assert not found, "\n".join(found)


def _trace_layers():
    path = Path(__file__).parents[1] / "bench" / "trace_layers.py"
    spec = importlib.util.spec_from_file_location("trace_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = [(short, target)
          for short, targets in _trace_layers().LAYERS.values()
          for target in targets]


@pytest.mark.parametrize("short, target", TRACED,
                         ids=[f"{s}.{t}" for s, t in TRACED])
def test_traced_target_resolves(short, target):
    # as Tracer.install looks it up: a method in its class __dict__,
    # anything else as a module attribute
    module = importlib.import_module(f"flagcalc.{short}")
    if "." in target:
        cls_name, attr = target.split(".")
        assert attr in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, target, None))


def _fresh(code: str) -> str:
    """What code prints in a fresh interpreter that imports the package
    from where the tests found it."""
    path = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": path}).stdout


def _modules_added_by(module: str) -> set:
    """The modules that importing module adds in a fresh interpreter, so
    those the interpreter's site hook already loaded (such as typing) are
    not counted."""
    return set(_fresh(
        "import sys; before = set(sys.modules); "
        f"import {module}; print(*sorted(set(sys.modules) - before))").split())


def test_cli_import_loads_no_click_or_dataclasses():
    added = _modules_added_by("flagcalc.cli")
    assert "flagcalc.cli" in added
    assert not added & {"click", "dataclasses", "inspect", "argparse",
                        "gettext", "array"}


# prints "<phase> <function> <calling module>" for each call to the two
# builders: the first module on the stack outside re and collections
SPY = """
import collections, re, sys
phase = "import"
def spy(name, fn):
    def wrapped(*args, **kwargs):
        f = sys._getframe(1)
        while f.f_globals.get("__name__", "").split(".")[0] in (
                "re", "collections"):
            f = f.f_back
        print(phase, name, f.f_globals.get("__name__"))
        return fn(*args, **kwargs)
    return wrapped
re._compile = spy("re._compile", re._compile)
collections.namedtuple = spy("namedtuple", collections.namedtuple)
import flagcalc.cli
phase = "parse"
flagcalc.cli.parse_poly("x1 - 2 y1^2", flagcalc.rings.ZZ)
"""


def _builder_calls() -> list:
    """(phase, function, calling module) for each call that importing
    flagcalc.cli, then parsing one polynomial, makes to re._compile or
    collections.namedtuple in a fresh interpreter."""
    return [tuple(line.split()) for line in _fresh(SPY).splitlines()]


def test_cli_import_compiles_no_pattern_and_builds_no_namedtuple():
    # a pattern compiles, and a namedtuple class is built, at its first use
    # or never: the standard library's own calls (json's patterns) may stay
    calls = _builder_calls()
    assert [c for c in calls
            if c[0] == "import" and c[2].startswith("flagcalc")] == []
    # the spy sees the package's calls: parsing compiles the parser's
    # patterns, so the import's clean record is no artefact of the spy
    assert ("parse", "re._compile", "flagcalc.cli") in calls


def test_the_front_end_loads_argparse():
    # so that flagcalc.cli's import leaving argparse out is no artefact of
    # the site hook having loaded it already
    assert {"flagcalc.__main__", "argparse"} <= _modules_added_by(
        "flagcalc.__main__")


def test_no_file_imports_click():
    root = Path(__file__).parents[1]
    imports = re.compile(r"^\s*(from|import)\s+click\b", re.MULTILINE)
    files = [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]
    assert len(files) > 20
    assert [f.name for f in files if imports.search(f.read_text())] == []


def _local_imports(module: str, text: str) -> list:
    """The import statements inside a function body, each once."""
    found = {node for fn in ast.walk(ast.parse(text))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))}
    return [f"{module}:{node.lineno}: {ast.get_source_segment(text, node)}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_local_import_guard_flags_planted_imports():
    planted = ("from .rings import SparsePoly\n"
               "def double_schubert(w):\n"
               "    from .rings import ZZ\n"
               "    return ZZ\n"
               "class E:\n"
               "    def phi(self):\n"
               "        import flagcalc.divdiff\n")
    assert _local_imports("families.py", planted) == [
        "families.py:3: from .rings import ZZ",
        "families.py:7: import flagcalc.divdiff"]
    nested = "def f():\n    def g():\n        import sys\n"
    assert _local_imports("m.py", nested) == ["m.py:3: import sys"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in PACKAGE.glob("*.py")))
def test_imports_stay_at_the_top(module):
    found = _local_imports(module, (PACKAGE / module).read_text())
    assert not found, "\n".join(found)


def test_families_does_not_import_hecke():
    imported = []
    for node in ast.walk(ast.parse((PACKAGE / "families.py").read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}"
                         for alias in node.names]
    assert "rings.ZZ" in imported
    assert not [name for name in imported if "hecke" in name.split(".")]
