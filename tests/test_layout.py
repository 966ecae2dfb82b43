"""The packed-monomial layout is private to flagcalc.rings: no other
module of the package may name its helpers or a polynomial's packed
terms.  Other modules use SparsePoly.split, SparsePoly.monomial,
sum_of_products and divided_difference instead."""

import re
from pathlib import Path

import pytest

import flagcalc

PACKAGE = Path(flagcalc.__file__).parent
PRIVATE = re.compile(
    r"_FIELD|_slot|_clean|_check_guard|_encode|\._terms|\._new\(")
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "rings.py")


def test_every_module_is_checked():
    assert "flagring.py" in MODULES and "divdiff.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_packed_layout_stays_in_rings(module):
    lines = (PACKAGE / module).read_text().splitlines()
    leaks = [f"{module}:{k}: {line.strip()}"
             for k, line in enumerate(lines, start=1) if PRIVATE.search(line)]
    assert not leaks, "\n".join(leaks)
