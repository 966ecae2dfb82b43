import random
from collections import namedtuple

import pytest

from flagcalc.__main__ import main
from flagcalc.rings import SparsePoly, beta_ring


@pytest.fixture
def ring():
    return beta_ring()


def random_poly(ring, rng: random.Random, nvars: int = 3, nterms: int = 4,
                max_exp: int = 2, with_y: bool = False,
                with_beta: bool = True) -> SparsePoly:
    """Small random polynomial over ring in x1..x_nvars (optionally y's, b)."""
    p = SparsePoly.zero(ring)
    for _ in range(nterms):
        term = SparsePoly(ring, {(): rng.randint(-4, 4)})
        for k in range(1, nvars + 1):
            term = term * SparsePoly.var(ring, f"x{k}", rng.randint(0, max_exp))
        if with_y:
            term = term * SparsePoly.var(ring, f"y{rng.randint(1, nvars)}",
                                         rng.randint(0, 1))
        if with_beta and rng.random() < 0.4:
            term = term * SparsePoly.var(ring, "b", rng.randint(1, 2))
        p = p + term
    return p


Result = namedtuple("Result", "exit_code output")


def invoke(capsys, *args):
    """Run the command line on args; its exit code and standard output."""
    try:
        main(list(args))
        code = 0
    except SystemExit as exc:
        code = exc.code
    return Result(code, capsys.readouterr().out)
