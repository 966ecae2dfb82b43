"""The flagcalc command (``flagcalc`` or ``python -m flagcalc``): the
argparse front end over the handlers in flagcalc.cli.  Exit codes: 2 for
usage errors and input the library rejects (ValueError), 3 for violated
mathematical contracts (exact-division or symmetry failures), 1 for
anything else."""

import argparse
import os
import sys

from .cli import (UsageError, bott_samelson, braid, chern_tensor, family,
                  flagring_reduce, porteous, verify)
from .porteous import SymmetryError
from .rings import DivisionError


def _at_least(low: int):
    """An argument type: an integer no less than low."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is not >= {low}")
        return int(text)
    return integer


class _Parser(argparse.ArgumentParser):
    """Raises UsageError in place of printing the usage and exiting."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    positive, rank = _at_least(1), _at_least(0)
    laws = ["additive", "multiplicative", "universal"]
    parser = _Parser(prog="flagcalc", description=(
        "Exact calculator for Schubert-type polynomial families."))
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(group, name, run, *options):
        sub = group.add_parser(name, help=run.__doc__, allow_abbrev=False,
                               description=run.__doc__)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=run)

    fmt = ("--format", {"choices": ["text", "json", "latex"],
                        "default": "text"})
    command(commands, "family", family,
            ("--theory", {"choices": ["beta", "schubert", "grothendieck"],
                          "default": "beta"}),
            ("--perm", {"required": True,
                        "help": 'one-line notation, e.g. "3 1 2"'}),
            fmt)
    command(commands, "bott-samelson", bott_samelson,
            ("--law", {"choices": laws, "default": "universal"}),
            ("--word", {"default": "",
                        "help": 'comma-separated indices, e.g. "1,2,1"'}),
            ("--n", {"type": positive, "required": True}),
            ("--trunc", {"type": positive,
                         "help": "truncation bound D (default n(n-1)/2 + 2)"}),
            fmt)
    command(commands, "porteous", porteous,
            ("--e", {"type": int, "required": True}),
            ("--f", {"type": int, "required": True}),
            ("--r", {"type": int, "required": True}),
            ("--theory", {"choices": ["ck", "ch", "k0"], "default": "ck"}),
            fmt)
    hecke_group = commands.add_parser(
        "hecke", help="Operations in the degenerate Hecke algebra.")
    command(hecke_group.add_subparsers(metavar="COMMAND", required=True),
            "verify", verify, ("--n", {"type": positive, "default": 3}))
    command(commands, "braid", braid,
            ("--law", {"choices": ["beta"] + laws, "default": "universal"}),
            ("--n", {"type": int, "default": 3}),
            ("--i", {"type": int, "default": 1}),
            ("--trunc", {"type": positive, "default": 4}),
            ("--seed", {"type": int, "default": 0, "help":
                        "seed for the random samples, tried after the "
                        "fixed sample x1^2 x2"}))
    flagring_group = commands.add_parser(
        "flagring", help="The flag-bundle quotient ring.")
    command(flagring_group.add_subparsers(metavar="COMMAND", required=True),
            "reduce", flagring_reduce,
            ("--n", {"type": positive, "required": True}),
            ("--trivial", {"action": "store_true", "help":
                           "zero base Chern classes (trivial bundle)"}),
            ("--input", {"required": True, "help": "polynomial to reduce"}),
            fmt)
    command(commands, "chern-tensor", chern_tensor,
            ("--law", {"choices": laws, "default": "multiplicative"}),
            ("--e", {"type": rank, "required": True,
                     "help": "rank of E (y-roots)"}),
            ("--f", {"type": rank, "required": True,
                     "help": "rank of F (x-roots)"}),
            ("--trunc", {"type": positive, "default": 4}),
            fmt)
    return parser


def main(argv=None):
    """Run the command in argv (by default the process's arguments)."""
    try:
        args = _parser().parse_args(argv)
        args.run(args)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader is gone: drop what is buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        sys.exit(2)
    except (DivisionError, SymmetryError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        sys.exit(3)
    except ValueError as exc:
        # out-of-range permutations, indices, rank triples and rings
        print(f"invalid input: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":  # pragma: no cover
    main()
