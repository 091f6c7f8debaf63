"""The parser functorlab.cli replaced, kept as the oracle of cli.parse_args:
a top-level parser with the shared flags and one subparser per command,
each repeating the shared flags with suppressed defaults.  Also the oracle of
cli's --help: its flat parser with argparse's own formatter."""

import argparse

from functorlab import cli
from functorlab.cli import _non_negative, _non_negative_list, _positive, _prime


def stock_formatter_parser() -> argparse.ArgumentParser:
    """cli.build_parser() with argparse's formatter, which reads the terminal
    width each time it is built."""
    ap = cli.build_parser()
    ap.formatter_class = argparse.RawDescriptionHelpFormatter
    return ap


def _add_common(ap: argparse.ArgumentParser, suppress: bool):
    # shared flags live on the main parser and on every subparser, the latter
    # with suppressed defaults so values given before the subcommand survive
    d = (lambda v: argparse.SUPPRESS) if suppress else (lambda v: v)
    ap.add_argument("--p", type=_prime, default=d(2), help="field characteristic (prime)")
    ap.add_argument("--cap", type=_non_negative, default=d(3), help="dimension cap / window")
    ap.add_argument("--n-max", type=_non_negative, default=d(2), help="largest polynomial degree")
    ap.add_argument("--seed", type=int, default=d(0), help="seed for all derived streams")
    ap.add_argument("--budget-maps", type=_positive, default=d(1 << 20), help="map enumeration budget")
    ap.add_argument("--budget-group", type=_positive, default=d(1000), help="group order budget")
    ap.add_argument("--input", type=str, default=d(None), help="sfunctor.json or builtin spec file")
    ap.add_argument("--builtin", type=str, default=d(None), help="representable | orbit | subspaces | kernel-mismatch")
    ap.add_argument("--u-dim", type=_non_negative, default=d(2), help="target dimension for builtins")
    ap.add_argument("--format", dest="fmt", choices=["json", "markdown"], default=d("json"))
    ap.add_argument("--output", type=str, default=d(None), help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="functorlab",
        description="exact functor-category computations over prime fields",
    )
    _add_common(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)

    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common], help="check the functor laws of the input tables")
    sub.add_parser("check-noetherian", parents=[common], help="weaker noetherianity plus regular-element report")
    sub.add_parser("rector", parents=[common], help="regular classes, automorphism groups, hom matrix")

    for name in ("degree", "delta"):
        p = sub.add_parser(name, parents=[common], help="difference calculus on a chosen functor")
        p.add_argument(
            "--functor",
            type=str,
            default="tensor:1",
            help="tensor:n | constant | cogen:r,v | symmetrizer:parts | file:vfunctor.json",
        )
        p.add_argument("--save-functor", type=str, default=None, help="write the (differenced) functor tables here")
        if name == "delta":
            p.add_argument("--times", type=_non_negative, default=1)

    p = sub.add_parser("cross-effect", parents=[common], help="joint omission kernel at a base object")
    p.add_argument("--functor", type=str, default="tensor:2")
    p.add_argument("--base", type=_non_negative_list(2), default="0,0", help="skeletal object as class,trivial-dim")
    p.add_argument("--blocks", type=_non_negative_list(), default="1,1", help="block dimensions")

    p = sub.add_parser("simples-of-group", parents=[common], help="simple modules of a small group")
    p.add_argument("--group", type=str, default="sym:3", help="sym:n | autsym:class,n")

    sub.add_parser("enumerate-simples", parents=[common], help="classification run up to degree n-max")
    sub.add_parser("verify-theorems", parents=[common], help="run the full verification suites")

    p = sub.add_parser("demo", parents=[common], help="run an action on a shipped builtin")
    p.add_argument("action", nargs="?", default="rector")
    return ap
