"""Command-line front end.

Subcommands: solve, payoff, ideal, compare, oracle-check.  Exit codes:
0 = optimal, 1 = oracle-check mismatch, 2 = infeasible, 3 = parse/validation
error or usage error, 4 = resource limit hit, 5 = numerical breakdown in the
simplex.  Exits 3, 4 and 5 print one ``error:`` line on stderr.

Usage errors include an unknown option, a missing argument and a rejected
option value (--override-payoff, --competitor).  argparse would print its
usage text and exit 2, the code of an infeasible instance, so the parser
reports them as one line and exit 3 instead.  --override-payoff levels that
no plan of a feasible instance attains also exit 3: the option value is at
fault, not the instance.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

from .compromise import PayoffTable
from .intervals import Interval
from .milp import DegeneratePivotError, NodeLimitError, OracleScopeError
from .pipeline import (CompetitorEntry, InfeasibleProblemError, Stages, UnattainableLevelsError,
                       run_oracle_check, run_pipeline)
from .problemfile import ProblemFileError, parse_instance
from .reporting import (render_ideal, render_machine, render_oracle_check, render_payoff,
                        render_text)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_BAD_INPUT = 3
EXIT_RESOURCE = 4
EXIT_NUMERICAL = 5

_COMPETITOR = re.compile(r"^(?P<name>[^=]+)=\[(?P<lo>[^,\]]+),(?P<hi>[^,\]]+)\]$")


class _ArgumentParser(argparse.ArgumentParser):
    """Turns every usage error into an ArgumentError, which main maps to exit 3.

    Subparsers are built from the same class, so their errors take this path too.
    """

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric value {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"value {text!r} is not finite")
    return value


def _parse_override(text: str) -> PayoffTable:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(f"expected L1,U1,L2,U2, got {text!r}")
    l1, u1, l2, u2 = map(_finite, parts)
    try:
        return PayoffTable((l1, l2), (u1, u2))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from None


def _parse_competitor(text: str) -> CompetitorEntry:
    match = _COMPETITOR.match(text.strip())
    if not match:
        raise argparse.ArgumentTypeError("expected name=[lo,hi]")
    try:
        return CompetitorEntry(match.group("name").strip(),
                               Interval(float(match.group("lo")), float(match.group("hi"))))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache  # built on the first main call; parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ifctp",
        description="Solve interval fixed-charge transportation problems by "
                    "max-min compromise between expected cost and uncertainty.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, payoff=True):
        p.add_argument("file", help="problem file")
        p.add_argument("--report", choices=("text", "machine"), default="text")
        if payoff:
            p.add_argument("--override-payoff", type=_parse_override, metavar="L1,U1,L2,U2",
                           help="replace the computed payoff levels")

    add_common(sub.add_parser("solve", help="full pipeline and report"))
    compare = sub.add_parser("compare", help="pipeline plus an external competitor entry")
    add_common(compare)
    compare.add_argument("--competitor", type=_parse_competitor, metavar="NAME=[lo,hi]",
                         required=True, help="competitor objective interval")
    add_common(sub.add_parser("payoff", help="payoff table only"), payoff=False)
    add_common(sub.add_parser("ideal", help="ideal point only"), payoff=False)
    sub.add_parser("oracle-check", help="cross-check solver vs enumeration").add_argument(
        "file", help="problem file")
    return parser


def _load(path: str):
    """Parse a problem file; an unreadable file is a ProblemFileError like a bad one."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from None
    return parse_instance(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        instance = _load(args.file)
        if args.command in ("solve", "compare"):
            report = run_pipeline(instance, payoff_override=args.override_payoff,
                                  competitor=getattr(args, "competitor", None))
            render = render_machine if args.report == "machine" else render_text
            sys.stdout.write(render(report))
            return EXIT_OK if report.status == "optimal" else EXIT_INFEASIBLE
        if args.command == "payoff":
            sys.stdout.write(render_payoff(Stages(instance).payoff(), args.report))
            return EXIT_OK
        if args.command == "ideal":
            sys.stdout.write(render_ideal(Stages(instance).ideal(), args.report))
            return EXIT_OK
        # oracle-check
        check = run_oracle_check(instance)
        sys.stdout.write(render_oracle_check(check))
        return EXIT_OK if check.passed else EXIT_CHECK_FAILED
    except (argparse.ArgumentError, ProblemFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except UnattainableLevelsError as exc:
        print(f"error: override levels are unattainable: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except InfeasibleProblemError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NodeLimitError, OracleScopeError) as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except DegeneratePivotError as exc:
        print(f"error: numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
