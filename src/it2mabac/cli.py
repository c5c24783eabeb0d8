"""Command-line interface: solve, trace, validate, example.

Exit codes: 0 on success, 1 when the command line or the problem document
fails validation, 2 when the pipeline cannot compute on an accepted document.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import MabacError
from .pipeline import BAA_OPERATORS
from .problem import (
    DecisionProblem,
    PipelineParams,
    example_problem_text,
    parse_problem,
    run,
)
from .render import FORMATS, TABLES, render, render_section, render_section_machine


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, as invalid input; argparse exits 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("problem", help="path to a problem document")
    parser.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="rank attitude parameter in [0, 1] (default: from file or 0.5)")
    rule = "; r, s >= 0 with a finite, normal sum r + s"
    parser.add_argument("--r", type=float, default=None, help="Bonferroni exponent r" + rule)
    parser.add_argument("--s", type=float, default=None, help="Bonferroni exponent s" + rule)
    parser.add_argument("--baa", dest="baa_operator", choices=BAA_OPERATORS,
                        default=None, help="border approximation area operator")
    parser.add_argument("--format", choices=list(FORMATS), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="it2mabac",
        description="Group decision making with MABAC over interval type-2 "
                    "trapezoidal fuzzy numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the full pipeline and print a report")
    _add_common_flags(solve)

    trace = sub.add_parser("trace", help="print one named intermediate table")
    _add_common_flags(trace)
    trace.add_argument("table", choices=list(TABLES))

    validate = sub.add_parser("validate", help="parse and validate a problem document")
    validate.add_argument("problem", help="path to a problem document")

    sub.add_parser("example", help="print the bundled example problem document")

    return parser


#: The parser ``main`` uses, built on its first call and reused: parsing leaves
#: a parser as it was.
_parser = functools.cache(build_parser)


def _load(path: str) -> DecisionProblem:
    source = Path(path)
    text = source.read_text(encoding="utf-8")
    return parse_problem(text, base_dir=source.parent)


def _merge_params(problem: DecisionProblem, args: argparse.Namespace) -> PipelineParams:
    """The problem's params with every flag that was given put in their place."""
    flags = {name: getattr(args, name) for name in PipelineParams._fields}
    return problem.params._replace(**{k: v for k, v in flags.items() if v is not None})


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "example":
        sys.stdout.write(example_problem_text())
        return 0

    try:
        problem = _load(args.problem)
        params = _merge_params(problem, args) if args.command != "validate" else None
    except (MabacError, OSError, UnicodeDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(f"ok: {problem.name!r} with {len(problem.alternatives)} alternatives, "
              f"{len(problem.criteria)} criteria, {len(problem.experts)} experts")
        return 0

    try:
        trace = run(problem, params)
        if args.command == "solve":
            output = render(trace, args.format)
        else:
            output = render_section_machine(trace, args.table) if args.format == "machine" \
                else render_section(trace, args.table)
    except MabacError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2

    sys.stdout.write(output)
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
