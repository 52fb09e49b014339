"""Command-line interface for regenerating the paper's tables and figures.

Usage::

    python -m repro.evaluation fig3 --scale small
    python -m repro.evaluation fig5 --benchmarks blackscholes kmeans
    python -m repro.evaluation all --scale tiny
    repro-atm table3

One subcommand per row of :data:`repro.evaluation.figures.FIGURES`, plus
``all`` (every row, in table order).  Every subcommand prints its result to
stdout (and optionally writes it to a file with ``--output``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.apps.registry import BENCHMARK_NAMES
from repro.evaluation.figures import FIGURES, compute, render

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-atm",
        description="Reproduce the evaluation of 'ATM: Approximate Task Memoization in the Runtime System'",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: figure.help for name, figure in FIGURES.items()}
    for name, help_text in {**commands, "all": "run everything"}.items():
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--scale", default="small", choices=["tiny", "small", "paper"],
                             help="workload scale (default: small)")
        command.add_argument("--cores", type=int, default=8, help="simulated core count")
        command.add_argument("--seed", type=int, default=2017, help="workload seed")
        command.add_argument("--benchmarks", nargs="*", default=None,
                             help="subset of benchmarks (default: all six)")
        command.add_argument("--output", default=None, help="also write the report to this file")
    return parser


def _report(name: str, args: argparse.Namespace) -> str:
    return render(compute(
        FIGURES[name], scale=args.scale, cores=args.cores, seed=args.seed,
        benchmarks=tuple(args.benchmarks or BENCHMARK_NAMES),
    ))


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "all":
        report = "\n".join(
            f"==== {name} ====\n{_report(name, args)}\n" for name in FIGURES
        )
    else:
        report = _report(args.command, args)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
