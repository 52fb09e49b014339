"""Evaluation harness: regenerates every table and figure of the paper.

Each ``figN_*`` / ``tables`` module exposes a ``compute(...)`` function that
returns plain data structures and a ``report(...)`` function that renders
them as text, so the same code backs the CLI (``python -m repro.evaluation``)
and the paper-shape assertions of ``tests/evaluation``.
"""

from repro.evaluation.runner import (
    ExperimentResult,
    ExperimentSpec,
    clear_reference_cache,
    run_benchmark,
    run_reference,
)
from repro.evaluation.oracle import find_oracle

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "run_benchmark",
    "run_reference",
    "clear_reference_cache",
    "find_oracle",
]
