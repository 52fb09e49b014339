"""Evaluation harness: regenerates every table and figure of the paper.

Each table and figure is one row of :data:`repro.evaluation.figures.FIGURES`;
``figures.compute`` runs a row and returns its values, ``figures.render``
prints them, so the same code backs the CLI (``python -m repro.evaluation``)
and the paper-shape assertions of ``tests/evaluation``.  The runner, the
oracle search and the text rendering are the layer underneath.
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
