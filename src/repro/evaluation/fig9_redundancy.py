"""Figure 9: where the redundancy comes from.

For every benchmark running under Dynamic ATM, the paper plots the cumulative
reuse generated by each task against the (normalized) creation id of the task
that produced the reused result.  Embarrassingly parallel benchmarks generate
their redundancy early (Blackscholes) or uniformly (Swaptions); iterative
solvers generate it throughout the execution (the stencils, Kmeans); LU shows
a steep staircase.

The engine records every reuse event together with the producer task's
creation index (:class:`repro.atm.stats.ATMStats`), from which the cumulative
curve is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.registry import BENCHMARK_NAMES
from repro.evaluation.reporting import format_series
from repro.evaluation.runner import ExperimentSpec, run_benchmark

__all__ = ["compute", "report"]


@dataclass
class Fig9Curve:
    """Cumulative-reuse curve of one benchmark (normalized on both axes)."""

    benchmark: str
    normalized_task_id: np.ndarray = field(default_factory=lambda: np.empty(0))
    cumulative_reuse: np.ndarray = field(default_factory=lambda: np.empty(0))
    total_reuse_events: int = 0
    reuse_percent: float = 0.0

    def reuse_generated_before(self, normalized_id: float) -> float:
        """Fraction of all reuse generated by tasks created before the given
        normalized task id (0..1)."""
        if self.normalized_task_id.size == 0:
            return 0.0
        mask = self.normalized_task_id <= normalized_id
        if not mask.any():
            return 0.0
        return float(self.cumulative_reuse[mask][-1])


def compute(
    scale: str = "small",
    cores: int = 8,
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    mode: str = "dynamic",
    seed: int = 2017,
) -> list[Fig9Curve]:
    curves: list[Fig9Curve] = []
    for benchmark in benchmarks:
        result = run_benchmark(
            ExperimentSpec(benchmark=benchmark, scale=scale, mode=mode, cores=cores, seed=seed)
        )
        producers = sorted(
            producer for producer, _consumer, _source in _reuse_events_from(result)
        )
        total_tasks = result.tasks_completed
        curve = Fig9Curve(benchmark=benchmark)
        if producers and total_tasks > 1:
            x = np.asarray(producers, dtype=np.float64) / (total_tasks - 1)
            y = np.arange(1, len(producers) + 1, dtype=np.float64) / len(producers)
            curve.normalized_task_id = x
            curve.cumulative_reuse = y
        curve.total_reuse_events = len(producers)
        curve.reuse_percent = result.reuse_percent
        curves.append(curve)
    return curves


def _reuse_events_from(result) -> list[tuple[int, int, str]]:
    """Reuse events ``(producer_index, consumer_index, source)`` of a run."""
    return list(result.atm_stats.get("reuse_events", []))


def report(curves: list[Fig9Curve]) -> str:
    lines = [
        "Figure 9: cumulative generated reuse vs normalized producer task id",
        "",
    ]
    for curve in curves:
        if curve.normalized_task_id.size == 0:
            lines.append(f"{curve.benchmark}: no reuse recorded")
            continue
        # Sample the curve at ten evenly spaced points for compact reporting.
        samples = np.linspace(0.0, 1.0, 11)
        ys = [curve.reuse_generated_before(x) for x in samples]
        lines.append(format_series(curve.benchmark, samples.tolist(), ys))
    return "\n".join(lines)
