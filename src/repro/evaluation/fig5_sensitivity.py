"""Figure 5: program correctness vs the (fixed) percentage of selected inputs.

The paper sweeps a constant sampling fraction ``p`` over the 16-step ladder
``2^-15 ... 1`` and plots the final correctness of every benchmark, together
with a star marking the ``p`` chosen automatically by Dynamic ATM.  The
right-most point (``p = 1``) corresponds to Static ATM and is always 100 %
correct; correctness degrades as ``p`` shrinks, at a benchmark-specific
point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.apps.registry import BENCHMARK_NAMES
from repro.common.config import P_LADDER
from repro.evaluation.reporting import format_series, format_table
from repro.evaluation.runner import ExperimentSpec, run_benchmark

__all__ = ["compute", "report"]


@dataclass
class Fig5Curve:
    """Correctness-vs-p curve of one benchmark plus the Dynamic-ATM choice."""

    benchmark: str
    p_values: list[float] = field(default_factory=list)
    correctness: list[float] = field(default_factory=list)
    dynamic_chosen_p: Optional[float] = None
    dynamic_correctness: Optional[float] = None

    def correctness_at(self, p: float) -> float:
        for candidate, value in zip(self.p_values, self.correctness):
            if abs(candidate - p) < 1e-12:
                return value
        raise KeyError(f"p={p} not in sweep")


def compute(
    scale: str = "small",
    cores: int = 8,
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    ladder: tuple[float, ...] = P_LADDER,
    seed: int = 2017,
) -> list[Fig5Curve]:
    curves: list[Fig5Curve] = []
    for benchmark in benchmarks:
        curve = Fig5Curve(benchmark=benchmark)
        for p in ladder:
            result = run_benchmark(
                ExperimentSpec(
                    benchmark=benchmark, scale=scale, mode="fixed_p", p=p,
                    cores=cores, seed=seed,
                )
            )
            curve.p_values.append(p)
            curve.correctness.append(result.correctness)
        dynamic = run_benchmark(
            ExperimentSpec(benchmark=benchmark, scale=scale, mode="dynamic", cores=cores, seed=seed)
        )
        curve.dynamic_chosen_p = dynamic.chosen_p
        curve.dynamic_correctness = dynamic.correctness
        curves.append(curve)
    return curves


def report(curves: list[Fig5Curve]) -> str:
    lines = ["Figure 5: correctness (%) vs fixed sampling fraction p", ""]
    for curve in curves:
        lines.append(
            format_series(
                curve.benchmark,
                [100.0 * p for p in curve.p_values],
                curve.correctness,
            )
        )
    lines.append("")
    headers = ["benchmark", "dynamic-ATM chosen p (%)", "dynamic correctness (%)"]
    rows = [
        [
            curve.benchmark,
            (100.0 * curve.dynamic_chosen_p) if curve.dynamic_chosen_p else None,
            curve.dynamic_correctness,
        ]
        for curve in curves
    ]
    lines.append(format_table(headers, rows, float_format="{:.4g}"))
    return "\n".join(lines)
