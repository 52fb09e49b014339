"""Figure 6: speedup of Dynamic ATM and Oracle (95 %) over 1..8 cores.

For every core count the baseline is the no-ATM parallel execution *with the
same number of cores*, so the figure isolates the benefit of ATM from plain
parallel scaling, exactly as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.registry import BENCHMARK_NAMES
from repro.evaluation.oracle import find_oracle
from repro.evaluation.reporting import format_series
from repro.evaluation.runner import ExperimentSpec, geometric_mean, run_benchmark

__all__ = ["compute", "report"]

DEFAULT_CORE_COUNTS = (1, 2, 4, 8)


@dataclass
class Fig6Series:
    """Per-benchmark speedup series over core counts."""

    benchmark: str
    cores: list[int] = field(default_factory=list)
    dynamic_speedup: list[float] = field(default_factory=list)
    oracle_95_speedup: list[float] = field(default_factory=list)


def compute(
    scale: str = "small",
    core_counts: tuple[int, ...] = DEFAULT_CORE_COUNTS,
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    include_oracle: bool = True,
    seed: int = 2017,
) -> list[Fig6Series]:
    series: list[Fig6Series] = []
    for benchmark in benchmarks:
        entry = Fig6Series(benchmark=benchmark)
        for cores in core_counts:
            dynamic = run_benchmark(
                ExperimentSpec(
                    benchmark=benchmark, scale=scale, mode="dynamic", cores=cores, seed=seed
                )
            )
            entry.cores.append(cores)
            entry.dynamic_speedup.append(dynamic.speedup)
            if include_oracle:
                oracle = find_oracle(
                    benchmark, min_correctness=95.0, scale=scale, cores=cores, seed=seed
                )
                entry.oracle_95_speedup.append(oracle.speedup)
        series.append(entry)
    return series


def geomean_series(series: list[Fig6Series]) -> Fig6Series:
    """The ``Geomean`` panel of Figure 6."""
    if not series:
        return Fig6Series(benchmark="geomean")
    combined = Fig6Series(benchmark="geomean", cores=list(series[0].cores))
    for index in range(len(combined.cores)):
        combined.dynamic_speedup.append(
            geometric_mean([s.dynamic_speedup[index] for s in series])
        )
        if all(s.oracle_95_speedup for s in series):
            combined.oracle_95_speedup.append(
                geometric_mean([s.oracle_95_speedup[index] for s in series])
            )
    return combined


def report(series: list[Fig6Series]) -> str:
    lines = ["Figure 6: speedup vs number of cores (baseline: no-ATM at the same core count)", ""]
    for entry in series + [geomean_series(series)]:
        lines.append(
            format_series(
                f"{entry.benchmark} dynamic-ATM", entry.cores, entry.dynamic_speedup
            )
        )
        if entry.oracle_95_speedup:
            lines.append(
                format_series(
                    f"{entry.benchmark} oracle(95%)", entry.cores, entry.oracle_95_speedup
                )
            )
    return "\n".join(lines)
