"""Figure 4: final program correctness of Static ATM, Dynamic ATM and the
Oracle (95 %) configuration.

Static ATM must always reach 100 % (exact memoization); Dynamic ATM loses at
most a few percent on the approximation-friendly benchmarks (the paper
reports 1.2 % for Kmeans and 3.2 % for Swaptions, 0.7 % on average).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.registry import BENCHMARK_NAMES, PAPER_PARAMETERS
from repro.evaluation.oracle import find_oracle
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentSpec, geometric_mean, run_benchmark

__all__ = ["compute", "report"]


@dataclass
class Fig4Row:
    benchmark: str
    static_correctness: float
    dynamic_correctness: float
    oracle_95_correctness: float
    paper_static: float | None = None
    paper_dynamic: float | None = None


def compute(
    scale: str = "small",
    cores: int = 8,
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    include_oracle: bool = True,
    seed: int = 2017,
) -> list[Fig4Row]:
    rows: list[Fig4Row] = []
    for benchmark in benchmarks:
        static = run_benchmark(
            ExperimentSpec(benchmark=benchmark, scale=scale, mode="static", cores=cores, seed=seed)
        )
        dynamic = run_benchmark(
            ExperimentSpec(benchmark=benchmark, scale=scale, mode="dynamic", cores=cores, seed=seed)
        )
        oracle_correctness = 0.0
        if include_oracle:
            oracle_correctness = find_oracle(
                benchmark, min_correctness=95.0, scale=scale, cores=cores, seed=seed
            ).correctness
        paper = PAPER_PARAMETERS.get(benchmark)
        rows.append(
            Fig4Row(
                benchmark=benchmark,
                static_correctness=static.correctness,
                dynamic_correctness=dynamic.correctness,
                oracle_95_correctness=oracle_correctness,
                paper_static=paper.static_correctness if paper else None,
                paper_dynamic=paper.dynamic_correctness if paper else None,
            )
        )
    return rows


def report(rows: list[Fig4Row]) -> str:
    headers = [
        "benchmark", "static ATM", "dynamic ATM", "oracle(95%)",
        "paper static", "paper dynamic",
    ]
    table_rows = [
        [r.benchmark, r.static_correctness, r.dynamic_correctness,
         r.oracle_95_correctness or None, r.paper_static, r.paper_dynamic]
        for r in rows
    ]
    table_rows.append([
        "geomean",
        geometric_mean([r.static_correctness for r in rows]),
        geometric_mean([r.dynamic_correctness for r in rows]),
        geometric_mean([r.oracle_95_correctness for r in rows]) or None,
        100.0,
        99.3,
    ])
    return format_table(headers, table_rows, title="Figure 4: final correctness (%)")
