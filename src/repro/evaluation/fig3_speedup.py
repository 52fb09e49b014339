"""Figure 3: speedup of Static/Dynamic ATM (THT and THT+IKT) and the Oracles.

For every benchmark the paper reports six bars (log scale):

* Static ATM with the THT only,
* Dynamic ATM with the THT only,
* Static ATM with THT + IKT,
* Dynamic ATM with THT + IKT,
* Oracle (100 %) — smallest offline ``p`` with 100 % final correctness,
* Oracle (95 %) — smallest offline ``p`` with >= 95 % final correctness,

plus the geometric mean across benchmarks.  Speedups are measured against the
no-ATM baseline at the same core count (Eq. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.registry import BENCHMARK_NAMES, PAPER_PARAMETERS
from repro.evaluation.oracle import find_oracle
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentSpec, geometric_mean, run_benchmark

__all__ = ["compute", "report"]

CONFIGURATIONS = (
    ("static_tht", "static", False),
    ("dynamic_tht", "dynamic", False),
    ("static_tht_ikt", "static", True),
    ("dynamic_tht_ikt", "dynamic", True),
)


@dataclass
class Fig3Row:
    """Speedups of one benchmark under every Figure-3 configuration."""

    benchmark: str
    static_tht: float = 0.0
    dynamic_tht: float = 0.0
    static_tht_ikt: float = 0.0
    dynamic_tht_ikt: float = 0.0
    oracle_100: float = 0.0
    oracle_95: float = 0.0
    paper_static: float | None = None
    paper_dynamic: float | None = None
    extra: dict = field(default_factory=dict)


def compute(
    scale: str = "small",
    cores: int = 8,
    benchmarks: tuple[str, ...] = BENCHMARK_NAMES,
    include_oracles: bool = True,
    seed: int = 2017,
) -> list[Fig3Row]:
    """Run every Figure-3 configuration and return one row per benchmark."""
    rows: list[Fig3Row] = []
    for benchmark in benchmarks:
        row = Fig3Row(benchmark=benchmark)
        paper = PAPER_PARAMETERS.get(benchmark)
        if paper is not None:
            row.paper_static = paper.static_atm_speedup
            row.paper_dynamic = paper.dynamic_atm_speedup
        for attr, mode, use_ikt in CONFIGURATIONS:
            result = run_benchmark(
                ExperimentSpec(
                    benchmark=benchmark, scale=scale, mode=mode, cores=cores,
                    use_ikt=use_ikt, seed=seed,
                )
            )
            setattr(row, attr, result.speedup)
        if include_oracles:
            row.oracle_100 = find_oracle(
                benchmark, min_correctness=100.0, scale=scale, cores=cores, seed=seed
            ).speedup
            row.oracle_95 = find_oracle(
                benchmark, min_correctness=95.0, scale=scale, cores=cores, seed=seed
            ).speedup
        rows.append(row)
    return rows


def report(rows: list[Fig3Row]) -> str:
    """Render the Figure-3 table, including the geometric-mean row."""
    headers = [
        "benchmark", "static(THT)", "dynamic(THT)", "static(THT+IKT)",
        "dynamic(THT+IKT)", "oracle(100%)", "oracle(95%)",
        "paper static", "paper dynamic",
    ]
    table_rows = []
    for row in rows:
        table_rows.append([
            row.benchmark, row.static_tht, row.dynamic_tht, row.static_tht_ikt,
            row.dynamic_tht_ikt, row.oracle_100 or None, row.oracle_95 or None,
            row.paper_static, row.paper_dynamic,
        ])
    geomean_row = [
        "geomean",
        geometric_mean([r.static_tht for r in rows]),
        geometric_mean([r.dynamic_tht for r in rows]),
        geometric_mean([r.static_tht_ikt for r in rows]),
        geometric_mean([r.dynamic_tht_ikt for r in rows]),
        geometric_mean([r.oracle_100 for r in rows]) or None,
        geometric_mean([r.oracle_95 for r in rows]) or None,
        1.4,
        2.5,
    ]
    table_rows.append(geomean_row)
    return format_table(headers, table_rows, title="Figure 3: ATM speedup over the no-ATM baseline (8 cores)")
