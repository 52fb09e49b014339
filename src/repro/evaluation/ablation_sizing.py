"""ATM sizing ablation (paper Section IV-B).

The paper reports two sizing results:

* the number of THT buckets matters for lock contention: ``N = 8`` (256
  buckets) improves performance by ~46 % over a single bucket (``N = 0``),
  and larger values do not help further;
* most applications saturate their reuse at a bucket capacity of ``M = 16``,
  but Kmeans needs ``M = 128`` (which the paper then uses everywhere).

This module sweeps both parameters for a chosen benchmark and reports the
speedup and reuse of each configuration.  Lock contention itself is a
real-multithreading effect, so the bucket-bits sweep can also be run on the
threaded executor; the default uses the simulated executor, where the effect
shows up through the THT-probe serialisation statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentSpec, run_benchmark

__all__ = ["compute_bucket_bits_sweep", "compute_capacity_sweep", "report"]


@dataclass
class SizingPoint:
    parameter: str
    value: int
    speedup: float
    reuse_percent: float
    memory_overhead_percent: float


def compute_bucket_bits_sweep(
    benchmark: str = "blackscholes",
    scale: str = "small",
    cores: int = 8,
    bits_values: tuple[int, ...] = (0, 2, 4, 8, 10),
    seed: int = 2017,
) -> list[SizingPoint]:
    points = []
    for bits in bits_values:
        result = run_benchmark(
            ExperimentSpec(
                benchmark=benchmark, scale=scale, mode="dynamic", cores=cores,
                tht_bucket_bits=bits, seed=seed,
            )
        )
        points.append(
            SizingPoint(
                parameter="tht_bucket_bits",
                value=bits,
                speedup=result.speedup,
                reuse_percent=result.memoized_type_reuse_percent,
                memory_overhead_percent=result.memory_overhead_percent,
            )
        )
    return points


def compute_capacity_sweep(
    benchmark: str = "kmeans",
    scale: str = "small",
    cores: int = 8,
    capacities: tuple[int, ...] = (4, 16, 64, 128),
    seed: int = 2017,
) -> list[SizingPoint]:
    points = []
    for capacity in capacities:
        result = run_benchmark(
            ExperimentSpec(
                benchmark=benchmark, scale=scale, mode="dynamic", cores=cores,
                tht_bucket_capacity=capacity, seed=seed,
            )
        )
        points.append(
            SizingPoint(
                parameter="tht_bucket_capacity",
                value=capacity,
                speedup=result.speedup,
                reuse_percent=result.memoized_type_reuse_percent,
                memory_overhead_percent=result.memory_overhead_percent,
            )
        )
    return points


def report(points: list[SizingPoint], benchmark: str) -> str:
    headers = ["parameter", "value", "speedup", "reuse (%)", "memory overhead (%)"]
    rows = [
        [p.parameter, p.value, p.speedup, p.reuse_percent, p.memory_overhead_percent]
        for p in points
    ]
    return format_table(headers, rows, title=f"ATM sizing ablation ({benchmark})")
