"""Benchmark registry and the paper's per-benchmark parameters.

``PAPER_PARAMETERS`` collects the values the paper reports in Tables I-III
(and the headline per-benchmark results of Figure 3), so that the evaluation
harness can print paper-vs-measured comparisons, and so EXPERIMENTS.md can be
regenerated from one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import BenchmarkApp, WorkloadScale
from repro.apps.blackscholes import BlackscholesApp
from repro.apps.stencil import GaussSeidelApp, JacobiApp
from repro.apps.kmeans import KmeansApp
from repro.apps.sparselu import SparseLUApp
from repro.apps.swaptions import SwaptionsApp
from repro.common.exceptions import WorkloadError

__all__ = ["BENCHMARK_NAMES", "BENCHMARK_CLASSES", "PAPER_PARAMETERS", "make_benchmark"]


BENCHMARK_CLASSES: dict[str, type[BenchmarkApp]] = {
    "blackscholes": BlackscholesApp,
    "gauss-seidel": GaussSeidelApp,
    "jacobi": JacobiApp,
    "kmeans": KmeansApp,
    "lu": SparseLUApp,
    "swaptions": SwaptionsApp,
}

#: Canonical benchmark order used in every figure and table of the paper.
BENCHMARK_NAMES: tuple[str, ...] = tuple(BENCHMARK_CLASSES)


@dataclass(frozen=True)
class PaperNumbers:
    """Values reported by the paper for one benchmark."""

    #: Table II.
    l_training: int
    tau_max_percent: float
    #: Table III: ATM memory overhead (% of application footprint).
    memory_overhead_percent: float
    #: Figure 3 (approximate values read off the log-scale plot).
    static_atm_speedup: float
    dynamic_atm_speedup: float
    oracle_100_speedup: float
    oracle_95_speedup: float
    #: Figure 4.
    static_correctness: float
    dynamic_correctness: float


PAPER_PARAMETERS: dict[str, PaperNumbers] = {
    "blackscholes": PaperNumbers(
        l_training=15, tau_max_percent=1.0, memory_overhead_percent=4.9,
        static_atm_speedup=5.5, dynamic_atm_speedup=8.8,
        oracle_100_speedup=15.1, oracle_95_speedup=15.1,
        static_correctness=100.0, dynamic_correctness=100.0,
    ),
    "gauss-seidel": PaperNumbers(
        l_training=100, tau_max_percent=1.0, memory_overhead_percent=9.8,
        static_atm_speedup=1.68, dynamic_atm_speedup=2.5,
        oracle_100_speedup=6.3, oracle_95_speedup=6.3,
        static_correctness=100.0, dynamic_correctness=100.0,
    ),
    "jacobi": PaperNumbers(
        l_training=150, tau_max_percent=1.0, memory_overhead_percent=9.26,
        static_atm_speedup=0.65, dynamic_atm_speedup=1.5,
        oracle_100_speedup=1.73, oracle_95_speedup=1.73,
        static_correctness=100.0, dynamic_correctness=100.0,
    ),
    "kmeans": PaperNumbers(
        l_training=15, tau_max_percent=20.0, memory_overhead_percent=21.21,
        static_atm_speedup=0.9, dynamic_atm_speedup=3.6,
        oracle_100_speedup=0.9, oracle_95_speedup=4.5,
        static_correctness=100.0, dynamic_correctness=98.8,
    ),
    "lu": PaperNumbers(
        l_training=30, tau_max_percent=1.0, memory_overhead_percent=7.7,
        static_atm_speedup=1.3, dynamic_atm_speedup=1.5,
        oracle_100_speedup=1.5, oracle_95_speedup=1.6,
        static_correctness=100.0, dynamic_correctness=100.0,
    ),
    "swaptions": PaperNumbers(
        l_training=15, tau_max_percent=20.0, memory_overhead_percent=3.7,
        static_atm_speedup=1.07, dynamic_atm_speedup=1.23,
        oracle_100_speedup=1.1, oracle_95_speedup=1.3,
        static_correctness=100.0, dynamic_correctness=96.8,
    ),
}


def make_benchmark(
    name: str, scale: WorkloadScale | str = WorkloadScale.SMALL, seed: int = 2017
) -> BenchmarkApp:
    """Instantiate a fresh benchmark application by name.

    A fresh instance must be created for every run: the applications mutate
    their data in place (stencil blocks, LU blocks, k-means centers).
    """
    try:
        cls = BENCHMARK_CLASSES[name]
    except KeyError as exc:
        raise WorkloadError(
            f"unknown benchmark {name!r}; available: {', '.join(BENCHMARK_NAMES)}"
        ) from exc
    return cls(scale=scale, seed=seed)
