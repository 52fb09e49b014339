"""Figure 8: Blackscholes traces and ready-task counts with and without ATM.

The paper compares the execution of Blackscholes with Dynamic ATM against the
baseline and shows that, with ATM, worker threads memoize tasks faster than
the master thread can create them: the ready queue drains and stays close to
empty (Figures 8a/8b), whereas without ATM tasks pile up after each creation
burst (Figures 8c/8d).  This is the task-creation-throughput limitation
discussed in Section V-C.

This module reproduces the experiment with the simulated executor and reports
the mean and maximum ready-queue depth for both runs, plus ASCII traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentSpec, run_benchmark
from repro.runtime.trace import TraceRecorder, render_ascii_trace

__all__ = ["compute", "report"]


@dataclass
class Fig8Result:
    benchmark: str
    cores: int
    with_atm_mean_ready: float
    with_atm_max_ready: int
    without_atm_mean_ready: float
    without_atm_max_ready: int
    with_atm_elapsed: float
    without_atm_elapsed: float
    trace_with: TraceRecorder
    trace_without: TraceRecorder

    @property
    def speedup(self) -> float:
        if self.with_atm_elapsed <= 0:
            return 1.0
        return self.without_atm_elapsed / self.with_atm_elapsed


def _mean_ready(trace: TraceRecorder) -> float:
    series = trace.ready_depth_series()
    if not series:
        return 0.0
    return float(np.mean([depth for _, depth in series]))


def compute(
    benchmark: str = "blackscholes",
    scale: str = "small",
    cores: int = 8,
    seed: int = 2017,
) -> Fig8Result:
    with_atm = run_benchmark(
        ExperimentSpec(
            benchmark=benchmark, scale=scale, mode="dynamic", cores=cores,
            enable_tracing=True, seed=seed,
        )
    )
    without_atm = run_benchmark(
        ExperimentSpec(
            benchmark=benchmark, scale=scale, mode="none", cores=cores,
            enable_tracing=True, seed=seed,
        )
    )
    return Fig8Result(
        benchmark=benchmark,
        cores=cores,
        with_atm_mean_ready=_mean_ready(with_atm.trace),
        with_atm_max_ready=with_atm.trace.max_ready_depth(),
        without_atm_mean_ready=_mean_ready(without_atm.trace),
        without_atm_max_ready=without_atm.trace.max_ready_depth(),
        with_atm_elapsed=with_atm.elapsed,
        without_atm_elapsed=without_atm.elapsed,
        trace_with=with_atm.trace,
        trace_without=without_atm.trace,
    )


def report(result: Fig8Result) -> str:
    headers = ["configuration", "mean ready tasks", "max ready tasks", "elapsed (us)"]
    rows = [
        ["with dynamic ATM", result.with_atm_mean_ready, result.with_atm_max_ready, result.with_atm_elapsed],
        ["without ATM", result.without_atm_mean_ready, result.without_atm_max_ready, result.without_atm_elapsed],
    ]
    parts = [
        f"Figure 8: {result.benchmark} ready-task pressure with/without ATM "
        f"(speedup {result.speedup:.2f}x)",
        format_table(headers, rows, float_format="{:.1f}"),
        "",
        "--- with dynamic ATM ---",
        render_ascii_trace(result.trace_with),
        "",
        "--- without ATM ---",
        render_ascii_trace(result.trace_without),
    ]
    return "\n".join(parts)
