"""Figure 7: Gauss-Seidel execution traces at 2 and 8 cores.

The paper shows two Paraver traces of a memoization-intensive phase of
Gauss-Seidel under the Oracle (95 %) configuration and observes that the
ATM-related states (hash-key computation and memoization copies) become on
average ~60 % slower at 8 cores than at 2 cores because they contend for
shared memory bandwidth.

This module runs the same experiment on the simulated executor with tracing
enabled and reports (a) the mean duration of each ATM state at both core
counts, (b) the slowdown ratio between them, and (c) a coarse ASCII rendering
of both traces.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.evaluation.oracle import find_oracle
from repro.evaluation.reporting import format_table
from repro.evaluation.runner import ExperimentSpec, run_benchmark
from repro.runtime.trace import CoreState, TraceRecorder, render_ascii_trace

__all__ = ["compute", "report"]


@dataclass
class Fig7Result:
    benchmark: str
    cores_small: int
    cores_large: int
    mean_hash_small: float
    mean_hash_large: float
    mean_memo_small: float
    mean_memo_large: float
    trace_small: TraceRecorder
    trace_large: TraceRecorder
    oracle_p: float

    @property
    def hash_slowdown(self) -> float:
        if self.mean_hash_small <= 0:
            return 1.0
        return self.mean_hash_large / self.mean_hash_small

    @property
    def memoization_slowdown(self) -> float:
        if self.mean_memo_small <= 0:
            return 1.0
        return self.mean_memo_large / self.mean_memo_small


def _traced_run(benchmark: str, scale: str, cores: int, p: float, seed: int):
    spec = ExperimentSpec(
        benchmark=benchmark, scale=scale, mode="fixed_p", p=p, cores=cores,
        enable_tracing=True, seed=seed,
    )
    return run_benchmark(spec)


def compute(
    benchmark: str = "gauss-seidel",
    scale: str = "small",
    cores_small: int = 2,
    cores_large: int = 8,
    seed: int = 2017,
) -> Fig7Result:
    oracle = find_oracle(benchmark, min_correctness=95.0, scale=scale, cores=cores_large, seed=seed)
    small = _traced_run(benchmark, scale, cores_small, oracle.chosen_p, seed)
    large = _traced_run(benchmark, scale, cores_large, oracle.chosen_p, seed)
    return Fig7Result(
        benchmark=benchmark,
        cores_small=cores_small,
        cores_large=cores_large,
        mean_hash_small=small.trace.mean_state_duration(CoreState.ATM_HASH),
        mean_hash_large=large.trace.mean_state_duration(CoreState.ATM_HASH),
        mean_memo_small=small.trace.mean_state_duration(CoreState.ATM_MEMOIZATION),
        mean_memo_large=large.trace.mean_state_duration(CoreState.ATM_MEMOIZATION),
        trace_small=small.trace,
        trace_large=large.trace,
        oracle_p=oracle.chosen_p,
    )


def report(result: Fig7Result) -> str:
    headers = ["state", f"{result.cores_small} cores (us)", f"{result.cores_large} cores (us)", "slowdown"]
    rows = [
        ["ATM:Hash-key computation", result.mean_hash_small, result.mean_hash_large, result.hash_slowdown],
        ["ATM:Task Memoization", result.mean_memo_small, result.mean_memo_large, result.memoization_slowdown],
    ]
    parts = [
        f"Figure 7: {result.benchmark} trace, Oracle(95%) p={100*result.oracle_p:.4g}%",
        format_table(headers, rows, float_format="{:.3f}"),
        "",
        f"--- {result.cores_small}-core trace ---",
        render_ascii_trace(result.trace_small),
        "",
        f"--- {result.cores_large}-core trace ---",
        render_ascii_trace(result.trace_large),
    ]
    return "\n".join(parts)
