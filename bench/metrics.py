"""Metric catalogue and the small statistics the benchmark reports with.

``END_TO_END`` is what a user of the system sees; each entry carries the
bound by which its median may worsen before a change counts as a regression
(``python -m bench compare`` and ``BENCHMARK.json`` use the same numbers).  The
timing bounds are wide because the shared reference host is noisy: ten
back-to-back runs of unchanged code spread by 3-9 % in a good phase and by far
more in a bad one (bench/README.md), and a bound has to sit well above that.  ``DRIVER_GATED`` names the subset that is defined and
non-zero on *every* workload, which is what ``BENCHMARK.json`` may list under
``end_to_end``; the workload-specific ones (reuse, error, request latency, ATM
memory) are reported by the same runs and listed there under ``per_layer``.

``PER_LAYER`` is the outside-in ledger: for every entry the end-to-end metric
it should move and the workload it should move it on (the prediction that a
later change is checked against).  A self-test keeps ``BENCHMARK.json`` in
step with these tables.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "END_TO_END", "DRIVER_GATED", "PER_LAYER", "EndToEnd", "Layer",
    "low_quartile", "spread", "tail_percentile", "rel_error",
]

MEMO = ("memo_hot", "memo_cold", "memo_approx")
GATEWAY = ("gateway_tenants",)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Relative worsening of the median that counts as a regression.
    bound: float
    #: Absolute slack: a change smaller than this never counts (0 = none).
    floor: float
    #: Workloads the metric is defined on (``None`` = all seven).
    workloads: Optional[tuple]
    definition: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25, 0.10, None,
             "child start -> first real submit: imports, warm-up, input "
             "generation, Session/Gateway open, pool spawn/connect"),
    EndToEnd("wall_s", "s", "lower", 0.25, 0.0, None,
             "first submit -> finish() returned, one round of the frozen program, "
             "scaled to the host's quiet speed where the child is pinned"),
    EndToEnd("tasks_per_s", "tasks/s", "higher", 0.25, 0.0, None,
             "tasks completed / wall_s"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10, 0.0, None,
             "ru_maxrss of the measured child plus its reaped children, read "
             "after the first round"),
    EndToEnd("reuse_fraction", "ratio", "higher", 0.0, 0.001, MEMO,
             "(memoized + deferred) / completed, from RunResult"),
    EndToEnd("rel_error", "ratio", "lower", 0.0, 0.0, None,
             "Euclidean relative error of the output vs the serial no-ATM "
             "reference (paper Eq. 3); 0 means a bit-identical checksum"),
    EndToEnd("fail_rate", "ratio", "lower", 0.0, 0.0, None,
             "(tasks failed + cancelled + requests that raised + outputs "
             "that failed verification) / attempted"),
    EndToEnd("req_p50_ms", "ms", "lower", 0.25, 0.0, GATEWAY,
             "interactive tenant: submit_batch sent -> barrier reply, median"),
    EndToEnd("req_p99_ms", "ms", "lower", 0.25, 0.0, GATEWAY,
             "same samples, p99 (or the highest percentile with >= 10 "
             "samples beyond it; the result states which)"),
    EndToEnd("atm_mem_mb", "MB", "lower", 0.02, 0.0, MEMO,
             "sum of ATMEngine.memory_bytes() at finish (Table III numerator)"),
)

#: Defined and never 0 on every workload: BENCHMARK.json's ``end_to_end``.
DRIVER_GATED = ("wall_s", "tasks_per_s", "peak_rss_mb", "setup_s")

#: ``rel_error`` must be exactly 0 except where approximation is the point.
REL_ERROR_LIMIT = {"memo_approx": 0.01}


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    #: End-to-end metric(s) this layer metric should move ...
    moves: str
    #: ... on this workload (everywhere else the prediction is no change).
    on: str


def _layers(on: str, moves: str, *rows: tuple) -> tuple:
    return tuple(Layer(name, unit, better, moves, on) for name, unit, better in rows)


PER_LAYER = (
    # End-to-end by meaning, workload-specific by definition (see module docstring).
    *_layers("memo_*", "reuse_fraction", ("reuse_fraction", "ratio", "higher"),
             ("atm_mem_mb", "MB", "lower")),
    *_layers("all", "rel_error", ("rel_error", "ratio", "lower"),
             ("fail_rate", "ratio", "lower")),
    *_layers("gateway_tenants", "req_p50_ms", ("req_p50_ms", "ms", "lower"),
             ("req_p99_ms", "ms", "lower")),
    # Benchmark-owned controls.
    *_layers("all", "wall_s (control: must not move)",
             ("generator.self_s", "s", "lower"), ("reference.wall_s", "s", "lower"),
             ("kernel.calls", "count", "lower"), ("kernel.busy_s", "s", "lower")),
    *_layers("graph_fine", "tasks_per_s",
             ("session.open_s", "s", "lower"), ("session.submit_calls", "count", "lower"),
             ("session.submit_self_s", "s", "lower"),
             ("session.barrier_calls", "count", "lower"),
             ("session.barrier_self_s", "s", "lower"), ("session.close_s", "s", "lower"),
             ("dependences.calls", "count", "lower"), ("dependences.self_s", "s", "lower"),
             ("dependences.edges", "count", "lower"),
             ("graph.add_self_s", "s", "lower"), ("graph.complete_calls", "count", "lower"),
             ("graph.complete_self_s", "s", "lower"),
             ("scheduler.push_self_s", "s", "lower"), ("scheduler.pop_calls", "count", "lower"),
             ("scheduler.pop_self_s", "s", "lower"), ("scheduler.max_depth", "count", "lower"),
             ("executor.drains", "count", "lower"), ("executor.drain_self_s", "s", "lower")),
    *_layers("memo_hot", "wall_s",
             ("engine.ready_calls", "count", "lower"), ("engine.ready_self_s", "s", "lower"),
             ("engine.copied_mb", "MB", "lower"),
             ("keygen.calls", "count", "lower"), ("keygen.self_s", "s", "lower"),
             ("keygen.hashed_mb", "MB", "lower"),
             ("keygen.key_cache_hit_ratio", "ratio", "higher"),
             ("keygen.digest_cache_hit_ratio", "ratio", "higher"),
             ("tht.lookups", "count", "lower"), ("tht.lookup_self_s", "s", "lower"),
             ("tht.hit_ratio", "ratio", "higher"),
             ("atm.speedup_vs_none", "ratio", "higher")),
    *_layers("memo_cold", "wall_s, atm_mem_mb",
             ("engine.finished_calls", "count", "lower"),
             ("engine.finished_self_s", "s", "lower"), ("engine.stored_mb", "MB", "lower"),
             ("tht.inserts", "count", "lower"), ("tht.insert_self_s", "s", "lower"),
             ("tht.evictions", "count", "lower"), ("tht.entries", "count", "lower"),
             ("ikt.lookups", "count", "lower"), ("ikt.hits", "count", "higher"),
             ("ikt.self_s", "s", "lower")),
    *_layers("memo_approx", "wall_s, reuse_fraction, rel_error",
             ("policy.chosen_p", "ratio", "lower"), ("policy.trained_tasks", "count", "lower")),
    *_layers("dispatch_process", "wall_s, setup_s",
             ("mp.chunks", "count", "lower"), ("mp.dispatch_self_s", "s", "lower"),
             ("mp.result_wait_s", "s", "lower"), ("mp.respawns", "count", "lower"),
             ("mp.dispatch_us_per_task", "us", "lower"),
             ("shm.copy_in_calls", "count", "lower"), ("shm.copy_in_s", "s", "lower"),
             ("shm.copy_out_s", "s", "lower"), ("shm.refreshed_buffers", "count", "lower")),
    *_layers("dispatch_network", "wall_s, peak_rss_mb",
             ("net.chunks", "count", "lower"), ("net.encode_self_s", "s", "lower"),
             ("net.send_self_s", "s", "lower"), ("net.pump_wait_s", "s", "lower"),
             ("net.resubmitted_tasks", "count", "lower"),
             ("net.dispatch_us_per_task", "us", "lower"),
             ("net_wire.frames", "count", "lower"), ("net_wire.encode_s", "s", "lower"),
             ("net_wire.decode_s", "s", "lower"), ("net_wire.payload_mb", "MB", "lower"),
             ("residency.hit_ratio", "ratio", "higher"), ("residency.saved_mb", "MB", "higher"),
             ("residency.self_s", "s", "lower"), ("net_worker.run_chunk_s", "s", "lower")),
    *_layers("gateway_tenants", "req_p50_ms, req_p99_ms, tasks_per_s",
             ("client.submit_calls", "count", "lower"), ("client.submit_s", "s", "lower"),
             ("client.barrier_s", "s", "lower"), ("client.shipped_mb", "MB", "lower"),
             ("admission.enqueue_calls", "count", "lower"),
             ("admission.enqueue_self_s", "s", "lower"),
             ("admission.take_self_s", "s", "lower"), ("admission.max_queued", "count", "lower"),
             ("gateway.task_p50_ms", "ms", "lower"), ("gateway.task_p99_ms", "ms", "lower"),
             ("gateway.bulk_req_p50_ms", "ms", "lower"),
             ("gateway.overhead_ratio", "ratio", "lower")),
    *_layers("all", "none (health of the trace itself)",
             ("trace.spans", "count", "lower"), ("trace.coverage", "ratio", "higher"),
             ("trace.overhead_ratio", "ratio", "lower")),
)


# -- statistics ------------------------------------------------------------------------
def low_quartile(values: Sequence[float]) -> float:
    """First quartile of the rounds of one run (linear interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def spread(values: Sequence[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile distance
    (``statistics.quantiles(n=4)``) from four samples up, else the range."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0 if max(values) == min(values) else math.inf
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return abs(q3 - q1) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def tail_percentile(samples: Sequence[float], wanted: float = 99.0,
                    beyond: int = 10) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile <= ``wanted`` that still
    has at least ``beyond`` samples above it (p99 needs 1000 samples; with
    fewer, a lower percentile is reported and named).  With fewer than
    ``2 * beyond`` samples only the median qualifies."""
    ordered = sorted(samples)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    index = min(int(count * wanted / 100.0), count - 1 - beyond)
    if index < count // 2:
        return 50.0, statistics.median(ordered)
    return min(wanted, 100.0 * index / count), ordered[index]


def rel_error(output, reference) -> float:
    """Euclidean relative error ``||out - ref|| / ||ref||`` (paper Eq. 3)."""
    import numpy as np

    difference = np.linalg.norm(np.subtract(output, reference))
    scale = np.linalg.norm(reference)
    return float(difference / scale) if scale else float(difference)
