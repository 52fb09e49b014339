"""Concurrency stress: wide fan-out, high memoization churn, 8+ workers.

The graph is a wide fan-out with deliberately nasty THT geometry (a single
bucket of capacity 2 against 8 distinct input patterns), so entries are
continuously evicted and re-inserted while 8 workers race on lookups,
commits and (threaded) in-flight deferrals.

Asserted invariants, for both :class:`ThreadedExecutor` and
:class:`ProcessExecutor`:

* the drain finishes inside a bounded wall-clock window and never raises
  :class:`RuntimeStateError` (no worker starvation, no lost completion);
* every task completes exactly once and the accounting partitions
  (``executed + memoized + deferred == completed``);
* the per-bucket THT counter totals match the completed eligible tasks:
  each eligible task performs exactly one THT probe, so
  ``hits + misses == eligible tasks`` even across eviction churn — for the
  process backend this holds on the *merged* parent counters.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig
from repro.session import Session
from repro.runtime.data import In, Out
from repro.runtime.executor import ThreadedExecutor
from repro.runtime.mp_executor import ProcessExecutor
from repro.runtime.task import TaskType

WORKERS = 8
PATTERNS = 8          # distinct inputs; 4x the THT capacity below
FAN_OUT = 320         # consumer tasks, all independent (wide ready queue)
WALL_CLOCK_LIMIT = 120.0


def fill_pattern(dst, value):
    dst[:] = value


def consume(src, dst):
    dst[:] = np.sqrt(np.abs(src)) + src


def churn_config() -> ATMConfig:
    # One bucket, two entries: every third distinct pattern evicts one.
    return ATMConfig(tht_bucket_bits=0, tht_bucket_capacity=2)


def build_fanout(runtime: Session):
    produce_type = TaskType("stress_produce", memoizable=False)
    consume_type = TaskType("stress_consume", memoizable=True)
    sources = [np.zeros(64) for _ in range(PATTERNS)]
    outs = [np.zeros(64) for _ in range(FAN_OUT)]
    for index, source in enumerate(sources):
        runtime.submit(
            produce_type,
            fill_pattern,
            accesses=[Out(source)],
            args=(source, float(index + 1)),
        )
    for index, out in enumerate(outs):
        source = sources[index % PATTERNS]
        runtime.submit(
            consume_type,
            consume,
            accesses=[In(source), Out(out)],
            args=(source, out),
        )
    return sources, outs


def check_outputs(sources, outs):
    for index, out in enumerate(outs):
        expected = np.sqrt(np.abs(sources[index % PATTERNS])) + sources[index % PATTERNS]
        assert np.allclose(out, expected), f"consumer {index} produced wrong bytes"


@pytest.mark.parametrize("backend", ["threaded", "process"])
def test_stress_fanout_churn(backend):
    atm_config = churn_config()
    engine = ATMEngine(
        config=atm_config, policy=StaticATMPolicy(atm_config), num_threads=WORKERS
    )
    runtime_config = RuntimeConfig(num_threads=WORKERS, executor=backend)
    if backend == "threaded":
        executor = ThreadedExecutor(config=runtime_config)
    else:
        executor = ProcessExecutor(config=runtime_config)
    executor.DRAIN_TIMEOUT = WALL_CLOCK_LIMIT  # fail loudly instead of hanging

    runtime = Session(executor=executor, engine=engine)
    sources, outs = build_fanout(runtime)
    t0 = time.perf_counter()
    result = runtime.finish()  # raises RuntimeStateError on starvation/timeouts
    wall = time.perf_counter() - t0

    assert wall < WALL_CLOCK_LIMIT
    total = PATTERNS + FAN_OUT
    assert result.tasks_completed == total
    assert (
        result.tasks_executed + result.tasks_memoized + result.tasks_deferred
        == total
    )
    check_outputs(sources, outs)

    # One THT probe per eligible task, eviction churn notwithstanding.
    tht = engine.tht
    assert tht.hits + tht.misses == FAN_OUT
    assert engine.stats.tasks_seen == FAN_OUT
    assert tht.evictions > 0, "churn config should force continuous evictions"
    # Every avoided execution was fed from a real commit.
    assert engine.stats.memoized_tasks == result.tasks_memoized + result.tasks_deferred
