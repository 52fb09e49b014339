"""A finished task is forgotten: long Sessions and a gateway hold only live tasks.

Beside the leak check of ``conftest.py`` (threads, processes, segments),
this is the check on what the runtime's bookkeeping keeps.  A probe runs 20
rounds of two-access tasks over one set of arrays, each round ending in a
barrier and ``gc.collect()``, under ``tracemalloc``: after round 0, traced
memory and the number of GC-tracked objects may grow by at most 5 % — on
serial, threaded, process and simulated Sessions, and on a gateway serving two tenants
for 1 000 requests.  An array the program drops after a task wrote it and
another read it must be collected after the barrier, and the dependence
tracker's index for it with it.  A process Session that ships fresh arrays
round after round holds a flat number of shared-memory segments.  A task
names its owner only while it is live: the tasks of a finished Session keep
neither the Session nor its engine.  A live task costs the collector three
objects: regions share their accesses among the tasks that declare them.
"""

from __future__ import annotations

import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.runtime.data import DataRegion, In, Out
from repro.runtime.task import TaskType
from repro.serving import Gateway, GatewayClient
from repro.session import ReproConfig, Session

ROUNDS = 20
#: Allowed growth of traced memory and GC-tracked objects after round 0.
GROWTH = 1.05
#: Gateway requests (one ``submit_batch`` + barrier each), over both tenants.
REQUESTS = 1000
#: A single block this large in Python's own allocation domain is an
#: interpreter or NumPy table that grows on its own schedule (NumPy 2.4 doubles
#: one behind ``__array_interface__["data"]`` every ~10^4-10^5 reads, whoever
#: reads it); it is left out.  Per-task state is small blocks, and array data
#: lives in NumPy's own domain, which is always counted.
TABLE_BYTES = 256 << 10

COPY = TaskType("retention_copy")
MEMO_COPY = TaskType("retention_memo_copy", memoizable=True)
STENCIL = TaskType("retention_stencil")

#: GC-tracked objects a live task may add: itself, its access tuple and its
#: successor list.
TASK_OBJECTS = 3
#: ... and a kept region, once: its access cache, a shared access and a weak
#: reference per mode declared, the tracker's state and a weak reference to
#: it (7.4 on average, the session's own few included).
REGION_OBJECTS = 10


def copy_row(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = src


def stencil(left: np.ndarray, mid: np.ndarray, right: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = (left + mid + right) / 3


def _footprint() -> tuple[int, int]:
    gc.collect()
    traced = sum(
        trace.size for trace in tracemalloc.take_snapshot().traces
        if trace.domain != 0 or trace.size < TABLE_BYTES
    )
    return traced, len(gc.get_objects())


def _assert_flat(rounds) -> None:
    """Drive ``rounds`` (a generator that sets up inside the trace and
    yields after each round) and compare every later round with round 0."""
    tracemalloc.start()
    try:
        samples = [_footprint() for _ in rounds]
    finally:
        tracemalloc.stop()
    assert len(samples) == ROUNDS
    (memory, objects), later = samples[0], samples[1:]
    peak_memory = max(m for m, _ in later)
    peak_objects = max(o for _, o in later)
    assert peak_memory <= memory * GROWTH, f"traced memory {memory} -> {peak_memory} B"
    assert peak_objects <= objects * GROWTH, f"GC-tracked objects {objects} -> {peak_objects}"


def _session_rounds(executor: str, rows: int):
    source = np.ones((rows, 512))  # 4 KiB rows: round 0 holds ~rows * 4 KiB
    target = np.zeros((rows, 8))
    config = {"runtime": {"executor": executor, "num_threads": 2}}
    with Session(config) as session:
        for _ in range(ROUNDS):
            for i in range(rows):
                src, dst = source[i, :8], target[i]
                session.submit(COPY, copy_row, [In(src), Out(dst)], (src, dst))
            session.wait_all()
            yield
    assert np.all(target == 1.0)


@pytest.mark.parametrize(
    "executor, rows", [("serial", 256), ("threaded", 256), ("process", 64), ("simulated", 256)]
)
def test_a_long_session_stays_flat(executor, rows):
    _assert_flat(_session_rounds(executor, rows))


def _gateway_rounds():
    config = ReproConfig().with_overrides(runtime={"executor": "serial"})
    per_round = REQUESTS // ROUNDS // 2
    tenants = [(np.ones((2, 65536)), np.zeros((2, 8))) for _ in range(2)]  # 1 MiB read side
    with Gateway(config) as gateway:
        clients = [
            GatewayClient("127.0.0.1", gateway.port, tenant=f"retention-{i}") for i in range(2)
        ]
        try:
            for _ in range(ROUNDS):
                for _ in range(per_round):
                    for client, (source, target) in zip(clients, tenants):
                        client.submit_batch([
                            (COPY, copy_row, [In(source[i, :8]), Out(target[i])],
                             (source[i, :8], target[i]))
                            for i in range(len(target))
                        ])
                        client.wait_all()
                yield
        finally:
            for client in clients:
                client.close()
    assert all(np.all(target == 1.0) for _, target in tenants)


def test_a_gateway_serving_two_tenants_stays_flat():
    _assert_flat(_gateway_rounds())


def test_a_live_task_costs_three_gc_tracked_objects():
    """``graph_fine``'s shape held undrained: ping-pong sweeps of three reads
    and a write over kept row regions."""
    rows, sweeps = 64, 32
    grids = [list(np.zeros((rows, 8))), list(np.zeros((rows, 8)))]
    regions = [[DataRegion(row) for row in grid] for grid in grids]
    with Session({"runtime": {"executor": "serial"}}) as session:
        gc.collect()
        before = len(gc.get_objects())
        for sweep in range(sweeps):
            src, dst = sweep % 2, 1 - sweep % 2
            for i in range(rows):
                left, right = i - 1, (i + 1) % rows
                session.submit(
                    STENCIL, stencil,
                    [In(regions[src][left]), In(regions[src][i]), In(regions[src][right]),
                     Out(regions[dst][i])],
                    (grids[src][left], grids[src][i], grids[src][right], grids[dst][i]),
                )
        gc.collect()
        added = len(gc.get_objects()) - before
        budget = TASK_OBJECTS * rows * sweeps + REGION_OBJECTS * 2 * rows
        assert added <= budget, f"{added} GC-tracked objects for {rows * sweeps} tasks"


@pytest.mark.parametrize("executor", ["serial", "threaded", "process", "simulated"])
def test_a_dropped_array_is_collected_after_the_barrier(executor):
    kept = np.ones(1024)
    with Session({"runtime": {"executor": executor, "num_threads": 2}}) as session:
        scratch = np.zeros(1024)
        dropped, key = weakref.ref(scratch), id(scratch)
        session.submit(COPY, copy_row, [In(kept), Out(scratch)], (kept, scratch))
        session.submit(COPY, copy_row, [In(scratch), Out(kept)], (scratch, kept))
        del scratch
        session.wait_all()
        gc.collect()
        assert dropped() is None
        assert key not in session.graph._tracker._buffers


@pytest.mark.parametrize("executor", ["serial", "threaded", "process"])
def test_kept_tasks_keep_no_engine_alive(executor):
    source = np.ones(8)
    config = {"runtime": {"executor": executor, "num_threads": 2}, "atm": {"mode": "static"}}
    with Session(config) as session:
        tasks = [
            session.submit(MEMO_COPY, copy_row, [In(source), Out(dst)], (source, dst))
            for dst in [np.zeros(8) for _ in range(4)]
        ]
        engine = weakref.ref(session.engine)
    # The twins hit the THT or wait on the IKT for the first one.
    assert session.result.tasks_memoized + session.result.tasks_deferred == 3
    assert all(task.state.is_success and task.owner is None for task in tasks)
    del session
    gc.collect()
    assert engine() is None


def _psm_names() -> int:
    return sum(name.startswith("psm_") for name in os.listdir("/dev/shm"))


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm to count")
def test_fresh_arrays_every_round_hold_a_flat_number_of_segments():
    """50 rounds of 200 two-array tasks, each on arrays made for it: a
    segment lives as long as its array, so after round 1 neither the
    executor's live segments nor the ``psm_*`` names in /dev/shm grow."""
    with Session({"runtime": {"executor": "process", "num_threads": 2}}) as session:
        counts = []
        for _ in range(50):
            for i in range(200):
                src, dst = np.full(8, float(i)), np.zeros(8)
                session.submit(COPY, copy_row, [In(src), Out(dst)], (src, dst))
            session.wait_all()
            counts.append((len(session.executor._registry), _psm_names()))
        assert np.all(dst == 199.0)
    (segments, names), later = counts[1], counts[2:]
    assert max(s for s, _ in later) <= segments <= 400
    assert max(n for _, n in later) <= names
