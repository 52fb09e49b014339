"""Submit-while-draining parity across all four execution backends.

The serving gateway extends the shared dependence graph *while a drain is
in flight*: the graph's ``on_complete`` hook (running on a live drain
worker) admits the next wave of queued work.  This suite pins that contract
for every backend — a second wave submitted from the completion hook
mid-drain must finish, and the final bytes must be bit-identical to
submitting both waves as one up-front batch.

The driver mirrors the gateway's dispatch loop: ``drain`` until the graph —
including anything the hook added after a drain sampled ``all_finished`` —
is really done.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.common.config import RuntimeConfig
from repro.common.hashing import hash_bytes
from repro.runtime.data import In, InOut, Out
from repro.runtime.executor import build_executor
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.task import Task, TaskType
from repro.testing.traffic import accumulate_block, fill_block

FILL = TaskType("drain_fill", memoizable=False)
ACC = TaskType("drain_acc", memoizable=False)
N_BLOCKS = 6
BLOCK = 64

#: The four-backend matrix of the executor parity suite.
CONFIGS = {
    "serial": RuntimeConfig(executor="serial", num_threads=1),
    "threaded": RuntimeConfig(executor="threaded", num_threads=4),
    "process": RuntimeConfig(executor="process", num_threads=2),
    "network": RuntimeConfig(executor="network", num_threads=2),
}


def make_arrays() -> tuple[list[np.ndarray], np.ndarray]:
    return [np.zeros(BLOCK) for _ in range(N_BLOCKS)], np.zeros(BLOCK)


def wave1(blocks: list[np.ndarray]) -> list[Task]:
    return [
        Task(task_type=FILL, function=fill_block, accesses=[Out(block)],
             args=(block, float(i + 1)), task_id=-1)
        for i, block in enumerate(blocks)
    ]


def wave2(blocks: list[np.ndarray], acc: np.ndarray) -> list[Task]:
    # InOut(acc) chains the accumulations in submission order, so the
    # floating-point sum is order-deterministic on every backend.
    return [
        Task(task_type=ACC, function=accumulate_block,
             accesses=[In(block), InOut(acc)], args=(block, acc), task_id=-1)
        for block in blocks
    ]


def checksum(blocks: list[np.ndarray], acc: np.ndarray) -> str:
    digest = hash_bytes(np.ascontiguousarray(acc))
    for block in blocks:
        digest ^= hash_bytes(np.ascontiguousarray(block))
    return f"{digest:016x}"


def drive(executor, graph: TaskDependenceGraph) -> None:
    """The gateway's dispatch loop in miniature: drain until really done."""
    for _ in range(100):
        executor.drain(graph)
        if graph.all_finished:
            return
    raise AssertionError("graph failed to settle within 100 drains")


def run_batch(backend: str):
    blocks, acc = make_arrays()
    executor = build_executor(CONFIGS[backend])
    try:
        graph = TaskDependenceGraph(
            on_ready=executor.notify_ready,
            on_ready_batch=executor.notify_ready_batch,
        )
        graph.add_tasks(wave1(blocks) + wave2(blocks, acc))
        drive(executor, graph)
        result = executor.result()
    finally:
        executor.close()
    return checksum(blocks, acc), result


def run_incremental(backend: str):
    """Wave 2 is submitted from the completion hook, mid-drain."""
    blocks, acc = make_arrays()
    executor = build_executor(CONFIGS[backend])
    try:
        submitted = threading.Event()
        lock = threading.Lock()
        graph_box: list[TaskDependenceGraph] = []

        def on_complete(task: Task) -> None:
            if task.task_type.name != FILL.name:
                return
            with lock:
                if submitted.is_set():
                    return
                submitted.set()
            graph_box[0].add_tasks(wave2(blocks, acc))

        graph = TaskDependenceGraph(
            on_ready=executor.notify_ready,
            on_ready_batch=executor.notify_ready_batch,
            on_complete=on_complete,
        )
        graph_box.append(graph)
        graph.add_tasks(wave1(blocks))
        drive(executor, graph)
        assert submitted.is_set(), "completion hook never fired"
        result = executor.result()
    finally:
        executor.close()
    return checksum(blocks, acc), result


@pytest.fixture(scope="module")
def reference():
    return run_batch("serial")


@pytest.mark.parametrize("backend", list(CONFIGS))
def test_submit_while_draining_matches_batch(backend, reference):
    ref_checksum, ref_result = reference
    batch_checksum, batch_result = (
        reference if backend == "serial" else run_batch(backend)
    )
    incr_checksum, incr_result = run_incremental(backend)
    assert batch_checksum == ref_checksum, (
        f"{backend}: batch output diverged from serial reference"
    )
    assert incr_checksum == batch_checksum, (
        f"{backend}: mid-drain submission changed the output bytes"
    )
    assert incr_result.tasks_completed == 2 * N_BLOCKS
    assert incr_result.tasks_completed == batch_result.tasks_completed
    assert incr_result.tasks_failed == 0
    assert ref_result.tasks_completed == 2 * N_BLOCKS
