"""The bounded live window (DESIGN.md §4.2).

A submission that leaves a Session's graph holding ``executor.live_window``
live tasks runs the barrier (``wait_all``) before it returns.  The window is
patched to 64 here so a program of a few hundred tasks crosses it several
times; outputs must stay bit-identical to an unbounded run, the simulator
keeps no window, and a task body that submits into its own Session never
re-enters the drain.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import DrainAbortedError, RuntimeStateError
from repro.common.hashing import hash_bytes
from repro.runtime.data import InOut, Out
from repro.runtime.executor import BaseExecutor
from repro.runtime.task import TaskType
from repro.session import Session
from repro.testing.faults import fault_session, raising_body, square_body, submit_one
from repro.testing.traffic import fill_block

WINDOW = 64
N_TASKS = 4 * WINDOW + 1
BACKENDS = ("serial", "threaded", "process")
STEP = TaskType("window_step", memoizable=False)


def scale_add(acc: np.ndarray, value: float) -> None:
    # Not associative in floating point: any reordering of the chain shows.
    acc[:] = acc * 1.000001 + value


@pytest.fixture
def window(monkeypatch):
    monkeypatch.setattr(BaseExecutor, "live_window", WINDOW)
    return WINDOW


def run_program(backend: str, shape: str, *, batched: bool = False):
    """``N_TASKS`` tasks, one chain over one block or all independent.

    Returns (output digest, run result, live counts after each submission).
    """
    blocks = [np.zeros(8) for _ in range(1 if shape == "chained" else N_TASKS)]
    specs = [
        (STEP, scale_add, [InOut(blocks[0])], (blocks[0], float(i)))
        if shape == "chained"
        else (STEP, fill_block, [Out(blocks[i])], (blocks[i], float(i)))
        for i in range(N_TASKS)
    ]
    live_after = []
    with Session(executor=backend, cores=2) as s:
        if batched:
            for start in range(0, N_TASKS, 10):
                s.submit_batch(specs[start:start + 10])
                live_after.append(s.graph.live_count)
        else:
            for spec in specs:
                s.submit(*spec)
                live_after.append(s.graph.live_count)
        result = s.finish()
    digest = 0
    for block in blocks:
        digest ^= hash_bytes(np.ascontiguousarray(block))
    return digest, result, live_after


@pytest.mark.parametrize("shape", ["chained", "independent"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_window_bounds_live_tasks_and_keeps_outputs(backend, shape, monkeypatch):
    monkeypatch.setattr(BaseExecutor, "live_window", None)
    unbounded, plain, live = run_program(backend, shape)
    assert max(live) == N_TASKS and plain.extra["window_barriers"] == 0

    monkeypatch.setattr(BaseExecutor, "live_window", WINDOW)
    digest, result, live = run_program(backend, shape)
    assert max(live) < WINDOW
    assert digest == unbounded
    assert result.tasks_completed == N_TASKS
    assert result.extra["window_barriers"] == N_TASKS // WINDOW


@pytest.mark.parametrize("backend", BACKENDS)
def test_submit_batch_runs_the_barrier_after_the_batch(backend, monkeypatch):
    monkeypatch.setattr(BaseExecutor, "live_window", None)
    unbounded, _, _ = run_program(backend, "chained", batched=True)
    monkeypatch.setattr(BaseExecutor, "live_window", WINDOW)
    digest, result, live = run_program(backend, "chained", batched=True)
    assert max(live) < WINDOW
    assert digest == unbounded
    # Batches of 10 fill the window at their 7th, 14th and 21st hand-over,
    # each whole in the graph (70 live) before its barrier runs.
    assert result.extra["window_barriers"] == 3


def test_no_barrier_inside_a_batch_block(window):
    blocks = [np.zeros(1) for _ in range(2 * WINDOW)]
    with Session(executor="serial") as s:
        with s.batch():
            for i, block in enumerate(blocks):
                s.submit(STEP, fill_block, [Out(block)], (block, float(i)))
            assert s.graph.live_count == 0  # buffered, nothing drained
        # The hand-over fills the window: the block's exit ran the barrier.
        assert s.graph.live_count == 0
        assert s.result.extra["window_barriers"] == 1
    assert [b[0] for b in blocks] == [float(i) for i in range(2 * WINDOW)]


def simulated_schedule() -> tuple[list, list]:
    """The independent program on the simulator: (schedule rows, drains)."""
    drains = []
    with Session(executor="simulated", cores=4) as s:
        drain = s.executor.drain

        def counting_drain(graph):
            drains.append(graph.live_count)
            return drain(graph)

        s.executor.drain = counting_drain
        blocks = [np.zeros(8) for _ in range(N_TASKS)]
        tasks = [
            s.submit(STEP, fill_block, [Out(b)], (b, float(i)))
            for i, b in enumerate(blocks)
        ]
    rows = [(t.task_id, t.executed_on, t.start_time, t.finish_time) for t in tasks]
    return rows, drains


def test_simulated_session_runs_one_drain_and_keeps_its_schedule(monkeypatch):
    monkeypatch.setattr(BaseExecutor, "live_window", None)
    unbounded, _ = simulated_schedule()
    monkeypatch.setattr(BaseExecutor, "live_window", WINDOW)
    schedule, drains = simulated_schedule()
    assert drains == [N_TASKS]
    assert schedule == unbounded


def spawner(session: Session, sinks: list) -> None:
    """A task body that submits ``2 * WINDOW`` tasks into its own session."""
    for i, sink in enumerate(sinks):
        session.submit(STEP, fill_block, [Out(sink)], (sink, float(i)))


@pytest.mark.parametrize("backend", ["serial", "threaded"])
def test_task_submitting_into_its_own_session_does_not_reenter_the_drain(
    backend, window
):
    sinks = [np.zeros(1) for _ in range(2 * WINDOW)]
    config = {"runtime": {"executor": backend, "num_threads": 2, "drain_timeout_s": 30.0}}
    with Session(config) as s:
        s.submit(STEP, spawner, [Out(np.zeros(1))], (s, sinks))
        result = s.finish()
    assert result.tasks_completed == 1 + 2 * WINDOW
    assert result.extra["window_barriers"] == 0
    assert [sink[0] for sink in sinks] == [float(i) for i in range(2 * WINDOW)]


def assert_refuses_work(s: Session) -> None:
    aborted = r"previous drain aborted \(DrainAbortedError\)"
    with pytest.raises(RuntimeStateError, match=aborted):
        submit_one(s, square_body)
    with pytest.raises(RuntimeStateError, match="previous drain aborted"):
        s.submit_batch([(STEP, fill_block, [Out(np.zeros(1))], (np.zeros(1), 1.0))])
    with pytest.raises(RuntimeStateError, match="previous drain aborted"):
        with s.batch():
            submit_one(s, square_body)


@pytest.mark.parametrize("backend", BACKENDS)
def test_aborted_window_barrier_refuses_further_submissions(backend, window):
    s = fault_session(backend, on_task_failure="abort")
    try:
        for _ in range(WINDOW - 1):
            submit_one(s, square_body)
        # The submission that fills the window opens the failing barrier.
        with pytest.raises(DrainAbortedError, match="doomed"):
            submit_one(s, raising_body, label="doomed")
        assert s.result.extra["window_barriers"] == 1
        assert_refuses_work(s)
    finally:
        s.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_refuses_work_after_an_aborted_wait_all(backend):
    s = fault_session(backend, on_task_failure="abort")
    try:
        submit_one(s, raising_body, label="doomed")
        with pytest.raises(DrainAbortedError, match="doomed"):
            s.wait_all()
        assert_refuses_work(s)
    finally:
        s.close()


def test_quarantined_failure_in_a_window_barrier_is_reported_at_finish(window):
    with fault_session("threaded", on_task_failure="quarantine") as s:
        submit_one(s, raising_body, label="doomed")
        for _ in range(2 * WINDOW):
            submit_one(s, square_body)
        result = s.finish()
    assert result.tasks_failed == 1
    assert result.tasks_completed == 2 * WINDOW
    assert result.extra["window_barriers"] == 2
    assert [f.label for f in result.failures] == ["doomed#0"]
