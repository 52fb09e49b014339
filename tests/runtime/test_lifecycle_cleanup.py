"""Regression tests: executor resources are released on *every* exit path.

The seed's runtime handle only called ``finish()`` on ``__exit__`` when no
exception was in flight, so a raising ``with`` block leaked the process
backend's worker pool and its ``multiprocessing.shared_memory`` segments.
The Session lifecycle closes the executor on the error path too (without
draining), and ``finish()`` releases resources even when the drain raises.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.common.config import RuntimeConfig
from repro.common.exceptions import DrainAbortedError, RuntimeStateError
from repro.runtime.task import TaskType
from repro.session import In, InOut, Out, Session
from repro.testing.faults import BACKENDS, fault_session, raising_body

SHM_DIR = "/dev/shm"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR),
    reason="needs a POSIX shared-memory filesystem to observe segments",
)


def live_segments() -> set[str]:
    """Names of the currently mapped POSIX shared-memory segments."""
    return set(os.listdir(SHM_DIR))


def square_into(src: np.ndarray, dst: np.ndarray) -> None:
    """Module-level task body (the process backend pickles functions)."""
    dst[:] = src ** 2


def submit_square(session: Session, n: int = 3) -> list[np.ndarray]:
    outs = []
    tt = TaskType("leak_probe")
    for _ in range(n):
        src = np.arange(1024.0)
        dst = np.zeros(1024)
        session.submit(tt, square_into, accesses=[Out(dst)], args=(src, dst))
        outs.append(dst)
    return outs


class TestProcessBackendCleanup:
    def test_raising_with_block_leaves_no_segments(self):
        before = live_segments()
        with pytest.raises(RuntimeError, match="boom"):
            with Session(executor="process", cores=2) as session:
                submit_square(session)
                session.wait_all()  # drain so shared segments exist
                assert live_segments() - before, (
                    "expected the process backend to have mapped segments"
                )
                raise RuntimeError("boom")
        assert live_segments() - before == set(), (
            "raising with-block leaked shared-memory segments"
        )

    def test_raising_before_any_drain_leaves_no_segments(self):
        before = live_segments()
        with pytest.raises(RuntimeError):
            with Session(executor="process", cores=2) as session:
                submit_square(session)
                raise RuntimeError("early")
        assert live_segments() - before == set()

    def test_explicit_executor_instance_cleans_up_on_error_too(self):
        from repro.runtime.mp_executor import ProcessExecutor

        before = live_segments()
        config = RuntimeConfig(num_threads=2, executor="process")
        with pytest.raises(RuntimeError):
            with Session(executor=ProcessExecutor(config=config)) as session:
                submit_square(session)
                session.wait_all()
                raise RuntimeError("boom")
        assert live_segments() - before == set()

    def test_finish_releases_pool_and_result_survives(self):
        with Session(executor="process", cores=2) as session:
            outs = submit_square(session)
        assert session.result.tasks_completed == 3
        assert all(o[2] == 4.0 for o in outs)
        # the finalizer ran: the executor refuses further drains
        with pytest.raises(RuntimeStateError):
            session.executor.drain(session.graph)

    def test_finished_session_is_freed_without_the_cyclic_gc(self):
        """close() cuts the executor <-> dispatcher cycle: a finished
        Session (graph, tasks and the arrays they reference) goes away when
        its owner drops it, not at a later garbage-collection pass."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            with Session(executor="process", cores=1) as session:
                submit_square(session)
            executor = weakref.ref(session.executor)
            del session
            assert executor() is None
        finally:
            gc.enable()


class TestProcessBackendFailureCleanup:
    """Supervision failure paths must release resources like the happy path."""

    def test_aborted_drain_leaves_no_segments_or_children(self):
        import multiprocessing

        from repro.testing.faults import fault_session, raising_body, submit_one

        before = live_segments()
        with pytest.raises(DrainAbortedError):
            with fault_session("process") as session:
                submit_square(session)
                submit_one(session, raising_body, label="abort-leak")
                session.wait_all()
        assert live_segments() - before == set(), (
            "aborted process drain leaked shared-memory segments"
        )
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert not any(
            c.name.startswith("repro-worker") and c.is_alive()
            for c in multiprocessing.active_children()
        ), "aborted process drain leaked live worker processes"

    def test_crashed_worker_quarantine_drain_leaves_no_segments_or_children(self):
        import multiprocessing

        from repro.testing.faults import (
            fault_session,
            kill_worker_body,
            submit_one,
        )

        before = live_segments()
        with fault_session(
            "process", on_task_failure="quarantine", allow_worker_kill=True,
            chunk_size=1,
        ) as session:
            submit_one(session, kill_worker_body, label="crash-leak")
            outs = submit_square(session)
            result = session.wait_all()
        assert result.tasks_failed == 1
        assert result.failures[0].error == "WorkerLostError"
        assert all(o[2] == 4.0 for o in outs)
        assert live_segments() - before == set(), (
            "crash-recovery drain leaked shared-memory segments"
        )
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert not any(
            c.name.startswith("repro-worker") and c.is_alive()
            for c in multiprocessing.active_children()
        ), "crash-recovery drain leaked live worker processes"


def fill(dst: np.ndarray, value: float) -> None:
    dst[:] = value


def scribble_then_raise(buf: np.ndarray) -> None:
    buf[:4] = -1.0
    raise ValueError("injected failure after a partial write")


def add_one(buf: np.ndarray) -> None:
    buf += 1.0


class TestFailedDrainKeepsCompletedOutputs:
    """A task's outputs are at home when the task completes, not when the
    drain ends: what completed before a drain failed is not lost."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_aborted_drain_leaves_completed_outputs_at_home(self, backend):
        a, c, d = np.zeros(8), np.zeros(8), np.zeros(8)
        tt = TaskType("abort_chain", memoizable=False)
        with pytest.raises(DrainAbortedError):  # NetworkDrainError on network
            with fault_session(backend, chunk_size=1) as session:
                session.submit(tt, fill, accesses=[Out(a)], args=(a, 7.0))
                session.submit(tt, fill, accesses=[In(a), Out(c)], args=(c, 9.0))
                session.submit(tt, raising_body, accesses=[In(c), Out(d)], args=(c, d))
                session.wait_all()
        assert np.all(a == 7.0) and np.all(c == 9.0)
        assert not d.any()

    def test_quarantined_partial_writes_stay_in_the_segment(self):
        """The failed body's scribble never reaches the host array — not
        even when a sibling region of the same base lands afterwards — the
        independents' outputs do, and the next drain's first touch of the
        scribbled buffer refreshes the segment from the host bytes (a task
        on the failed one's own region would be cancelled at birth: the
        next drain works on the sibling row)."""
        tt = TaskType("quarantine_partial", memoizable=False)
        base = np.zeros((2, 8))
        good = [np.zeros(8) for _ in range(4)]
        with fault_session(
            "process", workers=1, on_task_failure="quarantine", chunk_size=1
        ) as session:
            session.submit(tt, scribble_then_raise, accesses=[InOut(base[0])], args=(base[0],))
            session.submit(tt, fill, accesses=[Out(base[1])], args=(base[1], 5.0))
            for i, block in enumerate(good):
                session.submit(tt, fill, accesses=[Out(block)], args=(block, i + 1.0))
            result = session.wait_all()
            assert result.tasks_failed == 1
            assert not base[0].any(), "a failed task's partial writes came home"
            assert np.all(base[1] == 5.0)
            assert all(np.all(block == i + 1.0) for i, block in enumerate(good))
            entry = session.executor._registry.register(base)
            assert np.all(entry.mirror[0, :4] == -1.0)  # ... they are here

            reference = [base.copy()] + [block.copy() for block in good]
            for (grid, *blocks), runtime in (
                ([base] + good, session), (reference, Session())
            ):
                for array in [grid[1]] + blocks:
                    runtime.submit(tt, add_one, accesses=[InOut(array)], args=(array,))
                runtime.wait_all()
            assert np.array_equal(entry.mirror, base)
            assert session.executor._stats["copyin_refreshed"] == 1
        for array, expected in zip([base] + good, reference):
            assert np.array_equal(array, expected)
        assert not base[0].any() and np.all(base[1] == 6.0)


class TestSerialErrorPath:
    def test_failing_task_still_closes_session(self):
        closed = []

        class Probe(Session):
            def close(self):
                closed.append(True)
                super().close()

        def explode():
            raise ValueError("task failure")

        # Supervision wraps the abort in DrainAbortedError; the original
        # ValueError stays visible in the message and as __cause__.
        with pytest.raises(DrainAbortedError, match="ValueError: task failure") as excinfo:
            with Probe() as session:
                session.submit(TaskType("boom"), explode,
                               accesses=[Out(np.zeros(1))])
        assert isinstance(excinfo.value.__cause__, ValueError)
        # finish() raised during drain but still marked the session closed
        assert not closed  # finish() path, not close(): exception came from drain
        with pytest.raises(RuntimeStateError):
            session.wait_all()
