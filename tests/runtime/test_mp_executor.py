"""Unit tests for the multiprocess backend: shm protocol, parent-side ATM, lifecycle."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig
from repro.common.exceptions import RuntimeStateError
from repro.runtime.atm_protocol import ATMAction, ATMCommitInfo, ATMDecision
from repro.session import Session
from repro.runtime.data import DataRegion, In, InOut, Out, region_versions
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.mp_executor import ProcessExecutor
from repro.runtime.shm import SharedBufferRegistry, WorkerArena
from repro.runtime.task import TaskState, TaskType


def make_process_runtime(workers=2, engine=None, **overrides) -> Session:
    config = RuntimeConfig(num_threads=workers, executor="process", **overrides)
    return Session(executor=ProcessExecutor(config=config), engine=engine)


def square(src, dst):
    dst[:] = src ** 2


def bump(buf):
    buf += 1.0


def explode(buf):
    raise ValueError("worker task failure")


def reduce_parts(dst, sources):
    dst[:] = sum(sources)


SQUARE = TaskType("mp_square", memoizable=True)


class TestSharedMemoryProtocol:
    def test_roundtrip_preserves_view_identity_and_bytes(self):
        registry = SharedBufferRegistry()
        base = np.arange(24, dtype=np.float64).reshape(4, 6)
        view = base[1:3, 2:5]                    # non-trivial strides
        ref = registry.array_ref(view)
        arena = WorkerArena()
        arena.attach(registry.table())  # the chunk's buffer table
        rebuilt = arena.view(ref)
        assert rebuilt.shape == view.shape
        assert rebuilt.strides == view.strides
        assert np.array_equal(rebuilt, view)
        # Two views of the same segment share one ndarray base.
        other = arena.view(registry.array_ref(base[0]))
        assert rebuilt.base is other.base
        arena.close()
        registry.close()

    def test_copy_in_skips_unchanged_and_bumps_changed(self):
        registry = SharedBufferRegistry()
        data = np.zeros(8)
        region = DataRegion(data[2:6])           # any view names its base
        entry = registry.register(data)

        def version():
            return region_versions.version_of(data)

        assert registry.copy_in([region]) == 0   # registration seeded bytes
        version_before = version()
        data[:] = 7.0                            # parent-side mutation
        assert registry.copy_in([region]) == 0   # fresh in this drain: no check
        assert version() == version_before
        registry.fresh.clear()                   # the next drain opens
        assert registry.copy_in([region, region]) == 1
        assert version() > version_before
        assert np.array_equal(entry.mirror, data)
        version_after = version()
        registry.fresh.clear()
        assert registry.copy_in([region]) == 0   # compared, unchanged
        assert version() == version_after
        registry.close()

    def test_a_collected_base_is_released_at_the_next_call(self):
        registry = SharedBufferRegistry()
        arena = WorkerArena()
        try:
            kept, dropped = np.zeros(8), np.ones(8)
            refs = [registry.array_ref(kept), registry.array_ref(dropped)]
            arena.attach(registry.table())
            views = [arena.view(ref) for ref in refs]
            assert len(registry) == 2
            del dropped, views
            assert len(registry) == 2            # unlinked only by release()
            slots = registry.release()
            assert slots == [refs[1][0]]
            assert len(registry) == 1
            arena.release(slots)
            assert np.array_equal(arena.view(refs[0]), kept)
            with pytest.raises(RuntimeStateError):
                arena.view(refs[1])
        finally:
            arena.close()
            registry.close()


class TestProcessExecutorLifecycle:
    def test_empty_graph_drain_returns_zero_result(self):
        executor = ProcessExecutor(config=RuntimeConfig(num_threads=2, executor="process"))
        try:
            result = executor.drain(TaskDependenceGraph(on_ready=executor.notify_ready))
            assert result.tasks_completed == 0
            assert result.reuse_fraction == 0.0
        finally:
            executor.close()

    def test_close_is_idempotent_and_drain_after_close_raises(self):
        runtime = make_process_runtime(workers=2)
        src = np.arange(8.0)
        out = np.zeros(8)
        runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        runtime.finish()                             # finish() closes the pool
        executor = runtime.executor
        executor.close()                             # second close: no-op
        with pytest.raises(RuntimeStateError):
            executor.drain(TaskDependenceGraph(on_ready=executor.notify_ready))

    def test_worker_exception_propagates_with_traceback(self):
        runtime = make_process_runtime(workers=2)
        boom = TaskType("mp_boom")
        buf = np.zeros(1)
        runtime.submit(boom, explode, accesses=[Out(buf)], args=(buf,))
        try:
            with pytest.raises(RuntimeStateError, match="worker task failure"):
                runtime.wait_all()
        finally:
            runtime.executor.close()

    def test_unpicklable_task_function_raises_instead_of_hanging(self):
        runtime = make_process_runtime(workers=1)
        local_fn_type = TaskType("mp_lambda")
        buf = np.zeros(1)
        runtime.submit(
            local_fn_type, lambda b: None, accesses=[Out(buf)], args=(buf,)
        )
        try:
            with pytest.raises(RuntimeStateError, match="picklable"):
                runtime.wait_all()
        finally:
            runtime.executor.close()

    def test_worker_crash_is_charged_to_the_running_task_only(self):
        """Answers are written before the next chunk starts and read before
        a death is judged, so the crash budget (one resubmission here) is
        spent on the poison task alone: exactly two respawns, and no
        bystander whose answer died with the worker is ever quarantined.
        (Charging the oldest *unanswered* chunk blamed bystanders in about
        half the rounds while answers could sit in a feeder thread.)"""
        from repro.testing.faults import (
            fault_session, kill_worker_body, square_body, submit_one,
        )

        for _ in range(10):
            with fault_session(
                "process", workers=2, chunk_size=1, on_task_failure="quarantine",
                allow_worker_kill=True,
            ) as session:
                submit_one(session, kill_worker_body, label="poison")
                sinks = [submit_one(session, square_body, label="work") for _ in range(8)]
                result = session.wait_all()
            assert [f.error for f in result.failures] == ["WorkerLostError"]
            assert result.tasks_completed == 8
            assert result.extra["process_backend"]["respawns"] == 2
            for src, dst in sinks:
                assert np.array_equal(dst, src ** 2)

    def test_any_protocol_engine_is_consulted_in_the_parent(self):
        """Workers hold no engine, so a custom one needs no recipe: the
        parent looks the task up and commits it, once each."""
        calls = []

        class CountingEngine:
            def task_ready(self, task, worker_id=0):
                calls.append("ready")
                return ATMDecision(action=ATMAction.EXECUTE, atm_handled=True)

            def task_finished(self, task, decision, executed, worker_id=0):
                calls.append("finished" if executed else "skipped")
                return ATMCommitInfo()

            def task_abandoned(self, task, decision):
                return []

        runtime = make_process_runtime(workers=1, engine=CountingEngine())
        src, dst = np.full(4, 3.0), np.zeros(4)
        runtime.submit(SQUARE, square, accesses=[In(src), Out(dst)], args=(src, dst))
        with runtime:
            runtime.wait_all()
        assert calls == ["ready", "finished"]
        assert np.all(dst == 9.0)


class TestProcessExecutorSemantics:
    def test_dependence_chain_across_barriers(self):
        """Barriers reuse the live pool; state flows drain -> parent -> drain."""
        runtime = make_process_runtime(workers=2)
        increment = TaskType("mp_increment")
        data = np.zeros(4)
        for _ in range(3):
            runtime.submit(increment, bump, accesses=[InOut(data)], args=(data,))
        runtime.wait_all()
        assert np.allclose(data, 3.0)
        for _ in range(2):
            runtime.submit(increment, bump, accesses=[InOut(data)], args=(data,))
        result = runtime.finish()
        assert np.allclose(data, 5.0)
        assert result.tasks_completed == 5
        backend = result.extra["process_backend"]
        assert backend["workers"] == 2
        assert backend["dispatched"] == 5

    def test_chunked_dispatch_covers_wide_graphs(self):
        runtime = make_process_runtime(workers=2, mp_chunk_size=4)
        src = np.arange(16.0)
        outs = [np.zeros(16) for _ in range(21)]
        for out in outs:
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        result = runtime.finish()
        assert result.tasks_completed == 21
        assert result.extra["process_backend"]["chunks"] >= 6  # ceil(21 / 4)
        assert all(np.allclose(out, src ** 2) for out in outs)

    def test_the_parent_engine_sees_each_task_once(self):
        config = ATMConfig(use_ikt=False)
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=2)
        runtime = make_process_runtime(workers=2, engine=engine)
        src = np.arange(32.0)
        for _ in range(6):
            out = np.zeros(32)
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        runtime.wait_all()
        for _ in range(6):
            out = np.zeros(32)
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        result = runtime.finish()
        stats = engine.stats
        assert stats.tasks_seen == 12
        assert stats.tht_hits + stats.misses == 12
        assert engine.tht.hits + engine.tht.misses == 12
        assert result.tasks_memoized == stats.tht_hits
        # The six twins of the first drain are looked up together (no IKT:
        # all miss); every lookup of the second drain hits their commit.
        assert (stats.misses, stats.tht_hits) == (6, 6)

    def test_nested_argument_payloads_are_rebuilt(self):
        """Lists of arrays inside args (kmeans-style reductions) round-trip."""
        runtime = make_process_runtime(workers=2)
        gather = TaskType("mp_gather")
        parts = [np.full(4, float(i)) for i in range(3)]
        total = np.zeros(4)
        runtime.submit(
            gather,
            reduce_parts,
            accesses=[Out(total)] + [In(p) for p in parts],
            args=(total, parts),
        )
        runtime.finish()
        assert np.allclose(total, 0.0 + 1.0 + 2.0)


class TestNothingSharedButSegments:
    """Write-versions ride in the buffer table; the pool holds no lock."""

    def test_a_peer_write_is_never_served_from_a_stale_entry(self):
        """Chunks of one go round-robin over two workers: worker 0 reads X,
        worker 1 writes it, and worker 0's second read of X must execute
        instead of hitting the entry its first read stored."""
        bump_type = TaskType("mp_bump")
        x = np.full(8, 2.0)
        outs = [np.zeros(8), np.zeros(8)]
        session = Session({
            "runtime": {"executor": "process", "num_threads": 2, "mp_chunk_size": 1},
            "atm": {"mode": "static"},
        })
        with session:
            first = session.submit(SQUARE, square, [In(x), Out(outs[0])], (x, outs[0]))
            session.wait_all()
            session.submit(bump_type, bump, [InOut(x)], (x,))
            session.wait_all()
            last = session.submit(SQUARE, square, [In(x), Out(outs[1])], (x, outs[1]))
            session.wait_all()
        assert first.state is TaskState.FINISHED and last.state is TaskState.FINISHED
        assert np.all(outs[0] == 4.0) and np.all(outs[1] == 9.0)

    def test_a_pool_forked_under_a_held_version_lock_drains(self):
        """A fork may copy the registry lock held by a parent thread (say a
        gateway thread committing a task): the worker resets it first."""
        holding, done = threading.Event(), threading.Event()

        def hold():
            with region_versions._lock:
                holding.set()
                done.wait()

        config = ATMConfig()
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=2)
        runtime = make_process_runtime(workers=2, engine=engine, drain_timeout_s=20.0)
        holder = threading.Thread(target=hold)
        holder.start()
        holding.wait()
        try:
            runtime.executor._ensure_workers()      # forked while the lock is held
        finally:
            done.set()
            holder.join()
        x, out = np.full(8, 3.0), np.zeros(8)
        runtime.submit(TaskType("mp_bump"), bump, [InOut(x)], (x,))
        runtime.submit(SQUARE, square, [In(x), Out(out)], (x, out))
        started = time.perf_counter()
        runtime.finish()
        assert time.perf_counter() - started < 20.0
        assert np.all(out == 16.0)
        assert runtime.executor._stats["respawns"] == 0
