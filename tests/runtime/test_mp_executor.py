"""Unit tests for the multiprocess backend: shm protocol, deltas, lifecycle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig
from repro.common.exceptions import RuntimeStateError
from repro.session import Session
from repro.runtime.data import DataRegion, In, InOut, Out
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.mp_executor import ProcessExecutor
from repro.runtime.shm import SharedBufferRegistry, SharedVersionTable, WorkerArena
from repro.runtime.task import TaskType


def make_process_runtime(workers=2, engine=None, **overrides) -> Session:
    config = RuntimeConfig(num_threads=workers, executor="process", **overrides)
    executor = ProcessExecutor(config=config, engine=engine)
    return Session(executor=executor)


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
        table = SharedVersionTable(capacity=16)
        try:
            registry = SharedBufferRegistry(table)
            base = np.arange(24, dtype=np.float64).reshape(4, 6)
            view = base[1:3, 2:5]                    # non-trivial strides
            ref = registry.array_ref(view)
            arena = WorkerArena(table)
            arena.attach(registry.table())  # the chunk's buffer table
            rebuilt = arena.view(ref)
            assert rebuilt.shape == view.shape
            assert rebuilt.strides == view.strides
            assert np.array_equal(rebuilt, view)
            # Two views of the same segment share one ndarray base (region
            # identity for the worker-side keygen caches).
            other = arena.view(registry.array_ref(base[0]))
            assert rebuilt.base is other.base
            arena.close()
            registry.close()
        finally:
            table.close()

    def test_copy_in_skips_unchanged_and_bumps_changed(self):
        table = SharedVersionTable(capacity=16)
        try:
            registry = SharedBufferRegistry(table)
            data = np.zeros(8)
            region = DataRegion(data[2:6])           # any view names its base
            entry = registry.register(data)
            assert registry.copy_in([region]) == 0   # registration seeded bytes
            version_before = table.read(entry.slot)
            data[:] = 7.0                            # parent-side mutation
            assert registry.copy_in([region]) == 0   # fresh in this drain: no check
            assert table.read(entry.slot) == version_before
            registry.fresh.clear()                   # the next drain opens
            assert registry.copy_in([region, region]) == 1
            assert table.read(entry.slot) == version_before + 1
            assert np.array_equal(entry.mirror, data)
            registry.fresh.clear()
            assert registry.copy_in([region]) == 0   # compared, unchanged
            assert table.read(entry.slot) == version_before + 1
            registry.close()
        finally:
            table.close()

    def test_version_table_bumps_are_monotonic(self):
        table = SharedVersionTable(capacity=4)
        try:
            assert table.read(2) == 0
            assert table.bump(2) == 1
            assert table.bump(2) == 2
            assert table.read(2) == 2
        finally:
            table.close()


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

    def test_requires_atm_engine_compatible_engine(self):
        class FakeEngine:
            pass

        with pytest.raises(RuntimeStateError, match="ATMEngine-compatible"):
            ProcessExecutor(
                config=RuntimeConfig(num_threads=1, executor="process"),
                engine=FakeEngine(),
            )


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

    def test_engine_deltas_merge_without_double_counting(self):
        config = ATMConfig(use_ikt=False)
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=2)
        runtime = make_process_runtime(workers=2, engine=engine)
        src = np.arange(32.0)
        for _ in range(6):
            out = np.zeros(32)
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        runtime.wait_all()                           # barrier 1: merge delta 1
        for _ in range(6):
            out = np.zeros(32)
            runtime.submit(SQUARE, square, accesses=[In(src), Out(out)], args=(src, out))
        result = runtime.finish()                    # barrier 2: merge delta 2
        stats = engine.stats
        assert stats.tasks_seen == 12                # not 12 + 6 re-counted
        assert stats.tht_hits + stats.misses == 12
        assert engine.tht.hits + engine.tht.misses == 12
        assert result.tasks_memoized == stats.tht_hits
        # Second-drain lookups hit the warm per-worker THTs: at most one
        # cold miss per worker in total.
        assert stats.misses <= 2

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
