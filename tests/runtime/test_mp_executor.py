"""Unit tests for the multiprocess backend: shm protocol, parent-side ATM, lifecycle."""

from __future__ import annotations

import os
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


def scribble_then_die(buf):
    buf[:4] = -1.0
    os._exit(17)


def scribble_and_mark(marker, buf):
    buf[:4] = -1.0
    open(marker, "w").close()


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

    def test_copy_in_refreshes_only_bases_whose_version_moved(self):
        registry = SharedBufferRegistry()
        data = np.zeros(8)
        region = DataRegion(data[2:6])           # any view names its base
        entry = registry.register(data)

        assert registry.copy_in([region]) == 0   # registration seeded bytes
        registry.settle()                        # the drain ends
        data[:] = 7.0                            # an unannounced host store
        assert registry.copy_in([region]) == 0   # the version did not move
        assert not entry.mirror.any()
        registry.settle()                        # the drain ends
        DataRegion(data).bump_version()          # the store is announced
        version = region_versions.version_of(data)
        assert registry.copy_in([region, region]) == 1
        assert registry.copy_in([region]) == 0   # fresh in this drain: no check
        assert np.array_equal(entry.mirror, data)
        assert region_versions.version_of(data) == version  # copy-in bumps nothing
        registry.settle()                        # the drain ends
        assert registry.copy_in([region]) == 0   # in step at that version
        registry.stale([region])                 # a body raised writing it
        registry.settle()                        # the drain ends
        assert registry.copy_in([region]) == 1   # out of step, same version
        registry.close()

    def test_a_lost_workers_partial_writes_are_refreshed_away(self):
        """A worker that dies mid-write leaves its bytes in the segment
        only: the drain ends with the base out of step, and the next
        drain's first touch refreshes it from the host bytes."""
        from repro.testing.faults import fault_session

        kill = TaskType("mp_scribble_then_die", memoizable=False)
        base = np.zeros((2, 8))
        with fault_session(
            "process", workers=1, chunk_size=1, on_task_failure="quarantine",
            allow_worker_kill=True,
        ) as session:
            session.submit(kill, scribble_then_die, accesses=[InOut(base[0])], args=(base[0],))
            assert [f.error for f in session.wait_all().failures] == ["WorkerLostError"]
            entry = session.executor._registry.register(base)
            assert np.all(entry.mirror[0, :4] == -1.0)
            session.submit(kill, bump, accesses=[InOut(base[1])], args=(base[1],))
            session.wait_all()
            assert np.array_equal(entry.mirror, base)
        assert not base[0].any() and np.all(base[1] == 1.0)

    def test_an_aborted_drains_in_flight_writes_are_refreshed_away(self, tmp_path):
        """A task still queued when its drain aborts runs anyway, into the
        segment only: the aborted drain leaves its base out of step."""
        executor = ProcessExecutor(
            config=RuntimeConfig(num_threads=1, executor="process", mp_chunk_size=1)
        )
        marker, base = tmp_path / "scribbled", np.zeros((2, 8))
        tt = TaskType("mp_abort_in_flight", memoizable=False)
        try:
            first = Session(executor=executor)
            first.submit(tt, explode, accesses=[InOut(np.zeros(1))], args=(np.zeros(1),))
            first.submit(tt, scribble_and_mark, accesses=[InOut(base[0])],
                         args=(str(marker), base[0]))
            with pytest.raises(RuntimeStateError, match="worker task failure"):
                first.wait_all()
            deadline = time.monotonic() + 10.0
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert marker.exists()
            second = Session(executor=executor)
            second.submit(tt, bump, accesses=[InOut(base[1])], args=(base[1],))
            second.wait_all()
            assert np.array_equal(executor._registry.register(base).mirror, base)
        finally:
            executor.close()
        assert not base[0].any() and np.all(base[1] == 1.0)

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


def fill_seven(dst):
    dst[:] = 7.0


def add_one(src, dst):
    dst[:] = src + 1.0


TRAIN = TaskType("mp_train", memoizable=True)


class FreezesAfterOneCommit:
    """A fake engine that trains ``TRAIN`` until its first commit (or for
    ever: ``freezes=False``); every later lookup of it is a THT hit whose
    stored outputs are 42.0.  Each lookup records how many ``TRAIN`` tasks
    its dispatcher holds in flight."""

    def __init__(self, freezes=True):
        self.freezes = freezes
        self.frozen = False
        self.executor = None
        self.trainers_in_flight = []

    def is_training(self, task):
        return task.task_type is TRAIN and not self.frozen

    def task_ready(self, task, worker_id=0):
        inflight = self.executor._dispatcher.inflight.values()
        self.trainers_in_flight.append(sum(t.task_type is TRAIN for t in inflight))
        if not self.frozen:
            return ATMDecision(action=ATMAction.EXECUTE, atm_handled=True)
        for access in task.outputs:
            access.region.array[:] = 42.0
        return ATMDecision(action=ATMAction.SKIP, atm_handled=True)

    def task_finished(self, task, decision, executed, worker_id=0):
        self.frozen = self.freezes
        return ATMCommitInfo()

    def task_abandoned(self, task, decision):
        return []


class Owner:
    """A second owner of tasks in one drain, as a gateway tenant is."""

    def __init__(self, engine):
        self.engine = engine


class TestTrainingAtPoolWidth:
    """A task whose type trains ships without a lookup and is looked up as
    it retires, in dispatch order."""

    def run(self, engine, submit):
        executor = ProcessExecutor(
            config=RuntimeConfig(num_threads=2, executor="process", mp_chunk_size=4)
        )
        engine.executor = executor
        with Session(executor=executor, engine=engine) as runtime:
            tasks = submit(runtime)
            return runtime.wait_all(), tasks

    def test_training_tasks_share_the_window(self):
        engine = FreezesAfterOneCommit(freezes=False)
        sinks = [np.zeros(4) for _ in range(16)]

        def submit(runtime):
            return [
                runtime.submit(TRAIN, fill_seven, accesses=[Out(dst)], args=(dst,))
                for dst in sinks
            ]

        result, _ = self.run(engine, submit)
        assert result.tasks_completed == 16
        assert len(engine.trainers_in_flight) == 16
        # At some lookup another training task was still in flight.
        assert max(engine.trainers_in_flight) > 0
        assert all(np.all(dst == 7.0) for dst in sinks)

    def test_a_frozen_owners_hits_never_ship_while_another_owner_trains(self):
        """What shipped without a lookup is kept per owner: while one
        owner's training tasks are in flight, another owner's THT hits
        still settle at dispatch."""
        trainer, frozen = FreezesAfterOneCommit(freezes=False), FreezesAfterOneCommit()
        frozen.frozen = True
        other = Owner(frozen)
        sinks = [np.zeros(4) for _ in range(16)]

        def submit(runtime):
            frozen.executor = trainer.executor
            with runtime.batch():
                tasks = [
                    runtime.submit(TRAIN, fill_seven, accesses=[Out(dst)], args=(dst,))
                    for dst in sinks
                ]
                # Owners alternate: the session trains, the other owner hits.
                for task in tasks[1::2]:
                    task.owner = other
            return tasks

        result, tasks = self.run(trainer, submit)
        assert result.extra["process_backend"]["dispatched"] == 8
        assert [task.state for task in tasks[1::2]] == [TaskState.MEMOIZED] * 8
        assert all(np.all(dst == 7.0) for dst in sinks[::2])
        assert all(np.all(dst == 42.0) for dst in sinks[1::2])

    def test_a_hit_at_retirement_drops_the_workers_bytes(self):
        engine = FreezesAfterOneCommit()
        first, second, after = np.zeros(4), np.zeros(4), np.zeros(4)

        def submit(runtime):
            return [
                runtime.submit(TRAIN, fill_seven, accesses=[Out(first)], args=(first,)),
                runtime.submit(TRAIN, fill_seven, accesses=[Out(second)], args=(second,)),
                runtime.submit(
                    TaskType("mp_successor"), add_one,
                    accesses=[In(second), Out(after)], args=(second, after),
                ),
            ]

        result, (executed, hit, successor) = self.run(engine, submit)
        # Both training tasks ran on a worker; the second's lookup, at its
        # retirement, found its type frozen and hit.
        assert result.extra["process_backend"]["dispatched"] == 3
        assert (executed.state, hit.state, successor.state) == (
            TaskState.FINISHED, TaskState.MEMOIZED, TaskState.FINISHED,
        )
        assert (result.tasks_executed, result.tasks_memoized) == (2, 1)
        assert np.all(first == 7.0)
        assert np.all(second == 42.0)
        # The successor read the stored bytes out of the segment, not the
        # bytes the worker wrote there.
        assert np.all(after == 43.0)


def count_then_square(marker, src, dst):
    with open(marker, "a") as handle:
        handle.write("x")
    dst[:] = src ** 2


class TestRetirementOrder:
    """An owner's tasks retire in dispatch order, whatever order their
    results arrive in."""

    def test_a_result_that_arrives_early_waits_for_its_predecessor(self):
        from repro.testing.faults import wedge_body

        commits = []

        class RecordsCommits:
            def task_ready(self, task, worker_id=0):
                return ATMDecision(action=ATMAction.EXECUTE, atm_handled=True)

            def task_finished(self, task, decision, executed, worker_id=0):
                commits.append(task.label)
                return ATMCommitInfo()

            def task_abandoned(self, task, decision):
                return []

        runtime = make_process_runtime(workers=2, engine=RecordsCommits(), mp_chunk_size=1)
        slow_src, slow_dst = np.arange(4.0), np.zeros(4)
        fast_src, fast_dst = np.arange(4.0), np.zeros(4)
        with runtime:
            slow = runtime.submit(
                TaskType("mp_slow", memoizable=True), wedge_body,
                accesses=[In(slow_src), Out(slow_dst)], args=(0.3, slow_src, slow_dst),
            )
            fast = runtime.submit(
                SQUARE, square, accesses=[In(fast_src), Out(fast_dst)], args=(fast_src, fast_dst),
            )
            runtime.wait_all()
        # The fast task's result arrives first, on the other worker, and waits.
        assert commits == [slow.label, fast.label]
        assert np.array_equal(slow_dst, slow_src ** 2) and np.array_equal(fast_dst, fast_src ** 2)

    def test_a_lost_worker_keeps_what_it_already_answered(self, tmp_path):
        """A task whose result arrived leaves its worker's ledger: when that
        worker dies while the task waits for its predecessor, the task is
        neither resubmitted nor lost."""
        from repro.testing.faults import (
            fault_session, kill_worker_body, square_body, submit_one, wedge_body,
        )

        marker = tmp_path / "runs"
        with fault_session(
            "process", workers=2, chunk_size=1, on_task_failure="quarantine",
            allow_worker_kill=True,
        ) as session:
            # Round-robin: worker 0 runs "slow" then "queued", worker 1 runs
            # "answered" then "poison", which kills it while "slow" runs.
            submit_one(session, wedge_body, 0.5, label="slow")
            src, dst = submit_one(session, count_then_square, str(marker), label="answered")
            submit_one(session, square_body, label="queued")
            submit_one(session, kill_worker_body, label="poison")
            result = session.wait_all()
        assert marker.read_text() == "x"
        assert np.array_equal(dst, src ** 2)
        assert [f.error for f in result.failures] == ["WorkerLostError"]
        assert result.tasks_completed == 3
        # The poison's one resubmission, nothing else.
        assert result.extra["process_backend"]["resubmitted_tasks"] == 1


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
