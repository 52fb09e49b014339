"""Tests for the serial, threaded and simulated executors (plus the empty
drain, which every backend must survive)."""

from __future__ import annotations

import gc
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig, SimulationConfig
from repro.common.exceptions import DrainAbortedError, RuntimeStateError
from repro.session import Session
from repro.runtime import executor as executor_module
from repro.runtime.data import In, InOut, Out
from repro.runtime.executor import (
    RunResult,
    SerialExecutor,
    ThreadedExecutor,
    build_executor,
)
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.simulator import SimulatedExecutor
from repro.runtime.task import Task, TaskType

from tests.conftest import (
    make_serial_runtime,
    make_simulated_runtime,
    make_threaded_runtime,
    submit_square,
)


def build_chain(runtime: Session, length: int = 5) -> np.ndarray:
    """data[i+1] = data[i] + 1, as a chain of dependent tasks."""
    data = np.zeros(1)
    increment_type = TaskType("increment")

    def body(buf):
        buf[0] += 1.0

    for _ in range(length):
        runtime.submit(increment_type, body, accesses=[InOut(data)], args=(data,))
    return data


class TestRunResult:
    def test_merge_accumulates(self):
        a = RunResult(elapsed=1.0, time_unit="s", tasks_completed=2, tasks_executed=2)
        b = RunResult(elapsed=0.5, time_unit="s", tasks_completed=1, tasks_memoized=1)
        a.merge(b)
        assert a.elapsed == pytest.approx(1.5)
        assert a.tasks_completed == 3
        assert a.tasks_memoized == 1

    def test_merge_rejects_mixed_units(self):
        a = RunResult(time_unit="s")
        b = RunResult(time_unit="us")
        with pytest.raises(RuntimeStateError):
            a.merge(b)

    def test_reuse_fraction(self):
        r = RunResult(tasks_completed=10, tasks_memoized=3, tasks_deferred=1)
        assert r.reuse_fraction == pytest.approx(0.4)
        assert RunResult().reuse_fraction == 0.0


class TestEmptyGraphDrain:
    """Draining a runtime that never received a task must return a
    well-formed zero result on every backend (the divide-by-zero class)."""

    @pytest.mark.parametrize(
        "backend", ["serial", "threaded", "process", "simulated", "network"]
    )
    def test_empty_drain_yields_zero_result(self, backend):
        executor = build_executor(RuntimeConfig(num_threads=2, executor=backend))
        try:
            result = Session(executor=executor).finish()
            assert result.tasks_completed == 0
            assert result.tasks_executed == 0
            assert result.tasks_memoized == 0
            assert result.reuse_fraction == 0.0
        finally:
            executor.close()


class TestSerialExecutor:
    def test_executes_chain_in_order(self):
        runtime = make_serial_runtime()
        data = build_chain(runtime, 5)
        result = runtime.finish()
        assert data[0] == 5.0
        assert result.tasks_completed == 5
        assert result.tasks_executed == 5

    def test_wall_clock_elapsed_positive(self):
        runtime = make_serial_runtime()
        build_chain(runtime, 3)
        assert runtime.finish().elapsed > 0.0

    def test_memoizes_identical_tasks_with_engine(self):
        config = ATMConfig()
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=1)
        runtime = make_serial_runtime(engine)
        src = np.arange(16, dtype=np.float64)
        outs = [np.zeros(16) for _ in range(6)]
        for out in outs:
            submit_square(runtime, src, out)
        result = runtime.finish()
        assert result.tasks_memoized == 5
        assert all(np.allclose(out, src ** 2) for out in outs)


class TestThreadedExecutor:
    def test_parallel_independent_tasks(self):
        runtime = make_threaded_runtime(threads=4)
        src = np.arange(8, dtype=np.float64)
        outs = [np.zeros(8) for _ in range(20)]
        for out in outs:
            submit_square(runtime, src, out)
        result = runtime.finish()
        assert result.tasks_completed == 20
        assert all(np.allclose(out, src ** 2) for out in outs)

    def test_respects_dependences(self):
        runtime = make_threaded_runtime(threads=4)
        data = build_chain(runtime, 20)
        runtime.finish()
        assert data[0] == 20.0

    def test_engine_hits_and_postponed_copies(self):
        config = ATMConfig()
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=4)
        runtime = make_threaded_runtime(engine, threads=4)
        src = np.arange(32, dtype=np.float64)
        outs = [np.zeros(32) for _ in range(40)]
        for out in outs:
            submit_square(runtime, src, out)
        result = runtime.finish()
        assert result.tasks_completed == 40
        # All but the very first execution should be avoided (via THT or IKT).
        assert result.tasks_memoized + result.tasks_deferred >= 35
        assert all(np.allclose(out, src ** 2) for out in outs)

    def test_worker_exception_propagates(self):
        runtime = make_threaded_runtime(threads=2)
        boom = TaskType("boom")

        def explode():
            raise ValueError("task failure")

        runtime.submit(boom, explode, accesses=[Out(np.zeros(1))])
        with pytest.raises(DrainAbortedError, match="task failure") as excinfo:
            runtime.finish()
        # The aggregated abort names the failed task and chains the original.
        assert [f.label for f in excinfo.value.failures] == ["boom#0"]
        assert isinstance(excinfo.value.__cause__.__cause__, ValueError)


JOIN_S = 10.0  # bound of every wait below; none of them is expected to be reached


def pool_idents(executor: ThreadedExecutor) -> set:
    return {thread.ident for thread in executor._pool.threads}


def wait_parked(executor: ThreadedExecutor) -> None:
    """Block until every pool worker has parked (they only count themselves
    parked under the pool lock, after leaving their last task)."""
    pool = executor._pool
    deadline = time.monotonic() + JOIN_S
    while pool.parked < len(pool.threads):
        assert time.monotonic() < deadline, "workers never parked"
        time.sleep(0.001)


def join_all(threads) -> None:
    for thread in threads:
        thread.join(timeout=JOIN_S)
    assert not [t.name for t in threads if t.is_alive()]


@pytest.fixture
def threaded():
    """A 2-worker Session whose pool is stopped and joined at teardown."""
    session = make_threaded_runtime(threads=2)
    yield session
    session.close()


class TestThreadedWorkerPool:
    """The pool's contract (DESIGN.md §4.2); nothing here passes by timing."""

    def test_drains_reuse_one_set_of_threads(self, threaded):
        src = np.arange(4.0)
        submit_square(threaded, src, np.zeros(4))
        threaded.wait_all()
        idents = pool_idents(threaded.executor)
        assert len(idents) == 2
        alive = threading.active_count()
        for _ in range(100):
            out = np.zeros(4)
            submit_square(threaded, src, out)
            threaded.wait_all()
            assert np.array_equal(out, src ** 2)
            assert pool_idents(threaded.executor) == idents
        assert threading.active_count() == alive

    def test_execution_stays_lazy_between_drains(self, threaded):
        ran = []
        probe = TaskType("probe")
        threaded.submit(probe, ran.append, accesses=[Out(np.zeros(1))], args=(0,))
        threaded.wait_all()  # the pool now exists and parks behind the closed gate
        wait_parked(threaded.executor)
        for i in (1, 2, 3):
            threaded.submit(probe, ran.append, accesses=[Out(np.zeros(1))], args=(i,))
        wait_parked(threaded.executor)
        assert ran == [0]
        assert threaded.executor.scheduler.pending() == 3
        threaded.wait_all()
        assert sorted(ran) == [0, 1, 2, 3]

    def test_no_sleep_in_the_worker_path(self, threaded, monkeypatch):
        slept = []

        def no_sleep(seconds):
            slept.append(seconds)
            raise AssertionError(f"executor slept {seconds}s")

        monkeypatch.setattr(
            executor_module, "time",
            types.SimpleNamespace(perf_counter=time.perf_counter, sleep=no_sleep),
        )
        # Three dependent waves over three blocks; the bodies block briefly so
        # that one of the two workers runs out of ready tasks mid-drain (where
        # the per-drain threads this pool replaced called time.sleep).
        blocks = [np.full(8, float(i)) for i in range(3)]
        bump = TaskType("bump")
        never = threading.Event()

        def bump_body(block):
            never.wait(0.002)
            block += 1.0

        for _ in range(3):
            for block in blocks:
                threaded.submit(bump, bump_body, accesses=[InOut(block)], args=(block,))
        threaded.wait_all()
        assert [block[0] for block in blocks] == [3.0, 4.0, 5.0]

        # Submit-while-draining: the completion hook adds a second wave.
        executor = threaded.executor
        acc = np.zeros(1)
        box = []

        def add_one(buf):
            buf[0] += 1.0

        def wave(count):
            return [
                Task(task_type=bump, function=add_one, accesses=[InOut(acc)],
                     args=(acc,), task_id=-1)
                for _ in range(count)
            ]

        def on_complete(task):
            if task.task_id == 0:
                box[0].add_tasks(wave(5))

        graph = TaskDependenceGraph(
            on_ready=executor.notify_ready,
            on_ready_batch=executor.notify_ready_batch,
            on_complete=on_complete,
        )
        box.append(graph)
        graph.add_tasks(wave(3))
        for _ in range(100):
            executor.drain(graph)
            if graph.all_finished:
                break
        assert graph.all_finished and acc[0] == 8.0
        assert slept == []

    def test_no_lost_wakeup_on_a_handoff_chain(self, threaded):
        # Every completion releases exactly one successor while the other
        # worker is on its way to park: a wake-up lost there hangs the drain.
        links = 2000
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            data = build_chain(threaded, links)
            done = []
            drainer = threading.Thread(target=lambda: done.append(threaded.wait_all()))
            drainer.start()
            drainer.join(timeout=60.0)
        finally:
            sys.setswitchinterval(old)
        assert done, "drain hung: a ready notification was lost"
        assert data[0] == float(links)
        stats = threaded.executor.scheduler.stats
        assert stats.total_pushes == stats.total_pops == links

    def test_failed_drain_leaves_the_pool_reusable(self):
        executor = ThreadedExecutor(config=RuntimeConfig(num_threads=2))
        try:
            first = Session(executor=executor)
            submit_square(first, np.arange(4.0), np.zeros(4))
            first.wait_all()
            idents = pool_idents(executor)

            def explode():
                raise ValueError("mid-drain failure")

            first.submit(TaskType("boom"), explode, accesses=[Out(np.zeros(1))])
            with pytest.raises(DrainAbortedError, match="boom#1"):
                first.wait_all()

            second = Session(executor=executor)
            data = build_chain(second, 50)
            assert second.wait_all().tasks_failed == 0
            assert data[0] == 50.0
            assert pool_idents(executor) == idents
        finally:
            executor.close()

    def test_stuck_worker_aborts_and_the_next_drain_gets_a_new_pool(
        self, monkeypatch, capfd
    ):
        monkeypatch.setattr(ThreadedExecutor, "JOIN_TIMEOUT", 0.05)
        executor = ThreadedExecutor(
            config=RuntimeConfig(num_threads=2, drain_timeout_s=0.05)
        )
        release = threading.Event()
        try:
            wedged = Session(executor=executor)
            submit_square(wedged, np.arange(4.0), np.zeros(4))
            wedged.wait_all()
            abandoned = list(executor._pool.threads)
            wedged.submit(
                TaskType("wedge"), release.wait, accesses=[Out(np.zeros(1))],
                args=(JOIN_S,),
            )
            with pytest.raises(DrainAbortedError, match="still inside a task"):
                wedged.wait_all()
            assert "worker-" in capfd.readouterr().err  # the stack dump
            assert executor._pool is None

            fresh = Session(executor=executor)
            data = build_chain(fresh, 10)
            fresh.wait_all()
            assert data[0] == 10.0
            assert not set(executor._pool.threads) & set(abandoned)
        finally:
            release.set()
            executor.close()
        join_all(abandoned)  # the wedged frame returned: its pool is gone too

    def test_close_joins_and_a_later_drain_respawns(self):
        executor = ThreadedExecutor(config=RuntimeConfig(num_threads=3))
        session = Session(executor=executor)
        data = build_chain(session, 5)
        session.wait_all()
        threads = list(executor._pool.threads)
        assert all(t.name.startswith("worker-") and t.is_alive() for t in threads)
        executor.close()
        assert not [t.name for t in threads if t.is_alive()]
        assert executor._pool is None
        executor.close()  # idempotent

        again = Session(executor=executor)
        more = build_chain(again, 5)
        again.wait_all()
        assert data[0] == more[0] == 5.0
        respawned = list(executor._pool.threads)
        assert not set(respawned) & set(threads)
        executor.close()
        join_all(respawned)

    def test_dropped_executor_releases_its_threads(self):
        session = make_threaded_runtime(threads=2)
        data = build_chain(session, 5)
        session.wait_all()
        assert data[0] == 5.0
        threads = list(session.executor._pool.threads)
        del session
        gc.collect()
        join_all(threads)


class TestSimulatedExecutor:
    def test_functional_results_match_serial(self):
        serial_runtime = make_serial_runtime()
        serial_data = build_chain(serial_runtime, 7)
        serial_runtime.finish()

        sim_runtime = make_simulated_runtime(cores=4)
        sim_data = build_chain(sim_runtime, 7)
        sim_runtime.finish()
        assert sim_data[0] == serial_data[0]

    def test_elapsed_in_microseconds(self):
        runtime = make_simulated_runtime(cores=2)
        submit_square(runtime, np.arange(8.0), np.zeros(8))
        result = runtime.finish()
        assert result.time_unit == "us"
        assert result.elapsed > 0.0

    def test_more_cores_never_slower_for_independent_tasks(self):
        def run(cores):
            runtime = make_simulated_runtime(cores=cores)
            src = np.arange(64, dtype=np.float64)
            for _ in range(32):
                submit_square(runtime, src, np.zeros(64))
            return runtime.finish().elapsed

        assert run(8) <= run(1) + 1e-9

    def test_chain_not_parallelisable(self):
        def run(cores):
            runtime = make_simulated_runtime(cores=cores)
            build_chain(runtime, 10)
            return runtime.finish().elapsed

        assert run(4) == pytest.approx(run(1), rel=0.05)

    def test_deterministic_elapsed(self):
        def run():
            runtime = make_simulated_runtime(cores=4)
            src = np.arange(16, dtype=np.float64)
            for _ in range(10):
                submit_square(runtime, src, np.zeros(16))
            return runtime.finish().elapsed

        assert run() == pytest.approx(run())

    def test_creation_throughput_limits_start_times(self):
        slow_creation = SimulationConfig().with_overrides(creation_throughput=0.01)
        runtime = make_simulated_runtime(cores=8, sim_config=slow_creation)
        src = np.arange(4, dtype=np.float64)
        for _ in range(10):
            submit_square(runtime, src, np.zeros(4))
        elapsed = runtime.finish().elapsed
        # 10 tasks at 0.01 tasks/us need >= 900 us of creation time alone.
        assert elapsed >= 900.0

    def test_simulated_memoization_with_engine(self):
        config = ATMConfig()
        engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=4)
        runtime = make_simulated_runtime(engine, cores=4)
        src = np.arange(16, dtype=np.float64)
        outs = [np.zeros(16) for _ in range(12)]
        for out in outs:
            submit_square(runtime, src, out)
        result = runtime.finish()
        assert result.tasks_memoized + result.tasks_deferred == 11
        assert all(np.allclose(out, src ** 2) for out in outs)

    def test_memoization_reduces_simulated_time(self):
        src = np.arange(256, dtype=np.float64)

        def run(with_engine):
            engine = None
            if with_engine:
                config = ATMConfig()
                engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=2)
            runtime = make_simulated_runtime(engine, cores=2)
            for _ in range(20):
                submit_square(runtime, src, np.zeros(256))
            return runtime.finish().elapsed

        assert run(True) < run(False)
