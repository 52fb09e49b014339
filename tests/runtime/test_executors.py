"""Tests for the serial, threaded and simulated executors (plus the empty
drain, which every backend must survive)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig, SimulationConfig
from repro.common.exceptions import DrainAbortedError, RuntimeStateError
from repro.session import Session
from repro.runtime.data import In, InOut, Out
from repro.runtime.executor import (
    RunResult,
    SerialExecutor,
    ThreadedExecutor,
    build_executor,
)
from repro.runtime.simulator import SimulatedExecutor
from repro.runtime.task import TaskType

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
