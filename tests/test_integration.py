"""End-to-end integration tests: every benchmark under every executor/policy.

These are the tests that guarantee the headline property of the paper's
Static ATM: *exact* memoization never changes program results, on any
executor, for any benchmark.  Dynamic ATM is additionally checked to stay
within a loose correctness budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import BENCHMARK_NAMES, make_benchmark
from repro.atm.engine import ATMEngine
from repro.atm.policy import DynamicATMPolicy, StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig, SimulationConfig
from repro.session import Session
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.simulator import SimulatedExecutor


def run_app(name, engine=None, executor_kind="serial", cores=4):
    app = make_benchmark(name, scale="tiny")
    config = RuntimeConfig(num_threads=cores if executor_kind != "serial" else 1)
    if executor_kind == "serial":
        executor = SerialExecutor(config=config)
    elif executor_kind == "threaded":
        executor = ThreadedExecutor(config=config)
    else:
        executor = SimulatedExecutor(config=config, sim_config=SimulationConfig())
    runtime = Session(executor=executor, engine=engine)
    app.run(runtime)
    return app, executor.result()


def static_engine(threads=4):
    config = ATMConfig()
    return ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=threads)


def dynamic_engine(threads=4):
    config = ATMConfig()
    return ATMEngine(config=config, policy=DynamicATMPolicy(config), num_threads=threads)


@pytest.fixture(scope="module")
def references():
    """No-ATM serial reference output per benchmark (computed once)."""
    outputs = {}
    for name in BENCHMARK_NAMES:
        app, _ = run_app(name)
        outputs[name] = app.output()
    return outputs


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestStaticATMExactness:
    def test_serial_static_atm_is_bit_exact(self, name, references):
        app, result = run_app(name, engine=static_engine(1), executor_kind="serial")
        assert np.allclose(app.output(), references[name], rtol=0, atol=0)
        assert app.correctness(references[name]) == pytest.approx(100.0)

    def test_simulated_static_atm_is_exact(self, name, references):
        app, result = run_app(name, engine=static_engine(), executor_kind="simulated")
        # LU's correctness is an absolute residual against the original
        # matrix (Eq. 4), so even the exact factorisation sits a hair below
        # 100 % in float32; every other benchmark must be bit-exact.
        assert app.correctness(references[name]) >= 99.999
        if name != "lu":
            assert app.correctness(references[name]) == pytest.approx(100.0)
        assert result.tasks_completed == result.tasks_executed + result.tasks_memoized + result.tasks_deferred


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
class TestDynamicATMBoundedLoss:
    def test_simulated_dynamic_atm_correctness(self, name, references):
        app, result = run_app(name, engine=dynamic_engine(), executor_kind="simulated")
        # The paper's worst case is a 3.2 % loss; leave headroom for the
        # scaled-down workloads but catch catastrophic approximation bugs.
        assert app.correctness(references[name]) >= 90.0


@pytest.mark.parametrize("name", ["blackscholes", "kmeans", "swaptions"])
class TestThreadedExecutorMatchesSerial:
    def test_threaded_static_atm_matches_reference(self, name, references):
        app, _ = run_app(name, engine=static_engine(), executor_kind="threaded")
        assert np.allclose(app.output(), references[name], rtol=0, atol=0)


class TestSimulatorSpeedupSanity:
    def test_blackscholes_static_atm_is_faster(self):
        _, baseline = run_app("blackscholes", executor_kind="simulated")
        _, with_atm = run_app("blackscholes", engine=static_engine(), executor_kind="simulated")
        assert with_atm.elapsed < baseline.elapsed

    def test_reuse_recorded_for_blackscholes(self):
        engine = static_engine()
        run_app("blackscholes", engine=engine, executor_kind="simulated")
        assert engine.stats.memoized_tasks > 0
        assert engine.stats.reuse_percentage() > 30.0

    def test_memory_overhead_reported(self):
        engine = dynamic_engine()
        app, _ = run_app("gauss-seidel", engine=engine, executor_kind="simulated")
        overhead = engine.memory_overhead_percent(app.application_bytes())
        assert 0.0 < overhead < 300.0
