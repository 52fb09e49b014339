"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import DynamicATMPolicy, StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig, SimulationConfig
from repro.runtime.data import In, Out
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.simulator import SimulatedExecutor
from repro.runtime.task import TaskType
from repro.session import Session


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--switch-interval", type=float, default=None, metavar="S",
        help="sys.setswitchinterval(S) for the whole run (`make soak-threaded` "
        "uses 1e-5 to shake thread interleavings)",
    )


def pytest_configure(config) -> None:
    interval = config.getoption("--switch-interval")
    if interval is not None:
        sys.setswitchinterval(interval)


#: Name prefixes of the runtime's helper threads: the threaded pool, the
#: loopback network endpoints (worker *processes* are found as children), a
#: ``FrameServer``'s accept and connection threads, the gateway's services.
POOL_THREAD_PREFIXES = ("worker-", "net-recv-", "net-worker-", "frame-", "gateway-")
#: How long a helper that is already shutting down may take to end.
LEAK_JOIN_S = 5.0


def _live_helpers() -> set:
    """``(label, joinable or None)`` for everything a test could leave
    behind: pool threads, child processes, shared-memory segments."""
    found = {
        (f"thread {t.name}", t)
        for t in threading.enumerate()
        if t.name.startswith(POOL_THREAD_PREFIXES)
    }
    found |= {(f"process {c.name}", c) for c in multiprocessing.active_children()}
    if os.path.isdir("/dev/shm"):
        found |= {
            (f"/dev/shm/{name}", None)
            for name in os.listdir("/dev/shm")
            if name.startswith("psm_")
        }
    return found


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """The benchmark's leak check, per test: whatever worker thread, worker
    process or shared-memory segment a test starts is gone once the test and
    its fixtures are done (dropped executors get one ``gc.collect()`` and a
    bounded ``join`` to go away in)."""
    before = _live_helpers()
    yield
    if _live_helpers() <= before:
        return
    gc.collect()
    for _, helper in _live_helpers() - before:
        if helper is not None:
            helper.join(timeout=LEAK_JOIN_S)
    leaked = sorted(label for label, _ in _live_helpers() - before)
    assert not leaked, f"test leaked {leaked}"


@pytest.fixture
def atm_config() -> ATMConfig:
    return ATMConfig(tht_bucket_bits=4, tht_bucket_capacity=8)


@pytest.fixture
def static_engine(atm_config) -> ATMEngine:
    return ATMEngine(config=atm_config, policy=StaticATMPolicy(atm_config), num_threads=2)


@pytest.fixture
def dynamic_engine(atm_config) -> ATMEngine:
    return ATMEngine(config=atm_config, policy=DynamicATMPolicy(atm_config), num_threads=2)


@pytest.fixture
def serial_runtime() -> Session:
    return Session(executor=SerialExecutor(config=RuntimeConfig(num_threads=1)))


def make_serial_runtime(engine=None) -> Session:
    return Session(
        executor=SerialExecutor(config=RuntimeConfig(num_threads=1), engine=engine)
    )


def make_threaded_runtime(engine=None, threads: int = 4) -> Session:
    return Session(
        executor=ThreadedExecutor(config=RuntimeConfig(num_threads=threads), engine=engine)
    )


def make_simulated_runtime(engine=None, cores: int = 4, sim_config=None) -> Session:
    return Session(
        executor=SimulatedExecutor(
            config=RuntimeConfig(num_threads=cores),
            engine=engine,
            sim_config=sim_config or SimulationConfig(),
        )
    )


SQUARE_TYPE = TaskType("square", memoizable=True)


def square_body(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = src ** 2


def submit_square(runtime: Session, src: np.ndarray, dst: np.ndarray):
    """Helper used across executor/engine tests: dst = src ** 2 as a task."""
    return runtime.submit(
        SQUARE_TYPE, square_body, accesses=[In(src), Out(dst)], args=(src, dst)
    )
