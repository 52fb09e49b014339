"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import socket
import sys
import threading

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import DynamicATMPolicy, StaticATMPolicy
from repro.common.config import ATMConfig, ReproConfig, RuntimeConfig, SimulationConfig
from repro.runtime.data import In, Out
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.net_server import FrameServer
from repro.runtime.net_transport import serve_connection
from repro.runtime.simulator import SimulatedExecutor
from repro.runtime.task import TaskType
from repro.serving import Gateway
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
#: endpoints' receivers and senders, the loopback network workers (worker
#: *processes* are found as children), a ``FrameServer``'s accept and
#: connection threads, the gateway's services.
POOL_THREAD_PREFIXES = ("worker-", "net-recv-", "net-send-", "net-worker-", "frame-", "gateway-")
#: How long a helper that is already shutting down may take to end.
LEAK_JOIN_S = 5.0


def _open_sockets() -> set:
    """``socket:[inode]`` of every socket this process holds an fd of, read
    from ``/proc/self/fd`` (empty where there is no such directory)."""
    found = set()
    with contextlib.suppress(OSError):
        for fd in os.listdir("/proc/self/fd"):
            with contextlib.suppress(OSError):  # closed while we looked
                link = os.readlink(f"/proc/self/fd/{fd}")
                if link.startswith("socket:"):
                    found.add(link)
    return found


def _live_helpers() -> set:
    """``(label, joinable or None)`` for everything a test could leave
    behind: pool threads, child processes, shared-memory segments, sockets
    (endpoint, connection and listener)."""
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
    found |= {(link, None) for link in _open_sockets()}
    return found


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """The benchmark's leak check, per test: whatever worker thread, worker
    process, shared-memory segment or socket a test starts is gone once the
    test and its fixtures are done (dropped executors get one ``gc.collect()``
    and a bounded ``join`` to go away in)."""
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


#: The two frame daemons that read bytes from any TCP peer.
LISTENERS = ("net_worker", "gateway")


@pytest.fixture
def live_listener():
    """``start(kind)`` serves one of :data:`LISTENERS` in-process on an
    ephemeral loopback port and returns its ``(host, port)``; everything
    started is shut down with the test.  The gateway keeps a shared THT
    tier, so its store verbs answer too."""
    with contextlib.ExitStack() as stack:
        def start(kind: str) -> tuple[str, int]:
            if kind == "gateway":
                config = ReproConfig().with_overrides(
                    runtime={"executor": "serial"}, serving={"shared_tht": True}
                )
                return "127.0.0.1", stack.enter_context(Gateway(config)).port
            server = FrameServer(("127.0.0.1", 0), serve_connection)
            host, port = server.serve_in_thread().rsplit(":", 1)
            stack.callback(server.shutdown_gracefully, 2.0)
            stack.callback(server.close_connections)
            return host, int(port)

        yield start


def exchange(address: tuple[str, int], raw: bytes, timeout: float = 10.0) -> bytes:
    """Send ``raw`` to a listener and half-close; everything it sent back
    before it closed (a reset is a close; a hang past ``timeout`` raises)."""
    received = bytearray()
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the listener has closed already
            pass
        try:
            while chunk := sock.recv(1 << 16):
                received += chunk
        except ConnectionResetError:
            pass
    return bytes(received)


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
        executor=SerialExecutor(config=RuntimeConfig(num_threads=1)), engine=engine
    )


def make_threaded_runtime(engine=None, threads: int = 4) -> Session:
    return Session(
        executor=ThreadedExecutor(config=RuntimeConfig(num_threads=threads)), engine=engine
    )


def make_simulated_runtime(engine=None, cores: int = 4, sim_config=None) -> Session:
    return Session(
        executor=SimulatedExecutor(
            config=RuntimeConfig(num_threads=cores),
            sim_config=sim_config or SimulationConfig(),
        ),
        engine=engine,
    )


SQUARE_TYPE = TaskType("square", memoizable=True)


def square_body(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = src ** 2


def submit_square(runtime: Session, src: np.ndarray, dst: np.ndarray):
    """Helper used across executor/engine tests: dst = src ** 2 as a task."""
    return runtime.submit(
        SQUARE_TYPE, square_body, accesses=[In(src), Out(dst)], args=(src, dst)
    )
