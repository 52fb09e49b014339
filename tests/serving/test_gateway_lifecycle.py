"""Lifecycle of the gateway's one server model (tier-1, loopback TCP).

``Gateway.start`` binds a :class:`~repro.runtime.net_server.FrameServer`;
``Gateway.stop`` must end it for good: parked barriers answered, idle
connections closed, every thread it started gone and every socket it opened
closed — in a bound, with clients present or not.
"""

from __future__ import annotations

import os
import socket
import threading
import time

import numpy as np
import pytest

from repro.common.exceptions import GatewayShutdownError, ReproError, WireProtocolError
from repro.runtime.data import Out
from repro.runtime.task import TaskType
from repro.serving import Gateway, GatewayClient
from repro.session import ReproConfig
from repro.testing.traffic import fill_block

FILL = TaskType("lifecycle_fill", memoizable=False)
GATED = TaskType("lifecycle_gated", memoizable=False)

#: What a test here allows a shutdown step that should take milliseconds.
BOUND_S = 2.0

GATE = threading.Event()


def gated_fill(block: np.ndarray) -> None:
    """A task that stays in flight until the test opens the gate."""
    GATE.wait(timeout=30.0)
    block[:] = 1.0


def config(executor: str = "serial", **serving) -> ReproConfig:
    return ReproConfig().with_overrides(
        runtime={"executor": executor, "num_threads": 2}, serving=serving
    )


def open_sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass  # listdir's own descriptor
    return count


def settle(condition, bound_s: float = BOUND_S) -> bool:
    """Wait (bounded) for threads that were told to end to have ended."""
    deadline = time.monotonic() + bound_s
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.005)
    return condition()


class TestStopWithClientsPresent:
    def test_a_parked_barrier_is_answered_not_abandoned(self):
        GATE.clear()
        outcome: list = []
        block = np.zeros(4)

        def tenant() -> None:
            try:
                outcome.append(client.wait_all())
            except (GatewayShutdownError, WireProtocolError, OSError) as exc:
                outcome.append(exc)
            finally:
                GATE.set()  # lets the wedged pool thread finish

        gateway = Gateway(config())
        gateway.start()
        client = GatewayClient("127.0.0.1", gateway.port, tenant="parked")
        try:
            client.submit(GATED, gated_fill, accesses=[Out(block)], args=(block,))
            waiter = threading.Thread(target=tenant)
            waiter.start()
            assert settle(lambda: gateway._tenants["parked"].outstanding == 1)
            t0 = time.monotonic()
            gateway.stop(grace_s=0.1)
            waiter.join(timeout=BOUND_S)
            assert not waiter.is_alive(), "the barrier hung through stop()"
            assert time.monotonic() - t0 < 0.1 + 2 * BOUND_S
        finally:
            GATE.set()
            client.close()
        (answer,) = outcome
        assert isinstance(answer, GatewayShutdownError), answer
        assert "outstanding" in str(answer)

    def test_idle_connections_are_closed_within_the_bound(self):
        gateway = Gateway(config(shutdown_grace_s=0.5))
        gateway.start()
        clients = [
            GatewayClient("127.0.0.1", gateway.port, tenant=f"idle-{i}") for i in range(3)
        ]
        try:
            t0 = time.monotonic()
            gateway.stop()
            assert time.monotonic() - t0 < 0.5 + BOUND_S
            for client in clients:
                with pytest.raises((ReproError, OSError)):
                    client.result()
        finally:
            for client in clients:
                client.close()

    def test_stop_after_the_clients_left_takes_milliseconds(self):
        block = np.zeros(4)
        gateway = Gateway(config("threaded"))
        gateway.start()
        with GatewayClient("127.0.0.1", gateway.port, tenant="gone") as client:
            client.submit(FILL, fill_block, accesses=[Out(block)], args=(block, 2.0))
            client.wait_all()
        t0 = time.monotonic()
        gateway.stop()
        assert time.monotonic() - t0 < 0.25  # no poll tick, no sleep, on this path
        assert np.all(block == 2.0)


class TestStopLeavesNothingBehind:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_no_thread_and_no_socket_survive_stop(self):
        threads_before = set(threading.enumerate())
        sockets_before = open_sockets()
        block = np.zeros(4)
        gateway = Gateway(config("threaded"))
        gateway.start()
        lingering = GatewayClient("127.0.0.1", gateway.port, tenant="lingering")
        with GatewayClient("127.0.0.1", gateway.port, tenant="tidy") as client:
            client.submit(FILL, fill_block, accesses=[Out(block)], args=(block, 3.0))
            client.wait_all()
        assert open_sockets() > sockets_before
        gateway.stop()
        lingering.close()

        def survivors() -> list:
            return sorted(t.name for t in set(threading.enumerate()) - threads_before)

        assert settle(lambda: not survivors()), f"threads outlived stop(): {survivors()}"
        assert settle(lambda: open_sockets() == sockets_before), (
            f"{open_sockets() - sockets_before} socket(s) outlived stop()"
        )

    def test_200_start_stop_cycles_leave_the_thread_count_flat(self):
        cfg = config()
        threads_before = threading.active_count()
        for cycle in range(200):
            gateway = Gateway(cfg)
            client = GatewayClient("127.0.0.1", gateway.start(), tenant="cycler")
            if cycle % 2:
                client.close()  # odd cycles stop with the connection gone,
            gateway.stop()
            client.close()  # even cycles with it still open
        assert settle(lambda: threading.active_count() == threads_before), [
            t.name for t in threading.enumerate()
        ]


class TestStart:
    def test_a_port_in_use_raises_from_start_itself(self):
        with socket.create_server(("127.0.0.1", 0)) as squatter:
            gateway = Gateway(config(port=squatter.getsockname()[1]))
            try:
                with pytest.raises(OSError, match="[Aa]ddress already in use"):
                    gateway.start()
            finally:
                gateway.stop()
