"""The one server model: :class:`FrameServer` and the two daemons on it.

Unit half: the accept loop stops the moment ``shutdown()`` asks (no poll
tick), serves nothing afterwards, and survives a connection function that
raises.  Daemon half: ``scripts/net_worker.py`` and ``scripts/gateway.py`` as
real processes — announce, serve one request, exit 0 on SIGTERM through
:func:`run_daemon` — and the gateway as a ``tcp://`` THT store: the store
greeting's version check, and a ``file://``-backed shared tier that keeps
what store clients published across a restart.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.atm.store import FileTHTStore, ShardTHTStore
from repro.runtime.data import Out
from repro.runtime.net_server import FrameServer
from repro.runtime.net_wire import read_frame, request, write_frame
from repro.runtime.task import TaskType
from repro.serving import GatewayClient
from repro.serving.gateway import SERVING_PROTOCOL_VERSION
from repro.testing.traffic import fill_block
from tests.atm.test_tht_store import CFG, entry_map, fill_table

REPO_ROOT = Path(__file__).resolve().parents[2]
BOUND_S = 10.0


def echo_connection(sock: socket.socket, connection_id: int) -> None:
    """Answer every frame with ``(connection_id, message)`` until EOF."""
    try:
        while True:
            write_frame(sock, (connection_id, read_frame(sock)))
    except Exception:
        pass


def connect(server: FrameServer) -> socket.socket:
    host, port = server.address.rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=BOUND_S)


def timed_shutdown(server: FrameServer) -> float:
    t0 = time.perf_counter()
    server.shutdown()
    return time.perf_counter() - t0


class TestFrameServer:
    def test_shutdown_is_immediate_without_a_connection(self):
        server = FrameServer(("127.0.0.1", 0), echo_connection)
        server.serve_in_thread()
        try:
            assert timed_shutdown(server) < 0.05
        finally:
            server.shutdown_gracefully(grace_s=BOUND_S)

    def test_shutdown_is_immediate_with_a_connection_open_and_final(self):
        server = FrameServer(("127.0.0.1", 0), echo_connection)
        server.serve_in_thread()
        with connect(server) as live:
            assert request(live, "one") == (0, "one")
            assert timed_shutdown(server) < 0.05
            # The open connection is served on; nothing new is accepted.
            assert request(live, "two") == (0, "two")
            with pytest.raises(OSError):
                with connect(server) as late:
                    late.settimeout(1.0)
                    request(late, "three")
        server.shutdown_gracefully(grace_s=BOUND_S)
        assert not [t for t in threading.enumerate() if t.name.startswith("frame-")]

    def test_close_connections_ends_a_blocked_reader(self):
        server = FrameServer(("127.0.0.1", 0), echo_connection)
        server.serve_in_thread()
        with connect(server) as idle:
            assert request(idle, "ping") == (0, "ping")
            server.shutdown()
            server.close_connections()
            t0 = time.perf_counter()
            server.shutdown_gracefully(grace_s=BOUND_S)
            assert time.perf_counter() - t0 < 1.0  # drained, not timed out
            assert idle.recv(1) == b""

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_raising_connection_function_does_not_stop_the_accept_loop(self):
        def moody(sock: socket.socket, connection_id: int) -> None:
            if connection_id == 0:
                raise RuntimeError("deliberate connection failure")
            echo_connection(sock, connection_id)

        server = FrameServer(("127.0.0.1", 0), moody)
        server.serve_in_thread()
        try:
            with connect(server) as doomed:
                assert doomed.recv(1) == b""  # the server closed it
            with connect(server) as served:
                assert request(served, "still here") == (1, "still here")
        finally:
            server.shutdown_gracefully(grace_s=BOUND_S)


# -- the two daemons as processes -----------------------------------------------------
def ping_worker(host: str, port: int) -> None:
    # A well-framed message that is no hello: reported and closed, with
    # nothing on the daemon's stderr — and the next connection is served.
    with socket.create_connection((host, port), timeout=BOUND_S) as hostile:
        report = request(hostile, ("hello", 5))
        assert report[:3] == ("error", None, None) and "WireProtocolError" in report[3]
        assert hostile.recv(1) == b""
    with socket.create_connection((host, port), timeout=BOUND_S) as sock:
        assert request(sock, ("ping",)) == ("pong",)
        write_frame(sock, ("shutdown",))


def run_one_tenant(host: str, port: int) -> None:
    block = np.zeros(4)
    with GatewayClient(host, port, tenant="daemon-test") as client:
        client.submit(TaskType("daemon_fill", memoizable=False), fill_block,
                      accesses=[Out(block)], args=(block, 6.0))
        assert client.wait_all()["tasks_completed"] == 1
    assert np.all(block == 6.0)


@contextlib.contextmanager
def daemon_process(script: str, *extra: str, env: "dict | None" = None):
    """Run ``scripts/<script>`` on an ephemeral port; yields ``(host, port)``
    and, once the block is done, SIGTERMs it and asserts a clean exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **(env or {}))
    daemon = subprocess.Popen(
        [sys.executable, str(REPO_ROOT / "scripts" / script),
         "--host", "127.0.0.1", "--port", "0", "--announce", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        announced = daemon.stdout.readline().split()
        assert announced[:1] == ["listening"], (announced, daemon.stderr.read())
        host, port = announced[1].rsplit(":", 1)
        yield host, int(port)
        daemon.send_signal(signal.SIGTERM)
        _, stderr = daemon.communicate(timeout=BOUND_S)
    finally:
        daemon.kill()
        daemon.wait()
    assert daemon.returncode == 0
    assert stderr == ""


@pytest.mark.parametrize("script, extra, one_request", [
    ("net_worker.py", [], ping_worker),
    ("gateway.py", ["--executor", "serial"], run_one_tenant),
], ids=["net_worker", "gateway"])
def test_daemon_announces_serves_and_exits_cleanly_on_sigterm(script, extra, one_request):
    with daemon_process(script, *extra) as (host, port):
        one_request(host, port)


def test_gateway_daemon_is_a_tht_store_that_persists_its_tier(tmp_path):
    """``REPRO_ATM_THT_STORE=file://FILE scripts/gateway.py --shared-tht``:
    the store greeting checks the serving protocol version, what a store
    client publishes is in FILE once the daemon stopped, and the next
    daemon on FILE serves it from start."""
    env = {"REPRO_ATM_THT_STORE": f"file://{tmp_path / 'tier.tht'}"}
    shipped = fill_table(6, seed=4).snapshot()
    with daemon_process("gateway.py", "--executor", "serial", "--shared-tht",
                        env=env) as (host, port):
        with socket.create_connection((host, port), timeout=BOUND_S) as sock:
            # The previous version found entries under other key definitions.
            old = ("hello", {"protocol": SERVING_PROTOCOL_VERSION - 1, "store": True})
            reply = request(sock, old)
            assert reply[:2] == ("error", "TenantRejectedError")
            assert f"client speaks {SERVING_PROTOCOL_VERSION - 1}" in reply[2]
            reply = request(sock, ("hello", {"protocol": SERVING_PROTOCOL_VERSION,
                                             "store": True}))
            assert reply[0] == "hello_ack"
        with ShardTHTStore(host, port, CFG) as client:
            assert client.publish(shipped) == 6
    persisted = FileTHTStore(tmp_path / "tier.tht", CFG).load()
    assert entry_map(persisted).keys() == entry_map(shipped).keys()
    with daemon_process("gateway.py", "--executor", "serial", "--shared-tht",
                        env=env) as (host, port):
        with ShardTHTStore(host, port, CFG) as client:
            assert entry_map(client.load()).keys() == entry_map(shipped).keys()
