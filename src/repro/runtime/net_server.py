"""The frame daemon: one thread-per-connection TCP server for net_wire peers.

``scripts/net_worker.py`` (task execution) and ``scripts/tht_shard.py``
(THT cache shard) are the same daemon around different per-connection
functions: accept, serve each connection on its own thread, count the live
ones, and on SIGTERM/SIGINT stop accepting, give in-flight connections a
grace period, run a final hook (the shard's backing-file flush) and close.
:class:`FrameServer` is that daemon; :func:`run_daemon` is its ``main``.
"""

from __future__ import annotations

import signal
import socket
import socketserver
import threading
import time
from typing import Callable, Optional

__all__ = ["SHUTDOWN_GRACE_S", "FrameServer", "run_daemon"]

#: Seconds a graceful shutdown waits for in-flight connections to drain.
SHUTDOWN_GRACE_S = 5.0


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        server: FrameServer = self.server
        with server._lock:
            connection_id = server._next_id
            server._next_id += 1
            server._inflight += 1
        try:
            server._serve_connection(self.request, connection_id)
        finally:
            with server._lock:
                server._inflight -= 1


class FrameServer(socketserver.ThreadingTCPServer):
    """Serves ``serve_connection(sock, connection_id)`` once per connection.

    ``connection_id`` is a dense counter allocated under the server's
    lock, so concurrent accepts never share one (a worker daemon reports
    it as its ``worker_id``).  ``on_shutdown`` runs after the drain grace
    of :meth:`shutdown_gracefully`, before the listener closes.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        serve_connection: Callable[[socket.socket, int], None],
        on_shutdown: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(address, _Handler)
        self._serve_connection = serve_connection
        self._on_shutdown = on_shutdown
        self._lock = threading.Lock()
        self._inflight = 0
        self._next_id = 0

    @property
    def address(self) -> str:
        """The bound ``host:port`` (resolves an ephemeral port 0)."""
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    @property
    def inflight(self) -> int:
        """Connections currently being served."""
        with self._lock:
            return self._inflight

    def serve_in_thread(self) -> str:
        """Serve from a daemon thread (tests/benchmarks); returns the address."""
        threading.Thread(
            target=self.serve_forever, args=(0.2,), daemon=True
        ).start()
        return self.address

    def shutdown_gracefully(self, grace_s: float = SHUTDOWN_GRACE_S) -> None:
        """Stop accepting, wait for live connections to drain, then close.

        Connection loops exit on their own when the peer sends its goodbye
        (or drops the socket); this only bounds how long we wait for that
        to happen before closing the listener anyway.
        """
        self.shutdown()
        deadline = time.monotonic() + grace_s
        while self.inflight > 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if self._on_shutdown is not None:
            self._on_shutdown()
        self.server_close()


def run_daemon(server: FrameServer, announce: bool, name: str) -> int:
    """Serve until SIGTERM/SIGINT, then shut down gracefully.

    ``announce`` prints ``listening <host>:<port>`` once bound (for
    harnesses starting daemons on port 0).
    """
    if announce:
        print(f"listening {server.address}", flush=True)
    closed = threading.Event()

    def request_shutdown(signum, frame):  # pragma: no cover - signal driven
        # serve_forever's own thread cannot call shutdown() (it would
        # deadlock on the serve loop); hand the teardown to a helper thread.
        def teardown() -> None:
            server.shutdown_gracefully()
            closed.set()

        threading.Thread(target=teardown, name=f"{name}-shutdown").start()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, request_shutdown)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        if not closed.is_set():
            server.shutdown_gracefully()
    return 0
