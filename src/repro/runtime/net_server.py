"""The frame daemon: one thread-per-connection TCP server for net_wire peers.

``scripts/net_worker.py`` (task execution) and the serving
:class:`~repro.serving.gateway.Gateway` (tenants, and the THT store clients
of its shared tier) are the same server around different per-connection
functions: one accept thread
blocks in ``accept()``, every connection is served on its own thread
(``frame-conn-<id>``) by a plain blocking ``read_frame`` / ``write_frame``
loop, and the server knows its live connections.  :meth:`FrameServer.shutdown`
stops the accept loop *now* (it wakes the blocked ``accept()`` instead of
waiting for a poll tick); :meth:`FrameServer.shutdown_gracefully` then gives
live connections a grace period and closes.  :func:`run_daemon` is the
signal-to-shutdown ``main`` of both daemon scripts.
"""

from __future__ import annotations

import signal
import socket
import threading
from typing import Callable, Optional

__all__ = ["SHUTDOWN_GRACE_S", "FrameServer", "run_daemon"]

#: Seconds a graceful shutdown waits for in-flight connections to drain.
SHUTDOWN_GRACE_S = 5.0


class FrameServer:
    """Serves ``serve_connection(sock, connection_id)`` once per connection.

    ``connection_id`` is a dense counter allocated under the server's
    lock, so concurrent accepts never share one (a worker daemon reports
    it as its ``worker_id``).  The server closes a connection's socket when
    its function returns or raises.
    """

    def __init__(
        self,
        address: tuple[str, int],
        serve_connection: Callable[[socket.socket, int], None],
    ) -> None:
        self._listener = socket.create_server(address)
        self._serve_connection = serve_connection
        self._lock = threading.Lock()
        #: Notified (under ``_lock``) whenever a connection ends.
        self._drained = threading.Condition(self._lock)
        self._connections: dict[int, socket.socket] = {}
        self._next_id = 0
        self._stopping = False
        self._accept_thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        """The bound ``host:port`` (resolves an ephemeral port 0)."""
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def serve_forever(self) -> None:
        """Accept until :meth:`shutdown`; each connection gets its own thread.

        What goes wrong around one connection (a failed ``accept``, no thread
        to be had) ends that connection; the loop keeps accepting.
        """
        self._accept_thread = threading.current_thread()
        while not self._stopping:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                continue  # shutdown() woke us, or this one accept failed
            if self._stopping:
                sock.close()
                break
            with self._lock:
                connection_id = self._next_id
                self._next_id += 1
                self._connections[connection_id] = sock
            try:
                threading.Thread(
                    target=self._run_connection,
                    args=(sock, connection_id),
                    name=f"frame-conn-{connection_id}",
                    daemon=True,
                ).start()
            except RuntimeError:  # can't start new thread
                self._end_connection(sock, connection_id)

    def _run_connection(self, sock: socket.socket, connection_id: int) -> None:
        try:
            self._serve_connection(sock, connection_id)
        finally:
            self._end_connection(sock, connection_id)

    def _end_connection(self, sock: socket.socket, connection_id: int) -> None:
        sock.close()
        with self._drained:
            del self._connections[connection_id]
            self._drained.notify_all()

    def serve_in_thread(self) -> str:
        """Serve from a daemon thread; returns the address."""
        threading.Thread(
            target=self.serve_forever, name="frame-accept", daemon=True
        ).start()
        return self.address

    def shutdown(self) -> None:
        """Stop accepting and wait for the accept loop to end (idempotent).

        Immediate: the blocked ``accept()`` is woken, not polled.  Must not be
        called from the accept thread itself.
        """
        if not self._stopping:
            self._stopping = True
            try:
                self._listener.shutdown(socket.SHUT_RDWR)  # wakes accept() on Linux
            except OSError:
                # Platforms that refuse to shut a listening socket down: a
                # throw-away connection wakes the accept loop instead.
                try:
                    socket.create_connection(self._listener.getsockname()[:2], 1.0).close()
                except OSError:
                    pass
        thread = self._accept_thread
        if thread is not None:
            thread.join()

    def close_connections(self) -> None:
        """End every live connection's read side: a connection function
        blocked in ``read_frame`` sees EOF, a reply it is writing still leaves."""
        with self._lock:
            for sock in self._connections.values():
                try:
                    sock.shutdown(socket.SHUT_RD)
                except OSError:
                    pass  # the peer already reset it

    def shutdown_gracefully(self, grace_s: float = SHUTDOWN_GRACE_S) -> None:
        """Stop accepting, wait for live connections to drain, then close.

        Connection loops exit on their own when the peer sends its goodbye
        (or drops the socket); this only bounds how long we wait for that
        to happen before closing the listener anyway.
        """
        self.shutdown()
        with self._drained:
            self._drained.wait_for(lambda: not self._connections, timeout=grace_s)
        self._listener.close()


def run_daemon(address: str, shutdown: Callable[[], None], announce: bool) -> int:
    """Park a daemon's main thread until SIGTERM/SIGINT, then run ``shutdown``.

    The daemon is already serving ``address`` from its own threads
    (:meth:`FrameServer.serve_in_thread`, ``Gateway.start``); ``shutdown`` is
    its graceful teardown.  ``announce`` prints ``listening <host>:<port>``
    (for harnesses starting daemons on port 0) — after the handlers are in
    place, so a harness may signal as soon as it has read the line.
    """
    stop_requested = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop_requested.set())
    if announce:
        print(f"listening {address}", flush=True)
    stop_requested.wait()
    shutdown()
    return 0
