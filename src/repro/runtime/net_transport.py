"""Endpoints and the worker service loop of the network backend.

Transport model (DESIGN.md §4.5): the :class:`NetworkExecutor` parent holds
one point-to-point connection per worker *endpoint*.  Each endpoint owns a
socket plus a receiver thread that decodes frames
(:mod:`repro.runtime.net_wire`) and posts ``(endpoint, message)`` pairs onto
the executor's single inbox queue; sends happen inline under a per-endpoint
lock.  Two concrete endpoints exist:

* :class:`LoopbackEndpoint` — a ``socket.socketpair`` whose far end is
  served by an in-process worker thread running the *same*
  :func:`serve_connection` loop the TCP daemon runs.  The full stack —
  framing, acks, heartbeats, resubmission — is exercised on one machine
  with zero extra infrastructure; this is the default
  (``RuntimeConfig.net_endpoints = "loopback"``) and what the parity and
  fault suites drive.
* :class:`TcpEndpoint` — connects to a ``scripts/net_worker.py`` daemon at
  ``host:port``.

Endpoint failure is a *state*, not an exception: when the socket breaks, a
frame fails to decode, or the executor's heartbeat deadline expires, the
endpoint is marked ``failed``, excluded from further dispatch, and its
unfinished chunks are resubmitted elsewhere.  The fault-injection tests
subclass :class:`LoopbackEndpoint` and override :meth:`SocketEndpoint.deliver`
/ :meth:`LoopbackEndpoint.worker_target` to drop acks, delay past the
heartbeat, kill the worker mid-chunk or corrupt the stream.

The worker side — :class:`NetWorkerState` + :func:`serve_connection` — is
the one :class:`~repro.runtime.remote_task.RemoteWorker` behind a framed
socket: it reads frames from any socket, so the loopback thread and the
standalone TCP daemon share every line of it.  ``hello`` / ``ping`` /
``invalidate`` / ``shutdown`` are this transport's own messages; ``chunk``
and ``sync`` and their replies are the remote-worker protocol's (DESIGN.md
§4.6).  Neither side trusts the other's frames: whatever is not a protocol
tuple of the right shape ends in a named error, never in an exception on a
service thread.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Any, Optional

from repro.common.config import ATMConfig
from repro.common.exceptions import (
    NetworkTransportError,
    WireProtocolError,
)
from repro.runtime.net_wire import (
    ChunkArena,
    Frame,
    NetChunk,
    PROTOCOL_VERSION,
    encode_frame,
    raw_view,
    read_frame,
    send_frame,
    write_frame,
)
from repro.runtime.remote_task import RemoteWorker
from repro.runtime.residency import WorkerBufferCache
from repro.runtime.task import Task

__all__ = [
    "TRANSPORT_ERROR",
    "SocketEndpoint",
    "LoopbackEndpoint",
    "TcpEndpoint",
    "NetWorkerState",
    "serve_connection",
    "parse_endpoints",
]

#: Message kind posted to the inbox when an endpoint's receive path dies.
TRANSPORT_ERROR = "__transport_error__"


# -- parent-side endpoints ------------------------------------------------------------
class SocketEndpoint:
    """One connection from the executor to a worker, with a receiver thread."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Set (only) by the executor when it declares this endpoint dead.
        self.failed = False
        #: Last worker-side error report seen by the receiver thread; the
        #: executor folds it into the failure reason when the connection
        #: breaks before the report can travel the normal message path.
        self.last_worker_error: Optional[str] = None
        self._sock: Optional[socket.socket] = None
        self._inbox: Optional[queue.Queue] = None
        self._send_lock = threading.Lock()
        self._receiver: Optional[threading.Thread] = None
        self._closed = False

    # -- connection --------------------------------------------------------------
    def connect(self) -> socket.socket:  # pragma: no cover - abstract
        raise NotImplementedError

    def start(self, inbox: queue.Queue) -> None:
        """Connect and spawn the receiver thread posting into ``inbox``."""
        if self._sock is not None:
            return
        self._inbox = inbox
        try:
            self._sock = self.connect()
        except OSError as exc:
            raise NetworkTransportError(
                f"endpoint {self.name}: cannot connect: {exc}"
            ) from exc
        self._receiver = threading.Thread(
            target=self._receive_loop, daemon=True, name=f"net-recv-{self.name}"
        )
        self._receiver.start()

    def _receive_loop(self) -> None:
        sock = self._sock
        try:
            while True:
                message = read_frame(sock)
                if not _is_message(message):
                    raise WireProtocolError(f"malformed reply: {message!r:.80}")
                if message[0] == "error":
                    self.last_worker_error = str(message[-1])
                self.deliver(message)
        except (WireProtocolError, OSError, ValueError) as exc:
            # ValueError: recv on a socket closed by our own close().
            if not self._closed:
                self._post((TRANSPORT_ERROR, f"{type(exc).__name__}: {exc}"))

    def _post(self, message: Any) -> None:
        inbox = self._inbox
        if inbox is not None:
            inbox.put((self, message))

    def deliver(self, message: Any) -> None:
        """Inbound hook: receiver thread -> executor inbox.

        Fault-injection wrappers override this to drop, delay or reorder
        worker->parent messages.
        """
        self._post(message)

    # -- outbound ---------------------------------------------------------------
    def send(self, message: Any) -> None:
        """Send one message, or a :class:`Frame` the caller already encoded.

        The executor frames chunks itself (a task that cannot travel must
        raise with the offending tasks named) and sends the frame straight after;
        the transport-level failure surface is exactly
        :class:`NetworkTransportError`.
        """
        sock = self._sock
        if sock is None or self._closed:
            raise NetworkTransportError(f"endpoint {self.name} is not connected")
        frame = message if isinstance(message, Frame) else encode_frame(message)
        try:
            with self._send_lock:
                send_frame(sock, frame)
        except OSError as exc:
            raise NetworkTransportError(
                f"endpoint {self.name}: send failed: {exc}"
            ) from exc

    # -- teardown ---------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Tear the connection down.

        ``wait=False`` (the executor's *failure* path) skips the thread
        joins: the receiver and any loopback worker are daemon threads that
        die with the closed socket, and joining a wedged worker would stall
        failover on the drain thread for the whole join timeout.
        """
        if self._closed:
            return
        self._closed = True
        if self._sock is not None:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if (
            wait
            and self._receiver is not None
            and self._receiver is not threading.current_thread()
        ):
            self._receiver.join(timeout=2.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "failed" if self.failed else ("closed" if self._closed else "live")
        return f"{type(self).__name__}({self.name!r}, {state})"


class LoopbackEndpoint(SocketEndpoint):
    """In-process worker: a socketpair served by a thread running the real
    protocol loop.  Zero infrastructure, real framing bytes on a real socket.
    """

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._worker_thread: Optional[threading.Thread] = None

    def connect(self) -> socket.socket:
        parent_sock, worker_sock = socket.socketpair()
        self._worker_thread = threading.Thread(
            target=self.worker_target,
            args=(worker_sock,),
            daemon=True,
            name=f"net-worker-{self.name}",
        )
        self._worker_thread.start()
        return parent_sock

    def worker_target(self, sock: socket.socket) -> None:
        """The served side of the pair; fault tests override this."""
        serve_connection(sock)

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        super().close(wait=wait)
        if (
            wait
            and self._worker_thread is not None
            and self._worker_thread is not threading.current_thread()
        ):
            self._worker_thread.join(timeout=2.0)


class TcpEndpoint(SocketEndpoint):
    """Connection to a standalone ``scripts/net_worker.py`` daemon."""

    CONNECT_TIMEOUT = 10.0

    def __init__(self, host: str, port: int) -> None:
        super().__init__(f"{host}:{port}")
        self.host = host
        self.port = port

    def connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.CONNECT_TIMEOUT
        )
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock


def parse_endpoints(spec: str, default_workers: int) -> list[SocketEndpoint]:
    """Build endpoints from ``RuntimeConfig.net_endpoints``.

    ``"loopback"`` / ``"loopback:<n>"`` spawn in-process workers;
    anything else is a comma-separated ``host:port`` list.
    """
    text = spec.strip()
    if text == "loopback" or text.startswith("loopback:"):
        count = default_workers
        if ":" in text:
            try:
                count = int(text.split(":", 1)[1])
            except ValueError as exc:
                raise NetworkTransportError(
                    f"net_endpoints {spec!r}: bad loopback worker count: {exc}"
                ) from exc
        if count < 1:
            raise NetworkTransportError(
                f"net_endpoints {spec!r}: loopback worker count must be >= 1"
            )
        return [LoopbackEndpoint(f"loopback/{i}") for i in range(count)]
    endpoints: list[SocketEndpoint] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, port = part.rpartition(":")
        if not sep or not host:
            raise NetworkTransportError(
                f"net_endpoints entry {part!r} is not host:port"
            )
        try:
            endpoints.append(TcpEndpoint(host, int(port)))
        except ValueError as exc:
            raise NetworkTransportError(
                f"net_endpoints entry {part!r}: bad port: {exc}"
            ) from exc
    if not endpoints:
        raise NetworkTransportError(f"net_endpoints {spec!r} names no endpoints")
    return endpoints


# -- worker side ----------------------------------------------------------------------
def _is_message(message: Any) -> bool:
    """Whether a decoded frame is a protocol tuple: ``(kind: str, ...)``."""
    return isinstance(message, tuple) and bool(message) and isinstance(message[0], str)


def _written_bytes(task: Task) -> list[tuple]:
    """The raw bytes of every region ``task`` wrote, by access index.

    The parent has no shared memory to read them from (the SKIP path's
    ``copy_from`` wrote the worker-local arrays, so it is covered
    identically).  Views, not copies: tasks of one chunk are independent,
    so no later task rewrites these bytes before :func:`serve_connection`
    frames and sends them.
    """
    return [
        (index, raw_view(access.region.array))
        for index, access in enumerate(task.accesses)
        if access.writes
    ]


class NetWorkerState:
    """Per-connection worker state: the remote worker + the residency store."""

    def __init__(self, worker_id: int = 0) -> None:
        self.worker_id = worker_id
        #: Built at hello time, from the engine replica's recipe it brings.
        self.worker: Optional[RemoteWorker] = None
        #: Residency store for shipped backings; created at hello time when
        #: the client runs the residency protocol (``None`` = ship-always).
        self.buffer_cache: Optional[WorkerBufferCache] = None

    # -- handshake ---------------------------------------------------------------
    def hello(self, info: dict) -> dict:
        protocol = info.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise WireProtocolError(
                f"protocol version mismatch: client speaks {protocol}, "
                f"worker speaks {PROTOCOL_VERSION}"
            )
        engine = info.get("engine")  # the replica's ATMConfig, as its dict
        self.worker = RemoteWorker(
            self.worker_id, None if engine is None else ATMConfig(**engine),
            written=_written_bytes,
        )
        self.buffer_cache = WorkerBufferCache() if info.get("residency") else None
        return {"protocol": PROTOCOL_VERSION, "worker_id": self.worker_id}

    # -- execution ---------------------------------------------------------------
    def run_chunk(self, chunk: NetChunk) -> tuple[list[tuple], Optional[tuple]]:
        """Run one chunk; returns ``(results, error)``.

        Each result is ``(task_id, action_value, executed, writes)``.
        ``error`` is ``(task_id, traceback_str)`` when a task body raised —
        the rest of the chunk is dropped.
        """
        arena = ChunkArena(chunk.buffers, cache=self.buffer_cache)
        return self.worker.run_chunk(chunk.tasks, arena)

    # -- barrier -----------------------------------------------------------------
    def sync(self):
        """ATM engine delta since the previous barrier (``None`` engineless)."""
        return self.worker.sync()


def serve_connection(sock: socket.socket, worker_id: int = 0) -> None:
    """Serve one executor connection until shutdown or a dead transport.

    The single worker loop shared by loopback threads and the TCP daemon.
    Task exceptions are reported as ``("error", ...)`` frames — the worker
    survives and the parent decides (it raises; a *transport* fault, by
    contrast, kills the connection and triggers resubmission).  A frame
    that decodes to something other than a message of this protocol is a
    :class:`WireProtocolError` like one that does not decode at all.
    """
    state = NetWorkerState(worker_id=worker_id)
    try:
        while True:
            message = read_frame(sock)
            if not _is_message(message):
                raise WireProtocolError(f"not a protocol message: {message!r:.80}")
            kind = message[0]
            try:
                if kind == "hello":
                    write_frame(sock, ("hello_ack", state.hello(message[1])))
                elif kind == "chunk":
                    if state.worker is None:
                        raise WireProtocolError("chunk before hello")
                    chunk: NetChunk = message[1]
                    for reply in state.worker.replies(
                        chunk.chunk_id, lambda: state.run_chunk(chunk)
                    ):
                        write_frame(sock, reply)
                elif kind == "invalidate":
                    # Residency eviction/invalidations: no reply — the socket's
                    # FIFO order guarantees every chunk referencing the dropped
                    # generations was already processed above.
                    pairs = message[1]
                    if state.buffer_cache is not None:
                        state.buffer_cache.invalidate(pairs)
                elif kind == "sync":
                    write_frame(sock, ("sync_result", state.sync()))
                elif kind == "ping":
                    write_frame(sock, ("pong",))
                elif kind == "shutdown":
                    break
                else:
                    raise WireProtocolError(f"unknown message kind {kind!r}")
            except (WireProtocolError, OSError, EOFError):
                raise
            except Exception as exc:
                # A kind we know around fields we do not: too few of them,
                # an engine recipe that is not one, a chunk that is an int.
                raise WireProtocolError(
                    f"unreadable {kind!r} message: {type(exc).__name__}: {exc}"
                ) from exc
    except WireProtocolError as exc:
        # A frame we could not decode, or no message of this protocol.
        # Best-effort report before dying: it turns the client's opaque
        # connection-reset into the actual cause.
        try:
            write_frame(
                sock, ("error", None, None, f"worker {worker_id}: WireProtocolError: {exc}")
            )
        except (OSError, ValueError):
            pass
    except (OSError, ValueError, EOFError):
        # Transport died: nothing to report to — the client's receiver
        # observes the same breakage independently.
        pass
    finally:
        try:
            sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
