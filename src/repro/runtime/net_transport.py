"""Endpoints and the one worker service loop of the remote backends.

Transport model (DESIGN.md §4.5): a worker-pool parent holds one
point-to-point connection per worker *endpoint*.  Each endpoint owns a
socket plus a receiver thread that decodes frames
(:mod:`repro.runtime.net_wire`) and posts ``(endpoint, message)`` pairs onto
the executor's single inbox queue, and a writer thread that empties the
endpoint's outbox onto the socket: a send never blocks its caller, so a
worker that stopped reading cannot stall the drain thread that must time it
out.  Three concrete endpoints exist:

* :class:`LoopbackEndpoint` — a ``socket.socketpair`` whose far end is
  served by an in-process worker thread running the *same*
  :func:`serve_connection` loop the TCP daemon runs.  The full stack —
  framing, acks, the silence and wedge rules, resubmission — is exercised
  on one machine with zero extra infrastructure; this is the default
  (``RuntimeConfig.net_endpoints = "loopback"``) and what the parity and
  fault suites drive.
* :class:`TcpEndpoint` — connects to a ``scripts/net_worker.py`` daemon at
  ``host:port``.
* :class:`ProcessEndpoint` — a socketpair whose far end a child process
  serves with :func:`serve_connection`: the process backend's worker
  (:mod:`repro.runtime.mp_executor`).  The child's death is the socket's
  EOF, posted after every frame it wrote before dying.

Endpoint failure is a *state*, not an exception: when the socket breaks (a
failed send included: the receiver reports it, behind every frame the worker
wrote), a frame fails to decode, or the executor's silence or wedge rule
fires, the endpoint is marked ``failed``, excluded from further dispatch,
and its unfinished chunks are resubmitted elsewhere.  The fault-injection tests
subclass :class:`LoopbackEndpoint` and override :meth:`SocketEndpoint.deliver`
/ :meth:`LoopbackEndpoint.worker_target` to drop acks, delay past the
silence budget, kill the worker mid-chunk or corrupt the stream.

The worker side — :class:`NetWorkerState` + :func:`serve_connection` — is
the one :class:`~repro.runtime.remote_task.RemoteWorker` behind a framed
socket: it reads frames from any socket, so the loopback thread, the
standalone TCP daemon and a process worker share every line of it.  A
network worker keeps the spans it is shipped in a residency cache; a
``"shared": True`` hello, from a process pool over a local socket, makes
it read the parent's shared segments instead.  ``hello`` / ``invalidate``
/ ``release`` / ``shutdown`` are this transport's own messages; ``chunk``
and its replies are the remote-worker protocol's (DESIGN.md §4.6).  Neither side trusts the
other's frames: whatever is not a protocol tuple of the right shape ends in
a named error, never in an exception on a service thread.
"""

from __future__ import annotations

import queue
import socket
import threading
from typing import Any, Optional

from repro.common.exceptions import (
    NetworkTransportError,
    WireProtocolError,
)
from repro.runtime.data import region_versions
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
    "NetWorkerState",
    "serve_connection",
    "parse_endpoints",
]

#: Message kind posted to the inbox when an endpoint's receive path dies.
TRANSPORT_ERROR = "__transport_error__"


# -- parent-side endpoints ------------------------------------------------------------
class SocketEndpoint:
    """One connection from the executor to a worker, with a receiver thread
    and a writer thread."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: Set (only) by the executor when it declares this endpoint dead.
        self.failed = False
        self._sock: Optional[socket.socket] = None
        self._inbox: Optional[queue.Queue] = None
        #: Frames for the writer thread; ``None`` stops it.
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._threads: list[threading.Thread] = []
        self._closed = False

    # -- connection --------------------------------------------------------------
    def connect(self) -> socket.socket:  # pragma: no cover - abstract
        raise NotImplementedError

    def start(self, inbox: queue.Queue) -> None:
        """Connect and spawn the receiver thread posting into ``inbox`` and
        the writer thread."""
        if self._sock is not None:
            return
        self._inbox = inbox
        try:
            self._sock = self.connect()
        except OSError as exc:
            raise NetworkTransportError(
                f"endpoint {self.name}: cannot connect: {exc}"
            ) from exc
        for loop, role in ((self._receive_loop, "recv"), (self._write_loop, "send")):
            thread = threading.Thread(
                target=loop, args=(self._sock,), daemon=True, name=f"net-{role}-{self.name}"
            )
            thread.start()
            self._threads.append(thread)

    def _receive_loop(self, sock: socket.socket) -> None:
        try:
            while True:
                message = read_frame(sock)
                if not _is_message(message):
                    raise WireProtocolError(f"malformed reply: {message!r:.80}")
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
        """Queue one message, or a :class:`Frame` the caller already encoded,
        for the writer thread.

        Never blocks and never reports the transport: a send that fails is
        the receiver's ``TRANSPORT_ERROR``, posted behind every frame the
        worker wrote before the connection broke, and a closed endpoint
        drops what it is given.  A queued frame may alias only bytes no
        other in-flight task writes (the alias rule,
        :class:`~repro.runtime.net_wire.ChunkEncoder`).
        """
        if not self._closed:
            self._outbox.put(message if isinstance(message, Frame) else encode_frame(message))

    def _write_loop(self, sock: socket.socket) -> None:
        broken = False
        while (frame := self._outbox.get()) is not None:
            if not broken:
                try:
                    send_frame(sock, frame)
                except OSError:
                    broken = True  # drop the rest: the receiver reports the break

    # -- teardown ---------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Tear the connection down.

        ``wait=False`` (the executor's *failure* path) skips the thread
        joins: the receiver, the writer and any loopback worker are daemon
        threads that die with the closed socket, and joining a wedged
        worker would stall failover on the drain thread for the whole join
        timeout.
        """
        if self._closed:
            return
        self._closed = True
        self._outbox.put(None)
        if self._sock is not None:  # the shut socket fails a blocked send
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if wait:
            for thread in self._threads:
                if thread is not threading.current_thread():
                    thread.join(timeout=2.0)

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


class ProcessEndpoint(SocketEndpoint):
    """A worker process: a socketpair whose far end a child started from
    ``context`` (a ``multiprocessing`` context) serves with
    :func:`serve_connection`.  Closing it kills and reaps the child.
    """

    def __init__(self, name: str, worker_id: int, context) -> None:
        super().__init__(name)
        self.worker_id = worker_id
        self._context = context
        self.process = None

    def connect(self) -> socket.socket:
        parent_sock, worker_sock = socket.socketpair()
        self.process = self._context.Process(
            target=_serve_process, args=(worker_sock, self.worker_id),
            daemon=True, name=self.name,
        )
        try:
            self.process.start()
        except BaseException:
            parent_sock.close()
            raise
        finally:
            worker_sock.close()  # the child holds the worker end now
        return parent_sock

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        super().close(wait=wait)
        if self.process is not None and self.process.pid is not None:
            self.process.kill()
            self.process.join(timeout=5.0)


def _serve_process(sock: socket.socket, worker_id: int) -> None:
    """A process worker's main.  The version registry a fork inherited is
    reset first: a parent thread may have held its lock, which the weakref
    callback of an inherited base takes when the base is collected here."""
    region_versions.reset()
    serve_connection(sock, worker_id)


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
    """Per-connection worker state: the remote worker and its data plane —
    a residency store for shipped backings, or, after a ``"shared"`` hello,
    the arena of the parent's shared segments."""

    def __init__(self, worker_id: int = 0, local: bool = False) -> None:
        self.worker_id = worker_id
        #: Whether the peer is on this host (a Unix socket): only such a
        #: peer may name shared segments for this worker to map.
        self.local = local
        #: Built at hello time.
        self.worker: Optional[RemoteWorker] = None
        #: Residency store for shipped backings; created by a network hello.
        self.buffer_cache: Optional[WorkerBufferCache] = None
        #: The shared segments attached so far, kept across chunks until
        #: the parent releases them; created by a ``"shared"`` hello.
        self.arena = None

    # -- handshake ---------------------------------------------------------------
    def hello(self, info: dict) -> dict:
        protocol = info.get("protocol")
        if protocol != PROTOCOL_VERSION:
            raise WireProtocolError(
                f"protocol version mismatch: client speaks {protocol}, "
                f"worker speaks {PROTOCOL_VERSION}"
            )
        if info.get("shared"):
            if not self.local:
                raise WireProtocolError("a shared-segment hello over a network connection")
            from repro.runtime.shm import WorkerArena  # a network worker maps no segment

            self.arena = WorkerArena()
            self.worker = RemoteWorker(self.worker_id)
        else:
            self.worker = RemoteWorker(self.worker_id, written=_written_bytes)
            self.buffer_cache = WorkerBufferCache()
        return {"protocol": PROTOCOL_VERSION, "worker_id": self.worker_id}

    # -- execution ---------------------------------------------------------------
    def run_chunk(self, chunk: NetChunk) -> tuple[list[tuple], Optional[tuple]]:
        """Run one chunk; returns ``(results, error)``.

        Each result is ``(task_id, writes)``, or ``(task_id,)`` over shared
        segments.  ``error`` is ``(task_id, traceback_str)`` when a task
        body raised — the rest of the chunk is dropped.
        """
        arena = self.arena
        if arena is None:
            arena = ChunkArena(chunk.buffers, self.buffer_cache)
        else:
            arena.attach(chunk.buffers)
        return self.worker.run_chunk(chunk.tasks, arena)


def serve_connection(sock: socket.socket, worker_id: int = 0) -> None:
    """Serve one executor connection until shutdown or a dead transport.

    The single worker loop shared by loopback threads, the TCP daemon and
    process workers.
    Task exceptions are reported as ``("error", ...)`` frames — the worker
    survives and the parent decides (it raises; a *transport* fault, by
    contrast, kills the connection and triggers resubmission).  A frame
    that decodes to something other than a message of this protocol is a
    :class:`WireProtocolError` like one that does not decode at all.
    """
    state = NetWorkerState(worker_id, local=sock.family == socket.AF_UNIX)
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
                    _, chunk = message
                    for reply in state.worker.replies(
                        chunk.chunk_id, lambda: state.run_chunk(chunk)
                    ):
                        write_frame(sock, reply)
                # Residency evictions and invalidations, and the segments of
                # bases the parent collected: no reply — the socket's FIFO
                # order guarantees every chunk referencing the dropped
                # generations or slots was already processed above.
                elif kind == "invalidate":
                    pairs = message[1]
                    if state.buffer_cache is not None:
                        state.buffer_cache.invalidate(pairs)
                elif kind == "release":
                    slots = message[1]
                    if state.arena is not None:
                        state.arena.release(slots)
                elif kind == "shutdown":
                    break
                else:
                    raise WireProtocolError(f"unknown message kind {kind!r}")
            except (WireProtocolError, OSError, EOFError):
                raise
            except Exception as exc:
                # A kind we know around fields we do not: too few or too
                # many of them, a chunk that is an int.
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
        if state.arena is not None:
            state.arena.close()
        try:
            sock.close()
        except OSError:  # pragma: no cover - defensive
            pass
