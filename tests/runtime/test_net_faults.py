"""Fault-injection matrix for the network execution backend.

Each scenario wraps :class:`LoopbackEndpoint` with a misbehaving transport —
dropping acks, delaying past the heartbeat, killing the worker mid-chunk,
wedging silently, corrupting the stream — and asserts the drain either
completes with bit-correct results (failed endpoints excluded, work
resubmitted to the survivors) or fails with the *named*
:class:`~repro.common.exceptions.NetworkDrainError`.  Nothing may hang:
every scenario is bounded by an explicit ``drain_timeout`` far below the
pytest session budget, and the wall-clock of the error paths is asserted.

The 500-task churn soak (``pytest -m net_soak``) lives here too; it is
excluded from tier-1 by the marker expression in ``pytest.ini``.
"""

from __future__ import annotations

import socket
import time

import numpy as np
import pytest

from repro.common.config import RuntimeConfig
from repro.common.exceptions import (
    ConfigurationError,
    NetworkDrainError,
    RuntimeStateError,
    WireProtocolError,
)
from repro.runtime.data import DataRegion, In, InOut, Out
from repro.runtime.task import TaskType
from repro.runtime.net_executor import NetworkExecutor
from repro.runtime.net_transport import LoopbackEndpoint, NetWorkerState, serve_connection
from repro.runtime.net_wire import PROTOCOL_VERSION, read_frame, write_frame
from repro.session import ReproConfig, Session
from tests.conftest import SQUARE_TYPE, full_ship, square_body

#: Hard bound on every scenario: a hang fails loudly, it never stalls CI.
SCENARIO_TIMEOUT = 30.0
#: Heartbeat budget used by the fault scenarios (small: faults fire fast).
FAULT_NET_TIMEOUT = 0.4


# -- misbehaving endpoints ------------------------------------------------------------
class DropAckEndpoint(LoopbackEndpoint):
    """Swallows every ack frame: receipt liveness is lost, results are not."""

    def deliver(self, message):
        if message[0] == "ack":
            return
        super().deliver(message)


class DelayPastHeartbeatEndpoint(LoopbackEndpoint):
    """Delays its first result until well past the heartbeat deadline."""

    def __init__(self, name, delay_s: float):
        super().__init__(name)
        self.delay_s = delay_s
        self._delayed = False

    def deliver(self, message):
        if message[0] == "result" and not self._delayed:
            self._delayed = True
            time.sleep(self.delay_s)
        super().deliver(message)


class KillMidChunkEndpoint(LoopbackEndpoint):
    """Worker that acks its first chunk then dies (connection closed)."""

    def worker_target(self, sock: socket.socket) -> None:
        try:
            while True:
                message = read_frame(sock)
                if message[0] == "hello":
                    write_frame(sock, ("hello_ack", {"worker_id": -1}))
                elif message[0] == "chunk":
                    write_frame(sock, ("ack", message[1].chunk_id))
                    return  # dies mid-chunk: ack sent, result never will be
                elif message[0] == "shutdown":
                    return
        finally:
            sock.close()


class WedgeMidChunkEndpoint(LoopbackEndpoint):
    """Worker that acks its first chunk then goes silent (socket stays open).

    Unlike :class:`KillMidChunkEndpoint` the parent sees no transport error;
    only the heartbeat timeout can unblock the drain.
    """

    def worker_target(self, sock: socket.socket) -> None:
        try:
            while True:
                message = read_frame(sock)
                if message[0] == "hello":
                    write_frame(sock, ("hello_ack", {"worker_id": -1}))
                elif message[0] == "chunk":
                    write_frame(sock, ("ack", message[1].chunk_id))
                    while sock.recv(1 << 16):  # wedged: deaf until the parent hangs up
                        pass
                    return
                elif message[0] == "shutdown":
                    return
        except Exception:
            pass
        finally:
            sock.close()


class GarbageFrameEndpoint(LoopbackEndpoint):
    """Worker that acks its first chunk and then corrupts the stream.

    The socket stays open afterwards so the *decoder* error is what the
    parent observes (closing it would race a broken-pipe send failure in
    first; either way the endpoint is excluded, but this test pins the
    wire-protocol detection specifically).
    """

    def worker_target(self, sock: socket.socket) -> None:
        try:
            while True:
                message = read_frame(sock)
                if message[0] == "hello":
                    write_frame(sock, ("hello_ack", {"worker_id": -1}))
                elif message[0] == "chunk":
                    write_frame(sock, ("ack", message[1].chunk_id))
                    sock.sendall(b"\xde\xad\xbe\xef" * 16)  # not a frame
                    while sock.recv(1 << 16):  # stream corrupted; linger until hang-up
                        pass
                    return
                elif message[0] == "shutdown":
                    return
        except Exception:
            pass
        finally:
            sock.close()


class MalformedResultEndpoint(LoopbackEndpoint):
    """Healthy worker, well-framed results — whose writes do not fit the
    tasks they answer (``mutate`` rewrites each ``(access_index, raw)``)."""

    def __init__(self, name: str, mutate):
        super().__init__(name)
        self.mutate = mutate

    def deliver(self, message):
        if message[0] == "result":
            kind, chunk_id, results = message
            message = (kind, chunk_id, [
                (task_id, [self.mutate(index, raw) for index, raw in writes])
                for task_id, writes in results
            ])
        super().deliver(message)


class CrashTaskEndpoint(LoopbackEndpoint):
    """Healthy transport whose task bodies raise (worker-side task bug)."""

    def worker_target(self, sock: socket.socket) -> None:
        serve_connection(sock)


class DieAfterChunksEndpoint(LoopbackEndpoint):
    """Serves the *real* protocol for ``n_chunks`` chunks, then dies.

    Unlike :class:`KillMidChunkEndpoint` this worker actually executes its
    early chunks — so the parent's residency table holds live entries for
    it when the connection drops, which is exactly the state the failover
    invalidation path must clean up.
    """

    def __init__(self, name: str, n_chunks: int):
        super().__init__(name)
        self.n_chunks = n_chunks

    def worker_target(self, sock: socket.socket) -> None:
        state = NetWorkerState(worker_id=-1)
        served = 0
        try:
            while True:
                message = read_frame(sock)
                kind = message[0]
                if kind == "hello":
                    write_frame(sock, ("hello_ack", state.hello(message[1])))
                elif kind == "chunk":
                    chunk = message[1]
                    if served >= self.n_chunks:
                        return  # dies mid-drain, residency entries and all
                    served += 1
                    write_frame(sock, ("ack", chunk.chunk_id))
                    results, error = state.run_chunk(chunk)
                    if error is not None:
                        return
                    write_frame(sock, ("result", chunk.chunk_id, results))
                elif kind == "invalidate":
                    if state.buffer_cache is not None:
                        state.buffer_cache.invalidate(message[1])
                elif kind == "shutdown":
                    return
        except (OSError, ValueError, EOFError):
            pass
        finally:
            sock.close()


class ReportAndCloseEndpoint(LoopbackEndpoint):
    """Worker that answers its first chunk as ``serve_connection`` answers a
    frame it cannot read — an ``("error", None, None, text)`` report — and
    closes the connection."""

    REPORT = "worker -1: WireProtocolError: cannot resolve the task body"

    def worker_target(self, sock: socket.socket) -> None:
        try:
            while True:
                message = read_frame(sock)
                if message[0] == "hello":
                    write_frame(sock, ("hello_ack", {"worker_id": -1}))
                elif message[0] == "chunk":
                    write_frame(sock, ("error", None, None, self.REPORT))
                    return
                elif message[0] == "shutdown":
                    return
        except Exception:
            pass
        finally:
            sock.close()


# -- harness --------------------------------------------------------------------------
def run_square_program(
    endpoints,
    n_tasks: int = 24,
    timeout_s: float = FAULT_NET_TIMEOUT,
    max_retries: int = 2,
    chunk_size: int = 2,
):
    """Drain ``n_tasks`` independent squares through ``endpoints``.

    Returns ``(result, sources, sinks, executor)``; the executor is already
    closed by the session.
    """
    config = RuntimeConfig(
        executor="network",
        num_threads=len(endpoints),
        mp_chunk_size=chunk_size,
        net_timeout_s=timeout_s,
        net_max_retries=max_retries,
    )
    executor = NetworkExecutor(config=config, endpoints=list(endpoints))
    executor.drain_timeout = SCENARIO_TIMEOUT
    sources = [np.full(8, float(i + 1)) for i in range(n_tasks)]
    sinks = [np.zeros(8) for _ in range(n_tasks)]
    with Session(executor=executor) as session:
        for src, dst in zip(sources, sinks):
            session.submit(
                SQUARE_TYPE, square_body, accesses=[In(src), Out(dst)],
                args=(src, dst),
            )
        result = session.wait_all()
    return result, sources, sinks, executor


def assert_correct(result, sources, sinks) -> None:
    assert result.tasks_completed == len(sources)
    for src, dst in zip(sources, sinks):
        assert np.array_equal(dst, src ** 2)


# -- scenarios ------------------------------------------------------------------------
def test_dropped_acks_do_not_stall_the_drain():
    """Acks are liveness metadata: losing every one of them must not matter
    as long as results flow (results update last-heard too)."""
    endpoints = [DropAckEndpoint("drop-ack/0"), LoopbackEndpoint("healthy/0")]
    result, sources, sinks, executor = run_square_program(endpoints)
    assert_correct(result, sources, sinks)
    # The ack-dropping endpoint stayed healthy: no failures recorded.
    assert executor._failures == []


def test_delay_past_heartbeat_fails_endpoint_and_resubmits():
    slow = DelayPastHeartbeatEndpoint("slow/0", delay_s=FAULT_NET_TIMEOUT * 4)
    endpoints = [slow, LoopbackEndpoint("healthy/0")]
    t0 = time.monotonic()
    result, sources, sinks, executor = run_square_program(endpoints)
    assert time.monotonic() - t0 < SCENARIO_TIMEOUT
    assert_correct(result, sources, sinks)
    backend = result.extra["network_backend"]
    assert any("slow/0" in failure for failure in backend["failed_endpoints"])
    assert backend["resubmitted_tasks"] > 0
    # The late duplicate result (delivered after the failure) was dropped:
    # exactly n completions, no double accounting.
    assert result.tasks_memoized + result.tasks_executed == result.tasks_completed


@pytest.mark.parametrize("faulty_cls", [KillMidChunkEndpoint, WedgeMidChunkEndpoint])
def test_dead_worker_mid_chunk_is_excluded_and_work_resubmitted(faulty_cls):
    faulty = faulty_cls("dying/0")
    endpoints = [faulty, LoopbackEndpoint("healthy/0"), LoopbackEndpoint("healthy/1")]
    t0 = time.monotonic()
    result, sources, sinks, executor = run_square_program(endpoints)
    assert time.monotonic() - t0 < SCENARIO_TIMEOUT
    assert_correct(result, sources, sinks)
    backend = result.extra["network_backend"]
    assert any("dying/0" in failure for failure in backend["failed_endpoints"])
    assert backend["resubmitted_tasks"] > 0
    assert faulty.failed  # excluded from any further dispatch


@pytest.mark.parametrize("backend", ["network", "process"])
def test_session_assigned_engine_serves_a_prebuilt_executor(backend):
    """A Session's engine serves the tasks of a pre-built executor: the
    parent looks every task up before it ships, so of six twins one runs on
    a worker and the rest wait for its commit (IKT) or hit it (THT)."""
    config = RuntimeConfig(
        executor=backend, num_threads=1, mp_chunk_size=16,
        net_timeout_s=FAULT_NET_TIMEOUT,
    )
    if backend == "network":
        executor = NetworkExecutor(
            config=config, endpoints=[LoopbackEndpoint("lo/0")]
        )
        executor.drain_timeout = SCENARIO_TIMEOUT
    else:
        from repro.runtime.mp_executor import ProcessExecutor

        executor = ProcessExecutor(config=config)
    n = 6
    source = np.full(16, 2.0)
    sinks = [np.zeros(16) for _ in range(n)]
    with Session({"atm": {"mode": "static"}}, executor=executor) as session:
        for dst in sinks:
            session.submit(
                SQUARE_TYPE, square_body, accesses=[In(source), Out(dst)],
                args=(source, dst),
            )
        result = session.wait_all()
    assert result.tasks_executed == 1
    assert result.tasks_memoized + result.tasks_deferred == n - 1
    for dst in sinks:
        assert np.array_equal(dst, np.full(16, 4.0))


def test_mid_drain_endpoint_loss_keeps_the_parent_engine_whole():
    """An endpoint that dies holding engine-registered producers loses no
    memoization state: the parent resubmits them with their lookups, and
    the twins deferred on them complete when they commit."""
    endpoints = [KillMidChunkEndpoint("dying/0"), LoopbackEndpoint("healthy/0")]
    config = RuntimeConfig(
        executor="network", num_threads=2, mp_chunk_size=2,
        net_timeout_s=FAULT_NET_TIMEOUT, net_max_retries=2,
    )
    executor = NetworkExecutor(config=config, endpoints=endpoints)
    executor.drain_timeout = SCENARIO_TIMEOUT
    # Six inputs, each submitted twice in a row: every twin finds its
    # producer in flight, and both first chunks hold producers.
    sources = [np.full(8, float(i // 2 + 1)) for i in range(12)]
    sinks = [np.zeros(8) for _ in range(12)]
    with Session({"atm": {"mode": "static"}}, executor=executor) as session:
        engine = session.engine
        for src, dst in zip(sources, sinks):
            session.submit(
                SQUARE_TYPE, square_body, accesses=[In(src), Out(dst)],
                args=(src, dst),
            )
        result = session.wait_all()
    assert_correct(result, sources, sinks)
    assert result.extra["network_backend"]["resubmitted_tasks"] > 0
    assert endpoints[0].failed
    assert engine.stats.tasks_seen == 12
    assert len(engine.ikt) == 0
    assert result.tasks_executed == 6
    assert result.tasks_deferred > 0
    assert result.tasks_executed + result.tasks_memoized + result.tasks_deferred == 12


def test_garbage_frame_fails_endpoint_with_wire_error_and_drain_completes():
    garbled = GarbageFrameEndpoint("garbled/0")
    endpoints = [garbled, LoopbackEndpoint("healthy/0")]
    result, sources, sinks, executor = run_square_program(endpoints)
    assert_correct(result, sources, sinks)
    backend = result.extra["network_backend"]
    failure = next(f for f in backend["failed_endpoints"] if "garbled/0" in f)
    assert "WireProtocolError" in failure
    assert garbled.failed


@pytest.mark.parametrize(
    "mutate, named",
    [
        (lambda index, raw: (index, raw[:-3]), "carries 61 bytes for access 1, a 64-byte 'out' region"),
        (lambda index, raw: (index, bytes(raw) + b"\0" * 3), "carries 67 bytes for access 1, a 64-byte 'out' region"),
        (lambda index, raw: (index + 98, raw), "names access 99"),
        (lambda index, raw: (0, raw), "for access 0, a 64-byte 'in' region"),
        (lambda index, raw: (index,), "unreadable result entry"),
    ],
    ids=["short-write", "long-write", "index-out-of-range", "write-to-input", "not-a-pair"],
)
def test_malformed_result_fails_the_endpoint_not_the_drain(mutate, named):
    """A result that frames and checksums fine but does not fit its task is
    an endpoint failure decided *before* the task leaves the in-flight map:
    nothing of it lands, the chunk re-runs on the healthy endpoint.  (The
    parent commit raised a raw ``ValueError`` out of ``wait_all`` for the
    size cases and silently overwrote the input for the ``In`` case.)"""
    bad = MalformedResultEndpoint("malformed/0", mutate)
    endpoints = [bad, LoopbackEndpoint("healthy/0")]
    result, sources, sinks, executor = run_square_program(endpoints)
    assert_correct(result, sources, sinks)
    for i, src in enumerate(sources):
        assert np.array_equal(src, np.full(8, float(i + 1))), "an input was overwritten"
    backend = result.extra["network_backend"]
    failure = next(f for f in backend["failed_endpoints"] if "malformed/0" in f)
    assert "malformed result" in failure and named in failure
    assert bad.failed
    assert backend["resubmitted_tasks"] > 0


class ScriptedReplyEndpoint(LoopbackEndpoint):
    """Worker that answers its first chunk with ``script(chunk_id, task_id)``
    — one well-framed message — and then idles with the socket open, so
    only the parent's own reading of that message can unblock the drain."""

    def __init__(self, name: str, script):
        super().__init__(name)
        self.script = script

    def worker_target(self, sock: socket.socket) -> None:
        try:
            while True:
                message = read_frame(sock)
                if message[0] == "hello":
                    write_frame(sock, ("hello_ack", {"worker_id": -1}))
                elif message[0] == "chunk":
                    chunk = message[1]
                    write_frame(sock, ("ack", chunk.chunk_id))
                    write_frame(sock, self.script(chunk.chunk_id, chunk.tasks[0].task_id))
                    while sock.recv(1 << 16):  # idle until the parent hangs up
                        pass
                    return
                elif message[0] == "shutdown":
                    return
        except Exception:
            pass
        finally:
            sock.close()


@pytest.mark.parametrize(
    "script",
    [
        lambda chunk_id, task_id: 42,
        lambda chunk_id, task_id: ("error", chunk_id),
        lambda chunk_id, task_id: ("result", chunk_id),
        lambda chunk_id, task_id: ("result", chunk_id, [("x",)]),
        lambda chunk_id, task_id: ("result", chunk_id, [(task_id, "teleport", True, [])]),
        lambda chunk_id, task_id: ("error", chunk_id, task_id + 1000, "not mine"),
        lambda chunk_id, task_id: ("ack", [chunk_id]),
    ],
    ids=["not-a-tuple", "short-error", "short-result", "short-result-entry", "unknown-action", "error-for-foreign-task",
         "unhashable-chunk-id"],
)
def test_malformed_reply_fails_the_endpoint_at_once(script, capfd):
    """The parent trusts no reply: one it cannot read is an endpoint failure
    decided when it arrives — not after ``net_timeout_s`` of silence, not a
    dead receiver thread, and never a bare ``IndexError`` out of
    ``wait_all`` (the parent commit did each of the three)."""
    bad = ScriptedReplyEndpoint("scripted/0", script)
    t0 = time.monotonic()
    result, sources, sinks, executor = run_square_program(
        [bad, LoopbackEndpoint("healthy/0")], n_tasks=8, timeout_s=4.0
    )
    assert time.monotonic() - t0 < 1.0, "failed over by heartbeat, not by decoding"
    assert_correct(result, sources, sinks)
    backend = result.extra["network_backend"]
    failure = next(f for f in backend["failed_endpoints"] if "scripted/0" in f)
    assert "malformed reply" in failure or "malformed result" in failure
    assert bad.failed and backend["resubmitted_tasks"] > 0
    assert capfd.readouterr().err == ""  # no traceback from a net-recv-* thread


def test_a_worker_error_report_names_the_failure_once():
    """The receiver posts a worker's error report ahead of the EOF behind
    it, so the report reaches the failure reason once, through the reply
    decoder.  (The parent commit also folded the receiver's copy of it in,
    after a 0.05 s wait: the text appeared twice.)"""
    bad = ReportAndCloseEndpoint("reporting/0")
    result, sources, sinks, executor = run_square_program(
        [bad, LoopbackEndpoint("healthy/0")], n_tasks=8
    )
    assert_correct(result, sources, sinks)
    backend = result.extra["network_backend"]
    failure = next(f for f in backend["failed_endpoints"] if "reporting/0" in f)
    assert failure.count(ReportAndCloseEndpoint.REPORT) == 1, failure
    assert bad.failed


def test_an_acked_wedge_is_the_wedge_rules_not_the_heartbeats():
    """Under ``task_timeout_s`` a chunk its worker acked belongs to the
    wedge rule, even with ``net_timeout_s`` (0.3 s) below the wedge
    budget (0.45 s): one ``TaskTimeoutError``, one endpoint excluded for
    it, every square done on the other.  (The parent commit failed the
    wedged endpoint by heartbeat, re-ran the wedge on the second one and
    ended the drain in "all network endpoints failed".)"""
    from repro.testing.faults import fault_session, submit_one, wedge_body

    with fault_session(
        "network", task_timeout_s=0.2, net_timeout_s=0.3, on_task_failure="quarantine"
    ) as session:
        submit_one(session, wedge_body, 3.0, label="wedge")
        sinks = [submit_one(session, square_body, label="work") for _ in range(49)]
        result = session.wait_all()
    assert [(f.label.split("#")[0], f.error) for f in result.failures] == [
        ("wedge", "TaskTimeoutError")
    ]
    failed = result.extra["network_backend"]["failed_endpoints"]
    assert len(failed) == 1 and "task_timeout_s=0.2" in failed[0], failed
    assert result.tasks_completed == 49
    assert all(np.array_equal(dst, src ** 2) for src, dst in sinks)


def _hostile_chunk():
    from repro.runtime.net_wire import NetChunk

    return ("chunk", NetChunk(1, (), ()))


def _hello(**fields):
    return ("hello", {"protocol": PROTOCOL_VERSION, **fields})


@pytest.mark.parametrize(
    "prelude, hostile, named",
    [
        ((), 42, "not a protocol message"),
        ((), ("chunk", 42), "chunk before hello"),
        ((), ("hello", 5), "unreadable 'hello' message"),
        # The protocol before this one named a data plane in its hello.
        ((), ("hello", {"protocol": PROTOCOL_VERSION - 1}),
         f"protocol version mismatch: client speaks {PROTOCOL_VERSION - 1}"),
        ((_hello(),), ("invalidate",), "unreadable 'invalidate' message"),
        ((_hello(),), ("chunk", 42), "unreadable 'chunk' message"),
        ((), _hostile_chunk(), "chunk before hello"),
        ((_hello(),), ("teleport", 1), "unknown message kind"),
        ((_hello(),), ("release",), "unreadable 'release' message"),
        ((_hello(shared=True),), ("release", 5), "unreadable 'release' message"),
    ],
    ids=["not-a-tuple", "int-chunk-unhello", "int-hello", "previous-protocol",
         "short-invalidate", "int-chunk", "chunk-before-hello", "unknown-kind",
         "short-release", "int-release"],
)
def test_worker_reports_a_message_it_cannot_read_and_closes(prelude, hostile, named, capfd):
    """The worker trusts no frame either: a well-framed message that is not
    a protocol tuple of the right shape gets the best-effort ``("error",
    None, None, "worker N: WireProtocolError: ...")`` report and a clean
    close — nothing escapes ``serve_connection`` (at the parent: a
    ``TypeError``/``AttributeError`` traceback on the daemon's stderr)."""
    import threading

    from repro.runtime.net_wire import request

    client, served = socket.socketpair()
    escaped: list[BaseException] = []

    def serve() -> None:
        try:
            serve_connection(served, worker_id=7)
        except BaseException as exc:  # the bug this test exists for
            escaped.append(exc)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    with client:
        client.settimeout(SCENARIO_TIMEOUT)
        for message in prelude:
            assert request(client, message)[0] == "hello_ack"
        t0 = time.monotonic()
        report = request(client, hostile)
        assert report[:3] == ("error", None, None)
        assert report[3].startswith("worker 7: WireProtocolError: ") and named in report[3]
        assert client.recv(1) == b""  # closed, not left half-open
        assert time.monotonic() - t0 < 1.0
    thread.join(timeout=SCENARIO_TIMEOUT)
    assert not thread.is_alive() and escaped == []
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err == ""


def test_a_shared_hello_from_a_tcp_peer_is_refused(live_listener):
    """Only a peer on a Unix socket (a process pool on this host) may name
    segments for a worker to map: a TCP peer asking for the shared data
    plane gets the named error and a close, and maps nothing."""
    from conftest import exchange

    from repro.runtime.net_wire import encode_frame, iter_frames

    raw = bytes(encode_frame(_hello(shared=True)))
    replies = list(iter_frames(exchange(live_listener("net_worker"), raw)))
    assert len(replies) == 1 and replies[0][:3] == ("error", None, None)
    assert "WireProtocolError: a shared-segment hello over a network connection" in replies[0][3]


CONTRACT_TYPE = TaskType("contract", memoizable=False)


def _contract_chunk(ref):
    """Four tasks — healthy, healthy, raising, healthy — described through
    ``ref``; returns ``(descriptors, sources, sinks)``."""
    from repro.runtime.remote_task import describe_task
    from repro.testing.faults import raising_body

    bodies = [square_body, square_body, raising_body, square_body]
    sources = [np.full(8, float(i + 1)) for i in range(4)]
    sinks = [np.zeros(8) for _ in range(4)]
    descriptors = [
        describe_task(
            task_id, task_id, CONTRACT_TYPE, body, [In(src), Out(dst)], (src, dst), {}, ref
        )
        for task_id, (body, src, dst) in enumerate(zip(bodies, sources, sinks))
    ]
    return descriptors, sources, sinks


def _serve_one_chunk(hello: dict, chunk) -> list:
    """The one worker loop on a socketpair: hello, one chunk, shutdown;
    every reply after the ``hello_ack``."""
    import threading

    from repro.runtime.net_wire import PROTOCOL_VERSION, request

    client, served = socket.socketpair()
    thread = threading.Thread(target=serve_connection, args=(served, 3), daemon=True)
    thread.start()
    with client:
        client.settimeout(SCENARIO_TIMEOUT)
        assert request(client, ("hello", {"protocol": PROTOCOL_VERSION, **hello}))[0] == "hello_ack"
        write_frame(client, ("chunk", chunk))
        write_frame(client, ("shutdown",))
        replies = []
        try:
            while True:
                replies.append(read_frame(client))
        except Exception:  # EOF: the worker closed after the shutdown
            pass
    thread.join(timeout=SCENARIO_TIMEOUT)
    return replies


def _replies_over_shared_segments():
    """The process transport: the shared hello, the chunk's refs in the
    segments of a parent's registry; the written bytes stay there."""
    from repro.runtime.net_wire import NetChunk
    from repro.runtime.shm import SharedBufferRegistry

    registry = SharedBufferRegistry()
    try:
        descriptors, sources, sinks = _contract_chunk(registry.array_ref)
        chunk = NetChunk(7, registry.table(), tuple(descriptors))
        replies = _serve_one_chunk({"shared": True}, chunk)
        registry.copy_out(DataRegion(sink) for sink in sinks)
        return replies, sources, sinks
    finally:
        registry.close()


def _replies_over_shipped_spans():
    """The network transport: the same chunk with its spans shipped."""
    from repro.runtime.net_wire import ChunkEncoder, NetChunk

    encoder = ChunkEncoder()
    descriptors, sources, sinks = _contract_chunk(encoder.ref)
    replies = _serve_one_chunk({}, NetChunk(7, full_ship(encoder), tuple(descriptors)))
    for message in replies:  # the written bytes ride on the result: land them
        if message[0] == "result":
            for task_id, writes in message[2]:
                for index, raw in writes:
                    assert index == 1
                    sinks[task_id][:] = np.frombuffer(raw, dtype=np.float64)
    return replies, sources, sinks


@pytest.mark.parametrize(
    "transport", [_replies_over_shared_segments, _replies_over_shipped_spans],
    ids=["process", "network"],
)
def test_one_worker_one_reply_vocabulary_under_both_transports(transport):
    """The contract, once: the same chunk (healthy, healthy, raising,
    healthy) through the one worker behind either transport gets ``ack``,
    ``result`` with the finished two-task prefix and ``error`` naming task 3
    — the fourth task is dropped for the parent to redistribute.  The
    data planes differ in the hello and in whether written bytes ride on a
    result, nothing else."""
    replies, sources, sinks = transport()
    kinds = [message[0] for message in replies]
    assert kinds == ["ack", "result", "error"]
    ack, result, error = replies
    assert ack == ("ack", 7)
    assert result[1] == 7
    assert [entry[0] for entry in result[2]] == [0, 1]
    assert error[:3] == ("error", 7, 2) and "injected task failure" in error[3]
    for index in (0, 1):
        assert np.array_equal(sinks[index], sources[index] ** 2)
    assert not sinks[2].any() and not sinks[3].any()


def test_failover_drops_residency_and_survivors_stay_bit_correct():
    """An endpoint that dies *holding residency* must not poison the drain.

    Drain 1 establishes warm per-endpoint caches for every source buffer;
    drain 2 re-reads the same sources, so locality placement routes each
    chunk back to the endpoint that holds its bytes — including the one
    that dies on arrival.  The parent must drop the dead endpoint's
    residency, resubmit, and full-ship the orphaned spans to survivors:
    every result bit-correct, with real cache hits on the surviving
    endpoints along the way.
    """
    endpoints = [
        DieAfterChunksEndpoint("dying/0", n_chunks=2),
        LoopbackEndpoint("healthy/0"),
        LoopbackEndpoint("healthy/1"),
    ]
    config = RuntimeConfig(
        executor="network", num_threads=3, mp_chunk_size=2,
        net_timeout_s=FAULT_NET_TIMEOUT, net_max_retries=2,
    )
    executor = NetworkExecutor(config=config, endpoints=endpoints)
    executor.drain_timeout = SCENARIO_TIMEOUT
    n = 12
    sources = [np.full(8, float(i + 1)) for i in range(n)]
    t0 = time.monotonic()
    with Session(executor=executor) as session:
        first = [np.zeros(8) for _ in range(n)]
        for src, dst in zip(sources, first):
            session.submit(
                SQUARE_TYPE, square_body, accesses=[In(src), Out(dst)],
                args=(src, dst),
            )
        session.wait_all()
        second = [np.zeros(8) for _ in range(n)]
        for src, dst in zip(sources, second):
            session.submit(
                SQUARE_TYPE, square_body, accesses=[In(src), Out(dst)],
                args=(src, dst),
            )
        result = session.wait_all()
    assert time.monotonic() - t0 < SCENARIO_TIMEOUT
    for src, dst in zip(sources, first):
        assert np.array_equal(dst, src ** 2)
    for src, dst in zip(sources, second):
        assert np.array_equal(dst, src ** 2)
    backend = result.extra["network_backend"]
    assert any("dying/0" in failure for failure in backend["failed_endpoints"])
    assert backend["resubmitted_tasks"] > 0
    # Drain 2 really ran over the cached protocol on the survivors.
    assert backend["residency"]["hits"] > 0


def scan_body(src, dst):
    dst[0] = src.sum()


def test_residency_ships_an_iterative_read_mostly_program_once():
    """Drains 2..n over unchanged inputs put references on the wire, not
    bytes: drain 1 ships every input span, drains 2-4 ship no span byte
    and together frame fewer bytes than one input span, and every result
    is right."""
    scan_type = TaskType("resident_scan", memoizable=False)
    sources = [np.full(4096, float(i + 1)) for i in range(8)]
    config = RuntimeConfig(
        executor="network", num_threads=2, mp_chunk_size=2, net_endpoints="loopback:2",
    )
    sinks = [np.zeros(1) for _ in sources]
    payload, shipped = [], []
    with Session(ReproConfig(runtime=config)) as session:
        for _ in range(4):
            for src, dst in zip(sources, sinks):
                session.submit(
                    scan_type, scan_body, accesses=[In(src), Out(dst)], args=(src, dst),
                )
            backend = session.wait_all().extra["network_backend"]
            payload.append(backend["payload_bytes"])
            shipped.append(backend["residency"]["bytes_shipped"])
            assert np.concatenate(sinks).tolist() == [src.sum() for src in sources]
    span = sources[0].nbytes
    assert shipped[0] > len(sources) * span
    assert shipped == shipped[:1] * 4, shipped
    assert payload[-1] - payload[0] < span, payload


def test_a_worker_refuses_a_protocol_12_hello_by_name():
    """Protocol 12's network hello named a data plane (``"residency"``);
    13 has one, so a protocol-12 peer is refused whichever plane it named."""
    for residency in (True, False):
        state = NetWorkerState()
        with pytest.raises(WireProtocolError, match="client speaks 12, worker speaks 13"):
            state.hello({"protocol": 12, "residency": residency})
        assert state.worker is None and state.buffer_cache is None


def test_a_network_session_refuses_net_residency_off():
    """The network backend has one data plane: ``net_residency=False``
    names a protocol that is gone, and a Session asking for it says so."""
    cfg = ReproConfig().with_overrides(
        runtime={"executor": "network", "num_threads": 2, "net_residency": False}
    )
    with pytest.raises(ConfigurationError, match="one data plane"):
        Session(cfg)


def test_kill_one_of_three_keeps_survivor_placement_balanced():
    """The round-robin skew regression: after an endpoint dies, cold
    chunks must keep rotating evenly over the *survivors* — the old
    live-list-indexed cursor re-biased placement every time the live set
    shrank."""
    endpoints = [
        KillMidChunkEndpoint("dying/0"),
        LoopbackEndpoint("healthy/0"),
        LoopbackEndpoint("healthy/1"),
    ]
    result, sources, sinks, executor = run_square_program(
        endpoints, n_tasks=24, chunk_size=2
    )
    assert_correct(result, sources, sinks)
    by_endpoint = result.extra["network_backend"]["chunks_by_endpoint"]
    survivors = [by_endpoint.get("healthy/0", 0), by_endpoint.get("healthy/1", 0)]
    assert min(survivors) >= 4, f"skewed placement after failover: {by_endpoint}"
    assert abs(survivors[0] - survivors[1]) <= 3, (
        f"survivors out of balance after failover: {by_endpoint}"
    )


def test_total_loss_raises_named_error_instead_of_hanging():
    endpoints = [KillMidChunkEndpoint("dying/0"), KillMidChunkEndpoint("dying/1")]
    t0 = time.monotonic()
    with pytest.raises(NetworkDrainError):
        run_square_program(endpoints, n_tasks=8)
    assert time.monotonic() - t0 < SCENARIO_TIMEOUT


def test_an_aborted_drain_retires_its_in_flight_keys():
    """The parent registers a shipped task's key in the IKT; a drain that
    aborts before the task commits must retire it, or a twin submitted
    later would wait forever on a producer that never commits."""
    from repro.atm.engine import ATMEngine
    from repro.atm.policy import StaticATMPolicy
    from repro.common.config import ATMConfig

    config = RuntimeConfig(
        executor="network", num_threads=1, net_timeout_s=FAULT_NET_TIMEOUT, net_max_retries=0,
    )
    executor = NetworkExecutor(config=config, endpoints=[KillMidChunkEndpoint("dying/0")])
    executor.drain_timeout = SCENARIO_TIMEOUT
    atm = ATMConfig()
    engine = ATMEngine(
        config=atm, policy=StaticATMPolicy(atm), num_threads=executor.max_in_flight
    )
    with pytest.raises(NetworkDrainError):
        with Session(executor=executor, engine=engine) as session:
            for i in range(4):
                src, dst = np.full(8, float(i)), np.zeros(8)
                session.submit(
                    SQUARE_TYPE, square_body, accesses=[In(src), Out(dst)], args=(src, dst)
                )
            session.wait_all()
    assert engine.stats.misses == 4 and len(engine.ikt) == 0


def test_retry_budget_exhaustion_raises_named_error():
    """One healthy endpoint cannot save a task whose retries are exhausted:
    with max_retries=0 the first resubmission attempt must raise."""
    endpoints = [KillMidChunkEndpoint("dying/0"), LoopbackEndpoint("healthy/0")]
    t0 = time.monotonic()
    with pytest.raises(NetworkDrainError, match="net_max_retries"):
        run_square_program(endpoints, n_tasks=24, max_retries=0)
    assert time.monotonic() - t0 < SCENARIO_TIMEOUT


def test_all_endpoints_unreachable_raises_named_error():
    class Unreachable(LoopbackEndpoint):
        def connect(self):
            raise OSError("connection refused")

    endpoints = [Unreachable("gone/0"), Unreachable("gone/1")]
    with pytest.raises(NetworkDrainError, match="no network endpoint"):
        run_square_program(endpoints, n_tasks=4)


def _raise_in_worker(src, dst):  # module-level: must pickle by reference
    raise ValueError("boom inside the worker")


def _bump_body(x):  # module-level: must pickle by reference
    x += 1.0


def test_worker_task_exception_surfaces_as_runtime_error():
    """A *task* bug is not a transport fault: it aborts the drain loudly
    (resubmitting a deterministic crash elsewhere would just crash again)."""
    config = RuntimeConfig(
        executor="network", num_threads=1, net_timeout_s=FAULT_NET_TIMEOUT
    )
    executor = NetworkExecutor(
        config=config, endpoints=[CrashTaskEndpoint("healthy/0")]
    )
    executor.drain_timeout = SCENARIO_TIMEOUT
    src, dst = np.ones(4), np.zeros(4)
    with pytest.raises(RuntimeStateError, match="boom inside the worker"):
        with Session(executor=executor) as session:
            session.submit(
                SQUARE_TYPE, _raise_in_worker,
                accesses=[In(src), Out(dst)], args=(src, dst),
            )
            session.wait_all()


def test_concurrent_connects_get_distinct_worker_ids():
    """The daemon allocates connection ids under its lock: eight endpoints
    connecting together must never share the ``worker_id`` their engine
    replicas and ``hello_ack`` report (the old per-handler read-modify-write
    on the threading server could hand one id out twice)."""
    import sys
    import threading

    from repro.runtime.net_server import FrameServer
    from repro.runtime.net_wire import PROTOCOL_VERSION, request

    server = FrameServer(("127.0.0.1", 0), serve_connection)
    host, port = server.serve_in_thread().rsplit(":", 1)
    n = 8
    barrier = threading.Barrier(n)
    ids: list[int] = []

    def connect() -> None:
        with socket.create_connection((host, int(port)), timeout=10.0) as sock:
            barrier.wait(timeout=10.0)
            reply = request(sock, ("hello", {"protocol": PROTOCOL_VERSION}))
            ids.append(reply[1]["worker_id"])
            write_frame(sock, ("shutdown",))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=connect) for _ in range(n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=SCENARIO_TIMEOUT)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        server.shutdown_gracefully()
    assert sorted(ids) == list(range(n))


# -- churn soak (excluded from tier-1; run with `pytest -m net_soak`) -----------------
@pytest.mark.net_soak
def test_500_task_churn_with_mid_drain_worker_loss():
    """500-task churn across 4 endpoints, one of which dies mid-drain.

    Dependences chain every 5th task so completions interleave with fresh
    dispatches for the whole drain; the dying endpoint forces resubmission
    under churn.  Everything must come out bit-correct.
    """
    endpoints = [
        KillMidChunkEndpoint("dying/0"),
        LoopbackEndpoint("healthy/0"),
        LoopbackEndpoint("healthy/1"),
        LoopbackEndpoint("healthy/2"),
    ]
    config = RuntimeConfig(
        executor="network",
        num_threads=len(endpoints),
        mp_chunk_size=4,
        net_timeout_s=1.0,
        net_max_retries=3,
    )
    executor = NetworkExecutor(config=config, endpoints=endpoints)
    executor.drain_timeout = 120.0
    n_chains, chain_length = 100, 5
    bump_type = TaskType("bump", memoizable=False)
    buffers = [np.full(16, float(i + 1)) for i in range(n_chains)]
    with Session(executor=executor) as session:
        for _ in range(chain_length):
            for buffer in buffers:
                session.submit(
                    bump_type, _bump_body,
                    accesses=[InOut(buffer)], args=(buffer,),
                )
        result = session.wait_all()
    assert result.tasks_completed == n_chains * chain_length
    for i, buffer in enumerate(buffers):
        assert np.array_equal(buffer, np.full(16, float(i + 1) + chain_length))
    backend = result.extra["network_backend"]
    assert any("dying/0" in failure for failure in backend["failed_endpoints"])
