"""Copy-count fences of the network data plane (allocation, not timing).

An array byte crosses the wire once: the sender frames views of the source
arrays (a copy only where the alias rule asks for one), the receiver fills
one buffer per segment and adopts it.  These tests pin that with
``tracemalloc`` after one warm call — every bound fails
on the in-band layout this replaced, where a frame cost about three times
its payload on each side (``tobytes`` + pickle + header concat going out,
chunk list + join + unpickle coming in).
"""

from __future__ import annotations

import socket
import threading
import tracemalloc

import numpy as np

from repro.runtime.data import In, Out
from repro.runtime.net_transport import NetWorkerState
from repro.runtime.net_wire import (
    ChunkEncoder,
    NetBuffer,
    NetChunk,
    PROTOCOL_VERSION,
    encode_frame,
    read_frame,
    send_frame,
    span_view,
)
from repro.runtime.remote_task import describe_task
from repro.runtime.task import TaskType
from tests.conftest import full_ship

SLACK = 64 << 10
SPAN = 4 << 20
BLOCK = 256 << 10


def allocated_by(call) -> tuple[int, object]:
    """``(peak bytes above the starting level, result)`` of ``call()``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return tracemalloc.get_traced_memory()[1] - before, result
    finally:
        tracemalloc.stop()


def span_chunk_message(base: np.ndarray) -> tuple:
    return ("chunk", NetChunk(1, (NetBuffer(7, 0, span_view(base, 0, base.nbytes), 1),), ()))


def test_a_queued_frame_aliases_a_base_touched_at_one_interval_only():
    """The alias rule: a base the chunk touches at one interval ships as a
    view of the base; a base touched at two intervals ships a copy of their
    union span — the bytes between them may be another task's, and its
    write-back may land before the writer thread sends the frame."""
    whole, split = np.arange(64.0), np.arange(64.0)
    encoder = ChunkEncoder()
    encoder.ref(whole)
    encoder.ref(whole[:])  # another view, the same interval
    encoder.ref(split[:16])
    encoder.ref(split[32:48])
    data = {buf.buffer_id: buf for buf in full_ship(encoder)}
    shipped = np.frombuffer(data[id(whole)].data, dtype=np.float64)
    assert np.shares_memory(shipped, whole) and np.array_equal(shipped, whole)
    copied = data[id(split)]
    shipped = np.frombuffer(copied.data, dtype=np.float64)
    assert copied.start == 0 and not np.shares_memory(shipped, split)
    assert np.array_equal(shipped, split[:48])


def test_encoding_a_chunk_frame_copies_no_span_byte():
    base = np.arange(SPAN // 8, dtype=np.float64)
    encode_frame(span_chunk_message(base))  # warm
    peak, frame = allocated_by(lambda: encode_frame(span_chunk_message(base)))
    assert len(frame) > SPAN
    assert peak < SLACK, f"encoding a {SPAN}-byte span allocated {peak} bytes"


def test_reading_a_chunk_frame_allocates_the_payload_once():
    base = np.arange(SPAN // 8, dtype=np.float64)
    frame = encode_frame(span_chunk_message(base))

    def receive():
        near, far = socket.socketpair()
        sender = threading.Thread(target=send_frame, args=(near, frame))
        sender.start()
        try:
            return read_frame(far)
        finally:
            sender.join(timeout=30)
            near.close()
            far.close()

    receive()  # warm
    peak, (_, chunk) = allocated_by(receive)
    assert bytes(chunk.buffers[0].data) == base.tobytes()
    assert peak <= SPAN + SLACK, f"reading a {SPAN}-byte span peaked at {peak} bytes"


WRITE_TYPE = TaskType("fence_write", memoizable=False)


def bump(src, dst):  # module-level: pickles by reference
    np.add(src, 1.0, out=dst)


def test_run_chunk_to_result_frame_copies_no_written_byte():
    """Eight 256 KiB writes leave the worker as views of its arena."""
    sources = [np.full(BLOCK // 8, float(i)) for i in range(8)]
    sinks = [np.zeros(BLOCK // 8) for _ in range(8)]
    encoder = ChunkEncoder()
    tasks = tuple(
        describe_task(i, i, WRITE_TYPE, bump, [In(src), Out(dst)], (src, dst), {}, encoder.ref)
        for i, (src, dst) in enumerate(zip(sources, sinks))
    )
    # What the worker's frame reader hands run_chunk: one writable buffer
    # per shipped span.
    buffers = tuple(
        NetBuffer(buf.buffer_id, buf.start, bytearray(buf.data), buf.generation)
        for buf in full_ship(encoder)
    )
    chunk = NetChunk(1, buffers, tasks)
    state = NetWorkerState()
    state.hello({"protocol": PROTOCOL_VERSION})

    def run_and_frame():
        results, error = state.run_chunk(chunk)
        assert error is None
        return encode_frame(("result", chunk.chunk_id, results))

    run_and_frame()  # warm: task type cache, arena-independent state
    peak, frame = allocated_by(run_and_frame)
    assert len(frame) > 8 * BLOCK
    assert len(frame.buffers) == 1 + 8
    assert peak < SLACK, f"eight {BLOCK}-byte writes allocated {peak} bytes"
