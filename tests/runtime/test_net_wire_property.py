"""Property-based tests for the segmented network wire format.

Hypothesis-driven guarantees over :mod:`repro.runtime.net_wire`:

* **frame identity** — a message mixing plain values, zero-length and many
  tiny segments and arrays of every layout (each one segment), or a chunk
  whose buffer table mixes full and ``data=None`` :class:`NetBuffer` rows,
  comes back identical through both decoders:
  :func:`decode_frame`, and :func:`read_frame` behind a sender that dribbles
  1–7 bytes at a time;
* **frame integrity** — truncating a frame at *every* byte offset, or
  flipping a bit of *any* byte (header, table, control, each segment),
  raises the named :class:`~repro.common.exceptions.WireProtocolError` — never
  a silent mis-decode, never an allocation sized by a garbage length;
* **torn tail** — ``is_torn_frame`` accepts only what an interrupted write
  leaves (a cut, or a checksum failure ending at EOF), and ``iter_frames``
  stays strict about it;
* **layout** — a parent-commit (in-band) frame is rejected by its magic;
  hostile headers and tables are rejected before anything payload-sized is
  allocated, and a live :class:`~repro.serving.Gateway` answers each of them
  with a named error and keeps serving; ``send_frame`` survives partial ``sendmsg`` calls; received
  segments are writable and *are* the arena backing;
* **array identity** — the ref → bytes → arena path rebuilds every ndarray
  *view* shape-, dtype- and value-identically, including 0-d arrays, empty
  arrays and non-contiguous views (strided slices, transposes, negative
  steps), while aliasing between views of one base survives and the rebuilt
  buffers never share memory with the originals;
* **descriptor identity** — ``TaskDescriptor``/engine-delta payloads
  survive encode→decode structurally intact.

The array and descriptor properties run over *each* arena built on the
shared :class:`~repro.runtime.remote_task.ArrayArena` base: the process
backend's shared-memory ``WorkerArena``, the network backend's
``ChunkArena`` and the gateway's ``TenantArena``.
"""

from __future__ import annotations

import contextlib
import random
import socket
import struct
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.common.exceptions import WireProtocolError  # noqa: E402
from repro.runtime.codec import encode_control, resolve_function  # noqa: E402
from repro.runtime.data import In, InOut, Out  # noqa: E402
from repro.runtime.net_wire import (  # noqa: E402
    MAX_FRAME_BYTES,
    MAX_FRAME_SEGMENTS,
    ChunkArena,
    ChunkEncoder,
    NetBuffer,
    NetChunk,
    decode_frame,
    encode_frame,
    is_torn_frame,
    iter_frames,
    raw_view,
    read_frame,
    send_frame,
    span_view,
)
from repro.runtime.remote_task import describe_task, rebuild_task  # noqa: E402
from repro.runtime.residency import WorkerBufferCache  # noqa: E402
from repro.runtime.shm import SharedBufferRegistry, WorkerArena  # noqa: E402
from repro.runtime.task import TaskType  # noqa: E402
from repro.serving import Gateway, GatewayClient  # noqa: E402
from repro.serving.gateway import TenantArena  # noqa: E402
from repro.session import ReproConfig  # noqa: E402
from repro.testing.traffic import fill_block  # noqa: E402
from tests.conftest import full_ship  # noqa: E402

_DTYPES = ("<f8", "<f4", "<i4", "<i2", "|u1", "<c16")

#: The frame layout, restated: the tests build hostile frames by hand.
_HEADER = struct.Struct("!4sIII")  # magic, head crc32, control length, segment count
_ENTRY = struct.Struct("!II")  # segment length, segment crc32

#: ``encode_frame(("ping",))`` of an earlier layout (in-band layout:
#: ``ATMW | length | crc32 | pickle``), pasted as a literal.
PARENT_LAYOUT_FRAME = bytes.fromhex(
    "41544d5700000015eb012b438005950a000000000000008c0470696e679485942e"
)


# -- strategies -----------------------------------------------------------------------
messages = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=32),
        st.binary(max_size=64),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)


@st.composite
def base_arrays(draw):
    """A freshly allocated (C-contiguous, owning) base array."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    ndim = draw(st.integers(0, 3))
    shape = tuple(draw(st.integers(0, 5)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(np.prod(shape, dtype=np.int64))
    data = rng.integers(0, 256, size=count * dtype.itemsize, dtype=np.uint8)
    return np.frombuffer(data.tobytes(), dtype=dtype).reshape(shape).copy()


@st.composite
def views(draw):
    """A view of a base array: slices with (possibly negative) steps and/or
    a transpose — the shapes task regions and stencil halos actually take."""
    base = draw(base_arrays())
    array = base
    if array.ndim and draw(st.booleans()):
        index = []
        for dim in array.shape:
            start = draw(st.integers(0, max(dim - 1, 0)))
            stop = draw(st.integers(start, dim))
            step = draw(st.sampled_from([1, 1, 2, -1]))
            index.append(
                slice(start, stop, step) if step > 0
                else slice(stop - 1 if stop > 0 else None, None, step)
            )
            # else-branch: a negative step anchored at the slice end.
        array = array[tuple(index)]
    if array.ndim >= 2 and draw(st.booleans()):
        array = array.T
    return base, array


@st.composite
def net_buffers(draw):
    """A full-ship :class:`NetBuffer` over a span of a fresh base (possibly
    zero bytes long), or the cached ``data=None`` form."""
    buffer_id = draw(st.integers(0, 2**48))
    generation = draw(st.integers(0, 2**31))
    if draw(st.booleans()):
        return NetBuffer(buffer_id, draw(st.integers(0, 64)), None, generation)
    base = draw(base_arrays())
    start = draw(st.integers(0, base.nbytes))
    end = draw(st.integers(start, base.nbytes))
    return NetBuffer(buffer_id, start, span_view(base, start, end), generation)


#: What real frames carry: plain values around buffers and arrays (``views``
#: yields C-contiguous, F-contiguous and non-contiguous ones), or a chunk's
#: buffer table.
frame_messages = st.one_of(
    st.tuples(
        st.text(max_size=8),
        messages,
        st.lists(
            st.one_of(
                views().map(lambda pair: pair[1]),
                st.binary(max_size=8).map(
                    lambda raw: raw_view(np.frombuffer(raw, dtype=np.uint8))
                ),
            ),
            max_size=12,
        ),
    ),
    st.builds(
        lambda chunk_id, buffers: ("chunk", NetChunk(chunk_id, tuple(buffers), ())),
        st.integers(0, 2**48), st.lists(net_buffers(), max_size=6),
    ),
)


def same(a, b) -> bool:
    """Structural equality that reads through buffers and arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and bit_equal(a, b)
    if isinstance(a, NetBuffer):
        return (
            isinstance(b, NetBuffer)
            and (a.buffer_id, a.start, a.generation) == (b.buffer_id, b.start, b.generation)
            and same(a.data, b.data)
        )
    if isinstance(a, (bytearray, memoryview)):
        return bytes(a) == bytes(b)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


# -- the two decoders -----------------------------------------------------------------
def decode_bytes(raw: bytes):
    message, consumed = decode_frame(raw)
    assert consumed == len(raw)
    return message


def decode_socket(raw: bytes):
    """``read_frame`` behind a sender that dribbles 1-7 bytes at a time and
    then closes (so a truncated frame is an EOF, not a hang)."""
    near, far = socket.socketpair()

    def dribble() -> None:
        rng = random.Random(len(raw))
        at = 0
        try:
            while at < len(raw):
                step = rng.randint(1, 7)
                near.sendall(raw[at : at + step])
                at += step
        except OSError:
            pass  # the reader gave up on a bad frame and closed
        finally:
            near.close()

    sender = threading.Thread(target=dribble)
    sender.start()
    try:
        return read_frame(far)
    finally:
        far.close()
        sender.join(timeout=30)
        assert not sender.is_alive()


DECODERS = {"bytes": decode_bytes, "socket": decode_socket}


SMALL_ARRAYS = [np.arange(5, dtype="<f8"), np.empty(0, dtype="<i4"), np.arange(6, dtype="|u1")]


def small_message() -> tuple:
    """Three segments (one empty) and plain values."""
    return ("x", [raw_view(a) for a in SMALL_ARRAYS], {"k": [1, 2.5, None]})


def small_frame() -> tuple[bytes, list[tuple[str, int, int]]]:
    """One short frame with every part populated, plus its part boundaries."""
    frame = encode_frame(small_message())
    raw = bytes(frame)
    _, _, control_len, count = _HEADER.unpack_from(raw)
    assert count == 3
    bounds = [("header", 0, _HEADER.size)]
    at = _HEADER.size + count * _ENTRY.size
    bounds.append(("table", _HEADER.size, at))
    bounds.append(("control", at, at + control_len))
    at += control_len
    for index, array in enumerate(SMALL_ARRAYS):
        bounds.append((f"segment{index}", at, at + array.nbytes))
        at += array.nbytes
    assert at == len(raw) == len(frame)
    return raw, bounds


def build_frame(control: bytes, segments: list[bytes], table=None, count=None) -> bytes:
    """A frame assembled by hand: ``table``/``count`` override the honest ones."""
    if table is None:
        table = [(len(segment), zlib.crc32(segment)) for segment in segments]
    packed = b"".join(_ENTRY.pack(*entry) for entry in table)
    counts = _ENTRY.pack(len(control), len(table))
    crc = zlib.crc32(control, zlib.crc32(packed, zlib.crc32(counts)))
    header = _HEADER.pack(b"ATMS", crc, len(control), len(table) if count is None else count)
    return header + packed + control + b"".join(segments)


# -- frame properties -----------------------------------------------------------------
@pytest.mark.parametrize("decoder", DECODERS)
@settings(max_examples=60, deadline=None)
@given(frame_messages)
# Schema kinds whose fields do not fit the schema: the generic form.
@example(message=("result", (None, None), []))
@example(message=("chunk", [0, [], []], []))
def test_frame_round_trip_identity(decoder, message):
    frame = encode_frame(message)
    raw = bytes(frame)
    assert len(frame) == len(raw)
    assert same(DECODERS[decoder](raw), message)


def test_arrays_travel_as_segments():
    c_order = np.arange(12, dtype="<f8").reshape(3, 4)
    strided = np.arange(64, dtype="<f8")[::2]
    for array in (c_order, c_order.T, strided):
        frame = encode_frame(("x", array))
        assert len(frame.buffers) == 2
        (_, rebuilt), _ = decode_frame(bytes(frame))
        assert bit_equal(rebuilt, array)
        assert rebuilt.flags.writeable
    # The segment is the array's own memory, not a copy of it.
    frame = encode_frame(("x", c_order))
    assert np.shares_memory(np.frombuffer(frame.buffers[1], dtype="<f8"), c_order)


def test_many_tiny_and_zero_length_segments_round_trip():
    arrays = [np.full(i % 3, i % 251, dtype="|u1") for i in range(3000)]
    message = ("tiny", [raw_view(a) for a in arrays])
    frame = encode_frame(message)
    assert len(frame.buffers) == 1 + len(arrays)
    for decoder in (decode_bytes, decode_socket):
        assert same(decoder(bytes(frame)), message)
    # More buffers than one sendmsg takes (IOV_MAX), over a real socket.
    near, far = socket.socketpair()
    sender = threading.Thread(target=send_frame, args=(near, frame))
    sender.start()
    try:
        assert same(read_frame(far), message)
    finally:
        sender.join(timeout=30)
        near.close()
        far.close()


def test_segments_beyond_the_table_bound_fall_back_in_band(monkeypatch):
    monkeypatch.setattr("repro.runtime.net_wire.MAX_FRAME_SEGMENTS", 4)
    arrays = [np.full(3, i, dtype="|u1") for i in range(9)]
    frame = encode_frame([raw_view(a) for a in arrays])
    assert len(frame.buffers) == 1 + 4
    assert same(decode_bytes(bytes(frame)), [raw_view(a) for a in arrays])


@pytest.mark.parametrize("decoder", DECODERS)
def test_truncation_at_every_offset_is_detected(decoder):
    raw, _ = small_frame()
    for cut in range(len(raw)):
        with pytest.raises(WireProtocolError):
            DECODERS[decoder](raw[:cut])
    assert DECODERS[decoder](raw) is not None


@pytest.mark.parametrize("decoder", ["bytes"])
def test_a_flipped_bit_anywhere_is_detected(decoder):
    raw, bounds = small_frame()
    for part, start, end in bounds:
        for index in range(start, end):
            for bit in (0, 7):
                damaged = bytearray(raw)
                damaged[index] ^= 1 << bit
                # Behind the header a flip is always a checksum mismatch; in
                # it, it may also be bad magic, a bound or a truncation.
                expected = None if part == "header" else "checksum mismatch"
                with pytest.raises(WireProtocolError, match=expected):
                    DECODERS[decoder](bytes(damaged))


@settings(max_examples=100, deadline=None)
@given(frame_messages, st.data())
def test_any_single_byte_corruption_is_detected(message, data):
    frame = bytearray(bytes(encode_frame(message)))
    index = data.draw(st.integers(0, len(frame) - 1), label="corrupt_index")
    frame[index] ^= data.draw(st.integers(1, 255), label="xor_mask")
    with pytest.raises(WireProtocolError):
        decode_frame(bytes(frame))


def test_a_corrupted_segment_never_reaches_the_consumer_over_a_socket():
    raw, bounds = small_frame()
    _, start, _ = bounds[-1]
    damaged = bytearray(raw)
    damaged[start] ^= 0x10
    with pytest.raises(WireProtocolError, match="checksum mismatch: segment 2"):
        decode_socket(bytes(damaged))


def _flip(raw: bytes, index: int) -> bytes:
    return raw[:index] + bytes([raw[index] ^ 0xFF]) + raw[index + 1:]


def _part(bounds, name: str) -> tuple[int, int]:
    return next((start, end) for part, start, end in bounds if part == name)


#: name -> (damage over ``small_frame()``'s raw bytes and bounds, torn?)
TORN_CASES = {
    "cut_in_header": (lambda raw, b: raw[:5], True),
    "cut_in_table": (lambda raw, b: raw[: _part(b, "table")[0] + 3], True),
    "cut_in_control": (lambda raw, b: raw[: _part(b, "control")[1] - 1], True),
    "cut_in_last_segment": (lambda raw, b: raw[: _part(b, "segment2")[0] + 3], True),
    "flip_in_control_to_eof": (lambda raw, b: _flip(raw, _part(b, "control")[0]), True),
    "flip_in_last_segment_to_eof": (lambda raw, b: _flip(raw, len(raw) - 1), True),
    "intact": (lambda raw, b: raw, False),
    "bad_magic": (lambda raw, b: _flip(raw, 0), False),
    "flip_not_at_eof": (lambda raw, b: _flip(raw, _part(b, "control")[0]) + raw, False),
    # A damaged length claims bytes past EOF, but another frame follows it.
    "segment_length_flip_not_at_eof": (
        lambda raw, b: _flip(raw, _part(b, "table")[0]) + raw, False),
    "control_length_flip_not_at_eof": (
        lambda raw, b: raw[:10] + bytes([raw[10] ^ 0x40]) + raw[11:] + raw, False),
    "segment_count_flip_not_at_eof": (
        lambda raw, b: raw[:14] + bytes([raw[14] ^ 0x01]) + raw[15:] + raw, False),
}


@pytest.mark.parametrize("case", TORN_CASES)
def test_a_torn_frame_is_one_an_interrupted_write_leaves(case):
    """Cut short, or failing a checksum and ending exactly at EOF, is torn;
    bad magic, an intact frame and damage followed by more bytes are not."""
    damage, torn = TORN_CASES[case]
    raw, bounds = small_frame()
    assert is_torn_frame(damage(raw, bounds)) is torn


def test_iter_frames_stays_strict_on_a_torn_tail():
    raw, _ = small_frame()
    frames = iter_frames(raw + raw[:-1])
    assert same(next(frames), small_message())
    with pytest.raises(WireProtocolError, match="truncated frame"):
        next(frames)


# -- layout: what the header and table must reject ------------------------------------
def test_parent_layout_frame_is_rejected_by_its_magic():
    with pytest.raises(WireProtocolError, match="bad frame magic"):
        decode_frame(PARENT_LAYOUT_FRAME)
    with pytest.raises(WireProtocolError, match="bad frame magic"):
        decode_socket(PARENT_LAYOUT_FRAME)


def _peak_while_rejecting(raw: bytes, match: str) -> int:
    """Peak bytes allocated while ``read_frame`` rejects ``raw`` (the sender
    stays connected: a reader that believed the lengths would block)."""
    near, far = socket.socketpair()
    far.settimeout(10)
    try:
        near.sendall(raw)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with pytest.raises(WireProtocolError, match=match):
                read_frame(far)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    finally:
        near.close()
        far.close()


def hostile_frames() -> dict[str, tuple[bytes, str]]:
    """Hand-built byte strings no reader may accept, each with the text of
    the error that names it: ``{name: (bytes, match)}``."""
    control, _ = encode_control(("ping",), MAX_FRAME_SEGMENTS)
    payload = np.arange(16, dtype="|u1")
    referencing, _ = encode_control(("x", raw_view(payload)), MAX_FRAME_SEGMENTS)
    flipped = bytearray(small_frame()[0])
    flipped[-1] ^= 0x10
    return {
        "parent-layout": (PARENT_LAYOUT_FRAME, "bad frame magic"),
        "not-a-frame": (b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", "bad frame magic"),
        "too-many-segments": (
            build_frame(control, [], count=MAX_FRAME_SEGMENTS + 1), "promises 65537 segments"
        ),
        "huge-control": (
            _HEADER.pack(b"ATMS", 0, MAX_FRAME_BYTES + 1, 0), "1073741825-byte control"
        ),
        # Honest checksums, dishonest lengths: three segments of 512 MiB each.
        "oversized-table": (build_frame(control, [], table=[(1 << 29, 0)] * 3), "exceeds"),
        "stowaway-segment": (
            build_frame(referencing, [payload.tobytes(), b"stowaway"]), "unreferenced"
        ),
        "missing-segment": (build_frame(referencing, []), "out-of-band"),
        "flipped-segment-bit": (bytes(flipped), "checksum mismatch: segment 2"),
    }


def test_hostile_headers_and_tables_are_rejected_before_allocation():
    frames = hostile_frames()
    for name in ("too-many-segments", "huge-control", "oversized-table"):
        assert _peak_while_rejecting(*frames[name]) < 64 << 10, name
    for name in ("too-many-segments", "oversized-table"):
        raw, match = frames[name]
        with pytest.raises(WireProtocolError, match=match):
            decode_frame(raw)


@pytest.mark.parametrize("name", hostile_frames())
def test_a_live_gateway_answers_hostile_bytes_with_a_named_error_and_serves_on(name):
    """The listener counterpart: whatever arrives instead of a frame, the
    peer gets ``("error", "WireProtocolError", text)`` or a clean close, and
    the gateway — and a tenant connected throughout — keep working."""
    raw, match = hostile_frames()[name]
    block = np.zeros(4)
    with Gateway(ReproConfig().with_overrides(runtime={"executor": "serial"})) as gateway:
        with GatewayClient("127.0.0.1", gateway.port, tenant="bystander") as bystander:
            with socket.create_connection(("127.0.0.1", gateway.port), timeout=10) as sock:
                sock.sendall(raw)
                try:
                    reply = read_frame(sock)
                except (WireProtocolError, ConnectionResetError):
                    reply = None  # a clean close counts
                if reply is not None:
                    assert reply[:2] == ("error", "WireProtocolError"), reply
                    assert match in reply[2]
            bystander.submit(
                TaskType("after_hostile", memoizable=False), fill_block,
                accesses=[Out(block)], args=(block, 9.0),
            )
            assert bystander.wait_all()["tasks_completed"] == 1
    assert np.all(block == 9.0)


@pytest.mark.parametrize("decoder", DECODERS)
def test_table_and_control_must_agree_on_the_segment_count(decoder):
    payload = np.arange(16, dtype="|u1")
    control, _ = encode_control(("x", raw_view(payload)), MAX_FRAME_SEGMENTS)
    honest = build_frame(control, [payload.tobytes()])
    assert same(DECODERS[decoder](honest), ("x", raw_view(payload)))
    extra = build_frame(control, [payload.tobytes(), b"stowaway"])
    with pytest.raises(WireProtocolError, match="unreferenced"):
        DECODERS[decoder](extra)
    missing = build_frame(control, [])
    with pytest.raises(WireProtocolError, match="out-of-band"):
        DECODERS[decoder](missing)


def test_garbage_length_prefix_is_bounded():
    """A corrupted length field must raise, not allocate/await gigabytes."""
    frame = bytearray(bytes(encode_frame(("chunk", b"x" * 64))))
    frame[8:12] = (0x7F, 0xFF, 0xFF, 0xFF)  # 2 GiB control length
    with pytest.raises(WireProtocolError):
        decode_frame(bytes(frame))


# -- sending and receiving ------------------------------------------------------------
class _StingySocket:
    """``sendmsg`` that takes at most ``limit`` bytes per call; ``sendall``
    records what the resume path pushes after it."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.sent = bytearray()

    def sendmsg(self, buffers) -> int:
        room = self.limit
        for buffer in buffers:
            taken = bytes(buffer[:room])
            self.sent += taken
            room -= len(taken)
            if not room:
                break
        return self.limit - room

    def sendall(self, buffer) -> None:
        self.sent += bytes(buffer)


def test_send_frame_resumes_after_partial_sendmsg():
    """Whatever prefix ``sendmsg`` accepts — mid-head, exactly a buffer
    boundary, mid-segment, everything — the bytes on the wire are the frame."""
    raw, _ = small_frame()
    for limit in range(1, len(raw) + 2):
        sock = _StingySocket(limit)
        send_frame(sock, encode_frame(small_message()))
        assert bytes(sock.sent) == raw, f"sendmsg took {limit} bytes"


def test_send_frame_through_a_tiny_kernel_send_buffer():
    payload = np.random.default_rng(7).integers(0, 256, size=1 << 20, dtype=np.uint8)
    message = ("chunk", [raw_view(payload[: 1 << 19]), raw_view(payload[1 << 19 :])])
    near, far = socket.socketpair()
    near.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
    received = []
    reader = threading.Thread(target=lambda: received.append(read_frame(far)))
    reader.start()
    try:
        send_frame(near, encode_frame(message))
    finally:
        reader.join(timeout=30)
        near.close()
        far.close()
    assert same(received[0], message)


def test_received_segments_are_writable_and_are_the_arena_backing():
    base = np.arange(64, dtype="<f8")
    encoder = ChunkEncoder()
    ref = encoder.ref(base[8:24])
    near, far = socket.socketpair()
    try:
        send_frame(near, encode_frame(("chunk", NetChunk(1, full_ship(encoder), ()))))
        _, chunk = read_frame(far)
    finally:
        near.close()
        far.close()
    (buffer,) = chunk.buffers
    assert not memoryview(buffer.data).readonly
    view = ChunkArena(chunk.buffers, WorkerBufferCache()).view(ref)
    assert bit_equal(view, base[8:24])
    assert view.flags.writeable
    assert np.shares_memory(view, np.frombuffer(buffer.data, dtype=np.uint8))
    view[...] = -1.0  # lands in the buffer read_frame filled, not in the source
    assert bytes(buffer.data) == view.tobytes()
    assert base[8] == 8.0


# -- array properties -----------------------------------------------------------------
def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-exact equality — the wire contract (``array_equal`` would call
    random-byte NaN payloads unequal to themselves)."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


ARENAS = ("worker", "chunk", "tenant")


@contextlib.contextmanager
def shipped(kind: str):
    """One backend's sender/receiver pair around the shared arena base.

    Yields ``(ref, arena)``: ``ref`` is the backend's array→ref function
    and ``arena()`` — called once every ref has been taken — builds the
    receiving arena from what the sender would ship.
    """
    if kind == "worker":  # process backend: shared segments, named by the table
        registry = SharedBufferRegistry()
        arena = WorkerArena()

        def attach():
            arena.attach(received(registry.table()))
            return arena

        try:
            yield registry.array_ref, attach
        finally:
            arena.close()
            registry.close()
        return
    encoder = ChunkEncoder()

    def receive():
        if kind == "chunk":  # network backend: the union spans a chunk touches
            return ChunkArena(received(full_ship(encoder)), WorkerBufferCache())
        whole = tuple(  # gateway: whole owning buffers, shipped once
            NetBuffer(buffer_id, 0, span_view(base, 0, base.nbytes))
            for buffer_id, (base, _start, _end) in encoder.spans().items()
        )
        arena = TenantArena()
        arena.store(received(whole))
        return arena

    yield encoder.ref, receive


def received(buffers: tuple) -> tuple:
    """A buffer table as the receiver of a chunk frame sees it."""
    (_, chunk), _ = decode_frame(bytes(encode_frame(("chunk", NetChunk(0, buffers, ())))))
    return chunk.buffers


@contextlib.contextmanager
def round_trip_arrays(kind, arrays):
    """Ship views as refs through a frame and rebuild them in the arena
    (the rebuilt views are only valid inside the block: a shared segment is
    unmapped when its arena closes)."""
    with shipped(kind) as (ref, arena):
        refs, _ = decode_frame(bytes(encode_frame([ref(a) for a in arrays])))
        arena = arena()
        yield [arena.view(r) for r in refs]


@pytest.mark.parametrize("arena_kind", ARENAS)
@settings(max_examples=100, deadline=None)
@given(views())
def test_array_view_round_trip_identity(arena_kind, base_and_view):
    base, view = base_and_view
    with round_trip_arrays(arena_kind, [view]) as (rebuilt,):
        assert bit_equal(rebuilt, view)
        # No shared memory spans "hosts" (and a shared segment is a mirror
        # until copy_out): mutating the rebuilt copy never touches the
        # original.
        if rebuilt.size:
            before = view.copy()
            rebuilt[...] = 0
            assert bit_equal(view, before)


@pytest.mark.parametrize("arena_kind", ARENAS)
@settings(max_examples=50, deadline=None)
@given(views())
def test_sibling_views_of_one_base_alias_after_round_trip(arena_kind, base_and_view):
    """Two views of one base must rebuild over *one* shared worker buffer:
    a write through one is visible through the other (the aliasing contract
    task arguments rely on)."""
    base, view = base_and_view
    with round_trip_arrays(arena_kind, [base, view]) as (whole, rebuilt_view):
        assert bit_equal(whole, base)
        assert bit_equal(rebuilt_view, view)
        # Structural: both views resolve to the same backing uint8 ndarray.
        assert _backing_of(rebuilt_view) is _backing_of(whole)
        if whole.size:
            whole[...] = 0
            assert not rebuilt_view.size or np.count_nonzero(rebuilt_view) == 0


@pytest.mark.parametrize("arena_kind", ARENAS)
def test_a_ref_naming_an_object_dtype_is_refused(arena_kind):
    """Received bytes are never read as ``PyObject*``: a ref whose dtype
    holds Python objects raises the arena's named error."""
    base = np.arange(8, dtype="<i8")
    with shipped(arena_kind) as (ref, arena):
        key, offset, shape, strides, _ = ref(base)
        arena = arena()
        for dtype in ("|O", "O", "<i8,O"):
            with pytest.raises(arena.error, match="refusing dtype|travels as its string"):
                arena.view((key, offset, shape, strides, dtype))
        assert bit_equal(arena.view((key, offset, shape, strides, "<i8")), base)


def _backing_of(array: np.ndarray):
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


def square(x, y):  # module-level: travels by name
    y[:] = x ** 2


@pytest.mark.parametrize("arena_kind", ARENAS)
@settings(max_examples=40, deadline=None)
@given(views(), st.integers(0, 2**31 - 1), st.text(max_size=12))
def test_descriptor_round_trip_identity(arena_kind, base_and_view, task_id, name):
    base, view = base_and_view
    other = np.arange(4, dtype=np.float64)
    task_type = TaskType(name or "t", memoizable=True)
    with shipped(arena_kind) as (ref, arena):
        descriptor = describe_task(
            task_id, task_id, task_type, square,
            [InOut(view, name), In(other)],
            (view, 3.5, [name, (view,)]), {"scale": 2, "data": base}, ref,
        )
        message = ("chunk", NetChunk(0, (), (descriptor,)))
        (_, chunk), _ = decode_frame(bytes(encode_frame(message)))
        (decoded,) = chunk.tasks
        assert list(decoded[:9]) == list(descriptor[:9])
        assert resolve_function(*decoded[7:9]) is square  # by name, not copied
        assert [list(a[1:]) for a in decoded[9]] == [
            ["inout", name], ["in", decoded[9][1][2]]
        ]
        task = rebuild_task(decoded, arena(), {})
        assert (task.task_id, task.creation_index) == (task_id, task_id)
        assert task.label == f"{task_type.name}#{task_id}"
        assert task.task_type == task_type and task.task_type.atm_eligible
        assert [access.mode.value for access in task.accesses] == ["inout", "in"]
        assert bit_equal(task.accesses[0].region.array, view)
        assert bit_equal(task.accesses[1].region.array, other)
        assert bit_equal(task.args[0], view)
        assert task.args[1] == 3.5 and task.args[2][0] == name
        assert task.kwargs["scale"] == 2
        # Every ref to one byte layout resolves to one object: args, nested
        # args, kwargs and the access region alias like they do at home.
        assert task.args[0] is task.accesses[0].region.array
        assert task.args[2][1][0] is task.args[0]
        assert bit_equal(task.kwargs["data"], base)
        assert _backing_of(task.kwargs["data"]) is _backing_of(task.args[0])
