"""Wire format of the network execution backend (DESIGN.md §4.5).

The network backend ships the remote-task core's descriptors
(:mod:`repro.runtime.remote_task`), but no shared memory spans hosts, so
every array payload travels **as bytes** — exactly once.  This module defines
the two halves of that story:

* **Framing** — every message is one segmented frame (all integers
  big-endian, 4 bytes)::

      | magic "ATMS" | head crc32 | control length | segment count |   header
      | (length, crc32) x segment count |                            table
      | control |   the message (repro.runtime.codec); buffers are segment indices
      | segment 0 | segment 1 | ... |            the raw buffers themselves

  The control section is written by the one control codec
  (:mod:`repro.runtime.codec`, DESIGN.md §4.6), which builds nothing but
  data: every buffer the message carries — a :class:`NetBuffer` span, a
  result write, a gateway write-back, an output array of a stored THT
  entry — travels as one raw segment the control section names by index.
  :func:`encode_frame` therefore copies no contiguous array byte: it returns
  a :class:`Frame` whose scatter list points straight at the source arrays,
  sockets send it with ``sendmsg``, and the readers receive each segment
  with ``recv_into`` into a fresh writable buffer that the consumer adopts
  as its backing.  The *head crc32* covers everything behind it up to the
  first segment — the header's two counts, the segment table and the
  control section; each table entry carries the crc32 of its segment;
  magic, the segment
  count bound and the :data:`MAX_FRAME_BYTES` bound over control + all
  segments are enforced before anything is allocated, and every checksum
  is verified before a message reaches its consumer.  A violation raises
  :class:`~repro.common.exceptions.WireProtocolError` — the receiving side
  treats the peer as failed instead of interpreting garbage.

* **Array/task encoding** — a :class:`ChunkEncoder` (sender side) walks the
  arrays referenced by a chunk of tasks, computes per owning base buffer the
  union byte span the chunk touches, and gives one :class:`NetBuffer` per
  base (raw bytes, or a cached reference) plus a plain ``(buffer_id, offset,
  shape, strides, dtype)`` ref for every view.  A :class:`ChunkArena`
  (receiver side) adopts each received buffer as the writable backing of
  the :class:`~repro.runtime.remote_task.ArrayArena` views built over it.

The messages themselves — who sends which, with which fields — are listed
once, in DESIGN.md §4.6.

A :class:`NetBuffer` has two forms.  A *full ship* carries the span's
bytes under a ``generation`` tag, and the worker keeps the backing in its
:class:`~repro.runtime.residency.WorkerBufferCache`.  A *cached* row
(``data is None``) puts no byte on the wire: the worker must already hold a
backing for the buffer id under the named ``generation`` (from an earlier
full ship).  A generation the worker does not hold is a protocol
violation — the worker raises :class:`WireProtocolError` and the parent
fails the endpoint and re-runs its work, so a residency bug degrades to a
resubmission instead of silently wrong bytes.
"""

from __future__ import annotations

import functools
import socket
import struct
import zlib
from typing import Any, Optional

import numpy as np

from repro.common.exceptions import RuntimeStateError, WireProtocolError
from repro.runtime.codec import NetBuffer, NetChunk, decode_control, encode_control, raw_view
from repro.runtime.data import DataRegion, _base_buffer
from repro.runtime.remote_task import ArrayArena

__all__ = [
    "PROTOCOL_VERSION",
    "Frame",
    "NetBuffer",
    "NetChunk",
    "ChunkEncoder",
    "ChunkArena",
    "raw_view",
    "span_view",
    "encode_frame",
    "decode_frame",
    "is_torn_frame",
    "iter_frames",
    "read_frame",
    "send_frame",
    "write_frame",
    "request",
]

#: Bumped on any incompatible message/frame change; checked at hello time.
#: Version 2: cached (``data=None``) :class:`NetBuffer` form, generation
#: tags and the ``invalidate`` message of the residency protocol.
#: Version 3: chunks carry :class:`~repro.runtime.remote_task.TaskDescriptor`
#: (the pickled descriptor classes moved import path).
#: Version 4: the hello's ``engine`` is the replica's ``ATMConfig``.
#: Version 5: segmented frames (new magic: a version-4 peer or store file
#: fails on its first frame with "bad frame magic").
#: Version 6: a multi-input ATM key is the combination of its inputs' digests
#: (:mod:`repro.atm.keygen`); replicas exchange THT entries by key value.
#: Version 7: a digest reads its sampled bytes in address order (every
#: ``p < 1`` key value moved).
#: Version 8: the control section is the data-only codec of
#: :mod:`repro.runtime.codec` (a pickled one is refused unread).
#: Version 9: the hello carries no engine; a chunk names each task's owner
#: and carries the engine recipe of every owner it names, and ``sync``
#: answers one ``(owner index, delta)`` pair per replica.
#: Version 10: workers hold no engine — the parent looks tasks up and
#: commits them — so a chunk carries no owner fields, a result entry is
#: ``(task_id, *payload)`` and there is no ``sync``.
#: Version 11: process workers speak it too — a ``"shared"`` hello maps the
#: parent's segments and ``release`` drops them — and every chunk is acked.
#: Version 12: no ``ping`` / ``pong``: an endpoint that owes an answer is
#: judged by the acks and results it sends (the silence and wedge rules).
#: Version 13: a network hello names no data plane — every network worker
#: keeps a residency cache (the ``"residency"`` flag is gone).
PROTOCOL_VERSION = 13

MAGIC = b"ATMS"
_HEADER = struct.Struct("!4sIII")  # magic, head crc32, control length, segment count
_COUNTS_AT = 8  # the head crc32 covers the header from here on
_ENTRY = struct.Struct("!II")  # per segment: length, crc32

#: Upper bound on one frame's control section plus all its segments: a
#: garbage length must never turn into a multi-gigabyte allocation or an
#: endless blocking read.
MAX_FRAME_BYTES = 1 << 30

#: Upper bound on one frame's segment count (a 512 KiB table).  The encoder
#: keeps buffers beyond it in the control section (base64) instead of failing.
MAX_FRAME_SEGMENTS = 1 << 16

#: Buffers per ``sendmsg`` call (``IOV_MAX`` on Linux, macOS and the BSDs).
_IOV_MAX = 1024


# -- framing --------------------------------------------------------------------------
class Frame:
    """One encoded message as a scatter list.

    ``buffers`` is the head (header + segment table + control section, one
    ``bytes``) followed by one flat ``memoryview`` per segment, aliasing the
    arrays the message referenced; ``len()`` is the framed byte count and
    ``bytes()`` joins the list (the store file's single ``write``).
    """

    __slots__ = ("buffers",)

    def __init__(self, buffers: list) -> None:
        self.buffers = buffers

    def __len__(self) -> int:
        return sum(map(len, self.buffers))

    def __bytes__(self) -> bytes:
        return b"".join(self.buffers)


def _head_crc(counts, table, control) -> int:
    """crc32 over everything between itself and the first segment."""
    return zlib.crc32(control, zlib.crc32(table, zlib.crc32(counts)))


def encode_frame(message: Any) -> Frame:
    """Frame one message without copying the buffers it references.

    The frame's segments alias live arrays and their checksums are taken
    here, so until the frame is sent nothing may write the bytes it
    references: a write before the send completes would put bytes on the
    wire that no longer match their checksum.  A frame that waits in an
    endpoint's outbox therefore references only bytes its chunk's own
    accesses hold (the alias rule, :meth:`ChunkEncoder.payload`).
    """
    control, segments = encode_control(message, MAX_FRAME_SEGMENTS)
    total = len(control) + sum(map(len, segments))
    if total > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {total} bytes exceeds the {MAX_FRAME_BYTES}-byte frame bound"
        )
    table = b"".join(_ENTRY.pack(len(seg), zlib.crc32(seg)) for seg in segments)
    counts = len(control), len(segments)
    crc = _head_crc(_ENTRY.pack(*counts), table, control)
    return Frame([_HEADER.pack(MAGIC, crc, *counts) + table + control, *segments])


def _check_header(header) -> tuple[int, int, int]:
    """Validate a frame header; returns ``(table bytes, control bytes, head crc)``."""
    magic, crc, control_len, count = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}): peer is not "
            f"speaking the ATM wire protocol or the stream is corrupted"
        )
    if count > MAX_FRAME_SEGMENTS or control_len > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame header promises {count} segments and a {control_len}-byte "
            f"control section; the bounds are {MAX_FRAME_SEGMENTS} segments "
            f"and {MAX_FRAME_BYTES} bytes"
        )
    return count * _ENTRY.size, control_len, crc


def _check_table(header, table, control, crc: int) -> list[tuple[int, int]]:
    """Verify the head checksum; returns the ``(length, crc32)`` table."""
    if _head_crc(header[_COUNTS_AT:], table, control) != crc:
        raise WireProtocolError(
            "frame checksum mismatch: header counts, segment table or control "
            "section corrupted in transit"
        )
    entries = list(_ENTRY.iter_unpack(table))
    total = len(control) + sum(length for length, _ in entries)
    if total > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame length {total} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    return entries


def _check_payload(control, table: list[tuple[int, int]], segments: list) -> Any:
    """Verify every segment checksum, then decode the control section."""
    for index, ((_, crc), segment) in enumerate(zip(table, segments)):
        if zlib.crc32(segment) != crc:
            raise WireProtocolError(
                f"frame checksum mismatch: segment {index} corrupted in transit"
            )
    return decode_control(control, segments)


def _parse_frame(take) -> Any:
    """The one frame parser, free of I/O: ``take(n)`` returns a writable
    buffer holding exactly the next ``n`` bytes.  Every bound is checked
    before the request it sizes; a segment buffer goes to the consumer as is.
    """
    header = take(_HEADER.size)
    table_len, control_len, crc = _check_header(header)
    head = memoryview(take(table_len + control_len))
    control = head[table_len:]
    table = _check_table(header, head[:table_len], control, crc)
    segments = [take(length) for length, _ in table]
    return _check_payload(control, table, segments)


def decode_frame(data) -> tuple[Any, int]:
    """Decode one frame from ``data``; returns ``(message, bytes_consumed)``.

    Raises :class:`WireProtocolError` on bad magic, an oversized length or
    segment count, a truncated buffer or a checksum mismatch.  Segments are
    copied out of ``data`` into writable buffers, like a socket read.
    """
    data = memoryview(data)
    at = 0

    def take(n: int) -> bytearray:
        nonlocal at
        if len(data) - at < n:
            raise WireProtocolError(
                f"truncated frame: {n} more bytes promised at offset {at}, "
                f"{len(data) - at} present"
            )
        at += n
        return bytearray(data[at - n : at])

    return _parse_frame(take), at


def is_torn_frame(data) -> bool:
    """Whether ``data`` holds one frame as an interrupted write leaves it:
    cut short, or ending exactly at the end of ``data`` and failing a
    checksum.  A bad magic or header bound, a frame that ends before
    ``data`` does and an intact frame are not torn.

    No length is trusted before the head checksum that covers it: a head
    cut short is torn only when no frame magic follows its header (a
    damaged count in front of another frame claims that frame's bytes),
    and a head that fails its checksum only when its extent ends at EOF.
    """
    data = memoryview(data)
    if len(data) < _HEADER.size:
        return True
    try:
        table_len, control_len, crc = _check_header(data[: _HEADER.size])
    except WireProtocolError:
        return False
    head_end = _HEADER.size + table_len + control_len
    if len(data) < head_end:
        return MAGIC not in bytes(data[_HEADER.size :])
    table = data[_HEADER.size : _HEADER.size + table_len]
    control = data[_HEADER.size + table_len : head_end]
    entries = list(_ENTRY.iter_unpack(table))
    extent = head_end + sum(length for length, _ in entries)
    if _head_crc(data[_COUNTS_AT : _HEADER.size], table, control) != crc:
        return extent == len(data)
    if extent != len(data):
        return extent > len(data)
    at = head_end
    for length, segment_crc in entries:
        if zlib.crc32(data[at : at + length]) != segment_crc:
            return True
        at += length
    return False


def iter_frames(data: bytes):
    """Yield every message of a back-to-back frame sequence.

    Strict: raises :class:`WireProtocolError` on the first bad or truncated
    frame.  (The THT store file is such a sequence too; its reader decodes
    frame by frame with :func:`decode_frame`, to keep what precedes a torn
    tail.)
    """
    offset = 0
    view = memoryview(data)
    while offset < len(data):
        message, consumed = decode_frame(view[offset:])
        yield message
        offset += consumed


def _recv_into(sock: socket.socket, n: int) -> memoryview:
    """Read exactly ``n`` bytes into a fresh buffer (no intermediate chunks);
    raises :class:`WireProtocolError` on EOF."""
    # np.empty, unlike bytearray(n), does not zero what recv overwrites.
    view = memoryview(np.empty(n, dtype=np.uint8))
    got = 0
    while got < n:
        count = sock.recv_into(view[got:])
        if not count:
            raise WireProtocolError(
                f"connection closed mid-frame ({got}/{n} bytes read)"
            )
        got += count
    return view


def read_frame(sock: socket.socket) -> Any:
    """Blocking read of one complete frame from a socket."""
    return _parse_frame(functools.partial(_recv_into, sock))


def send_frame(sock: socket.socket, frame: Frame) -> None:
    """``sendmsg`` a frame's scatter list (``IOV_MAX`` buffers per call); what
    a partial send leaves behind follows buffer by buffer."""
    for start in range(0, len(frame.buffers), _IOV_MAX):
        batch = frame.buffers[start : start + _IOV_MAX]
        sent = sock.sendmsg(batch)
        for buffer in batch:
            if sent < len(buffer):
                sock.sendall(memoryview(buffer)[sent:])
            sent = max(sent - len(buffer), 0)


def write_frame(sock: socket.socket, message: Any) -> None:
    send_frame(sock, encode_frame(message))


def request(sock: socket.socket, message: Any) -> Any:
    """One blocking request/reply round-trip on a frame connection."""
    write_frame(sock, message)
    return read_frame(sock)


# -- array / task encoding ------------------------------------------------------------
class ChunkEncoder:
    """Sender-side builder of refs and :class:`NetBuffer` tables.

    Tasks of one chunk are pairwise independent (they were ready
    simultaneously), so one buffer copy per base is consistent for the whole
    chunk.  Call :meth:`ref` for every array (it is the array→ref function
    :func:`~repro.runtime.remote_task.describe_task` takes), then walk
    :meth:`spans` and take the :meth:`payload` of each span that ships.

    The alias rule: a frame waits in its endpoint's outbox until the writer
    thread sends it, so its segments may alias a parent array only where the
    chunk's own accesses cover the whole span — those bytes no other
    in-flight task writes (dependences order overlapping intervals).  A base
    touched at one interval ships as a view; the union span of a base
    touched at several intervals is copied, because it may hold bytes
    between them that another endpoint's write-back lands in before the
    frame is sent.
    """

    def __init__(self) -> None:
        # id(base) -> [base, min_start, max_end]; holding the base reference
        # keeps the id stable for the encoder's lifetime.
        self._spans: dict[int, list] = {}
        # ids of bases touched at more than one interval.
        self._copied: set[int] = set()
        # id(array) -> (array, ref): a task's argument arrays are usually
        # the very objects its accesses declared, so each is encoded once.
        self._refs: dict[int, tuple[np.ndarray, tuple]] = {}

    def _touch(self, base: np.ndarray, start: int, end: int) -> int:
        buffer_id = id(base)
        span = self._spans.get(buffer_id)
        if span is None:
            self._spans[buffer_id] = [base, start, end]
        elif (start, end) != (span[1], span[2]):
            span[1] = min(span[1], start)
            span[2] = max(span[2], end)
            self._copied.add(buffer_id)
        return buffer_id

    def ref(self, array: np.ndarray, region: Optional[DataRegion] = None) -> tuple:
        """Handle for ``array``; pass ``region`` to reuse its interval math."""
        known = self._refs.get(id(array))
        if known is not None:
            return known[1]
        if region is None:
            region = DataRegion(array)
        base = _base_buffer(array)
        start, end = region.byte_interval
        buffer_id = self._touch(base, start, end)
        base_addr = base.__array_interface__["data"][0]
        my_addr = array.__array_interface__["data"][0]
        ref = (buffer_id, my_addr - base_addr, array.shape, array.strides, array.dtype.str)
        self._refs[id(array)] = (array, ref)
        return ref

    def spans(self) -> dict[int, list]:
        """Touched union spans as ``buffer_id -> [base, start, end]``.

        Dispatch iterates this to decide, per buffer and per endpoint,
        between a full ship and a cached reference.
        """
        return self._spans

    def payload(self, buffer_id: int) -> memoryview:
        """The union span of one touched base as a queued frame may carry
        it: a view, or a copy where the alias rule asks for one."""
        base, start, end = self._spans[buffer_id]
        view = span_view(base, start, end)
        return memoryview(view.tobytes()) if buffer_id in self._copied else view


def span_view(base: np.ndarray, start: int, end: int) -> memoryview:
    """The ``[start, end)`` byte span of an owning base buffer, uncopied."""
    if not base.flags.c_contiguous:
        raise RuntimeStateError(
            "the network backend requires C-contiguous owning "
            f"buffers; got a non-contiguous owner of dtype "
            f"{base.dtype} shape {base.shape}"
        )
    return memoryview(base.reshape(-1).view(np.uint8)[start:end])


class ChunkArena(ArrayArena):
    """Receiver-side materialisation of one chunk's buffers.

    Every full-ship :class:`NetBuffer` becomes one ``uint8`` ndarray over the
    buffer the frame reader filled (adopted, never copied) that the views
    built over it share as their ``.base``, and is stored into the worker's
    ``cache`` (:class:`~repro.runtime.residency.WorkerBufferCache`) under
    its generation tag.  Cached (``data=None``) buffers are resolved from
    the cache — a missing or generation-mismatched entry raises
    :class:`WireProtocolError` (the parent's table said the worker holds
    bytes it does not; failing loudly triggers resubmission elsewhere).
    """

    error = WireProtocolError

    def __init__(self, buffers: tuple[NetBuffer, ...], cache) -> None:
        super().__init__()
        for buf in buffers:
            if buf.data is None:
                entry = cache.get(buf.buffer_id)
                if entry is None or entry.generation != buf.generation:
                    held = "nothing" if entry is None else f"g{entry.generation}"
                    raise WireProtocolError(
                        f"cached dispatch references buffer "
                        f"{buf.buffer_id:#x} at generation {buf.generation} "
                        f"but this worker holds {held}"
                    )
                self._bases[buf.buffer_id] = (entry.backing, entry.start)
                continue
            backing = np.frombuffer(buf.data, dtype=np.uint8)
            self._bases[buf.buffer_id] = (backing, buf.start)
            cache.put(buf.buffer_id, backing, buf.start, buf.generation)
