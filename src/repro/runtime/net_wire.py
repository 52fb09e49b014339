"""Wire format of the network execution backend (DESIGN.md §4.5).

The network backend ships the remote-task core's descriptors
(:mod:`repro.runtime.remote_task`), but no shared memory spans hosts, so
every array payload travels **as bytes**.  This module defines the two halves
of that story:

* **Framing** — every message is one length-prefixed frame::

      | magic "ATMW" (4) | payload length (4, big-endian) | crc32 (4) | payload |

  The payload is a pickled message tuple (protocol ``HIGHEST_PROTOCOL``).
  Magic, length bound and CRC mean a corrupted or truncated stream is
  detected deterministically and raised as
  :class:`~repro.common.exceptions.WireProtocolError` — the receiving side
  treats the peer as failed instead of interpreting garbage.

* **Array/task encoding** — a :class:`ChunkEncoder` (sender side) walks the
  arrays referenced by a chunk of tasks, computes per owning base buffer the
  union byte span the chunk touches, and ships one :class:`NetBuffer` of raw
  bytes per base plus :class:`NetArrayRef` handles (offset/shape/strides/
  dtype) for every view.  A :class:`ChunkArena` (receiver side) materialises
  each buffer as one writable ``bytearray``: the
  :class:`~repro.runtime.remote_task.ArrayArena` whose backing bytes are
  the shipped spans.

Message vocabulary (client = the :class:`NetworkExecutor` parent, worker =
a loopback thread or a ``scripts/net_worker.py`` daemon)::

    client -> worker : ("hello", info)           handshake; carries the ATM config
                                                 and the residency flag
                       ("chunk", NetChunk)       one batch of task descriptors
                       ("invalidate", pairs)     drop cached buffers named by
                                                 (buffer_id, generation) pairs
                       ("sync",)                 request an ATM engine delta
                       ("ping",)                 heartbeat probe
                       ("shutdown",)             orderly connection teardown
    worker -> client : ("hello_ack", info)
                       ("ack", chunk_id)         chunk received (pre-execution)
                       ("result", chunk_id, results)
                       ("sync_result", delta)
                       ("pong",)
                       ("error", chunk_id, task_id, traceback_str)

Each entry of ``results`` is ``(task_id, action_value, executed, writes)``
where ``writes`` is a list of ``(access_index, bytes)`` pairs holding the
raw little bytes of every written region — the copy-back path that replaces
the process backend's shared-segment ``copy_out``.

Since protocol version 2 a :class:`NetBuffer` has a second, *cached* form
(``data is None``): the span is not on the wire, the worker must already
hold a backing for the buffer id under the named ``generation`` in its
:class:`~repro.runtime.residency.WorkerBufferCache` (populated by earlier
full ships).  A generation the worker does not hold is a protocol
violation — the worker raises :class:`WireProtocolError` and the parent
fails the endpoint and re-runs its work, so a residency bug degrades to a
resubmission instead of silently wrong bytes.
"""

from __future__ import annotations

import pickle
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.common.exceptions import RuntimeStateError, WireProtocolError
from repro.runtime.data import DataRegion, _base_buffer
from repro.runtime.remote_task import ArrayArena, TaskDescriptor

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "NetArrayRef",
    "NetBuffer",
    "NetChunk",
    "ChunkEncoder",
    "ChunkArena",
    "span_bytes",
    "encode_frame",
    "decode_frame",
    "iter_frames",
    "read_frame",
    "read_frame_async",
    "write_frame",
    "request",
]

#: Bumped on any incompatible message/frame change; checked at hello time.
#: Version 2: cached (``data=None``) :class:`NetBuffer` form, generation
#: tags and the ``invalidate`` message of the residency protocol.
#: Version 3: chunks carry :class:`~repro.runtime.remote_task.TaskDescriptor`
#: (the pickled descriptor classes moved import path).
#: Version 4: the hello's ``engine`` is the replica's ``ATMConfig``.
PROTOCOL_VERSION = 4

MAGIC = b"ATMW"
_HEADER = struct.Struct("!4sII")

#: Upper bound on one frame's payload: a garbage length prefix must never
#: turn into a multi-gigabyte allocation or an endless blocking read.
MAX_FRAME_BYTES = 1 << 30


# -- framing --------------------------------------------------------------------------
def encode_frame(message: Any) -> bytes:
    """Serialize one message into a framed byte string."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:  # pragma: no cover - defensive
        raise WireProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    return _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload)) + payload

def _check_header(header: bytes) -> tuple[int, int]:
    magic, length, crc = _HEADER.unpack(header)
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}): peer is not "
            f"speaking the ATM wire protocol or the stream is corrupted"
        )
    if length > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    return length, crc


def _check_payload(payload: bytes, crc: int) -> Any:
    if zlib.crc32(payload) != crc:
        raise WireProtocolError(
            "frame checksum mismatch: payload corrupted in transit"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:  # CRC passed but the pickle is malformed
        raise WireProtocolError(f"cannot unpickle frame payload: {exc}") from exc


def decode_frame(data: bytes) -> tuple[Any, int]:
    """Decode one frame from ``data``; returns ``(message, bytes_consumed)``.

    Raises :class:`WireProtocolError` on bad magic, an oversized length, a
    truncated buffer or a checksum mismatch.
    """
    if len(data) < _HEADER.size:
        raise WireProtocolError(
            f"truncated frame: {len(data)} bytes < {_HEADER.size}-byte header"
        )
    length, crc = _check_header(data[: _HEADER.size])
    end = _HEADER.size + length
    if len(data) < end:
        raise WireProtocolError(
            f"truncated frame: header promises {length} payload bytes, "
            f"{len(data) - _HEADER.size} present"
        )
    return _check_payload(data[_HEADER.size : end], crc), end


def iter_frames(data: bytes):
    """Yield every message of a back-to-back frame sequence.

    The persistent THT store's file format is exactly this: concatenated
    frames (header + delta appends).  Raises :class:`WireProtocolError` on
    the first bad or truncated frame — including a partial trailing frame
    left by an interrupted append — so callers decide between failing and
    salvaging the frames already yielded.
    """
    offset = 0
    view = memoryview(data)
    while offset < len(data):
        message, consumed = decode_frame(view[offset:])
        yield message
        offset += consumed


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`WireProtocolError` on EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise WireProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Any:
    """Blocking read of one complete frame from a socket."""
    length, crc = _check_header(_recv_exact(sock, _HEADER.size))
    return _check_payload(_recv_exact(sock, length), crc)


async def read_frame_async(reader: "asyncio.StreamReader") -> Any:
    """Read one frame from an asyncio stream (``None`` at EOF or reset)."""
    try:
        length, crc = _check_header(await reader.readexactly(_HEADER.size))
        payload = await reader.readexactly(length)
    except (EOFError, ConnectionError):  # IncompleteReadError is an EOFError
        return None
    return _check_payload(payload, crc)


def write_frame(sock: socket.socket, message: Any) -> None:
    sock.sendall(encode_frame(message))


def request(sock: socket.socket, message: Any) -> Any:
    """One blocking request/reply round-trip on a frame connection."""
    write_frame(sock, message)
    return read_frame(sock)


# -- array / task encoding ------------------------------------------------------------
@dataclass(frozen=True)
class NetArrayRef:
    """Serializable handle to an array view inside a shipped buffer span.

    ``offset``/``strides`` are byte-exact relative to the *owning base
    buffer* (exactly like :class:`~repro.runtime.data.ArrayRef`); the
    receiving :class:`ChunkArena` rebases them onto the transmitted span.
    """

    buffer_id: int
    offset: int
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class NetBuffer:
    """Raw bytes of the span one chunk touches within one base buffer.

    Two forms since protocol version 2:

    * ``data`` is bytes — a *full ship*; the receiver materialises a fresh
      backing and (when residency is on) stores it under ``generation``;
    * ``data`` is ``None`` — a *cached* dispatch; the receiver must already
      hold generation ``generation`` of this buffer id and serves the chunk
      from that backing without any span bytes on the wire.
    """

    buffer_id: int
    start: int
    data: Optional[bytes]
    generation: int = 0


@dataclass(frozen=True)
class NetChunk:
    """One dispatch unit: buffer spans + the task descriptors using them."""

    chunk_id: int
    buffers: tuple[NetBuffer, ...]
    tasks: tuple[TaskDescriptor, ...]


class ChunkEncoder:
    """Sender-side builder of :class:`NetArrayRef`/:class:`NetBuffer` sets.

    Tasks of one chunk are pairwise independent (they were ready
    simultaneously), so one buffer copy per base is consistent for the whole
    chunk.  Call :meth:`ref` for every array (it is the array→ref function
    :func:`~repro.runtime.remote_task.describe_task` takes), then
    :meth:`buffers` once to materialise the union spans.
    """

    def __init__(self) -> None:
        # id(base) -> [base, min_start, max_end]; holding the base reference
        # keeps the id stable for the encoder's lifetime.
        self._spans: dict[int, list] = {}
        # id(array) -> (array, ref): a task's argument arrays are usually
        # the very objects its accesses declared, so each is encoded once.
        self._refs: dict[int, tuple[np.ndarray, NetArrayRef]] = {}

    def _touch(self, base: np.ndarray, start: int, end: int) -> int:
        buffer_id = id(base)
        span = self._spans.get(buffer_id)
        if span is None:
            self._spans[buffer_id] = [base, start, end]
        else:
            span[1] = min(span[1], start)
            span[2] = max(span[2], end)
        return buffer_id

    def ref(self, array: np.ndarray, region: Optional[DataRegion] = None) -> NetArrayRef:
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
        ref = NetArrayRef(
            buffer_id=buffer_id,
            offset=int(my_addr - base_addr),
            shape=tuple(array.shape),
            strides=tuple(array.strides),
            dtype=array.dtype.str,
        )
        self._refs[id(array)] = (array, ref)
        return ref

    def spans(self) -> dict[int, tuple[np.ndarray, int, int]]:
        """Touched union spans as ``buffer_id -> (base, start, end)``.

        The residency-aware dispatch path iterates this to decide, per
        buffer and per endpoint, between a full ship and a cached dispatch.
        """
        return {
            buffer_id: (base, start, end)
            for buffer_id, (base, start, end) in self._spans.items()
        }

    def buffers(self) -> tuple[NetBuffer, ...]:
        """Materialise the union span bytes of every touched base buffer."""
        return tuple(
            NetBuffer(
                buffer_id=buffer_id, start=start, data=span_bytes(base, start, end)
            )
            for buffer_id, (base, start, end) in self._spans.items()
        )


def span_bytes(base: np.ndarray, start: int, end: int) -> bytes:
    """Copy the ``[start, end)`` byte span out of an owning base buffer."""
    if not base.flags.c_contiguous:
        raise RuntimeStateError(
            "the network backend requires C-contiguous owning "
            f"buffers; got a non-contiguous owner of dtype "
            f"{base.dtype} shape {base.shape}"
        )
    if not base.size:
        return b""
    flat = base.reshape(-1).view(np.uint8)
    return flat[start:end].tobytes()


class ChunkArena(ArrayArena):
    """Receiver-side materialisation of one chunk's buffers.

    Every :class:`NetBuffer` becomes one writable ``bytearray``-backed
    ``uint8`` ndarray that the views built over it share as their ``.base``.

    A ``cache`` (:class:`~repro.runtime.residency.WorkerBufferCache`) makes
    the arena residency-aware: full ships are stored into it under their
    generation tag, and cached (``data=None``) buffers are resolved from
    it — a missing or generation-mismatched entry raises
    :class:`WireProtocolError` (the parent's table said the worker holds
    bytes it does not; failing loudly triggers resubmission elsewhere).
    """

    ref_type = NetArrayRef
    error = WireProtocolError

    def __init__(
        self, buffers: tuple[NetBuffer, ...], cache=None
    ) -> None:
        super().__init__()
        self._bases: dict[int, tuple[np.ndarray, int]] = {}
        for buf in buffers:
            if buf.data is None:
                entry = cache.get(buf.buffer_id) if cache is not None else None
                if entry is None or entry.generation != buf.generation:
                    held = "nothing" if entry is None else f"g{entry.generation}"
                    raise WireProtocolError(
                        f"cached dispatch references buffer "
                        f"{buf.buffer_id:#x} at generation {buf.generation} "
                        f"but this worker holds {held}"
                    )
                self._bases[buf.buffer_id] = (entry.backing, entry.start)
                continue
            backing = np.frombuffer(bytearray(buf.data), dtype=np.uint8)
            self._bases[buf.buffer_id] = (backing, buf.start)
            if cache is not None:
                cache.put(buf.buffer_id, backing, buf.start, buf.generation)

    def _backing(self, ref: NetArrayRef) -> tuple[np.ndarray, int]:
        entry = self._bases.get(ref.buffer_id)
        if entry is None:
            raise WireProtocolError(
                f"chunk references buffer {ref.buffer_id:#x} that was not "
                f"shipped with it"
            )
        return entry
