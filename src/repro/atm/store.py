"""Persistent, shared THT stores (DESIGN.md §9).

The THT's ``snapshot(reset)/merge`` delta protocol (the serving merge
pump uses it too) defines the unit of exchange: a ``{"entries": [THTEntry,
...], "counters": {...}}`` dict.  On the wire and in a file each entry is
the plain tuple ``(key, p, type name, producer index, outputs)``
(:func:`_plain_delta` / :func:`_delta_of`), which the control codec
(:mod:`repro.runtime.codec`) carries as data.  This module gives those
deltas a life beyond the ``Session`` — two backends behind one tiny
interface, selected by the ``atm.tht_store`` URL:

* :class:`FileTHTStore` (``file://<path>``) — a versioned snapshot file.
  The format reuses the :mod:`repro.runtime.net_wire` framing (magic,
  bounded lengths, CRC32 over the control section and over each raw
  array segment, so corruption and truncation are detected
  deterministically): one header frame ``("tht_store", {schema, geometry})``
  followed by any number of delta frames ``("tht_delta", delta)``.  Flushes
  *append* one delta frame (a single ``write`` on an ``O_APPEND`` handle);
  when the file accumulates more than :data:`COMPACT_AFTER_FRAMES` deltas it
  is rewritten as one consolidated snapshot via a temp file and an atomic
  ``os.replace`` — readers never observe a half-written store.  An append
  cut short leaves a *torn tail*: the reader keeps the frames in front of
  it (with a ``RuntimeWarning``) and the next publish rewrites the file
  without it.

* :class:`ShardTHTStore` (``tcp://<host>:<port>``) — a client of a
  serving gateway's shared THT tier (``serving.shared_tht``, DESIGN.md §9),
  speaking net_wire frames: ``hello``/``hello_ack`` (the serving protocol's
  handshake, as a store client), ``fetch`` (download the tier as one
  delta), ``publish`` (merge a delta in).  Many sessions and gateways attach
  to one gateway and share a warm tier without drain barriers: publishes
  are incremental merges, fetches are whole-table snapshots, and a gateway
  with a ``file://`` store of its own keeps the tier across restarts.
  :func:`store_reply` is the gateway's half of the two verbs.

Failure semantics: a store that cannot be read raises
:class:`~repro.common.exceptions.THTStoreCorruptError` (bad frame before the
tail, bad header) or :class:`~repro.common.exceptions.THTStoreUnavailableError`
(gateway unreachable, or refusing the store verbs) — never silently-garbage
entries.  A file written under another schema raises
:class:`~repro.common.exceptions.THTStoreSchemaError` naming both schemas,
and is never overwritten.  :func:`warm_start` (the one
entry point of the Session and the gateway's shared tier) catches all three
and falls back to a cold table — detached from a store of another schema;
:func:`publish_increment` ships a journal increment back and reports a store
that failed mid-run.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.atm.tht import TaskHistoryTable, THTEntry
from repro.common.config import ATMConfig
from repro.common.exceptions import (
    PickledControlError,
    THTStoreCorruptError,
    THTStoreError,
    THTStoreSchemaError,
    THTStoreUnavailableError,
    WireProtocolError,
)
from repro.runtime.net_wire import (
    decode_frame,
    encode_frame,
    is_torn_frame,
    request,
)

__all__ = [
    "FileTHTStore",
    "parse_store_url",
    "warm_start",
    "publish_increment",
    "store_reply",
]

#: Bumped on any incompatible change to the store file layout.  A file with
#: a different schema raises :class:`THTStoreSchemaError` (cold start, the
#: file left alone) rather than being guessed at.  Schema 2: segmented
#: frames — a schema-1 file fails on its first frame's magic (no frame of
#: any schema: corrupt), cold-starts and is rewritten by the next publish.
#: Schema 3: a multi-input key is the combination of its inputs' digests
#: (:mod:`repro.atm.keygen`) — entries are found by key value, so a
#: schema-2 file would load as entries no lookup can reach.
#: Schema 4: a digest reads its sampled bytes in address order — every
#: ``p < 1`` key value moved, so a schema-3 file is as unreachable.
#: Schema 5: frames carry the data-only control codec; a schema-2..4 file's
#: pickled frames are refused unread.
#: Schema 6: an entry is a plain ``(key, p, type name, producer index,
#: outputs)`` tuple, not a codec record of its own.
STORE_SCHEMA_VERSION = 6

#: Append-then-compact bound of the ``file://`` store: a flush that leaves
#: more than this many frames in the file rewrites it (atomically) as one
#: consolidated snapshot.
COMPACT_AFTER_FRAMES = 8

_HEADER_KIND = "tht_store"
_DELTA_KIND = "tht_delta"

#: Socket timeout of ``tcp://`` client operations (connect and per-reply).
_SHARD_TIMEOUT_S = 10.0


def _entry_key(entry) -> tuple:
    """Identity of one THT entry for later-wins dedup across deltas."""
    return (entry.key_value, entry.task_type_name, entry.p_canonical)


def _plain_delta(delta: dict) -> dict:
    """``delta`` as it travels: each entry a plain tuple."""
    return {
        "entries": [
            (entry.key_value, entry.p, entry.task_type_name, entry.producer_index,
             list(entry.outputs))
            for entry in delta.get("entries", [])
        ],
        "counters": delta.get("counters", {}),
    }


def _entry(key, p, name, producer, outputs) -> THTEntry:
    if not (type(key) is type(producer) is int and type(p) in (int, float)
            and type(name) is str and type(outputs) is list
            and all(type(o) is np.ndarray for o in outputs)):
        raise TypeError("malformed THT entry")
    return THTEntry(key_value=key, p=p, task_type_name=name, outputs=outputs,
                    producer_index=producer)


def _delta_of(plain: Any) -> Optional[dict]:
    """The THT delta a file or a peer sent, or ``None`` when it does not
    have the shape of one: only then is it merged."""
    try:
        entries, counters = plain.get("entries", []), plain.get("counters", {})
        if type(entries) is not list or type(counters) is not dict or not all(
            type(count) is int for count in counters.values()
        ):
            return None
        return {"entries": [_entry(*row) for row in entries], "counters": counters}
    except (AttributeError, TypeError, ValueError):
        return None


def _delta_frame(delta: dict) -> bytes:
    """One ``tht_delta`` frame of a store file."""
    return bytes(encode_frame((_DELTA_KIND, _plain_delta(delta))))


def merge_deltas(deltas: "list[dict]") -> dict:
    """Fold an ordered delta sequence into one: later entries win.

    This is the pure-data analogue of replaying ``THT.merge`` per delta —
    used to consolidate a store file's appended frames into a single
    snapshot and to aggregate what :meth:`FileTHTStore.load` returns.
    Counters are summed (they are cumulative event counts).
    """
    entries: dict[tuple, Any] = {}
    counters = {"hits": 0, "misses": 0, "insertions": 0, "evictions": 0}
    for delta in deltas:
        for entry in delta.get("entries", []):
            entries[_entry_key(entry)] = entry
        for name in counters:
            counters[name] += int(delta.get("counters", {}).get(name, 0))
    return {"entries": list(entries.values()), "counters": counters}


def parse_store_url(url: str) -> tuple[str, Any]:
    """Split a ``tht_store`` URL into ``("file", Path)`` or ``("tcp", (host, port))``."""
    url = url.strip()
    if url.startswith("file://"):
        path = url[len("file://"):]
        if not path:
            raise THTStoreError("tht_store file:// URL names no path")
        return "file", Path(path)
    if url.startswith("tcp://"):
        address = url[len("tcp://"):]
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit() or not (0 < int(port) <= 65535):
            raise THTStoreError(
                f"tht_store tcp:// URL must be tcp://host:port, got {url!r}"
            )
        return "tcp", (host, int(port))
    raise THTStoreError(
        f"tht_store must be a file:// or tcp:// URL, got {url!r}"
    )


def open_store(url: str, atm_config: Optional[ATMConfig] = None):
    """Open the store named by a ``file://`` / ``tcp://`` URL."""
    kind, target = parse_store_url(url)
    config = atm_config or ATMConfig()
    if kind == "file":
        return FileTHTStore(target, atm_config=config)
    host, port = target
    return ShardTHTStore(host, port, atm_config=config)


def warm_start(url: str, atm_config: ATMConfig, tht, what: str = "cold-starting"):
    """Open the store at ``url`` and merge its content into ``tht``.

    Returns ``(store, restored)``: the attached store (``None`` when it is
    unreachable) and the number of entries merged.  A damaged cache must
    never take down the computation it was meant to accelerate, so every
    failure degrades to a cold table with a ``RuntimeWarning`` saying
    ``what`` happens instead.  A *corrupt* store stays attached — the next
    publish rewrites it (:class:`FileTHTStore` self-heals); one of another
    schema is detached and left as it is.  Restored
    entries are merged un-journaled: callers enable the journal afterwards,
    so a later :func:`publish_increment` never re-publishes them.
    """
    store = delta = problem = None
    try:
        store = open_store(url, atm_config)
        delta = store.load()
    except THTStoreSchemaError as exc:
        problem, store = f"refused and left as it is, {what}: {exc}", None
    except THTStoreCorruptError as exc:
        problem = f"unreadable, {what}: {exc}"
    except THTStoreUnavailableError as exc:
        problem = (
            f"{'unavailable during warm-start' if store else 'unavailable'}, "
            f"{what}: {exc}"
        )
        if store is not None:
            store.close()
            store = None
    if problem:
        warnings.warn(f"THT store {url} {problem}", RuntimeWarning, stacklevel=3)
    entries = delta.get("entries") if delta else None
    if entries:
        tht.merge(delta, journal=False)
    return store, len(entries or ())


def publish_increment(store, tht) -> bool:
    """Ship ``tht``'s journal increment to ``store`` (nothing journaled
    since the last publish: nothing to ship, counters keep accumulating).

    Returns ``False`` — after closing the store and warning once — when the
    publish failed: the caller detaches the store and carries on in memory.
    """
    if not tht.journaled:
        return True
    try:
        store.publish(tht.snapshot(reset=True))
    except THTStoreError as exc:
        store.close()
        warnings.warn(
            f"THT store {store.url} publish failed; detaching the store "
            f"(entries since the last publish were not persisted): {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    return True


# -- file backend ---------------------------------------------------------------------
class FileTHTStore:
    """Warm-start snapshot file: header frame + appended delta frames."""

    def __init__(self, path: "Path | str", atm_config: Optional[ATMConfig] = None) -> None:
        self.path = Path(path)
        self.config = atm_config or ATMConfig()
        self.url = f"file://{self.path}"
        self._lock = threading.Lock()

    # -- framing ------------------------------------------------------------------
    def _header_frame(self) -> bytes:
        return bytes(encode_frame(
            (
                _HEADER_KIND,
                {
                    "schema": STORE_SCHEMA_VERSION,
                    "tht_bucket_bits": self.config.tht_bucket_bits,
                    "tht_bucket_capacity": self.config.tht_bucket_capacity,
                },
            )
        ))

    def _read_frames(self) -> tuple[list, int]:
        """Decode the file's frames in order; returns ``(frames, torn)``.

        ``torn`` counts the bytes of a torn tail after the header (the last
        frame as an interrupted append leaves it, ``is_torn_frame``),
        dropped with a ``RuntimeWarning`` so the frames in front of it are
        kept.  Any other damage raises the named error.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return [], 0
        except OSError as exc:
            raise THTStoreError(f"cannot read THT store {self.path}: {exc}") from exc
        frames: list = []
        view, at = memoryview(raw), 0
        while at < len(raw):
            try:
                message, consumed = decode_frame(view[at:])
            except PickledControlError as exc:
                raise THTStoreSchemaError(
                    f"THT store {self.path} was written by schema 4 or earlier; "
                    f"this build reads schema {STORE_SCHEMA_VERSION}: {exc}"
                ) from exc
            except WireProtocolError as exc:
                if not frames or not is_torn_frame(view[at:]):
                    raise THTStoreCorruptError(
                        f"THT store {self.path} is corrupt or truncated: {exc}"
                    ) from exc
                warnings.warn(
                    f"THT store {self.path}: dropped a torn tail of "
                    f"{len(raw) - at} bytes at offset {at} ({exc}); the "
                    f"{len(frames)} frames in front of it are kept",
                    RuntimeWarning,
                    stacklevel=3,
                )
                break
            if not frames:
                self._check_header(message)
            frames.append(message)
            at += consumed
        if not frames:
            self._check_header(None)
        # One (kind, dict) header, then (kind, THT delta) frames.
        header = frames[0]
        deltas = [
            _delta_of(frame[1])
            if type(frame) is tuple and len(frame) == 2 and frame[0] == _DELTA_KIND
            else None
            for frame in frames[1:]
        ]
        if None in deltas:
            raise THTStoreCorruptError(f"THT store {self.path} contains a non-delta frame")
        return [header, *((_DELTA_KIND, delta) for delta in deltas)], len(raw) - at

    def _check_header(self, header: Any) -> None:
        """Refuse a file that does not start with this schema's header —
        before any delta frame is decoded: another schema's deltas may not
        decode at all, and its file must be refused by name, not healed."""
        if not (type(header) is tuple and len(header) == 2 and header[0] == _HEADER_KIND
                and type(header[1]) is dict):
            raise THTStoreCorruptError(
                f"THT store {self.path} does not start with a {_HEADER_KIND!r} header"
            )
        schema = header[1].get("schema")
        if schema != STORE_SCHEMA_VERSION:
            raise THTStoreSchemaError(
                f"THT store {self.path} has schema {schema!r}; this build "
                f"reads schema {STORE_SCHEMA_VERSION}"
            )

    # -- store interface ----------------------------------------------------------
    def load(self) -> dict:
        """Aggregated content of the store (empty delta for a missing file)."""
        with self._lock:
            frames, _ = self._read_frames()
        return merge_deltas([frame[1] for frame in frames[1:]])

    def publish(self, delta: dict) -> int:
        """Append one delta frame (then compact when the file has grown).

        The append is a single ``write`` on an append-mode handle (the
        frame's scatter list is joined once for it), fsynced, so concurrent
        publishers interleave whole frames; compaction rewrites through a
        temp file + atomic ``os.replace``, as is a file with a torn tail:
        header, the frames in front of the tail and this one.
        """
        entries = delta.get("entries", [])
        if not entries:
            return 0
        frame = _delta_frame(delta)
        compact_after = False
        with self._lock:
            try:
                existing, torn = self._read_frames()
            except THTStoreSchemaError:
                raise  # another schema's file is never overwritten
            except THTStoreCorruptError:
                # Self-heal: a damaged store is replaced by this snapshot
                # instead of having good frames appended after bad bytes.
                existing, torn = [], 0
            if not existing or torn:
                kept = [_delta_frame(message[1]) for message in existing[1:]]
                self._write_atomic(kept + [frame])
            else:
                with open(self.path, "ab") as handle:
                    handle.write(frame)
                    handle.flush()
                    os.fsync(handle.fileno())
                compact_after = len(existing) > COMPACT_AFTER_FRAMES
        if compact_after:
            self.compact()
        return len(entries)

    def compact(self) -> None:
        """Rewrite the file as header + one consolidated delta frame."""
        with self._lock:
            frames, _ = self._read_frames()
            if not frames:
                return
            merged = merge_deltas([frame[1] for frame in frames[1:]])
            self._write_atomic([_delta_frame(merged)])

    def _write_atomic(self, delta_frames: list) -> None:
        """Write header + frames to a temp file and atomically replace."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self._header_frame())
                for frame in delta_frames:
                    handle.write(frame)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def stats(self) -> dict:
        with self._lock:
            try:
                frames, _ = self._read_frames()
            except THTStoreError:
                frames = []
        merged = merge_deltas([frame[1] for frame in frames[1:]])
        return {
            "backend": "file",
            "path": str(self.path),
            "delta_frames": max(len(frames) - 1, 0),
            "entries": len(merged["entries"]),
            "bytes": self.path.stat().st_size if self.path.exists() else 0,
        }

    def close(self) -> None:
        """Nothing to release: every publish is already durable."""

    def __enter__(self) -> "FileTHTStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- tcp backend: a gateway's shared tier ----------------------------------------------
class ShardTHTStore:
    """Client of one serving gateway's shared THT tier (``tcp://``)."""

    def __init__(
        self,
        host: str,
        port: int,
        atm_config: Optional[ATMConfig] = None,
        timeout_s: float = _SHARD_TIMEOUT_S,
    ) -> None:
        # The gateway imports this module; the handshake constant is read
        # when a ``tcp://`` store is opened, not at import.
        from repro.serving.gateway import SERVING_PROTOCOL_VERSION

        self.host = host
        self.port = port
        self.config = atm_config or ATMConfig()
        self.url = f"tcp://{host}:{port}"
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_s)
            self._sock.settimeout(timeout_s)
            self._request(("hello", {"protocol": SERVING_PROTOCOL_VERSION, "store": True}))
        except OSError as exc:
            self.close()
            raise THTStoreUnavailableError(
                f"THT store {self.url} unreachable: {exc}"
            ) from exc
        except THTStoreError:
            self.close()
            raise

    def _request(self, message: tuple) -> Any:
        """One request/reply round-trip; maps transport errors to the taxonomy
        and a refusal (another protocol version, a gateway without a shared
        tier) to :class:`THTStoreUnavailableError`."""
        expected = {
            "hello": "hello_ack",
            "fetch": "fetch_result",
            "publish": "publish_ack",
        }[message[0]]
        with self._lock:
            if self._sock is None:
                raise THTStoreUnavailableError(
                    f"THT store connection {self.url} is closed"
                )
            try:
                reply = request(self._sock, message)
            except WireProtocolError as exc:
                raise THTStoreCorruptError(
                    f"THT store {self.url} sent a malformed reply: {exc}"
                ) from exc
            except (OSError, EOFError) as exc:
                raise THTStoreUnavailableError(
                    f"THT store {self.url} unreachable: {exc}"
                ) from exc
        if not isinstance(reply, tuple) or not reply:
            raise THTStoreCorruptError(
                f"THT store {self.url} sent a non-tuple reply"
            )
        if reply[0] == "error":
            raise THTStoreUnavailableError(
                f"THT store {self.url} refused {message[0]!r}: {reply[1:]}"
            )
        if reply[0] != expected or len(reply) < 2:
            raise THTStoreCorruptError(
                f"THT store {self.url} answered {message[0]!r} with "
                f"{reply[0]!r} (expected {expected!r})"
            )
        return reply[1]

    # -- store interface ----------------------------------------------------------
    def load(self) -> dict:
        """Download the gateway's whole shared tier as one delta."""
        delta = _delta_of(self._request(("fetch",)))
        if delta is None:
            raise THTStoreCorruptError(
                f"THT store {self.url} fetch_result carries no THT delta"
            )
        return delta

    def publish(self, delta: dict) -> int:
        """Upload one delta; the gateway merges it into its shared tier."""
        if not delta.get("entries") and not delta.get("counters"):
            return 0
        return int(self._request(("publish", _plain_delta(delta))))

    def close(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "ShardTHTStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def store_reply(tht: TaskHistoryTable, message: tuple) -> tuple:
    """A shared tier's answer to a store client's ``fetch`` or ``publish``
    (the gateway's half of :class:`ShardTHTStore`).

    ``fetch`` ships the whole table as one delta; ``publish`` merges a delta
    in, journaled like a tenant's, so a tier with a store of its own passes
    it on.  A publish that carries no delta raises :class:`THTStoreError`.
    """
    if message[0] == "fetch":
        return ("fetch_result", _plain_delta(tht.snapshot(full=True)))
    delta = _delta_of(message[1] if len(message) == 2 else None)
    if delta is None:
        raise THTStoreError("publish carries no THT delta")
    tht.merge(delta)
    return ("publish_ack", len(delta["entries"]))
