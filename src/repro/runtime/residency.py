"""Per-endpoint data residency for the network backend (DESIGN.md §4.5).

The network backend has no shared memory; without this module every chunk
dispatch would ship the full union byte span of every buffer it touched —
even when the receiving endpoint had *just* processed those exact bytes.
This module holds the two halves of its one data plane, the stale-bytes
protocol:

* :class:`ResidencyTable` — the **parent-side, authoritative** record of
  which byte span of which base buffer each endpoint currently holds, at
  which :mod:`repro.runtime.data` write-version, under which *generation*
  tag.  Dispatch consults it (:meth:`ResidencyTable.lookup`) and ships a
  ``data=None`` :class:`~repro.runtime.net_wire.NetBuffer` referencing the
  cached generation when the endpoint's copy is current, or records a fresh
  entry (:meth:`ResidencyTable.record`) and ships the bytes when it is not.

* :class:`WorkerBufferCache` — the **worker-side** store of shipped
  backings, keyed by buffer id.  The worker never reasons about versions:
  it trusts the parent and checks only the generation tag, so a cached
  dispatch that references a generation the worker does not hold is a
  protocol violation (:class:`~repro.common.exceptions.WireProtocolError`)
  that fails the endpoint and re-runs the work elsewhere — self-healing,
  never silently wrong.

Correctness invariant (what :meth:`ResidencyTable.note_write` preserves):
whenever an entry's ``version`` equals the current write-version of its
base buffer, then for every region inside the entry's span that is not the
target of an in-flight write, the worker's backing bytes equal the parent's
buffer bytes.  Version bumps outside the protocol (``copy_from``, another
backend's drain) simply make entries stale — staleness always re-ships,
so unknown writers degrade performance, never correctness.

The write-commit rules (one write of span ``w`` at generation ``g`` from
endpoint ``E``, bumping the base from ``prev`` to ``new``):

* an entry whose version is not ``prev`` was already stale — drop it when
  ``w`` overlaps its span (bookkeeping), otherwise leave it (harmless);
* ``E``'s own entry upgrades to ``new`` only when its generation still
  equals the generation recorded at the chunk's dispatch — a re-shipped
  backing does not contain the in-flight write's bytes;
* any other current entry upgrades when ``w`` is disjoint from its span
  (its bytes are untouched) and is dropped when ``w`` overlaps it.
"""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = [
    "RESIDENCY_BUDGET_BYTES",
    "ResidencyTable",
    "WorkerBufferCache",
]

#: Per-endpoint byte budget the network backend gives its residency table:
#: least-recently used entries beyond it are evicted (and invalidated on the
#: worker).
RESIDENCY_BUDGET_BYTES = 256 << 20


class ResidencyEntry:
    """One endpoint-resident byte span of one base buffer."""

    __slots__ = ("start", "end", "version", "generation", "tick")

    def __init__(
        self, start: int, end: int, version: int, generation: int, tick: int
    ) -> None:
        self.start = start
        self.end = end
        self.version = version
        self.generation = generation
        self.tick = tick

    @property
    def nbytes(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResidencyEntry([{self.start}:{self.end}) v{self.version} "
            f"g{self.generation})"
        )


class ResidencyTable:
    """Parent-side map ``endpoint -> {buffer_id -> ResidencyEntry}``.

    Single-threaded by design: every caller runs on the executor's drain
    thread (dispatch, result handling and failover all do), so no lock is
    taken.  ``budget_bytes`` bounds the bytes *accounted* per endpoint;
    :meth:`evict_over_budget` returns the LRU ``(buffer_id, generation)``
    pairs the caller must forward to the worker as an ``invalidate``
    message, so worker memory tracks the parent's accounting.
    """

    def __init__(self, budget_bytes: int) -> None:
        self.budget_bytes = budget_bytes
        self._tables: dict[object, dict[int, ResidencyEntry]] = {}
        self._bytes: dict[object, int] = {}
        self._generation = 0
        self._tick = 0
        #: Live counters, aliased into the executor's stats dict.
        self.stats = {
            "hits": 0,
            "misses": 0,
            "bytes_saved": 0,
            "bytes_shipped": 0,
            "evictions": 0,
            "invalidations": 0,
            "write_upgrades": 0,
            "write_drops": 0,
        }

    # -- bookkeeping helpers -----------------------------------------------------
    def next_tick(self) -> int:
        """Advance and return the LRU clock (one tick per encoded chunk)."""
        self._tick += 1
        return self._tick

    def endpoints(self) -> list:
        return list(self._tables)

    def bytes_held(self, endpoint: object) -> int:
        return self._bytes.get(endpoint, 0)

    def entry(self, endpoint: object, buffer_id: int) -> Optional[ResidencyEntry]:
        return self._tables.get(endpoint, {}).get(buffer_id)

    # -- dispatch-side protocol --------------------------------------------------
    def lookup(
        self, endpoint: object, buffer_id: int, start: int, end: int, version: int
    ) -> Optional[ResidencyEntry]:
        """Current entry covering ``[start, end)`` at ``version``, or None.

        A hit means the endpoint's backing can serve the span without any
        bytes on the wire; the entry's LRU tick is refreshed.
        """
        entry = self._tables.get(endpoint, {}).get(buffer_id)
        if (
            entry is None
            or entry.version != version
            or entry.start > start
            or entry.end < end
        ):
            self.stats["misses"] += 1
            return None
        entry.tick = self.next_tick()
        self.stats["hits"] += 1
        self.stats["bytes_saved"] += end - start
        return entry

    def record(
        self, endpoint: object, buffer_id: int, start: int, end: int, version: int
    ) -> int:
        """Register a full ship of ``[start, end)``; returns its generation.

        Replaces any previous entry for the buffer on this endpoint — the
        worker's :class:`WorkerBufferCache` replaces its backing the same
        way when the shipped bytes arrive, keeping both sides in step.
        """
        self._generation += 1
        table = self._tables.setdefault(endpoint, {})
        old = table.get(buffer_id)
        held = self.bytes_held(endpoint)
        if old is not None:
            held -= old.nbytes
        entry = ResidencyEntry(start, end, version, self._generation, self.next_tick())
        table[buffer_id] = entry
        self._bytes[endpoint] = held + entry.nbytes
        self.stats["bytes_shipped"] += entry.nbytes
        return entry.generation

    def evict_over_budget(
        self, endpoint: object, protect_tick: int
    ) -> list[tuple[int, int]]:
        """LRU-evict until the endpoint fits its budget.

        Entries touched at or after ``protect_tick`` (the chunk currently
        being encoded) are never evicted, so a chunk whose buffers alone
        exceed the budget still dispatches — the table simply runs hot.
        Returns ``(buffer_id, generation)`` pairs for the worker-side
        ``invalidate`` message.
        """
        table = self._tables.get(endpoint)
        if table is None or self.bytes_held(endpoint) <= self.budget_bytes:
            return []
        victims = sorted(
            (
                (entry.tick, buffer_id, entry)
                for buffer_id, entry in table.items()
                if entry.tick < protect_tick
            ),
        )
        evicted: list[tuple[int, int]] = []
        held = self._bytes[endpoint]
        for _, buffer_id, entry in victims:
            if held <= self.budget_bytes:
                break
            del table[buffer_id]
            held -= entry.nbytes
            evicted.append((buffer_id, entry.generation))
        self._bytes[endpoint] = held
        self.stats["evictions"] += len(evicted)
        self.stats["invalidations"] += len(evicted)
        return evicted

    # -- write-commit protocol ---------------------------------------------------
    def note_write(
        self,
        writer: object,
        dispatch_generation: Optional[int],
        buffer_id: int,
        span: tuple[int, int],
        prev_version: int,
        new_version: int,
    ) -> list[tuple[object, int, int]]:
        """Commit one write of ``span`` (module docstring rules).

        ``dispatch_generation`` is the generation of the writer's entry at
        the time the writing chunk was dispatched (``None`` when unknown —
        e.g. a duplicate result — which conservatively skips the upgrade).
        Returns dropped entries as ``(endpoint, buffer_id, generation)``
        triples the caller forwards as worker ``invalidate`` messages.
        """
        start, end = span
        dropped: list[tuple[object, int, int]] = []
        for endpoint, table in self._tables.items():
            entry = table.get(buffer_id)
            if entry is None:
                continue
            overlaps = start < entry.end and entry.start < end
            if entry.version != prev_version:
                if overlaps:
                    self._drop_entry(endpoint, table, buffer_id, entry, dropped)
                continue
            if endpoint is writer and entry.generation == dispatch_generation:
                entry.version = new_version
                self.stats["write_upgrades"] += 1
            elif overlaps:
                self._drop_entry(endpoint, table, buffer_id, entry, dropped)
            else:
                entry.version = new_version
                self.stats["write_upgrades"] += 1
        return dropped

    def _drop_entry(self, endpoint, table, buffer_id, entry, dropped) -> None:
        del table[buffer_id]
        self._bytes[endpoint] = self._bytes.get(endpoint, 0) - entry.nbytes
        self.stats["write_drops"] += 1
        dropped.append((endpoint, buffer_id, entry.generation))

    # -- failure protocol --------------------------------------------------------
    def drop_endpoint(self, endpoint: object) -> None:
        """Forget everything an endpoint holds (failover / worker error).

        Called when the endpoint died (its cache is gone with it) or when a
        task body raised on it (a partial write may have corrupted cached
        backings; the next dispatch re-ships full bytes, which replaces the
        worker-side backing, so no worker round-trip is needed).
        """
        self._tables.pop(endpoint, None)
        self._bytes.pop(endpoint, None)

    # -- placement scoring -------------------------------------------------------
    def score(
        self,
        endpoint: object,
        wanted: Iterable[tuple[int, int, int, int]],
    ) -> int:
        """Resident-byte score: how many of ``wanted`` bytes are current.

        ``wanted`` holds ``(buffer_id, start, end, version)`` spans; each
        contributes the byte overlap with a current (version-matching)
        entry.  Pure read — no LRU touch, no stats.
        """
        table = self._tables.get(endpoint)
        if not table:
            return 0
        total = 0
        for buffer_id, start, end, version in wanted:
            entry = table.get(buffer_id)
            if entry is None or entry.version != version:
                continue
            overlap = min(end, entry.end) - max(start, entry.start)
            if overlap > 0:
                total += overlap
        return total


class CachedBuffer:
    """Worker-side record of one shipped backing."""

    __slots__ = ("backing", "start", "generation")

    def __init__(self, backing, start: int, generation: int) -> None:
        self.backing = backing
        self.start = start
        self.generation = generation


class WorkerBufferCache:
    """Worker-side buffer store; trusts the parent, checks generations.

    One instance per connection (:class:`~repro.runtime.net_transport.
    NetWorkerState`), populated by :class:`~repro.runtime.net_wire.
    ChunkArena` as full buffers arrive and consulted for ``data=None``
    dispatches.  The connection loop is strictly serial, so no locking.
    """

    def __init__(self) -> None:
        self._entries: dict[int, CachedBuffer] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def nbytes(self) -> int:
        return sum(entry.backing.nbytes for entry in self._entries.values())

    def get(self, buffer_id: int) -> Optional[CachedBuffer]:
        return self._entries.get(buffer_id)

    def put(self, buffer_id: int, backing, start: int, generation: int) -> None:
        self._entries[buffer_id] = CachedBuffer(backing, start, generation)

    def invalidate(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Drop entries named by ``(buffer_id, generation)`` pairs.

        The generation guard makes invalidation idempotent and safe against
        reordering relative to re-ships: a newer backing under the same
        buffer id is never dropped by an invalidate aimed at its
        predecessor.
        """
        for buffer_id, generation in pairs:
            entry = self._entries.get(buffer_id)
            if entry is not None and entry.generation == generation:
                del self._entries[buffer_id]
