"""Task History Table (paper Section III-A, Figure 1).

The THT stores, for previously executed tasks, the 8-byte hash key of their
(sampled) inputs together with a full copy of their outputs.  It is organised
as ``2^N`` buckets of at most ``M`` entries; the lower ``N`` bits of the key
select the bucket; entries are evicted first-in-first-out when a bucket is
full.  Each bucket has its own lock so concurrent workers rarely contend
(Section IV-B reports that ``N = 8`` removes lock contention).

Keys computed with different sampling fractions ``p`` or for different task
types are never considered equal — Dynamic ATM stores ``p`` alongside the key
exactly for this reason.  ``p`` is compared through its canonical quantized
representation (:func:`repro.common.hashing.canonical_p`), stored at insert
time, so an entry still matches when the policy later recomputes the same
fraction through a different floating-point path.

Hit/miss/insertion/eviction statistics are kept per bucket, under the bucket
lock that the operation already holds, and aggregated on read — the seed's
single global counter lock serialised every probe of every worker.

Lock ordering: when the insertion journal is enabled, writers (``insert``,
``merge``) take ``_journal_lock`` *before* any bucket lock, and ``snapshot``
holds ``_journal_lock`` across its whole capture.  That single ordering rule
is what makes a ``snapshot(reset=True)`` delta consistent: no journaled
commit can land between the entry capture and the counter capture/reset, so
every counted insertion is shipped by exactly one snapshot.  ``lookup``
never touches the journal lock — probes stay per-bucket concurrent.
``enable_journal`` must therefore be called before concurrent writers start
(session open, worker startup), which every caller already does.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.common.config import ATMConfig
from repro.common.hashing import HashKey, bucket_of_value, canonical_p

__all__ = ["THTEntry", "TaskHistoryTable"]


@dataclass
class THTEntry:
    """One memoized task: its key, the sampling fraction and its outputs."""

    key_value: int
    p: float
    task_type_name: str
    outputs: list[np.ndarray]
    producer_index: int
    stored_bytes: int = field(init=False)
    p_canonical: int = field(init=False)

    def __post_init__(self) -> None:
        self.stored_bytes = int(sum(o.nbytes for o in self.outputs))
        self.p_canonical = canonical_p(self.p)

    def matches(self, key: HashKey, task_type_name: str) -> bool:
        return (
            self.key_value == key.value
            and self.task_type_name == task_type_name
            and self.p_canonical == canonical_p(key.p)
        )

    @property
    def memory_bytes(self) -> int:
        """Entry footprint: stored outputs + 8-byte key + 8-byte p + metadata."""
        return self.stored_bytes + 8 + 8 + 8


class _BucketCounters:
    """Per-bucket statistics, mutated under the bucket's own lock."""

    __slots__ = ("hits", "misses", "insertions", "evictions")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0


class TaskHistoryTable:
    """Bucketed, bounded, FIFO-evicting history of task executions."""

    def __init__(self, config: ATMConfig) -> None:
        self.config = config
        self.n_buckets = config.n_buckets
        self.capacity = config.tht_bucket_capacity
        self._buckets: list[deque[THTEntry]] = [deque() for _ in range(self.n_buckets)]
        self._locks = [threading.Lock() for _ in range(self.n_buckets)]
        self._counters = [_BucketCounters() for _ in range(self.n_buckets)]
        # Counters folded in from merged peer tables (process-backend workers).
        self._foreign = _BucketCounters()
        # Optional insertion journal so snapshot(reset=True) ships only the
        # entries committed since the previous snapshot.
        self._journal: Optional[list[THTEntry]] = None
        self._journal_lock = threading.Lock()

    # -- bucket selection --------------------------------------------------------
    def bucket_index(self, key: HashKey) -> int:
        return key.bucket(self.config.tht_bucket_bits)

    # -- operations ----------------------------------------------------------------
    def lookup(self, key: HashKey, task_type_name: str) -> Optional[THTEntry]:
        """Return the matching entry, or ``None`` (recording hit/miss stats)."""
        index = self.bucket_index(key)
        with self._locks[index]:
            for entry in self._buckets[index]:
                if entry.matches(key, task_type_name):
                    self._counters[index].hits += 1
                    return entry
            self._counters[index].misses += 1
        return None

    def insert(
        self,
        key: HashKey,
        task_type_name: str,
        outputs: list[np.ndarray],
        producer_index: int,
    ) -> THTEntry:
        """Store a finished task's outputs, FIFO-evicting if the bucket is full.

        If an entry with the same key already exists it is refreshed in place
        (newest outputs win), which matches the paper's observation that the
        THT must be continuously updated because redundancy appears throughout
        the execution.
        """
        entry = THTEntry(
            key_value=key.value,
            p=key.p,
            task_type_name=task_type_name,
            outputs=outputs,
            producer_index=producer_index,
        )
        if self._journal is not None:
            # Journal-lock-first ordering (see module docstring): the commit
            # and its journal record are one atomic step with respect to
            # snapshot(reset=True).
            with self._journal_lock:
                self._store(entry, local=True)
                if self._journal is not None:
                    self._journal.append(entry)
        else:
            self._store(entry, local=True)
        return entry

    def _store(self, entry: THTEntry, local: bool) -> None:
        """Place one entry into its bucket with refresh/FIFO-evict semantics.

        ``local`` commits (this table's own insertions) bump the bucket's
        insertion/eviction counters; foreign commits (merged peer entries)
        only record evictions, in the foreign fold, because the peer already
        counted the insertion.
        """
        index = bucket_of_value(entry.key_value, self.config.tht_bucket_bits)
        with self._locks[index]:
            bucket = self._buckets[index]
            counters = self._counters[index]
            for position, existing in enumerate(bucket):
                if (
                    existing.key_value == entry.key_value
                    and existing.task_type_name == entry.task_type_name
                    and existing.p_canonical == entry.p_canonical
                ):
                    bucket[position] = entry
                    if local:
                        counters.insertions += 1
                    return
            if len(bucket) >= self.capacity:
                bucket.popleft()
                if local:
                    counters.evictions += 1
                else:
                    self._foreign.evictions += 1
            bucket.append(entry)
            if local:
                counters.insertions += 1

    # -- cross-process deltas ----------------------------------------------------
    def enable_journal(self) -> None:
        """Record every insertion so snapshots can ship incremental deltas."""
        with self._journal_lock:
            if self._journal is None:
                self._journal = []

    @property
    def journaled(self) -> int:
        """Commits journaled since the last ``snapshot(reset=True)`` (0 with
        the journal off)."""
        with self._journal_lock:
            return len(self._journal or ())

    def _sweep_counters(self, reset: bool, collect_entries: bool) -> tuple[list[THTEntry], dict]:
        """Capture (and optionally reset) all counters in per-bucket passes.

        Each bucket's entries and counters are read — and, with ``reset``,
        zeroed — inside one critical section, so no probe or commit can slip
        between a bucket's capture and its reset: a counted event is reported
        by exactly one snapshot.
        """
        entries: list[THTEntry] = []
        totals = {"hits": 0, "misses": 0, "insertions": 0, "evictions": 0}
        for index in range(self.n_buckets):
            with self._locks[index]:
                if collect_entries:
                    entries.extend(self._buckets[index])
                counters = self._counters[index]
                totals["hits"] += counters.hits
                totals["misses"] += counters.misses
                totals["insertions"] += counters.insertions
                totals["evictions"] += counters.evictions
                if reset:
                    counters.reset()
        totals["hits"] += self._foreign.hits
        totals["misses"] += self._foreign.misses
        totals["insertions"] += self._foreign.insertions
        totals["evictions"] += self._foreign.evictions
        if reset:
            self._foreign.reset()
        return entries, totals

    def snapshot(self, reset: bool = False, full: bool = False) -> dict:
        """Serializable view of the table: entries + aggregated counters.

        With the journal enabled, ``entries`` contains only the commits
        (insertions *and* merged-in peer entries) since the previous
        ``reset=True`` snapshot; otherwise — or with ``full`` — the whole
        table content is shipped.  ``reset=True`` also zeroes the counters so the snapshot
        acts as a delta (process-backend workers call it once per drain
        barrier, the serving merge pump and the persistent store
        continuously).

        Entries and counters are captured under one consistent pass: the
        journal lock blocks journaled commits for the duration, and each
        bucket's counters are read and reset inside a single critical
        section, so ``reset=True`` never zeroes counts for commits the
        snapshot did not ship.
        """
        if self._journal is not None and not full:
            with self._journal_lock:
                entries = list(self._journal)
                if reset:
                    self._journal.clear()
                _, counters = self._sweep_counters(reset, collect_entries=False)
        else:
            entries, counters = self._sweep_counters(reset, collect_entries=True)
        return {"entries": entries, "counters": counters}

    def merge(self, delta: dict, journal: bool = True) -> None:
        """Fold a peer table's :meth:`snapshot` into this one.

        Entries are inserted with the usual refresh/FIFO-evict semantics but
        without touching the probe counters (no lookup happened *here*); the
        peer's counters are accumulated separately so aggregate hit/miss
        totals reflect the union of all processes.

        With the journal enabled, merged entries are journaled exactly like
        local insertions so downstream consumers (the serving merge pump,
        the persistent store) see them in the next ``snapshot(reset=True)``
        delta.  Pass ``journal=False`` for deltas that came *from* the
        downstream consumer — a warm-start restore must not re-publish the
        entries it just loaded.
        """
        entries = delta.get("entries", [])
        if self._journal is not None:
            with self._journal_lock:
                for entry in entries:
                    self._store(entry, local=False)
                if journal and self._journal is not None:
                    self._journal.extend(entries)
                self._fold_foreign(delta.get("counters", {}))
        else:
            for entry in entries:
                self._store(entry, local=False)
            self._fold_foreign(delta.get("counters", {}))

    def _fold_foreign(self, counters: dict) -> None:
        self._foreign.hits += int(counters.get("hits", 0))
        self._foreign.misses += int(counters.get("misses", 0))
        self._foreign.insertions += int(counters.get("insertions", 0))
        self._foreign.evictions += int(counters.get("evictions", 0))

    # -- statistics -------------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(c.hits for c in self._counters) + self._foreign.hits

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self._counters) + self._foreign.misses

    @property
    def insertions(self) -> int:
        return sum(c.insertions for c in self._counters) + self._foreign.insertions

    @property
    def evictions(self) -> int:
        return sum(c.evictions for c in self._counters) + self._foreign.evictions

    # -- introspection ----------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets)

    def memory_bytes(self) -> int:
        """Total memory held by the table (Table III accounting)."""
        total = 0
        for index, bucket in enumerate(self._buckets):
            with self._locks[index]:
                total += sum(entry.memory_bytes for entry in bucket)
        # Bucket headers: one pointer-sized slot per bucket.
        total += 8 * self.n_buckets
        return total

    def clear(self) -> None:
        for index in range(self.n_buckets):
            with self._locks[index]:
                self._buckets[index].clear()
                self._counters[index].reset()
        self._foreign.reset()
        with self._journal_lock:
            if self._journal is not None:
                self._journal.clear()
