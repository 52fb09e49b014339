"""Hash-key generation (paper Sections III-B and III-C), zero-copy pipeline.

For every *task type* the generator stores one shuffled vector of byte
indexes over the concatenated data inputs.  The shuffle is computed the first
time a task of that type (and input size) is seen and reused afterwards, just
as the paper stores the shuffled index vector in the runtime system.

Two shuffle flavours are supported:

* **plain** — a uniform random permutation of all input byte positions;
* **type-aware** — the most significant byte of every element (of every
  input) is shuffled first, then the next most significant byte, and so on
  (Section III-C), so small sampling fractions still cover sign/exponent
  bits.

Given a sampling fraction ``p``, the first ``ceil(N * p)`` indexes of the
stored vector select the bytes that are gathered and fed to the configured
hash function; the result is an 8-byte :class:`~repro.common.hashing.HashKey`.

Performance design (versus the seed implementation preserved in
:mod:`tests.reference.keygen_reference`):

* **No per-compute concatenation.**  The stored shuffle is split once per
  input structure into ``(owner input, local offset)`` pairs; sampled bytes
  are gathered per input directly into one sample buffer, at the exact
  interleaved positions the shuffle dictates, and at ``p = 1.0`` the input
  views are streamed one after the other through
  :func:`~repro.common.hashing.hash_views`, so keys stay bit-identical to
  the seed while never materialising the multi-megabyte concatenation.
* **Truncated, narrow shuffles.**  Only the prefix actually addressed by the
  largest sampling fraction seen so far is stored (``ceil(N * p_max)``
  entries), as ``uint32`` whenever ``N < 2**32`` — an 8-16x memory reduction
  against the seed's full ``int64`` permutation; ``p = 1.0`` needs no shuffle
  at all.  The prefix grows deterministically (same seeded permutation) when
  a larger ``p`` shows up; a type-aware prefix only builds the significance
  levels it reaches (:func:`~repro.common.dtypes.significance_order`).
* **Region-version digest caching.**  Every :class:`DataRegion` carries a
  monotonically increasing write-version (bumped by the runtime when write
  accesses commit); the generator caches, per ``(region, version, shuffle,
  count)``, the gathered sample bytes plus the final composite key.
  Iterative applications that keep re-hashing unchanged read-only regions
  (kmeans points blocks, stencil halos) hit the cache instead of re-gathering
  megabytes.
* **LRU bounds** on both the shuffle-record store and the digest cache, so
  neither can grow without bound (the seed leaked one full permutation per
  distinct input size forever).

Keys are bit-identical to the seed for every arity, sampling fraction and
shuffle flavour.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.common.config import ATMConfig
from repro.common.dtypes import significance_order
from repro.common.hashing import HashKey, hash_views
from repro.common.rng import generator_for
from repro.runtime.task import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stats is light)
    from repro.atm.stats import ATMStats

__all__ = ["HashKeyGenerator", "ShuffleRecord"]

_record_uids = itertools.count()

#: Maximum number of per-count gather plans kept per shuffle record.
_MAX_PLANS_PER_RECORD = 32

#: Dense-sampling crossover: when the sample covers at least 1/16 of the
#: inputs, one sequential concatenation plus a single gather beats per-input
#: gather + scatter (which touches every sampled byte twice, randomly).  ATM
#: steady state lives far below this (p ~ 2^-15 .. 2^-5), where the
#: zero-copy path wins by a wide margin.
_DENSE_SAMPLE_DIVISOR = 16


def _index_dtype(total_bytes: int) -> np.dtype:
    """Narrowest index dtype able to address ``total_bytes`` positions."""
    return np.dtype(np.uint32) if total_bytes <= 0xFFFFFFFF else np.dtype(np.int64)


class ShuffleRecord:
    """The stored shuffle for one ``(task type, total input bytes)`` pair.

    Only the prefix of the (deterministic) full permutation addressed by the
    largest sampling fraction seen so far is stored, using the narrowest
    index dtype that fits.  Derived per-input-structure splits and per-count
    gather plans are cached on the record and accounted in :attr:`nbytes`.
    """

    __slots__ = (
        "task_type_name", "total_bytes", "indices", "uid", "_splits", "_plans",
        "_lock",
    )

    def __init__(self, task_type_name: str, total_bytes: int, indices: np.ndarray) -> None:
        self.task_type_name = task_type_name
        self.total_bytes = total_bytes
        self.indices = indices
        self.uid = next(_record_uids)
        # Guards the derived caches below; the generator's own lock protects
        # the record *store*, not per-record state.
        self._lock = threading.Lock()
        # input-sizes tuple -> (owner ordinal per slot, local offset per slot)
        self._splits: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        # (input-sizes tuple, count) -> [(ordinal, sample positions, local offsets)]
        self._plans: "OrderedDict[tuple, list[tuple[int, np.ndarray, np.ndarray]]]" = (
            OrderedDict()
        )

    @property
    def stored(self) -> int:
        """Number of shuffle slots currently stored (``ceil(N * p_max)``)."""
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Runtime-system memory consumed by the stored index vectors."""
        total = int(self.indices.nbytes)
        with self._lock:
            for owner, local in self._splits.values():
                total += int(owner.nbytes) + int(local.nbytes)
            for plan in self._plans.values():
                for _, positions, locals_ in plan:
                    total += int(positions.nbytes) + int(locals_.nbytes)
        return total

    def replace_indices(self, indices: np.ndarray) -> None:
        """Swap in a longer prefix of the same permutation (regrowth)."""
        with self._lock:
            self.indices = indices
            # Derived caches cover the old prefix only; rebuild lazily.  (Old
            # plans would still be prefix-valid, but their owner/local parents
            # are replaced wholesale, so drop everything for simplicity.)
            self._splits.clear()
            self._plans.clear()

    # -- derived gather structures -------------------------------------------
    def _split_locked(self, sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        split = self._splits.get(sizes)
        if split is not None:
            return split
        bounds = np.cumsum(np.asarray(sizes, dtype=np.int64))
        starts = bounds - np.asarray(sizes, dtype=np.int64)
        owner_dtype = np.uint16 if len(sizes) <= 0xFFFF else np.int64
        global_idx = self.indices.astype(np.int64, copy=False)
        owner = np.searchsorted(bounds, global_idx, side="right").astype(owner_dtype)
        local = (global_idx - starts[owner]).astype(self.indices.dtype)
        self._splits[sizes] = (owner, local)
        return owner, local

    def split_for(self, sizes: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Map every stored slot to ``(owning input, local byte offset)``."""
        with self._lock:
            return self._split_locked(sizes)

    def plan_for(
        self, sizes: tuple[int, ...], count: int
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Gather plan for ``count`` sampled bytes of a multi-input task.

        Returns ``(ordinal, positions, locals)`` triples: input ``ordinal``
        contributes its bytes at ``locals`` to the sample-stream positions
        ``positions``.  Plans are derived from prefixes of the stored split,
        so they stay valid across prefix growth.
        """
        key = (sizes, count)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
            owner, local = self._split_locked(sizes)
            owner_prefix = owner[:count]
            local_prefix = local[:count]
            pos_dtype = np.uint32 if count <= 0xFFFFFFFF else np.int64
            plan = []
            for ordinal in range(len(sizes)):
                positions = np.nonzero(owner_prefix == ordinal)[0]
                if positions.size:
                    plan.append(
                        (ordinal, positions.astype(pos_dtype), local_prefix[positions])
                    )
            self._plans[key] = plan
            while len(self._plans) > _MAX_PLANS_PER_RECORD:
                self._plans.popitem(last=False)
            return plan


class HashKeyGenerator:
    """Computes ATM hash keys for tasks, caching per-type shuffles.

    Parameters
    ----------
    config:
        The ATM configuration (shuffle flavour, hash function and cache
        knobs).
    stats:
        Optional :class:`~repro.atm.stats.ATMStats` sink; cache hit/miss and
        shuffle-eviction counters are surfaced there when provided.
    """

    def __init__(self, config: ATMConfig, stats: "Optional[ATMStats]" = None) -> None:
        self.config = config
        self.stats = stats
        self._shuffles: "OrderedDict[tuple[str, int], ShuffleRecord]" = OrderedDict()
        self._lock = threading.Lock()
        # One LRU holds whole-key entries (ints) and per-region sample bytes;
        # values are (payload, accounted_bytes).
        self._cache: "OrderedDict[tuple, tuple[object, int]]" = OrderedDict()
        self._cache_bytes = 0
        # A single cache entry may not swallow more than 1/8 of the budget.
        self._cache_entry_cap = max(4096, config.key_cache_budget_bytes // 8)
        self.counters = {
            "key_cache_hits": 0,
            "key_cache_misses": 0,
            "digest_cache_hits": 0,
            "digest_cache_misses": 0,
            "shuffle_evictions": 0,
            "shuffle_regrowths": 0,
        }

    # -- shuffle management ----------------------------------------------------
    def _generate_prefix(self, task: Task, total_bytes: int, count: int) -> np.ndarray:
        """First ``count`` slots of the deterministic full permutation."""
        rng = generator_for(self.config.shuffle_seed, task.task_type.name, total_bytes)
        if self.config.type_aware:
            descriptors = [
                (access.region.descriptor, access.nbytes) for access in task.inputs
            ]
            prefix = significance_order(descriptors, rng, count)
        else:
            prefix = rng.permutation(total_bytes)[:count]
        return prefix.astype(_index_dtype(total_bytes), copy=False)

    def _shuffle_for(self, task: Task, total_bytes: int, count: int) -> ShuffleRecord:
        key = (task.task_type.name, total_bytes)
        with self._lock:
            record = self._shuffles.get(key)
            if record is not None:
                self._shuffles.move_to_end(key)
                if record.stored >= count:
                    return record
        # (Re)generate outside the lock: permutation generation is the
        # expensive part and is deterministic, so a racing duplicate is
        # identical and harmless.
        indices = self._generate_prefix(task, total_bytes, count)
        with self._lock:
            record = self._shuffles.get(key)
            if record is not None and record.stored >= count:
                return record
            if record is not None:
                # Grow in place: same permutation, longer prefix.
                record.replace_indices(indices)
                self.counters["shuffle_regrowths"] += 1
            else:
                record = ShuffleRecord(task.task_type.name, total_bytes, indices)
                self._shuffles[key] = record
                self._shuffles.move_to_end(key)
            while len(self._shuffles) > self.config.shuffle_cache_entries:
                self._shuffles.popitem(last=False)
                self.counters["shuffle_evictions"] += 1
                if self.stats is not None:
                    self.stats.record_shuffle_eviction()
            return record

    def shuffle_memory_bytes(self) -> int:
        """Total memory used by stored shuffles (part of the ATM overhead)."""
        with self._lock:
            return sum(record.nbytes for record in self._shuffles.values())

    def shuffle_record_count(self) -> int:
        with self._lock:
            return len(self._shuffles)

    # -- digest / key cache ----------------------------------------------------
    def _cache_get(self, key: tuple, hits: str, misses: str) -> object | None:
        """Look ``key`` up and count the outcome under ``hits`` / ``misses``.

        Lookup and count share one critical section: ``compute`` runs on every
        executor worker thread, and :meth:`cache_info` reads the counters
        under the same lock.
        """
        with self._lock:
            entry = self._cache.get(key)
            if entry is None:
                self.counters[misses] += 1
                return None
            self.counters[hits] += 1
            self._cache.move_to_end(key)
            return entry[0]

    def _key_cache_get(self, key: tuple) -> object | None:
        cached = self._cache_get(key, "key_cache_hits", "key_cache_misses")
        if self.stats is not None:
            self.stats.record_key_cache(cached is not None)
        return cached

    def _digest_cache_get(self, key: tuple) -> object | None:
        cached = self._cache_get(key, "digest_cache_hits", "digest_cache_misses")
        if self.stats is not None:
            self.stats.record_digest_cache(cached is not None)
        return cached

    def _cache_put(self, key: tuple, payload: object, nbytes: int) -> None:
        if nbytes > self._cache_entry_cap:
            return
        with self._lock:
            old = self._cache.pop(key, None)
            if old is not None:
                self._cache_bytes -= old[1]
            self._cache[key] = (payload, nbytes)
            self._cache_bytes += nbytes
            while self._cache_bytes > self.config.key_cache_budget_bytes and self._cache:
                _, (_, dropped) = self._cache.popitem(last=False)
                self._cache_bytes -= dropped

    def cache_info(self) -> dict:
        """Cache effectiveness and footprint (surfaced in ATM memory stats)."""
        with self._lock:
            info = dict(self.counters)
            info["cache_entries"] = len(self._cache)
            info["cache_bytes"] = self._cache_bytes
            info["shuffle_records"] = len(self._shuffles)
        info["shuffle_bytes"] = self.shuffle_memory_bytes()
        return info

    # -- key computation ---------------------------------------------------------
    def _hash_views(self, views) -> int:
        """Hash the byte stream ``views`` with the configured function and seed."""
        return hash_views(views, self.config.hash_seed, self.config.hash_function)

    def selected_byte_count(self, total_bytes: int, p: float) -> int:
        """How many bytes a fraction ``p`` selects (at least 1 for p > 0)."""
        if total_bytes == 0:
            return 0
        return max(1, min(total_bytes, math.ceil(total_bytes * p)))

    def compute(self, task: Task, p: float) -> HashKey:
        """Compute the hash key of ``task`` using a sampling fraction ``p``."""
        inputs = task.inputs
        total_bytes = sum(access.nbytes for access in inputs)
        if total_bytes == 0:
            # Keyed only by the task type: tasks without inputs are redundant
            # with each other by definition.
            value = self._hash_views((task.task_type.name.encode("utf-8"),))
            return HashKey(value=value, p=p, sampled_bytes=0, total_bytes=0)
        count = self.selected_byte_count(total_bytes, p)

        tokens = tuple(access.region.version_token for access in inputs)
        whole_key = ("K", task.task_type.name, total_bytes, count, tokens)
        cached = self._key_cache_get(whole_key)
        if cached is not None:
            return HashKey(
                value=cached, p=p, sampled_bytes=int(count),
                total_bytes=int(total_bytes),
            )

        if count >= total_bytes:
            # Full sampling: every byte is read in input order, streamed view
            # by view; no shuffle is stored or needed (the seed allocated a
            # full permutation here and never used it).
            value = self._hash_views(
                [access.region.to_bytes_view() for access in inputs]
            )
        else:
            record = self._shuffle_for(task, total_bytes, count)
            sizes = tuple(access.nbytes for access in inputs)
            value = self._compute_exact(task, record, sizes, count, tokens)

        self._cache_put(whole_key, value, nbytes=64)
        return HashKey(
            value=value, p=p, sampled_bytes=int(count), total_bytes=int(total_bytes)
        )

    # -- sampled-stream hashing -----------------------------------------------------
    def _sampled_segment(
        self,
        view: np.ndarray,
        locals_: np.ndarray,
        record: ShuffleRecord,
        sizes: tuple[int, ...],
        count: int,
        ordinal: int,
        token: tuple,
    ) -> np.ndarray:
        """This input's sampled bytes, served from the version cache if clean.

        ``sizes`` (the per-input byte layout) is part of the key: two tasks of
        the same type and total size may split those bytes differently, and
        the same region then contributes different local offsets per layout.
        """
        cache_key = ("S", record.uid, sizes, count, ordinal, token)
        segment = self._digest_cache_get(cache_key)
        if segment is not None:
            return segment
        segment = np.take(view, locals_)
        self._cache_put(cache_key, segment, nbytes=int(segment.nbytes) + 64)
        return segment

    def _compute_exact(
        self,
        task: Task,
        record: ShuffleRecord,
        sizes: tuple[int, ...],
        count: int,
        tokens: tuple,
    ) -> int:
        """Seed-identical key: hash the interleaved sampled byte stream.

        Sampled bytes are gathered per input straight into their interleaved
        positions of one sample buffer — bit-identical to the seed's
        ``concatenate-then-gather`` without ever building the concatenation.
        """
        inputs = task.inputs
        body = np.empty(count, dtype=np.uint8)
        if len(inputs) == 1:
            view = inputs[0].region.to_bytes_view()
            body[:] = self._sampled_segment(
                view, record.indices[:count], record, sizes, count, 0, tokens[0]
            )
        elif count * _DENSE_SAMPLE_DIVISOR >= record.total_bytes:
            # Dense sample: a sequential concatenation plus one gather moves
            # fewer random bytes than per-input gather + scatter.
            concatenated = np.concatenate(
                [access.region.to_bytes_view() for access in inputs]
            )
            np.take(concatenated, record.indices[:count], out=body)
        else:
            views = [access.region.to_bytes_view() for access in inputs]
            for ordinal, positions, locals_ in record.plan_for(sizes, count):
                segment = self._sampled_segment(
                    views[ordinal], locals_, record, sizes, count, ordinal,
                    tokens[ordinal],
                )
                body[positions] = segment
        return self._hash_views((body,))
