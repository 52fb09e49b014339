"""Hash-key generation (paper Sections III-B and III-C), per-input digests.

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
stored vector select the *sampled bytes* — exactly the bytes the paper's key
reads.  The paper fixes which bytes those are, not the order they are hashed
in; it hashes them as one interleaved stream, this generator factorises the
hash and reads every sample where it lies:

* the **digest** of input *i* is the configured hash of the sampled bytes
  that input owns, in address order (at ``p = 1.0``: of all its bytes, in
  place);
* the key of a one-input task *is* its digest — at ``p = 1.0`` the seed's
  value (:mod:`tests.reference.keygen_reference`), bit for bit; the key of a
  task with two or more inputs is
  :func:`~repro.common.hashing.combine_digests` of its digests in input order
  and of the sample size.

Two tasks of one type and input layout get equal keys exactly when the seed
gives them equal keys — the same sampled bytes decide — but an input that was
not written since its digest was taken is never read again, at any ``p``:

* **Region-version caching.**  Every :class:`DataRegion` carries a
  monotonically increasing write-version (bumped by the runtime when write
  accesses commit).  One LRU holds, by region *identity*, the whole key of a
  task's input tuple and the digest of each input of a multi-input task,
  each beside the version(s) it was taken at, so a write replaces its entry.
  A task none of whose inputs moved costs one lookup; one whose input *j*
  moved re-reads input *j* only and pays ``k`` integer mixes.
* **Truncated, narrow shuffles.**  Only the prefix addressed by the largest
  sampling fraction seen so far is stored (``ceil(N * p_max)`` slots, as
  ``uint32`` whenever ``N < 2**32``); ``p = 1.0`` needs no shuffle at all.
  The prefix grows deterministically (same seeded permutation) when a larger
  ``p`` shows up; a type-aware prefix only builds the significance levels it
  reaches (:func:`~repro.common.dtypes.significance_order`).
* **One reader per (layout, sample size, input)**, found from the sorted
  offsets alone (:func:`_reader_for`).  A type-aware sample of whole
  significance levels — every ``p >= 1 / itemsize`` of the ladder — is a
  lattice, read as one strided view of ``uint8/16/32/64`` lanes copied into
  per-thread scratch, and stores nothing; so does an input the sample covers
  entirely.  A partial level or a plain shuffle keeps its sorted ``intp``
  offsets, taken with ``mode="clip"``: ``ndarray.take`` widens any other
  index dtype on every call and double-buffers a range-checked ``out=``.
  The ladder's vectors sum to under twice the largest.
* **LRU bounds** on both the shuffle-record store and the key cache, whose
  entries are charged what ``tracemalloc`` measures for them.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.common.config import ATMConfig
from repro.common.dtypes import significance_order
from repro.common.hashing import HashKey, combine_digests, hash_views
from repro.common.rng import generator_for
from repro.runtime.data import DataRegion
from repro.runtime.task import Task

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stats is light)
    from repro.atm.stats import ATMStats

__all__ = ["HashKeyGenerator"]

_record_uids = itertools.count()

#: What one key-cache entry holds beyond the regions it names, as
#: ``tracemalloc`` reads it (``tests/atm/test_keygen_equivalence.py`` keeps
#: the charge within a quarter of a fresh measurement): the LRU slot, the key
#: and value tuples and their ints.  A whole-key entry adds an identity and a
#: version slot per input.
_DIGEST_ENTRY_BYTES = 256
_KEY_ENTRY_BYTES = 400
_KEY_ENTRY_BYTES_PER_INPUT = 16

_scratch = threading.local()


def _sample_buffer(size: int) -> np.ndarray:
    """``size`` bytes of this thread's sample scratch (transient working
    memory like the hasher's blocks, grown to the largest sample seen)."""
    buffer = getattr(_scratch, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _scratch.buffer = np.empty(size, dtype=np.uint8)
    return buffer[:size]


def _index_dtype(total_bytes: int) -> np.dtype:
    """Narrowest index dtype able to address ``total_bytes`` positions."""
    return np.dtype(np.uint32) if total_bytes <= 0xFFFFFFFF else np.dtype(np.int64)


#: Unsigned lane dtype per lattice width: a strided copy of ``uint16`` lanes
#: moves the same bytes eight times faster than the 2-D byte slice ``[:, 6:8]``.
_LANES = {width: np.dtype(f"u{width}") for width in (1, 2, 4, 8)}


#: ``None`` (the whole input), a lattice ``(offset, width, stride, rows)`` or
#: sorted offsets: see :func:`_reader_for`.
Reader = Union[None, tuple[int, int, int, int], np.ndarray]


def _reader_for(offsets: np.ndarray, size: int) -> Reader:
    """How to read the bytes at ``offsets`` (ascending, ``intp``) of an input
    of ``size`` bytes, in address order: ``None`` — all of it, in place; a
    lattice ``(offset, width, stride, rows)`` — ``rows`` runs of ``width``
    adjacent bytes, ``stride`` apart, ``width`` a lane size that divides
    ``stride``; otherwise ``offsets`` itself.  Found from the offsets alone:
    whatever the dtypes, a sample of whole significance levels is a lattice.
    """
    n = offsets.size
    if n == size:
        return None
    breaks = np.flatnonzero(np.diff(offsets) != 1)
    width = int(breaks[0]) + 1 if breaks.size else 1
    if n == 0 or width not in _LANES or n % width:
        return offsets
    rows = n // width
    grid = offsets.reshape(rows, width)
    first = int(grid[0, 0])
    stride = int(grid[1, 0]) - first if rows > 1 else width
    if stride % width or not np.array_equal(
        grid, np.arange(first, first + rows * stride, stride)[:, None] + np.arange(width)
    ):
        return offsets
    return first, width, stride, rows


class ShuffleRecord:
    """The stored shuffle for one ``(task type, total input bytes)`` pair.

    Only the prefix of the (deterministic) full permutation addressed by the
    largest sampling fraction seen so far is stored, using the narrowest
    index dtype that fits.  Per input layout and sample size the record
    derives one *reader* per input (:func:`_reader_for`) for the bytes that
    input owns among the sampled slots.  Whole-input and lattice readers
    store nothing; the sorted offset vectors of the others are accounted in
    :attr:`nbytes`.
    """

    __slots__ = ("indices", "uid", "_readers", "_vector_bytes", "_lock")

    def __init__(self, indices: np.ndarray) -> None:
        self.indices = indices
        self.uid = next(_record_uids)
        # Guards the derived readers below; the generator's own lock protects
        # the record *store*, not per-record state.
        self._lock = threading.Lock()
        # (input sizes, count) -> reader per input.
        self._readers: dict[tuple[tuple[int, ...], int], list[Reader]] = {}
        self._vector_bytes = 0

    @property
    def stored(self) -> int:
        """Number of shuffle slots currently stored (``ceil(N * p_max)``)."""
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Runtime-system memory consumed by the stored index vectors."""
        return int(self.indices.nbytes) + self._vector_bytes

    def readers_for(self, sizes: tuple[int, ...], count: int) -> list[Reader]:
        """Per input, the reader of the bytes it owns among the first
        ``count`` slots (local offsets, in range by construction)."""
        with self._lock:
            readers = self._readers.get((sizes, count))
            if readers is None:
                sampled = np.sort(self.indices[:count]).astype(np.intp)
                starts = np.cumsum((0,) + sizes)
                cuts = np.searchsorted(sampled, starts)
                readers = self._readers[sizes, count] = [
                    _reader_for(sampled[lo:hi] - start, size)
                    for lo, hi, start, size in zip(cuts, cuts[1:], starts, sizes)
                ]
                self._vector_bytes += sum(
                    int(reader.nbytes) for reader in readers if isinstance(reader, np.ndarray)
                )
        return readers


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
        # One LRU holds whole keys and per-input digests, both filed by
        # region identity: key -> (version(s), value, accounted bytes).
        self._cache: "OrderedDict[tuple, tuple[object, int, int]]" = OrderedDict()
        self._cache_bytes = 0
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
                # Grow in place: same permutation, longer prefix (a sample is
                # a prefix, so the record's readers stay valid).
                record.indices = indices
                self.counters["shuffle_regrowths"] += 1
            else:
                record = ShuffleRecord(indices)
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
    def _cache_get(self, key: tuple, versions, hits: str, misses: str) -> int | None:
        """The value filed under ``key`` if it was taken at ``versions``.

        Lookup and count share one critical section: ``compute`` runs on every
        executor worker thread, and :meth:`cache_info` reads the counters
        under the same lock.
        """
        with self._lock:
            entry = self._cache.get(key)
            if entry is None or entry[0] != versions:
                self.counters[misses] += 1
                return None
            self.counters[hits] += 1
            self._cache.move_to_end(key)
            return entry[1]

    def _key_cache_get(self, key: tuple, versions: tuple) -> int | None:
        cached = self._cache_get(key, versions, "key_cache_hits", "key_cache_misses")
        if self.stats is not None:
            self.stats.record_key_cache(cached is not None)
        return cached

    def _digest_cache_get(self, key: tuple, version: int) -> int | None:
        cached = self._cache_get(key, version, "digest_cache_hits", "digest_cache_misses")
        if self.stats is not None:
            self.stats.record_digest_cache(cached is not None)
        return cached

    def _cache_put(self, key: tuple, versions, value: int, nbytes: int) -> None:
        """File ``value`` under ``key``, replacing what an older version left."""
        with self._lock:
            old = self._cache.pop(key, None)
            if old is not None:
                self._cache_bytes -= old[2]
            self._cache[key] = (versions, value, nbytes)
            self._cache_bytes += nbytes
            while self._cache_bytes > self.config.key_cache_budget_bytes and self._cache:
                _, (_, _, dropped) = self._cache.popitem(last=False)
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
        sizes = tuple(access.nbytes for access in inputs)
        total_bytes = sum(sizes)
        if total_bytes == 0:
            # Keyed only by the task type: tasks without inputs are redundant
            # with each other by definition.
            value = self._hash_views((task.task_type.name.encode("utf-8"),))
            return HashKey(value=value, p=p, sampled_bytes=0, total_bytes=0)
        count = self.selected_byte_count(total_bytes, p)

        regions = [access.region for access in inputs]
        # Versions are read before any byte is: a write racing the hash
        # leaves an entry that the next lookup already finds stale.
        versions = tuple(region.version for region in regions)
        whole_key = (
            task.task_type.name, count, tuple(region.cache_key for region in regions)
        )
        value = self._key_cache_get(whole_key, versions)
        if value is None:
            value = self._compute(task, regions, versions, sizes, count)
            self._cache_put(
                whole_key, versions, value,
                _KEY_ENTRY_BYTES + _KEY_ENTRY_BYTES_PER_INPUT * len(regions),
            )
        return HashKey(
            value=value, p=p, sampled_bytes=int(count), total_bytes=int(total_bytes)
        )

    def _compute(
        self,
        task: Task,
        regions: list[DataRegion],
        versions: tuple,
        sizes: tuple[int, ...],
        count: int,
    ) -> int:
        """The key of ``task`` from its inputs' digests, re-reading only the
        inputs whose cached digest is missing or older than their version."""
        total_bytes = sum(sizes)
        if count >= total_bytes:
            # Full sampling: every byte is read in place, in input order; no
            # shuffle is stored or needed.
            scope = None
            readers = [None] * len(regions)
        else:
            record = self._shuffle_for(task, total_bytes, count)
            scope = (record.uid, sizes, count)
            readers = record.readers_for(sizes, count)
        if len(regions) == 1:
            return self._digest(regions[0], readers[0])
        digests = []
        for ordinal, region in enumerate(regions):
            digest_key = (scope, ordinal, region.cache_key)
            digest = self._digest_cache_get(digest_key, versions[ordinal])
            if digest is None:
                digest = self._digest(region, readers[ordinal])
                self._cache_put(digest_key, versions[ordinal], digest, _DIGEST_ENTRY_BYTES)
            digests.append(digest)
        return combine_digests(digests, count, self.config.hash_seed)

    def _digest(self, region: DataRegion, reader: Reader) -> int:
        """Hash of the bytes of ``region`` that ``reader`` samples, in address
        order (see :func:`_reader_for`)."""
        view = region.to_bytes_view()
        if isinstance(reader, tuple):
            offset, width, stride, rows = reader
            span = view[offset:offset + (rows - 1) * stride + width]
            view = _sample_buffer(rows * width)
            np.copyto(view.view(_LANES[width]), span.view(_LANES[width])[::stride // width])
        elif reader is not None:
            view = view.take(reader, out=_sample_buffer(reader.size), mode="clip")
        return self._hash_views((view,))
