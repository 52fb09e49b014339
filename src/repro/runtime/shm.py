"""Cross-process shared-memory protocol for :class:`DataRegion` payloads.

The process execution backend (:mod:`repro.runtime.mp_executor`) keeps the
task dependence graph in the parent and runs task bodies in worker
processes.  Application arrays therefore need one canonical cross-process
home; this module provides it (see DESIGN.md §4.3):

* :class:`SharedBufferRegistry` (parent side) — assigns every owning base
  buffer a *slot*, backs it with a ``multiprocessing.shared_memory`` segment
  mirroring the buffer's exact byte layout, and moves bytes between the
  parent arrays and the segments at the two moments a task crosses the
  process boundary: ``copy_in`` when a chunk is sent, for the base buffers
  its tasks touch that the open drain has not touched before, ``copy_out``
  when a task's result arrives, for the regions that task wrote.
  ``copy_in`` only copies (and version-bumps) buffers whose bytes actually
  differ from the segment, so worker-side digest caches survive
  multi-barrier programs whose inputs the parent never touched; buffers a
  drain never touches are never compared.
* :class:`SharedVersionTable` — the cross-process write-version protocol:
  one ``int64`` version per slot in its own shared segment, bumped under a
  shared lock whenever a write to the buffer commits in *any* process.  The
  worker-side ATM key generator keys its digest caches on these versions,
  exactly as the in-process :class:`~repro.runtime.data.RegionVersionRegistry`
  does for single-process runs.
* :class:`WorkerArena` (worker side) — the
  :class:`~repro.runtime.remote_task.ArrayArena` whose backing bytes are
  shared segments, attached lazily by name; its regions read and bump the
  shared version table.

**The first-touch invariant.**  A base buffer is compared with (and, on a
difference, refreshed into) its segment only while *no task of the open drain
that touches it is in flight*: the check runs the first time a chunk that
touches the buffer is sent and marks the buffer *fresh* before that chunk
leaves, so every task that touches it was sent after the check; the fresh
set is cleared when a drain opens (``ProcessExecutor.drain``) and a buffer
registered mid-drain is born fresh, because ``register`` seeds its segment.
A refresh can therefore never clobber a sibling region a worker is writing,
and a write-back — region by region, at completion — never carries a
sibling's half-written bytes home.

Attach/detach is name-based, so the protocol works under every
multiprocessing start method (``fork``, ``spawn``, ``forkserver``).
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import shared_memory
from typing import Iterable, Optional

import numpy as np

from repro.common.exceptions import RuntimeStateError
from repro.runtime.data import (
    ArrayRef, DataRegion, SharedDataRegion, _base_buffer, region_versions,
)
from repro.runtime.remote_task import ArrayArena

__all__ = ["SharedVersionTable", "SharedBufferRegistry", "WorkerArena"]


class SharedVersionTable:
    """Monotonic write-versions shared across processes (one ``int64``/slot).

    Reads are lock-free (an aligned 8-byte load); bumps take the shared lock
    so concurrent writers to *sibling* regions of one base buffer can never
    lose an increment (a lost increment could let a stale cached digest
    survive a later write).
    """

    def __init__(
        self,
        capacity: int = 4096,
        name: Optional[str] = None,
        lock=None,
        context=None,
    ) -> None:
        self.capacity = capacity
        self._owner = name is None
        if self._owner:
            ctx = context or multiprocessing.get_context()
            self._shm = shared_memory.SharedMemory(create=True, size=capacity * 8)
            self._lock = lock if lock is not None else ctx.Lock()
            self.versions = np.ndarray((capacity,), dtype=np.int64, buffer=self._shm.buf)
            self.versions[:] = 0
        else:
            self._shm = shared_memory.SharedMemory(name=name)
            self._lock = lock
            self.versions = np.ndarray((capacity,), dtype=np.int64, buffer=self._shm.buf)

    @classmethod
    def attach(cls, name: str, capacity: int, lock) -> "SharedVersionTable":
        return cls(capacity=capacity, name=name, lock=lock)

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def lock(self):
        return self._lock

    def read(self, slot: int) -> int:
        return int(self.versions[slot])

    def bump(self, slot: int) -> int:
        with self._lock:
            self.versions[slot] += 1
            return int(self.versions[slot])

    def close(self) -> None:
        self.versions = None  # release the exported buffer before closing
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass


class _SharedBuffer:
    """Parent-side record of one base buffer mirrored into shared memory."""

    __slots__ = ("slot", "base", "shm", "mirror", "flat_mirror")

    def __init__(self, slot: int, base: np.ndarray, shm: shared_memory.SharedMemory) -> None:
        self.slot = slot
        self.base = base
        self.shm = shm
        # A view over the segment with the base buffer's exact layout, so the
        # byte offsets computed from parent addresses stay valid in workers.
        self.mirror = np.ndarray(
            base.shape, dtype=base.dtype, buffer=shm.buf, strides=base.strides
        )
        self.flat_mirror = np.ndarray((shm.size,), dtype=np.uint8, buffer=shm.buf)


def _offset(entry: _SharedBuffer, array: np.ndarray) -> int:
    """Byte offset of ``array``'s first element within ``entry``'s base."""
    return int(
        array.__array_interface__["data"][0]
        - entry.base.__array_interface__["data"][0]
    )


class SharedBufferRegistry:
    """Parent-side slot registry mapping base buffers to shared segments."""

    def __init__(self, version_table: SharedVersionTable) -> None:
        self.version_table = version_table
        self._by_id: dict[int, _SharedBuffer] = {}
        self._entries: list[_SharedBuffer] = []
        #: Slots checked by ``copy_in`` (or seeded by ``register``) in the
        #: open drain; the executor clears it when a drain opens.
        self.fresh: set[int] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, base: np.ndarray) -> _SharedBuffer:
        """Register an owning base buffer, creating its segment on first sight."""
        entry = self._by_id.get(id(base))
        if entry is not None and entry.base is base:
            return entry
        slot = len(self._entries)
        if slot >= self.version_table.capacity:
            raise RuntimeStateError(
                f"shared version table full ({self.version_table.capacity} slots); "
                "raise the ProcessExecutor version-table capacity"
            )
        shm = shared_memory.SharedMemory(create=True, size=max(1, int(base.nbytes)))
        entry = _SharedBuffer(slot, base, shm)
        # Seed the segment immediately: a buffer is registered by the first
        # chunk that touches it, and is fresh from then on.
        np.copyto(entry.mirror, base, casting="no")
        self.fresh.add(slot)
        self._entries.append(entry)
        self._by_id[id(base)] = entry
        return entry

    def array_ref(
        self, array: np.ndarray, region: Optional[DataRegion] = None
    ) -> ArrayRef:
        """Serializable handle reconstructing ``array`` inside a worker; pass
        its ``region`` to reuse the owning base the region already found."""
        entry = self.register(
            region._base if region is not None else _base_buffer(array)
        )
        return ArrayRef(
            shm_name=entry.shm.name,
            base_nbytes=int(entry.base.nbytes),
            slot=entry.slot,
            offset=_offset(entry, array),
            shape=tuple(array.shape),
            strides=tuple(array.strides),
            dtype=array.dtype.str,
        )

    @staticmethod
    def _mirror_matches(entry: _SharedBuffer) -> bool:
        """Byte-level comparison (NaN-safe: ``array_equal`` treats NaN != NaN,
        which would defeat the skip forever for any buffer holding a NaN)."""
        base = entry.base
        flat = base.ravel(order="K")
        if not flat.flags.c_contiguous:  # pragma: no cover - exotic owners
            return False
        return np.array_equal(
            entry.flat_mirror[: base.nbytes], flat.view(np.uint8)
        )

    def copy_in(self, regions: Iterable[DataRegion]) -> int:
        """First touch of ``regions``' base buffers in the open drain: mirror
        parent bytes into the segments; returns buffers refreshed.

        Only buffers whose bytes differ are copied, and each refresh bumps
        the shared version so worker-side key caches can never serve a
        digest for bytes the parent replaced between drains.  A buffer
        already fresh is skipped without a compare (module docstring).
        """
        refreshed = 0
        fresh = self.fresh
        for region in regions:
            entry = self.register(region._base)
            if entry.slot in fresh:
                continue
            fresh.add(entry.slot)
            if self._mirror_matches(entry):
                continue
            np.copyto(entry.mirror, entry.base, casting="no")
            self.version_table.bump(entry.slot)
            # A detected host write is an announced one: the parent's own
            # registry moves too, dropping the base's content tags.
            region_versions.bump(entry.base)
            refreshed += 1
        return refreshed

    def copy_out(self, regions: Iterable[DataRegion]) -> int:
        """Land worker-written ``regions``: segment bytes into the parent
        arrays, region by region (strided views included); returns regions
        landed."""
        landed = 0
        for region in regions:
            entry = self.register(region._base)
            array = region.array
            mirror = np.ndarray(
                array.shape, dtype=array.dtype, buffer=entry.shm.buf,
                offset=_offset(entry, array), strides=array.strides,
            )
            np.copyto(array, mirror, casting="no")
            landed += 1
        return landed

    def close(self) -> None:
        for entry in self._entries:
            entry.mirror = None
            entry.flat_mirror = None
            entry.shm.close()
            try:
                entry.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._entries.clear()
        self._by_id.clear()


class WorkerArena(ArrayArena):
    """Worker-side lazy attachment of shared segments and region views."""

    ref_type = ArrayRef

    def __init__(self, version_table: SharedVersionTable) -> None:
        super().__init__()
        self.version_table = version_table
        self._segments: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}

    def _backing(self, ref: ArrayRef) -> tuple[np.ndarray, int]:
        cached = self._segments.get(ref.shm_name)
        if cached is None:
            shm = shared_memory.SharedMemory(name=ref.shm_name)
            # One flat uint8 ndarray per segment: every view built over it
            # shares this object as its ``.base``, preserving region
            # identity for the keygen caches.
            base = np.ndarray((max(1, ref.base_nbytes),), dtype=np.uint8, buffer=shm.buf)
            cached = self._segments[ref.shm_name] = (shm, base)
        return cached[1], 0

    def _region(self, array: np.ndarray, ref: ArrayRef, name: str) -> DataRegion:
        return SharedDataRegion(
            array, name=name, slot=ref.slot, version_table=self.version_table
        )

    def close(self) -> None:
        self._views.clear()
        self._regions.clear()
        for shm, _base in self._segments.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover - views still alive
                pass
        self._segments.clear()
