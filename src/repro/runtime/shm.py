"""Cross-process shared-memory protocol for :class:`DataRegion` payloads:
the parent's side.

The process execution backend (:mod:`repro.runtime.mp_executor`) keeps the
task dependence graph in the parent and runs task bodies in worker
processes.  Application arrays therefore need one canonical cross-process
home; :class:`SharedBufferRegistry` provides it (see DESIGN.md §4.3).  It
assigns every owning base buffer a *slot*, backs it with a
``multiprocessing.shared_memory`` segment mirroring the buffer's exact byte
layout, and moves bytes between the parent arrays and the segments at the
moments a task crosses the process boundary: ``copy_in`` when a chunk is
sent, for the base buffers its tasks touch that the open drain has not
touched before, ``copy_out`` when a task's result arrives, for the regions
that task wrote, and ``copy_regions_in`` when the parent memoized a task,
for the regions the THT or IKT copy wrote.

``copy_in`` trusts write-versions, as every backend does (DESIGN.md §4.5):
it refreshes a segment only when its base's version moved since the
segment last matched the host, and compares no bytes.  A drain ends with
:meth:`~SharedBufferRegistry.settle`, which records every base it touched
as in step at its current version — except the bases a failed body or a
lost worker may have half-written in the segment
(:meth:`~SharedBufferRegistry.stale`).  Bases are held weakly: a segment
lives as long as its array, and is unlinked when the first drain after the
array's collection opens (:meth:`SharedBufferRegistry.release`), which
tells the workers to ``drop`` its slot.

A worker attaches the segments its chunks' buffer tables name into its
connection's one :class:`~repro.runtime.remote_task.WorkerArena`.  It
keeps no write-versions: the parent orders every commit and owns every key
cache and content tag that reads them.

**The first-touch invariant.**  A base buffer is checked against (and, when
out of step, refreshed into) its segment only while *no task of the open
drain that touches it is in flight*: the check runs the first time a chunk
that touches the buffer is sent and marks the buffer *fresh* before that
chunk leaves, so every task that touches it was sent after the check; the
fresh set is cleared when the drain settles (``ProcessExecutor.drain``) and
a buffer registered mid-drain is born fresh, because ``register`` seeds its
segment.  A refresh can therefore never clobber a sibling region a worker
is writing, and a write-back — region by region, at completion — never
carries a sibling's half-written bytes home.

Attach/detach is name-based, so the protocol works under every
multiprocessing start method (``fork``, ``spawn``, ``forkserver``).
"""

from __future__ import annotations

import itertools
import weakref
from multiprocessing import shared_memory
from typing import Iterable, Optional

import numpy as np

from repro.runtime.codec import NetBuffer
from repro.runtime.data import DataRegion, _base_buffer, region_versions

__all__ = ["SharedBufferRegistry"]


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


class _SharedBuffer:
    """Parent-side record of one base buffer mirrored into shared memory.

    The base is held weakly; its collection appends the record to ``dead``
    (the weakref callback, which may run on any thread, does nothing else).
    ``version`` is the base's write-version when the segment last matched
    it (``None``: out of step).
    """

    __slots__ = ("slot", "base", "key", "address", "shm", "mirror", "version")

    def __init__(
        self, slot: int, base: np.ndarray, shm: shared_memory.SharedMemory, dead: list
    ) -> None:
        self.slot = slot
        self.base = weakref.ref(base, lambda _ref: dead.append(self))
        self.key = id(base)
        self.address = _address(base)
        self.shm = shm
        # A view over the segment with the base buffer's exact layout, so the
        # byte offsets computed from parent addresses stay valid in workers.
        self.mirror = np.ndarray(
            base.shape, dtype=base.dtype, buffer=shm.buf, strides=base.strides
        )
        np.copyto(self.mirror, base, casting="no")
        self.version: Optional[int] = region_versions.version_of(base)

    def unlink(self) -> None:
        self.mirror = None  # release the exported buffer first
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class SharedBufferRegistry:
    """Parent-side slot registry mapping base buffers to shared segments.

    Slots come from a counter and are never reused, so a worker can never
    confuse a released segment with a later one.
    """

    def __init__(self) -> None:
        self._slots = itertools.count()
        #: id(base) -> its entry (a collected base's until :meth:`release`).
        self._entries: dict[int, _SharedBuffer] = {}
        #: Entries whose base was collected.  Appended by a weakref callback,
        #: which may run on any thread mid-drain; :meth:`release` drains it.
        self._dead: list[_SharedBuffer] = []
        #: Entries checked by ``copy_in`` (or seeded by ``register``) in the
        #: open drain; :meth:`settle` clears it when the drain ends.
        self.fresh: set[_SharedBuffer] = set()
        #: Buffer-table rows of the refs made since the last :meth:`table`.
        self._touched: dict[int, NetBuffer] = {}

    def __len__(self) -> int:
        """Segments not yet unlinked."""
        return len({*self._entries.values(), *self._dead})

    def register(self, base: np.ndarray) -> _SharedBuffer:
        """Register an owning base buffer, creating its segment on first sight."""
        entry = self._entries.get(id(base))
        if entry is not None and entry.base() is base:
            return entry
        shm = shared_memory.SharedMemory(create=True, size=max(1, int(base.nbytes)))
        # The entry seeds its segment: a buffer is registered by the first
        # chunk that touches it, and is fresh from then on.
        entry = _SharedBuffer(next(self._slots), base, shm, self._dead)
        self.fresh.add(entry)
        self._entries[entry.key] = entry
        return entry

    def release(self) -> list[tuple[int, int]]:
        """Unlink the segments of bases collected since the last call and
        return them as the workers' ``drop`` pairs: ``(slot, 0)``, since a
        slot is never reused.  Called when a drain opens: no task that could
        touch them is in flight."""
        pairs = []
        while self._dead:
            entry = self._dead.pop()
            if self._entries.get(entry.key) is entry:  # the id may be reused
                del self._entries[entry.key]
            entry.unlink()
            pairs.append((entry.slot, 0))
        return pairs

    def array_ref(self, array: np.ndarray, region: Optional[DataRegion] = None) -> tuple:
        """The ref ``(slot, offset, shape, strides, dtype)`` reconstructing
        ``array`` inside a worker; pass its ``region`` to reuse the owning
        base the region already found."""
        base = region._base if region is not None else _base_buffer(array)
        entry = self.register(base)
        slot = entry.slot
        if slot not in self._touched:
            self._touched[slot] = NetBuffer(slot, 0, entry.shm.name)
        return slot, _address(array) - entry.address, array.shape, array.strides, array.dtype.str

    def table(self) -> tuple[NetBuffer, ...]:
        """The buffer table of the refs made since the last call: one row
        per slot, naming its segment."""
        touched, self._touched = self._touched, {}
        return tuple(touched.values())

    def copy_in(self, regions: Iterable[DataRegion]) -> int:
        """First touch of ``regions``' base buffers in the open drain: mirror
        the bases whose write-version moved since their segment last matched
        into the segments; returns buffers refreshed.

        A host store must be announced to be seen (DESIGN.md §4.5): no byte
        is compared.  A buffer already fresh is skipped without a version
        read (module docstring).
        """
        refreshed = 0
        fresh = self.fresh
        for region in regions:
            base = region._base
            entry = self.register(base)
            if entry in fresh:
                continue
            fresh.add(entry)
            version = region_versions.version_of(base)
            if entry.version == version:
                continue
            np.copyto(entry.mirror, base, casting="no")
            entry.version = version
            refreshed += 1
        return refreshed

    def stale(self, regions: Iterable[DataRegion]) -> None:
        """A failed body or a lost worker may have written ``regions`` in
        their segments: their bases are out of step until refreshed (a
        fresh base is not refreshed again in the open drain)."""
        for region in regions:
            self.register(region._base).version = None

    def settle(self) -> None:
        """The drain is over: every base it touched is in step with its
        segment at its current version, except the :meth:`stale` ones."""
        for entry in self.fresh:
            base = entry.base()
            if base is not None and entry.version is not None:
                entry.version = region_versions.version_of(base)
        self.fresh.clear()

    def _segment_view(self, region: DataRegion) -> tuple[np.ndarray, np.ndarray]:
        """``(parent array, its mirror in the segment)`` of one region,
        strided views included."""
        entry = self.register(region._base)
        array = region.array
        return array, np.ndarray(
            array.shape, dtype=array.dtype, buffer=entry.shm.buf,
            offset=_address(array) - entry.address, strides=array.strides,
        )

    def copy_out(self, regions: Iterable[DataRegion]) -> int:
        """Land worker-written ``regions``: segment bytes into the parent
        arrays, region by region; returns regions landed."""
        landed = 0
        for region in regions:
            array, mirror = self._segment_view(region)
            np.copyto(array, mirror, casting="no")
            landed += 1
        return landed

    def copy_regions_in(self, regions: Iterable[DataRegion]) -> None:
        """Mirror parent-written ``regions`` into their segments, region by
        region: the outputs the parent memoized, which no in-flight task
        touches, so unlike :meth:`copy_in` this is safe mid-drain."""
        for region in regions:
            array, mirror = self._segment_view(region)
            np.copyto(mirror, array, casting="no")

    def close(self) -> None:
        self.release()
        for entry in self._entries.values():
            entry.unlink()
        self._entries.clear()
