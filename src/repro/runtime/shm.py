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
  when a task's result arrives, for the regions that task wrote, and
  ``copy_regions_in`` when the parent memoized a task, for the regions the
  THT or IKT copy wrote.
  ``copy_in`` only copies (and version-bumps) buffers whose bytes actually
  differ from the segment, so the parent's key caches survive
  multi-barrier programs whose inputs the host never touched; buffers a
  drain never touches are never compared.  Bases are held weakly: a
  segment lives as long as its array, and is unlinked when the first drain
  after the array's collection opens (:meth:`SharedBufferRegistry.release`).
* :class:`WorkerArena` (worker side) — the
  :class:`~repro.runtime.remote_task.ArrayArena` whose backing bytes are
  shared segments, attached lazily by name.  A worker keeps no
  write-versions: the parent orders every commit and owns every key cache
  and content tag that reads them.

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

import itertools
import weakref
from multiprocessing import shared_memory
from typing import Iterable, Optional

import numpy as np

from repro.runtime.codec import NetBuffer
from repro.runtime.data import DataRegion, _base_buffer, region_versions
from repro.runtime.remote_task import ArrayArena

__all__ = ["SharedBufferRegistry", "WorkerArena"]


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


class _SharedBuffer:
    """Parent-side record of one base buffer mirrored into shared memory.

    The base is held weakly; its collection appends the record to ``dead``
    (the weakref callback, which may run on any thread, does nothing else).
    """

    __slots__ = ("slot", "base", "key", "address", "shm", "mirror", "flat_mirror")

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
        self.flat_mirror = np.ndarray((shm.size,), dtype=np.uint8, buffer=shm.buf)

    def unlink(self) -> None:
        self.mirror = self.flat_mirror = None  # release the exported buffer first
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
        #: Slots checked by ``copy_in`` (or seeded by ``register``) in the
        #: open drain; the executor clears it when a drain opens.
        self.fresh: set[int] = set()
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
        entry = _SharedBuffer(next(self._slots), base, shm, self._dead)
        # Seed the segment immediately: a buffer is registered by the first
        # chunk that touches it, and is fresh from then on.
        np.copyto(entry.mirror, base, casting="no")
        self.fresh.add(entry.slot)
        self._entries[entry.key] = entry
        return entry

    def release(self) -> list[int]:
        """Unlink the segments of bases collected since the last call and
        return their slots (for the workers to drop).  Called when a drain
        opens: no task that could touch them is in flight."""
        slots = []
        while self._dead:
            entry = self._dead.pop()
            if self._entries.get(entry.key) is entry:  # the id may be reused
                del self._entries[entry.key]
            self.fresh.discard(entry.slot)
            entry.unlink()
            slots.append(entry.slot)
        return slots

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

    @staticmethod
    def _mirror_matches(entry: _SharedBuffer) -> bool:
        """Byte-level comparison (NaN-safe: ``array_equal`` treats NaN != NaN,
        which would defeat the skip forever for any buffer holding a NaN)."""
        base = entry.base()
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
        the base's write-version, so the parent's key caches and content
        tags never serve bytes a host store replaced between drains.  A buffer already fresh is skipped
        without a compare (module docstring).
        """
        refreshed = 0
        fresh = self.fresh
        for region in regions:
            base = region._base
            entry = self.register(base)
            if entry.slot in fresh:
                continue
            fresh.add(entry.slot)
            if self._mirror_matches(entry):
                continue
            np.copyto(entry.mirror, base, casting="no")
            # A detected host write is an announced one: the version moves,
            # dropping the base's content tags.
            region_versions.bump(base)
            refreshed += 1
        return refreshed

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


class WorkerArena(ArrayArena):
    """Worker-side lazy attachment of shared segments and region views.

    A slot's segment never changes, so segments attached for one chunk's
    buffer table (:meth:`attach`) serve every later chunk until the parent
    releases the slot (:meth:`release`).
    """

    def __init__(self) -> None:
        super().__init__()
        self._segments: dict[int, shared_memory.SharedMemory] = {}

    def attach(self, buffers) -> None:
        """Attach, by name, the segments of a buffer table not seen yet."""
        for slot, _start, name, _generation in buffers:
            if slot not in self._segments:
                shm = self._segments[slot] = shared_memory.SharedMemory(name=name)
                # One flat uint8 ndarray per segment: every view built over
                # it shares this object as its ``.base``.
                self._bases[slot] = np.ndarray((shm.size,), dtype=np.uint8, buffer=shm.buf), 0

    def release(self, slots) -> None:
        """Drop what is cached for ``slots`` and close their segments."""
        slots = set(slots)
        self._views = {ref: v for ref, v in self._views.items() if ref[0] not in slots}
        self._regions = {ref: r for ref, r in self._regions.items() if ref[0] not in slots}
        for slot in slots:
            self._bases.pop(slot, None)
            shm = self._segments.pop(slot, None)
            try:
                if shm is not None:
                    shm.close()
            except BufferError:  # pragma: no cover - a view still alive
                pass

    def close(self) -> None:
        self.release(list(self._segments))
