"""Typed data regions and access annotations.

Task-based dataflow programming models require the programmer to annotate
which data each task reads (``in``), writes (``out``) or both (``inout``).
The runtime uses those annotations for two purposes:

* building the task dependence graph (writer -> reader edges, write-after-read
  and write-after-write orderings);
* giving ATM a complete description of the task inputs (bytes + element
  types) and outputs (buffers to snapshot into the THT and to overwrite on a
  memoization hit).

A :class:`DataRegion` wraps a NumPy array (possibly a view into a larger
array).  Region identity for dependence purposes is the byte interval
``[offset, offset + nbytes)`` within the owning base buffer, so two views of
the same matrix block conflict while disjoint blocks do not.
"""

from __future__ import annotations

import enum
import threading
import weakref
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.common.dtypes import TypeDescriptor, describe_array
from repro.common.exceptions import TaskDefinitionError

__all__ = [
    "AccessMode",
    "DataRegion",
    "DataAccess",
    "In",
    "Out",
    "InOut",
    "region_versions",
]


class RegionVersionRegistry:
    """Monotonic write-versions and content tags for base buffers.

    Every owning base buffer gets a version number drawn from one global
    monotonic clock; the runtime bumps it whenever a task's write accesses
    commit (:meth:`TaskDependenceGraph.complete_task`) or a region is
    bulk-overwritten through :meth:`DataRegion.copy_from`.  The ATM key
    generator files its whole-key and digest caches by region identity
    (:attr:`DataRegion.cache_key`) beside the version, so a region whose
    version is unchanged since the last key computation is known to hold
    identical bytes and its cached digest can be reused.

    Beside the version an entry carries the base's *content tags*: byte
    interval -> "the last committed write placed output ``i`` of this source
    here" (see :meth:`DataRegion.holds`).  Clearing is the default — every
    bump drops the tags of the byte intervals it overlaps (all of them when
    it names no interval) and only those, so a sibling block's write never
    costs this block its tag; only a bump that names a ``tag`` sets one (the
    in-process memoized commit in ``complete_task``).  Tags ride in the entry
    tuple under the registry lock: an untagged base pays one falsy test.

    ``id(base)`` can be recycled after garbage collection; the registry keeps
    a weak reference to the registered buffer and hands out a *fresh* entry
    whenever the identity no longer refers to the same live array, so a
    recycled id can never alias a stale version or tag.  A weakref callback
    removes the entry when its buffer is collected, so the registry never
    grows past the set of live base buffers (the lock is reentrant because
    collection — and therefore the callback — can trigger inside a locked
    region).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._entries: dict[int, tuple[weakref.ref, int, Optional[dict]]] = {}
        self._clock = 0

    def _ref(self, base: np.ndarray) -> weakref.ref:
        key = id(base)

        def _on_collect(ref: weakref.ref, *, _registry=self, _key=key) -> None:
            with _registry._lock:
                entry = _registry._entries.get(_key)
                # Only drop our own entry: the id may already belong to a
                # newer buffer, whose entry must survive.
                if entry is not None and entry[0] is ref:
                    del _registry._entries[_key]

        try:
            return weakref.ref(base, _on_collect)
        except TypeError:  # pragma: no cover - ndarray subclasses w/o weakref
            return lambda: base  # permanent strong identity

    def version_of(self, base: np.ndarray) -> int:
        """Current version of ``base``, registering it on first sight."""
        with self._lock:
            entry = self._entries.get(id(base))
            if entry is not None and entry[0]() is base:
                return entry[1]
            return self.bump(base)

    def bump(self, base: np.ndarray, interval=None, tag=None) -> int:
        """Advance the version of ``base`` (a write has committed).

        ``interval`` is the written ``(start, end)`` byte interval (``None``:
        the whole base); tags overlapping it are dropped, then ``tag`` — when
        given — becomes the tag of exactly ``interval``.
        """
        key = id(base)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is base:
                ref, _, tags = entry
            else:
                ref, tags = self._ref(base), None
            if tags:
                if interval is None:
                    tags = None
                elif tags.pop(interval, None) is None:
                    # Not a tagged interval itself, so it may overlap several.
                    # (One that is overlaps no other: every tag cleared what
                    # it overlapped, so tagged intervals are pairwise disjoint.)
                    start, end = interval
                    for span in [s for s in tags if s[0] < end and start < s[1]]:
                        del tags[span]
            if tag is not None:
                if tags is None:
                    tags = {}
                tags[interval] = tag
            self._clock = version = self._clock + 1
            self._entries[key] = (ref, version, tags)
            return version

    def tag_of(self, base: np.ndarray, interval: tuple[int, int]):
        """The tag committed for exactly ``interval`` of ``base``, or ``None``."""
        with self._lock:
            entry = self._entries.get(id(base))
            if entry is None or not entry[2] or entry[0]() is not base:
                return None
            return entry[2].get(interval)

    def prune(self) -> int:
        """Drop entries whose buffers were garbage collected.

        Collection normally removes entries via the weakref callback; this
        is a safety net for exotic cases where the callback never ran.
        """
        with self._lock:
            dead = [key for key, entry in self._entries.items() if entry[0]() is None]
            for key in dead:
                del self._entries[key]
            return len(dead)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def reset(self) -> None:
        """Forget every entry under a fresh lock; the clock keeps counting.

        A forked worker process calls this first: it may have inherited the
        lock held by a parent thread, and the parent's entries name buffers
        the worker never writes.
        """
        self._lock = threading.RLock()
        self._entries = {}


#: Process-wide registry used by all regions; a worker process has its own.
region_versions = RegionVersionRegistry()


class AccessMode(enum.Enum):
    """Data access modes, mirroring OmpSs/OpenMP ``depend`` clauses."""

    IN = "in"
    OUT = "out"
    INOUT = "inout"

    @property
    def reads(self) -> bool:
        return self in (AccessMode.IN, AccessMode.INOUT)

    @property
    def writes(self) -> bool:
        return self in (AccessMode.OUT, AccessMode.INOUT)


#: The slot order of :attr:`DataRegion._accesses`.
_MODES = (AccessMode.IN, AccessMode.OUT, AccessMode.INOUT)


def _base_buffer(array: np.ndarray) -> np.ndarray:
    """Walk ``array.base`` up to the owning buffer."""
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


class DataRegion:
    """A named, typed view of application memory.

    Parameters
    ----------
    array:
        The NumPy array (or view) holding the region's data.  The region
        aliases this memory: writes through the region are visible to the
        application and vice versa.
    name:
        Optional human-readable name used in traces and error messages.
    """

    __slots__ = (
        "array", "_name", "_descriptor", "_base", "_base_id",
        "_nbytes", "byte_interval", "region_key", "cache_key", "_dep_state",
        "_accesses",
    )

    def __init__(self, array: np.ndarray, name: Optional[str] = None) -> None:
        if not isinstance(array, np.ndarray):
            raise TaskDefinitionError(
                f"DataRegion requires a numpy array, got {type(array).__name__}"
            )
        self.array = array
        self._name = name
        self._descriptor: Optional[TypeDescriptor] = None
        base = _base_buffer(array)
        self._base = base
        base_id = id(base)
        self._base_id = base_id
        self._nbytes = int(array.nbytes)
        if base is array:
            start = 0
            end = self._nbytes
        elif array.flags.c_contiguous:
            start = (
                array.__array_interface__["data"][0]
                - base.__array_interface__["data"][0]
            )
            end = start + self._nbytes
        else:
            # Non-contiguous view: use the full byte span it touches within
            # the base buffer (conservative for dependence purposes).  The
            # data pointer addresses the first *logical* element, which for
            # negative strides is not the lowest touched address — anchor at
            # the lowest-address corner so reversed/strided views (including
            # 1-D ones) keep a correct interval instead of one extending
            # past the buffer.
            offset = (
                array.__array_interface__["data"][0]
                - base.__array_interface__["data"][0]
            )
            lowest = 0
            span = 0
            for stride, dim in zip(array.strides, array.shape):
                if dim > 1:
                    if stride < 0:
                        lowest += stride * (dim - 1)
                    span += abs(stride) * (dim - 1)
            span += array.dtype.itemsize
            start = offset + lowest
            end = start + span
        #: Half-open byte interval within the base buffer.
        self.byte_interval = (start, end)
        #: Hashable identity of this region (base buffer + byte interval).
        self.region_key = key = (base_id, start, end)
        #: Identity of the region's *content* for the key caches: two views
        #: that are not C-contiguous can cover one span and read different
        #: bytes of it, so theirs carries the layout as well.
        self.cache_key = key if array.flags.c_contiguous else key + self._layout()
        #: Weak reference to the dependence tracker's state for this exact
        #: interval (``repro.runtime.dependences``); the tracker checks it is
        #: its own before use.  ``False`` after the region's first access:
        #: the reference is made on its second.
        self._dep_state: "weakref.ref | bool | None" = None
        #: Weak references to this region's live access per mode, indexed
        #: like ``_MODES`` (:meth:`access`); filled on the first declaration.
        self._accesses: Optional[list] = None

    def __getstate__(self):
        # The dependence-state and access caches belong to this process: a
        # pickled or copied region starts without them.
        _, slots = super().__getstate__()
        slots["_dep_state"] = slots["_accesses"] = None
        return None, slots

    def access(self, mode: AccessMode) -> "DataAccess":
        """The one live :class:`DataAccess` of this region in ``mode``.

        Every task that declares the region in one mode shares it: an access
        is immutable, so a live task stores no access of its own.  The region
        holds its accesses weakly (an access holds its region, so a strong
        hold would be a cycle); one is rebuilt once no task keeps it.  Two
        threads that race here may each build one: either is correct.
        """
        slot = _MODES.index(mode)
        refs = self._accesses
        if refs is None:
            refs = self._accesses = [None, None, None]
        else:
            ref = refs[slot]
            access = None if ref is None else ref()
            if access is not None:
                return access
        access = DataAccess(self, mode)
        refs[slot] = weakref.ref(access)
        return access

    # -- identity & overlap -------------------------------------------------
    @property
    def base_id(self) -> int:
        """Identity of the owning base buffer."""
        return self._base_id

    @property
    def name(self) -> str:
        """Human-readable name (lazily defaulted: the f-string is measurable
        on the submission path and most regions are never printed)."""
        name = self._name
        if name is None:
            name = f"region@{id(self.array):#x}"
            self._name = name
        return name

    @name.setter
    def name(self, value: Optional[str]) -> None:
        self._name = value

    @property
    def descriptor(self) -> TypeDescriptor:
        """Element-type descriptor, computed on first use (ATM-only)."""
        descriptor = self._descriptor
        if descriptor is None:
            descriptor = describe_array(self.array)
            self._descriptor = descriptor
        return descriptor

    def overlaps(self, other: "DataRegion") -> bool:
        """True if the two regions may touch common bytes."""
        if self._base_id != other._base_id:
            return False
        start, end = self.byte_interval
        other_start, other_end = other.byte_interval
        return start < other_end and other_start < end

    # -- write versioning -----------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic write-version of the owning base buffer.

        The version changes whenever a write access over any region of the
        same base buffer commits.  Versioning is deliberately coarse (per
        base buffer, not per byte interval): a bump for a sibling region only
        costs a digest-cache miss, never a stale key.
        """
        return region_versions.version_of(self._base)

    def bump_version(self, source=None, index: int = 0) -> int:
        """Record that a write to this region has committed.

        A plain bump clears the content tags of the byte intervals this
        region overlaps; with ``source`` the region ends up tagged "holds
        output ``index`` of ``source``" (see :meth:`holds`).
        """
        tag = None if source is None else (weakref.ref(source), index, self._layout())
        return region_versions.bump(self._base, self.byte_interval, tag)

    def _layout(self) -> tuple:
        array = self.array
        return (array.dtype, array.shape, array.strides)

    def holds(self, source, index: int) -> bool:
        """True when the last committed write to exactly these bytes placed
        output ``index`` of ``source`` through a view of this layout and no
        overlapping write has committed since.

        ``source`` is compared by object identity, held weakly: it is
        process-local and cannot be forged by an unpickled twin.
        """
        tag = region_versions.tag_of(self._base, self.byte_interval)
        return (
            tag is not None
            and tag[0]() is source
            and tag[1] == index
            and tag[2] == self._layout()
        )

    @property
    def version_token(self) -> tuple:
        """Cache key for this region's current content: identity + version."""
        return self.cache_key + (self.version,)

    # -- data access ---------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self._nbytes

    @property
    def dtype(self) -> np.dtype:
        return self.array.dtype

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.array.shape)

    def to_bytes_view(self) -> np.ndarray:
        """A flat ``uint8`` view (copying only if the view is not contiguous)."""
        arr = self.array
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        return arr.view(np.uint8).reshape(-1)

    def snapshot(self) -> np.ndarray:
        """Deep copy of the current contents (used to store THT outputs)."""
        return np.array(self.array, copy=True)

    def copy_from(self, values: np.ndarray) -> None:
        """Bulk-overwrite the region (the ``copyOuts()`` of Figure 1).

        An announced write like any other: the version moves and the content
        tags of the overwritten bytes are cleared.
        """
        values = np.asarray(values)
        if values.shape != self.array.shape:
            values = values.reshape(self.array.shape)
        np.copyto(self.array, values, casting="unsafe")
        self.bump_version()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataRegion(name={self.name!r}, dtype={self.array.dtype}, "
            f"shape={self.shape}, bytes={self.nbytes})"
        )


def as_region(obj: "DataRegion | np.ndarray", name: Optional[str] = None) -> DataRegion:
    """Coerce an array or region into a :class:`DataRegion`."""
    if isinstance(obj, DataRegion):
        return obj
    return DataRegion(obj, name=name)


class DataAccess:
    """One declared access of a task: a region plus its access mode.

    Immutable: nothing writes the four attributes after construction, which
    is what lets :meth:`DataRegion.access` hand one object to every task
    that declares the region in that mode.

    ``reads``/``writes`` are plain attributes precomputed at construction:
    the dependence tracker consults them several times per access, and the
    enum-property chain (``mode.reads`` → enum ``in`` test) is measurable at
    submission rates in the hundreds of thousands of tasks per second.
    """

    __slots__ = ("region", "mode", "reads", "writes", "__weakref__")

    def __init__(self, region: DataRegion, mode: AccessMode) -> None:
        self.region = region
        self.mode = mode
        self.reads = mode is not AccessMode.OUT
        self.writes = mode is not AccessMode.IN

    @property
    def nbytes(self) -> int:
        return self.region.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataAccess({self.region.name!r}, {self.mode.value})"


def In(obj: "DataRegion | np.ndarray", name: Optional[str] = None) -> DataAccess:
    """Declare a read-only (``in``) access.

    A region hands out its shared access (:meth:`DataRegion.access`); a bare
    array becomes a fresh region, whose access is built directly.
    """
    if type(obj) is DataRegion:
        return obj.access(AccessMode.IN)
    return DataAccess(as_region(obj, name), AccessMode.IN)


def Out(obj: "DataRegion | np.ndarray", name: Optional[str] = None) -> DataAccess:
    """Declare a write-only (``out``) access."""
    if type(obj) is DataRegion:
        return obj.access(AccessMode.OUT)
    return DataAccess(as_region(obj, name), AccessMode.OUT)


def InOut(obj: "DataRegion | np.ndarray", name: Optional[str] = None) -> DataAccess:
    """Declare a read-write (``inout``) access."""
    if type(obj) is DataRegion:
        return obj.access(AccessMode.INOUT)
    return DataAccess(as_region(obj, name), AccessMode.INOUT)


def validate_accesses(accesses: Sequence[DataAccess]) -> None:
    """Sanity-check a task's access list.

    Rejects duplicate declarations of the exact same region with conflicting
    modes (a common annotation bug the paper warns about in Section III-E:
    under-declared outputs silently break memoization).
    """
    if len(accesses) < 2:
        return  # a single access cannot conflict with itself
    seen: dict[tuple[int, int, int], AccessMode] = {}
    for access in accesses:
        key = access.region.region_key
        if key in seen and seen[key] != access.mode:
            raise TaskDefinitionError(
                f"region {access.region.name!r} declared twice with conflicting "
                f"modes {seen[key].value!r} and {access.mode.value!r}"
            )
        seen[key] = access.mode


def total_bytes(accesses: Iterable[DataAccess], mode: Optional[AccessMode] = None) -> int:
    """Total bytes of the accesses, optionally filtered by mode."""
    return sum(a.nbytes for a in accesses if mode is None or a.mode == mode)
