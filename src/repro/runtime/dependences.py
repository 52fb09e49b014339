"""Dependence analysis (indexed fast path).

The dependence tracker receives tasks in program (creation) order and derives
the edges of the task dependence graph from their declared accesses, with the
usual dataflow semantics:

* read-after-write (true dependence): a reader depends on the last writer of
  any overlapping region;
* write-after-write (output dependence): a writer depends on the previous
  writer of any overlapping region;
* write-after-read (anti dependence): a writer depends on all readers since
  the previous writer of any overlapping region.

Regions conflict when they belong to the same base buffer and their byte
intervals overlap, so disjoint blocks of a matrix can be processed in
parallel while any two accesses to the same block are ordered.

This module is the optimised replacement for the seed's linear-scan tracker
(preserved verbatim in :mod:`tests.reference.dependences_reference` and proven
edge-identical by ``tests/runtime/test_dependences_property.py``).  Two
structures carry the fast path:

* a **per-buffer interval index** (:class:`_BufferIndex`): an exact-interval
  dict plus a sorted-endpoint list.  Block-structured applications re-use the
  same byte intervals for every task, so ~100% of accesses resolve through
  one dict probe; the sorted endpoints answer the general overlap query with
  two bisects when the buffer's stored intervals are pairwise disjoint, and
  fall back to the seed's linear scan only for buffers that actually hold
  nested/overlapping intervals;
* **region-resident state**: the tracker leaves on each ``DataRegion`` one
  weak reference (``DataRegion._dep_state``) to the :class:`RegionState` of
  the region's exact interval, and the state points back at its index.  A
  program that keeps its ``DataRegion`` handles then resolves an access with
  one attribute read and an identity check (``state.index.owner is self``)
  instead of two tuples and a dict probe.  The reference is made on a
  region's second access (the first leaves ``False``): ``In``/``Out`` over a
  bare array build a region per access, which is only ever marked and takes
  the indexed lookup, at no allocation.  The index names its owner only
  while its intervals are pairwise disjoint (an exact match then answers the
  overlap query alone), so a non-disjoint buffer, a region last seen by
  another tracker and a zero-length region (never cached: an empty interval
  overlaps nothing, not even its own state) take the indexed lookup;
* **monotonic epoch stamps** on tasks: instead of accumulating predecessors
  in a per-task Python set (hashing every candidate) and scanning
  ``readers_since_write`` for membership, every ``dependences_for`` call
  draws a fresh epoch from one process-wide counter and stamps tasks as they
  are collected — dedup costs one integer compare per candidate, and the
  task stamps itself first so a task with an inout access never depends on
  itself.

Lifetime: the states name only tasks that may still matter.  A task's
successful completion takes it out of every state it entered
(:meth:`DependenceTracker.forget`, which finds them again from the task's
accesses, O(1) a state: readers are an insertion-ordered dict) — a finished
predecessor adds no edge, so nothing would read it again.  Failed and
cancelled tasks stay, so a later dependent is born cancelled.  A base
buffer's index holds the base weakly and is dropped when the base is
collected, so a recycled ``id()`` starts from a fresh index; the region's
reference to its state is weak too.
"""

from __future__ import annotations

import itertools
import weakref
from bisect import bisect_left, bisect_right
from typing import Iterable

from repro.runtime.data import DataAccess, DataRegion
from repro.runtime.task import Task

__all__ = ["DependenceTracker"]

#: Process-wide epoch clock.  Epochs are globally unique (never reused), so a
#: task stamped by one tracker can never alias a fresh epoch of another
#: tracker instance; ``itertools.count`` is atomic under the GIL.
_EPOCHS = itertools.count(1)


class RegionState:
    """Last writer and subsequent readers of one byte interval.

    ``readers_since_write`` is a dict used as an insertion-ordered set (the
    values are ``None``), so a completing reader leaves it in O(1).
    """

    __slots__ = ("start", "end", "index", "last_writer", "readers_since_write", "__weakref__")

    def __init__(self, start: int, end: int, index: "_BufferIndex") -> None:
        self.start = start
        self.end = end
        self.index = index
        self.last_writer: Task | None = None
        self.readers_since_write: dict[Task, None] = {}

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start, self.end)


class _BufferIndex:
    """Interval index over the region states of one base buffer.

    ``exact`` resolves an exact byte interval in one dict probe.  ``keys``
    holds ``(start, end)`` pairs sorted lexicographically with ``states``
    parallel to it; while the stored intervals are pairwise disjoint
    (``disjoint`` flag, the block-structured common case) the sorted ends are
    non-decreasing too, so an overlap query is a contiguous slice found with
    two bisects.  The first nested/overlapping insert clears the flag and
    overlap queries fall back to a linear scan (the seed semantics).

    ``owner`` is the tracker whose region caches may resolve to this index's
    states: set while the index is disjoint, cleared with the flag and by the
    tracker's ``reset``.  ``base`` is a weak reference to the base buffer
    whose collection removes the index from ``buffers`` (the tracker's
    table), unless that entry already belongs to a newer buffer.
    """

    __slots__ = ("exact", "keys", "states", "ends", "disjoint", "owner", "base")

    def __init__(self, owner: "DependenceTracker", base, buffers: dict) -> None:
        self.exact: dict[tuple[int, int], RegionState] = {}
        self.keys: list[tuple[int, int]] = []
        self.states: list[RegionState] = []
        self.ends: list[int] = []
        self.disjoint = True
        self.owner: DependenceTracker | None = owner

        def _on_collect(ref: weakref.ref, _buffers=buffers, _key=id(base)) -> None:
            index = _buffers.get(_key)
            if index is not None and index.base is ref:
                _buffers.pop(_key, None)

        self.base = weakref.ref(base, _on_collect)

    def insert(self, start: int, end: int) -> RegionState:
        """Create, register and return the state for a new exact interval."""
        state = RegionState(start, end, self)
        key = (start, end)
        self.exact[key] = state
        position = bisect_left(self.keys, key)
        self.keys.insert(position, key)
        self.states.insert(position, state)
        self.ends.insert(position, end)
        if self.disjoint:
            # Overlap against either neighbour breaks the sorted-disjoint
            # invariant that makes range queries two bisects (pairwise
            # disjoint + sorted means any overlap shows up at a neighbour).
            if (position > 0 and self.keys[position - 1][1] > start) or (
                position + 1 < len(self.keys)
                and self.keys[position + 1][0] < end
            ):
                self.disjoint = False
                self.owner = None
        return state

    def overlapping(self, start: int, end: int) -> list[RegionState]:
        """All stored states whose interval overlaps ``[start, end)``."""
        states = self.states
        if not states:
            return []
        if self.disjoint:
            if start < end:
                match = self.exact.get((start, end))
                if match is not None:
                    # Disjoint invariant: nothing else can overlap an
                    # interval that is stored exactly.  (Zero-length
                    # intervals are excluded above: an empty interval never
                    # overlaps anything, not even itself — seed semantics.)
                    return [match]
            lo = bisect_right(self.ends, start)
            hi = bisect_left(self.keys, (end,))
            return states[lo:hi]
        return [
            s for s in states if start < s.end and s.start < end
        ]


class DependenceTracker:
    """Incremental dependence analysis over a stream of tasks.

    The tracker keeps, per live base buffer, a :class:`_BufferIndex` of
    region states (byte intervals with their last writer and readers).
    Semantics are bit-identical to the preserved seed tracker for every task
    not yet completed; only the lookup structures differ.
    """

    def __init__(self) -> None:
        self._buffers: dict[int, _BufferIndex] = {}
        self._edges_added = 0

    @property
    def edges_added(self) -> int:
        """Total number of dependence edges produced so far."""
        return self._edges_added

    # -- core API -------------------------------------------------------------
    def dependences_for(self, task: Task) -> list[Task]:
        """Compute predecessors of ``task`` and update the tracking state.

        Must be called exactly once per task, in creation order.  Returns the
        distinct predecessors (order follows discovery; callers needing set
        semantics can wrap, the members are already deduplicated).
        """
        epoch = next(_EPOCHS)
        # Self-stamp first: a task with an inout access never depends on
        # itself (the seed's ``predecessors.discard(task)``).
        task._dep_mark = epoch
        predecessors: list[Task] = []
        append = predecessors.append
        buffers_get = self._buffers.get
        accesses = task.accesses
        # First pass: collect dependences against the pre-task state so a
        # task reading and writing the same bytes sees only earlier tasks.
        for access in accesses:
            region = access.region
            cached = region._dep_state
            state = cached() if cached else None
            if state is None or state.index.owner is not self:
                index = buffers_get(region._base_id)
                if index is None:
                    continue
                start, end = region.byte_interval
                for state in index.overlapping(start, end):
                    writer = state.last_writer
                    if writer is not None and writer._dep_mark != epoch:
                        writer._dep_mark = epoch
                        append(writer)
                    if access.writes:
                        for reader in state.readers_since_write:
                            if reader._dep_mark != epoch:
                                reader._dep_mark = epoch
                                append(reader)
                continue
            # The cached exact state answers the overlap query alone; taken
            # inline, the common case allocates nothing here.
            writer = state.last_writer
            if writer is not None and writer._dep_mark != epoch:
                writer._dep_mark = epoch
                append(writer)
            if access.writes:
                for reader in state.readers_since_write:
                    if reader._dep_mark != epoch:
                        reader._dep_mark = epoch
                        append(reader)
        # Second pass: update state *after* computing all dependences.
        buffers = self._buffers
        for access in accesses:
            region = access.region
            cached = region._dep_state
            match = cached() if cached else None
            if match is None or match.index.owner is not self:
                base_id = region._base_id
                index = buffers_get(base_id)
                if index is None:
                    index = buffers[base_id] = _BufferIndex(self, region._base, buffers)
                start, end = region.byte_interval
                match = index.exact.get((start, end))
                if match is None:
                    match = index.insert(start, end)
                if start < end:
                    # A first access leaves only a mark: the reference is
                    # made on a region's second, so the fresh region per
                    # access that ``In``/``Out`` build from an array costs
                    # no allocation.
                    region._dep_state = weakref.ref(match) if cached is not None else False
            if access.writes:
                match.last_writer = task
                match.readers_since_write.clear()
                index = match.index
                if not index.disjoint:
                    # A write also orders against overlapping (but
                    # non-identical) intervals: record the writer there too
                    # so later accesses of those intervals see it.  While the
                    # buffer's intervals stay pairwise disjoint nothing else
                    # can overlap the exact match — skip the query entirely.
                    start, end = region.byte_interval
                    for state in index.overlapping(start, end):
                        if state is match:
                            continue
                        state.last_writer = task
                        state.readers_since_write.clear()
            elif access.reads:
                # Duplicate reads of one interval can only come from the
                # current task and keep their first position.
                match.readers_since_write[task] = None
        self._edges_added += len(predecessors)
        return predecessors

    def forget(self, task: Task) -> None:
        """Take a completed task out of every state it entered.

        Called at a ``FINISHED`` / ``MEMOIZED`` completion: a completed
        predecessor adds no edge, so nothing would read it again.  A failed
        or cancelled task is never forgotten — whoever depends on it later
        is born cancelled.
        """
        buffers_get = self._buffers.get
        for access in task.accesses:
            region = access.region
            cached = region._dep_state
            state = cached() if cached else None
            if state is None or state.index.owner is not self:
                index = buffers_get(region._base_id)
                if index is None:
                    continue
                start, end = region.byte_interval
                if access.writes and not index.disjoint:
                    # The write also stamped the states overlapping it; one
                    # it did not stamp names another task.
                    for other in index.overlapping(start, end):
                        if other.last_writer is task:
                            other.last_writer = None
                        other.readers_since_write.pop(task, None)
                state = index.exact.get((start, end))
                if state is None:
                    continue
            # The task entered its access's exact state as the writer or as
            # a reader: one interval takes one mode per task.
            if state.last_writer is task:
                state.last_writer = None
            else:
                state.readers_since_write.pop(task, None)

    # -- helpers --------------------------------------------------------------
    def _overlapping_states(self, region: DataRegion) -> Iterable[RegionState]:
        """States overlapping ``region`` (introspection/testing helper)."""
        index = self._buffers.get(region.base_id)
        if index is None:
            return []
        start, end = region.byte_interval
        return index.overlapping(start, end)

    def reset(self) -> None:
        """Forget all state (used between independent program runs)."""
        # A copy: a collected base's callback may drop its index meanwhile.
        for index in list(self._buffers.values()):
            index.owner = None  # regions still caching its states look up afresh
        self._buffers.clear()
        self._edges_added = 0
