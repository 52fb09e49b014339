"""Property test: the indexed tracker is edge-identical to the seed tracker.

The optimised :class:`repro.runtime.dependences.DependenceTracker` (interval
index + epoch-stamp dedup) must produce exactly the same dependence edges as
the seed implementation preserved verbatim in
:mod:`tests.reference.dependences_reference` — for every interleaving of
``in``/``out``/``inout`` accesses over exact-matching, overlapping and
nested byte intervals.  Randomized access streams are fed to both trackers
and the per-task predecessor sets are compared.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.data import AccessMode, DataAccess, DataRegion, In, InOut, Out
from repro.runtime.dependences import DependenceTracker
from tests.reference.dependences_reference import (
    DependenceTracker as ReferenceDependenceTracker,
)
from repro.runtime.task import Task, TaskType

TT = TaskType("dep-prop")

#: Interval grid per buffer: blocks of 16 bytes over a 64-byte buffer give
#: exact re-matches; odd offsets/lengths give overlapping and nested spans.
_BUFFER_COUNT = 3
_BUFFER_BYTES = 64

_access_spec = st.tuples(
    st.integers(0, _BUFFER_COUNT - 1),            # buffer
    st.integers(0, _BUFFER_BYTES - 1),            # start byte
    st.integers(0, _BUFFER_BYTES),                # length (0 = empty region!)
    st.sampled_from(list(AccessMode)),            # mode
    st.booleans(),                                # snap to 16-byte blocks?
)

_task_spec = st.lists(_access_spec, min_size=1, max_size=3)
_stream = st.lists(_task_spec, min_size=1, max_size=40)


def _build_tasks(stream) -> list[Task]:
    buffers = [np.zeros(_BUFFER_BYTES, dtype=np.uint8) for _ in range(_BUFFER_COUNT)]
    tasks = []
    for index, spec in enumerate(stream):
        accesses = []
        declared: dict[tuple, AccessMode] = {}
        for buffer_index, start, length, mode, snap in spec:
            if snap:
                start -= start % 16
                length = 16
            end = min(start + length, _BUFFER_BYTES)
            # end == start is kept: zero-length regions exercise the
            # empty-interval semantics (an empty interval overlaps nothing,
            # but a non-empty one strictly containing its position does).
            region = DataRegion(buffers[buffer_index][start:end])
            if declared.get(region.region_key, mode) is not mode:
                continue  # validate_accesses would reject conflicting dupes
            declared[region.region_key] = mode
            accesses.append(DataAccess(region, mode))
        if not accesses:
            continue
        tasks.append(Task(
            task_type=TT, function=lambda: None, accesses=accesses, task_id=index,
        ))
    return tasks


@given(_stream)
@settings(max_examples=200, deadline=None)
def test_indexed_tracker_matches_reference_edge_set(stream):
    tasks = _build_tasks(stream)
    indexed = DependenceTracker()
    reference = ReferenceDependenceTracker()
    for task in tasks:
        new_predecessors = indexed.dependences_for(task)
        ref_predecessors = reference.dependences_for(task)
        new_ids = sorted(p.task_id for p in new_predecessors)
        assert len(new_ids) == len(set(new_ids)), "duplicate predecessors"
        assert new_ids == sorted(p.task_id for p in ref_predecessors), (
            f"edge mismatch at task {task.task_id}: "
            f"{new_ids} != {sorted(p.task_id for p in ref_predecessors)}"
        )
    assert indexed.edges_added == reference.edges_added


@given(_stream)
@settings(max_examples=50, deadline=None)
def test_indexed_tracker_matches_reference_after_reset(stream):
    """Reset clears the index completely (no stale interval survives)."""
    tasks = _build_tasks(stream)
    indexed = DependenceTracker()
    reference = ReferenceDependenceTracker()
    for task in tasks:
        indexed.dependences_for(task)
    indexed.reset()
    assert indexed.edges_added == 0
    for task in tasks:
        new_ids = sorted(p.task_id for p in indexed.dependences_for(task))
        ref_ids = sorted(p.task_id for p in reference.dependences_for(task))
        assert new_ids == ref_ids


# -- region-resident state: regions reused from a pool ---------------------------
# The streams above build a fresh DataRegion per access, so the tracker's
# per-region cache (``DataRegion._dep_state``) never hits there.  Here every
# access draws its region object from one pool: the 16-byte blocks of each
# buffer (the block-structured common case, cached from its second use) plus
# drawn extras — nested or overlapping spans that make a buffer non-disjoint
# once they are first inserted, possibly long after its blocks were cached,
# and zero-length regions.  Tasks go to one of two trackers over the same
# region objects (each beside its own reference), and a stream step may reset
# either pair.

_extra_region = st.tuples(
    st.integers(0, _BUFFER_COUNT - 1),
    st.integers(0, _BUFFER_BYTES - 1),
    st.integers(0, 24),                           # length (0 = empty region)
)
_pool_step = st.one_of(
    st.tuples(
        st.just("task"),
        st.integers(0, 1),                        # which tracker pair
        st.lists(
            st.tuples(st.integers(0, 63), st.sampled_from(list(AccessMode))),
            min_size=1, max_size=3,
        ),
    ),
    st.tuples(st.just("reset"), st.integers(0, 1), st.just(())),
)


def _region_pool(extras) -> list[DataRegion]:
    buffers = [np.zeros(_BUFFER_BYTES, dtype=np.uint8) for _ in range(_BUFFER_COUNT)]
    pool = [
        DataRegion(buffer[start:start + 16])
        for buffer in buffers for start in range(0, _BUFFER_BYTES, 16)
    ]
    for buffer_index, start, length in extras:
        pool.append(DataRegion(buffers[buffer_index][start:min(start + length, _BUFFER_BYTES)]))
    return pool


@given(st.lists(_extra_region, max_size=4), st.lists(_pool_step, min_size=1, max_size=60))
@settings(max_examples=250, deadline=None)
def test_cached_region_states_match_reference(extras, steps):
    pool = _region_pool(extras)
    pairs = [[DependenceTracker(), ReferenceDependenceTracker()] for _ in range(2)]
    for index, (kind, which, spec) in enumerate(steps):
        pair = pairs[which]
        if kind == "reset":
            pair[0].reset()
            pair[1] = ReferenceDependenceTracker()
            continue
        accesses, declared = [], {}
        for choice, mode in spec:
            region = pool[choice % len(pool)]
            if declared.setdefault(region.region_key, mode) is not mode:
                continue  # validate_accesses would reject conflicting dupes
            accesses.append(DataAccess(region, mode))
        task = Task(task_type=TT, function=lambda: None, accesses=accesses, task_id=index)
        new_ids = sorted(p.task_id for p in pair[0].dependences_for(task))
        ref_ids = sorted(p.task_id for p in pair[1].dependences_for(task))
        assert new_ids == ref_ids, f"edge mismatch at task {index}: {new_ids} != {ref_ids}"
    for indexed, reference in pairs:
        assert indexed.edges_added == reference.edges_added
    for region in pool:
        # The cache never holds (or marks) a zero-length region, and whatever
        # it holds is the state of the region's own exact interval.
        state = region._dep_state() if region._dep_state else None
        if region.byte_interval[0] == region.byte_interval[1]:
            assert region._dep_state is None
        elif state is not None:
            assert (state.start, state.end) == region.byte_interval


class TestRegionCache:
    """The cache's three fall-backs, one by one."""

    def _task(self, index, *accesses):
        return Task(task_type=TT, function=lambda: None, accesses=list(accesses),
                    task_id=index)

    def test_block_access_resolves_through_the_region(self):
        buffer = np.zeros(64, dtype=np.uint8)
        block = DataRegion(buffer[16:32])
        tracker = DependenceTracker()
        writer = self._task(0, DataAccess(block, AccessMode.OUT))
        tracker.dependences_for(writer)
        assert block._dep_state is False  # first sight: a mark, no reference
        reader = self._task(1, DataAccess(block, AccessMode.IN))
        assert tracker.dependences_for(reader) == [writer]
        state = block._dep_state()
        assert state is tracker._overlapping_states(block)[0]
        assert state.index.owner is tracker and list(state.readers_since_write) == [reader]
        rewriter = self._task(2, DataAccess(block, AccessMode.OUT))
        assert tracker.dependences_for(rewriter) == [writer, reader]
        assert state.last_writer is rewriter

    def test_fresh_region_per_access_is_only_marked(self):
        """``In``/``Out`` over a bare array build a region per access: each
        is seen once, so none is given a reference."""
        buffer = np.zeros(64, dtype=np.uint8)
        tracker = DependenceTracker()
        accesses = [In(buffer[16:32]), Out(buffer[16:32]), InOut(buffer[16:32])]
        for index, access in enumerate(accesses):
            expected = [index - 1] if index else []
            deps = tracker.dependences_for(self._task(index, access))
            assert [p.task_id for p in deps] == expected
        assert [access.region._dep_state for access in accesses] == [False] * 3

    def test_nested_insert_after_caching_falls_back(self):
        buffer = np.zeros(64, dtype=np.uint8)
        block, nested = DataRegion(buffer[16:32]), DataRegion(buffer[20:24])
        tracker = DependenceTracker()
        writer = self._task(0, DataAccess(block, AccessMode.OUT))
        tracker.dependences_for(writer)
        reader = self._task(1, DataAccess(block, AccessMode.IN))
        tracker.dependences_for(reader)
        index = block._dep_state().index
        inner = self._task(2, DataAccess(nested, AccessMode.INOUT))
        assert tracker.dependences_for(inner) == [writer, reader]
        assert not index.disjoint and index.owner is None
        # The block's exact state no longer answers the overlap query alone:
        # a reader of the block must see the nested writer too.
        again = self._task(3, DataAccess(block, AccessMode.IN))
        assert tracker.dependences_for(again) == [inner]

    def test_reset_and_another_tracker_fall_back(self):
        buffer = np.zeros(64, dtype=np.uint8)
        block = DataRegion(buffer[0:16])
        first, second = DependenceTracker(), DependenceTracker()
        first.dependences_for(self._task(0, DataAccess(block, AccessMode.OUT)))
        first.dependences_for(self._task(1, DataAccess(block, AccessMode.OUT)))
        assert block._dep_state().index.owner is first
        # A second tracker sees none of the first one's writers.
        assert second.dependences_for(self._task(2, DataAccess(block, AccessMode.IN))) == []
        assert block._dep_state().index.owner is second
        stale = block._dep_state()
        second.reset()
        assert stale.index.owner is None
        assert second.dependences_for(self._task(3, DataAccess(block, AccessMode.IN))) == []

    def test_zero_length_region_is_never_cached(self):
        buffer = np.zeros(64, dtype=np.uint8)
        empty = DataRegion(buffer[8:8])
        tracker = DependenceTracker()
        for index in range(2):
            tracker.dependences_for(self._task(index, DataAccess(empty, AccessMode.OUT)))
        assert empty._dep_state is None
