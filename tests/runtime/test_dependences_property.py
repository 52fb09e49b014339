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

from repro.runtime.data import AccessMode, DataAccess, DataRegion
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
