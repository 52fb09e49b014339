"""Seed dependence tracker, preserved verbatim as the equivalence oracle.

This is the linear-scan tracker the repository seeded with, kept (like
``tests/reference/keygen_reference.py``) so the optimised indexed tracker in
:mod:`repro.runtime.dependences` can be *proven* to produce identical edge
sets on randomized access streams
(``tests/runtime/test_dependences_property.py``).  Do not optimise this
module; it is the specification.

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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from repro.runtime.data import DataAccess, DataRegion
from repro.runtime.task import Task

__all__ = ["DependenceTracker", "RegionState"]


@dataclass
class RegionState:
    """Last writer and subsequent readers of one byte interval."""

    interval: tuple[int, int]
    last_writer: Task | None = None
    readers_since_write: list[Task] = field(default_factory=list)


class DependenceTracker:
    """Incremental dependence analysis over a stream of tasks.

    The tracker keeps, per base buffer, the list of region states (byte
    intervals with their last writer and readers).  For the block-structured
    applications in this reproduction the number of distinct intervals per
    buffer is small (one per block), so the linear overlap scan per access is
    cheap; a fully general implementation would use an interval tree, which
    the module is structured to allow swapping in.
    """

    def __init__(self) -> None:
        self._states: dict[int, list[RegionState]] = defaultdict(list)

    # -- core API -------------------------------------------------------------
    def dependences_for(self, task: Task) -> set[Task]:
        """Compute predecessors of ``task`` and update the tracking state.

        Must be called exactly once per task, in creation order.
        """
        predecessors: set[Task] = set()
        for access in task.accesses:
            predecessors.update(self._dependences_for_access(task, access))
        # Second pass: update state *after* computing all dependences so that
        # a task with an inout access does not depend on itself.
        for access in task.accesses:
            self._update_state(task, access)
        predecessors.discard(task)
        return predecessors

    # -- helpers --------------------------------------------------------------
    def _overlapping_states(self, region: DataRegion) -> Iterable[RegionState]:
        start, end = region.byte_interval
        for state in self._states.get(region.base_id, ()):  # pragma: no branch
            s, e = state.interval
            if start < e and s < end:
                yield state

    def _dependences_for_access(self, task: Task, access: DataAccess) -> set[Task]:
        deps: set[Task] = set()
        for state in self._overlapping_states(access.region):
            if access.reads:
                if state.last_writer is not None:
                    deps.add(state.last_writer)
            if access.writes:
                if state.last_writer is not None:
                    deps.add(state.last_writer)
                deps.update(state.readers_since_write)
        return deps

    def _update_state(self, task: Task, access: DataAccess) -> None:
        region = access.region
        states = self._states[region.base_id]
        match = None
        for state in states:
            if state.interval == region.byte_interval:
                match = state
                break
        if match is None:
            match = RegionState(interval=region.byte_interval)
            states.append(match)
        if access.writes:
            match.last_writer = task
            match.readers_since_write = []
            # A write also orders against overlapping (but non-identical)
            # intervals: record the writer there too so later readers of the
            # overlapping interval see it.
            for state in states:
                if state is match:
                    continue
                s, e = state.interval
                rs, re = region.byte_interval
                if rs < e and s < re:
                    state.last_writer = task
                    state.readers_since_write = []
        elif access.reads:
            if task not in match.readers_since_write:
                match.readers_since_write.append(task)

    def reset(self) -> None:
        """Forget all state (used between independent program runs)."""
        self._states.clear()
