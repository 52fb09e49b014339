"""Property: the graph's one adjacency gives the longest path of its DAG.

``TaskDependenceGraph`` keeps its edges only as successor slabs, and
``critical_path_length`` walks them forward in task-id order.  The oracle
here is built independently: the reference (seed) tracker's edges, minus
those whose predecessor had already completed when its successor was
submitted (the graph records no edge it will never have to release), and a
memoised longest-path recursion over predecessors that assumes no order.
Streams interleave submissions with completions of ready tasks.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.data import AccessMode, DataAccess, DataRegion
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.task import Task, TaskState, TaskType
from tests.reference.dependences_reference import (
    DependenceTracker as ReferenceDependenceTracker,
)

TT = TaskType("critical-path")

_step = st.one_of(
    st.tuples(
        st.just("submit"),
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(list(AccessMode))),
                 min_size=1, max_size=3),
        st.integers(1, 9),                        # the task's cost
    ),
    st.tuples(st.just("complete"), st.integers(0, 1 << 16), st.just(0)),
)


@given(st.lists(_step, min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_critical_path_matches_longest_path_oracle(steps):
    buffer = np.zeros(64, dtype=np.uint8)
    # Blocks, overlapping spans and two region objects over one span.
    spans = [(0, 16), (16, 32), (32, 48), (48, 64), (8, 24), (0, 32), (40, 48), (16, 32)]
    regions = [DataRegion(buffer[a:b]) for a, b in spans]
    graph = TaskDependenceGraph()
    reference = ReferenceDependenceTracker()
    costs: dict[int, float] = {}
    preds: dict[int, list[int]] = {}
    for kind, spec, cost in steps:
        if kind == "complete":
            ready = [t for t in graph.tasks() if t.state is TaskState.READY]
            if ready:
                graph.complete_task(ready[spec % len(ready)])
            continue
        accesses, declared = [], {}
        for choice, mode in spec:
            region = regions[choice]
            if declared.setdefault(region.region_key, mode) is not mode:
                continue
            accesses.append(DataAccess(region, mode))
        task = Task(task_type=TT, function=lambda: None, accesses=accesses)
        graph.add_task(task)
        costs[task.task_id] = float(cost)
        preds[task.task_id] = [
            p.task_id for p in reference.dependences_for(task)
            if p.state not in (TaskState.FINISHED, TaskState.MEMOIZED)
        ]

    @functools.lru_cache(maxsize=None)
    def longest(task_id: int) -> float:
        return costs[task_id] + max((longest(p) for p in preds[task_id]), default=0.0)

    expected = max((longest(t) for t in costs), default=0.0)
    assert sorted(graph.iter_edges()) == sorted(
        (p, t) for t, ps in preds.items() for p in ps
    )
    assert graph.critical_path_length(cost=lambda t: costs[t.task_id]) == pytest.approx(expected)
