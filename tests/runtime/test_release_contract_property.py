"""Property: the graph's release contract, against the reference tracker.

``TaskDependenceGraph`` holds only live tasks: a task's pending count and
successor slab sit on the task and are consumed by its completion or
cancellation, and a completed task leaves the dependence tracker's states.
The oracle is the reference (seed) tracker, which forgets nothing: a task
must wait on exactly those of its oracle predecessors that were not terminal
when it was submitted.  Streams interleave submissions with completions and
failures (``fail_task``) of ready tasks, and after every step

* a task has been released once, and exactly when every such predecessor
  has finished (``FINISHED`` / ``MEMOIZED``);
* a task is cancelled exactly when one of them failed or was cancelled, or
  when an oracle predecessor already had at its submission (born
  cancelled);
* ``edge_count`` equals the oracle's count of such predecessors.

Once every task is terminal, no graph structure and no tracker state holds a
finished task.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.data import AccessMode, DataAccess, DataRegion
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.task import TERMINAL_STATES, Task, TaskState, TaskType
from tests.reference.dependences_reference import (
    DependenceTracker as ReferenceDependenceTracker,
)

TT = TaskType("release-contract")
SUCCESS = (TaskState.FINISHED, TaskState.MEMOIZED)
QUARANTINED = (TaskState.FAILED, TaskState.CANCELLED)

_step = st.one_of(
    st.tuples(
        st.just("submit"),
        st.lists(st.tuples(st.integers(0, 7), st.sampled_from(list(AccessMode))),
                 min_size=1, max_size=3),
    ),
    st.tuples(st.sampled_from(["finish", "memoize", "fail"]), st.integers(0, 1 << 16)),
)


def _check_contract(graph, tasks, waits_on, born_doomed, releases, edges) -> None:
    for task in tasks:
        preds = waits_on[task]
        if task.state is TaskState.FAILED:  # chosen while ready
            assert releases[task] == 1
            continue
        cancelled = born_doomed[task] or any(p.state in QUARANTINED for p in preds)
        assert (task.state is TaskState.CANCELLED) == cancelled, task
        released = not cancelled and all(p.state in SUCCESS for p in preds)
        assert releases[task] == int(released), task
    assert graph.edge_count == edges


@given(st.lists(_step, min_size=1, max_size=50))
@settings(max_examples=200, deadline=None)
def test_release_contract_matches_reference_oracle(steps):
    buffer = np.zeros(64, dtype=np.uint8)
    # Blocks, overlapping spans and two region objects over one span.
    spans = [(0, 16), (16, 32), (32, 48), (48, 64), (8, 24), (0, 32), (40, 48), (16, 32)]
    regions = [DataRegion(buffer[a:b]) for a, b in spans]
    releases: Counter = Counter()
    graph = TaskDependenceGraph(
        on_ready=lambda task: releases.update((task,)), on_ready_batch=releases.update
    )
    reference = ReferenceDependenceTracker()
    tasks: list[Task] = []
    waits_on: dict[Task, list[Task]] = {}
    born_doomed: dict[Task, bool] = {}
    edges = 0

    def ready() -> list[Task]:
        return [t for t in tasks if t.state is TaskState.READY]

    for kind, spec in steps:
        if kind == "submit":
            accesses, declared = [], {}
            for choice, mode in spec:
                region = regions[choice]
                if declared.setdefault(region.region_key, mode) is not mode:
                    continue
                accesses.append(DataAccess(region, mode))
            task = Task(task_type=TT, function=lambda: None, accesses=accesses)
            predecessors = reference.dependences_for(task)
            waits_on[task] = [p for p in predecessors if p.state not in TERMINAL_STATES]
            born_doomed[task] = any(p.state in QUARANTINED for p in predecessors)
            edges += len(waits_on[task])
            tasks.append(task)
            graph.add_task(task)
        elif candidates := ready():
            chosen = candidates[spec % len(candidates)]
            if kind == "fail":
                graph.fail_task(chosen)
            else:
                graph.complete_task(chosen, SUCCESS[kind == "memoize"])
        _check_contract(graph, tasks, waits_on, born_doomed, releases, edges)

    while candidates := ready():
        graph.complete_task(candidates[0])
        _check_contract(graph, tasks, waits_on, born_doomed, releases, edges)

    assert graph.all_finished and graph.pending_tasks() == []
    assert graph.task_count == graph.finished_count == len(tasks)
    assert all(t.state in TERMINAL_STATES and t._successors is None for t in tasks)
    for index in graph._tracker._buffers.values():
        for state in index.states:
            held = [state.last_writer, *state.readers_since_write]
            assert not any(t is not None and t.state in SUCCESS for t in held)
