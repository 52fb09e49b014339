"""The dependence edges a graph makes, recorded as it makes them.

``TaskDependenceGraph`` holds only live tasks and keeps no edge list, so a
test that wants the edges records them at their source: :func:`record_edges`
wraps the ``dependences_for`` of one graph's own tracker (on the instance, so
other graphs and the class attribute the benchmark traces are untouched) and
keeps ``(predecessor id, task id)`` for every predecessor the graph will wait
on — one not yet terminal when the task is submitted, exactly the edges
``edge_count`` counts.
"""

from __future__ import annotations

from repro.runtime.task import TERMINAL_STATES

__all__ = ["record_edges"]


def record_edges(graph) -> list[tuple[int, int]]:
    """Start recording ``graph``'s edges; returns the list they land in."""
    edges: list[tuple[int, int]] = []
    tracker = graph._tracker
    dependences_for = tracker.dependences_for

    def recording(task):
        predecessors = dependences_for(task)
        edges.extend(
            (pred.task_id, task.task_id)
            for pred in predecessors
            if pred.state not in TERMINAL_STATES
        )
        return predecessors

    tracker.dependences_for = recording
    return edges
