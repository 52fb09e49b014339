"""Tests for the task dependence graph."""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.common.exceptions import RuntimeStateError
from repro.runtime.data import In, InOut, Out
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.task import Task, TaskState, TaskType
from tests.reference.graph_edges import record_edges

TT = TaskType("graph-test")


def make_task(accesses):
    return Task(task_type=TT, function=lambda: None, accesses=accesses)


class TestGraphConstruction:
    def test_independent_tasks_immediately_ready(self):
        ready = []
        graph = TaskDependenceGraph(on_ready=ready.append)
        t1 = graph.add_task(make_task([Out(np.zeros(4))]))
        t2 = graph.add_task(make_task([Out(np.zeros(4))]))
        assert ready == [t1, t2]
        assert t1.state == TaskState.READY

    def test_dependent_task_not_ready_until_predecessor_completes(self):
        data = np.zeros(4)
        ready = []
        graph = TaskDependenceGraph(on_ready=ready.append)
        writer = graph.add_task(make_task([Out(data)]))
        reader = graph.add_task(make_task([In(data)]))
        assert reader not in ready
        released = graph.complete_task(writer)
        assert released == [reader]
        assert reader in ready

    def test_task_ids_assigned_in_creation_order(self):
        graph = TaskDependenceGraph()
        ids = [graph.add_task(make_task([Out(np.zeros(2))])).task_id for _ in range(5)]
        assert ids == sorted(ids)

    def test_counts(self):
        data = np.zeros(4)
        graph = TaskDependenceGraph()
        writer = graph.add_task(make_task([Out(data)]))
        graph.add_task(make_task([In(data)]))
        assert graph.task_count == 2
        assert graph.edge_count == 1
        assert graph.finished_count == 0
        graph.complete_task(writer)
        assert graph.finished_count == 1


class TestCompletion:
    def test_all_finished(self):
        graph = TaskDependenceGraph()
        t = graph.add_task(make_task([Out(np.zeros(4))]))
        assert not graph.all_finished
        graph.complete_task(t)
        assert graph.all_finished

    def test_double_completion_rejected(self):
        graph = TaskDependenceGraph()
        t = graph.add_task(make_task([Out(np.zeros(4))]))
        graph.complete_task(t)
        with pytest.raises(RuntimeStateError):
            graph.complete_task(t)

    def test_unknown_task_rejected(self):
        graph = TaskDependenceGraph()
        orphan = make_task([Out(np.zeros(4))])
        orphan.task_id = 99
        with pytest.raises(RuntimeStateError):
            graph.complete_task(orphan)

    def test_memoized_terminal_state(self):
        graph = TaskDependenceGraph()
        t = graph.add_task(make_task([Out(np.zeros(4))]))
        graph.complete_task(t, TaskState.MEMOIZED)
        assert t.state == TaskState.MEMOIZED
        assert graph.all_finished

    def test_diamond_releases_join_only_after_both_branches(self):
        source = np.zeros(4)
        left, right = np.zeros(4), np.zeros(4)
        graph = TaskDependenceGraph()
        producer = graph.add_task(make_task([Out(source)]))
        branch_l = graph.add_task(make_task([In(source), Out(left)]))
        branch_r = graph.add_task(make_task([In(source), Out(right)]))
        join = graph.add_task(make_task([In(left), In(right)]))
        graph.complete_task(producer)
        assert graph.complete_task(branch_l) == []
        assert graph.complete_task(branch_r) == [join]

    def test_pending_tasks(self):
        graph = TaskDependenceGraph()
        t = graph.add_task(make_task([Out(np.zeros(4))]))
        assert graph.pending_tasks() == [t]
        graph.complete_task(t)
        assert graph.pending_tasks() == []


class TestEdges:
    def test_recorded_edges(self):
        data = np.zeros(4)
        graph = TaskDependenceGraph()
        edges = record_edges(graph)
        a = graph.add_task(make_task([Out(data)]))
        b = graph.add_task(make_task([In(data)]))
        assert edges == [(a.task_id, b.task_id)]

    def test_completion_leaves_nothing_behind(self):
        """A chain drained to the end: the edges were made, and afterwards
        neither the graph nor the tracker references a finished task."""
        data = np.zeros(4)
        graph = TaskDependenceGraph()
        edges = record_edges(graph)
        chain = [graph.add_task(make_task([InOut(data)])) for _ in range(3)]
        for task in chain:
            graph.complete_task(task)
        assert edges == [(0, 1), (1, 2)] and graph.edge_count == 2
        assert graph.pending_tasks() == [] and graph.task_count == 3
        assert all(t._successors is None for t in chain)
        (state,) = graph._tracker._overlapping_states(chain[0].accesses[0].region)
        assert state.last_writer is None and not state.readers_since_write

    def test_collected_base_drops_its_index(self):
        graph = TaskDependenceGraph()
        data = np.zeros(4)
        key = id(data)
        task = graph.add_task(make_task([Out(data)]))
        graph.complete_task(task)
        assert key in graph._tracker._buffers
        del task, data
        gc.collect()
        assert key not in graph._tracker._buffers


class TestBatchedSubmission:
    def test_add_tasks_matches_per_task_edges(self):
        data = np.zeros(16)
        blocks = [np.zeros(8) for _ in range(4)]

        def build_tasks():
            tasks = [make_task([Out(block)]) for block in blocks]
            tasks.append(make_task([In(blocks[0]), In(blocks[1]), Out(data)]))
            tasks.append(make_task([InOut(data)]))
            return tasks

        one_by_one = TaskDependenceGraph()
        single_edges = record_edges(one_by_one)
        for task in build_tasks():
            one_by_one.add_task(task)
        batched = TaskDependenceGraph()
        batched_edges = record_edges(batched)
        batched.add_tasks(build_tasks())
        assert sorted(batched_edges) == sorted(single_edges) != []
        assert batched.edge_count == one_by_one.edge_count
        assert batched.task_count == one_by_one.task_count

    def test_add_tasks_notifies_ready_in_creation_order(self):
        ready: list = []
        graph = TaskDependenceGraph(
            on_ready_batch=lambda tasks: ready.extend(tasks)
        )
        data = np.zeros(4)
        tasks = [
            make_task([Out(np.zeros(4))]),
            make_task([Out(data)]),
            make_task([In(data)]),   # blocked by the previous task
            make_task([Out(np.zeros(4))]),
        ]
        graph.add_tasks(tasks)
        assert ready == [tasks[0], tasks[1], tasks[3]]
        assert all(t.state == TaskState.READY for t in ready)
        assert tasks[2].state == TaskState.CREATED

    def test_complete_task_releases_through_batch_hook(self):
        batches: list = []
        graph = TaskDependenceGraph(on_ready_batch=batches.append)
        data = np.zeros(4)
        writer = make_task([Out(data)])
        readers = [make_task([In(data)]) for _ in range(3)]
        graph.add_tasks([writer, *readers])
        assert batches == [[writer]]
        released = graph.complete_task(writer)
        assert released == readers
        assert batches[1] == readers

    def test_add_tasks_falls_back_to_per_task_on_ready(self):
        ready: list = []
        graph = TaskDependenceGraph(on_ready=ready.append)
        tasks = [make_task([Out(np.zeros(4))]) for _ in range(3)]
        graph.add_tasks(tasks)
        assert ready == tasks

    def test_add_tasks_empty_iterable(self):
        graph = TaskDependenceGraph()
        assert graph.add_tasks([]) == []
        assert graph.task_count == 0

    def test_failing_batch_still_notifies_registered_tasks(self):
        """Regression: a mid-batch failure must not strand already-registered
        ready tasks unnotified (a later drain would hang)."""
        ready: list = []
        graph = TaskDependenceGraph(on_ready_batch=ready.extend)
        good = make_task([Out(np.zeros(4))])

        def batch():
            yield good
            raise ValueError("the batch's producer failed")

        with pytest.raises(ValueError):
            graph.add_tasks(batch())
        assert ready == [good]
        assert good.state == TaskState.READY
        assert graph.task_count == 1

    def test_moderately_sparse_id_accepted(self):
        graph = TaskDependenceGraph()
        task = make_task([Out(np.zeros(4))])
        task.task_id = 5000
        graph.add_task(task)
        follow = graph.add_task(make_task([Out(np.zeros(4))]))
        assert follow.task_id == 5001
