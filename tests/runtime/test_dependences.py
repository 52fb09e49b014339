"""Tests for the dependence tracker (RAW / WAW / WAR over byte regions).

The indexed tracker returns predecessors as a deduplicated *list* (set
semantics without per-task set construction); tests compare via set().
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.data import In, InOut, Out
from repro.runtime.dependences import DependenceTracker
from repro.runtime.task import Task, TaskType

TT = TaskType("dep-test")


def make_task(accesses, task_id):
    return Task(task_type=TT, function=lambda: None, accesses=accesses, task_id=task_id)


class TestBasicDependences:
    def test_read_after_write(self):
        data = np.zeros(8)
        tracker = DependenceTracker()
        writer = make_task([Out(data)], 0)
        reader = make_task([In(data)], 1)
        assert set(tracker.dependences_for(writer)) == set()
        assert set(tracker.dependences_for(reader)) == {writer}

    def test_write_after_write(self):
        data = np.zeros(8)
        tracker = DependenceTracker()
        first = make_task([Out(data)], 0)
        second = make_task([Out(data)], 1)
        tracker.dependences_for(first)
        assert set(tracker.dependences_for(second)) == {first}

    def test_write_after_read(self):
        data = np.zeros(8)
        tracker = DependenceTracker()
        producer = make_task([Out(data)], 0)
        reader_a = make_task([In(data)], 1)
        reader_b = make_task([In(data)], 2)
        writer = make_task([Out(data)], 3)
        tracker.dependences_for(producer)
        tracker.dependences_for(reader_a)
        tracker.dependences_for(reader_b)
        deps = tracker.dependences_for(writer)
        assert reader_a in deps and reader_b in deps

    def test_independent_readers_share_no_dependence(self):
        data = np.zeros(8)
        tracker = DependenceTracker()
        r1 = make_task([In(data)], 0)
        r2 = make_task([In(data)], 1)
        tracker.dependences_for(r1)
        assert set(tracker.dependences_for(r2)) == set()

    def test_inout_does_not_depend_on_itself(self):
        data = np.zeros(8)
        tracker = DependenceTracker()
        task = make_task([InOut(data)], 0)
        assert set(tracker.dependences_for(task)) == set()

    def test_chain_of_inout_serialises(self):
        data = np.zeros(8)
        tracker = DependenceTracker()
        t0 = make_task([InOut(data)], 0)
        t1 = make_task([InOut(data)], 1)
        t2 = make_task([InOut(data)], 2)
        tracker.dependences_for(t0)
        assert set(tracker.dependences_for(t1)) == {t0}
        assert set(tracker.dependences_for(t2)) == {t1}


class TestRegionGranularity:
    def test_disjoint_blocks_are_independent(self):
        base = np.zeros(64)
        tracker = DependenceTracker()
        left = make_task([Out(base[:32])], 0)
        right = make_task([Out(base[32:])], 1)
        tracker.dependences_for(left)
        assert set(tracker.dependences_for(right)) == set()

    def test_overlapping_blocks_conflict(self):
        base = np.zeros(64)
        tracker = DependenceTracker()
        left = make_task([Out(base[:40])], 0)
        right = make_task([In(base[32:])], 1)
        tracker.dependences_for(left)
        assert set(tracker.dependences_for(right)) == {left}

    def test_writer_to_subregion_orders_full_reader(self):
        base = np.zeros(64)
        tracker = DependenceTracker()
        sub_writer = make_task([Out(base[16:32])], 0)
        full_reader = make_task([In(base)], 1)
        tracker.dependences_for(sub_writer)
        assert sub_writer in tracker.dependences_for(full_reader)

    def test_edge_count(self):
        """A reader of two intervals one task wrote gets one edge to it."""
        base = np.zeros(8)
        tracker = DependenceTracker()
        writer = make_task([Out(base[:4]), Out(base[4:])], 0)
        reader = make_task([In(base[:4]), In(base[4:])], 1)
        assert tracker.dependences_for(writer) == []
        assert tracker.dependences_for(reader) == [writer]

    def test_different_buffers_never_conflict(self):
        tracker = DependenceTracker()
        a = make_task([Out(np.zeros(8))], 0)
        b = make_task([In(np.zeros(8))], 1)
        tracker.dependences_for(a)
        assert set(tracker.dependences_for(b)) == set()


class TestTrackerBookkeeping:
    def test_reset(self):
        data = np.zeros(8)
        tracker = DependenceTracker()
        tracker.dependences_for(make_task([Out(data)], 0))
        tracker.reset()
        assert set(tracker.dependences_for(make_task([In(data)], 1))) == set()

    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_dependences_always_point_backwards(self, spec):
        """Property: every dependence edge goes from an earlier to a later task."""
        buffers = [np.zeros(8) for _ in range(4)]
        tracker = DependenceTracker()
        tasks = []
        for index, (buffer_index, is_write) in enumerate(spec):
            access = Out(buffers[buffer_index]) if is_write else In(buffers[buffer_index])
            task = make_task([access], index)
            deps = tracker.dependences_for(task)
            for dep in deps:
                assert dep.task_id < task.task_id
            tasks.append(task)
