"""Tests for the batched submission surface (Session.submit_batch / batch())."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import RuntimeStateError
from repro.runtime.data import In, InOut, Out
from repro.runtime.task import TaskType
from repro.session import Session
from tests.reference.graph_edges import record_edges

TT = TaskType("batch-test")


class TestSubmitBatch:
    def test_tuple_specs_run_to_completion(self):
        x = np.arange(8, dtype=np.float64)
        y = np.zeros(8)
        z = np.zeros(8)

        def scale(factor):
            y[:] = factor * x

        def shift():
            z[:] = y + 1.0

        with Session(executor="serial") as s:
            tasks = s.submit_batch([
                (TT, scale, [In(x), Out(y)], (3.0,)),
                (TT, shift, [In(y), Out(z)]),
            ])
            assert [t.task_id for t in tasks] == [0, 1]
            result = s.finish()
        assert result.tasks_completed == 2
        assert z.tolist() == (3.0 * x + 1.0).tolist()

    def test_mapping_specs(self):
        data = np.zeros(4)
        with Session(executor="serial") as s:
            tasks = s.submit_batch([
                {"task_type": TT, "function": lambda: None,
                 "accesses": [Out(data)], "kwargs": {}},
                {"task_type": TT, "function": lambda: None,
                 "accesses": [InOut(data)]},
            ])
            s.wait_all()
        assert len(tasks) == 2
        assert s.graph.edge_count == 1  # WAW edge within the batch

    def test_edges_match_per_task_submission(self):
        def program(submit):
            base = np.zeros(32)
            blocks = [base[:16], base[16:]]
            specs = [(TT, lambda: None, [Out(block)]) for block in blocks]
            specs.append((TT, lambda: None, [In(base)]))
            return submit(specs)

        with Session(executor="serial") as batched:
            batched_edges = record_edges(batched.graph)
            program(batched.submit_batch)
            batched.wait_all()
        with Session(executor="serial") as singly:
            single_edges = record_edges(singly.graph)
            program(lambda specs: [singly.submit(*spec) for spec in specs])
            singly.wait_all()
        assert sorted(batched_edges) == sorted(single_edges) == [(0, 2), (1, 2)]

    def test_rejected_after_finish(self):
        s = Session(executor="serial")
        s.finish()
        with pytest.raises(RuntimeStateError):
            s.submit_batch([(TT, lambda: None, [Out(np.zeros(2))])])


class TestBatchContext:
    def test_decorated_calls_are_buffered_then_flushed(self):
        with Session(executor="serial") as s:
            @s.task(outs=("y",))
            def produce(y):
                y[:] = 1.0

            ys = [np.zeros(4) for _ in range(5)]
            with s.batch():
                tasks = [produce(y) for y in ys]
                # Nothing reached the graph yet.
                assert s.graph.task_count == 0
            assert s.graph.task_count == 5
            assert [t.task_id for t in tasks] == list(range(5))
            s.wait_all()
        assert all(y.tolist() == [1.0] * 4 for y in ys)

    def test_exception_discards_buffered_tasks(self):
        with Session(executor="serial") as s:
            @s.task(outs=("y",))
            def produce(y):
                y[:] = 1.0

            with pytest.raises(ValueError):
                with s.batch():
                    produce(np.zeros(4))
                    raise ValueError("boom")
            assert s.graph.task_count == 0
            # Task ids were rolled back: the next submission starts at 0.
            task = produce(np.zeros(4))
            assert task.task_id == 0
            s.wait_all()

    def test_nested_batch_rejected(self):
        with Session(executor="serial") as s:
            with s.batch():
                with pytest.raises(RuntimeStateError):
                    with s.batch():
                        pass

    def test_dependences_cross_batch_boundaries(self):
        data = np.zeros(8)
        log = []
        with Session(executor="serial") as s:
            @s.task(inouts=("x",))
            def bump(x, tag):
                log.append(tag)

            with s.batch():
                bump(data, 0)
                bump(data, 1)
            with s.batch():
                bump(data, 2)
            s.wait_all()
        assert log == [0, 1, 2]
        assert s.graph.edge_count == 2


class TestFastResubmissionPath:
    def test_positional_and_keyword_calls_build_identical_accesses(self):
        x = np.arange(4, dtype=np.float64)
        y = np.zeros(4)
        with Session(executor="serial") as s:
            @s.task(ins=("x",), outs=("y",))
            def saxpy(x, y, a):
                y[:] = a * x

            positional = saxpy(x, y, 2.0)
            keyword = saxpy(x=x, y=y, a=2.0)
            s.wait_all()
        for task in (positional, keyword):
            assert [a.region.name for a in task.accesses] == ["x", "y"]
            assert [a.mode.value for a in task.accesses] == ["in", "out"]
        assert y.tolist() == (2.0 * x).tolist()

    def test_defaulted_call_falls_back_to_bind(self):
        y = np.zeros(4)
        captured = {}
        with Session(executor="serial") as s:
            @s.task(outs=("y",))
            def fill(y, value=7.0):
                y[:] = value
                captured["value"] = value

            fill(y)  # one positional arg, default applies
            s.wait_all()
        assert captured["value"] == 7.0
        assert y.tolist() == [7.0] * 4
