"""Tests for tasks and task types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import TaskDefinitionError
from repro.runtime.data import In, InOut, Out
from repro.runtime.task import Task, TaskState, TaskType


def make_task(task_type=None, accesses=None, fn=None, args=()):
    task_type = task_type or TaskType("t", memoizable=True)
    accesses = accesses if accesses is not None else [In(np.zeros(4)), Out(np.zeros(4))]
    fn = fn or (lambda *a: None)
    return Task(task_type=task_type, function=fn, accesses=accesses, args=args, task_id=0)


class TestTaskType:
    def test_requires_name(self):
        with pytest.raises(TaskDefinitionError):
            TaskType("")

    def test_atm_eligibility_requires_memoizable_and_deterministic(self):
        assert TaskType("a", memoizable=True).atm_eligible
        assert not TaskType("b", memoizable=False).atm_eligible
        assert not TaskType("c", memoizable=True, deterministic=False).atm_eligible

    def test_invalid_tau_max(self):
        with pytest.raises(TaskDefinitionError):
            TaskType("t", tau_max=-1.0)

    def test_invalid_l_training(self):
        with pytest.raises(TaskDefinitionError):
            TaskType("t", l_training=0)

    def test_equality_by_name(self):
        assert TaskType("same") == TaskType("same")
        assert hash(TaskType("same")) == hash(TaskType("same"))
        assert TaskType("a") != TaskType("b")


class TestTaskStates:
    def test_terminal_states(self):
        assert TaskState.FINISHED.is_terminal
        assert TaskState.MEMOIZED.is_terminal
        assert not TaskState.READY.is_terminal
        assert not TaskState.RUNNING.is_terminal


class TestTask:
    def test_function_must_be_callable(self):
        with pytest.raises(TaskDefinitionError):
            make_task(fn="not callable")

    def test_inputs_and_outputs_split(self):
        a, b, c = np.zeros(2), np.zeros(2), np.zeros(2)
        task = make_task(accesses=[In(a), Out(b), InOut(c)])
        assert len(task.inputs) == 2     # In + InOut
        assert len(task.outputs) == 2    # Out + InOut

    def test_byte_accounting(self):
        a = np.zeros(4, dtype=np.float64)
        b = np.zeros(2, dtype=np.float32)
        task = make_task(accesses=[In(a), Out(b)])
        assert task.input_bytes == 32
        assert task.output_bytes == 8

    def test_run_invokes_function(self):
        src = np.arange(4, dtype=float)
        dst = np.zeros(4)

        def body(x, y):
            y[:] = 2 * x

        task = make_task(accesses=[In(src), Out(dst)], fn=body, args=(src, dst))
        task.run()
        assert dst.tolist() == [0.0, 2.0, 4.0, 6.0]

    def test_default_cost_model_positive_and_monotonic(self):
        small = make_task(accesses=[In(np.zeros(4)), Out(np.zeros(4))])
        large = make_task(accesses=[In(np.zeros(4096)), Out(np.zeros(4096))])
        assert 0 < small.simulated_cost() < large.simulated_cost()

    def test_tasks_hash_by_identity(self):
        t1 = make_task()
        t2 = make_task()
        assert t1 != t2
        assert len({t1, t2}) == 2

    def test_label_includes_type_and_id(self):
        task = make_task()
        assert task.label.startswith("t#")

    def test_conflicting_accesses_rejected(self):
        array = np.zeros(4)
        with pytest.raises(TaskDefinitionError):
            make_task(accesses=[In(array), Out(array)])
