"""Tests for ready queues and schedulers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.config import RuntimeConfig
from repro.common.exceptions import ConfigurationError, SchedulerError
from repro.runtime.data import Out
from repro.runtime.ready_queue import FIFOReadyQueue
from repro.runtime.scheduler import Scheduler, make_scheduler
from repro.runtime.task import Task, TaskType

TT = TaskType("queue-test")


def make_task(index: int) -> Task:
    return Task(task_type=TT, function=lambda: None, accesses=[Out(np.zeros(2))], task_id=index)


class TestFIFOQueue:
    def test_order(self):
        queue = FIFOReadyQueue()
        tasks = [make_task(i) for i in range(4)]
        for task in tasks:
            queue.push(task)
        assert [queue.pop().task_id for _ in range(4)] == [0, 1, 2, 3]

    def test_pop_empty_returns_none(self):
        assert FIFOReadyQueue().pop() is None

    def test_len(self):
        queue = FIFOReadyQueue()
        queue.push(make_task(0))
        assert len(queue) == 1

    def test_stats(self):
        queue = FIFOReadyQueue()
        for i in range(3):
            queue.push(make_task(i))
        queue.pop()
        assert queue.stats.total_pushes == 3
        assert queue.stats.total_pops == 1
        assert queue.stats.max_depth == 3


class TestScheduler:
    def test_make_scheduler_fifo(self):
        scheduler = make_scheduler(RuntimeConfig(scheduler="fifo"))
        assert isinstance(scheduler, Scheduler)

    @pytest.mark.parametrize("name", ["lifo", "work_stealing"])
    def test_fifo_is_the_one_builtin(self, name):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            RuntimeConfig(scheduler=name)
        scheduler = make_scheduler(RuntimeConfig(num_threads=2))
        task = make_task(0)
        scheduler.task_ready(task)
        assert scheduler.next_task(0) is task

    def test_pending_count(self):
        scheduler = make_scheduler(RuntimeConfig())
        scheduler.task_ready(make_task(0))
        scheduler.task_ready(make_task(1))
        assert scheduler.pending() == 2

    def test_unknown_scheduler_rejected_by_config(self):
        with pytest.raises(ConfigurationError):
            RuntimeConfig(scheduler="bogus")
