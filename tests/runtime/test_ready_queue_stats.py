"""Ready-queue statistics consistency under concurrent churn.

Invariants (relied on by Figure 8 and the perf harness):

* after a full drain ``total_pushes == total_pops == tasks`` — batched
  pushes (``push_many``) count every member exactly once;
* ``max_depth`` is sane: at least 1 once anything was queued, never more
  than the number of tasks ever pushed;
* no task is lost or duplicated across FIFO / LIFO / work-stealing queues.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.runtime.data import Out
from repro.runtime.ready_queue import (
    FIFOReadyQueue,
    LIFOReadyQueue,
    WorkStealingDeques,
)
from repro.runtime.task import Task, TaskType

TT = TaskType("rq-stats")


def make_tasks(n):
    return [
        Task(task_type=TT, function=lambda: None,
             accesses=[Out(np.zeros(2))], task_id=i)
        for i in range(n)
    ]


def make_queue(kind: str, workers: int = 4):
    if kind == "fifo":
        return FIFOReadyQueue()
    if kind == "lifo":
        return LIFOReadyQueue()
    return WorkStealingDeques(workers, seed=7)


QUEUE_KINDS = ("fifo", "lifo", "work_stealing")


class TestSerialConsistency:
    @pytest.mark.parametrize("kind", QUEUE_KINDS)
    def test_push_many_counts_every_member(self, kind):
        queue = make_queue(kind)
        tasks = make_tasks(10)
        queue.push_many(tasks[:6], worker_hints=list(range(6)))
        for task in tasks[6:]:
            queue.push(task, worker_hint=task.task_id)
        assert queue.stats.total_pushes == 10
        assert len(queue) == 10
        popped = []
        for worker in range(32):
            while (task := queue.pop(worker % 4)) is not None:
                popped.append(task)
        assert queue.stats.total_pops == 10
        assert sorted(t.task_id for t in popped) == list(range(10))
        assert 1 <= queue.stats.max_depth <= 10

    @pytest.mark.parametrize("kind", QUEUE_KINDS)
    def test_push_many_empty_batch_is_noop(self, kind):
        queue = make_queue(kind)
        queue.push_many([])
        assert queue.stats.total_pushes == 0
        assert queue.stats.max_depth == 0

    def test_fifo_push_many_preserves_service_order(self):
        queue = FIFOReadyQueue()
        tasks = make_tasks(8)
        queue.push_many(tasks[:4])
        queue.push_many(tasks[4:])
        order = [queue.pop().task_id for _ in range(8)]
        assert order == list(range(8))

    def test_lifo_push_many_matches_per_task_pushes(self):
        batched, singly = LIFOReadyQueue(), LIFOReadyQueue()
        tasks = make_tasks(6)
        batched.push_many(tasks)
        for task in tasks:
            singly.push(task)
        assert [batched.pop().task_id for _ in range(6)] == \
               [singly.pop().task_id for _ in range(6)]

    def test_work_stealing_push_many_placement_matches_hints(self):
        queue = WorkStealingDeques(4, seed=3)
        tasks = make_tasks(8)
        queue.push_many(tasks, worker_hints=[t.task_id for t in tasks])
        # Own-deque pops (no stealing needed) must find exactly the tasks
        # hinted onto each worker, tail-first.
        assert queue.pop(1).task_id == 5
        assert queue.pop(1).task_id == 1
        assert queue.pop(3).task_id == 7
        assert queue.stats.total_pops == 3

    def test_work_stealing_unhinted_placement_follows_creation_index(self):
        """The executor's release path passes no hints: a task's home deque
        is its creation index, exactly where the explicit hint put it."""
        from repro.runtime.scheduler import Scheduler

        tasks = make_tasks(11)
        for task in tasks:
            task.creation_index = 3 * task.task_id + 1
        hinted = Scheduler(WorkStealingDeques(4, seed=5))
        unhinted = Scheduler(WorkStealingDeques(4, seed=5))
        hinted.tasks_ready(tasks[:7], worker_hints=[t.creation_index for t in tasks[:7]])
        unhinted.tasks_ready(tasks[:7])
        for task in tasks[7:]:
            hinted.task_ready(task, worker_hint=task.creation_index)
            unhinted.task_ready(task)
        order = [(hinted.next_task(w % 4), unhinted.next_task(w % 4)) for w in range(11)]
        assert [a.task_id for a, _ in order] == [b.task_id for _, b in order]
        # Own-deque pops first: worker 0 finds the tasks whose index is 0 mod 4.
        assert order[0][0].task_id == 9 and order[4][0].task_id == 5


class TestLegacyQueueCompatibility:
    def test_scheduler_tasks_ready_without_push_many(self):
        """Custom queues registered through the public scheduler seam that
        implement only the pre-batch interface (push/pop/__len__) must keep
        working: tasks_ready degrades to per-task pushes."""
        from repro.runtime.scheduler import Scheduler

        class LegacyQueue:
            def __init__(self):
                self.pushed = []

            def push(self, task, worker_hint=None):
                self.pushed.append((task, worker_hint))

            def pop(self, worker_id=0):
                return self.pushed.pop(0)[0] if self.pushed else None

            def __len__(self):
                return len(self.pushed)

        queue = LegacyQueue()
        scheduler = Scheduler(queue)
        tasks = make_tasks(3)
        scheduler.tasks_ready(tasks, worker_hints=[7, 8, 9])
        assert [(t.task_id, h) for t, h in queue.pushed] == \
               [(0, 7), (1, 8), (2, 9)]


class TestThreadedChurn:
    @pytest.mark.parametrize("kind", QUEUE_KINDS)
    def test_pushes_equal_pops_under_concurrent_churn(self, kind):
        workers = 4
        per_pusher = 200
        pushers = 3
        total = pushers * per_pusher
        queue = make_queue(kind, workers)
        popped: list[list[Task]] = [[] for _ in range(workers)]
        stop = threading.Event()

        def pusher(pusher_id: int) -> None:
            tasks = make_tasks(per_pusher)
            for lo in range(0, per_pusher, 16):
                chunk = tasks[lo:lo + 16]
                if lo % 32:
                    for offset, task in enumerate(chunk):
                        queue.push(task, worker_hint=lo + offset)
                else:
                    queue.push_many(
                        chunk, worker_hints=list(range(lo, lo + len(chunk)))
                    )

        def popper(worker_id: int) -> None:
            sink = popped[worker_id]
            while not stop.is_set():
                task = queue.pop(worker_id)
                if task is not None:
                    sink.append(task)

        popper_threads = [
            threading.Thread(target=popper, args=(i,), daemon=True)
            for i in range(workers)
        ]
        pusher_threads = [
            threading.Thread(target=pusher, args=(i,), daemon=True)
            for i in range(pushers)
        ]
        for thread in popper_threads + pusher_threads:
            thread.start()
        for thread in pusher_threads:
            thread.join(timeout=30.0)
        deadline = threading.Event()
        for _ in range(2000):
            if sum(len(s) for s in popped) == total:
                break
            deadline.wait(0.005)
        stop.set()
        for thread in popper_threads:
            thread.join(timeout=5.0)

        assert sum(len(s) for s in popped) == total, "tasks lost or stuck"
        assert queue.stats.total_pushes == total
        assert queue.stats.total_pops == total
        assert 1 <= queue.stats.max_depth <= total
        # No duplication: every pushed Task object drained exactly once.
        seen = [id(t) for sink in popped for t in sink]
        assert len(seen) == len(set(seen))
