"""Ready-queue statistics consistency under concurrent churn.

Invariants (relied on by Figure 8 and the perf harness):

* after a full drain ``total_pushes == total_pops == tasks`` — batched
  pushes (``push_many``) count every member exactly once;
* ``max_depth`` is sane: at least 1 once anything was queued, never more
  than the number of tasks ever pushed;
* no task is lost or duplicated.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.runtime.data import Out
from repro.runtime.ready_queue import FIFOReadyQueue
from repro.runtime.task import Task, TaskType

TT = TaskType("rq-stats")


def make_tasks(n):
    return [
        Task(task_type=TT, function=lambda: None,
             accesses=[Out(np.zeros(2))], task_id=i)
        for i in range(n)
    ]



class TestSerialConsistency:
    def test_push_many_counts_every_member(self):
        queue = FIFOReadyQueue()
        tasks = make_tasks(10)
        queue.push_many(tasks[:6])
        for task in tasks[6:]:
            queue.push(task)
        assert queue.stats.total_pushes == 10
        assert len(queue) == 10
        popped = []
        for worker in range(32):
            while (task := queue.pop(worker % 4)) is not None:
                popped.append(task)
        assert queue.stats.total_pops == 10
        assert sorted(t.task_id for t in popped) == list(range(10))
        assert 1 <= queue.stats.max_depth <= 10

    def test_push_many_empty_batch_is_noop(self):
        queue = FIFOReadyQueue()
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


class TestLegacyQueueCompatibility:
    def test_scheduler_tasks_ready_without_push_many(self):
        """Custom queues registered through the public scheduler seam that
        implement only the pre-batch interface (push/pop/__len__) must keep
        working: tasks_ready degrades to per-task pushes."""
        from repro.runtime.scheduler import Scheduler

        class LegacyQueue:
            def __init__(self):
                self.pushed = []

            def push(self, task):
                self.pushed.append(task)

            def pop(self, worker_id=0):
                return self.pushed.pop(0) if self.pushed else None

            def __len__(self):
                return len(self.pushed)

        queue = LegacyQueue()
        scheduler = Scheduler(queue)
        tasks = make_tasks(3)
        scheduler.tasks_ready(tasks)
        assert [t.task_id for t in queue.pushed] == [0, 1, 2]


class TestThreadedChurn:
    def test_pushes_equal_pops_under_concurrent_churn(self):
        workers = 4
        per_pusher = 200
        pushers = 3
        total = pushers * per_pusher
        queue = FIFOReadyQueue()
        popped: list[list[Task]] = [[] for _ in range(workers)]
        stop = threading.Event()

        def pusher(pusher_id: int) -> None:
            tasks = make_tasks(per_pusher)
            for lo in range(0, per_pusher, 16):
                chunk = tasks[lo:lo + 16]
                if lo % 32:
                    for task in chunk:
                        queue.push(task)
                else:
                    queue.push_many(chunk)

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
