"""The scheduler: the runtime's one FIFO ready queue.

Service order is push order across ``task_ready`` and ``tasks_ready``, and
the occupancy statistics (relied on by Figure 8 and the benchmark) hold
under concurrent churn:

* after a full drain ``total_pushes == total_pops == tasks`` — batched
  pushes (``tasks_ready``) count every member exactly once;
* ``max_depth`` is sane: at least 1 once anything was queued, never more
  than the number of tasks ever pushed;
* no task is lost or duplicated.

With one worker, every in-process backend runs independent tasks in the
order they were submitted, one at a time or batched.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.runtime.data import Out
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import Task, TaskType
from repro.session import Session

TT = TaskType("scheduler-test")
STEP = TaskType("scheduler-order", memoizable=False)


def make_tasks(n):
    return [
        Task(task_type=TT, function=lambda: None,
             accesses=[Out(np.zeros(2))], task_id=i)
        for i in range(n)
    ]


def drain(scheduler):
    popped = []
    while (task := scheduler.next_task()) is not None:
        popped.append(task.task_id)
    return popped


class TestFIFOOrder:
    def test_task_ready_order(self):
        scheduler = Scheduler()
        for task in make_tasks(4):
            scheduler.task_ready(task)
        assert drain(scheduler) == [0, 1, 2, 3]

    def test_tasks_ready_preserves_service_order(self):
        scheduler = Scheduler()
        tasks = make_tasks(8)
        scheduler.tasks_ready(tasks[:4])
        scheduler.tasks_ready(tasks[4:])
        assert drain(scheduler) == list(range(8))

    def test_batched_and_single_pushes_interleave_in_push_order(self):
        scheduler = Scheduler()
        tasks = make_tasks(10)
        scheduler.task_ready(tasks[0])
        scheduler.tasks_ready(tasks[1:5])
        assert scheduler.next_task() is tasks[0]
        scheduler.task_ready(tasks[5])
        scheduler.tasks_ready(tasks[6:])
        assert drain(scheduler) == list(range(1, 10))

    def test_next_task_on_empty_returns_none(self):
        scheduler = Scheduler()
        assert scheduler.next_task() is None
        scheduler.task_ready(make_tasks(1)[0])
        scheduler.next_task()
        assert scheduler.next_task() is None
        assert scheduler.stats.total_pops == 1

    def test_a_refused_head_stays_queued(self):
        scheduler = Scheduler()
        tasks = make_tasks(3)
        scheduler.tasks_ready(tasks)
        assert scheduler.next_task(lambda task: task.task_id != 1) is tasks[0]
        assert scheduler.next_task(lambda task: task.task_id != 1) is None
        assert scheduler.pending() == 2
        assert scheduler.stats.total_pops == 1
        assert drain(scheduler) == [1, 2]

    def test_pending(self):
        scheduler = Scheduler()
        assert scheduler.pending() == 0
        tasks = make_tasks(5)
        scheduler.task_ready(tasks[0])
        scheduler.tasks_ready(tasks[1:])
        assert scheduler.pending() == 5
        scheduler.next_task()
        assert scheduler.pending() == 4


def record(out: np.ndarray, index: int, log: list) -> None:
    log.append(index)
    out[0] = index


@pytest.mark.parametrize("backend", ["serial", "threaded", "simulated"])
def test_one_worker_runs_independent_tasks_in_submission_order(backend):
    log: list[int] = []
    blocks = [np.zeros(1) for _ in range(12)]
    specs = [(STEP, record, [Out(block)], (block, i, log)) for i, block in enumerate(blocks)]
    with Session(executor=backend, cores=1) as s:
        for spec in specs[:4]:
            s.submit(*spec)
        s.submit_batch(specs[4:8])
        with s.batch():
            for spec in specs[8:]:
                s.submit(*spec)
    assert log == list(range(12))
    assert [block[0] for block in blocks] == list(range(12))


class TestStats:
    def test_counts_and_depth(self):
        scheduler = Scheduler()
        for task in make_tasks(3):
            scheduler.task_ready(task)
        scheduler.next_task()
        assert scheduler.stats.total_pushes == 3
        assert scheduler.stats.total_pops == 1
        assert scheduler.stats.max_depth == 3

    def test_tasks_ready_counts_every_member(self):
        scheduler = Scheduler()
        tasks = make_tasks(10)
        scheduler.tasks_ready(tasks[:6])
        for task in tasks[6:]:
            scheduler.task_ready(task)
        assert scheduler.stats.total_pushes == 10
        assert scheduler.pending() == 10
        assert sorted(drain(scheduler)) == list(range(10))
        assert scheduler.stats.total_pops == 10
        assert scheduler.stats.max_depth == 10

    def test_max_depth_is_the_high_water_mark(self):
        scheduler = Scheduler()
        tasks = make_tasks(6)
        scheduler.tasks_ready(tasks[:4])
        drain(scheduler)
        scheduler.tasks_ready(tasks[4:])
        assert scheduler.stats.max_depth == 4

    def test_empty_batch_is_noop(self):
        scheduler = Scheduler()
        scheduler.tasks_ready([])
        assert scheduler.stats.total_pushes == 0
        assert scheduler.stats.max_depth == 0
        assert scheduler.pending() == 0


class TestThreadedChurn:
    def test_pushes_equal_pops_under_concurrent_churn(self):
        workers = 4
        per_pusher = 200
        pushers = 3
        total = pushers * per_pusher
        scheduler = Scheduler()
        popped: list[list[Task]] = [[] for _ in range(workers)]
        stop = threading.Event()

        def pusher(pusher_id: int) -> None:
            tasks = make_tasks(per_pusher)
            for lo in range(0, per_pusher, 16):
                chunk = tasks[lo:lo + 16]
                if lo % 32:
                    for task in chunk:
                        scheduler.task_ready(task)
                else:
                    scheduler.tasks_ready(chunk)

        def popper(worker_id: int) -> None:
            sink = popped[worker_id]
            while not stop.is_set():
                task = scheduler.next_task()
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
        assert scheduler.stats.total_pushes == total
        assert scheduler.stats.total_pops == total
        assert 1 <= scheduler.stats.max_depth <= total
        assert scheduler.pending() == 0
        # No duplication: every pushed Task object drained exactly once.
        seen = [id(t) for sink in popped for t in sink]
        assert len(seen) == len(set(seen))
