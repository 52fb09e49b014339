"""The scheduler: the ready queue between the TDG and the workers.

When all dependences of a task are satisfied it is moved to the ready queue
(``RQ`` in the paper's Figure 1) from which idle workers pull work.  The
runtime has one: a central FIFO under one lock, the Nanos++ default the
paper uses, so every backend serves ready tasks in the order they became
ready.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Optional, Sequence

from repro.runtime.task import Task

__all__ = ["Scheduler"]


class ReadyQueueStats:
    """Running statistics about ready-queue occupancy.

    Figure 8 samples :meth:`Scheduler.pending` over time; these are the
    running totals beside it (the benchmark reads ``max_depth``).  The
    invariant tests rely on ``total_pushes`` counting every task that ever
    entered the queue (batched pushes count each member) and ``total_pops``
    every task handed to a worker, so after a full drain
    ``total_pushes == total_pops``.
    """

    def __init__(self) -> None:
        self.max_depth = 0
        self.total_pushes = 0
        self.total_pops = 0


class Scheduler:
    """First-in-first-out ready queue protected by a single lock."""

    def __init__(self) -> None:
        self._queue: deque[Task] = deque()
        self._lock = threading.Lock()
        self.stats = ReadyQueueStats()

    def task_ready(self, task: Task) -> None:
        """Called by the runtime when a task's dependences are satisfied."""
        with self._lock:
            self._queue.append(task)
            stats = self.stats
            stats.total_pushes += 1
            if len(self._queue) > stats.max_depth:
                stats.max_depth = len(self._queue)

    def tasks_ready(self, tasks: Sequence[Task]) -> None:
        """Batched :meth:`task_ready`: one lock acquisition per batch, in the
        service order of calling :meth:`task_ready` per task."""
        if not tasks:
            return
        with self._lock:
            self._queue.extend(tasks)
            stats = self.stats
            stats.total_pushes += len(tasks)
            # The batch only grows the queue: its final depth is its maximum.
            if len(self._queue) > stats.max_depth:
                stats.max_depth = len(self._queue)

    def next_task(self, admit: Optional[Callable[[Task], bool]] = None) -> Optional[Task]:
        """Called by an idle worker; ``None`` means no work is available, or
        ``admit`` refused the task at the head of the queue (it stays
        there)."""
        with self._lock:
            if not self._queue or (admit is not None and not admit(self._queue[0])):
                return None
            self.stats.total_pops += 1
            return self._queue.popleft()

    def pending(self) -> int:
        """Number of tasks currently waiting in the ready queue."""
        with self._lock:
            return len(self._queue)
