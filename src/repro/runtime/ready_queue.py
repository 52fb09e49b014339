"""Ready queues.

When all dependences of a task are satisfied it is moved to the ready queue
(``RQ`` in the paper's Figure 1) from which idle worker threads pull work.
:class:`FIFOReadyQueue` is the one builtin: creation-order service under one
lock, the Nanos++ default.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional, Sequence

from repro.runtime.task import Task

__all__ = ["FIFOReadyQueue"]


class ReadyQueueStats:
    """Running statistics about ready-queue occupancy.

    Sampled occupancies feed Figure 8 (number of ready tasks over time).
    The invariant tests rely on ``total_pushes`` counting every task that
    ever entered the queue (batched pushes count each member) and
    ``total_pops`` every task handed to a worker, so after a full drain
    ``total_pushes == total_pops``.
    """

    def __init__(self) -> None:
        self.max_depth = 0
        self.total_pushes = 0
        self.total_pops = 0

    def on_push(self, depth: int) -> None:
        self.total_pushes += 1
        if depth > self.max_depth:
            self.max_depth = depth

    def on_push_many(self, count: int, depth: int) -> None:
        """Record ``count`` tasks entering at once; ``depth`` is the final
        occupancy (the maximum during a monotonic batch append)."""
        self.total_pushes += count
        if depth > self.max_depth:
            self.max_depth = depth

    def on_pop(self) -> None:
        self.total_pops += 1


class FIFOReadyQueue:
    """First-in-first-out ready queue protected by a single lock."""

    def __init__(self) -> None:
        self._queue: deque[Task] = deque()
        self._lock = threading.Lock()
        self.stats = ReadyQueueStats()

    def push(self, task: Task) -> None:
        with self._lock:
            self._queue.append(task)
            self.stats.on_push(len(self._queue))

    def push_many(self, tasks: Sequence[Task]) -> None:
        """Append a whole batch under one lock acquisition (service order is
        identical to pushing one by one)."""
        if not tasks:
            return
        with self._lock:
            self._queue.extend(tasks)
            self.stats.on_push_many(len(tasks), len(self._queue))

    def pop(self, worker_id: int = 0) -> Optional[Task]:
        with self._lock:
            if not self._queue:
                return None
            self.stats.on_pop()
            return self._queue.popleft()

    def __len__(self) -> int:
        with self._lock:
            return len(self._queue)
