"""Ready queues.

When all dependences of a task are satisfied it is moved to the ready queue
(``RQ`` in the paper's Figure 1) from which idle worker threads pull work.
Three implementations are provided, all thread-safe:

* :class:`FIFOReadyQueue` — creation-order service, the Nanos++ default;
* :class:`LIFOReadyQueue` — depth-first service, better locality for some
  workloads;
* :class:`WorkStealingDeques` — one deque per worker with random stealing.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.runtime.task import Task

__all__ = ["FIFOReadyQueue", "LIFOReadyQueue", "WorkStealingDeques"]


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

    def push(self, task: Task, worker_hint: Optional[int] = None) -> None:
        with self._lock:
            self._queue.append(task)
            self.stats.on_push(len(self._queue))

    def push_many(
        self,
        tasks: Sequence[Task],
        worker_hints: Optional[Sequence[int]] = None,
    ) -> None:
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


class LIFOReadyQueue(FIFOReadyQueue):
    """Last-in-first-out variant (pops the most recently released task)."""

    def pop(self, worker_id: int = 0) -> Optional[Task]:
        with self._lock:
            if not self._queue:
                return None
            self.stats.on_pop()
            return self._queue.pop()


class WorkStealingDeques:
    """Per-worker deques with random-victim stealing.

    A worker pushes and pops from the tail of its own deque and steals from
    the head of a random victim when its own deque is empty.  A task pushed
    without a hint goes to the deque of its ``creation_index`` (its task id
    once a graph holds it), so a release set spreads round-robin.
    """

    def __init__(self, num_workers: int, seed: int = 0) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._deques: list[deque[Task]] = [deque() for _ in range(num_workers)]
        self._locks = [threading.Lock() for _ in range(num_workers)]
        self._rng = np.random.default_rng(seed)
        self._rng_lock = threading.Lock()
        # Stats are kept *per deque* and only under the deque lock the
        # operation already holds (pushes and pops touch different locks, so
        # one shared counter object would either race or re-serialise the
        # whole structure on a global stats lock).  ``stats`` aggregates on
        # read: totals are exact after a drain; ``max_depth`` is the sum of
        # per-deque maxima — an upper bound on the true global maximum,
        # never exceeding total pushes (the same approximate character the
        # sampled global sums always had under concurrency).
        self._push_counts = [0] * num_workers
        self._pop_counts = [0] * num_workers
        self._depth_maxes = [0] * num_workers
        self._num_workers = num_workers

    @property
    def stats(self) -> ReadyQueueStats:
        """Aggregated snapshot of the per-deque counters."""
        snapshot = ReadyQueueStats()
        snapshot.total_pushes = sum(self._push_counts)
        snapshot.total_pops = sum(self._pop_counts)
        snapshot.max_depth = sum(self._depth_maxes)
        return snapshot

    def _record_push(self, target: int, count: int) -> None:
        """Update ``target``'s counters; caller holds ``_locks[target]``."""
        self._push_counts[target] += count
        depth = len(self._deques[target])
        if depth > self._depth_maxes[target]:
            self._depth_maxes[target] = depth

    def push(self, task: Task, worker_hint: Optional[int] = None) -> None:
        target = worker_hint if worker_hint is not None else task.creation_index
        target %= self._num_workers
        with self._locks[target]:
            self._deques[target].append(task)
            self._record_push(target, 1)

    def push_many(
        self,
        tasks: Sequence[Task],
        worker_hints: Optional[Sequence[int]] = None,
    ) -> None:
        """Distribute a batch to the hinted deques, one lock per target deque
        (placement is identical to pushing one by one with the same hints)."""
        if not tasks:
            return
        num_workers = self._num_workers
        grouped: dict[int, list[Task]] = {}
        for index, task in enumerate(tasks):
            hint = worker_hints[index] if worker_hints is not None else task.creation_index
            grouped.setdefault(hint % num_workers, []).append(task)
        for target, group in grouped.items():
            with self._locks[target]:
                self._deques[target].extend(group)
                self._record_push(target, len(group))

    def pop(self, worker_id: int = 0) -> Optional[Task]:
        worker_id %= self._num_workers
        with self._locks[worker_id]:
            if self._deques[worker_id]:
                self._pop_counts[worker_id] += 1
                return self._deques[worker_id].pop()
        # steal
        with self._rng_lock:
            order = self._rng.permutation(self._num_workers)
        for victim in order:
            victim = int(victim)
            if victim == worker_id:
                continue
            with self._locks[victim]:
                if self._deques[victim]:
                    self._pop_counts[victim] += 1
                    return self._deques[victim].popleft()
        return None

    def __len__(self) -> int:
        return sum(len(d) for d in self._deques)
