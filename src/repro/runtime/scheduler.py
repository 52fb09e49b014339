"""Schedulers: the policy layer between the TDG and the workers.

A scheduler owns a ready queue and decides which ready task an idle worker
receives.  The paper uses the Nanos++ default (a central FIFO ready queue,
``runtime.scheduler = "fifo"``); LIFO and work-stealing queues are the other
two builtins of the ``SCHEDULERS`` registry, selectable by the same field.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.common.config import RuntimeConfig
from repro.common.exceptions import ConfigurationError, SchedulerError
from repro.common.registry import SCHEDULERS
from repro.runtime.ready_queue import (
    FIFOReadyQueue,
    LIFOReadyQueue,
    WorkStealingDeques,
)
from repro.runtime.task import Task

__all__ = ["Scheduler", "make_scheduler"]


class Scheduler:
    """Wraps a ready queue behind a uniform push/pop interface."""

    def __init__(self, queue) -> None:
        self._queue = queue
        # Resolved once: custom queues registered through the scheduler seam
        # that predate ``push_many`` degrade to per-task pushes.
        self._push_many = getattr(queue, "push_many", None) or self._push_each

    def task_ready(self, task: Task, worker_hint: Optional[int] = None) -> None:
        """Called by the runtime when a task's dependences are satisfied."""
        self._queue.push(task, worker_hint)

    def tasks_ready(
        self,
        tasks: Sequence[Task],
        worker_hints: Optional[Sequence[int]] = None,
    ) -> None:
        """Batched :meth:`task_ready`: one queue-lock acquisition per batch.

        Service order and (for work stealing) deque placement are identical
        to calling :meth:`task_ready` per task with the same hints; without
        hints a task's home is its ``creation_index``.
        """
        self._push_many(tasks, worker_hints)

    def _push_each(
        self, tasks: Sequence[Task], worker_hints: Optional[Sequence[int]] = None
    ) -> None:
        push = self._queue.push
        for index, task in enumerate(tasks):
            push(task, worker_hints[index] if worker_hints is not None else None)

    def next_task(self, worker_id: int = 0) -> Optional[Task]:
        """Called by an idle worker; ``None`` means no work is available."""
        return self._queue.pop(worker_id)

    def pending(self) -> int:
        """Number of tasks currently waiting in the ready queue."""
        return len(self._queue)

    @property
    def stats(self):
        return self._queue.stats


# Builtin factories, resolved by name through the scheduler registry; plugins
# add their own with repro.session.SCHEDULERS.register(name, factory).
SCHEDULERS.register(
    "fifo", lambda config: Scheduler(FIFOReadyQueue()), replace=True
)
SCHEDULERS.register(
    "lifo", lambda config: Scheduler(LIFOReadyQueue()), replace=True
)
SCHEDULERS.register(
    "work_stealing",
    lambda config: Scheduler(WorkStealingDeques(config.num_threads, seed=config.seed)),
    replace=True,
)


def make_scheduler(config: RuntimeConfig) -> Scheduler:
    """Build the scheduler named by ``config.scheduler`` (registry lookup)."""
    try:
        factory = SCHEDULERS.factory(config.scheduler)
    except ConfigurationError as exc:
        raise SchedulerError(str(exc)) from exc
    return factory(config)
