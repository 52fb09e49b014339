"""Task dependence graph (TDG).

The TDG is a DAG whose nodes are tasks and whose edges are the dependences
produced by :class:`repro.runtime.dependences.DependenceTracker`.  The graph
tracks, per task, the number of unsatisfied predecessors; when it drops to
zero the task becomes *ready* and is handed to the scheduler.

The class is thread-safe: the threaded executor completes tasks from worker
threads while the master may still be adding tasks.

The graph holds only live tasks.  A task's bookkeeping sits on its own
slots — the pending-predecessor count (``Task._pending``) and the successor
slab (``Task._successors``, the graph's one adjacency) — and completion or
cancellation consumes the slab and drops it.  A successful completion also
takes the task out of the dependence tracker's states, so nothing the
runtime keeps references a finished task: memory follows the live window,
not the history of a Session or gateway.  The graph itself keeps the set of
tasks not yet terminal and three counters.  Edges are not retained, so
whole-DAG analyses are not the graph's: a caller that wants the edges
records the predecessor lists of ``DependenceTracker.dependences_for`` as
they are made.
:meth:`add_tasks` submits a whole batch under one lock acquisition and hands
every immediately-ready task to the executor in a single batched
notification (``on_ready_batch``), which is how ``Session.submit_batch``
amortises per-task overhead.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence

from repro.common.exceptions import RuntimeStateError
from repro.runtime.dependences import DependenceTracker
from repro.runtime.task import TERMINAL_STATES, Task, TaskState

__all__ = ["TaskDependenceGraph"]


class TaskDependenceGraph:
    """A dynamic task dependence graph with ready-task notification.

    ``on_ready`` is invoked (under the graph lock) for every task whose
    dependences become satisfied; ``on_ready_batch``, when provided, replaces
    per-task callbacks for batched submissions (one call per
    :meth:`add_tasks` / :meth:`complete_task` release set), letting the
    executor push the whole set into its ready queue under one queue lock.

    ``on_complete`` is invoked *outside* the graph lock for every terminal
    transition — ``FINISHED``/``MEMOIZED`` completions, ``FAILED`` tasks,
    ``CANCELLED`` successors of a quarantined failure, and tasks born
    cancelled because they depend on already-quarantined work.  It runs on
    whichever thread drove the transition (the drain thread on every
    backend; the submitting thread for a task born cancelled) and is the
    serving layer's per-task accounting/admission seam; because it runs
    lock-free it may safely submit follow-up tasks back into the same
    graph.  Callbacks must not raise — an exception propagates into the
    completing executor.  Once it has run, the task's ``owner`` is dropped:
    a task a caller keeps pins no Session, engine or tenant.

    ``on_born_cancelled(task, predecessor)`` is invoked, also outside the
    lock and before ``on_complete``, for a task born cancelled: the
    executor's accounting seam (``BaseExecutor.notify_born_cancelled``), so
    the run result counts the task and the report of the failure that doomed
    it — through ``predecessor`` — names it.
    """

    def __init__(
        self,
        on_ready: Optional[Callable[[Task], None]] = None,
        on_ready_batch: Optional[Callable[[Sequence[Task]], None]] = None,
        on_complete: Optional[Callable[[Task], None]] = None,
        on_born_cancelled: Optional[Callable[[Task, Task], None]] = None,
    ) -> None:
        self._lock = threading.RLock()
        self._tracker = DependenceTracker()
        #: Tasks added and not yet terminal.
        self._live: set[Task] = set()
        self._task_count = 0
        self._edge_count = 0
        self._next_id = 0
        self._on_ready = on_ready
        self._on_ready_batch = on_ready_batch
        self._on_complete = on_complete
        self._on_born_cancelled = on_born_cancelled
        #: ``(task, dooming predecessor)`` pairs not yet reported.
        self._born_cancelled: list[tuple[Task, Task]] = []

    # -- construction ---------------------------------------------------------
    def _add_locked(self, task: Task) -> bool:
        """Register one task under the lock; True if immediately ready."""
        task_id = task.task_id
        if task_id < 0:
            task_id = task.task_id = self._next_id
        if task_id >= self._next_id:
            self._next_id = task_id + 1
        task.creation_index = task_id
        task._label = None  # recomputed lazily from the assigned id
        predecessors = self._tracker.dependences_for(task)
        pending = 0
        doomed: Optional[Task] = None
        if predecessors:
            finished, memoized = TaskState.FINISHED, TaskState.MEMOIZED
            failed, cancelled = TaskState.FAILED, TaskState.CANCELLED
            for pred in predecessors:
                state = pred.state
                if state is failed or state is cancelled:
                    # A dependence on quarantined work can never be satisfied:
                    # the new task is born cancelled (no edge, no release).
                    doomed = pred
                elif state is not finished and state is not memoized:
                    slab = pred._successors
                    if slab is None:
                        slab = pred._successors = []
                    slab.append(task)
                    pending += 1
            self._edge_count += pending
        task._pending = pending
        self._task_count += 1
        if doomed is not None:
            task.state = TaskState.CANCELLED
            self._born_cancelled.append((task, doomed))
            return False
        self._live.add(task)
        return pending == 0

    def add_task(self, task: Task) -> Task:
        """Register a task, compute its dependences and maybe mark it ready."""
        with self._lock:
            if self._add_locked(task):
                self._mark_ready(task)
            doomed = self._born_cancelled
            if doomed:  # the common, empty list stays in place
                self._born_cancelled = []
        if doomed:
            self._report_born_cancelled(doomed)
        return task

    def add_tasks(self, tasks: Iterable[Task]) -> list[Task]:
        """Register a batch of tasks under one lock acquisition.

        Dependences are computed in iteration order (identical to submitting
        one by one); every task that is immediately ready is handed to the
        executor in a single batched notification.  Returns the tasks, as a
        list.
        """
        submitted: list[Task] = []
        ready: list[Task] = []
        doomed: Sequence[tuple[Task, Task]] = ()
        try:
            with self._lock:
                try:
                    for task in tasks:
                        if self._add_locked(task):
                            ready.append(task)
                        submitted.append(task)
                finally:
                    # An iterator that raises mid-batch stops it, but every
                    # task before it is already live — notify those on every
                    # path or a later drain would hang waiting for tasks no
                    # scheduler has.
                    doomed = self._born_cancelled
                    if doomed:
                        self._born_cancelled = []
                    if ready:
                        self._mark_ready_batch(ready)
        finally:
            self._report_born_cancelled(doomed)
        return submitted

    def _report_born_cancelled(self, doomed: Sequence[tuple[Task, Task]]) -> None:
        """Born cancelled (doomed dependence): terminal at submission."""
        for task, predecessor in doomed:
            if self._on_born_cancelled is not None:
                self._on_born_cancelled(task, predecessor)
            if self._on_complete is not None:
                self._on_complete(task)
            task.owner = None

    def _mark_ready(self, task: Task) -> None:
        task.state = TaskState.READY
        if self._on_ready is not None:
            self._on_ready(task)

    def _mark_ready_batch(self, tasks: list[Task]) -> None:
        for task in tasks:
            task.state = TaskState.READY
        if self._on_ready_batch is not None:
            self._on_ready_batch(tasks)
        elif self._on_ready is not None:
            for task in tasks:
                self._on_ready(task)

    # -- completion -----------------------------------------------------------
    def _check_live(self, task: Task) -> None:
        if task not in self._live:
            if task.state in TERMINAL_STATES:
                raise RuntimeStateError(f"task {task.label} completed twice")
            raise RuntimeStateError(f"unknown task {task.label}")

    def complete_task(self, task: Task, state: TaskState = TaskState.FINISHED) -> list[Task]:
        """Mark a task terminal and return the newly released (ready) tasks.

        The success transition (``FINISHED`` / ``MEMOIZED``): the task
        leaves the graph and the dependence tracker, and its successor slab
        is consumed.
        """
        with self._lock:
            self._check_live(task)
            # Commit the write accesses: bump every output region's version
            # *before* releasing successors, so any consumer key computed
            # after this point sees the post-write version.  (Memoized tasks
            # wrote through copy_from, executed tasks through the task body;
            # either way the regions' bytes may have changed.)  A task served
            # from a THT entry in this process leaves its outputs tagged with
            # that placement; every other completion clears their tags.
            source = task.memo_source
            if source is None or state is not TaskState.MEMOIZED:
                for access in task.accesses:
                    if access.writes:
                        access.region.bump_version()
            else:
                for index, access in enumerate(task.outputs):
                    access.region.bump_version(source, index)
                # The tag holds the entry weakly; so must the finished task.
                task.memo_source = None
            task.state = state
            self._live.remove(task)
            self._tracker.forget(task)
            released: list[Task] = []
            successors = task._successors
            if successors:
                task._successors = None
                for succ in successors:
                    pending = succ._pending = succ._pending - 1
                    # A successor already terminal was CANCELLED by a failed
                    # sibling predecessor (fail_task): keep its count honest
                    # but never hand it to the scheduler.
                    if pending == 0 and succ.state not in TERMINAL_STATES:
                        released.append(succ)
                if released:
                    self._mark_ready_batch(released)
        if self._on_complete is not None:
            self._on_complete(task)
        task.owner = None
        return released

    def fail_task(
        self, task: Task, record: Optional[Callable[[list[Task]], None]] = None
    ) -> list[Task]:
        """Quarantine: mark ``task`` FAILED and cancel its dependent subgraph.

        The failed task and every transitive successor become terminal
        (``FAILED`` / ``CANCELLED``) without being released to the scheduler,
        so a drain completes with the independent tasks only.  They leave the
        graph but stay in the dependence tracker's states, so a task
        submitted later against their outputs is born cancelled.  The failed
        task's own write versions are bumped: its outputs carry no committed
        value, but the body may have written part of them before failing, and
        no cached digest or content tag may outlive that.
        ``record`` is called with the cancelled tasks inside the transition,
        before any barrier wakes or ``on_complete`` fires: whoever observes
        the failed state also finds its failure report.
        Returns the cancelled tasks (the failed task itself excluded).
        """
        with self._lock:
            self._check_live(task)
            for access in task.outputs:
                access.region.bump_version()
            task.state = TaskState.FAILED
            live = self._live
            live.remove(task)
            cancelled: list[Task] = []
            stack = [task]
            while stack:
                doomed = stack.pop()
                successors = doomed._successors
                if not successors:
                    continue
                doomed._successors = None
                for succ in successors:
                    if succ.state in TERMINAL_STATES:
                        continue
                    succ.state = TaskState.CANCELLED
                    live.remove(succ)
                    cancelled.append(succ)
                    stack.append(succ)
            if record is not None:
                record(cancelled)
        for doomed in (task, *cancelled):
            if self._on_complete is not None:
                self._on_complete(doomed)
            doomed.owner = None
        return cancelled

    # -- queries --------------------------------------------------------------
    @property
    def task_count(self) -> int:
        """Tasks ever added, born-cancelled ones included."""
        return self._task_count

    @property
    def edge_count(self) -> int:
        """Edges ever made: dependences on a predecessor that was live."""
        return self._edge_count

    @property
    def finished_count(self) -> int:
        """Tasks ever added that are terminal now."""
        with self._lock:
            return self._task_count - len(self._live)

    @property
    def live_count(self) -> int:
        """Tasks added and not yet terminal (read without the lock)."""
        return len(self._live)

    @property
    def all_finished(self) -> bool:
        return not self._live

    def pending_tasks(self) -> list[Task]:
        """The live tasks (added, not yet terminal), in no set order."""
        with self._lock:
            return list(self._live)
