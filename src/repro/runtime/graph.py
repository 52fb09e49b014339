"""Task dependence graph (TDG).

The TDG is a DAG whose nodes are tasks and whose edges are the dependences
produced by :class:`repro.runtime.dependences.DependenceTracker`.  The graph
tracks, per task, the number of unsatisfied predecessors; when it drops to
zero the task becomes *ready* and is handed to the scheduler.

The class is thread-safe: the threaded executor completes tasks from worker
threads while the master may still be adding tasks.

Submission fast path (see PERFORMANCE.md "Submission fast path"): per-task
bookkeeping lives in dense arrays keyed by task id — predecessor counts in a
flat ``list[int]``, successor slabs in a ``list[list[Task] | None]`` — so
the hot path performs list indexing instead of dict hashing.  The successor
slabs are the one adjacency: edges are kept for the lifetime of the graph
(completion does not erase them), and :meth:`critical_path_length` walks
them forward, so its answer is timing-independent.
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
    whichever thread drove the transition (a worker thread on the threaded
    backend, the drain thread elsewhere) and is the serving layer's per-task
    accounting/admission seam; because it runs lock-free it may safely
    submit follow-up tasks back into the same graph.  Callbacks must not
    raise — an exception propagates into the completing executor.

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
        # Dense, task-id-indexed bookkeeping (grown on demand):
        self._successors: list[Optional[list[Task]]] = []
        self._predecessor_count: list[int] = []
        self._tasks: dict[int, Task] = {}
        self._edge_count = 0
        self._finished_count = 0
        self._next_id = 0
        self._on_ready = on_ready
        self._on_ready_batch = on_ready_batch
        self._on_complete = on_complete
        self._on_born_cancelled = on_born_cancelled
        #: ``(task, dooming predecessor)`` pairs not yet reported.
        self._born_cancelled: list[tuple[Task, Task]] = []
        self._all_done = threading.Condition(self._lock)

    #: Largest accepted gap between an explicit task id and the next dense
    #: id.  The dense arrays allocate O(max id) slots; a sparse external id
    #: (a hash, say) would silently OOM where the pre-PR-4 dict was O(tasks).
    MAX_ID_GAP = 1 << 20

    # -- construction ---------------------------------------------------------
    def _grow(self, task_id: int) -> None:
        """Extend the dense arrays to cover ``task_id`` (geometric growth)."""
        needed = task_id + 1 - len(self._predecessor_count)
        if needed > 0:
            # Amortise: growing one slot per sequentially-ided task would
            # make every add pay a list-concat.
            needed = max(needed, len(self._predecessor_count) // 2 + 8)
            self._predecessor_count.extend([0] * needed)
            self._successors.extend([None] * needed)

    def _add_locked(self, task: Task) -> bool:
        """Register one task under the lock; True if immediately ready."""
        task_id = task.task_id
        if task_id < 0:
            task_id = task.task_id = self._next_id
            self._next_id = task_id + 1
        elif task_id >= self._next_id:
            if task_id - self._next_id > self.MAX_ID_GAP:
                raise RuntimeStateError(
                    f"task_id {task_id} is more than {self.MAX_ID_GAP} beyond "
                    f"the next dense id {self._next_id}; the graph's dense "
                    f"bookkeeping does not support sparse external ids — let "
                    f"the runtime assign ids (task_id=-1)"
                )
            self._next_id = task_id + 1
        task.creation_index = task_id
        task._label = None  # recomputed lazily from the assigned id
        if task_id >= len(self._predecessor_count):
            self._grow(task_id)
        predecessors = self._tracker.dependences_for(task)
        pending = 0
        doomed: Optional[Task] = None
        if predecessors:
            successors = self._successors
            finished, memoized = TaskState.FINISHED, TaskState.MEMOIZED
            failed, cancelled = TaskState.FAILED, TaskState.CANCELLED
            for pred in predecessors:
                state = pred.state
                if state is failed or state is cancelled:
                    # A dependence on quarantined work can never be satisfied:
                    # the new task is born cancelled (no edge, no release).
                    doomed = pred
                elif state is not finished and state is not memoized:
                    slab = successors[pred.task_id]
                    if slab is None:
                        slab = successors[pred.task_id] = []
                    slab.append(task)
                    pending += 1
            self._edge_count += pending
            self._predecessor_count[task_id] = pending
        self._tasks[task_id] = task
        if doomed is not None:
            task.state = TaskState.CANCELLED
            self._born_cancelled.append((task, doomed))
            self._finished_count += 1
            if self.all_finished:
                self._all_done.notify_all()
            return False
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
                    # A task that raised mid-batch (bad id, failing iterator)
                    # is not registered, but everything before it already
                    # counts toward all_finished — notify those on every path
                    # or a later drain would hang waiting for tasks no
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
    def complete_task(self, task: Task, state: TaskState = TaskState.FINISHED) -> list[Task]:
        """Mark a task terminal and return the newly released (ready) tasks."""
        with self._lock:
            if task.task_id not in self._tasks:
                raise RuntimeStateError(f"unknown task {task.label}")
            if task.state in TERMINAL_STATES:
                raise RuntimeStateError(f"task {task.label} completed twice")
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
                # The tag holds the entry weakly; so must the finished task,
                # or the graph would keep evicted entries' outputs alive.
                task.memo_source = None
            task.state = state
            self._finished_count += 1
            released: list[Task] = []
            successors = self._successors[task.task_id]
            if successors:
                counts = self._predecessor_count
                for succ in successors:
                    counts[succ.task_id] -= 1
                    # A successor already terminal was CANCELLED by a failed
                    # sibling predecessor (fail_task): keep its count honest
                    # but never hand it to the scheduler.
                    if counts[succ.task_id] == 0 and succ.state not in TERMINAL_STATES:
                        released.append(succ)
                if released:
                    self._mark_ready_batch(released)
            if self.all_finished:
                self._all_done.notify_all()
        if self._on_complete is not None:
            self._on_complete(task)
        return released

    def fail_task(
        self, task: Task, record: Optional[Callable[[list[Task]], None]] = None
    ) -> list[Task]:
        """Quarantine: mark ``task`` FAILED and cancel its dependent subgraph.

        The failed task and every transitive successor become terminal
        (``FAILED`` / ``CANCELLED``) without being released to the scheduler,
        so a drain completes with the independent tasks only.  The failed
        task's own write versions are bumped: its outputs carry no committed
        value, but the body may have written part of them before failing, and
        no cached digest or content tag may outlive that.
        ``record`` is called with the cancelled tasks inside the transition,
        before any barrier wakes or ``on_complete`` fires: whoever observes
        the failed state also finds its failure report.
        Returns the cancelled tasks (the failed task itself excluded).
        """
        with self._lock:
            if task.task_id not in self._tasks:
                raise RuntimeStateError(f"unknown task {task.label}")
            if task.state in TERMINAL_STATES:
                raise RuntimeStateError(f"task {task.label} completed twice")
            for access in task.outputs:
                access.region.bump_version()
            task.state = TaskState.FAILED
            self._finished_count += 1
            cancelled: list[Task] = []
            stack = [task]
            while stack:
                successors = self._successors[stack.pop().task_id]
                if not successors:
                    continue
                for succ in successors:
                    if succ.state in TERMINAL_STATES:
                        continue
                    succ.state = TaskState.CANCELLED
                    self._finished_count += 1
                    cancelled.append(succ)
                    stack.append(succ)
            if record is not None:
                record(cancelled)
            if self.all_finished:
                self._all_done.notify_all()
        if self._on_complete is not None:
            self._on_complete(task)
            for succ in cancelled:
                self._on_complete(succ)
        return cancelled

    # -- queries --------------------------------------------------------------
    @property
    def task_count(self) -> int:
        with self._lock:
            return len(self._tasks)

    @property
    def edge_count(self) -> int:
        with self._lock:
            return self._edge_count

    @property
    def finished_count(self) -> int:
        with self._lock:
            return self._finished_count

    @property
    def all_finished(self) -> bool:
        return self._finished_count == len(self._tasks)

    def tasks(self) -> list[Task]:
        with self._lock:
            return list(self._tasks.values())

    def pending_tasks(self) -> list[Task]:
        """Tasks not yet terminal."""
        with self._lock:
            return [t for t in self._tasks.values() if t.state not in TERMINAL_STATES]

    def wait_all_finished(self, timeout: Optional[float] = None) -> bool:
        """Block until every registered task is terminal."""
        with self._all_done:
            return self._all_done.wait_for(lambda: self.all_finished, timeout=timeout)

    # -- analysis -------------------------------------------------------------
    def critical_path_length(self, cost: Callable[[Task], float] | None = None) -> float:
        """Length of the longest path through the DAG.

        ``cost`` maps each task to its weight (default: the simulated cost
        model).  Every edge runs from an earlier-created task to a later one,
        so task-id order is a topological order: one forward walk over the
        successor slabs propagates each task's longest path to its
        successors.  Edges are never erased on completion, so the answer is
        the same before, during and after a drain.
        """
        cost = cost or (lambda t: t.simulated_cost())
        with self._lock:
            start: dict[int, float] = {}  # longest path ending just before a task
            best = 0.0
            for task_id in sorted(self._tasks):
                length = start.get(task_id, 0.0) + cost(self._tasks[task_id])
                best = max(best, length)
                for succ in self._successors[task_id] or ():
                    if length > start.get(succ.task_id, 0.0):
                        start[succ.task_id] = length
            return best

    def to_networkx(self):  # pragma: no cover - optional dependency
        """Export the TDG as a ``networkx.DiGraph`` (optional dependency)."""
        import networkx as nx

        graph = nx.DiGraph()
        with self._lock:
            for task in self._tasks.values():
                graph.add_node(task.task_id, label=task.label, type=task.task_type.name)
            for task_id, task in self._tasks.items():
                slab = self._successors[task_id]
                if slab:
                    for succ in slab:
                        graph.add_edge(task_id, succ.task_id)
        return graph

    def iter_edges(self) -> Iterable[tuple[int, int]]:
        with self._lock:
            for task_id in self._tasks:
                slab = self._successors[task_id]
                if slab:
                    for succ in slab:
                        yield (task_id, succ.task_id)
