"""Parent-side chunk dispatch: the one drain loop under the worker backends.

The process and network executors keep the dependence graph, the scheduler
and the reference ATM engine in the parent and run task bodies elsewhere.
What they do around that is the same control plane (DESIGN.md §4.6), and
:class:`ChunkDispatcher` is its only implementation: pull ready tasks, cut
them into chunks, remember which worker holds which chunk, complete tasks
as answers arrive, retry or terminally fail a task whose body raised,
resubmit what a lost worker held against a bounded budget, notice a starved
or overdue drain, and fold the workers' ATM engine deltas into the parent
engine at the barrier.

An executor *composes* a dispatcher and hands it a small transport — three
callables — plus the policies that really differ between backends:

``send(chunk) -> worker | None``
    Ship one :class:`Chunk` to a worker the transport picks; ``None`` when
    that worker failed while sending (the dispatcher asks again; the
    transport raises when no worker is left).
``poll()``
    Block for the next message — at most one poll interval, so the
    dispatcher's drain deadline is checked while idle — and report it
    through the event methods below.
``request_deltas() -> workers``
    Ask every live worker for its engine delta; returns who was asked.

Events the transport reports: :meth:`~ChunkDispatcher.started`,
:meth:`~ChunkDispatcher.done`, :meth:`~ChunkDispatcher.task_error`,
:meth:`~ChunkDispatcher.reclaim` + :meth:`~ChunkDispatcher.worker_lost`,
:meth:`~ChunkDispatcher.delta`.  ``worker`` is any hashable the transport
uses to name a worker (a pool index, an endpoint object).
"""

from __future__ import annotations

import itertools
import time
import warnings
import weakref
from typing import Any, Callable, Hashable, Iterable, Optional

from repro.common.exceptions import RuntimeStateError, TaskFailedError
from repro.runtime.atm_protocol import ATMAction, ATMDecision, EXECUTE_DECISION
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.task import Task, TaskState

__all__ = ["Chunk", "ChunkDispatcher"]


class Chunk:
    """One dispatched, not-yet-answered batch of tasks."""

    __slots__ = ("chunk_id", "tasks", "sent_at", "started_at", "extra")

    def __init__(self, chunk_id: int, tasks: list[Task]) -> None:
        self.chunk_id = chunk_id
        self.tasks = tasks
        #: ``perf_counter`` stamps: accepted by the transport / reported
        #: started by the worker (``None`` until then).
        self.sent_at = 0.0
        self.started_at: Optional[float] = None
        #: Transport-owned per-chunk data (the network backend keeps the
        #: residency generations the chunk was encoded against here).
        self.extra: Any = None


class ChunkDispatcher:
    """The drain loop, the in-flight ledgers and the delta barrier.

    ``host`` is the composing executor (its scheduler, supervisor, engine,
    run result and terminal-failure policy are used as they are);
    ``loss_budget`` bounds how often one task may be resubmitted after
    losing its worker; ``cleanup`` (a callable plus arguments that must not
    reference the host) tears the worker pool down exactly once, from
    :meth:`close` or when the host is garbage collected.
    """

    def __init__(
        self,
        host,
        name: str,
        *,
        send: Callable[[Chunk], Optional[Hashable]],
        poll: Callable[[], None],
        request_deltas: Callable[[], Iterable[Hashable]],
        chunk_size: int,
        loss_budget: int,
        counters: dict,
        cleanup: tuple,
    ) -> None:
        self._host = host
        self._host_type = type(host).__name__
        self._name = name
        self._send_chunk = send
        self._poll = poll
        self._request_deltas = request_deltas
        self._chunk_size = chunk_size
        self._loss_budget = loss_budget
        #: Live backend statistics (``dispatched``, ``chunks``,
        #: ``resubmitted_tasks``, ``lost_deltas``), owned by the executor.
        self.counters = counters
        self._finalizer = weakref.finalize(host, *cleanup)
        self.closed = False
        self._graph: Optional[TaskDependenceGraph] = None
        #: task_id -> dispatched task that has not completed or failed.
        self.inflight: dict[int, Task] = {}
        #: worker -> chunk_id -> chunk the worker has not fully answered.
        self._ledger: dict[Hashable, dict[int, Chunk]] = {}
        self._chunk_ids = itertools.count(1)
        #: task_id -> times the task was resubmitted after losing a worker.
        self._losses: dict[int, int] = {}
        #: Workers sent work since their last merged engine delta: losing
        #: one loses ATM state (reuse statistics, never result bytes).
        self._dirty: set[Hashable] = set()
        #: Workers whose engine delta the barrier is waiting for.
        self.awaiting_delta: set[Hashable] = set()

    # -- lifecycle -------------------------------------------------------------
    def ensure_open(self) -> None:
        if self.closed:
            raise RuntimeStateError(f"{self._host_type} already closed")

    def close(self) -> None:
        """Tear the worker pool down (idempotent; also runs via GC finalizer)."""
        self.closed = True
        self._finalizer()
        # The transport callables are bound methods of the host, so host and
        # dispatcher form a reference cycle.  Cut it here: a closed executor
        # (with the graph and arrays its tasks reference) is then freed when
        # its owner drops it, not at some later pass of the cyclic GC.
        self._host = self._graph = None
        self._send_chunk = self._poll = self._request_deltas = None

    # -- the drain loop --------------------------------------------------------
    def run(self, graph: TaskDependenceGraph) -> float:
        """Drain ``graph`` and merge the workers' engine deltas.

        Returns the wall-clock seconds of the dispatch loop (the delta
        barrier after it is not part of a run's ``elapsed``).
        """
        supervisor = self._host._supervisor
        self._graph = graph
        self.inflight = {}
        deadline = supervisor.deadline()
        t0 = time.perf_counter()
        while not graph.all_finished:
            self._dispatch_ready()
            if not self.inflight:
                if graph.all_finished:
                    break
                raise RuntimeStateError(
                    f"{self._name} executor starved: no ready tasks, none in "
                    "flight, but the graph is not finished (undeclared "
                    "dependence?)"
                )
            self._wait(deadline)
        elapsed = time.perf_counter() - t0
        if self._host.engine is not None:
            self.awaiting_delta = set(self._request_deltas())
            while self.awaiting_delta:
                self._wait(deadline)
        return elapsed

    def _wait(self, deadline: float) -> None:
        self._poll()
        if time.perf_counter() > deadline:
            raise self._host._supervisor.drain_timeout(
                f"{self._name} drain ({len(self.inflight)} task(s) outstanding)"
            )

    def _dispatch_ready(self) -> None:
        next_task = self._host.scheduler.next_task
        ready: list[Task] = []
        while (task := next_task(0)) is not None:
            ready.append(task)
            self.inflight[task.task_id] = task
        if ready:
            self.counters["dispatched"] += len(ready)
            self._send(ready)

    def _send(self, tasks: list[Task]) -> None:
        """Cut ``tasks`` into chunks and ship each to a worker."""
        size = self._chunk_size
        for start in range(0, len(tasks), size):
            chunk = Chunk(next(self._chunk_ids), tasks[start:start + size])
            while (worker := self._send_chunk(chunk)) is None:
                pass  # that worker failed mid-send; the transport picks another
            chunk.sent_at = time.perf_counter()
            self._ledger.setdefault(worker, {})[chunk.chunk_id] = chunk
            self._dirty.add(worker)
            self.counters["chunks"] += 1

    # -- events: progress ------------------------------------------------------
    def outstanding(self, worker: Hashable) -> list[Chunk]:
        """The chunks ``worker`` has not fully answered (wedge detection)."""
        return list(self._ledger.get(worker, {}).values())

    def started(self, worker: Hashable, chunk_id: int) -> None:
        chunk = self._ledger.get(worker, {}).get(chunk_id)
        if chunk is not None:
            chunk.started_at = time.perf_counter()

    def done(
        self,
        worker: Hashable,
        chunk_id: int,
        results: list[tuple],
        write_back: Optional[Callable] = None,
    ) -> None:
        """``worker`` answered (a prefix of) a chunk: complete those tasks.

        ``results`` entries are ``(task_id, action_value, executed,
        *payload)``.  A transport without shared memory passes
        ``write_back(task, chunk, *payload)``: called before the task's
        successors are released, it lands the written bytes in the parent
        arrays and may return a callable to run after the release.
        """
        chunks = self._ledger.get(worker)
        chunk = chunks.pop(chunk_id, None) if chunks else None
        if chunk is None:
            return  # stale answer for a chunk this drain already reclaimed
        for task_id, action_value, executed, *payload in results:
            task = self.inflight.pop(task_id, None)
            if task is None:
                continue  # duplicate completion of a resubmitted task
            after = write_back(task, chunk, *payload) if write_back else None
            self._host._account(ATMDecision(action=ATMAction(action_value)))
            self._graph.complete_task(
                task, TaskState.FINISHED if executed else TaskState.MEMOIZED
            )
            if after is not None:
                after()
        if len(results) < len(chunk.tasks):
            # Partial answer: the worker hit a task error and reports the
            # completed prefix first (so its writes are not lost).  The
            # unfinished remainder stays outstanding for task_error().
            done_ids = {result[0] for result in results}
            chunk.tasks = [t for t in chunk.tasks if t.task_id not in done_ids]
            chunks[chunk_id] = chunk

    def task_error(
        self, worker: Hashable, chunk_id: int, task_id: int, reason: str, worker_name: str
    ) -> None:
        """A task body raised on ``worker`` (the worker itself is fine).

        Supervision decides: bounded retry with backoff, then quarantine or
        abort.  The rest of the chunk — dropped by the worker after the
        failure — is redistributed either way.
        """
        chunks = self._ledger.get(worker)
        chunk = chunks.pop(chunk_id, None) if chunks else None
        task = self.inflight.get(task_id)
        if chunk is None or task is None:
            return  # stale report for a chunk this drain already reclaimed
        remaining = [
            t for t in chunk.tasks
            if t.task_id != task_id and t.task_id in self.inflight
        ]
        backoff = self._host._supervisor.count_attempt(task)
        if backoff is not None:
            time.sleep(backoff)
            self.counters["resubmitted_tasks"] += 1
            remaining.append(task)
        else:
            self.fail(task, TaskFailedError, reason, worker_name)
        self._send(remaining)

    def fail(self, task: Task, error_cls: type, reason: str, worker_name: str) -> None:
        """Terminal failure of a dispatched task: quarantine or abort."""
        self.inflight.pop(task.task_id, None)
        self._host._task_failed(
            task, self._graph, EXECUTE_DECISION, error_cls, reason, None,
            worker=worker_name,
        )

    # -- events: worker loss ---------------------------------------------------
    def reclaim(self, worker: Hashable, worker_name: str) -> list[Chunk]:
        """Take back every chunk a lost worker still holds, oldest first.

        The worker's un-merged ATM engine delta died with it; that is
        counted on ``RunResult.lost_deltas`` and warned about, never silent.
        """
        chunks = self._ledger.pop(worker, {})
        self.awaiting_delta.discard(worker)
        if worker in self._dirty:
            self._dirty.discard(worker)
            if self._host.engine is not None:
                result = self._host._result
                result.lost_deltas += 1
                self.counters["lost_deltas"] += 1
                warnings.warn(
                    f"{worker_name} died holding an un-merged ATM engine "
                    f"delta; reuse statistics undercount "
                    f"(RunResult.lost_deltas={result.lost_deltas})",
                    RuntimeWarning,
                    stacklevel=3,
                )
        return [chunks[chunk_id] for chunk_id in sorted(chunks)]

    def worker_lost(
        self,
        worker_name: str,
        charged: list[Task],
        uncharged: list[Task],
        error_cls: type,
        reason: str,
    ) -> None:
        """Resubmit the tasks of reclaimed chunks to the surviving workers.

        ``charged`` tasks were plausibly executing when the worker was lost:
        each loss counts against the task's resubmission budget, and a task
        whose resubmissions keep losing workers is poison — terminal with
        ``error_cls`` instead of killing the pool forever.  ``uncharged``
        tasks never ran; their loss says nothing about them.
        """
        retry: list[Task] = []
        for task in charged:
            if task.task_id not in self.inflight:
                continue
            count = self._losses[task.task_id] = self._losses.get(task.task_id, 0) + 1
            if count <= self._loss_budget:
                retry.append(task)
            else:
                self.fail(
                    task, error_cls,
                    f"{reason} (task resubmitted {count - 1}x before)",
                    worker_name,
                )
        self.counters["resubmitted_tasks"] += len(retry)
        # Separately: a requeued bystander must not share a chunk — and so
        # the blame for the next loss — with a suspect.
        self._send(retry)
        self._send([t for t in uncharged if t.task_id in self.inflight])

    # -- events: ATM barrier ---------------------------------------------------
    def delta(self, worker: Hashable, delta: Optional[dict]) -> None:
        """``worker`` answered the barrier with its engine delta."""
        if worker in self.awaiting_delta:
            self.awaiting_delta.discard(worker)
            self._dirty.discard(worker)
            if delta is not None:
                self._host.engine.merge(delta)
