"""Parent-side chunk dispatch: the one drain loop under the worker backends.

The process and network executors keep the dependence graph, the scheduler
and the ATM engines in the parent and run task bodies elsewhere.  What they
do around that is the same control plane (DESIGN.md §4.6), and
:class:`ChunkDispatcher` is its only implementation: pull ready tasks, look
each up in its owner's engine (the first half of the paper's Figure 1
step), cut the ones that must run into chunks, remember which worker holds
which chunk, decode what the workers answer and finish tasks from it (the
second half: the commit reads the written bytes once they landed in the
parent), retry or terminally fail a task whose body raised, time out a
wedged one, resubmit what a lost worker held against a bounded budget, and
notice a starved or overdue drain.  The parent memoizes: a THT hit finishes
at once, an IKT hit waits for its producer, and neither ships.

An executor *composes* a dispatcher and is its transport: the dispatcher
calls seven methods of its host besides the shared Figure 1 step, the last
four being the data plane of a backend that shares no memory with its
workers (on the process backend ``_check_write`` and ``_task_raised`` do
nothing, ``_write_back`` copies the task's written regions out of shared
memory and ``_wrote_here`` copies them in).  ``worker`` is any hashable the
transport uses to name a worker (a pool index, an endpoint object).

``_send(chunk) -> worker | None``
    Ship one :class:`Chunk` to a worker the transport picks; ``None`` when
    that worker failed while sending (the dispatcher asks again; the
    transport raises when no worker is left).
``_pump()``
    Block for the next message — at most one poll interval, so the
    dispatcher's deadlines are checked while idle — and hand every worker
    reply to :meth:`~ChunkDispatcher.reply`; a reply it rejects is a worker
    failure.  Losses the transport detects itself (a dead process, a broken
    socket) are reported with :meth:`~ChunkDispatcher.worker_lost`.
``_lose(worker) -> (worker_name, chunks)``
    Take the worker a wedged task runs on out of service (kill and respawn
    it, exclude its endpoint) and :meth:`~ChunkDispatcher.reclaim` what it
    held.
``_check_write(task, *payload) -> problem | None``
    May ``task`` write what its result entry carries?
``_write_back(worker, task, chunk, *payload)``
    Land it before the task's successors are released; may return a
    callable to run after the release.
``_task_raised(worker)``
    A body raised there; nothing was re-sent yet.
``_wrote_here(tasks)``
    The parent copied stored outputs into the written regions of
    ``tasks`` (THT or IKT hits); no worker holds those bytes yet.
"""

from __future__ import annotations

import itertools
import time
import weakref
from typing import Any, Hashable, Optional

from repro.common.exceptions import (
    RuntimeStateError,
    TaskFailedError,
    TaskTimeoutError,
    WorkerLostError,
)
from repro.runtime.atm_protocol import ATMAction, EXECUTE_DECISION, abandon, lookup, training
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.supervision import TIMEOUT_GRACE
from repro.runtime.task import Task

__all__ = ["Chunk", "ChunkDispatcher"]

#: Fields after the kind of each worker reply (DESIGN.md §4.6).
_REPLY_FIELDS = {"ack": 1, "result": 2, "error": 3}


class Chunk:
    """One dispatched, not-yet-answered batch of tasks."""

    __slots__ = ("chunk_id", "tasks", "started_at", "extra")

    def __init__(self, chunk_id: int, tasks: list[Task]) -> None:
        self.chunk_id = chunk_id
        self.tasks = tasks
        #: ``perf_counter`` stamp of the worker's ``ack`` — it acks a chunk as
        #: it starts on it (``None`` until then).
        self.started_at: Optional[float] = None
        #: Transport-owned per-chunk data (the network backend keeps the
        #: residency generations the chunk was encoded against here).
        self.extra: Any = None


class ChunkDispatcher:
    """The drain loop, the in-flight ledgers and the parent's half of the
    Figure 1 step.

    ``host`` is the composing executor — the transport (module docstring),
    and its config, scheduler, supervisor, run result, Figure 1 step and
    terminal-failure policy are used as they are; ``workers`` is the size
    of its pool; ``chunk_size`` caps a chunk — at one task under
    ``task_timeout_s``, so a wedged task is identifiable; ``loss_budget``
    bounds how often one task may be resubmitted after losing its worker;
    ``cleanup`` (a callable plus arguments that must not reference the
    host) tears the worker pool down exactly once, from :meth:`close` or
    when the host is garbage collected.
    """

    def __init__(
        self,
        host,
        name: str,
        *,
        workers: int,
        chunk_size: int,
        loss_budget: int,
        counters: dict,
        cleanup: tuple,
    ) -> None:
        self._host = host
        self._host_type = type(host).__name__
        self._name = name
        self._chunk_size = 1 if host.config.task_timeout_s is not None else chunk_size
        #: Tasks in flight from which on an engine's task stays queued: the
        #: most the engines' in-flight key tables ever hold from this pool.
        self.window = workers * self._chunk_size
        self._loss_budget = loss_budget
        #: Live backend statistics (``dispatched``, ``chunks``,
        #: ``resubmitted_tasks``), owned by the executor.
        self.counters = counters
        self._finalizer = weakref.finalize(host, *cleanup)
        self.closed = False
        self._graph: Optional[TaskDependenceGraph] = None
        #: task_id -> dispatched task that has not completed or failed.
        self.inflight: dict[int, Task] = {}
        #: task_id -> the lookup decision of an in-flight task the engine
        #: handled (absent: ``EXECUTE_DECISION``), for its commit.
        self._decisions: dict[int, Any] = {}
        #: worker -> chunk_id -> chunk the worker has not fully answered.
        self._ledger: dict[Hashable, dict[int, Chunk]] = {}
        self._chunk_ids = itertools.count(1)
        #: task_id -> times the task was resubmitted after losing a worker.
        self._losses: dict[int, int] = {}

    # -- lifecycle -------------------------------------------------------------
    def ensure_open(self) -> None:
        if self.closed:
            raise RuntimeStateError(f"{self._host_type} already closed")

    def close(self) -> None:
        """Tear the worker pool down (idempotent; also runs via GC finalizer)."""
        self.closed = True
        self._finalizer()
        # Host and dispatcher reference each other.  Cut the cycle: a closed
        # executor (with the graph and arrays its tasks reference) is then
        # freed when its owner drops it, not at a later pass of the cyclic GC.
        self._host = self._graph = None

    # -- the drain loop --------------------------------------------------------
    def run(self, graph: TaskDependenceGraph) -> float:
        """Drain ``graph``; returns the wall-clock seconds it took."""
        supervisor = self._host._supervisor
        self._graph = graph
        self.inflight = {}
        deadline = supervisor.deadline()
        t0 = time.perf_counter()
        try:
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
        except BaseException:
            # The drain is over: no in-flight key of a task that will never
            # commit may outlive it, or a later twin would wait on it forever.
            for task_id, decision in self._decisions.items():
                task = self.inflight.get(task_id)
                if task is not None:
                    abandon(task, task.engine, decision)
            self._decisions = {}
            raise
        return time.perf_counter() - t0

    def _wait(self, deadline: float) -> None:
        self._host._pump()
        self._check_wedged()
        if time.perf_counter() > deadline:
            raise self._host._supervisor.drain_timeout(
                f"{self._name} drain ({len(self.inflight)} task(s) outstanding)"
            )

    def _dispatch_ready(self) -> None:
        """Look ready tasks up as they leave the ready queue: a THT hit
        finishes here, an IKT hit waits for its producer's commit, and only
        the tasks that must run are shipped.

        A task an engine looks up leaves the queue only while fewer than
        ``window`` tasks are in flight — one chunk per worker, as an
        in-process worker pulls a task only when it is free — so a lookup
        sees the commits of what ran before it (one worker, chunks of one:
        the serial order exactly).  While its engine still trains its type
        it leaves only when nothing is in flight: each training outcome is
        measured at the ``p`` the one before it left, as on serial, so a
        pool freezes serial's ``p``.  Such a task at the head of the queue
        stops the pull; tasks no engine sees ship at once.
        """
        host, graph, window = self._host, self._graph, self.window
        next_task, inflight, decisions = host.scheduler.next_task, self.inflight, self._decisions
        ready: list[Task] = []

        def admit(task: Task) -> bool:
            engine = task.engine
            if engine is None or not task.task_type.atm_eligible:
                return True
            return not inflight if training(task, engine) else len(inflight) < window

        while (task := next_task(admit)) is not None:
            decision = lookup(task, task.engine, 0)
            action = decision.action
            if action is ATMAction.SKIP:
                host._wrote_here((task,))
                host.finish(task, graph, decision, False, 0)
                continue
            if action is ATMAction.DEFER:
                continue
            if decision.atm_handled:
                decisions[task.task_id] = decision
            ready.append(task)
            inflight[task.task_id] = task
        if ready:
            self.counters["dispatched"] += len(ready)
            self._send(ready)

    def _send(self, tasks: list[Task]) -> None:
        """Cut ``tasks`` into chunks and ship each to a worker."""
        size, send = self._chunk_size, self._host._send
        for start in range(0, len(tasks), size):
            chunk = Chunk(next(self._chunk_ids), tasks[start:start + size])
            while (worker := send(chunk)) is None:
                pass  # that worker failed mid-send; the transport picks another
            self._ledger.setdefault(worker, {})[chunk.chunk_id] = chunk
            self.counters["chunks"] += 1

    def reship(self, task: Task) -> None:
        """Ship a deferred consumer whose producer failed terminally: it
        runs on a worker like any task the lookup let through."""
        self.inflight[task.task_id] = task
        self.counters["dispatched"] += 1
        self._send([task])

    # -- events: worker replies ------------------------------------------------
    def busy(self, worker: Hashable) -> bool:
        """Whether ``worker`` owes an answer to a chunk."""
        return bool(self._ledger.get(worker))

    def reply(self, worker: Hashable, worker_name: str, message: Any) -> Optional[str]:
        """Decode one worker reply and act on it: the one reply vocabulary.

        ``("ack", chunk_id)`` stamps the chunk started; ``("result",
        chunk_id, results)`` completes (a prefix of) it; ``("error",
        chunk_id, task_id, traceback)`` is a task body that raised.  Returns
        what is wrong with a reply that is none of these or does not fit the
        tasks it answers: nothing of it was applied and the transport takes
        the worker that sent it out of service.  Answers for a chunk this
        drain already reclaimed are stale and dropped.
        """
        try:
            kind, *fields = message
            if len(fields) != _REPLY_FIELDS[kind]:
                raise ValueError(kind)
            chunk = self._ledger.get(worker, {}).get(fields[0])
            task = self.inflight.get(fields[1]) if kind == "error" else None
        except (TypeError, ValueError, KeyError, IndexError):
            return f"malformed reply: {message!r:.80}"
        if kind == "error" and fields[0] is None:
            # A report about the worker, not a task: it could not decode
            # what it was sent and is closing the connection.
            return f"worker error without a live task: {fields[2]}"
        if chunk is None:
            return None
        if kind == "ack":
            chunk.started_at = time.perf_counter()
        elif kind == "result":
            return self._done(worker, chunk, fields[1])
        elif task not in chunk.tasks:
            return f"malformed reply: error for task {fields[1]!r:.40} outside chunk {fields[0]}"
        else:
            self._task_error(
                worker, chunk, task,
                f"{self._name} worker {worker_name} failed on task {fields[1]}:\n{fields[2]}",
                worker_name,
            )
        return None

    def _done(self, worker: Hashable, chunk: Chunk, results: Any) -> Optional[str]:
        """``worker`` answered (a prefix of) ``chunk``: finish those tasks.

        ``results`` entries are ``(task_id, *payload)``, each naming a task
        of the chunk not answered yet.  All of them are read — and the
        payloads checked against their tasks — before the first task leaves
        the in-flight map, so a result that does not fit is rejected whole.  Each task is committed once its bytes landed in
        the parent: the commit, the training error and the outputs forwarded
        to its deferred consumers all read parent memory.
        """
        host = self._host
        check_write = host._check_write
        outstanding = {task.task_id: task for task in chunk.tasks}
        try:
            entries = []
            for task_id, *payload in results:
                task = outstanding.get(task_id)
                if task is None:
                    return (
                        f"malformed result: task {task_id!r:.40} is not "
                        f"outstanding in chunk {chunk.chunk_id}"
                    )
                problem = check_write(task, *payload)
                if problem is not None:
                    return f"malformed result: {problem}"
                entries.append((task, payload))
        except (TypeError, ValueError) as exc:
            return f"malformed result: unreadable result entry: {exc}"
        write_back, finish, graph = host._write_back, host.finish, self._graph
        for task, payload in entries:
            if self.inflight.pop(task.task_id, None) is None:
                continue  # named twice in one result
            after = write_back(worker, task, chunk, *payload)
            decision = self._decisions.pop(task.task_id, EXECUTE_DECISION)
            deferred = finish(task, graph, decision, True, 0)
            if deferred:
                host._wrote_here(deferred)
            if after is not None:
                after()
        # A partial answer means the worker hit a task error and reports the
        # completed prefix first (so its writes are not lost): the unfinished
        # remainder stays outstanding for the error reply.
        chunk.tasks = [t for t in chunk.tasks if t.task_id in self.inflight]
        if not chunk.tasks:
            del self._ledger[worker][chunk.chunk_id]
        return None

    def _task_error(
        self, worker: Hashable, chunk: Chunk, task: Task, reason: str, worker_name: str
    ) -> None:
        """A task body raised on ``worker`` (the worker itself is fine).

        Supervision decides: bounded retry with backoff, then quarantine or
        abort.  The rest of the chunk — dropped by the worker after the
        failure — is redistributed either way.
        """
        del self._ledger[worker][chunk.chunk_id]
        self._host._task_raised(worker)
        remaining = [
            t for t in chunk.tasks if t is not task and t.task_id in self.inflight
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
        """Terminal failure of a dispatched task: quarantine or abort.  Its
        lookup is abandoned with the decision it got, and the deferred
        consumers that orphans come back through :meth:`reship`."""
        self.inflight.pop(task.task_id, None)
        self._host._task_failed(
            task, self._graph, self._decisions.pop(task.task_id, EXECUTE_DECISION),
            error_cls, reason, None, worker=worker_name,
        )

    # -- the wedge rule --------------------------------------------------------
    def _check_wedged(self) -> None:
        """Time out the chunk a worker has been running for too long.

        Under ``task_timeout_s`` a chunk is one task, and a worker acks a
        chunk as it starts on it: one older than the budget plus
        ``TIMEOUT_GRACE`` since its ack is ``TaskTimeoutError`` at once (it
        would blow the budget again), its worker is taken out of service,
        and whatever else that worker held never started: it requeues free.
        """
        supervisor = self._host._supervisor
        if supervisor.task_timeout_s is None:
            return
        now = time.perf_counter()
        budget = supervisor.task_timeout_s + TIMEOUT_GRACE
        for worker, chunks in list(self._ledger.items()):
            wedged = next(
                (c for c in chunks.values()
                 if c.started_at is not None and now - c.started_at > budget),
                None,
            )
            if wedged is None or self._ledger.get(worker) is not chunks:
                continue  # nothing overdue, or lost while this scan ran
            reason = supervisor.timeout_reason(now - wedged.started_at)
            name, held = self._host._lose(worker)
            reason += f"; its worker {name} was taken out of service"
            for task in wedged.tasks:
                self.fail(task, TaskTimeoutError, reason, name)
            self.worker_lost(
                name, [], [t for c in held if c is not wedged for t in c.tasks],
                WorkerLostError, reason,
            )

    # -- events: worker loss ---------------------------------------------------
    def reclaim(self, worker: Hashable) -> list[Chunk]:
        """Take back every chunk a lost worker still holds, oldest first."""
        chunks = self._ledger.pop(worker, {})
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
