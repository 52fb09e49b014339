"""Parent-side chunk dispatch: the one drain loop under every worker pool.

The threaded, process and network executors keep the dependence graph, the
scheduler and the ATM engines in the draining thread and run task bodies on
workers.  What they do around that is the same control plane (DESIGN.md
§4.6), and :class:`ChunkDispatcher` is its only implementation: pull ready
tasks, look each up in its owner's engine (the first half of the paper's
Figure 1 step), cut the ones that must run into chunks, remember which
worker holds which chunk, decode what the workers answer and finish tasks
from it (the second half: the commit reads the written bytes once they
landed in the parent), retry or terminally fail a task whose body raised,
time out a wedged one, resubmit what a lost worker held against a bounded
budget, and notice a starved or overdue drain.  The parent memoizes: a THT
hit finishes at once, an IKT hit waits for its producer, and neither ships.
An owner's tasks retire in dispatch order, whatever order their results
arrive in, so a pool run is a function of its configuration (DESIGN.md
§4.6).

An executor *composes* a dispatcher and is its transport: the dispatcher
calls seven methods of its host besides the shared Figure 1 step, the last
four being the data plane of a backend that shares no memory with its
workers (the threaded pool's worker threads run bodies on the parent's
arrays, so there all four do nothing; on the process backend
``_check_write`` does nothing, ``_write_back`` copies the task's written
regions out of shared memory, ``_wrote_here`` copies them in and
``_task_raised`` marks their bases out of step with their segments).
``worker`` is any hashable the transport uses to name a worker (a pool
index, an endpoint object).

``_send(chunk) -> worker``
    Ship one :class:`Chunk` to a worker the transport picks (it raises when
    no worker is left).  A send never blocks and never fails inline: a
    connection that broke is reported by ``_pump`` like any other loss.
``_pump()``
    Block for the next message — at most one poll interval, so the
    dispatcher's deadlines are checked while idle — and hand every worker
    reply to :meth:`~ChunkDispatcher.reply`; a reply it rejects is a worker
    failure.  Losses the transport detects itself (a dead process, a broken
    socket) are reported with :meth:`~ChunkDispatcher.worker_lost`.
``_lose(worker) -> (worker_name, chunks)``
    Take the worker a wedged task runs on out of service (kill and respawn
    it, exclude its endpoint, abandon its thread) and
    :meth:`~ChunkDispatcher.reclaim` what it held.
``_check_write(task, *payload) -> problem | None``
    May ``task`` write what its result entry carries?
``_write_back(worker, task, chunk, *payload)``
    Land it before the task's successors are released; may return a
    callable to run after the release.
``_task_raised(worker, task)``
    ``task``'s body raised there; nothing was re-sent yet.
``_wrote_here(tasks)``
    The parent copied stored outputs into the written regions of
    ``tasks`` (THT or IKT hits); no worker holds those bytes yet.
"""

from __future__ import annotations

import itertools
import time
import weakref
from collections import defaultdict, deque
from typing import Any, Hashable, Optional

from repro.common.exceptions import (
    RuntimeStateError,
    TaskFailedError,
    TaskTimeoutError,
    WorkerLostError,
)
from repro.runtime.atm_protocol import ATMAction, EXECUTE_DECISION, abandon, lookup, training
from repro.runtime.executor import _WallClock
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
    and its config, scheduler, supervisor, run result, trace, Figure 1 step
    and terminal-failure policy are used as they are; ``workers`` is the
    size of its pool; ``chunk_size`` caps a chunk — at one task under
    ``task_timeout_s``, so a wedged task is identifiable; ``loss_budget``
    bounds how often one task may be resubmitted after losing its worker;
    ``cleanup`` (a callable plus arguments that must not reference the
    host) tears the worker pool down exactly once, from :meth:`close` or
    when the host is garbage collected.

    ``in_place`` says the workers run bodies on the parent's arrays (the
    threaded pool).  Four rules follow: its window is one engine task per
    worker thread, each shipped alone, as its threads once each pulled
    their own; a task whose body overwrites an input (``InOut``) cannot be
    looked up once it ran, so while its type trains it is looked up as it
    leaves the ready queue and leaves it only with nothing else in flight;
    a task looked up at its retirement wrote its outputs already, so a THT
    hit there copies over them; and a chunk's age since its ack is its
    body's own runtime, so the wedge rule adds no ``TIMEOUT_GRACE``.  A
    traced pool's result entries carry each body's ``(start, end)``, which
    join the lookup and commit times in the step's clock for the host's
    ``_trace_step``.
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
        in_place: bool = False,
    ) -> None:
        self._host = host
        self._host_type = type(host).__name__
        self._name = name
        self._chunk_size = 1 if host.config.task_timeout_s is not None else chunk_size
        #: Tasks in flight from which on an engine's task stays queued: the
        #: most the engines' in-flight key tables ever hold from this pool.
        self.window = workers if in_place else workers * self._chunk_size
        self._loss_budget = loss_budget
        self._in_place = in_place
        self._grace = 0.0 if in_place else TIMEOUT_GRACE
        self._trace = host.trace if host.trace.enabled else None
        #: Live backend statistics (``dispatched``, ``chunks``,
        #: ``resubmitted_tasks``), owned by the executor.
        self.counters = counters
        self._finalizer = weakref.finalize(host, *cleanup)
        self.closed = False
        self._graph: Optional[TaskDependenceGraph] = None
        #: task_id -> dispatched task that has not completed or failed.
        self.inflight: dict[int, Task] = {}
        #: owner -> its in-flight tasks in dispatch order, the order they
        #: retire in (owners are independent programs: a gateway tenant
        #: never waits for another's task); a task that failed meanwhile is
        #: dropped when it reaches the head.
        self._lanes: dict[Any, deque] = defaultdict(deque)
        #: task_id -> the lookup decision of an in-flight task the engine
        #: handled (absent: ``EXECUTE_DECISION``), for its commit.
        self._decisions: dict[int, Any] = {}
        #: owner -> ids of its in-flight tasks shipped without a lookup: they
        #: are looked up at their retirement (an owner without one is absent).
        self._unlooked: dict[Any, set[int]] = {}
        #: task_id -> ``(worker, chunk, payload)`` of a result that arrived
        #: while an earlier task of its owner was still in flight.
        self._arrived: dict[int, tuple] = {}
        #: task_id -> the phase clock of a traced task looked up, not yet
        #: committed.
        self._clocks: dict[int, _WallClock] = {}
        #: worker -> chunk_id -> chunk the worker has not fully answered.
        self.ledger: dict[Hashable, dict[int, Chunk]] = {}
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
        self.inflight, self._lanes, self._arrived = {}, defaultdict(deque), {}
        self._unlooked, self._clocks = {}, {}
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
                self._retire()
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

        A task an engine sees leaves the queue only while fewer than
        ``window`` tasks are in flight — one chunk per worker (one task per
        thread on an ``in_place`` pool, shipped in chunks of one), as a
        serial worker pulls a task only when it is free — so a lookup sees the
        commits of what retired before it (one worker, chunks of one: the
        serial order exactly); such a task at the head of the queue stops
        the pull, and tasks no engine sees ship at once.  A task whose
        engine still trains its type ships without a lookup: it is looked
        up at its retirement (:meth:`_retire_task`), in dispatch order,
        after the commit of the one before it — so each training outcome is
        measured at the ``p`` the one before it left, as on serial, and a
        pool freezes serial's ``p`` while it trains at pool width.  Any
        other engine task of an owner with such a task in flight waits at
        the head of the queue until that one retired: its lookup then
        follows every earlier lookup of its owner, and a THT hit still
        settles before it ships.  On an ``in_place`` pool a training task
        that writes an input is looked up here instead, alone in flight.
        """
        next_task, inflight, window = self._host.scheduler.next_task, self.inflight, self.window
        unlooked, in_place = self._unlooked, self._in_place
        ready: list[Task] = []
        seen = trains = one_each = False

        def admit(task: Task) -> bool:
            nonlocal seen, trains
            seen = trains = False
            if task.engine is None or not task.task_type.atm_eligible:
                return True
            if len(inflight) >= window:
                return False
            seen = True
            trains = training(task, task.engine)
            if trains and in_place and any(access.writes for access in task.inputs):
                trains = False
                return not inflight
            return trains or task.owner not in unlooked

        while (task := next_task(admit)) is not None:
            if trains:
                unlooked.setdefault(task.owner, set()).add(task.task_id)
            elif seen and self._look_up(task, 0) is None:
                continue
            ready.append(task)
            self._enter(task)
            one_each = one_each or (seen and in_place)
        if ready:
            self.counters["dispatched"] += len(ready)
            self._send(ready, 1 if one_each else self._chunk_size)

    def _look_up(self, task: Task, row: Hashable):
        """The lookup half of ``task``'s step (``row``: the trace row it
        lands on).  Returns the decision, or ``None`` when the lookup
        settled the task without its body: a THT hit copied the stored
        outputs in and the task finishes here; an IKT hit waits for its
        producer's commit."""
        clock = _WallClock() if self._trace is not None else None
        decision = lookup(task, task.engine, 0)
        if clock is not None:
            clock.looked_up(decision)
            self._clocks[task.task_id] = clock
        if not decision.skips_execution:
            if decision.atm_handled:
                self._decisions[task.task_id] = decision
            return decision
        if decision.action is ATMAction.SKIP:
            self._host._wrote_here((task,))
            self._finish(task, decision, False, row)
        elif clock is not None:  # an IKT hit: traced now, its producer completes it
            del self._clocks[task.task_id]
            self._host._trace_step(row, task, False, clock)
            self._trace.sample_ready(clock.t_end, self._host.scheduler.pending())
        return None

    def _finish(self, task: Task, decision, executed: bool, row, ran=(0.0, 0.0)) -> tuple:
        """The commit half of ``task``'s step (``BaseExecutor.finish``);
        ``ran`` is the ``(start, end)`` of its body when it is traced."""
        if self._trace is None:
            return self._host.finish(task, self._graph, decision, executed, 0)
        # A task no engine looked up gets its clock here: its lookup took no time.
        clock = self._clocks.pop(task.task_id, None) or _WallClock()
        clock.t_run, clock.t_ran = ran
        clock.t_commit = time.perf_counter()
        deferred = self._host.finish(task, self._graph, decision, executed, 0, clock)
        self._host._trace_step(row, task, executed, clock)
        self._trace.sample_ready(clock.t_end, self._host.scheduler.pending())
        return deferred

    def _send(self, tasks: list[Task], size: Optional[int] = None) -> None:
        """Cut ``tasks`` into chunks of ``size`` (default: the chunk size)
        and ship each to a worker."""
        size, send = size or self._chunk_size, self._host._send
        for start in range(0, len(tasks), size):
            chunk = Chunk(next(self._chunk_ids), tasks[start:start + size])
            self.ledger.setdefault(send(chunk), {})[chunk.chunk_id] = chunk
            self.counters["chunks"] += 1

    def reship(self, task: Task) -> None:
        """Ship a deferred consumer whose producer failed terminally: it
        runs on a worker like any task the lookup let through."""
        self._enter(task)
        self.counters["dispatched"] += 1
        self._send([task])

    # -- events: worker replies ------------------------------------------------
    def owes(self, worker: Hashable) -> bool:
        """Whether ``worker``'s silence is a fault: it holds a chunk and,
        under ``task_timeout_s``, has acked none of them — a chunk it acked
        then belongs to the wedge rule (:meth:`_check_wedged`)."""
        chunks = self.ledger.get(worker)
        if not chunks:
            return False
        if self._host._supervisor.task_timeout_s is None:
            return True
        return all(chunk.started_at is None for chunk in chunks.values())

    def reply(self, worker: Hashable, worker_name: str, message: Any) -> Optional[str]:
        """Decode one worker reply and act on it: the one reply vocabulary.

        ``("ack", chunk_id)`` stamps the chunk started; ``("result",
        chunk_id, results)`` completes (a prefix of) it; ``("error",
        chunk_id, task_id, detail)`` is a task body that raised — ``detail``
        is its traceback, or on an in-process worker the exception itself.
        Returns what is wrong with a reply that is none of these or does not
        fit the tasks it answers: nothing of it was applied and the
        transport takes the worker that sent it out of service.  Answers for
        a chunk this drain already reclaimed are stale and dropped.
        """
        try:
            kind, *fields = message
            if len(fields) != _REPLY_FIELDS[kind]:
                raise ValueError(kind)
            chunk = self.ledger.get(worker, {}).get(fields[0])
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
            exc = fields[2] if isinstance(fields[2], BaseException) else None
            detail = fields[2] if exc is None else f"{type(exc).__name__}: {exc}"
            self._task_error(
                worker, chunk, task,
                f"{self._name} worker {worker_name} failed on task {fields[1]}:\n{detail}",
                worker_name, exc,
            )
        return None

    def _done(self, worker: Hashable, chunk: Chunk, results: Any) -> Optional[str]:
        """``worker`` answered (a prefix of) ``chunk``: those tasks arrived.

        ``results`` entries are ``(task_id, *payload)``, each naming a task
        of the chunk not answered yet.  All of them are read — and the
        payloads checked against their tasks — before the first is
        recorded, so a result that does not fit is rejected whole.  An
        arrived task leaves its chunk, so a later loss of the worker neither
        resubmits it nor marks its bytes stale, and waits for its retirement
        (:meth:`_retire`).
        """
        check_write = self._host._check_write
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
        inflight, arrived = self.inflight, self._arrived
        for task, payload in entries:
            if task.task_id in inflight:
                # The first entry of a task named twice in one result counts.
                arrived.setdefault(task.task_id, (worker, chunk, payload))
        # A partial answer means the worker hit a task error and reports the
        # completed prefix first (so its writes are not lost): the unfinished
        # remainder stays outstanding for the error reply.
        chunk.tasks = [
            t for t in chunk.tasks if t.task_id in inflight and t.task_id not in arrived
        ]
        if not chunk.tasks:
            del self.ledger[worker][chunk.chunk_id]
        return None

    def _retire(self) -> None:
        """Retire, owner by owner, the in-order prefix of the in-flight
        tasks whose results arrived, and refill the window once per retired
        chunk — a fixed unit — so lookups interleave with commits the same
        way in every run, whichever worker answered first."""
        arrived, inflight = self._arrived, self.inflight
        for owner, lane in list(self._lanes.items()):
            chunk = None
            while lane:
                task = lane[0]
                if task.task_id in inflight:  # else it failed while in flight
                    entry = arrived.get(task.task_id)
                    if entry is None or entry[1] is not chunk:
                        if chunk is not None:  # a chunk retired: refill once
                            chunk = None
                            self._dispatch_ready()
                            continue
                        if entry is None:
                            break
                        chunk = entry[1]
                    del arrived[task.task_id], inflight[task.task_id]
                    self._retire_task(task, entry[0], chunk, entry[2])
                lane.popleft()
            if chunk is not None:
                self._dispatch_ready()
            if not lane:
                del self._lanes[owner]

    def _enter(self, task: Task) -> None:
        """Put ``task`` in flight, behind its owner's earlier tasks."""
        self.inflight[task.task_id] = task
        self._lanes[task.owner].append(task)

    def _take_unlooked(self, task: Task) -> bool:
        """Take ``task`` off its owner's tasks shipped without a lookup;
        returns whether it was one."""
        ids = self._unlooked.get(task.owner, ())
        if task.task_id not in ids:
            return False
        ids.remove(task.task_id)
        if not ids:
            del self._unlooked[task.owner]
        return True

    def _retire_task(self, task: Task, worker: Hashable, chunk: Chunk, payload: Any) -> None:
        """Commit one task once its bytes landed in the parent: the commit,
        the training error and the outputs forwarded to its deferred
        consumers all read parent memory.

        A task shipped without a lookup is looked up first, on the parent's
        arrays, which still hold its input bytes (InOut inputs included,
        except on an ``in_place`` pool, which never ships those unlooked).
        A THT hit there — its type froze while it ran — drops the worker's
        bytes and ends as a hit at dispatch does: the stored outputs are
        copied in and the task is memoized.
        """
        host = self._host
        if self._unlooked and self._take_unlooked(task):
            if self._in_place:
                for access in task.outputs:
                    access.region.bump_version()  # the body's write: no tag holds
            if self._look_up(task, worker) is None:
                return
        decision = self._decisions.pop(task.task_id, EXECUTE_DECISION)
        after = host._write_back(worker, task, chunk, *payload)
        deferred = self._finish(task, decision, True, worker, payload)
        if deferred:
            host._wrote_here(deferred)
        if after is not None:
            after()

    def _task_error(
        self, worker: Hashable, chunk: Chunk, task: Task, reason: str, worker_name: str, exc
    ) -> None:
        """A task body raised on ``worker`` (the worker itself is fine).

        Supervision decides: bounded retry with backoff, then quarantine or
        abort.  The rest of the chunk — dropped by the worker after the
        failure — is redistributed either way.
        """
        del self.ledger[worker][chunk.chunk_id]
        self._host._task_raised(worker, task)
        remaining = [
            t for t in chunk.tasks if t is not task and t.task_id in self.inflight
        ]
        backoff = self._host._supervisor.count_attempt(task)
        if backoff is not None:
            time.sleep(backoff)
            self.counters["resubmitted_tasks"] += 1
            remaining.append(task)
        else:
            self.fail(task, TaskFailedError, reason, worker_name, exc)
        self._send(remaining)

    def fail(self, task: Task, error_cls: type, reason: str, worker_name: str, exc=None) -> None:
        """Terminal failure of a dispatched task: quarantine or abort.  Its
        lookup is abandoned with the decision it got, and the deferred
        consumers that orphans come back through :meth:`reship`.  A task
        shipped without a lookup registered nothing with its engine."""
        self._take_unlooked(task)
        self.inflight.pop(task.task_id, None)
        self._host._task_failed(
            task, self._graph, self._decisions.pop(task.task_id, EXECUTE_DECISION),
            error_cls, reason, exc, worker=worker_name,
        )

    # -- the wedge rule --------------------------------------------------------
    def _check_wedged(self) -> None:
        """Time out the chunk a worker has been running for too long.

        Under ``task_timeout_s`` a chunk is one task, and a worker acks a
        chunk as it starts on it: one older than the budget plus the grace
        since its ack is ``TaskTimeoutError`` at once (it would blow the
        budget again) and its worker is taken out of service.  What else
        that worker held requeues free if it never started; a chunk it had
        started too (a thread abandoned just after its wedged body
        returned: ``_lose`` stamps it) is charged as a lost worker's.
        """
        supervisor = self._host._supervisor
        if supervisor.task_timeout_s is None:
            return
        now = time.perf_counter()
        budget = supervisor.task_timeout_s + self._grace
        for worker, chunks in list(self.ledger.items()):
            wedged = next(
                (c for c in chunks.values()
                 if c.started_at is not None and now - c.started_at > budget),
                None,
            )
            if wedged is None or self.ledger.get(worker) is not chunks:
                continue  # nothing overdue, or lost while this scan ran
            reason = supervisor.timeout_reason(now - wedged.started_at)
            name, held = self._host._lose(worker)
            reason += f"; its worker {name} was taken out of service"
            for task in wedged.tasks:
                self.fail(task, TaskTimeoutError, reason, name)
            started = [c for c in held if c is not wedged and c.started_at is not None]
            self.worker_lost(name, [t for c in started for t in c.tasks],
                             [t for c in held if c.started_at is None for t in c.tasks],
                             WorkerLostError, reason)

    # -- events: worker loss ---------------------------------------------------
    def reclaim(self, worker: Hashable) -> list[Chunk]:
        """Take back every chunk a lost worker still holds, oldest first."""
        chunks = self.ledger.pop(worker, {})
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
