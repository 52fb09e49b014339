"""Serial and threaded executors.

Both executors run the tasks of a :class:`TaskDependenceGraph` to completion,
calling into the memoization engine of each task's owner (``task.engine``)
around it exactly as the paper's Figure 1 describes: lookup when the task is
pulled from the ready queue, commit when it finishes.  That step is written
once, as :meth:`BaseExecutor.start` and :meth:`BaseExecutor.finish`, and the
serial executor and the simulator call the two halves.  An executor holds no
engine of its own, so one pool serves tasks of many owners.

* :class:`SerialExecutor` — one worker, wall-clock timing.  Used for baseline
  correctness runs and for measuring per-task costs.
* :class:`ThreadedExecutor` — the in-process transport of the chunk
  dispatcher (:mod:`repro.runtime.dispatch`) that also drives the process
  and network pools: the draining thread looks tasks up, ships chunks to
  ``threading`` workers that run the bodies on the parent's arrays, and
  commits each task as it retires, in dispatch order.  Python's GIL
  prevents faithful parallel speedup measurements (see DESIGN.md §4), but
  this executor runs task bodies beside the draining thread's graph,
  scheduler and engine work, so it is the vehicle for the concurrency
  test-suite.

Deterministic *performance* figures come from
:class:`repro.runtime.simulator.SimulatedExecutor`.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.common.config import RuntimeConfig
from repro.common.exceptions import (
    DrainAbortedError,
    RuntimeStateError,
    TaskFailedError,
    TaskTimeoutError,
)
from repro.common.registry import EXECUTORS
from repro.runtime.atm_protocol import (
    ATMAction, ATMDecision, EXECUTE_DECISION, abandon, commit, lookup,
)
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.scheduler import Scheduler
from repro.runtime.supervision import POLL_INTERVAL, TaskSupervisor
from repro.runtime.task import Task, TaskState
from repro.runtime.trace import CoreState, TraceRecorder

__all__ = [
    "RunResult",
    "BaseExecutor",
    "SerialExecutor",
    "ThreadedExecutor",
    "build_executor",
]


@dataclass
class RunResult:
    """Aggregate outcome of draining a task graph.

    ``elapsed`` is wall-clock seconds for the serial/threaded executors and
    simulated microseconds for the simulator (``time_unit`` distinguishes
    them).

    ``tasks_completed`` counts *successful* tasks only; quarantined runs
    (``on_task_failure="quarantine"``) additionally report ``tasks_failed``
    (exhausted supervision budget), ``tasks_cancelled`` (dependent subgraph,
    tasks submitted after the failure included)
    and the structured per-failure report in ``failures`` (a list of
    :class:`repro.runtime.supervision.TaskFailure`).

    The counts are the same on every backend: the process and network
    backends look tasks up and commit them in the parent, so a worker's
    loss loses no memoization state.
    """

    elapsed: float = 0.0
    time_unit: str = "s"
    tasks_completed: int = 0
    tasks_executed: int = 0
    tasks_memoized: int = 0
    tasks_deferred: int = 0
    tasks_trained: int = 0
    tasks_failed: int = 0
    tasks_cancelled: int = 0
    failures: list = field(default_factory=list)
    trace: Optional[TraceRecorder] = None
    extra: dict = field(default_factory=dict)

    def merge(self, other: "RunResult") -> None:
        """Accumulate a later drain into this result (same time unit)."""
        if other.time_unit != self.time_unit:
            raise RuntimeStateError("cannot merge results with different time units")
        self.elapsed += other.elapsed
        self.tasks_completed += other.tasks_completed
        self.tasks_executed += other.tasks_executed
        self.tasks_memoized += other.tasks_memoized
        self.tasks_deferred += other.tasks_deferred
        self.tasks_trained += other.tasks_trained
        self.tasks_failed += other.tasks_failed
        self.tasks_cancelled += other.tasks_cancelled
        if other.failures is not self.failures:
            self.failures.extend(other.failures)
        if other.trace is not None:
            self.trace = other.trace

    @property
    def reuse_fraction(self) -> float:
        """Fraction of completed tasks whose execution was avoided."""
        if self.tasks_completed == 0:
            return 0.0
        return (self.tasks_memoized + self.tasks_deferred) / self.tasks_completed


class _WallClock:
    """Phase boundaries of one traced step, read off ``perf_counter`` as the
    step reaches them: its lookup from ``t_lookup`` to ``t_looked``, its
    body from ``t_run`` to ``t_ran``, its commit from ``t_commit`` to
    ``t_end``.  An in-process step runs the three back to back; the
    dispatcher sets a pool task's body times from its worker's result."""

    __slots__ = ("t_lookup", "t_looked", "t_run", "t_ran", "t_commit", "t_end")

    def __init__(self) -> None:
        now = time.perf_counter()
        self.t_lookup = self.t_looked = self.t_run = self.t_ran = self.t_commit = self.t_end = now

    def looked_up(self, decision: ATMDecision) -> None:
        self.t_looked = self.t_run = self.t_ran = self.t_commit = self.t_end = time.perf_counter()

    def ran(self, task: Task) -> None:
        self.t_ran = self.t_commit = self.t_end = time.perf_counter()

    def committed(self, task: Task, decision: ATMDecision) -> None:
        self.t_end = time.perf_counter()

    wait = staticmethod(time.sleep)


class BaseExecutor:
    """Shared bookkeeping for all executors."""

    time_unit = "s"
    #: What an aborted drain raises (the network backend narrows it).
    abort_error = DrainAbortedError
    #: Live tasks at which a Session submission runs the barrier itself
    #: (DESIGN.md §4.2); ``None`` keeps no window.
    live_window: Optional[int] = 8192

    def __init__(self, config: Optional[RuntimeConfig] = None) -> None:
        self.config = config or RuntimeConfig()
        self.scheduler = Scheduler()
        self.trace = TraceRecorder(enabled=self.config.enable_tracing)
        self._result = RunResult(time_unit=self.time_unit, trace=self.trace)
        # Supervision: retries/timeouts/quarantine per DESIGN.md §7.  The
        # supervisor writes failures straight onto the run result; drains
        # refresh it so each drain gets a fresh deadline/attempt ledger.
        self._fresh_supervisor()
        # Reentrant: the graph's completion hooks run inside a failure's
        # transition and may submit a task that is born cancelled, which
        # re-enters the accounting (notify_born_cancelled) on this thread.
        self._failure_lock = threading.RLock()

    @property
    def max_in_flight(self) -> int:
        """Tasks this executor runs at once, which sizes an engine's in-flight
        key table: one per worker."""
        return self.config.num_threads

    # -- runtime hooks ---------------------------------------------------------
    def notify_ready(self, task: Task) -> None:
        """Called by the graph when a task's dependences become satisfied."""
        self.scheduler.task_ready(task)

    def notify_ready_batch(self, tasks: Sequence[Task]) -> None:
        """Batched ready notification (graph ``on_ready_batch`` hook).

        One scheduler call — and therefore one ready-queue lock acquisition —
        per release set.  Executors that gate readiness per task (the
        simulator) override this with a loop over their own
        :meth:`notify_ready`.
        """
        self.scheduler.tasks_ready(tasks)

    def notify_born_cancelled(self, task: Task, predecessor: Task) -> None:
        """Graph ``on_born_cancelled`` hook: ``task`` was submitted after its
        ``predecessor`` was quarantined.  It counts as cancelled, and the
        report of the failure that doomed it names it."""
        with self._failure_lock:
            self._result.tasks_cancelled += 1
            for failure in self._result.failures:
                if (
                    failure.task_id == predecessor.task_id
                    or predecessor.label in failure.cancelled
                ):
                    failure.cancelled += (task.label,)
                    break

    def result(self) -> RunResult:
        return self._result

    # -- the Figure 1 step ------------------------------------------------------
    # One step per task on every in-process backend, in two halves because
    # the simulator commits at a later event than it starts.  ``clock`` (None
    # on the untraced in-process path) is told each phase boundary as the
    # step reaches it: ``_WallClock`` reads ``perf_counter`` there, the
    # simulator's cost clock charges the phase's modelled cost.
    def start(
        self, task: Task, graph: TaskDependenceGraph, worker: int, clock=None
    ) -> Optional[ATMDecision]:
        """Look the key up as the task leaves the ready queue, then run it
        under supervision unless the lookup copied (or will copy) its outputs.

        Returns the decision, or ``None`` when the task failed terminally
        (quarantined: ``_task_failed`` has dealt with it; aborted: raises).
        """
        decision = lookup(task, task.engine, worker)
        if clock is not None:
            clock.looked_up(decision)
        if decision.skips_execution:
            return decision
        task.state = TaskState.RUNNING
        task.executed_on = worker
        failure = self._run_supervised(task, clock)
        if failure is None:
            return decision
        self._task_failed(task, graph, decision, *failure, worker=f"worker-{worker}", clock=clock)
        return None

    def finish(
        self, task: Task, graph: TaskDependenceGraph, decision: ATMDecision,
        executed: bool, worker: int, clock=None,
    ) -> tuple:
        """Commit, complete the deferred consumers the commit satisfied,
        count the task and complete it; returns those consumers.  A
        ``DEFER`` decision never gets here: its producer's commit completes
        it."""
        deferred = commit(task, task.engine, decision, executed, worker)
        if deferred:
            self._complete_deferred(graph, deferred)
        if clock is not None:
            clock.committed(task, decision)
        # Every backend commits on its draining thread alone: the run-result
        # counters need no lock.
        self._account(decision.action)
        graph.complete_task(task, TaskState.FINISHED if executed else TaskState.MEMOIZED)
        return deferred

    def _complete_deferred(self, graph: TaskDependenceGraph, deferred: tuple) -> None:
        """Count and complete deferred consumers, before their producer:
        their outputs are already in place."""
        for waiter in deferred:
            self._account(ATMAction.DEFER)
            graph.complete_task(waiter, TaskState.MEMOIZED)

    def _trace_step(self, worker: int, task: Task, executed: bool, clock) -> None:
        """Write one step's ``CoreState`` records from the phase boundaries
        its clock reported: where every backend writes them."""
        record, label = self.trace.record, task.label
        record(worker, CoreState.ATM_HASH, clock.t_lookup, clock.t_looked, label)
        if executed:
            record(worker, CoreState.TASK_EXECUTION, clock.t_run, clock.t_ran, label)
        record(worker, CoreState.ATM_MEMOIZATION, clock.t_commit, clock.t_end, label)

    def _account(self, action: ATMAction) -> None:
        result = self._result
        result.tasks_completed += 1
        if action == ATMAction.SKIP:
            result.tasks_memoized += 1
        elif action == ATMAction.DEFER:
            result.tasks_deferred += 1
        elif action == ATMAction.EXECUTE_AND_TRAIN:
            result.tasks_trained += 1
            result.tasks_executed += 1
        else:
            result.tasks_executed += 1

    # -- supervision (DESIGN.md §7 "Failure semantics") ------------------------
    def _fresh_supervisor(self) -> TaskSupervisor:
        """New per-drain supervisor, still sinking into the run result."""
        self._supervisor = TaskSupervisor(
            self.config, failures=self._result.failures, abort_error=self.abort_error
        )
        return self._supervisor

    def _run_supervised(self, task: Task, clock=None):
        """Run the task body under the retry/timeout budget.

        Returns ``None`` on success, else ``(error_cls, reason, exc)`` for
        the terminal failure.  Retries re-run in place after an exponential
        backoff (slept, or charged to ``clock``); a post-hoc timeout
        (in-process backends cannot preempt a Python frame) is terminal
        immediately — a task that blew its budget once would blow it again.
        """
        supervisor = self._supervisor
        while True:
            t_start = time.perf_counter()
            try:
                task.run()
            except Exception as exc:
                if clock is not None:
                    clock.ran(task)
                backoff = supervisor.count_attempt(task)
                if backoff is None:
                    return (TaskFailedError, f"{type(exc).__name__}: {exc}", exc)
                (time.sleep if clock is None else clock.wait)(backoff)
                continue
            elapsed = time.perf_counter() - t_start
            if clock is not None:
                clock.ran(task)
            if supervisor.timed_out(elapsed):
                return (TaskTimeoutError, supervisor.timeout_reason(elapsed), None)
            return None

    def _task_failed(
        self, task: Task, graph: TaskDependenceGraph, decision: ATMDecision, error: type,
        reason: str, exc: Optional[BaseException], worker: str = "", clock=None,
    ) -> None:
        """Terminal task failure: quarantine the subgraph or abort the drain."""
        orphans = abandon(task, task.engine, decision)
        supervisor = self._supervisor
        if not supervisor.quarantine:
            with self._failure_lock:
                abort = supervisor.abort(task, error, reason, worker=worker)
            raise abort from exc
        with self._failure_lock:
            cancelled = supervisor.quarantine_task(
                graph, task, error, reason, worker=worker
            )
            self._result.tasks_failed += 1
            self._result.tasks_cancelled += len(cancelled)
        # Deferred consumers of the failed producer are *independent* tasks
        # (same key, no dependence edge): execute them directly rather than
        # cancelling work whose inputs are perfectly healthy.
        for orphan in orphans:
            self._rescue_orphan(orphan, graph, worker, clock)

    def _rescue_orphan(self, task: Task, graph: TaskDependenceGraph, worker: str, clock) -> None:
        """Execute a deferred consumer whose in-flight producer failed."""
        task.state = TaskState.RUNNING
        failure = self._run_supervised(task, clock)
        if failure is not None:
            self._task_failed(task, graph, EXECUTE_DECISION, *failure, worker=worker, clock=clock)
            return
        self._account(ATMAction.EXECUTE)
        graph.complete_task(task, TaskState.FINISHED)

    def _process(self, task: Task, graph: TaskDependenceGraph, worker_id: int) -> None:
        """The in-process step: :meth:`start`, then :meth:`finish` unless
        the task failed or defers."""
        # Trace work (clock reads, label formatting, the ready-queue depth
        # sample and its lock) is paid only by a recorder that keeps it.
        clock = _WallClock() if self.trace.enabled else None
        decision = self.start(task, graph, worker_id, clock)
        if decision is None:
            return
        executed = not decision.skips_execution
        if executed or decision.action is not ATMAction.DEFER:
            self.finish(task, graph, decision, executed, worker_id, clock)
        if clock is not None:
            self._trace_step(worker_id, task, executed, clock)
            self.trace.sample_ready(time.perf_counter(), self.scheduler.pending())

    def drain(self, graph: TaskDependenceGraph) -> RunResult:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (worker pools, shared segments).

        The serial executor holds none; the pools override it.
        :meth:`repro.session.Session.finish` calls it after the final barrier.
        """

    def __enter__(self) -> "BaseExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class SerialExecutor(BaseExecutor):
    """Single-threaded executor with wall-clock timing."""

    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        t0 = time.perf_counter()
        supervisor = self._fresh_supervisor()
        deadline = supervisor.deadline()
        while not graph.all_finished:
            task = self.scheduler.next_task()
            if task is None:
                if graph.all_finished:
                    break
                raise RuntimeStateError(
                    "serial executor starved: ready queue empty but graph not finished "
                    "(deferred task without a producer?)"
                )
            self._process(task, graph, 0)
            if time.perf_counter() >= deadline:
                raise supervisor.drain_timeout("serial drain")
        self._result.elapsed += time.perf_counter() - t0
        return self._result


class PoolExecutor(BaseExecutor):
    """An executor that composes a :class:`~repro.runtime.dispatch.ChunkDispatcher`
    and is its transport (DESIGN.md §4.6): the threaded, process and network
    pools.  The data-plane hooks do nothing here — the right thing for
    workers that write the parent's arrays; the remote pools override them.
    """

    @property
    def max_in_flight(self) -> int:
        # The dispatcher pulls an engine's task only while fewer are in flight.
        return self._dispatcher.window

    def _rescue_orphan(self, task, graph, worker, clock) -> None:
        # A deferred twin whose producer failed runs on a worker, not here.
        self._dispatcher.reship(task)

    def _check_write(self, task, *payload) -> None:
        return None

    def _write_back(self, worker, task, chunk, *payload) -> None:
        return None

    def _task_raised(self, worker, task) -> None:
        return None

    def _wrote_here(self, tasks) -> None:
        return None


def _stop_workers(workers: list, timeout: float) -> None:
    """Pool teardown, run once by close() or the GC finalizer: tell every
    live worker thread to stop, then join it (abandoned ones are not in
    ``workers``: each ends when its body returns)."""
    for worker in workers:
        worker.chunks.put(None)
    for worker in workers:
        if worker.thread is not threading.current_thread():
            worker.thread.join(timeout=timeout)


class _Worker:
    """One worker thread of a :class:`ThreadedExecutor` and its chunk queue.

    The thread references neither the executor nor a graph while it waits
    for a chunk, so a dropped executor is collected and its finalizer stops
    the thread.
    """

    __slots__ = ("name", "chunks", "lock", "abandoned", "started", "thread")

    def __init__(self, index: int, inbox: queue.SimpleQueue, acks: bool, traced: bool) -> None:
        self.name = f"worker-{index}"
        #: ``(chunk_id, tasks)`` to run, in increasing ``chunk_id``; ``None`` to stop.
        self.chunks: queue.SimpleQueue = queue.SimpleQueue()
        #: Orders the thread's "not abandoned: start a body" against the
        #: pool's "abandon it: what did it start?".
        self.lock = threading.Lock()
        #: Set when the pool gives the thread up: it starts nothing more.
        self.abandoned = False
        #: Id of the last chunk the thread started a body of.
        self.started = 0
        self.thread = threading.Thread(target=self._serve, args=(index, inbox, acks, traced),
                                       daemon=True, name=self.name)
        self.thread.start()

    def _serve(self, index: int, inbox: queue.SimpleQueue, acks: bool, traced: bool) -> None:
        """Run chunks on the parent's arrays until told to stop or
        abandoned, posting each chunk's replies in the one vocabulary as
        ``(index, worker, reply)``: ``ack`` first under ``task_timeout_s``
        (the dispatcher ages the chunk from it), the ``result`` of the
        bodies that ran (a traced entry adds each body's start and end),
        then the ``error`` of the one that raised, carrying the exception.
        An abandoned thread starts no body; ``_pump`` drops its late word."""
        clock, lock = time.perf_counter, self.lock
        while (chunk := self.chunks.get()) is not None:
            chunk_id, tasks = chunk
            if acks:
                inbox.put((index, self, ("ack", chunk_id)))
            results, error = [], None
            for task in tasks:
                with lock:
                    if self.abandoned:
                        return
                    self.started = chunk_id
                t_run = clock() if traced else 0.0
                try:
                    task.run()
                except BaseException as exc:
                    error = ("error", chunk_id, task.task_id, exc)
                    break
                results.append((task.task_id, t_run, clock()) if traced else (task.task_id,))
            if results or error is None:
                inbox.put((index, self, ("result", chunk_id, results)))
            if error is not None:
                inbox.put((index, self, error))
            chunk = tasks = task = error = None  # hold no task while waiting


class ThreadedExecutor(PoolExecutor):
    """The in-process transport of a :class:`~repro.runtime.dispatch.ChunkDispatcher`.

    ``num_threads`` daemon worker threads, started by the first drain (and
    by the first after ``close()``), run the bodies of the chunks the
    dispatcher sends them (round-robin, sized by ``mp_chunk_size``; an
    engine's task alone) on the parent's arrays and post their replies to
    one inbox; the draining thread looks tasks up, commits them and
    releases their successors.  Execution is lazy: nothing runs while no
    drain is open (DESIGN.md §4.2).  A wedged body cannot be interrupted,
    so taking its worker out of service abandons the thread and starts a
    fresh one in its place.
    """

    #: Grace period (seconds) for a worker thread to end once ``close()`` asked.
    JOIN_TIMEOUT = 5.0

    def __init__(self, config: Optional[RuntimeConfig] = None) -> None:
        super().__init__(config=config)
        #: ``(index, worker, reply)`` from every worker thread, in post order.
        self._inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._stats = {"dispatched": 0, "chunks": 0, "resubmitted_tasks": 0, "respawns": 0}
        self._open()

    def _open(self) -> None:
        """A fresh dispatcher, whose first drain starts the worker threads."""
        # Imported here: an ATM-off serial Session never loads the dispatcher.
        from repro.runtime.dispatch import ChunkDispatcher

        #: Worker i; ``_lose`` replaces an abandoned one in place.
        self._workers: list[_Worker] = []
        self._next_worker = 0
        # A thread is lost only to the wedge rule, which fails what it started.
        self._dispatcher = ChunkDispatcher(
            self, "threaded", workers=self.config.num_threads,
            chunk_size=self.config.mp_chunk_size, loss_budget=0, counters=self._stats,
            cleanup=(_stop_workers, self._workers, self.JOIN_TIMEOUT), in_place=True,
        )

    def _start(self, index: int) -> _Worker:
        acks = self.config.task_timeout_s is not None  # the wedge rule ages a chunk from its ack
        return _Worker(index, self._inbox, acks, self.trace.enabled)

    def _lose(self, index: int) -> tuple:
        """Abandon worker ``index`` — it ends when its running body returns,
        starts no other and is not heard again — and start a fresh thread
        in its place; returns the old worker's name and the chunks it held,
        each one it started stamped so (its ack may still be unread): that
        body ran, or runs on, there."""
        worker = self._workers[index]
        with worker.lock:
            worker.abandoned = True
        worker.chunks.put(None)
        self._workers[index] = self._start(index)
        self._stats["respawns"] += 1
        held = self._dispatcher.reclaim(index)
        for chunk in held:
            if chunk.chunk_id <= worker.started:
                chunk.started_at = time.perf_counter()
        return worker.name, held

    def close(self) -> None:
        """Stop and join the worker threads; a later drain starts new ones."""
        self._dispatcher.close()

    # -- transport ---------------------------------------------------------------
    def _send(self, chunk) -> int:
        index = self._next_worker
        self._next_worker = (index + 1) % len(self._workers)
        self._workers[index].chunks.put((chunk.chunk_id, chunk.tasks))
        return index

    def _pump(self) -> None:
        """Hand the dispatcher every reply posted so far, waiting one poll
        interval for the first."""
        inbox, workers, reply = self._inbox, self._workers, self._dispatcher.reply
        try:
            index, worker, message = inbox.get(timeout=POLL_INTERVAL)
            while True:
                # An abandoned thread's late word is dropped; the replies of
                # a live one are well-formed by construction.
                if workers[index] is worker and (problem := reply(index, worker.name, message)):
                    raise RuntimeStateError(f"threaded worker {worker.name}: {problem}")
                index, worker, message = inbox.get_nowait()
        except queue.Empty:
            return

    # The workers write the parent's arrays: no bytes travel, and the
    # data-plane hooks are PoolExecutor's, which do nothing.

    # -- drain ---------------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        if self._dispatcher.closed:
            self._open()
        if graph.all_finished:
            return self._result
        if not self._workers:
            self._workers.extend(self._start(index) for index in range(self.config.num_threads))
        self._fresh_supervisor()
        try:
            self._result.elapsed += self._dispatcher.run(graph)
        except BaseException:
            # No chunk of an aborted drain runs on: a thread that holds one
            # is abandoned (it ends when its running body returns).
            for index in [i for i, chunks in self._dispatcher.ledger.items() if chunks]:
                self._lose(index)
            raise
        self._result.extra.setdefault("threaded_backend", self._stats)
        return self._result


# -- backend registry ------------------------------------------------------------
# Builtin factories resolved by name through the executor registry (DESIGN.md
# §4).  ``"process"``, ``"simulated"`` and ``"network"`` import their modules
# lazily to keep the module dependency graph acyclic; plugin backends are
# added with repro.session.EXECUTORS.register(name, factory) and become valid
# ``RuntimeConfig.executor`` values automatically.


def _make_process(config, sim_config):
    from repro.runtime.mp_executor import ProcessExecutor

    return ProcessExecutor(config=config)


def _make_simulated(config, sim_config):
    from repro.runtime.simulator import SimulatedExecutor

    return SimulatedExecutor(config=config, sim_config=sim_config)


def _make_network(config, sim_config):
    from repro.runtime.net_executor import NetworkExecutor

    return NetworkExecutor(config=config)


EXECUTORS.register(
    "serial", lambda config, sim_config: SerialExecutor(config=config), replace=True
)
EXECUTORS.register(
    "threaded", lambda config, sim_config: ThreadedExecutor(config=config), replace=True
)
EXECUTORS.register("process", _make_process, replace=True)
EXECUTORS.register("simulated", _make_simulated, replace=True)
# The network backend lands on the same registration seam DESIGN.md §6.2
# documents for out-of-tree plugins (EXECUTORS.register("network", factory));
# shipping in-tree it registers here like every other builtin.
EXECUTORS.register("network", _make_network, replace=True)


def build_executor(
    config: Optional[RuntimeConfig] = None, sim_config=None
) -> BaseExecutor:
    """Build the executor named by ``config.executor`` via the registry.

    This is the assembly path used by :class:`repro.session.Session`; user
    code should go through the Session API rather than call it directly.
    """
    config = config or RuntimeConfig()
    return EXECUTORS.factory(config.executor)(config, sim_config)

