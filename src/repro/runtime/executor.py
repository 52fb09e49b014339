"""Serial and threaded executors.

Both executors run the tasks of a :class:`TaskDependenceGraph` to completion,
calling into the memoization engine of each task's owner (``task.engine``)
around it exactly as the paper's Figure 1 describes: lookup when the task is
pulled from the ready queue, commit when it finishes.  That step is written
once, as :meth:`BaseExecutor.start` and :meth:`BaseExecutor.finish`, and the
simulator calls the same two halves.  An executor holds no engine of its
own, so one pool serves tasks of many owners.

* :class:`SerialExecutor` — one worker, wall-clock timing.  Used for baseline
  correctness runs and for measuring per-task costs.
* :class:`ThreadedExecutor` — one long-lived pool of ``threading`` workers
  pulling from a shared scheduler, parked between drains and woken by ready
  notifications.  Python's GIL prevents faithful parallel speedup measurements
  (see DESIGN.md §4), but this executor exercises the real concurrency paths:
  per-bucket THT locks, the single IKT lock, postponed output copies and the
  thread-safe graph, so it is the vehicle for the concurrency test-suite.

Deterministic *performance* figures come from
:class:`repro.runtime.simulator.SimulatedExecutor`.
"""

from __future__ import annotations

import queue
import threading
import time
import weakref
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
    ATMAction, ATMDecision, EXECUTE_DECISION, abandon, commit, lookup, training,
)
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.scheduler import Scheduler
from repro.runtime.supervision import TaskSupervisor, dump_stacks
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
    """Phase boundaries of one traced in-process step, read off
    ``perf_counter`` as the step reaches them."""

    __slots__ = ("t_lookup", "t_run", "t_commit", "t_end")

    def __init__(self) -> None:
        self.t_lookup = self.t_run = self.t_commit = self.t_end = time.perf_counter()

    def looked_up(self, decision: ATMDecision) -> None:
        self.t_run = self.t_commit = self.t_end = time.perf_counter()

    def ran(self, task: Task) -> None:
        self.t_commit = self.t_end = time.perf_counter()

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
        # The graph lock serialises the run-result counters across workers.
        # complete_task takes it again on its own: between the two a task is
        # counted but not yet terminal.
        with graph._lock:
            self._account(decision.action)
        graph.complete_task(task, TaskState.FINISHED if executed else TaskState.MEMOIZED)
        return deferred

    def _complete_deferred(self, graph: TaskDependenceGraph, deferred: tuple) -> None:
        """Count and complete deferred consumers, before their producer:
        their outputs are already in place."""
        for waiter in deferred:
            with graph._lock:
                self._account(ATMAction.DEFER)
            graph.complete_task(waiter, TaskState.MEMOIZED)

    def _trace_step(self, worker: int, task: Task, executed: bool, clock) -> None:
        """Write one step's ``CoreState`` records from the phase boundaries
        its clock reported: the one place any backend writes them."""
        record, label = self.trace.record, task.label
        record(worker, CoreState.ATM_HASH, clock.t_lookup, clock.t_run, label)
        if executed:
            record(worker, CoreState.TASK_EXECUTION, clock.t_run, clock.t_commit, label)
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
                if clock is None:
                    time.sleep(backoff)
                else:
                    clock.wait(backoff)
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
        with graph._lock:
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

        The serial executor holds none, the threaded one stops and joins
        its worker pool here; the process and network backends override it.
        :meth:`repro.session.Session.finish` calls it after the final barrier.
        """
        self._stop_workers()

    def _stop_workers(self) -> None:
        """Stop and join this executor's worker threads, if it keeps any."""

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


def _untrained(task: Task) -> bool:
    """Whether ``task`` may start beside running tasks: no engine of its
    owner trains its type."""
    engine = task.engine
    return engine is None or not task.task_type.atm_eligible or not training(task, engine)


class _WorkerPool:
    """The long-lived worker threads of one :class:`ThreadedExecutor`.

    ``graph`` is the gate: the graph of the open drain, ``None`` between
    drains.  A worker that finds the gate closed or the ready queue empty
    parks: it counts itself in ``parked`` and blocks on ``tokens`` until
    someone hands it a token.  Workers reach the executor only through a
    weak reference, so an executor that is dropped without ``close()`` is
    collected and its finalizer (``stop``) releases the threads.

    A task whose engine still trains its type starts only while no other
    worker is busy: each training outcome is measured at the ``p`` the one
    before it left, so the pool freezes serial's ``p``.  (The worker pools
    of ``runtime/dispatch.py`` instead look such a task up as it retires,
    before its bytes land; a threaded body writes InOut inputs in place, so
    here the lookup cannot wait.)  Such a task at the head of the queue
    is taken only under ``lock``, by a worker that finds ``busy`` empty —
    the last one to finish — and stops every other pull until then.
    """

    def __init__(self, executor: "ThreadedExecutor") -> None:
        self.lock = threading.Lock()  # guards parked, busy, errors and closing the gate
        self.quiet = threading.Condition(self.lock)  # signalled when busy empties
        # Parking is a token queue rather than a Condition because the
        # finalizer may run inside a garbage collection on a worker that
        # holds ``lock``: SimpleQueue.put is reentrant, notify() is not.
        self.tokens: queue.SimpleQueue = queue.SimpleQueue()
        self.executor = weakref.ref(executor)
        self.graph: Optional[TaskDependenceGraph] = None
        #: Workers blocked on ``tokens`` (or about to be) that nobody has
        #: woken yet: the int the ready hooks read before taking ``lock``.
        self.parked = 0
        #: Ids of the workers between taking a task and parking again.
        self.busy: set[int] = set()
        self.errors: list[BaseException] = []
        self.stopped = False
        self.threads = [
            threading.Thread(target=self._run, args=(i,), daemon=True, name=f"worker-{i}")
            for i in range(executor.config.num_threads)
        ]
        self.stop = weakref.finalize(executor, self._stop)
        for thread in self.threads:
            thread.start()

    def _stop(self) -> None:
        self.stopped = True
        for _ in self.threads:
            self.tokens.put(None)

    def wake(self, count: int) -> None:
        """Hand a token to up to ``count`` parked workers (one per task
        pushed; all of them when a drain opens the gate)."""
        with self.lock:
            count = min(count, self.parked)
            self.parked -= count
            for _ in range(count):
                self.tokens.put(None)

    def close_gate(self, timeout: float) -> list[str]:
        """End the drain and wait for the workers to leave their tasks; the
        names of those still inside one after ``timeout``.  Parked workers
        stay parked: the next drain wakes them when it opens the gate."""
        with self.lock:
            self.graph = None
            self.quiet.wait_for(lambda: not self.busy, timeout=timeout)
            return [f"worker-{i}" for i in sorted(self.busy)]

    def _run(self, worker_id: int) -> None:
        while True:
            work = self._take(worker_id)
            if work is not None:
                self._serve(worker_id, *work)
                continue
            # Parked: this frame references neither the executor nor a graph.
            self.tokens.get()
            if self.stopped:
                return

    def _take(self, worker_id: int) -> Optional[tuple]:
        """Leave the busy set, then pop a task of the open drain as
        ``(executor, graph, task)`` — or count as parked and return ``None``."""
        with self.lock:
            self.busy.discard(worker_id)
            if not self.busy:
                self.quiet.notify_all()
            graph = self.graph
            executor = self.executor() if graph is not None else None
            # Announce, then look once more: a concurrent push either sees
            # ``parked`` or is seen by this pop (no lost wake-up).
            self.parked += 1
            # ``busy`` only changes under ``lock``: a task an engine trains
            # starts here, when no other worker is busy, or not at all.
            admit = _untrained if self.busy else None
            task = executor.scheduler.next_task(admit) if executor is not None else None
            if task is None:
                return None
            self.parked -= 1
            self.busy.add(worker_id)
            return executor, graph, task

    def _serve(self, worker_id: int, executor, graph, task) -> None:
        process, next_task = executor._process, executor.scheduler.next_task
        try:
            while task is not None:
                process(task, graph, worker_id)
                # Checked before the pop, so a popped task always runs; a
                # training task is left for ``_take``.
                task = next_task(_untrained) if self.graph is graph else None
        except BaseException as exc:
            with self.lock:  # the first error ends the drain for every worker
                self.errors.append(exc)
                self.graph = None


class ThreadedExecutor(BaseExecutor):
    """Executor backed by one persistent pool of worker threads.

    ``num_threads`` daemon workers are spawned by the first drain and live
    until :meth:`close` (or until the executor is garbage collected).  They
    block instead of polling: ``drain`` opens the gate for its graph, the
    ready hooks wake parked workers when tasks are pushed, and closing the
    gate parks everyone again.  Execution is lazy — tasks that become ready
    while no drain is open stay queued until the next one (DESIGN.md §4.2).
    """

    #: Grace period (seconds) for workers to leave their task after a drain ends.
    JOIN_TIMEOUT = 5.0

    #: Spawned by the first drain, dropped by ``close()`` or a stuck worker.
    _pool: Optional[_WorkerPool] = None

    def notify_ready(self, task: Task) -> None:
        super().notify_ready(task)
        pool = self._pool
        if pool is not None and pool.parked and pool.graph is not None:
            pool.wake(1)

    def notify_ready_batch(self, tasks: Sequence[Task]) -> None:
        super().notify_ready_batch(tasks)
        pool = self._pool
        if pool is not None and pool.parked and pool.graph is not None:
            pool.wake(len(tasks))

    def _stop_workers(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.stop()
            for thread in pool.threads:
                thread.join(timeout=self.JOIN_TIMEOUT)

    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        if graph.all_finished:
            return self._result
        supervisor = self._fresh_supervisor()
        pool = self._pool
        if pool is None:
            pool = self._pool = _WorkerPool(self)
        t0 = time.perf_counter()
        pool.graph = graph  # opens the gate; only the draining thread does
        pool.wake(len(pool.threads))
        deadline = supervisor.deadline()
        while not (finished := graph.wait_all_finished(timeout=0.05)):
            if pool.errors or pool.stopped or time.perf_counter() >= deadline:
                break
        stuck = pool.close_gate(self.JOIN_TIMEOUT)
        # Taken, not shared: a kept traceback would pin this executor's frames.
        errors, pool.errors = pool.errors, []
        elapsed = time.perf_counter() - t0
        if stuck:
            # A worker that will not stop holds the graph in an unknowable
            # state; dump stacks so the wedged frame is diagnosable.  Its
            # frame cannot be reclaimed: abandon the pool, the next drain
            # spawns a fresh one.
            pool.stop()
            self._pool = None
            reason = (
                f"threaded drain: workers [{', '.join(stuck)}] still inside a task "
                f"{self.JOIN_TIMEOUT}s after stop was requested"
            )
            dump_stacks(reason)
            raise DrainAbortedError(reason, supervisor.failures)
        if errors:
            # Satellite fix: aggregate *every* worker failure instead of
            # re-raising errors[0] and silently dropping the rest.
            others = [e for e in errors if not isinstance(e, DrainAbortedError)]
            if others:
                raise others[0]
            raise supervisor.aggregate_abort("threaded drain") from errors[0]
        if not finished and pool.stopped:
            raise RuntimeStateError("threaded drain: executor closed before the graph finished")
        if not finished:
            raise supervisor.drain_timeout("threaded drain")
        self._result.elapsed += elapsed
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

