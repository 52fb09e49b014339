"""Serial and threaded executors.

Both executors run the tasks of a :class:`TaskDependenceGraph` to completion,
calling into an optional memoization engine around every task exactly as the
paper's Figure 1 describes: lookup when the task is pulled from the ready
queue, commit when it finishes.

* :class:`SerialExecutor` — one worker, wall-clock timing.  Used for baseline
  correctness runs and for measuring per-task costs.
* :class:`ThreadedExecutor` — real ``threading`` workers pulling from a shared
  scheduler.  Python's GIL prevents faithful parallel speedup measurements
  (see DESIGN.md §4), but this executor exercises the real concurrency paths:
  per-bucket THT locks, the single IKT lock, postponed output copies and the
  thread-safe graph, so it is the vehicle for the concurrency test-suite.

Deterministic *performance* figures come from
:class:`repro.runtime.simulator.SimulatedExecutor`.
"""

from __future__ import annotations

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
    ATMAction,
    ATMDecision,
    EXECUTE_DECISION,
    MemoizationEngineProtocol,
)
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.scheduler import Scheduler, make_scheduler
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
    (exhausted supervision budget), ``tasks_cancelled`` (dependent subgraph)
    and the structured per-failure report in ``failures`` (a list of
    :class:`repro.runtime.supervision.TaskFailure`).

    ``lost_deltas`` counts worker ATM-engine deltas that could not be
    merged because their worker/endpoint died before the drain barrier
    (process and network backends).  Lost deltas cost reuse *statistics*,
    never correctness — the dead worker's unacknowledged tasks were re-run
    elsewhere — but a nonzero count means reported reuse rates undercount,
    so the draining executor also emits a ``RuntimeWarning``.
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
    lost_deltas: int = 0
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
        self.lost_deltas += other.lost_deltas
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


class BaseExecutor:
    """Shared bookkeeping for all executors."""

    time_unit = "s"
    #: What an aborted drain raises (the network backend narrows it).
    abort_error = DrainAbortedError

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        engine: Optional[MemoizationEngineProtocol] = None,
    ) -> None:
        self.config = config or RuntimeConfig()
        self.engine = engine
        self.scheduler: Scheduler = make_scheduler(self.config)
        self.trace = TraceRecorder(enabled=self.config.enable_tracing)
        self._result = RunResult(time_unit=self.time_unit, trace=self.trace)
        # Supervision: retries/timeouts/quarantine per DESIGN.md §7.  The
        # supervisor writes failures straight onto the run result; drains
        # refresh it so each drain gets a fresh deadline/attempt ledger.
        self._fresh_supervisor()
        self._failure_lock = threading.Lock()

    # -- runtime hooks ---------------------------------------------------------
    def notify_ready(self, task: Task) -> None:
        """Called by the graph when a task's dependences become satisfied."""
        self.scheduler.task_ready(task, worker_hint=task.creation_index)

    def notify_ready_batch(self, tasks: Sequence[Task]) -> None:
        """Batched ready notification (graph ``on_ready_batch`` hook).

        One scheduler call — and therefore one ready-queue lock acquisition —
        per release set, preserving per-task worker hints.  Executors that
        gate readiness per task (the simulator) override this with a loop
        over their own :meth:`notify_ready`; custom schedulers registered
        through the public seam that predate ``tasks_ready`` degrade to the
        per-task path instead of breaking.
        """
        tasks_ready = getattr(self.scheduler, "tasks_ready", None)
        if tasks_ready is None:
            for task in tasks:
                self.notify_ready(task)
            return
        tasks_ready(tasks, worker_hints=[task.creation_index for task in tasks])

    def result(self) -> RunResult:
        return self._result

    # -- helpers ---------------------------------------------------------------
    def _lookup(self, task: Task, worker_id: int) -> ATMDecision:
        if self.engine is None or not task.task_type.atm_eligible:
            return EXECUTE_DECISION
        return self.engine.task_ready(task, worker_id)

    def _finalize_result(self) -> None:
        """Stash the engine's memory/cache telemetry on the run result.

        Called at the end of every drain so perf harnesses (and users) can
        read ATM memory footprint and key-cache effectiveness without
        reaching into engine internals.
        """
        engine = self.engine
        if engine is None:
            return
        memory = getattr(engine, "memory_bytes", None)
        if callable(memory):
            self._result.extra["atm_memory_bytes"] = memory()
        keygen = getattr(engine, "keygen", None)
        cache_info = getattr(keygen, "cache_info", None)
        if callable(cache_info):
            self._result.extra["keygen_cache"] = cache_info()

    def _account(self, decision: ATMDecision) -> None:
        result = self._result
        result.tasks_completed += 1
        if decision.action == ATMAction.SKIP:
            result.tasks_memoized += 1
        elif decision.action == ATMAction.DEFER:
            result.tasks_deferred += 1
        elif decision.action == ATMAction.EXECUTE_AND_TRAIN:
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

    def _run_supervised(self, task: Task):
        """Run the task body under the retry/timeout budget.

        Returns ``None`` on success, else ``(error_cls, reason, exc)`` for
        the terminal failure.  Retries re-run in place with exponential
        backoff; a post-hoc timeout (in-process backends cannot preempt a
        Python frame) is terminal immediately — a task that blew its budget
        once would blow it again.
        """
        supervisor = self._supervisor
        while True:
            t_start = time.perf_counter()
            try:
                task.run()
            except Exception as exc:
                backoff = supervisor.count_attempt(task)
                if backoff is not None:
                    time.sleep(backoff)
                    continue
                return (TaskFailedError, f"{type(exc).__name__}: {exc}", exc)
            elapsed = time.perf_counter() - t_start
            if supervisor.timed_out(elapsed):
                return (TaskTimeoutError, supervisor.timeout_reason(elapsed), None)
            return None

    def _abandon_atm(self, task: Task, decision: ATMDecision) -> list:
        """Release engine state held for a task that will never commit.

        Returns the engine's orphaned deferred consumers (tasks that were
        waiting for this producer's outputs), if any.
        """
        if decision.atm_handled and self.engine is not None:
            abandoned = getattr(self.engine, "task_abandoned", None)
            if callable(abandoned):
                return abandoned(task, decision) or []
        return []

    def _task_failed(
        self,
        task: Task,
        graph: TaskDependenceGraph,
        decision: ATMDecision,
        error: type,
        reason: str,
        exc: Optional[BaseException],
        worker: str = "",
    ) -> None:
        """Terminal task failure: quarantine the subgraph or abort the drain."""
        orphans = self._abandon_atm(task, decision)
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
            self._rescue_orphan(orphan, graph, worker=worker)

    def _rescue_orphan(self, task: Task, graph: TaskDependenceGraph, worker: str = "") -> None:
        """Execute a deferred consumer whose in-flight producer failed."""
        task.state = TaskState.RUNNING
        failure = self._run_supervised(task)
        if failure is not None:
            self._task_failed(task, graph, EXECUTE_DECISION, *failure, worker=worker)
            return
        with graph._lock:
            self._account(EXECUTE_DECISION)
        graph.complete_task(task, TaskState.FINISHED)

    def _process(self, task: Task, graph: TaskDependenceGraph, worker_id: int) -> None:
        """The ATM step around one task (the paper's Figure 1): look the key
        up as the task leaves the ready queue, execute it or copy the stored
        outputs, commit when it finishes."""
        now = time.perf_counter
        t_lookup = now()
        decision = self._lookup(task, worker_id)
        t_after_lookup = now()
        self.trace.record(
            worker_id, CoreState.ATM_HASH, t_lookup, t_after_lookup, task.label
        )
        executed = False
        if not decision.skips_execution:
            task.state = TaskState.RUNNING
            task.executed_on = worker_id
            failure = self._run_supervised(task)
            if failure is not None:
                self._task_failed(
                    task, graph, decision, *failure, worker=f"worker-{worker_id}"
                )
                return
            executed = True
        t_after_run = now()
        if executed:
            self.trace.record(
                worker_id, CoreState.TASK_EXECUTION, t_after_lookup, t_after_run, task.label
            )
        if decision.atm_handled and self.engine is not None:
            self.engine.task_finished(task, decision, executed, worker_id)
        t_after_commit = now()
        self.trace.record(
            worker_id, CoreState.ATM_MEMOIZATION, t_after_run, t_after_commit, task.label
        )
        with graph._lock:  # account + complete under one lock for consistent counts
            self._account(decision)
        if decision.action != ATMAction.DEFER:
            final_state = TaskState.FINISHED if executed else TaskState.MEMOIZED
            graph.complete_task(task, final_state)
        self.trace.sample_ready(now(), self.scheduler.pending())

    def drain(self, graph: TaskDependenceGraph) -> RunResult:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release executor resources (worker pools, shared segments).

        No-op for in-process executors; the process and network backends
        override it.  :meth:`repro.session.Session.finish` calls it after
        the final barrier.
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
        if self.engine is not None:
            self.engine.set_deferred_completion_callback(
                lambda task, nbytes: graph.complete_task(task, TaskState.MEMOIZED)
            )
        while not graph.all_finished:
            task = self.scheduler.next_task(0)
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
        elapsed = time.perf_counter() - t0
        self._result.elapsed += elapsed
        self._finalize_result()
        return self._result


class ThreadedExecutor(BaseExecutor):
    """Executor backed by real worker threads.

    Workers spin on the scheduler with a small sleep when idle; the drain
    returns when the graph reports every task terminal.
    """

    #: Idle back-off (seconds) for workers when the ready queue is empty.
    IDLE_SLEEP = 0.0005
    #: Grace period (seconds) for sibling workers to stop after a drain ends.
    JOIN_TIMEOUT = 5.0

    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        if graph.all_finished:
            return self._result
        supervisor = self._fresh_supervisor()
        stop_flag = threading.Event()
        errors: list[BaseException] = []
        errors_lock = threading.Lock()
        if self.engine is not None:
            self.engine.set_deferred_completion_callback(
                lambda task, nbytes: graph.complete_task(task, TaskState.MEMOIZED)
            )
        t0 = time.perf_counter()

        def worker_loop(worker_id: int) -> None:
            while not stop_flag.is_set():
                task = self.scheduler.next_task(worker_id)
                if task is None:
                    if graph.all_finished:
                        return
                    time.sleep(self.IDLE_SLEEP)
                    continue
                try:
                    self._process(task, graph, worker_id)
                except BaseException as exc:
                    with errors_lock:
                        errors.append(exc)
                    stop_flag.set()
                    return

        threads = [
            threading.Thread(target=worker_loop, args=(i,), daemon=True, name=f"worker-{i}")
            for i in range(self.config.num_threads)
        ]
        for thread in threads:
            thread.start()
        finished = False
        timed_out = False
        deadline = supervisor.deadline()
        while True:
            if graph.wait_all_finished(timeout=0.05):
                finished = True
                break
            if stop_flag.is_set():
                break
            if time.perf_counter() >= deadline:
                timed_out = True
                break
        stop_flag.set()
        for thread in threads:
            thread.join(timeout=self.JOIN_TIMEOUT)
        stuck = [thread.name for thread in threads if thread.is_alive()]
        elapsed = time.perf_counter() - t0
        if stuck:
            # A worker that will not stop holds the graph in an unknowable
            # state; dump stacks so the wedged frame is diagnosable.
            reason = (
                f"threaded drain: workers [{', '.join(stuck)}] still alive "
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
        if timed_out and not finished:
            raise supervisor.drain_timeout("threaded drain")
        if not finished:
            raise RuntimeStateError("threaded drain stopped before the graph finished")
        self._result.elapsed += elapsed
        self._finalize_result()
        return self._result


# -- backend registry ------------------------------------------------------------
# Builtin factories resolved by name through the executor registry (DESIGN.md
# §4).  ``"process"`` and ``"simulated"`` import their modules lazily to keep
# the module dependency graph acyclic; plugin backends (e.g. a network
# transport on the mp_executor seam) are added with
# repro.session.EXECUTORS.register(name, factory) and become valid
# ``RuntimeConfig.executor`` values automatically.


def _make_process(config, engine, sim_config):
    from repro.runtime.mp_executor import ProcessExecutor

    return ProcessExecutor(config=config, engine=engine)


def _make_simulated(config, engine, sim_config):
    from repro.runtime.simulator import SimulatedExecutor

    return SimulatedExecutor(config=config, engine=engine, sim_config=sim_config)


def _make_network(config, engine, sim_config):
    from repro.runtime.net_executor import NetworkExecutor

    return NetworkExecutor(config=config, engine=engine)


EXECUTORS.register(
    "serial",
    lambda config, engine, sim_config: SerialExecutor(config=config, engine=engine),
    replace=True,
)
EXECUTORS.register(
    "threaded",
    lambda config, engine, sim_config: ThreadedExecutor(config=config, engine=engine),
    replace=True,
)
EXECUTORS.register("process", _make_process, replace=True)
EXECUTORS.register("simulated", _make_simulated, replace=True)
# The network backend lands on the same registration seam DESIGN.md §6.2
# documents for out-of-tree plugins (EXECUTORS.register("network", factory));
# shipping in-tree it registers here like every other builtin.
EXECUTORS.register("network", _make_network, replace=True)


def build_executor(
    config: Optional[RuntimeConfig] = None,
    engine: Optional[MemoizationEngineProtocol] = None,
    sim_config=None,
) -> BaseExecutor:
    """Build the executor named by ``config.executor`` via the registry.

    This is the assembly path used by :class:`repro.session.Session`; user
    code should go through the Session API rather than call it directly.
    """
    config = config or RuntimeConfig()
    factory = EXECUTORS.factory(config.executor)
    return factory(config, engine, sim_config)

