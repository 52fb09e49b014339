"""Discrete-event simulated multicore executor.

The paper evaluates ATM on a real 8-core Sandy Bridge; in Python the GIL (and
the interpreter's very different cost structure) makes wall-clock parallel
speedups unfaithful.  This executor therefore *simulates* the multicore
execution while still running every task **functionally** (real NumPy data
flows through the real THT/IKT), so correctness figures are genuine and only
time is modelled.

Model
-----
* Every task has a cost in simulated microseconds from its task type's cost
  model (applications calibrate these so that the paper's observed
  copy-vs-execute ratio of ~10x holds).
* The master thread creates tasks at a finite rate
  (``SimulationConfig.creation_throughput``); a task cannot start before its
  creation time.  This reproduces the task-creation bottleneck of Section V-C
  / Figure 8.
* An ATM lookup charges ``hashed_bytes / hash_bandwidth`` plus a fixed THT /
  IKT probe cost; a THT hit charges ``copied_bytes / copy_bandwidth`` —
  the bytes the hit *moved*: an output that was already in place (a repeat
  of the same hit into an unwritten region, ``ATMStats.elided_bytes``)
  costs no copy time, as in the real runtime; a commit charges
  ``stored_bytes / copy_bandwidth``.
* Memory-bound ATM activities (hashing, copies) are slowed down by a
  contention factor proportional to the number of simultaneously busy cores,
  reproducing the shared-memory-bandwidth effect the paper measures in
  Figure 7 (hash/copy states ~60 % slower at 8 cores than at 2).
* Dependences and the IKT behave exactly as in the real runtime: a task whose
  twin is in flight defers, and completes ``copy_cost`` after the producer
  commits.
* Tasks run through the one supervised Figure 1 step of every in-process
  backend (:meth:`BaseExecutor.start` at dispatch, :meth:`BaseExecutor.finish`
  at the finish event), priced by a cost clock.  A retry's backoff keeps
  its core busy in simulated time; a terminal failure lands when its
  simulated run ends, and is quarantined or aborts the drain as anywhere
  else.  ``task_timeout_s``, a wall-clock budget, is refused;
  ``drain_timeout_s`` is honoured in wall-clock time, like the serial drain.

Events are processed in nondecreasing simulated time, so the ATM engine
observes the same interleaving a real parallel run would produce (keys enter
the IKT when a task starts and move to the THT when it finishes).
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Optional, Sequence

from repro.common.config import RuntimeConfig, SimulationConfig
from repro.common.exceptions import ConfigurationError, SimulationError
from repro.runtime.atm_protocol import ATMAction, ATMDecision
from repro.runtime.executor import BaseExecutor, RunResult
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.task import Task, TaskState
from repro.runtime.trace import CoreState

__all__ = ["SimulatedExecutor"]

# Event kinds, ordered so simultaneous events resolve deterministically:
# finishes are processed before creations at the same timestamp so freshly
# released consumers see committed THT entries.
_EVT_TASK_FINISH = 0
_EVT_DEFERRED_DONE = 1
_EVT_TASK_CREATED = 2
_EVT_CORE_FREE = 3
_EVT_TASK_FAILED = 4


class _CostClock:
    """Phase boundaries of one simulated step, charged in simulated
    microseconds from the dispatch time ``now`` as the step reaches them.

    Two quirks of the Fig. 7 intervals are kept: a ``DEFER``'s hash phase
    includes the THT and IKT probe costs, a ``SKIP``'s and an execution's
    exclude them (their probe cost lengthens the memoization phase).
    ``end`` is when the core is free again.
    """

    __slots__ = ("executor", "core", "t_lookup", "t_run", "t_commit", "t_end", "end")

    def __init__(self, executor: "SimulatedExecutor", now: float, core: Optional[int] = None):
        self.executor = executor
        #: The core the step keeps busy (``None``: an orphan rescue, which
        #: runs on its failed producer's core, after it).
        self.core = core
        self.end = now + executor.sim.task_overhead
        self.t_lookup = self.t_run = self.t_commit = self.t_end = self.end

    def looked_up(self, decision: ATMDecision) -> None:
        executor, action = self.executor, decision.action
        hash_cost = executor._hash_cost(decision.hashed_bytes)
        probe_cost = 0.0
        if decision.atm_handled:  # a THT probe, then an IKT probe for a DEFER
            ikt = executor.sim.ikt_lookup_overhead if action is ATMAction.DEFER else 0.0
            probe_cost = executor.sim.tht_lookup_overhead + ikt
        if action is ATMAction.SKIP:
            executor._active_memory_ops += 1
        self.t_run = self.end = self.end + hash_cost
        self.end += probe_cost
        if action is ATMAction.DEFER and hash_cost > 0:
            self.t_run = self.end
        self.t_commit = self.t_end = self.t_run

    # The phases run back to back: the hash ends as the body starts, the
    # body as the memoization phase does.
    t_looked = property(lambda self: self.t_run)
    t_ran = property(lambda self: self.t_commit)

    def ran(self, task: Task) -> None:
        cost = task.simulated_cost()
        self.t_commit += cost
        self.end += cost

    def wait(self, backoff: float) -> None:
        # A retry's backoff keeps the core busy in simulated time.
        self.t_commit += backoff * 1e6
        self.end += backoff * 1e6

    def committed(self, task: Task, decision: ATMDecision) -> None:
        executor = self.executor
        if decision.action is ATMAction.SKIP:
            self.end += executor._copy_cost(decision.copied_bytes)
            self.t_end = self.end
        elif decision.atm_handled:
            cost = executor._copy_cost(task.output_bytes)
            self.end += cost
            if cost > 0:
                self.t_end = self.end


class SimulatedExecutor(BaseExecutor):
    """Deterministic discrete-event multicore executor.

    Every task goes through the one Figure 1 step of
    :class:`~repro.runtime.executor.BaseExecutor` (and so through the
    supervision layer): :meth:`start` at dispatch with a cost clock,
    :meth:`finish` at the task's finish event.  A task body that fails
    terminally fails when its simulated run ends, so twins that look its
    key up meanwhile defer on it and are rescued.
    """

    time_unit = "us"
    #: The drain models the master's creation throughput; no window barrier.
    live_window = None

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        sim_config: Optional[SimulationConfig] = None,
    ) -> None:
        super().__init__(config=config)
        if self.config.task_timeout_s is not None:
            raise ConfigurationError(
                "task_timeout_s is a wall-clock budget and has no meaning on the "
                "simulated executor, whose time is modelled; leave it unset for "
                "executor='simulated'"
            )
        self.sim = sim_config or SimulationConfig()
        self._released: set[int] = set()
        self._created: set[int] = set()
        self._clock = 0.0
        self._seq = itertools.count()
        self._events: list[tuple[float, int, int, int, object]] = []
        # Number of in-flight memoization (SKIP) activities; these are the
        # memory-bandwidth-bound operations that contend with each other
        # (paper Figure 7: hash/copy states slow down as cores increase).
        self._active_memory_ops = 0

    # The simulator manages availability itself (creation throttling), so the
    # graph's ready notification only records the release.
    def notify_ready(self, task: Task) -> None:
        self._released.add(task.task_id)
        if task.task_id in self._created:
            self.scheduler.task_ready(task)

    def notify_ready_batch(self, tasks: Sequence[Task]) -> None:
        # Readiness is gated per task on the simulated creation event, so a
        # batched release is a per-task release, in order.
        for task in tasks:
            self.notify_ready(task)

    # -- cost helpers ----------------------------------------------------------
    def _contention(self) -> float:
        """Slow-down factor for memory-bound ATM activities.

        Proportional to the number of *other* concurrently running
        memoization operations, which share cache and memory bandwidth.
        """
        return 1.0 + self.sim.memory_contention_factor * max(0, self._active_memory_ops)

    def _hash_cost(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return (nbytes / self.sim.hash_bandwidth) * self._contention()

    def _copy_cost(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return (nbytes / self.sim.copy_bandwidth) * self._contention()

    def _push(self, time: float, kind: int, payload: object) -> None:
        heapq.heappush(self._events, (time, kind, next(self._seq), 0, payload))

    # -- the step's simulated-time hooks -----------------------------------------
    def _complete_deferred(self, graph: TaskDependenceGraph, deferred: tuple) -> None:
        # A deferred consumer completes once its outputs are copied in.
        for waiter in deferred:
            self._push(
                self._clock + self._copy_cost(waiter.output_bytes),
                _EVT_DEFERRED_DONE,
                waiter,
            )

    def _task_failed(self, *failure, worker: str = "", clock=None) -> None:
        # The failure lands when the failed run ends in simulated time.
        self._push(clock.end, _EVT_TASK_FAILED, (clock.core, failure, worker))

    def _rescue_orphan(self, task: Task, graph: TaskDependenceGraph, worker: str, clock) -> None:
        # The twin runs as a step of its own after its failed producer, on
        # the producer's core (``clock``'s), and is traced there.  Its clock
        # keeps no core: a failure of its own frees none.
        rescue = _CostClock(self, clock.end)
        super()._rescue_orphan(task, graph, worker, rescue)
        clock.end = rescue.end
        self._trace_step(clock.core, task, True, rescue)  # its body: hash and commit are empty

    # -- main loop -------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        pending = sorted(graph.pending_tasks(), key=lambda t: t.task_id)
        if not pending and graph.all_finished:
            return self._result
        supervisor = self._fresh_supervisor()
        # The drain deadline is wall-clock time, as on the other backends: a
        # simulated run whose task bodies take too long is aborted alike.
        deadline = supervisor.deadline()
        events = self._events = []
        start_clock = self._clock

        # Master creates tasks at a bounded rate starting from the current clock.
        creation_interval = 1.0 / self.sim.creation_throughput
        for index, task in enumerate(pending):
            task.creation_time = start_clock + index * creation_interval
            self._push(task.creation_time, _EVT_TASK_CREATED, task)
            self.trace.record(
                0, CoreState.TASK_CREATION, task.creation_time,
                task.creation_time + creation_interval * 0.5, task.label,
            )

        num_cores = self.config.num_threads
        # Idle cores live in a min-heap of core ids; a core is either busy or
        # in the heap, never both.  Popping the heap yields the lowest idle
        # core id, exactly the core the seed's per-event list rebuild picked,
        # so schedules (and therefore every figure) are bit-identical — minus
        # the O(cores) scan per dispatch attempt.
        idle_heap = list(range(num_cores))
        heapq.heapify(idle_heap)
        self._active_memory_ops = 0

        def dispatch(now: float) -> None:
            while idle_heap:
                core = heapq.heappop(idle_heap)
                task = self.scheduler.next_task()
                if task is None:
                    heapq.heappush(idle_heap, core)
                    return
                self._occupy(core, task, graph, now)

        while events:
            now, kind, _, _, payload = heapq.heappop(events)
            if now < self._clock - 1e-9:
                raise SimulationError("event time went backwards")
            self._clock = max(self._clock, now)

            if kind == _EVT_TASK_CREATED:
                task = payload  # type: ignore[assignment]
                self._created.add(task.task_id)
                if task.task_id in self._released:
                    self.scheduler.task_ready(task)
            elif kind == _EVT_TASK_FINISH:
                task, core, decision, executed = payload  # type: ignore[misc]
                if decision.action is ATMAction.SKIP:
                    self._active_memory_ops = max(0, self._active_memory_ops - 1)
                heapq.heappush(idle_heap, core)
                task.finish_time = now
                self.finish(task, graph, decision, executed, core)
                dispatch(now)
            elif kind == _EVT_DEFERRED_DONE:
                payload.finish_time = now  # type: ignore[attr-defined]
                super()._complete_deferred(graph, (payload,))
                dispatch(now)
            elif kind == _EVT_CORE_FREE:
                heapq.heappush(idle_heap, payload)
                dispatch(now)
            elif kind == _EVT_TASK_FAILED:
                core, failure, worker = payload  # type: ignore[misc]
                failure[0].finish_time = now
                # Deferred twins of the failed task are rescued on its core
                # (:meth:`_rescue_orphan`), which is free once they have run.
                clock = _CostClock(self, now, core)
                clock.end = now
                super()._task_failed(*failure, worker=worker, clock=clock)
                if core is not None:
                    self._push(clock.end, _EVT_CORE_FREE, core)

            dispatch(self._clock)
            self.trace.sample_ready(self._clock, self.scheduler.pending())
            if time.perf_counter() >= deadline:
                raise supervisor.drain_timeout("simulated drain")

        # Completed, failed and cancelled tasks alike leave the creation gate.
        for task in pending:
            self._released.discard(task.task_id)
            self._created.discard(task.task_id)

        unfinished = sum(1 for task in pending if not task.state.is_terminal)
        if unfinished:
            raise SimulationError(
                f"simulation ended with {unfinished}/{len(pending)} tasks "
                "neither completed, failed nor cancelled (dependence cycle or lost event)"
            )
        self._result.elapsed += self._clock - start_clock
        return self._result

    def _occupy(self, core: int, task: Task, graph: TaskDependenceGraph, now: float) -> None:
        """Dispatch ``task`` on ``core``: the step's first half, its trace
        records, and the event that frees the core."""
        task.start_time = now
        task.executed_on = core
        clock = _CostClock(self, now, core)
        decision = self.start(task, graph, core, clock)
        if decision is None:
            return  # its failure event frees the core
        executed = not decision.skips_execution
        if decision.action is ATMAction.DEFER:
            task.state = TaskState.WAITING_INFLIGHT
            event = (_EVT_CORE_FREE, core)
        else:
            clock.committed(task, decision)
            event = (_EVT_TASK_FINISH, (task, core, decision, executed))
        self._trace_step(core, task, executed, clock)
        self._push(clock.end, *event)
