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

Events are processed in nondecreasing simulated time, so the ATM engine
observes the same interleaving a real parallel run would produce (keys enter
the IKT when a task starts and move to the THT when it finishes).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Optional

from repro.common.config import RuntimeConfig, SimulationConfig
from repro.common.exceptions import SimulationError
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


class SimulatedExecutor(BaseExecutor):
    """Deterministic discrete-event multicore executor."""

    time_unit = "us"

    def __init__(
        self,
        config: Optional[RuntimeConfig] = None,
        sim_config: Optional[SimulationConfig] = None,
    ) -> None:
        super().__init__(config=config)
        self.sim = sim_config or SimulationConfig()
        self._released: set[int] = set()
        self._created: set[int] = set()
        self._available: deque[Task] = deque()
        self._clock = 0.0
        self._seq = itertools.count()
        # Number of in-flight memoization (SKIP) activities; these are the
        # memory-bandwidth-bound operations that contend with each other
        # (paper Figure 7: hash/copy states slow down as cores increase).
        self._active_memory_ops = 0
        # Running count of busy simulated cores, maintained by drain()'s
        # free_core/dispatch pair (no per-event scans of a flag list).
        self._busy_cores = 0

    @property
    def busy_core_count(self) -> int:
        """Currently busy simulated cores (running counter, O(1))."""
        return self._busy_cores

    # The simulator manages availability itself (creation throttling), so the
    # graph's ready notification only records the release.
    def notify_ready(self, task: Task) -> None:
        self._released.add(task.task_id)
        if task.task_id in self._created:
            self.scheduler.task_ready(task)

    def notify_ready_batch(self, tasks) -> None:
        # Readiness is gated per task on the simulated creation event, so a
        # batched release degrades to the per-task path (order preserved).
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

    # -- main loop -------------------------------------------------------------
    def drain(self, graph: TaskDependenceGraph) -> RunResult:
        pending = [t for t in graph.pending_tasks() if t.task_id not in self._created]
        pending.sort(key=lambda t: t.task_id)
        if not pending and graph.all_finished:
            return self._result

        events: list[tuple[float, int, int, int, object]] = []
        start_clock = self._clock

        def push_event(time: float, kind: int, payload: object) -> None:
            heapq.heappush(events, (time, kind, next(self._seq), 0, payload))

        # Master creates tasks at a bounded rate starting from the current clock.
        creation_interval = 1.0 / self.sim.creation_throughput
        for index, task in enumerate(pending):
            task.creation_time = start_clock + index * creation_interval
            push_event(task.creation_time, _EVT_TASK_CREATED, task)
            self.trace.record(
                0,
                CoreState.TASK_CREATION,
                task.creation_time,
                task.creation_time + creation_interval * 0.5,
                task.label,
            )

        num_cores = self.config.num_threads
        # Idle cores live in a min-heap of core ids; a core is either busy or
        # in the heap, never both.  Popping the heap yields the lowest idle
        # core id, exactly the core the seed's per-event list rebuild picked,
        # so schedules (and therefore every figure) are bit-identical — minus
        # the O(cores) scan per dispatch attempt.
        idle_heap = list(range(num_cores))
        heapq.heapify(idle_heap)
        self._busy_cores = 0
        waiters: dict[int, list[tuple[Task, ATMDecision]]] = {}
        target_completions = len(pending)
        completions = 0

        def free_core(core: int) -> None:
            heapq.heappush(idle_heap, core)
            self._busy_cores -= 1

        def dispatch(now: float) -> None:
            while idle_heap:
                core = heapq.heappop(idle_heap)
                task = self.scheduler.next_task(core)
                if task is None:
                    heapq.heappush(idle_heap, core)
                    return
                self._busy_cores += 1
                self._start_task(task, core, now, waiters, push_event)

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
                if decision.atm_handled:
                    # The engine copies into the deferred consumers it names;
                    # their completion (and copy cost) is scheduled below.
                    task.engine.task_finished(task, decision, executed, worker_id=core)
                if decision.action == ATMAction.SKIP:
                    self._active_memory_ops = max(0, self._active_memory_ops - 1)
                free_core(core)
                final_state = TaskState.FINISHED if executed else TaskState.MEMOIZED
                self._complete(graph, task, final_state)
                completions += 1
                self._account(decision)
                task.finish_time = now
                # Wake consumers waiting on this in-flight producer.
                for waiter, waiter_decision in waiters.pop(task.task_id, []):
                    copy_cost = self._copy_cost(
                        waiter_decision.copied_bytes or waiter.output_bytes
                    )
                    push_event(now + copy_cost, _EVT_DEFERRED_DONE, (waiter, waiter_decision))
                dispatch(now)
            elif kind == _EVT_DEFERRED_DONE:
                waiter, waiter_decision = payload  # type: ignore[misc]
                self._complete(graph, waiter, TaskState.MEMOIZED)
                completions += 1
                self._account(waiter_decision)
                waiter.finish_time = now
                dispatch(now)
            elif kind == _EVT_CORE_FREE:
                core = payload  # type: ignore[assignment]
                free_core(core)
                dispatch(now)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind}")

            dispatch(self._clock)
            self.trace.sample_ready(self._clock, self.scheduler.pending())

        if completions != target_completions:
            raise SimulationError(
                f"simulation ended with {completions}/{target_completions} tasks "
                "completed (dependence cycle or lost event)"
            )
        self._result.elapsed += self._clock - start_clock
        return self._result

    # -- per-task processing ----------------------------------------------------
    def _complete(self, graph: TaskDependenceGraph, task: Task, state: TaskState) -> None:
        """Complete ``task`` in the graph; its release and creation records go."""
        graph.complete_task(task, state)
        self._released.discard(task.task_id)
        self._created.discard(task.task_id)

    def _start_task(
        self,
        task: Task,
        core: int,
        now: float,
        waiters: dict[int, list[tuple[Task, ATMDecision]]],
        push_event,
    ) -> None:
        decision = self._lookup(task, task.engine, core)
        task.start_time = now
        task.executed_on = core
        overhead = self.sim.task_overhead
        hash_cost = self._hash_cost(decision.hashed_bytes)
        lookup_cost = 0.0
        if decision.atm_handled:
            lookup_cost += self.sim.tht_lookup_overhead
            if decision.action in (ATMAction.DEFER,):
                lookup_cost += self.sim.ikt_lookup_overhead

        if decision.action == ATMAction.SKIP:
            self._active_memory_ops += 1
            copy_cost = self._copy_cost(decision.copied_bytes)
            busy_until = now + overhead + hash_cost + lookup_cost + copy_cost
            if hash_cost > 0:
                self.trace.record(core, CoreState.ATM_HASH, now + overhead, now + overhead + hash_cost, task.label)
            self.trace.record(
                core,
                CoreState.ATM_MEMOIZATION,
                now + overhead + hash_cost,
                busy_until,
                task.label,
            )
            push_event(busy_until, _EVT_TASK_FINISH, (task, core, decision, False))
        elif decision.action == ATMAction.DEFER:
            producer = decision.waiting_on
            if producer is None:
                raise SimulationError(f"DEFER decision for {task.label} without a producer")
            busy_until = now + overhead + hash_cost + lookup_cost
            if hash_cost > 0:
                self.trace.record(core, CoreState.ATM_HASH, now + overhead, busy_until, task.label)
            waiters.setdefault(producer.task_id, []).append((task, decision))
            task.state = TaskState.WAITING_INFLIGHT
            push_event(busy_until, _EVT_CORE_FREE, core)
        else:
            # EXECUTE or EXECUTE_AND_TRAIN: run the task functionally now.
            task.state = TaskState.RUNNING
            task.run()
            exec_cost = task.simulated_cost()
            commit_cost = 0.0
            if decision.atm_handled:
                commit_cost = self._copy_cost(task.output_bytes)
            busy_until = now + overhead + hash_cost + lookup_cost + exec_cost + commit_cost
            if hash_cost > 0:
                self.trace.record(core, CoreState.ATM_HASH, now + overhead, now + overhead + hash_cost, task.label)
            self.trace.record(
                core,
                CoreState.TASK_EXECUTION,
                now + overhead + hash_cost,
                now + overhead + hash_cost + exec_cost,
                task.label,
            )
            if commit_cost > 0:
                self.trace.record(
                    core,
                    CoreState.ATM_MEMOIZATION,
                    now + overhead + hash_cost + exec_cost,
                    busy_until,
                    task.label,
                )
            push_event(busy_until, _EVT_TASK_FINISH, (task, core, decision, True))
