"""Protocol between the runtime's executors and a memoization engine.

The runtime does not depend on the ATM implementation: executors talk to any
object implementing :class:`MemoizationEngineProtocol`.  The ATM package
provides the real implementation (:class:`repro.atm.engine.ATMEngine`); tests
can plug in simple fakes.

The decision returned by ``task_ready`` tells the executor what to do with
the task and how many bytes the engine touched, so the discrete-event
simulator can charge hash and copy costs without knowing anything about the
THT internals.

:func:`lookup`, :func:`commit` and :func:`abandon` are the engine's side of
the paper's Figure 1 step, shared by every backend and called only in the
process that owns the engine: the executors' step (``BaseExecutor.start`` /
``finish``) and, for the worker pools, the parent's chunk dispatcher
(``dispatch.ChunkDispatcher``, which looks a task up before shipping it and
commits it through ``finish`` when its result lands, and asks
:func:`training` before a task leaves the ready queue) call these and
nothing else of an engine.  A remote worker never sees one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Protocol, runtime_checkable

from repro.runtime.task import Task

__all__ = [
    "ATMAction",
    "ATMDecision",
    "ATMCommitInfo",
    "EXECUTE_DECISION",
]


class ATMAction(enum.Enum):
    """What the executor must do with a ready task after the ATM lookup."""

    #: Run the task normally (THT and IKT miss, or ATM disabled for the task).
    EXECUTE = "execute"
    #: THT hit: the engine already copied the stored outputs; skip execution.
    SKIP = "skip"
    #: IKT hit: an identical task is in flight; do not execute, completion is
    #: deferred until the producer commits and its outputs are copied.
    DEFER = "defer"
    #: Dynamic-ATM training hit: execute the task anyway so the engine can
    #: measure the approximation error afterwards.
    EXECUTE_AND_TRAIN = "execute_and_train"


@dataclass
class ATMDecision:
    """Outcome of the ATM lookup performed when a task becomes ready."""

    action: ATMAction
    #: Bytes fed to the hash-key generator (0 when ATM skipped the task).
    hashed_bytes: int = 0
    #: Bytes moved from the THT into the task outputs (SKIP only; outputs
    #: already in place are not counted).
    copied_bytes: int = 0
    #: Sampling fraction used for the key (diagnostics).
    p: float = 1.0
    #: Producer task a DEFER decision is waiting on.
    waiting_on: Optional[Task] = None
    #: True when the lookup reached the THT (i.e. the task type was eligible).
    atm_handled: bool = False
    #: Opaque engine payload carried through to ``task_finished``.
    payload: dict = field(default_factory=dict)

    @property
    def skips_execution(self) -> bool:
        return self.action in _SKIPPING


#: The actions that skip the task body, read on every step (a module tuple:
#: looking members up on the enum class costs more than the test itself).
_SKIPPING = (ATMAction.SKIP, ATMAction.DEFER)

#: Decision used for tasks the ATM engine never sees (engine disabled or task
#: type not eligible).
EXECUTE_DECISION = ATMDecision(action=ATMAction.EXECUTE, atm_handled=False)


@dataclass
class ATMCommitInfo:
    """Costs incurred when a finished task is committed to the THT."""

    #: Bytes copied from the task outputs into the THT entry.
    stored_bytes: int = 0
    #: Bytes copied to satisfy postponed (IKT) consumers.
    forwarded_bytes: int = 0
    #: The deferred consumers this commit satisfied: their outputs are in
    #: place, and the caller completes them (as ``MEMOIZED``) in its graph.
    deferred: tuple = ()


@runtime_checkable
class MemoizationEngineProtocol(Protocol):
    """Interface the executors expect from a memoization engine."""

    def task_ready(self, task: Task, worker_id: int = 0) -> ATMDecision:
        """Lookup performed right after a worker pulls ``task`` from the RQ."""
        ...

    def task_finished(
        self, task: Task, decision: ATMDecision, executed: bool, worker_id: int = 0
    ) -> ATMCommitInfo:
        """Commit/cleanup performed when the task's processing completes."""
        ...

    def task_abandoned(self, task: Task, decision: ATMDecision) -> list[Task]:
        """Release what the lookup registered for a task that failed
        terminally; returns the deferred consumers it orphaned."""
        ...

    # Optional: ``is_training(task) -> bool``, read through :func:`training`.


def training(task: Task, engine) -> bool:
    """Whether ``engine`` still trains ``task``'s type (its THT hits execute
    so their error is measured); an engine without the query never trains."""
    query = getattr(engine, "is_training", None)
    return query is not None and query(task)


def lookup(task: Task, engine, worker_id: int) -> ATMDecision:
    """The eligibility gate and the lookup: a task without an engine or of
    an ineligible type executes without the engine ever seeing it."""
    if engine is None or not task.task_type.atm_eligible:
        return EXECUTE_DECISION
    return engine.task_ready(task, worker_id)


def commit(task: Task, engine, decision: ATMDecision, executed: bool, worker_id: int) -> tuple:
    """Commit a finished task; returns the deferred consumers the commit
    satisfied (their outputs are in place, the caller completes them)."""
    if not decision.atm_handled:
        return ()
    return engine.task_finished(task, decision, executed, worker_id).deferred


def abandon(task: Task, engine, decision: ATMDecision) -> list:
    """Release the engine state of a task that will never commit; returns
    its orphaned deferred consumers."""
    if not decision.atm_handled:
        return []
    return engine.task_abandoned(task, decision)
