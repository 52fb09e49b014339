"""Backend-agnostic task supervision.

The four supervision knobs on :class:`repro.common.config.RuntimeConfig`
mean the same thing on every executor backend, because each one hands its
task failures to a :class:`TaskSupervisor`:

* serial and simulated run every task through the one Figure 1 step of
  :class:`repro.runtime.executor.BaseExecutor` (``start`` runs the body
  under ``_run_supervised``, a terminal failure goes to ``_task_failed``);
  the simulator charges retry backoffs to the core in simulated time and
  lands a terminal failure when its simulated run ends;
* threaded, process and network workers only run bodies and report; the
  draining thread's :class:`repro.runtime.dispatch.ChunkDispatcher`
  supervises them.

``task_timeout_s``
    Per-task wall-clock budget.  Serial cannot preempt a running Python
    frame, so it detects the overrun *post hoc* when the task returns.  The
    worker pools share one wedge rule (``ChunkDispatcher._check_wedged``):
    under a timeout a chunk is one task, a worker acknowledges a chunk as
    it starts on it, and a chunk older than ``task_timeout_s`` (plus
    ``TIMEOUT_GRACE`` on the remote pools) since that ack is terminal at
    once; its worker is taken out of service (the process killed and
    respawned, the endpoint excluded, the thread abandoned) and whatever
    else it held requeues uncharged.  The simulator's time is modelled, so
    it refuses the knob at construction.
``task_max_retries`` / ``retry_backoff_s``
    Bounded re-execution of a failed task with exponential backoff:
    attempt ``k`` (1-based) waits ``retry_backoff_s * 2**(k-1)`` before
    re-running.  Timeouts are not retried — a task that blew its budget
    once will blow it again.
``drain_timeout_s``
    Wall-clock bound on a whole drain of the serial, threaded, process and
    network backends.  Expiry dumps all thread stacks via
    :func:`faulthandler` (so hung CI runs are diagnosable) and raises
    :class:`DrainAbortedError`.

``on_task_failure`` selects the terminal policy: ``"abort"`` (default)
raises :class:`DrainAbortedError` out of the drain, ``"quarantine"``
marks the task ``FAILED``, cancels its dependent subgraph and lets
independent work finish; the drain then returns normally with the
structured report in ``RunResult.failures``.
"""

from __future__ import annotations

import faulthandler
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.common.exceptions import DrainAbortedError, TaskFailedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.config import RuntimeConfig
    from repro.runtime.graph import TaskDependenceGraph
    from repro.runtime.task import Task

__all__ = [
    "POLL_INTERVAL",
    "TIMEOUT_GRACE",
    "TaskFailure",
    "TaskSupervisor",
    "dump_stacks",
]

#: Poll cadence (seconds) of the remote backends' blocking result and
#: inbox loops.
POLL_INTERVAL = 0.02

#: Scheduling-latency allowance (seconds) the chunk dispatcher adds to an
#: acknowledged chunk's ``task_timeout_s`` budget before declaring the
#: remote worker running it wedged.
TIMEOUT_GRACE = 0.25


def dump_stacks(reason: str) -> None:
    """Dump every thread's stack to stderr (drain-timeout diagnosis).

    ``faulthandler`` needs a stream with a real file descriptor; under
    pytest's default capture ``sys.stderr`` has none, so fall back to the
    process's original stderr rather than losing the dump.
    """
    for stream in (sys.stderr, sys.__stderr__):
        if stream is None:
            continue
        try:
            stream.write(f"\n=== supervision: {reason}; all thread stacks ===\n")
            stream.flush()
            faulthandler.dump_traceback(file=stream)
        except Exception:  # pragma: no cover - capture-dependent
            continue
        return


@dataclass
class TaskFailure:
    """One entry of the structured ``RunResult.failures`` report.

    ``error`` is the taxonomy class *name* (``"TaskFailedError"``,
    ``"TaskTimeoutError"``, ``"WorkerLostError"``) — a string so the
    report travels as plain fields across process/network boundaries.
    ``cancelled`` lists the labels of the dependent subgraph that was
    quarantined along with the task.
    """

    label: str
    task_id: int
    attempts: int
    reason: str
    error: str = "TaskFailedError"
    worker: str = ""
    cancelled: tuple[str, ...] = ()


class TaskSupervisor:
    """Shared retry/timeout/quarantine bookkeeping for one drain or run.

    Executors consult the supervisor on every task failure::

        backoff = supervisor.count_attempt(task)
        if backoff is not None:
            sleep(backoff); re-run the task
        elif supervisor.quarantine:
            cancelled = supervisor.quarantine_task(graph, task, error, reason)
        else:
            raise supervisor.abort(task, error, reason) from exc

    The supervisor is not thread-safe by itself; every backend calls it
    from its draining thread only.
    """

    def __init__(
        self,
        config: "RuntimeConfig",
        failures: Optional[list] = None,
        abort_error: type[DrainAbortedError] = DrainAbortedError,
    ) -> None:
        #: What an aborted drain raises (``NetworkDrainError`` on the
        #: network backend).
        self.abort_error = abort_error
        self.task_timeout_s: Optional[float] = config.task_timeout_s
        self.max_retries: int = config.task_max_retries
        self.backoff_s: float = config.retry_backoff_s
        self.drain_timeout_s: float = config.drain_timeout_s
        self.quarantine: bool = config.on_task_failure == "quarantine"
        # ``failures`` may be an external sink (``RunResult.failures``) so
        # recorded failures land on the run report without a copy step.
        self.failures: list[TaskFailure] = failures if failures is not None else []
        self._attempts: dict[int, int] = {}

    # -- retries --------------------------------------------------------------
    def attempts(self, task: "Task") -> int:
        """Failed executions recorded so far for ``task``."""
        return self._attempts.get(task.task_id, 0)

    def count_attempt(self, task: "Task") -> Optional[float]:
        """Record one failed execution of ``task``.

        Returns the backoff (seconds) to sleep before re-running the task,
        or ``None`` when the retry budget is exhausted and the failure is
        terminal.
        """
        n = self._attempts.get(task.task_id, 0) + 1
        self._attempts[task.task_id] = n
        if n <= self.max_retries:
            return self.backoff_s * (2 ** (n - 1))
        return None

    # -- timeouts -------------------------------------------------------------
    def timed_out(self, elapsed: float) -> bool:
        """Whether ``elapsed`` seconds of task runtime exceed the budget."""
        return self.task_timeout_s is not None and elapsed > self.task_timeout_s

    def timeout_reason(self, elapsed: float) -> str:
        return (
            f"task ran {elapsed:.3f}s, exceeding "
            f"task_timeout_s={self.task_timeout_s}"
        )

    def deadline(self) -> float:
        """Absolute ``time.perf_counter()`` drain deadline from now."""
        return time.perf_counter() + self.drain_timeout_s

    def drain_timeout(self, what: str) -> DrainAbortedError:
        """Build the drain-deadline-expired abort (dumps thread stacks)."""
        message = (
            f"{what} did not finish within drain_timeout_s="
            f"{self.drain_timeout_s}s"
        )
        dump_stacks(message)
        return self.abort_error(message, self.failures)

    # -- terminal failures ----------------------------------------------------
    def record_failure(
        self,
        task: "Task",
        error: type[TaskFailedError] | str,
        reason: str,
        worker: str = "",
        cancelled: tuple[str, ...] = (),
    ) -> TaskFailure:
        """Append a terminal failure for ``task`` to the report."""
        failure = TaskFailure(
            label=task.label,
            task_id=task.task_id,
            attempts=max(1, self.attempts(task)),
            reason=reason,
            error=error if isinstance(error, str) else error.__name__,
            worker=worker,
            cancelled=cancelled,
        )
        self.failures.append(failure)
        return failure

    def quarantine_task(
        self,
        graph: "TaskDependenceGraph",
        task: "Task",
        error: type[TaskFailedError] | str,
        reason: str,
        worker: str = "",
    ) -> list["Task"]:
        """Fail ``task`` in the graph, cancel its dependents, record it.

        The failure is recorded inside the graph's transition, so it is on
        the report before ``on_complete`` fires or a barrier wakes.  Returns
        the cancelled dependent tasks (for the caller's counters).
        """
        return graph.fail_task(
            task,
            record=lambda cancelled: self.record_failure(
                task,
                error,
                reason,
                worker=worker,
                cancelled=tuple(t.label for t in cancelled),
            ),
        )

    def abort(
        self,
        task: "Task",
        error: type[TaskFailedError] | str,
        reason: str,
        worker: str = "",
    ) -> DrainAbortedError:
        """Record the failure and build the drain-aborting exception."""
        failure = self.record_failure(task, error, reason, worker=worker)
        labels = ", ".join(f.label for f in self.failures)
        return self.abort_error(
            f"drain aborted: task {failure.label} failed after "
            f"{failure.attempts} attempt(s): {failure.reason} "
            f"[failed tasks: {labels}]",
            self.failures,
        )
