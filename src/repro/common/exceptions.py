"""Exception hierarchy for the ATM reproduction.

Keeping a single module for exceptions lets callers catch broad categories
(``ReproError``) or precise conditions (``DependenceError``) without importing
heavy modules.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ReproError):
    """A configuration object contains an invalid or inconsistent value."""


class DependenceError(ReproError):
    """A task declared data accesses that the dependence system rejects."""


class TaskDefinitionError(ReproError):
    """A task or task type was declared incorrectly (e.g. missing outputs)."""


class RuntimeStateError(ReproError):
    """The runtime was driven through an invalid state transition."""


class MemoizationError(ReproError):
    """The ATM engine detected an inconsistent memoization state."""


class SchedulerError(ReproError):
    """A scheduler was asked to perform an unsupported operation."""


# -- task supervision taxonomy (DESIGN.md §7 "Failure semantics") ----------------
#
# Every backend reports task-level failures through the same four names so
# callers can write backend-agnostic handlers: per-task conditions
# (``TaskFailedError``, ``TaskTimeoutError``, ``WorkerLostError``) describe
# *why one task* could not complete and appear as ``RunResult.failures``
# entries under quarantine; ``DrainAbortedError`` (and its network
# specialisation ``NetworkDrainError``) is what a drain *raises* when it
# cannot or may not continue.


class TaskFailedError(ReproError):
    """A task body raised and exhausted its retry budget.

    ``label`` names the task, ``attempts`` counts executions (1 + retries).
    The original exception is chained as ``__cause__`` where available.
    """

    def __init__(self, message: str, label: str = "", attempts: int = 1) -> None:
        super().__init__(message)
        self.label = label
        self.attempts = attempts


class TaskTimeoutError(TaskFailedError):
    """A task exceeded its per-task wall-clock budget (``task_timeout_s``)."""


class WorkerLostError(TaskFailedError):
    """The worker process/endpoint executing a task died mid-flight.

    Raised (or recorded as the failure reason) after the task's resubmission
    budget is exhausted — a single crash only triggers resubmission.
    """


class DrainAbortedError(RuntimeStateError):
    """A drain was aborted by task failures or a drain-level timeout.

    Carries the structured per-task report in ``failures`` (a list of
    :class:`repro.runtime.supervision.TaskFailure`); the message names every
    failed task.  Subclasses :class:`RuntimeStateError` so pre-supervision
    callers catching the broad runtime error keep working.
    """

    def __init__(self, message: str, failures: "list | None" = None) -> None:
        super().__init__(message)
        self.failures = list(failures or [])


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class WireProtocolError(ReproError):
    """A network frame failed to decode (bad magic, length or checksum).

    Raised by :mod:`repro.runtime.net_wire` when a peer sends bytes that are
    not a well-formed frame; the network executor treats the sending endpoint
    as failed and resubmits its work elsewhere.
    """


class PickledControlError(WireProtocolError):
    """A frame's control section is a pickle: written by wire protocol 7,
    store schema 4 or earlier, and refused unread."""


class NetworkTransportError(ReproError):
    """A network endpoint could not be reached or its connection broke."""


class NetworkDrainError(DrainAbortedError):
    """A network-backend drain cannot complete.

    Raised — instead of hanging — when every endpoint has failed, a task
    exhausted its resubmission budget (``RuntimeConfig.net_max_retries``), or
    the drain deadline expired with work still outstanding.  A
    :class:`DrainAbortedError` specialisation: transport-level aborts join
    the unified supervision taxonomy.
    """


# -- serving-gateway taxonomy (DESIGN.md §8 "Serving layer") ----------------------
#
# The gateway never lets a server-side traceback leak to a client: every
# error a tenant can observe is one of these named conditions, shipped over
# the wire as a structured ``error`` reply and re-raised client-side.  They
# mirror the supervision taxonomy above: per-request conditions subclass
# ``GatewayError``; task-level failures inside a tenant's graph still arrive
# as ``RunResult.failures`` entries in ``result``/``stats`` replies rather
# than as exceptions.


class GatewayError(ReproError):
    """Base class for every error the serving gateway reports to a client."""


class GatewayProtocolError(GatewayError):
    """A client request was malformed or arrived out of sequence.

    Examples: a ``submit`` before ``hello``, an unknown message type, or a
    task referencing a buffer the tenant never shipped.
    """


class TenantRejectedError(GatewayError):
    """The gateway refused a ``hello`` (duplicate tenant name, bad config)."""


class AdmissionError(GatewayError):
    """A submission violates the admission controller's hard limits.

    Raised when a single batch alone exceeds the tenant's queue capacity —
    backpressure that can never resolve by waiting.  Ordinary over-budget
    submissions are queued, not rejected.
    """


class GatewayShutdownError(GatewayError):
    """The gateway is draining for shutdown and no longer accepts work."""


# -- persistent THT store taxonomy (DESIGN.md §9 "Persistent memoization") -------
#
# The persistent tier fails *loudly but recoverably*: a store that cannot be
# read raises ``THTStoreCorruptError`` (never garbage entries), and the
# Session treats that as a cold start instead of dying — a damaged cache
# file must never take down the computation it was meant to accelerate.


class THTStoreError(ReproError):
    """Base class for persistent-THT-store failures (file or shard)."""


class THTStoreCorruptError(THTStoreError):
    """A store file or shard reply failed to decode.

    Raised on a bad header, a schema mismatch, a truncated or
    checksum-failing frame, or a frame that is not a store message.  The
    Session catches this on warm-start and falls back to a cold table.
    """


class THTStoreSchemaError(THTStoreCorruptError):
    """A store file was written under another schema.

    It is refused by name and left as it is: neither read nor overwritten.
    """


class THTStoreUnavailableError(THTStoreError):
    """A ``tcp://`` cache shard could not be reached or dropped mid-request."""


class WorkloadError(ReproError):
    """An application workload was configured with invalid parameters."""


class EvaluationError(ReproError):
    """An experiment harness failed to produce a result."""
