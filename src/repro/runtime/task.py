"""Tasks and task types.

A **task type** corresponds to one annotated function in the source program
(one ``#pragma omp task`` site in the paper's benchmarks): it carries the
memoization policy knobs that the programmer specifies per task type
(memoizable or not, ``tau_max``, ``L_training``) and an optional cost model
used by the discrete-event simulator.

A **task** is one dynamic instance: the function to run, its declared data
accesses, plain (non-dependence) arguments, and bookkeeping state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.common.exceptions import TaskDefinitionError
from repro.runtime.data import DataAccess, validate_accesses

__all__ = ["TaskState", "TaskType", "Task"]

#: A cost model maps a task to its simulated execution cost in microseconds.
CostModel = Callable[["Task"], float]


class TaskState(enum.Enum):
    """Lifecycle of a task inside the runtime."""

    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    MEMOIZED = "memoized"          # outputs provided by the THT, never executed
    WAITING_INFLIGHT = "waiting"   # outputs will be provided by an in-flight task
    FINISHED = "finished"
    FAILED = "failed"              # exhausted its supervision budget (quarantined)
    CANCELLED = "cancelled"        # a (transitive) predecessor failed

    @property
    def is_terminal(self) -> bool:
        return self in TERMINAL_STATES

    @property
    def is_success(self) -> bool:
        """Terminal with usable outputs (finished or memoized)."""
        return self in (TaskState.FINISHED, TaskState.MEMOIZED)


#: The states a task never leaves.  Hot paths test ``state in
#: TERMINAL_STATES`` directly: one set probe instead of a property call.
TERMINAL_STATES = frozenset(
    (TaskState.FINISHED, TaskState.MEMOIZED, TaskState.FAILED, TaskState.CANCELLED)
)


def _default_cost_model(task: "Task") -> float:
    """Fallback cost model: proportional to the bytes the task touches.

    Applications override this with calibrated models; the default assumes
    1 byte of input+output corresponds to 0.005 us of work, which keeps the
    simulator usable for ad-hoc user task graphs.
    """
    nbytes = sum(access.nbytes for access in task.accesses)
    return 1.0 + 0.005 * nbytes


@dataclass
class TaskType:
    """Static description of one task annotation site.

    Attributes
    ----------
    name:
        Unique name of the task type (e.g. ``"bs_thread"``,
        ``"stencilComputation"``).
    memoizable:
        Whether the programmer marked this task type as suitable for ATM
        (Section III-E: the programmer opts task types in).
    tau_max:
        Per-task Chebyshev error threshold used by Dynamic ATM for this task
        type (Table II).  ``None`` falls back to the engine-wide default.
    l_training:
        Number of correctly approximated training tasks required before the
        steady-state phase (Table II).  ``None`` falls back to the default.
    cost_model:
        Simulated execution cost in microseconds for a task of this type.
    deterministic:
        Whether tasks of this type are deterministic given their declared
        inputs.  Non-deterministic task types are never memoized even if
        ``memoizable`` is set (Section III-E limitation).
    """

    name: str
    memoizable: bool = False
    tau_max: Optional[float] = None
    l_training: Optional[int] = None
    cost_model: CostModel = _default_cost_model
    deterministic: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise TaskDefinitionError("TaskType requires a non-empty name")
        if self.tau_max is not None and self.tau_max < 0:
            raise TaskDefinitionError("tau_max must be >= 0")
        if self.l_training is not None and self.l_training < 1:
            raise TaskDefinitionError("l_training must be >= 1")

    @property
    def atm_eligible(self) -> bool:
        """Task types that ATM is allowed to memoize."""
        return self.memoizable and self.deterministic

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TaskType) and other.name == self.name


class Task:
    """One dynamic task instance.

    Tasks compare and hash by identity: two distinct dynamic instances are
    never "equal", even if they reference the same regions and arguments.

    The ``function`` is invoked as ``function(*args, **kwargs)``; the declared
    ``accesses`` alias application memory, so the function reads its inputs
    and writes its outputs directly through the NumPy arrays it was built
    around (the accesses exist so the runtime and ATM can reason about the
    data, exactly like OmpSs pragma clauses).

    The class is slotted and most derived views (``label``, ``inputs``,
    ``outputs``) are computed lazily and cached: task construction sits on
    the submission fast path, and only the ATM/simulator layers ever read
    the derived views.
    """

    __slots__ = (
        "task_type", "function", "accesses", "args", "kwargs", "task_id",
        "state", "creation_index", "creation_time", "start_time",
        "finish_time", "executed_on", "_label", "_inputs", "_outputs",
        "_dep_mark", "_pending", "_successors", "memo_source", "owner",
    )

    def __init__(
        self,
        task_type: TaskType,
        function: Callable[..., Any],
        accesses: Sequence[DataAccess],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        task_id: int = -1,
        label: str = "",
        state: TaskState = TaskState.CREATED,
        creation_index: int = -1,
        creation_time: float = 0.0,
        owner: Any = None,
    ) -> None:
        validate_accesses(accesses)
        if not callable(function):
            raise TaskDefinitionError("task function must be callable")
        self.task_type = task_type
        self.function = function
        self.accesses = accesses
        self.args = args
        self.kwargs = kwargs if kwargs is not None else {}
        self.task_id = task_id
        self.state = state
        self.creation_index = creation_index
        self.creation_time = creation_time
        self.start_time = 0.0
        self.finish_time = 0.0
        self.executed_on = -1
        self._label = label or None
        self._inputs: Optional[tuple] = None
        self._outputs: Optional[tuple] = None
        #: Monotonic epoch stamp used by the dependence tracker for O(1)
        #: predecessor dedup (see repro.runtime.dependences).
        self._dep_mark = 0
        #: Graph bookkeeping while the task is live: predecessors not yet
        #: terminal, and the tasks waiting on this one (the successor slab).
        self._pending = 0
        self._successors: Optional[list[Task]] = None
        #: The THT entry whose outputs ``copy_outputs_from_entry`` left in
        #: this task's output regions; ``complete_task`` commits it as their
        #: content tags and drops the reference.
        self.memo_source = None
        #: Who submitted the task — a Session, a gateway tenant: any object
        #: with an ``engine`` attribute.  The graph drops it once the task
        #: is terminal, so a kept task pins nothing of its owner.
        self.owner = owner

    # -- labelling -----------------------------------------------------------
    @property
    def label(self) -> str:
        """``"<type>#<task_id>"``, computed lazily (one f-string per task is
        measurable at submission rates; most labels are never read)."""
        label = self._label
        if label is None:
            label = f"{self.task_type.name}#{self.task_id}"
            if self.task_id >= 0:
                # Cache only once the runtime has assigned the final id.
                self._label = label
        return label

    @label.setter
    def label(self, value: str) -> None:
        self._label = value or None

    @property
    def engine(self):
        """The memoization engine of the task's owner (``None``: no ATM)."""
        owner = self.owner
        return None if owner is None else owner.engine

    # -- data views ----------------------------------------------------------
    @property
    def inputs(self) -> tuple[DataAccess, ...]:
        """Accesses the task reads (``in`` and ``inout``), cached."""
        inputs = self._inputs
        if inputs is None:
            inputs = tuple(a for a in self.accesses if a.reads)
            self._inputs = inputs
        return inputs

    @property
    def outputs(self) -> tuple[DataAccess, ...]:
        """Accesses the task writes (``out`` and ``inout``), cached."""
        outputs = self._outputs
        if outputs is None:
            outputs = tuple(a for a in self.accesses if a.writes)
            self._outputs = outputs
        return outputs

    @property
    def input_bytes(self) -> int:
        return sum(a.nbytes for a in self.inputs)

    @property
    def output_bytes(self) -> int:
        return sum(a.nbytes for a in self.outputs)

    # -- execution -----------------------------------------------------------
    def run(self) -> Any:
        """Execute the task body."""
        return self.function(*self.args, **self.kwargs)

    def simulated_cost(self) -> float:
        """Simulated execution cost (microseconds) from the type's cost model."""
        return float(self.task_type.cost_model(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Task({self.label}, state={self.state.value})"
