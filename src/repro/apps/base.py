"""Common benchmark-application interface.

Every application in the suite provides:

* deterministic workload generation at three scales (``tiny`` for tests,
  ``small`` for the default harness runs, ``paper`` for the original input
  sizes of Table I);
* a :meth:`BenchmarkApp.build` method that submits all tasks of the program
  into a :class:`~repro.session.Session` (calling ``wait_all`` for the
  program's natural barriers);
* the final program output (:meth:`BenchmarkApp.output`) and a correctness
  metric against a reference output (Euclidean relative error by default, the
  LU residual for SparseLU);
* Table I / II metadata: the memoized task type, the number of tasks, the
  task-input size, ``tau_max`` and ``L_training``.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.common.error_metrics import correctness_percent, euclidean_relative_error
from repro.common.exceptions import WorkloadError
from repro.runtime.task import TaskType
from repro.session import Session

__all__ = ["WorkloadScale", "BenchmarkInfo", "BenchmarkApp"]


class WorkloadScale(enum.Enum):
    """Workload sizes.  ``paper`` matches Table I; the others are scaled down
    so the whole evaluation runs on a laptop/CI machine (see DESIGN.md §4)."""

    TINY = "tiny"
    SMALL = "small"
    PAPER = "paper"

    @classmethod
    def coerce(cls, value: "WorkloadScale | str") -> "WorkloadScale":
        if isinstance(value, WorkloadScale):
            return value
        try:
            return cls(value)
        except ValueError as exc:
            raise WorkloadError(f"unknown workload scale {value!r}") from exc


@dataclass(frozen=True)
class BenchmarkInfo:
    """Static description of a benchmark (paper Tables I and II)."""

    name: str
    domain: str
    memoized_task_type: str
    correctness_measured_on: str
    tau_max: float
    l_training: int
    paper_task_input_bytes: int
    paper_number_of_tasks: int
    paper_program_input: str


class BenchmarkApp(abc.ABC):
    """Base class of the six applications."""

    info: BenchmarkInfo

    def __init__(self, scale: WorkloadScale | str = WorkloadScale.SMALL, seed: int = 2017) -> None:
        self.scale = WorkloadScale.coerce(scale)
        self.seed = seed
        self._built = False
        self._task_types: dict[str, TaskType] = {}
        self._setup_workload()

    # -- to implement -----------------------------------------------------------
    @abc.abstractmethod
    def _setup_workload(self) -> None:
        """Allocate and initialise the application data for ``self.scale``."""

    @abc.abstractmethod
    def build(self, runtime: Session) -> None:
        """Submit every task of the program into ``runtime`` (with barriers).

        ``runtime`` is anything exposing the Session submission protocol
        (``submit`` / ``wait_all`` / ``finish``) — a
        :class:`~repro.session.Session` or the serving gateway's
        :class:`~repro.serving.GatewayClient` (any ``submit``/``wait_all``
        surface).
        """

    @abc.abstractmethod
    def output(self) -> np.ndarray:
        """The program output on which correctness is measured (Table I)."""

    # -- common behaviour ----------------------------------------------------------
    def run(self, runtime: Session) -> None:
        """Build and run the program to completion on ``runtime``."""
        self.build(runtime)
        runtime.finish()
        self._built = True

    def run_on(self, executor: str = "serial", cores: int = 1, engine=None):
        """Run the whole program on a named execution backend (DESIGN.md §4).

        Convenience wrapper used by the executor parity matrix:
        assembles a :class:`~repro.session.Session` for the named backend
        (any registered executor), runs to completion — the session releases
        the process backend's pool on success *and* error paths — and
        returns the :class:`~repro.runtime.executor.RunResult`.
        """
        with Session(executor=executor, cores=cores, engine=engine) as session:
            self.run(session)
        return session.result

    def relative_error(self, reference_output: np.ndarray) -> float:
        """Program-level relative error against a reference run (Eq. 3)."""
        return euclidean_relative_error(reference_output, self.output())

    def correctness(self, reference_output: np.ndarray) -> float:
        """Correctness percentage (Figs. 4 and 5)."""
        return correctness_percent(self.relative_error(reference_output))

    def application_bytes(self) -> int:
        """Application memory footprint used for Table III."""
        return sum(int(arr.nbytes) for arr in self._footprint_arrays())

    def _footprint_arrays(self) -> list[np.ndarray]:
        """Arrays counted in the application footprint; subclasses extend."""
        return []

    # -- task-type helpers -----------------------------------------------------------
    def _make_task_type(
        self,
        name: str,
        memoizable: bool,
        cost_model,
        tau_max: Optional[float] = None,
        l_training: Optional[int] = None,
    ) -> TaskType:
        task_type = TaskType(
            name=name,
            memoizable=memoizable,
            tau_max=tau_max,
            l_training=l_training,
            cost_model=cost_model,
        )
        self._task_types[name] = task_type
        return task_type

    @property
    def task_types(self) -> dict[str, TaskType]:
        return dict(self._task_types)

    @property
    def memoized_task_type(self) -> TaskType:
        return self._task_types[self.info.memoized_task_type]

    def describe(self) -> str:
        return f"{self.info.name}[{self.scale.value}]"
