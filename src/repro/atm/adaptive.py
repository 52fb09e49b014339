"""Dynamic-ATM adaptive training (paper Section III-D).

Per task type, the execution is split into a *training* phase and a
*steady-state* phase:

* Training starts with ``p = 2^-15``.  Every time a task could be
  approximated (THT hit) it is executed anyway and the Chebyshev relative
  error ``tau`` between the real and memoized outputs is measured.  If
  ``tau >= tau_max`` the sampling fraction ``p`` is doubled (at most 15
  steps, i.e. up to ``p = 100 %``) and the success counter restarts.
* Such a failure also counts against each output region of the offending
  task, but only when the type had at least one success since its previous
  failure: a failure with no success before it says ``p`` is too small, not
  that the output is unstable.  An output whose count reaches two is added
  to the *unstable outputs* blacklist.  So an output is blacklisted on its
  second failure amid successes, where the paper blacklists the outputs of
  every task that fails training (:meth:`DynamicATMTrainer.
  record_training_outcome`).
* After ``L_training`` consecutive correctly approximated tasks, ``p`` is
  frozen and the steady-state phase begins: THT hits are now memoized without
  executing, except for tasks whose outputs are blacklisted, which always
  execute (this is the accuracy-control feature Jacobi needs).

The paper's rule would not bring jacobi at ``small`` scale within its bound
either: a copy of this module that blacklisted every failing task's outputs
still ended at relative error 1.69e-02 against ``tau_max`` 0.01 (2.31e-02
with the rule above), and lowered reuse on other apps.  Most of jacobi's
error comes after training: ``scripts/reuse_error.py`` (ROADMAP.md
direction 22(a), per-sweep table) finds every reuse of sweeps 2–7 within
~1e-05, and about 40 reuses a sweep over ``tau_max`` from sweep 8 on.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

from repro.common.config import ATMConfig, MIN_P
from repro.runtime.task import Task

__all__ = ["DynamicATMTrainer"]


class TrainingPhase(enum.Enum):
    """Phase of the adaptive algorithm for one task type."""

    TRAINING = "training"
    STEADY = "steady"


@dataclass
class TaskTypeTrainingState:
    """Mutable training state of one task type."""

    p: float
    tau_max: float
    l_training: int
    phase: TrainingPhase = TrainingPhase.TRAINING
    consecutive_successes: int = 0
    training_hits: int = 0
    training_failures: int = 0
    p_steps: int = 0
    unstable_outputs: set[tuple[int, int, int]] = field(default_factory=set)
    failure_counts: dict[tuple[int, int, int], int] = field(default_factory=dict)


class DynamicATMTrainer:
    """Holds and updates the per-task-type training state."""

    def __init__(self, config: ATMConfig) -> None:
        self.config = config
        self._states: dict[str, TaskTypeTrainingState] = {}
        self._lock = threading.Lock()

    # -- state access --------------------------------------------------------
    def state_for(self, task_type_name: str, tau_max: float | None = None,
                  l_training: int | None = None) -> TaskTypeTrainingState:
        with self._lock:
            state = self._states.get(task_type_name)
            if state is None:
                state = TaskTypeTrainingState(
                    p=MIN_P,
                    tau_max=self.config.tau_max if tau_max is None else tau_max,
                    l_training=(
                        self.config.l_training if l_training is None else l_training
                    ),
                )
                self._states[task_type_name] = state
            return state

    def current_p(self, task: Task) -> float:
        state = self._state_of(task)
        return state.p

    def is_training(self, task: Task) -> bool:
        return self._state_of(task).phase == TrainingPhase.TRAINING

    def chosen_p(self, task_type_name: str) -> float | None:
        """The frozen steady-state ``p`` (``None`` while still training)."""
        with self._lock:
            state = self._states.get(task_type_name)
        if state is None or state.phase != TrainingPhase.STEADY:
            return None
        return state.p

    def is_output_blacklisted(self, task: Task) -> bool:
        """True if any output region of ``task`` failed during training."""
        state = self._state_of(task)
        if not state.unstable_outputs:
            return False
        return any(
            access.region.region_key in state.unstable_outputs
            for access in task.outputs
        )

    def _state_of(self, task: Task) -> TaskTypeTrainingState:
        return self.state_for(
            task.task_type.name,
            tau_max=task.task_type.tau_max,
            l_training=task.task_type.l_training,
        )

    # -- training updates --------------------------------------------------------
    def record_training_outcome(self, task: Task, tau: float) -> None:
        """Update the state after a training-phase approximation measurement."""
        state = self._state_of(task)
        with self._lock:
            if state.phase != TrainingPhase.TRAINING:
                return
            state.training_hits += 1
            if tau >= state.tau_max:
                state.training_failures += 1
                # Outputs are blacklisted only when they fail *persistently*
                # while other tasks of the type succeed at the current p: a
                # failure with no prior success signals that p itself is too
                # small (so we double it), whereas an output that keeps
                # exceeding tau_max amid successes is the chaotic-behaviour
                # case the paper describes for Jacobi.
                if state.consecutive_successes > 0:
                    for access in task.outputs:
                        key = access.region.region_key
                        count = state.failure_counts.get(key, 0) + 1
                        state.failure_counts[key] = count
                        if count >= 2:
                            state.unstable_outputs.add(key)
                state.consecutive_successes = 0
                if state.p < 1.0:
                    state.p = min(1.0, state.p * 2.0)
                    state.p_steps += 1
            else:
                state.consecutive_successes += 1
                if state.consecutive_successes >= state.l_training:
                    state.phase = TrainingPhase.STEADY

    # -- reporting -----------------------------------------------------------------
    def summary(self) -> dict[str, dict]:
        """Per-task-type training summary for the harness and tests."""
        with self._lock:
            return {
                name: {
                    "p": state.p,
                    "phase": state.phase.value,
                    "training_hits": state.training_hits,
                    "training_failures": state.training_failures,
                    "p_steps": state.p_steps,
                    "unstable_outputs": len(state.unstable_outputs),
                }
                for name, state in self._states.items()
            }
