"""ATM operating policies.

The policy decides, per task, which sampling fraction ``p`` to use and
whether THT hits should still execute (training).  Four policies cover the
paper's configurations:

* :class:`NoATMPolicy` — the baseline (the engine is simply not installed);
* :class:`StaticATMPolicy` — exact memoization, ``p = 100 %`` (Section V
  "Static ATM");
* :class:`FixedPPolicy` — a constant ``p`` chosen externally; used for the
  Figure 5 sensitivity sweep and for the Oracle configurations, whose ``p``
  is found by offline profiling (:mod:`repro.evaluation.oracle`);
* :class:`DynamicATMPolicy` — the adaptive algorithm of Section III-D.
"""

from __future__ import annotations

import enum
import inspect
from typing import Optional

from repro.common.config import ATMConfig
from repro.common.exceptions import ConfigurationError
from repro.common.registry import POLICIES
from repro.atm.adaptive import DynamicATMTrainer
from repro.runtime.task import Task

__all__ = [
    "ATMPolicy",
    "StaticATMPolicy",
    "make_policy",
]


class ATMMode(enum.Enum):
    """Named ATM configurations, as used throughout the evaluation."""

    NONE = "none"
    STATIC = "static"
    DYNAMIC = "dynamic"
    FIXED_P = "fixed_p"


class ATMPolicy:
    """Base policy: exact memoization with the configured ``p``."""

    mode = ATMMode.STATIC

    def __init__(self, config: Optional[ATMConfig] = None) -> None:
        self.config = config or ATMConfig()

    def sampling_fraction(self, task: Task) -> float:
        """The fraction of input bytes to hash for this task."""
        return self.config.p

    def is_training(self, task: Task) -> bool:
        """Whether a THT hit must still execute to measure its error."""
        return False

    def is_blacklisted(self, task: Task) -> bool:
        """Whether ATM must not touch this task at all."""
        return False

    def record_training_outcome(self, task: Task, tau: float) -> None:
        """Feed a training-phase error measurement back into the policy."""

    def chosen_p(self, task_type_name: str) -> Optional[float]:
        """The steady-state ``p`` for reporting (Figure 5 star markers)."""
        return self.config.p

    def describe(self) -> str:
        return f"{self.mode.value}(p={self.config.p:g})"


class NoATMPolicy(ATMPolicy):
    """Baseline marker policy; runs never install an engine with it."""

    mode = ATMMode.NONE

    def describe(self) -> str:
        return "no-atm"


class StaticATMPolicy(ATMPolicy):
    """Exact memoization: hash all input bytes (``p = 100 %``)."""

    mode = ATMMode.STATIC

    def __init__(self, config: Optional[ATMConfig] = None) -> None:
        config = (config or ATMConfig()).with_overrides(p=1.0)
        super().__init__(config)

    def describe(self) -> str:
        return "static"


class FixedPPolicy(ATMPolicy):
    """Constant, externally chosen sampling fraction (sweeps and Oracles)."""

    mode = ATMMode.FIXED_P

    def __init__(self, p: float, config: Optional[ATMConfig] = None) -> None:
        config = (config or ATMConfig()).with_overrides(p=p)
        super().__init__(config)

    def describe(self) -> str:
        return f"fixed-p(p={self.config.p:g})"


class DynamicATMPolicy(ATMPolicy):
    """The adaptive training policy of Section III-D."""

    mode = ATMMode.DYNAMIC

    def __init__(self, config: Optional[ATMConfig] = None) -> None:
        super().__init__(config or ATMConfig())
        self.trainer = DynamicATMTrainer(self.config)

    def sampling_fraction(self, task: Task) -> float:
        return self.trainer.current_p(task)

    def is_training(self, task: Task) -> bool:
        return self.trainer.is_training(task)

    def is_blacklisted(self, task: Task) -> bool:
        # Unstable outputs are only excluded during the steady-state phase;
        # during training they must keep being measured.
        if self.trainer.is_training(task):
            return False
        return self.trainer.is_output_blacklisted(task)

    def record_training_outcome(self, task: Task, tau: float) -> None:
        self.trainer.record_training_outcome(task, tau)

    def chosen_p(self, task_type_name: str) -> Optional[float]:
        return self.trainer.chosen_p(task_type_name)

    def describe(self) -> str:
        return "dynamic"


def _make_fixed_p(config: Optional[ATMConfig]) -> ATMPolicy:
    if config is None:
        raise ValueError("FIXED_P policy requires a config carrying its p")
    return FixedPPolicy(config.p, config)


# Builtin policies resolved by name through the policy registry; plugins add
# their own with repro.session.POLICIES.register(name, factory) and the name
# becomes a valid ``ATMConfig.mode`` / ``Session(policy=...)`` value.
POLICIES.register("none", NoATMPolicy, replace=True)
POLICIES.register("static", StaticATMPolicy, replace=True)
POLICIES.register("dynamic", DynamicATMPolicy, replace=True)
POLICIES.register("fixed_p", _make_fixed_p, replace=True)


def make_policy(mode: ATMMode | str, config: Optional[ATMConfig] = None) -> ATMPolicy:
    """Factory used by the harness: build a policy from a mode name.

    Any name registered through ``repro.session.POLICIES.register`` is
    accepted alongside the four builtin modes; ``fixed_p`` samples at
    ``config.p``.
    """
    name = mode.value if isinstance(mode, ATMMode) else str(mode)
    if name not in POLICIES:
        raise ValueError(f"unknown ATM mode {name!r}")
    factory = POLICIES.factory(name)
    try:
        inspect.signature(factory).bind(config)
    except TypeError as exc:
        raise ConfigurationError(
            f"policy {name!r}: a policy factory is called as factory(config) and "
            f"reads p from config.p (it was factory(config, p) before PR 19): {exc}"
        ) from exc
    return factory(config)
