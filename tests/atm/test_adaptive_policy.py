"""Tests for the Dynamic-ATM trainer and the ATM policies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.adaptive import DynamicATMTrainer, TrainingPhase
from repro.atm.policy import (
    ATMMode,
    DynamicATMPolicy,
    FixedPPolicy,
    NoATMPolicy,
    StaticATMPolicy,
    make_policy,
)
from repro.common.config import ATMConfig, MIN_P
from repro.runtime.data import In, Out
from repro.runtime.task import Task, TaskType


def make_task(task_type=None, out=None):
    task_type = task_type or TaskType("train-test", memoizable=True, tau_max=0.01, l_training=3)
    out = out if out is not None else np.zeros(4)
    return Task(
        task_type=task_type,
        function=lambda: None,
        accesses=[In(np.zeros(4)), Out(out)],
        task_id=0,
    )


class TestTrainerPhases:
    def test_starts_in_training_at_p_initial(self):
        trainer = DynamicATMTrainer(ATMConfig())
        task = make_task()
        assert trainer.is_training(task)
        assert trainer.current_p(task) == MIN_P

    def test_failure_doubles_p(self):
        trainer = DynamicATMTrainer(ATMConfig())
        task = make_task()
        trainer.record_training_outcome(task, tau=1.0)
        assert trainer.current_p(task) == pytest.approx(2 * MIN_P)

    def test_p_never_exceeds_one(self):
        trainer = DynamicATMTrainer(ATMConfig())
        task = make_task()
        for _ in range(40):
            trainer.record_training_outcome(task, tau=1.0)
        assert trainer.current_p(task) == 1.0

    def test_steady_after_l_training_consecutive_successes(self):
        trainer = DynamicATMTrainer(ATMConfig())
        task = make_task()  # l_training = 3
        for _ in range(3):
            trainer.record_training_outcome(task, tau=0.0)
        assert not trainer.is_training(task)
        assert trainer.chosen_p(task.task_type.name) == MIN_P

    def test_failure_resets_success_counter(self):
        trainer = DynamicATMTrainer(ATMConfig())
        task = make_task()
        trainer.record_training_outcome(task, tau=0.0)
        trainer.record_training_outcome(task, tau=0.0)
        trainer.record_training_outcome(task, tau=1.0)   # reset
        trainer.record_training_outcome(task, tau=0.0)
        trainer.record_training_outcome(task, tau=0.0)
        assert trainer.is_training(task)
        trainer.record_training_outcome(task, tau=0.0)
        assert not trainer.is_training(task)

    def test_outcomes_ignored_once_steady(self):
        trainer = DynamicATMTrainer(ATMConfig())
        task = make_task()
        for _ in range(3):
            trainer.record_training_outcome(task, tau=0.0)
        p_before = trainer.chosen_p(task.task_type.name)
        trainer.record_training_outcome(task, tau=5.0)
        assert trainer.chosen_p(task.task_type.name) == p_before

    def test_chosen_p_none_while_training(self):
        trainer = DynamicATMTrainer(ATMConfig())
        task = make_task()
        assert trainer.chosen_p(task.task_type.name) is None

    def test_per_task_type_isolation(self):
        trainer = DynamicATMTrainer(ATMConfig())
        type_a = TaskType("type-a", memoizable=True, tau_max=0.01, l_training=2)
        type_b = TaskType("type-b", memoizable=True, tau_max=0.01, l_training=2)
        trainer.record_training_outcome(make_task(type_a), tau=1.0)
        assert trainer.current_p(make_task(type_a)) == 2 * MIN_P
        assert trainer.current_p(make_task(type_b)) == MIN_P

    def test_task_type_overrides_used(self):
        trainer = DynamicATMTrainer(ATMConfig(tau_max=0.5, l_training=99))
        custom = TaskType("custom", memoizable=True, tau_max=0.2, l_training=1)
        task = make_task(custom)
        trainer.record_training_outcome(task, tau=0.1)
        assert not trainer.is_training(task)

    def test_summary(self):
        trainer = DynamicATMTrainer(ATMConfig())
        task = make_task()
        trainer.record_training_outcome(task, tau=1.0)
        summary = trainer.summary()[task.task_type.name]
        assert summary["training_failures"] == 1
        assert summary["phase"] == "training"


class TestUnstableOutputBlacklist:
    def test_single_failure_does_not_blacklist(self):
        trainer = DynamicATMTrainer(ATMConfig())
        out = np.zeros(4)
        task = make_task(out=out)
        trainer.record_training_outcome(task, tau=0.0)   # one prior success
        trainer.record_training_outcome(task, tau=1.0)   # single failure
        assert not trainer.is_output_blacklisted(make_task(task.task_type, out=out))

    def test_repeated_failures_blacklist_output(self):
        trainer = DynamicATMTrainer(ATMConfig())
        out = np.zeros(4)
        task_type = TaskType("bl", memoizable=True, tau_max=0.01, l_training=50)
        unstable = make_task(task_type, out=out)
        stable = make_task(task_type, out=np.zeros(4))
        trainer.record_training_outcome(stable, tau=0.0)
        trainer.record_training_outcome(unstable, tau=1.0)
        trainer.record_training_outcome(stable, tau=0.0)
        trainer.record_training_outcome(unstable, tau=1.0)
        assert trainer.is_output_blacklisted(make_task(task_type, out=out))
        assert not trainer.is_output_blacklisted(stable)


class TestPolicies:
    def test_static_policy_full_p_no_training(self):
        policy = StaticATMPolicy()
        task = make_task()
        assert policy.sampling_fraction(task) == 1.0
        assert not policy.is_training(task)
        assert policy.describe() == "static"

    def test_fixed_p_policy(self):
        policy = FixedPPolicy(0.25)
        assert policy.sampling_fraction(make_task()) == 0.25
        assert policy.mode == ATMMode.FIXED_P

    def test_dynamic_policy_delegates_to_trainer(self):
        policy = DynamicATMPolicy(ATMConfig())
        task = make_task()
        assert policy.is_training(task)
        assert policy.sampling_fraction(task) == MIN_P
        policy.record_training_outcome(task, tau=1.0)
        assert policy.sampling_fraction(task) == 2 * MIN_P

    def test_dynamic_policy_blacklist_only_in_steady_state(self):
        config = ATMConfig()
        policy = DynamicATMPolicy(config)
        task_type = TaskType("bl2", memoizable=True, tau_max=0.01, l_training=2)
        out = np.zeros(4)
        unstable = make_task(task_type, out=out)
        # Two failures, each amid successes: the output gets blacklisted, but
        # the blacklist only takes effect once the steady phase is reached.
        policy.record_training_outcome(make_task(task_type), tau=0.0)
        policy.record_training_outcome(unstable, tau=1.0)
        policy.record_training_outcome(make_task(task_type), tau=0.0)
        policy.record_training_outcome(unstable, tau=1.0)
        assert not policy.is_blacklisted(unstable)  # still training: never blacklisted
        policy.record_training_outcome(make_task(task_type), tau=0.0)
        policy.record_training_outcome(make_task(task_type), tau=0.0)  # -> steady
        assert policy.is_blacklisted(make_task(task_type, out=out))

    def test_no_atm_policy_describe(self):
        assert NoATMPolicy().describe() == "no-atm"

    def test_factory(self):
        assert isinstance(make_policy("static"), StaticATMPolicy)
        assert isinstance(make_policy(ATMMode.DYNAMIC), DynamicATMPolicy)
        assert isinstance(make_policy("none"), NoATMPolicy)
        fixed = make_policy("fixed_p", ATMConfig(p=0.5))
        assert isinstance(fixed, FixedPPolicy) and fixed.config.p == 0.5
        with pytest.raises(ValueError):
            make_policy("fixed_p")
        with pytest.raises(ValueError):
            make_policy("bogus")
