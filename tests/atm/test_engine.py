"""Tests for the ATM engine (lookup, memoization, training, postponed copies)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import DynamicATMPolicy, StaticATMPolicy
from repro.common.config import ATMConfig
from repro.common.exceptions import MemoizationError
from repro.runtime.atm_protocol import ATMAction
from repro.runtime.data import In, Out
from repro.runtime.task import Task, TaskState, TaskType

MEMO_TYPE = TaskType("memo", memoizable=True, tau_max=0.01, l_training=2)
PLAIN_TYPE = TaskType("plain", memoizable=False)


def square_task(src, dst, task_type=MEMO_TYPE, task_id=0):
    def body():
        dst[:] = src ** 2

    return Task(
        task_type=task_type,
        function=body,
        accesses=[In(src), Out(dst)],
        task_id=task_id,
    )


def make_static_engine(**overrides) -> ATMEngine:
    config = ATMConfig(**overrides)
    return ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=2)


def process(engine: ATMEngine, task: Task):
    """Drive a task through the engine the way an executor would."""
    decision = engine.task_ready(task)
    executed = False
    if not decision.skips_execution:
        task.run()
        executed = True
    commit = None
    if decision.atm_handled:
        commit = engine.task_finished(task, decision, executed)
    return decision, commit


class TestStaticEngine:
    def test_first_task_misses_and_commits(self):
        engine = make_static_engine()
        src, dst = np.arange(8.0), np.zeros(8)
        decision, commit = process(engine, square_task(src, dst))
        assert decision.action == ATMAction.EXECUTE
        assert commit.stored_bytes == dst.nbytes
        assert engine.stats.misses == 1
        assert len(engine.tht) == 1

    def test_second_identical_task_is_memoized(self):
        engine = make_static_engine()
        src = np.arange(8.0)
        first_out, second_out = np.zeros(8), np.zeros(8)
        process(engine, square_task(src, first_out, task_id=0))
        decision, _ = process(engine, square_task(src, second_out, task_id=1))
        assert decision.action == ATMAction.SKIP
        assert decision.copied_bytes == second_out.nbytes
        assert np.allclose(second_out, src ** 2)
        assert engine.stats.tht_hits == 1

    def test_different_inputs_not_memoized(self):
        engine = make_static_engine()
        a, b = np.arange(8.0), np.arange(8.0) + 1
        process(engine, square_task(a, np.zeros(8), task_id=0))
        decision, _ = process(engine, square_task(b, np.zeros(8), task_id=1))
        assert decision.action == ATMAction.EXECUTE

    def test_non_memoizable_task_type_ignored(self):
        engine = make_static_engine()
        src, dst = np.arange(4.0), np.zeros(4)
        decision = engine.task_ready(square_task(src, dst, task_type=PLAIN_TYPE))
        assert decision.action == ATMAction.EXECUTE
        assert not decision.atm_handled
        assert engine.stats.eligible_tasks == 0

    def test_ikt_defers_task_while_producer_in_flight(self):
        engine = make_static_engine()
        src = np.arange(8.0)
        producer_out, consumer_out = np.zeros(8), np.zeros(8)
        producer = square_task(src, producer_out, task_id=0)
        consumer = square_task(src, consumer_out, task_id=1)
        producer_decision = engine.task_ready(producer)
        assert producer_decision.action == ATMAction.EXECUTE
        consumer_decision = engine.task_ready(consumer)
        assert consumer_decision.action == ATMAction.DEFER
        assert consumer_decision.waiting_on is producer
        producer.run()
        commit = engine.task_finished(producer, producer_decision, executed=True)
        assert commit.deferred == (consumer,)
        assert commit.forwarded_bytes == consumer_out.nbytes
        assert np.allclose(consumer_out, src ** 2)
        assert engine.stats.ikt_hits == 1

    def test_producer_retiring_during_a_consumers_lookup_still_serves_it(self, monkeypatch):
        """The consumer found its producer in the IKT and is about to file
        its petition when the producer commits on another thread: lookup +
        petition and retire + collect are each one step, so the consumer is
        either served by that commit or never deferred (at the parent of PR
        20 it was deferred and never completed: a hung threaded drain)."""
        import threading

        engine = make_static_engine()
        src = np.arange(8.0)
        producer_out, consumer_out = np.zeros(8), np.zeros(8)
        producer = square_task(src, producer_out, task_id=0)
        consumer = square_task(src, consumer_out, task_id=1)
        producer_decision = engine.task_ready(producer)
        producer.run()
        completions = []
        lookup = engine.ikt.lookup
        found = threading.Event()

        def lookup_then_stall(key, name):
            result = lookup(key, name)
            found.set()                 # the producer may commit now ...
            commit.join(timeout=0.3)    # ... and gets every chance to
            return result

        def commit_producer():
            found.wait(timeout=5.0)
            completions.extend(
                engine.task_finished(producer, producer_decision, executed=True).deferred
            )

        commit = threading.Thread(target=commit_producer)
        commit.start()
        monkeypatch.setattr(engine.ikt, "lookup", lookup_then_stall)
        decision = engine.task_ready(consumer)
        commit.join(timeout=5.0)
        assert not commit.is_alive()
        assert decision.action == ATMAction.DEFER
        assert completions == [consumer]
        assert np.allclose(consumer_out, src ** 2)

    def test_ikt_disabled(self):
        engine = make_static_engine(use_ikt=False)
        src = np.arange(8.0)
        producer = square_task(src, np.zeros(8), task_id=0)
        consumer = square_task(src, np.zeros(8), task_id=1)
        engine.task_ready(producer)
        assert engine.task_ready(consumer).action == ATMAction.EXECUTE

    def test_inconsistent_executed_flag_rejected(self):
        engine = make_static_engine()
        src, dst = np.arange(4.0), np.zeros(4)
        task = square_task(src, dst)
        decision = engine.task_ready(task)
        with pytest.raises(MemoizationError):
            engine.task_finished(task, decision, executed=False)

    def test_memory_bytes_breakdown(self):
        engine = make_static_engine()
        src, dst = np.arange(8.0), np.zeros(8)
        process(engine, square_task(src, dst))
        parts = engine.memory_bytes()
        assert parts["total"] == (
            parts["tht"] + parts["ikt"] + parts["shuffles"] + parts["key_cache"]
        )
        assert parts["tht"] > 0
        assert engine.memory_overhead_percent(int(src.nbytes + dst.nbytes)) > 0.0

    def test_describe_mentions_policy(self):
        assert "static" in make_static_engine().describe()


class TestDynamicEngine:
    def make_engine(self) -> ATMEngine:
        config = ATMConfig()
        return ATMEngine(config=config, policy=DynamicATMPolicy(config), num_threads=2)

    def test_training_hits_execute_and_report_tau(self):
        engine = self.make_engine()
        src = np.arange(16.0)
        process(engine, square_task(src, np.zeros(16), task_id=0))
        decision, _ = process(engine, square_task(src, np.zeros(16), task_id=1))
        assert decision.action == ATMAction.EXECUTE_AND_TRAIN
        assert engine.stats.training_hits == 1
        assert engine.stats.training_errors[0] == pytest.approx(0.0)

    def test_steady_state_reached_and_memoizes(self):
        engine = self.make_engine()
        src = np.arange(16.0)
        outs = [np.zeros(16) for _ in range(6)]
        decisions = [process(engine, square_task(src, out, task_id=i))[0] for i, out in enumerate(outs)]
        # l_training = 2: first is a miss, two training hits, then SKIPs.
        actions = [d.action for d in decisions]
        assert actions[0] == ATMAction.EXECUTE
        assert actions[1] == actions[2] == ATMAction.EXECUTE_AND_TRAIN
        assert all(a == ATMAction.SKIP for a in actions[3:])
        assert all(np.allclose(out, src ** 2) for out in outs)

    def test_failed_training_doubles_p(self):
        engine = self.make_engine()
        rng = np.random.default_rng(0)
        # Inputs that collide at 1 sampled byte but produce different outputs.
        a = rng.uniform(1.0, 2.0, 64)
        b = a.copy()
        b[1:] += 0.3   # same leading MSB byte is likely, different outputs
        process(engine, square_task(a, np.zeros(64), task_id=0))
        initial_p = engine.policy.sampling_fraction(square_task(a, np.zeros(64)))
        for index in range(6):
            process(engine, square_task(b if index % 2 else a, np.zeros(64), task_id=index + 1))
        assert engine.policy.sampling_fraction(square_task(a, np.zeros(64))) >= initial_p

    def test_blacklisted_task_bypasses_atm(self):
        config = ATMConfig()
        policy = DynamicATMPolicy(config)
        engine = ATMEngine(config=config, policy=policy, num_threads=2)
        out = np.zeros(8)
        task_type = TaskType("bl-engine", memoizable=True, tau_max=0.01, l_training=50)
        src = np.arange(8.0)
        # Force the policy into a state where `out` is blacklisted and steady.
        state = policy.trainer.state_for(task_type.name)
        from repro.atm.adaptive import TrainingPhase

        state.phase = TrainingPhase.STEADY
        state.unstable_outputs.add(Out(out).region.region_key)
        decision = engine.task_ready(square_task(src, out, task_type=task_type))
        assert decision.action == ATMAction.EXECUTE
        assert not decision.atm_handled
        assert engine.stats.blacklisted_skips == 1


class TestStatsIntegration:
    def test_reuse_events_record_producer_and_consumer(self):
        engine = make_static_engine()
        src = np.arange(8.0)
        producer_task = square_task(src, np.zeros(8), task_id=0)
        producer_task.creation_index = 0
        process(engine, producer_task)
        consumer_task = square_task(src, np.zeros(8), task_id=5)
        consumer_task.creation_index = 5
        process(engine, consumer_task)
        events = engine.stats.snapshot()["reuse_events"]
        assert events == [(0, 5, "tht")]

    def test_cumulative_reuse_curve(self):
        engine = make_static_engine()
        src = np.arange(8.0)
        for index in range(5):
            task = square_task(src, np.zeros(8), task_id=index)
            task.creation_index = index
            process(engine, task)
        x, y = engine.stats.cumulative_reuse_curve(total_tasks=5)
        assert len(x) == 4            # four reuses of the first task
        assert y[-1] == pytest.approx(1.0)
        assert (x == 0.0).all()       # all generated by the first task

    def test_reuse_percentage(self):
        engine = make_static_engine()
        src = np.arange(8.0)
        for index in range(4):
            process(engine, square_task(src, np.zeros(8), task_id=index))
        assert engine.stats.reuse_percentage() == pytest.approx(75.0)


class TestStridedViewsOfOneSpan:
    """Two views that are not C-contiguous can cover one byte span of a base
    and read different bytes of it: the key caches must not take one for the
    other (their ``region_key`` is equal; their ``cache_key`` is not)."""

    @staticmethod
    def _run(executor: str, mode: str):
        from repro.session import Session

        copy_type = TaskType("strided_copy", memoizable=True)

        def copy(x, o):
            o[...] = x

        base = np.arange(16.0).reshape(4, 4)
        a = base[0:3:2, 0:3:2]
        b = base.T[0:3:2, 0:3:2]
        out_a, out_b = np.zeros((2, 2)), np.zeros((2, 2))
        session = Session({
            "runtime": {"executor": executor, "num_threads": 2},
            "atm": {"mode": mode},
        })
        session.submit(copy_type, copy, accesses=[In(a), Out(out_a)], args=(a, out_a))
        session.wait_all()
        session.submit(copy_type, copy, accesses=[In(b), Out(out_b)], args=(b, out_b))
        session.finish()
        return out_a, out_b

    @pytest.mark.parametrize("executor", ["serial", "threaded"])
    def test_static_atm_is_bit_identical_to_atm_off(self, executor):
        expected = self._run(executor, "none")
        assert expected[1].tolist() == [[0.0, 8.0], [2.0, 10.0]]
        for got, want in zip(self._run(executor, "static"), expected):
            assert got.tobytes() == want.tobytes()
