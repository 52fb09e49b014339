"""Tests for the execution trace recorder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import StaticATMPolicy
from repro.common.config import ATMConfig, RuntimeConfig
from repro.runtime.executor import SerialExecutor, ThreadedExecutor
from repro.runtime.trace import CoreState, StateInterval, TraceRecorder, render_ascii_trace
from repro.session import Session

from tests.conftest import submit_square


class TestTraceRecorder:
    def test_record_and_totals(self):
        trace = TraceRecorder()
        trace.record(0, CoreState.TASK_EXECUTION, 0.0, 2.0, "t#0")
        trace.record(0, CoreState.ATM_HASH, 2.0, 3.0, "t#1")
        trace.record(1, CoreState.TASK_EXECUTION, 0.0, 1.0, "t#2")
        totals = trace.state_totals()
        assert totals[CoreState.TASK_EXECUTION] == pytest.approx(3.0)
        assert totals[CoreState.ATM_HASH] == pytest.approx(1.0)

    def test_totals_per_core(self):
        trace = TraceRecorder()
        trace.record(0, CoreState.TASK_EXECUTION, 0.0, 2.0)
        trace.record(1, CoreState.TASK_EXECUTION, 0.0, 5.0)
        assert trace.state_totals(core=1)[CoreState.TASK_EXECUTION] == pytest.approx(5.0)

    def test_disabled_recorder_ignores_events(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0, CoreState.TASK_EXECUTION, 0.0, 1.0)
        trace.sample_ready(0.0, 3)
        assert trace.intervals == []
        assert trace.ready_samples == []

    def test_zero_length_intervals_dropped(self):
        trace = TraceRecorder()
        trace.record(0, CoreState.IDLE, 1.0, 1.0)
        assert trace.intervals == []

    def test_span(self):
        trace = TraceRecorder()
        assert trace.span() == (0.0, 0.0)
        trace.record(0, CoreState.TASK_EXECUTION, 1.0, 4.0)
        trace.record(2, CoreState.TASK_EXECUTION, 0.5, 2.0)
        assert trace.span() == (0.5, 4.0)

    def test_cores(self):
        trace = TraceRecorder()
        trace.record(3, CoreState.IDLE, 0.0, 1.0)
        trace.record(1, CoreState.IDLE, 0.0, 1.0)
        assert trace.cores() == [1, 3]

    def test_mean_state_duration(self):
        trace = TraceRecorder()
        trace.record(0, CoreState.ATM_MEMOIZATION, 0.0, 1.0)
        trace.record(0, CoreState.ATM_MEMOIZATION, 1.0, 4.0)
        assert trace.mean_state_duration(CoreState.ATM_MEMOIZATION) == pytest.approx(2.0)
        assert trace.mean_state_duration(CoreState.ATM_HASH) == 0.0

    def test_ready_series_sorted(self):
        trace = TraceRecorder()
        trace.sample_ready(2.0, 5)
        trace.sample_ready(1.0, 3)
        assert trace.ready_depth_series() == [(1.0, 3), (2.0, 5)]
        assert trace.max_ready_depth() == 5

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(0, CoreState.IDLE, 0.0, 1.0)
        trace.sample_ready(0.0, 1)
        trace.clear()
        assert trace.intervals == [] and trace.ready_samples == []

    def test_interval_duration(self):
        interval = StateInterval(0, CoreState.TASK_EXECUTION, 1.0, 3.5)
        assert interval.duration == pytest.approx(2.5)


class TestAsciiRendering:
    def test_empty_trace(self):
        assert render_ascii_trace(TraceRecorder()) == "(empty trace)"

    def test_renders_one_line_per_core_plus_legend(self):
        trace = TraceRecorder()
        trace.record(0, CoreState.TASK_EXECUTION, 0.0, 10.0)
        trace.record(1, CoreState.ATM_MEMOIZATION, 0.0, 10.0)
        text = render_ascii_trace(trace, width=20)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "T" in lines[0]
        assert "M" in lines[1]
        assert lines[2].startswith("legend")

    def test_dominant_state_wins_bucket(self):
        trace = TraceRecorder()
        trace.record(0, CoreState.TASK_EXECUTION, 0.0, 9.0)
        trace.record(0, CoreState.ATM_HASH, 9.0, 10.0)
        text = render_ascii_trace(trace, width=10).splitlines()[0]
        assert text.count("T") >= 8


class TestExecutorTracing:
    """What ``BaseExecutor._process`` records — and, with tracing off, skips."""

    TASKS = 12

    @staticmethod
    def run_twins(executor_cls, tracing: bool, threads: int):
        """TASKS identical square tasks under static ATM (IKT off: one
        executes and commits, the rest are THT hits) on a fresh executor."""
        atm = ATMConfig(use_ikt=False)
        engine = ATMEngine(config=atm, policy=StaticATMPolicy(atm), num_threads=threads)
        executor = executor_cls(
            config=RuntimeConfig(num_threads=threads, enable_tracing=tracing)
        )
        session = Session(executor=executor, engine=engine)
        src = np.arange(16, dtype=np.float64)
        tasks = [
            submit_square(session, src, np.zeros(16))
            for _ in range(TestExecutorTracing.TASKS)
        ]
        return session, tasks

    def test_serial_intervals_are_the_figure_7_states(self):
        session, tasks = self.run_twins(SerialExecutor, tracing=True, threads=1)
        trace = session.finish().trace
        states = [(i.state, i.task_label) for i in trace.intervals]
        expected = [
            (CoreState.ATM_HASH, "square#0"),
            (CoreState.TASK_EXECUTION, "square#0"),
            (CoreState.ATM_MEMOIZATION, "square#0"),
        ]
        for task in tasks[1:]:
            expected += [
                (CoreState.ATM_HASH, task.label),
                (CoreState.ATM_MEMOIZATION, task.label),
            ]
        assert states == expected
        assert trace.cores() == [0]
        # One ready-queue sample per task, taken after its completion.
        assert [depth for _, depth in trace.ready_samples] == list(
            range(self.TASKS - 1, -1, -1)
        )
        starts = [i.start for i in trace.intervals]
        assert starts == sorted(starts)

    def test_threaded_trace_has_one_sample_and_hash_per_task(self):
        session, tasks = self.run_twins(ThreadedExecutor, tracing=True, threads=2)
        result = session.finish()
        trace = result.trace
        per_state = {
            state: sum(1 for i in trace.intervals if i.state is state) for state in CoreState
        }
        assert per_state[CoreState.ATM_HASH] == self.TASKS
        assert per_state[CoreState.ATM_MEMOIZATION] == self.TASKS
        assert per_state[CoreState.TASK_EXECUTION] == result.tasks_executed
        assert len(trace.ready_samples) == self.TASKS
        assert set(trace.cores()) <= {0, 1}
        assert {i.task_label for i in trace.intervals} == {t.label for t in tasks}

    @pytest.mark.parametrize("executor_cls, threads", [(SerialExecutor, 1), (ThreadedExecutor, 2)])
    def test_untraced_run_does_no_trace_work(self, executor_cls, threads, monkeypatch):
        session, tasks = self.run_twins(executor_cls, tracing=False, threads=threads)
        pending_calls = []
        scheduler = session.executor.scheduler
        monkeypatch.setattr(
            scheduler, "pending", lambda: pending_calls.append(1) or 0
        )
        result = session.finish()
        assert result.tasks_completed == self.TASKS
        assert result.trace.intervals == [] and result.trace.ready_samples == []
        # The two facts behind the graph_fine row: no label was ever
        # formatted, and the ready queue's lock was not taken to sample it.
        assert [task._label for task in tasks] == [None] * self.TASKS
        assert pending_calls == []
