"""Unit tests for the shared supervision layer (repro.runtime.supervision)."""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.atm.engine import ATMEngine
from repro.atm.policy import StaticATMPolicy
from repro.atm.tht import TaskHistoryTable
from repro.common.config import ATMConfig, RuntimeConfig
from repro.common.exceptions import (
    ConfigurationError,
    DrainAbortedError,
    TaskFailedError,
)
from repro.runtime.atm_protocol import MemoizationEngineProtocol
from repro.runtime.data import In, InOut, Out
from repro.runtime.executor import build_executor
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.supervision import TaskFailure, TaskSupervisor, dump_stacks
from repro.runtime.task import Task, TaskState, TaskType
from repro.runtime.trace import CoreState
from repro.serving.gateway import _SharedTierProbe
from repro.session import Session
from repro.testing.faults import BACKENDS, fault_session, raising_body, square_body

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The backends that run task bodies in this process, the simulator included.
IN_PROCESS = ("serial", "threaded", "simulated")


def make_task(task_id: int = 1, name: str = "probe") -> Task:
    return Task(
        task_type=TaskType(name), function=lambda: None, accesses=[],
        task_id=task_id,
    )


def make_supervisor(**overrides) -> TaskSupervisor:
    return TaskSupervisor(RuntimeConfig(**overrides))


class TestRetryAccounting:
    def test_backoff_doubles_per_attempt(self):
        sup = make_supervisor(task_max_retries=3, retry_backoff_s=0.1)
        task = make_task()
        assert sup.count_attempt(task) == pytest.approx(0.1)
        assert sup.count_attempt(task) == pytest.approx(0.2)
        assert sup.count_attempt(task) == pytest.approx(0.4)
        assert sup.count_attempt(task) is None  # budget exhausted
        assert sup.attempts(task) == 4

    def test_zero_retries_terminal_on_first_failure(self):
        sup = make_supervisor()
        assert sup.count_attempt(make_task()) is None

    def test_attempt_counters_are_per_task(self):
        sup = make_supervisor(task_max_retries=1)
        a, b = make_task(1), make_task(2)
        assert sup.count_attempt(a) is not None
        assert sup.count_attempt(b) is not None  # b's budget is untouched
        assert sup.count_attempt(a) is None


class TestTimeouts:
    def test_disabled_by_default(self):
        sup = make_supervisor()
        assert not sup.timed_out(1e9)

    def test_budget_comparison_and_reason(self):
        sup = make_supervisor(task_timeout_s=0.5)
        assert not sup.timed_out(0.5)
        assert sup.timed_out(0.501)
        assert "task_timeout_s=0.5" in sup.timeout_reason(0.75)


class TestTerminalFailures:
    def test_record_failure_lands_in_external_sink(self):
        sink: list[TaskFailure] = []
        sup = TaskSupervisor(RuntimeConfig(), failures=sink)
        failure = sup.record_failure(make_task(), TaskFailedError, "boom")
        assert sink == [failure]
        assert failure.error == "TaskFailedError"
        assert failure.attempts == 1  # never below the one real execution

    def test_abort_names_task_and_carries_failures(self):
        sup = make_supervisor(task_max_retries=1)
        task = make_task(7, "explode")
        sup.count_attempt(task)
        sup.count_attempt(task)
        err = sup.abort(task, TaskFailedError, "ValueError: boom")
        assert isinstance(err, DrainAbortedError)
        assert "explode#7" in str(err)
        assert "2 attempt(s)" in str(err)
        assert err.failures[0].attempts == 2


class TestDrainDeadline:
    def test_drain_timeout_builds_named_error(self, capsys):
        sup = make_supervisor(drain_timeout_s=1.25)
        err = sup.drain_timeout("unit drain")
        assert isinstance(err, DrainAbortedError)
        assert "drain_timeout_s=1.25" in str(err)

    @pytest.mark.parametrize("backend", ["serial", "simulated"])
    def test_a_drain_past_its_deadline_aborts(self, backend):
        """Five chained 30 ms tasks overrun a 50 ms drain deadline: the
        simulated drain checks the wall clock between events, as the serial
        drain does between tasks."""
        def nap(block):
            time.sleep(0.03)
            block += 1

        block = np.zeros(4)
        with pytest.raises(DrainAbortedError, match="drain did not finish"):
            with fault_session(backend, drain_timeout_s=0.05) as session:
                for _ in range(5):
                    session.submit(TaskType("nap", memoizable=False), nap,
                                   accesses=[InOut(block)], args=(block,))
                session.wait_all()

    def test_dump_stacks_writes_traceback(self, capsys):
        dump_stacks("unit test probe")
        captured = capsys.readouterr()
        text = captured.err + captured.out
        # Either the captured stream took the dump, or it fell back to the
        # real stderr (invisible here) -- the call must never raise.
        if text:
            assert "unit test probe" in text


class TestQuarantinePolicy:
    def test_mode_flag_follows_config(self):
        assert not make_supervisor().quarantine
        assert make_supervisor(on_task_failure="quarantine").quarantine

    def test_failure_is_on_the_report_before_on_complete_fires(self):
        # Whoever observes the FAILED state (a gateway barrier, a threaded
        # wait_all) reads the report next; it must already be there.
        sup = make_supervisor(on_task_failure="quarantine")
        seen: list[tuple[str, list[str]]] = []
        graph = TaskDependenceGraph(
            on_complete=lambda task: seen.append(
                (task.state.name, [f.label for f in sup.failures])
            )
        )
        data = np.zeros(4)
        producer = Task(TaskType("producer"), lambda: None, [Out(data)])
        consumer = Task(TaskType("consumer"), lambda: None, [In(data)])
        graph.add_tasks([producer, consumer])

        cancelled = sup.quarantine_task(graph, producer, TaskFailedError, "boom")

        assert cancelled == [consumer]
        assert seen == [("FAILED", [producer.label]), ("CANCELLED", [producer.label])]
        assert sup.failures[0].cancelled == (consumer.label,)


class TestBornCancelledAccounting:
    """A task submitted after its predecessor was quarantined is cancelled at
    birth; it is counted and the dooming failure's report names it."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_born_cancelled_task_is_counted_and_named(self, backend):
        x, y = np.arange(8.0), np.zeros(8)
        tt = TaskType("born_cancelled", memoizable=False)
        with fault_session(backend, on_task_failure="quarantine") as session:
            session.submit(tt, square_body, accesses=[In(x), Out(y)], args=(x, y))
            failing = session.submit(tt, raising_body, accesses=[Out(x)], args=(x, x))
            session.wait_all()
            late = session.submit(tt, square_body, accesses=[In(x), Out(y)], args=(x, y))
            # Doomed through an already born-cancelled task: same report.
            later = session.submit(tt, square_body, accesses=[In(y), Out(x)], args=(y, x))
            result = session.finish()
        assert late.state is TaskState.CANCELLED and later.state is TaskState.CANCELLED
        assert (result.tasks_completed, result.tasks_failed, result.tasks_cancelled) == (1, 1, 2)
        (failure,) = result.failures
        assert failure.task_id == failing.task_id
        assert failure.cancelled == (late.label, later.label)

    def test_follow_up_submitted_from_the_failures_own_on_complete(self):
        """``on_complete`` may submit into the graph (the gateway admits
        queued work there); a follow-up doomed by the failure being reported
        re-enters the executor's accounting on the same thread."""
        executor = build_executor(
            RuntimeConfig(executor="serial", on_task_failure="quarantine")
        )
        data = np.zeros(4)
        follow_up = Task(TaskType("follow_up"), lambda: None, [In(data)])

        def admit(task: Task) -> None:
            if task.state is TaskState.FAILED:
                graph.add_task(follow_up)

        graph = TaskDependenceGraph(
            on_ready=executor.notify_ready,
            on_ready_batch=executor.notify_ready_batch,
            on_complete=admit,
            on_born_cancelled=executor.notify_born_cancelled,
        )
        failing = graph.add_task(Task(TaskType("failing"), raising_body, [Out(data)],
                                      args=(data, data)))
        drain = threading.Thread(target=executor.drain, args=(graph,), daemon=True)
        drain.start()
        drain.join(timeout=10.0)
        assert not drain.is_alive(), "the failure's own completion hook deadlocked"
        result = executor.result()
        assert (result.tasks_failed, result.tasks_cancelled) == (1, 1)
        assert result.failures[0].task_id == failing.task_id
        assert result.failures[0].cancelled == (follow_up.label,)


def submit_failing_chain(session) -> None:
    """``boom#0`` raises; ``dep#1`` reads what it would have written."""
    a, b, c = np.arange(4.0), np.zeros(4), np.zeros(4)
    session.submit(TaskType("boom", memoizable=False), raising_body,
                   accesses=[In(a), Out(b)], args=(a, b))
    session.submit(TaskType("dep", memoizable=False), square_body,
                   accesses=[In(b), Out(c)], args=(b, c))


class TestEveryBackendRunsTheSupervisedStep:
    """A raising task with one dependent ends the same way on every
    in-process backend: the simulator runs its tasks through the same
    supervised step as serial and threaded."""

    @pytest.mark.parametrize("backend", IN_PROCESS)
    def test_abort_names_the_failed_task(self, backend):
        with pytest.raises(DrainAbortedError, match=r"boom#0") as excinfo:
            with fault_session(backend) as session:
                submit_failing_chain(session)
                session.wait_all()
        (failure,) = excinfo.value.failures
        assert failure.label == "boom#0" and failure.error == "TaskFailedError"

    @pytest.mark.parametrize("backend", IN_PROCESS)
    def test_quarantine_reports_the_failure_and_cancels_the_dependent(self, backend):
        with fault_session(backend, on_task_failure="quarantine") as session:
            submit_failing_chain(session)
            result = session.wait_all()
        assert (result.tasks_failed, result.tasks_cancelled) == (1, 1)
        (failure,) = result.failures
        assert failure.label == "boom#0" and failure.cancelled == ("dep#1",)

    def test_a_quarantined_simulated_round_leaves_no_task_ids_behind(self):
        with fault_session("simulated", on_task_failure="quarantine") as session:
            submit_failing_chain(session)
            for _ in range(3):
                x, y = np.arange(4.0), np.zeros(4)
                session.submit(TaskType("indep", memoizable=False), square_body,
                               accesses=[In(x), Out(y)], args=(x, y))
            result = session.wait_all()
            assert (result.tasks_completed, result.tasks_failed) == (3, 1)
            assert session.executor._released == set()
            assert session.executor._created == set()

    def test_simulated_refuses_a_wall_clock_task_timeout(self):
        with pytest.raises(ConfigurationError, match="task_timeout_s") as excinfo:
            build_executor(RuntimeConfig(executor="simulated", task_timeout_s=1.0))
        assert "simulated" in str(excinfo.value)


class TestOrphanRescue:
    """Twins deferred on a producer that then fails are executed directly."""

    def test_twins_deferred_on_a_failed_producer_run_and_its_key_leaves_the_ikt(self):
        calls = []

        def first_call_raises(src, dst):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("producer fails once")
            dst[:] = src ** 2

        config = {
            "runtime": {"executor": "simulated", "num_threads": 2,
                        "on_task_failure": "quarantine"},
            "atm": {"mode": "static"},
        }
        twin = TaskType("twin", memoizable=True)
        src = np.arange(16.0)
        # Four content twins on separate arrays: no dependence between them.
        sources = [src.copy() for _ in range(4)]
        outputs = [np.zeros(16) for _ in range(4)]
        with Session(config) as session:
            producer, *twins = [
                session.submit(twin, first_call_raises, accesses=[In(x), Out(y)], args=(x, y))
                for x, y in zip(sources, outputs)
            ]
            result = session.wait_all()
            assert len(session.engine.ikt) == 0  # the dead producer's key retired
        assert producer.state is TaskState.FAILED
        # All three twins deferred on the producer while it ran (one of them
        # executing instead would leave the others memoized): each was
        # rescued, executed once and counted once.
        assert [t.state for t in twins] == [TaskState.FINISHED] * 3
        assert len(calls) == 4
        assert (result.tasks_completed, result.tasks_executed) == (3, 3)
        assert (result.tasks_failed, result.tasks_cancelled) == (1, 0)
        assert all(np.array_equal(out, src ** 2) for out in outputs[1:])

    def test_a_simulated_rescue_runs_on_its_failed_producers_core(self):
        """The twin deferred on a producer that fails runs after it on the
        producer's core, which it keeps busy: its execution is traced there
        and the simulated run lasts until it ends."""
        calls = []

        def first_call_raises(src, dst):
            calls.append(1)
            if len(calls) == 1:
                raise ValueError("producer fails once")
            dst[:] = src ** 2

        config = {
            "runtime": {"executor": "simulated", "num_threads": 2,
                        "on_task_failure": "quarantine", "enable_tracing": True},
            "atm": {"mode": "static"},
        }
        twin_type = TaskType("twin", memoizable=True)
        sources, outputs = [np.arange(16.0), np.arange(16.0)], [np.zeros(16), np.zeros(16)]
        with Session(config) as session:
            producer, twin = [
                session.submit(twin_type, first_call_raises, accesses=[In(x), Out(y)], args=(x, y))
                for x, y in zip(sources, outputs)
            ]
            result = session.wait_all()
        assert (producer.state, twin.state) == (TaskState.FAILED, TaskState.FINISHED)
        (rescued,) = [
            interval for interval in result.trace.intervals
            if interval.state is CoreState.TASK_EXECUTION and interval.task_label == twin.label
        ]
        assert rescued.core == producer.executed_on
        assert rescued.start >= producer.finish_time
        assert rescued.duration == pytest.approx(twin.simulated_cost())
        assert result.elapsed >= rescued.end


def pid_unless_told_to_fail(src, dst, fail):
    """Task body: raises when ``fail``, else writes the running process's
    pid into ``dst``.  ``fail`` is no input, so it is not in the ATM key."""
    if fail:
        raise ValueError("the producer always fails")
    dst[:] = os.getpid()


@contextlib.contextmanager
def remote_executor(backend: str, config: RuntimeConfig):
    """A one-worker pool of ``backend`` whose worker is another process: a
    forked worker, or a ``scripts/net_worker.py`` daemon over TCP."""
    if backend == "process":
        from repro.runtime.mp_executor import ProcessExecutor

        yield ProcessExecutor(config=config)
        return
    from repro.runtime.net_executor import NetworkExecutor
    from repro.runtime.net_transport import TcpEndpoint

    daemon = subprocess.Popen(
        [sys.executable, str(REPO_ROOT / "scripts" / "net_worker.py"),
         "--host", "127.0.0.1", "--port", "0", "--announce"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    try:
        host, port = daemon.stdout.readline().split()[1].rsplit(":", 1)
        yield NetworkExecutor(config=config, endpoints=[TcpEndpoint(host, int(port))])
    finally:
        daemon.send_signal(signal.SIGTERM)
        try:
            daemon.communicate(timeout=10.0)
        finally:
            daemon.kill()
            daemon.wait()


@pytest.mark.parametrize("backend", ["process", "network"])
def test_a_twin_orphaned_on_a_worker_pool_runs_on_a_worker(backend):
    """The parent defers a twin on its in-flight producer (IKT); when the
    producer fails terminally the twin is shipped as a task of its own —
    run on a worker, never in the parent — and is not cancelled."""
    config = RuntimeConfig(
        executor=backend, num_threads=1, on_task_failure="quarantine", drain_timeout_s=60.0,
    )
    twin = TaskType("orphan_twin", memoizable=True)
    sources = [np.arange(8.0), np.arange(8.0)]
    outputs = [np.zeros(8), np.zeros(8)]
    with remote_executor(backend, config) as executor, \
            Session({"atm": {"mode": "static"}}, executor=executor) as session:
        producer, orphan = [
            session.submit(twin, pid_unless_told_to_fail, accesses=[In(x), Out(y)],
                           args=(x, y, fail))
            for x, y, fail in zip(sources, outputs, (True, False))
        ]
        result = session.wait_all()
        assert session.engine.stats.ikt_hits == 1  # the twin did wait on it
        assert len(session.engine.ikt) == 0
    assert producer.state is TaskState.FAILED
    assert orphan.state is TaskState.FINISHED
    worker_pid = outputs[1][0]
    assert np.all(outputs[1] == worker_pid) and worker_pid not in (0, os.getpid())
    assert (result.tasks_failed, result.tasks_cancelled) == (1, 0)
    assert (result.tasks_executed, result.tasks_deferred) == (1, 0)
    assert [f.task_id for f in result.failures] == [producer.task_id]


def test_every_engine_can_abandon_a_task():
    config = ATMConfig()
    engine = ATMEngine(config=config, policy=StaticATMPolicy(config))
    tenant_engine = _SharedTierProbe(engine, TaskHistoryTable(config))
    for candidate in (engine, tenant_engine):
        assert isinstance(candidate, MemoizationEngineProtocol)
        assert callable(candidate.task_abandoned)
