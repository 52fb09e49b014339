"""One fault matrix, five backends (``pytest -m fault``).

Every scenario runs unchanged — through :mod:`repro.testing.faults` —
against the serial, threaded, process, network and simulated executors:
a deterministically raising task, a flaky task healed by retries, retry
exhaustion, and quarantine of a dependent subgraph.  A wedged task against
``task_timeout_s`` runs on the four wall-clock backends (the simulator
refuses the knob), a killed worker process on the process backend.  Each
asserts the *named* taxonomy error, the structured ``failures`` report,
and a wall-clock bound (no failure path may hang).

The matrix sleeps (backoffs, wedges, worker respawns), so it lives in
its own marker tier like ``net_soak``; tier-1 covers the same machinery
through the per-backend unit tests.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.common.exceptions import DrainAbortedError, RuntimeStateError
from repro.runtime.data import In, InOut, Out
from repro.runtime.task import TaskType
from repro.testing.faults import (
    BACKENDS,
    fault_session,
    flaky_body,
    kill_worker_body,
    raising_body,
    square_body,
    submit_one,
    wedge_body,
)

pytestmark = pytest.mark.fault

#: Every scenario must finish far below this (drain timeouts are tighter).
SCENARIO_BOUND = 30.0


def elapsed_under_bound(t0: float) -> None:
    assert time.monotonic() - t0 < SCENARIO_BOUND


@pytest.mark.parametrize("backend", BACKENDS)
def test_raising_task_aborts_with_named_failure(backend):
    t0 = time.monotonic()
    with pytest.raises(DrainAbortedError) as excinfo:
        with fault_session(backend) as session:
            submit_one(session, raising_body, label="boom")
            session.wait_all()
    elapsed_under_bound(t0)
    failures = excinfo.value.failures
    assert len(failures) == 1
    assert failures[0].label.startswith("boom#")
    assert failures[0].error == "TaskFailedError"
    assert failures[0].attempts == 1
    assert "injected task failure" in failures[0].reason


@pytest.mark.parametrize("backend", BACKENDS)
def test_flaky_task_heals_within_retry_budget(backend, tmp_path):
    marker = str(tmp_path / f"flaky-{backend}.attempts")
    with fault_session(backend, task_max_retries=3) as session:
        src, dst = submit_one(session, flaky_body, marker, 2, label="flaky")
        result = session.wait_all()
    assert result.tasks_completed == 1
    assert result.failures == []
    assert np.array_equal(dst, src ** 2)
    with open(marker, "rb") as f:
        assert len(f.read()) == 3  # two failures + the success, no extras


@pytest.mark.parametrize("backend", BACKENDS)
def test_retry_exhaustion_is_terminal_with_attempt_count(backend, tmp_path):
    marker = str(tmp_path / f"exhaust-{backend}.attempts")
    t0 = time.monotonic()
    with pytest.raises(DrainAbortedError) as excinfo:
        with fault_session(backend, task_max_retries=1) as session:
            submit_one(session, flaky_body, marker, 10, label="exhaust")
            session.wait_all()
    elapsed_under_bound(t0)
    failure = excinfo.value.failures[0]
    assert failure.error == "TaskFailedError"
    assert failure.attempts == 2  # the original execution + one retry
    with open(marker, "rb") as f:
        assert len(f.read()) == 2


@pytest.mark.parametrize("backend", ["serial", "threaded", "process", "network"])
def test_wedged_task_times_out(backend):
    # In-process backends detect the overrun post hoc (the sleep completes);
    # process/network kill or exclude the wedged worker preemptively, so the
    # sleep must merely exceed the detection budget, not ever finish.
    sleep_s = 0.3 if backend in ("serial", "threaded") else 5.0
    t0 = time.monotonic()
    with pytest.raises(DrainAbortedError) as excinfo:
        with fault_session(
            backend,
            task_timeout_s=0.1,
            net_max_retries=1,
            drain_timeout_s=20.0,
        ) as session:
            submit_one(session, wedge_body, sleep_s, label="wedge")
            session.wait_all()
    elapsed_under_bound(t0)
    failure = excinfo.value.failures[0]
    assert failure.error == "TaskTimeoutError"
    assert failure.label.startswith("wedge#")


def marked_wedge_body(marker_path: str, sleep_s: float, src, dst) -> None:
    """``wedge_body`` that counts its entries in a marker file."""
    with open(marker_path, "ab") as marker:
        marker.write(b"x")
    wedge_body(sleep_s, src, dst)


@pytest.mark.parametrize("backend", ["threaded", "process", "network"])
def test_wedge_is_terminal_once(backend, tmp_path):
    """One wedge rule under every worker pool, with default retry budgets:
    a task past ``task_timeout_s`` (+ grace) since its worker acknowledged
    it is ``TaskTimeoutError`` at once — entered once, never re-run
    elsewhere — its worker is killed / its endpoint excluded / its thread
    abandoned, and the healthy task beside it completes on the other one.
    (The network backend once aged the chunk from dispatch, re-ran the
    wedge on the second endpoint and ended in "all network endpoints
    failed"; the threaded pool once waited for the wedged body.)"""
    marker = str(tmp_path / f"wedge-{backend}.entries")
    t0 = time.monotonic()
    with fault_session(
        backend, task_timeout_s=0.2, on_task_failure="quarantine"
    ) as session:
        submit_one(session, marked_wedge_body, marker, 3.0, label="wedge")
        src, dst = submit_one(session, square_body, label="healthy")
        result = session.wait_all()
    assert time.monotonic() - t0 < 2.0  # returned long before the wedge woke up
    assert os.path.getsize(marker) == 1
    assert [(f.label.split("#")[0], f.error) for f in result.failures] == [
        ("wedge", "TaskTimeoutError")
    ]
    assert result.tasks_completed == 1 and np.array_equal(dst, src ** 2)
    if backend == "network":
        stats = result.extra["network_backend"]
        assert len(stats["failed_endpoints"]) == 1  # one of two endpoints still live
        assert "task_timeout_s=0.2" in stats["failed_endpoints"][0]
    else:
        assert result.extra[f"{backend}_backend"]["respawns"] == 1


@pytest.mark.parametrize(
    "backend, backlog", [("threaded", 600), ("process", 600), ("network", 1000)],
    ids=["threaded", "process", "network"],
)
def test_a_wedged_worker_with_a_backlog_is_still_timed_out(backend, backlog):
    """Hundreds of one-task chunks queued behind a wedged body fill its
    worker's socket; the drain thread must not block on sending them, or
    the wedge rule cannot run until the body returns on its own.  (A
    blocking send left the wedge to finish after its 3 s and reported no
    timeout.)  A loopback socketpair takes more frames than a process
    worker's before it is full; a worker thread's queue never is, and the
    chunks behind an abandoned thread's wedge never run there."""
    t0 = time.monotonic()
    with fault_session(
        backend, task_timeout_s=0.2, on_task_failure="quarantine"
    ) as session:
        submit_one(session, wedge_body, 3.0, label="wedge")
        sinks = [submit_one(session, square_body, label="work") for _ in range(backlog)]
        result = session.wait_all()
    assert [(f.label.split("#")[0], f.error) for f in result.failures] == [
        ("wedge", "TaskTimeoutError")
    ]
    assert time.monotonic() - t0 < 3.0  # returned before the wedge woke up
    assert result.tasks_completed == backlog
    assert all(np.array_equal(dst, src ** 2) for src, dst in sinks)


def test_a_thread_abandoned_as_its_wedge_returns_runs_no_body_twice():
    """The wedged body returns, and its thread starts the next chunk,
    after the drain last read its replies; the wedge rule then abandons the
    thread.  The chunk it started there fails (the thread runs it on) and
    is never sent again; the chunks behind it run once on the fresh thread,
    so no ``InOut`` body adds twice.  (A started chunk that was sent again
    ran on two threads over the same array.)  The drain's reads are held
    back to force that order."""
    budget, bound = 0.2, 5.0
    wedge_entered, release_wedge = threading.Event(), threading.Event()
    started, release_started = threading.Event(), threading.Event()
    abandoned = []

    def wedge(dst):
        wedge_entered.set()
        release_wedge.wait(bound)

    def started_body(dst):
        started.set()
        release_started.wait(bound)
        dst += 1.0

    def add(dst):
        dst += 1.0

    t0 = time.monotonic()
    with fault_session(
        "threaded", workers=1, task_timeout_s=budget, on_task_failure="quarantine"
    ) as session:
        executor = session.executor
        pump = executor._pump

        def held_pump():
            if not wedge_entered.is_set() or release_wedge.is_set():
                return pump()
            pump()  # reads the wedge's ack; its body is blocked, so no result
            time.sleep(1.5 * budget)  # the wedge is overdue since that ack
            abandoned.append(executor._workers[0].thread)
            release_wedge.set()  # it returns; its thread starts the next chunk
            assert started.wait(bound)
            # Back to the wedge rule with the wedge's result unread.

        executor._pump = held_pump
        sums = [np.zeros(1) for _ in range(4)]
        out = np.zeros(1)
        session.submit(TaskType("wedge"), wedge, accesses=[Out(out)], args=(out,))
        session.submit(TaskType("started"), started_body, accesses=[InOut(sums[0])],
                       args=(sums[0],))
        for dst in sums[1:]:
            session.submit(TaskType("behind"), add, accesses=[InOut(dst)], args=(dst,))
        try:
            result = session.wait_all()
        finally:
            release_wedge.set()
            release_started.set()
    for thread in abandoned:
        thread.join(bound)
    elapsed_under_bound(t0)
    assert [(f.label.split("#")[0], f.error) for f in result.failures] == [
        ("wedge", "TaskTimeoutError"), ("started", "WorkerLostError"),
    ]
    assert result.tasks_completed == 3
    assert result.extra["threaded_backend"]["respawns"] == 1
    assert [float(dst[0]) for dst in sums] == [1.0] * 4


@pytest.mark.parametrize("on_failure", ["abort", "quarantine"])
def test_killed_worker_process_backend(on_failure):
    """SIGKILL-style worker death: detected, respawned, bounded resubmission."""
    t0 = time.monotonic()
    session = fault_session(
        "process",
        on_task_failure=on_failure,
        allow_worker_kill=True,
        chunk_size=1,
        drain_timeout_s=20.0,
    )
    if on_failure == "abort":
        with pytest.raises(DrainAbortedError) as excinfo:
            with session:
                submit_one(session, kill_worker_body, label="kill")
                session.wait_all()
        failures = excinfo.value.failures
    else:
        with session:
            submit_one(session, kill_worker_body, label="kill")
            sinks = []
            for _ in range(4):
                sinks.append(submit_one(session, square_body, label="healthy"))
            result = session.wait_all()
        assert result.tasks_failed == 1
        assert result.tasks_completed == 4
        for src, dst in sinks:
            assert np.array_equal(dst, src ** 2)
        backend_stats = result.extra["process_backend"]
        assert backend_stats["respawns"] >= 1
        failures = result.failures
    elapsed_under_bound(t0)
    assert len(failures) == 1
    assert failures[0].error == "WorkerLostError"
    assert failures[0].label.startswith("kill#")
    assert "died" in failures[0].reason


@pytest.mark.parametrize("backend", BACKENDS)
def test_quarantine_cancels_dependents_and_drains_independents(backend):
    t0 = time.monotonic()
    with fault_session(backend, on_task_failure="quarantine") as session:
        # Chain: poison -> mid -> tail (via data dependences); 3 independents.
        a, b, c = np.zeros(8), np.zeros(8), np.zeros(8)
        src = np.arange(8, dtype=np.float64)
        session.submit(TaskType("poison", memoizable=False), raising_body,
                       accesses=[In(src), Out(a)], args=(src, a))
        session.submit(TaskType("mid", memoizable=False), square_body,
                       accesses=[In(a), Out(b)], args=(a, b))
        session.submit(TaskType("tail", memoizable=False), square_body,
                       accesses=[In(b), Out(c)], args=(b, c))
        independents = [submit_one(session, square_body, label="indep")
                        for _ in range(3)]
        result = session.wait_all()
    elapsed_under_bound(t0)
    assert result.tasks_failed == 1
    assert result.tasks_cancelled == 2
    assert result.tasks_completed == 3
    for src, dst in independents:
        assert np.array_equal(dst, src ** 2)
    assert len(result.failures) == 1
    failure = result.failures[0]
    assert failure.label.startswith("poison#")
    cancelled_types = sorted(label.split("#")[0] for label in failure.cancelled)
    assert cancelled_types == ["mid", "tail"]
    # The cancelled tasks never ran: their sinks are untouched.
    assert not b.any() and not c.any()


def test_kill_guard_refuses_in_process_backends():
    with pytest.raises(RuntimeStateError, match="kill_worker_body"):
        fault_session("threaded", allow_worker_kill=True)


def test_unknown_backend_rejected():
    with pytest.raises(RuntimeStateError, match="unknown fault-matrix backend"):
        fault_session("quantum")
