"""Cross-executor parity matrix.

Every registered benchmark runs at ``WorkloadScale.TINY`` on the Serial,
Threaded, Process and Network (loopback transport) executors with ATM off
and with exact Static ATM, and must produce:

* **bit-identical output checksums** (the dependence graph plus exact
  ``p = 1.0`` keys make memoized copy-outs indistinguishable from
  re-execution, whatever the interleaving), and
* **identical ``tasks_memoized + tasks_executed`` accounting** (the IKT is
  disabled in the parity configuration, so the sum is order-independent:
  every completed task is exactly one of the two).

Under Dynamic ATM the training decisions depend on the schedule, so neither
of the two holds; what must hold on every executor is the paper's own bound:
the Euclidean relative error of the output against the serial ATM-off run
stays within the benchmark's ``tau_max``, and no task is lost.

Where applicable (the deterministic discrete-event backend) the simulator is
included: its functional outputs must match the serial reference and its
*schedule checksum* — a digest of ``(task, core, start, finish)`` for every
task — must be reproducible run to run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.registry import make_benchmark
from repro.apps.registry import BENCHMARK_NAMES
from repro.atm.engine import ATMEngine
from repro.atm.policy import make_policy
from repro.common.config import ATMConfig, RuntimeConfig
from repro.common.error_metrics import euclidean_relative_error
from repro.common.hashing import hash_bytes
from repro.session import ReproConfig, Session
from repro.runtime.simulator import SimulatedExecutor

EXECUTORS = ("serial", "threaded", "process", "network")
MODES = ("none", "static", "dynamic")
#: Worker counts: serial is single by construction; threaded runs bodies on
#: four threads beside the draining one; the process pool stays at 2 to bound spawn cost;
#: the network backend runs 2 loopback workers (the default
#: ``net_endpoints="loopback"`` spawns ``cores`` in-process workers speaking
#: the real wire protocol over socketpairs).
WORKERS = {"serial": 1, "threaded": 4, "process": 2, "network": 2}


def output_checksum(app) -> str:
    out = np.ascontiguousarray(np.asarray(app.output(), dtype=np.float64))
    return f"{hash_bytes(out):016x}"


def make_engine(mode: str, workers: int):
    if mode == "none":
        return None
    config = ATMConfig(mode=mode, use_ikt=False)
    return ATMEngine(
        config=config, policy=make_policy(mode, config), num_threads=workers
    )


def run_app(benchmark: str, executor: str, mode: str, workers: int | None = None):
    workers = WORKERS[executor] if workers is None else workers
    app = make_benchmark(benchmark, scale="tiny")
    engine = make_engine(mode, workers)
    result = app.run_on(executor, cores=workers, engine=engine)
    return app, result


def run_tiny(benchmark: str, executor: str, mode: str, workers: int | None = None):
    app, result = run_app(benchmark, executor, mode, workers)
    return output_checksum(app), result


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
@pytest.mark.parametrize("mode", MODES)
def test_executor_parity(bench_name, mode):
    if mode == "dynamic":
        exact, reference = run_app(bench_name, "serial", "none")
        exact_output = exact.output()
        for executor in EXECUTORS:
            app, result = run_app(bench_name, executor, mode)
            assert result.tasks_completed == reference.tasks_completed
            error = euclidean_relative_error(exact_output, app.output())
            assert error <= app.info.tau_max, (
                f"{bench_name}: {executor}/dynamic error {error:.3e} exceeds "
                f"tau_max {app.info.tau_max}"
            )
        return
    reference_checksum, reference = run_tiny(bench_name, "serial", mode)
    reference_sum = reference.tasks_memoized + reference.tasks_executed
    assert reference_sum == reference.tasks_completed  # no IKT -> no deferrals
    for executor in EXECUTORS[1:]:
        checksum, result = run_tiny(bench_name, executor, mode)
        assert checksum == reference_checksum, (
            f"{bench_name}: {executor}/{mode} output diverged from serial"
        )
        assert result.tasks_completed == reference.tasks_completed
        assert result.tasks_memoized + result.tasks_executed == reference_sum, (
            f"{bench_name}: {executor}/{mode} accounting diverged "
            f"({result.tasks_memoized}+{result.tasks_executed} != {reference_sum})"
        )
        if mode == "static" and reference.tasks_memoized > 0:
            # Non-vacuous reuse check: a backend whose memoization silently
            # broke must fail here.  Without the IKT (the parity
            # configuration) the twins the parent looks up while their first
            # copy is still on a worker all miss, so how much a multi-worker
            # pool reuses depends on its window of in-flight chunks; the
            # worker backends' reuse is asserted on a single-worker pool,
            # whose lookups follow the serial order, while the threaded
            # backend keeps the direct check.  (Twins on two workers are
            # pinned by test_twin_reuse_is_deterministic_on_two_workers.)
            if executor in ("process", "network"):
                _, solo = run_tiny(bench_name, executor, mode, workers=1)
                assert solo.tasks_memoized > 0, (
                    f"{bench_name}: single-worker {executor}/static found no "
                    f"reuse although serial memoized "
                    f"{reference.tasks_memoized} tasks"
                )
            else:
                assert result.tasks_memoized > 0, (
                    f"{bench_name}: {executor}/static found no reuse although "
                    f"serial memoized {reference.tasks_memoized} tasks"
                )
        if mode == "none":
            assert result.tasks_memoized == 0
            assert result.tasks_executed == result.tasks_completed


def _run_twins(executor: str, chunk_size: int, n: int = 8):
    """Submit ``n`` same-key twin tasks (distinct buffers, identical
    content) on a 2-worker pool under static ATM (IKT on) and return the
    drain result + sinks."""
    from tests.conftest import SQUARE_TYPE, square_body
    from repro.runtime.data import In, Out

    cfg = ReproConfig().with_overrides(
        runtime={
            "executor": executor,
            "num_threads": 2,
            "mp_chunk_size": chunk_size,
        },
        atm={"mode": "static"},
    )
    with Session(cfg) as session:
        sources = [np.full(16, 3.0) for _ in range(n)]
        sinks = [np.zeros(16) for _ in range(n)]
        with session.batch():
            for src, dst in zip(sources, sinks):
                session.submit(
                    SQUARE_TYPE, square_body,
                    accesses=[In(src), Out(dst)], args=(src, dst),
                )
        result = session.wait_all()
    return result, sinks


@pytest.mark.parametrize("chunk_size", [1, 2, 64])
@pytest.mark.parametrize("executor", ["threaded", "process", "network"])
def test_twin_reuse_is_deterministic_on_two_workers(executor, chunk_size):
    """Same-key twins on a 2-worker pool, whatever the chunking.

    The parent looks every task up before it ships one, against the one
    engine of the Session: the first twin runs on a worker and every other
    waits for its commit (IKT) or hits it (THT).  No twin reaches a worker
    whose table never saw the first, so the count is exact on every run.
    """
    n = 8
    result, sinks = _run_twins(executor, chunk_size, n)
    assert result.tasks_completed == n
    assert result.tasks_memoized + result.tasks_deferred == n - 1, (
        f"{executor}/chunks of {chunk_size}: expected {n - 1} reused twins, "
        f"got {result.tasks_memoized} + {result.tasks_deferred}"
    )
    for dst in sinks:
        assert np.array_equal(dst, np.full(16, 9.0))


def simulator_schedule_checksum(benchmark: str, mode: str) -> tuple[str, str]:
    """Run the simulated backend once; return (output, schedule) checksums."""
    workers = 4
    app = make_benchmark(benchmark, scale="tiny")
    executor = SimulatedExecutor(
        config=RuntimeConfig(num_threads=workers, executor="simulated")
    )
    runtime = Session(executor=executor, engine=make_engine(mode, workers))
    # The graph forgets finished tasks: the schedule is read off the tasks
    # this test holds, one row per submitted task.
    submit, tasks = runtime.submit, []

    def holding_submit(*args, **kwargs):
        tasks.append(submit(*args, **kwargs))
        return tasks[-1]

    runtime.submit = holding_submit
    app.run(runtime)
    assert tasks and len(tasks) == runtime.task_count
    schedule = np.asarray(
        [
            (task.task_id, task.executed_on, task.start_time, task.finish_time)
            for task in sorted(tasks, key=lambda t: t.task_id)
        ],
        dtype=np.float64,
    )
    return output_checksum(app), f"{hash_bytes(np.ascontiguousarray(schedule)):016x}"


#: The simulated schedules at tiny scale under static ATM on 4 cores.  A
#: change to the simulator's cost model or event order moves them; such a
#: change re-baselines them here, on purpose.
PINNED_SCHEDULES = {"blackscholes": "fa71c943ece18340", "jacobi": "03e98e663f2ece13"}


@pytest.mark.parametrize("bench_name", ["blackscholes", "jacobi"])
def test_simulator_outputs_match_serial_and_schedule_is_deterministic(bench_name):
    serial_checksum, _ = run_tiny(bench_name, "serial", "static")
    out_first, sched_first = simulator_schedule_checksum(bench_name, "static")
    out_second, sched_second = simulator_schedule_checksum(bench_name, "static")
    assert out_first == serial_checksum
    assert out_second == serial_checksum
    assert sched_first == sched_second
    assert sched_first == PINNED_SCHEDULES[bench_name]


# -- one engine per owner: the remote backends memoize in the parent -----------
#: Serial Dynamic ATM's frozen sampling fraction per pinned benchmark (tiny).
DYNAMIC_PINS = {"gauss-seidel": 1 / 16, "blackscholes": 1 / 128, "jacobi": 1 / 16}
REMOTE = ("process", "network")


def run_with_session_engine(benchmark: str, executor: str, mode: str,
                            workers: int = 1, chunk_size: int = 1):
    """Run ``benchmark`` (tiny) under the engine its Session builds — IKT
    on — and return ``(app, result, chosen_p)``."""
    app = make_benchmark(benchmark, scale="tiny")
    cfg = ReproConfig().with_overrides(
        runtime={"executor": executor, "num_threads": workers, "mp_chunk_size": chunk_size},
        atm={"mode": mode},
    )
    with Session(cfg) as session:
        app.run(session)
    engine = session.engine
    chosen = engine and engine.policy.chosen_p(app.info.memoized_task_type)
    return app, session.result, chosen


def counts(result) -> tuple:
    return (result.tasks_executed, result.tasks_memoized, result.tasks_deferred,
            result.tasks_trained)


@pytest.mark.parametrize("executor", ("threaded", *REMOTE))
@pytest.mark.parametrize("bench_name", sorted(DYNAMIC_PINS))
def test_two_worker_dynamic_atm_trains_the_one_engine(bench_name, executor):
    """Training runs once, in the parent: a two-worker pool with chunks
    of eight, which trains at pool width and looks a training task up as it
    retires, in dispatch order (on the threaded pool a training task that
    overwrites its input is looked up as it leaves the ready queue and runs
    alone), freezes serial's sampling fraction with serial's counts and
    keeps the paper's error bound."""
    exact, _, _ = run_with_session_engine(bench_name, "serial", "none")
    _, serial, serial_p = run_with_session_engine(bench_name, "serial", "dynamic")
    app, result, chosen = run_with_session_engine(
        bench_name, executor, "dynamic", workers=2, chunk_size=8
    )
    assert (chosen, result.tasks_memoized + result.tasks_deferred, result.tasks_trained) == (
        serial_p, serial.tasks_memoized, serial.tasks_trained
    ), f"{bench_name}/{executor}"
    assert chosen == DYNAMIC_PINS[bench_name]
    assert app.relative_error(exact.output()) <= app.info.tau_max
    # A settled lookup ships nothing: beyond serial's executed tasks, a pool
    # ships at most the window of training tasks in flight when their type
    # froze (2 workers × chunks of 8).
    (backend,) = (v for k, v in result.extra.items() if k.endswith("_backend"))
    assert backend["dispatched"] <= serial.tasks_executed + 2 * 8


#: ``(benchmark, workers, chunk size)``: one worker with chunks of one for
#: every pinned benchmark, and jacobi — whose process runs once varied —
#: on two workers with chunks of eight.
REPRODUCIBLE_SHAPES = [(name, 1, 1) for name in sorted(DYNAMIC_PINS)] + [("jacobi", 2, 8)]


@pytest.mark.parametrize("executor", ("threaded", *REMOTE))
@pytest.mark.parametrize("bench_name,workers,chunk_size", REPRODUCIBLE_SHAPES)
def test_dynamic_atm_runs_follow_the_dispatch_order(bench_name, workers, chunk_size, executor):
    """Tasks retire in dispatch order and a training task is looked up as
    it retires, after its predecessor committed (one worker, chunks of one:
    the serial order itself), so training sees the same sequence in every
    run: three runs give one sampling fraction, one output and one count
    tuple."""
    _, serial, serial_p = run_with_session_engine(bench_name, "serial", "dynamic")
    assert serial_p == DYNAMIC_PINS[bench_name]
    runs = [
        run_with_session_engine(bench_name, executor, "dynamic", workers, chunk_size)
        for _ in range(3)
    ]
    assert [chosen for _, _, chosen in runs] == [serial_p] * 3
    assert len({counts(result) for _, result, _ in runs}) == 1
    assert len({output_checksum(app) for app, _, _ in runs}) == 1


@pytest.mark.parametrize("executor", REMOTE)
@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_one_worker_static_atm_matches_serial(bench_name, executor):
    serial_app, serial, _ = run_with_session_engine(bench_name, "serial", "static")
    app, result, _ = run_with_session_engine(bench_name, executor, "static")
    assert output_checksum(app) == output_checksum(serial_app)
    assert result.tasks_memoized + result.tasks_deferred == serial.tasks_memoized
