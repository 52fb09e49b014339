"""Backend-agnostic fault-injection harness (DESIGN.md §"Failure semantics").

One fault matrix, five executor backends.  The harness has two halves:

* **Misbehaving task bodies** — module-level (the process and network
  backends ship task functions by name) and deliberately boring:
  raise deterministically, raise until the N-th attempt, sleep past the
  task budget, or kill the hosting worker process outright.  Cross-process
  attempt counting uses marker files under a caller-owned directory, the
  only channel all the backends share.
* **A session factory** — :func:`fault_session` builds a
  :class:`~repro.session.Session` over any backend with the supervision
  knobs (``task_timeout_s``, ``task_max_retries``, ``retry_backoff_s``,
  ``drain_timeout_s``, ``on_task_failure``) applied, so a test
  parametrised over backend names exercises the exact same scenario
  everywhere.

Worker-killing (:func:`kill_worker_body`) is only meaningful where the
task runs in a separate *process* — on the in-process backends it would
take the test runner down with it, so :func:`fault_session` refuses the
combination early rather than letting a matrix typo kill pytest.
"""

from __future__ import annotations

import os
import time
from typing import Optional

import numpy as np

from repro.common.config import RuntimeConfig
from repro.common.exceptions import RuntimeStateError

__all__ = [
    "BACKENDS",
    "square_body",
    "raising_body",
    "flaky_body",
    "wedge_body",
    "kill_worker_body",
    "fault_session",
    "submit_one",
]

#: Backends the fault matrix runs against.
BACKENDS = ("serial", "threaded", "process", "network", "simulated")

#: Hard bound on every harness drain: a hung failure path fails the test
#: loudly instead of stalling the suite.
FAULT_DRAIN_TIMEOUT = 30.0


# -- task bodies (module-level: they travel by name) ---------------------------------
def square_body(src: np.ndarray, dst: np.ndarray) -> None:
    """The healthy control body: ``dst = src ** 2``."""
    dst[:] = src ** 2


def raising_body(src: np.ndarray, dst: np.ndarray) -> None:
    """Deterministic task bug: raises on every attempt."""
    raise ValueError("injected task failure")


def flaky_body(marker_path: str, fail_times: int, src, dst) -> None:
    """Fails the first ``fail_times`` attempts, then succeeds.

    Attempts are counted by appending one byte to ``marker_path`` — a
    plain file, so the count survives worker process boundaries (process
    backend respawns, network endpoint failover) where in-memory counters
    would reset.
    """
    with open(marker_path, "ab") as marker:
        marker.write(b"x")
    if os.path.getsize(marker_path) <= fail_times:
        raise ValueError(
            f"injected flaky failure (attempt {os.path.getsize(marker_path)})"
        )
    dst[:] = src ** 2


def wedge_body(sleep_s: float, src, dst) -> None:
    """Runs ``sleep_s`` of wall-clock before finishing: the wedged task.

    Against a ``task_timeout_s`` below ``sleep_s`` this triggers timeout
    supervision — post-hoc detection on serial, the wedge rule on the
    pools (the thread abandoned, the process killed, the endpoint
    excluded).
    """
    time.sleep(sleep_s)
    dst[:] = src ** 2


def kill_worker_body(src, dst) -> None:
    """Kills the hosting worker process without cleanup (SIGKILL-like).

    ``os._exit`` skips ``atexit``/queue flushing, so the parent observes a
    dead process mid-chunk — the crash-recovery path, not an error reply.
    Only valid on the process backend (see module docstring).
    """
    os._exit(17)


# -- session factory -----------------------------------------------------------------
def fault_session(
    backend: str,
    *,
    workers: int = 2,
    chunk_size: int = 2,
    task_timeout_s: Optional[float] = None,
    task_max_retries: int = 0,
    retry_backoff_s: float = 0.01,
    on_task_failure: str = "abort",
    drain_timeout_s: float = FAULT_DRAIN_TIMEOUT,
    allow_worker_kill: bool = False,
    net_timeout_s: float = 0.5,
    net_max_retries: int = 2,
):
    """Build a Session over ``backend`` with supervision configured.

    Every knob of the supervision layer is surfaced as a keyword so a
    scenario reads as its configuration.  ``allow_worker_kill`` must be
    set (and ``backend`` must run tasks out-of-process) before a scenario
    may submit :func:`kill_worker_body` — the guard keeps an in-process
    backend from executing ``os._exit`` inside pytest.
    """
    from repro.session import Session

    if backend not in BACKENDS:
        raise RuntimeStateError(
            f"unknown fault-matrix backend {backend!r}; expected one of {BACKENDS}"
        )
    if allow_worker_kill and backend not in ("process",):
        raise RuntimeStateError(
            f"kill_worker_body would kill the test process on the "
            f"{backend!r} backend; only 'process' runs task bodies in "
            "disposable worker processes"
        )
    supervision = dict(
        task_timeout_s=task_timeout_s,
        task_max_retries=task_max_retries,
        retry_backoff_s=retry_backoff_s,
        drain_timeout_s=drain_timeout_s,
        on_task_failure=on_task_failure,
    )
    if backend == "network":
        from repro.runtime.net_executor import NetworkExecutor
        from repro.runtime.net_transport import LoopbackEndpoint

        config = RuntimeConfig(
            executor="network",
            num_threads=workers,
            mp_chunk_size=chunk_size,
            net_timeout_s=net_timeout_s,
            net_max_retries=net_max_retries,
            **supervision,
        )
        endpoints = [LoopbackEndpoint(f"fault-lo/{i}") for i in range(workers)]
        executor = NetworkExecutor(config=config, endpoints=endpoints)
        return Session(executor=executor)
    runtime = dict(
        executor=backend,
        num_threads=workers,
        **supervision,
    )
    if backend == "process":
        runtime["mp_chunk_size"] = chunk_size
    return Session({"runtime": runtime})


def submit_one(session, body, *extra_args, label: str = "fault"):
    """Submit one ``body(*extra_args, src, dst)`` task; returns ``(src, dst)``."""
    from repro.runtime.data import In, Out
    from repro.runtime.task import TaskType

    src = np.arange(8, dtype=np.float64)
    dst = np.zeros(8)
    session.submit(
        TaskType(label, memoizable=False),
        body,
        accesses=[In(src), Out(dst)],
        args=(*extra_args, src, dst),
    )
    return src, dst
