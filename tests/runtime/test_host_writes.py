"""Host-side writes between two barriers: the one host-write contract.

A host store into an array the runtime has seen is announced with
``DataRegion(a).bump_version()`` (or made through ``DataRegion.copy_from``)
before the next submission that reads it (DESIGN.md §4.5).  Every backend
trusts write-versions: the ATM key caches and content tags, the process
backend's copy-in and the network backend's residency all skip bytes whose
version did not move.

The program is the smallest one that can tell: square ``a`` into ``out``,
barrier, overwrite ``a`` from the host with a plain NumPy store, square it
again, barrier.  An announced store is observed on every executor cell.
For an unannounced one the contract promises nothing; the cells below pin
what each backend happens to do, so a change there is seen: backends that
read the host array when the task runs (serial, threaded) see the store,
while the process backend's segment and a network endpoint's resident copy
keep the old bytes.  The gateway is server-authoritative by contract
(``serving/client.py``): host writes to a shipped array are not observed.

Under ATM the contract covers a task's inputs and outputs on every
backend: an unannounced store into an input leaves the task's key — cached
against the unmoved version — unchanged, so the task is memoized with the
old result; a THT hit whose output block is still tagged as holding the
stored bytes copies nothing, so a host store into that block must be
announced to be repaired by the next hit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.data import DataRegion, In, Out
from repro.runtime.task import TaskType
from repro.serving import Gateway, GatewayClient
from repro.session import ReproConfig, Session

SQUARE = TaskType("host_write_square", memoizable=False)
MEMO_SQUARE = TaskType("host_write_memo_square", memoizable=True)

STALE = np.arange(8.0) ** 2
FRESH = np.full(8, 100.0)

EXECUTORS = ["serial", "threaded", "process", "network"]
CELLS = {
    "serial": {"executor": "serial"},
    "threaded": {"executor": "threaded"},
    "process": {"executor": "process"},
    "network": {"executor": "network"},
}


def square(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = src ** 2


def two_barriers(runtime, announce: bool = False, task_type: TaskType = SQUARE) -> np.ndarray:
    a = np.arange(8.0)
    out = np.zeros(8)
    runtime.submit(task_type, square, accesses=[In(a), Out(out)], args=(a, out))
    runtime.wait_all()
    assert np.array_equal(out, STALE)
    a[:] = 10.0
    if announce:
        DataRegion(a).bump_version()
    runtime.submit(task_type, square, accesses=[In(a), Out(out)], args=(a, out))
    runtime.wait_all()
    return out


def cell_session(cell: str) -> Session:
    return Session(ReproConfig().with_overrides(runtime={"num_threads": 2, **CELLS[cell]}))


@pytest.mark.parametrize("cell", CELLS)
def test_announced_host_write_between_barriers_is_observed(cell):
    with cell_session(cell) as session:
        out = two_barriers(session, announce=True)
    assert np.array_equal(out, FRESH)


@pytest.mark.parametrize(
    "cell, observed",
    [("serial", True), ("threaded", True), ("process", False), ("network", False)],
)
def test_unannounced_host_write_is_what_each_backend_happens_to_do(cell, observed):
    with cell_session(cell) as session:
        out = two_barriers(session)
    assert np.array_equal(out, FRESH if observed else STALE)


@pytest.mark.parametrize("announce", [True, False], ids=["announced", "unannounced"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_host_write_into_an_input_under_static_atm(executor, announce):
    cfg = ReproConfig().with_overrides(
        runtime={"num_threads": 1, "executor": executor}, atm={"mode": "static"}
    )
    with Session(cfg) as session:
        out = two_barriers(session, announce, MEMO_SQUARE)
        result = session.wait_all()
    assert result.tasks_memoized == (0 if announce else 1)
    assert np.array_equal(out, FRESH if announce else STALE)


@pytest.mark.parametrize("executor", EXECUTORS)
def test_announced_host_write_into_an_output_is_repaired_by_the_next_hit(executor):
    cfg = ReproConfig().with_overrides(
        # One worker: every task meets the THT replica its predecessors filled.
        runtime={"num_threads": 1, "executor": executor}, atm={"mode": "static"}
    )
    a, out = np.arange(8.0), np.zeros(8)
    with Session(cfg) as session:
        for _ in range(2):  # a miss, then a hit that leaves `out` tagged in process
            session.submit(MEMO_SQUARE, square, accesses=[In(a), Out(out)], args=(a, out))
            session.wait_all()
        out[:] = -1.0
        DataRegion(out).bump_version()
        session.submit(MEMO_SQUARE, square, accesses=[In(a), Out(out)], args=(a, out))
        result = session.wait_all()
    assert result.tasks_memoized == 2
    assert np.array_equal(out, STALE)


def test_gateway_does_not_observe_host_writes():
    cfg = ReproConfig().with_overrides(runtime={"executor": "serial"})
    with Gateway(cfg) as gateway:
        with GatewayClient("127.0.0.1", gateway.port, tenant="host-writes") as client:
            out = two_barriers(client)
    assert np.array_equal(out, STALE)
