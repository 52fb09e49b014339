"""Host-side writes between two barriers: which backends observe them.

The program is the smallest one that can tell: square ``a`` into ``out``,
barrier, overwrite ``a`` from the host with a plain NumPy store, square it
again, barrier.  Backends that read the host array when the task runs
(serial, threaded), that byte-compare on copy-in (process) or that re-ship
every input (network without residency) see the store.  The network
backend's residency protocol does not: it trusts the write-version of the
region, and a NumPy store bumps none, so the endpoint squares the bytes it
already holds.  ``DataRegion(a).bump_version()`` after the store announces
the write and makes it correct (DESIGN.md §4.5).  The gateway is
server-authoritative by contract (``serving/client.py``): host writes to a
shipped array are not observed.

The same contract covers a task's *outputs* under ATM: a THT hit whose
output block is still tagged as holding the stored bytes copies nothing, so
a host store into that block must be announced to be repaired by the next
hit — on every backend (remote workers never elide, in-process ones read the
tag the announcement clears).
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


def square(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = src ** 2


def two_barriers(runtime, announce: bool = False) -> np.ndarray:
    a = np.arange(8.0)
    out = np.zeros(8)
    runtime.submit(SQUARE, square, accesses=[In(a), Out(out)], args=(a, out))
    runtime.wait_all()
    assert np.array_equal(out, STALE)
    a[:] = 10.0
    if announce:
        DataRegion(a).bump_version()
    runtime.submit(SQUARE, square, accesses=[In(a), Out(out)], args=(a, out))
    runtime.wait_all()
    return out


RESIDENCY_TRUSTS_VERSIONS = pytest.mark.xfail(
    strict=True,
    reason="network residency trusts write-versions and a NumPy store bumps "
    "none: the endpoint re-uses its resident copy of `a` and returns the "
    "previous result (ROADMAP direction 6(a), one host-write contract)",
)


@pytest.mark.parametrize(
    "runtime_overrides, announce",
    [
        pytest.param({"executor": "serial"}, False, id="serial"),
        pytest.param({"executor": "threaded"}, False, id="threaded"),
        pytest.param({"executor": "process"}, False, id="process"),
        pytest.param(
            {"executor": "network", "net_residency": False}, False, id="network-nores"
        ),
        pytest.param(
            {"executor": "network"}, False, id="network", marks=RESIDENCY_TRUSTS_VERSIONS
        ),
        pytest.param({"executor": "network"}, True, id="network-announced"),
    ],
)
def test_host_write_between_barriers_is_observed(runtime_overrides, announce):
    cfg = ReproConfig().with_overrides(runtime={"num_threads": 2, **runtime_overrides})
    with Session(cfg) as session:
        out = two_barriers(session, announce)
    assert np.array_equal(out, FRESH)


@pytest.mark.parametrize("executor", ["serial", "threaded", "process", "network"])
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
