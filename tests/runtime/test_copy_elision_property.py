"""Content-tagged output regions: eliding a hit's copy never changes a byte.

``copy_outputs_from_entry`` skips the copy of a stored output into a region
whose byte interval is still tagged as holding that very output of that very
THT entry (``runtime/data.py``: the tag book rides beside the write-version,
every committed write clears the tags it overlaps, only the in-process
memoized commit sets one).  The **hypothesis property**: random programs over
whole-array regions *and* sibling rows / an overlapping two-row block of one
2-D base — executed ``load``s, memoizable ``step``s that hit and miss (static
ATM and dynamic ``p < 1`` with its training refreshes, a THT small enough to
evict), announced host stores into inputs and into outputs, ``copy_from`` by
hand, quarantined failures, several barriers, serial and threaded —

* a static-ATM run is bit-identical, at every barrier, to an ATM-off serial
  run of the same program on copies;
* a serial run (dynamic included) is bit-identical, at every barrier, to the
  same run with the tag lookup patched to "never tagged", and moves exactly
  the bytes that run moved minus the bytes it elided;
* a threaded dynamic run (not repeatable run to run) stays within ``tau_max``
  of the exact outputs.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.runtime.data import DataRegion, In, Out  # noqa: E402
from repro.runtime.task import TaskType  # noqa: E402
from repro.session import Session  # noqa: E402

N = 16
TAU_MAX = 1e-3
LOAD = TaskType("elide_load")
BOOM = TaskType("elide_boom")
# One type per output shape: a key says nothing about the output's size.
STEP = TaskType("elide_step", memoizable=True, tau_max=TAU_MAX, l_training=2)
STEP_WIDE = TaskType("elide_step_wide", memoizable=True, tau_max=TAU_MAX, l_training=2)

# Content families: pattern ``j`` scaled so its most significant byte differs
# from every other pattern's (what a p = 2^-15 type-aware sample sees), and
# member ``k`` off by a relative 2^-30 — exact ATM tells members apart,
# sampled ATM takes them for twins, and the error of doing so is far below
# ``TAU_MAX``.
PATTERNS = [
    np.random.default_rng(j).uniform(1.1, 1.9, N) * 2.0 ** (16 * j) for j in range(3)
]


def member(j: int, k: int) -> np.ndarray:
    return PATTERNS[j] * (1.0 + k * 2.0 ** -30)


def load(dst: np.ndarray, values: np.ndarray) -> None:
    dst[:] = values


def step(src: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = 0.5 * src + 1.0


def explode(dst: np.ndarray) -> None:
    raise ValueError("injected failure")


class Arrays:
    """Two whole-array states and outputs, and one grid whose rows are
    sibling states (rows 0-1) and outputs (rows 2-5; ``wide`` overlaps 2-3)."""

    def __init__(self) -> None:
        self.whole = [np.zeros(N) for _ in range(4)]
        self.grid = np.zeros((6, N))

    def all(self) -> list[np.ndarray]:
        return self.whole + [self.grid]

    def state(self, i: int) -> np.ndarray:
        return self.whole[i] if i < 2 else self.grid[i - 2]

    def out(self, i: int) -> np.ndarray:
        if i < 2:
            return self.whole[2 + i]
        return self.grid[2:4] if i == 6 else self.grid[i]


STATES, OUTS, WIDE = 4, 7, 6
states, outs = st.integers(0, STATES - 1), st.integers(0, OUTS - 1)
families = st.tuples(st.integers(0, len(PATTERNS) - 1), st.integers(0, 1))
task_ops = st.one_of(
    st.tuples(st.just("load"), states, families),
    st.tuples(st.just("step"), states, outs),
    st.tuples(st.just("step"), states, outs),
    st.tuples(st.just("step"), states, outs),
)
rare_failures = st.tuples(st.integers(0, 5), outs).map(
    lambda draw: [("fail", draw[1], None)] if draw[0] == 0 else []
)
host_ops = st.lists(
    st.tuples(
        st.sampled_from(["store", "copy_from"]),
        st.one_of(st.tuples(st.just("state"), states), st.tuples(st.just("out"), outs)),
        families,
    ),
    max_size=3,
)
programs = st.lists(
    st.tuples(
        host_ops,
        st.builds(lambda ops, fail, at: ops[:at] + fail + ops[at:],
                  st.lists(task_ops, min_size=1, max_size=14),
                  rare_failures, st.integers(0, 14)),
    ),
    min_size=2, max_size=4,
)


def host_write(arrays: Arrays, op: tuple) -> None:
    kind, (side, index), (j, k) = op
    target = arrays.state(index) if side == "state" else arrays.out(index)
    # States stay inside the families; an output takes any bytes.
    values = member(j, k) if side == "state" else np.full(target.shape, 3.0 + j + k)
    if kind == "copy_from":
        DataRegion(target).copy_from(values)
    else:
        target[...] = values
        DataRegion(target).bump_version()  # the announced write


def submit(session: Session, arrays: Arrays, op: tuple) -> None:
    kind, a, b = op
    if kind == "load":
        dst = arrays.state(a)
        session.submit(LOAD, load, accesses=[Out(dst)], args=(dst, member(*b)))
    elif kind == "fail":
        dst = arrays.out(a)
        session.submit(BOOM, explode, accesses=[Out(dst)], args=(dst,))
    else:
        src, dst = arrays.state(a), arrays.out(b)
        session.submit(STEP_WIDE if b == WIDE else STEP, step,
                       accesses=[In(src), Out(dst)], args=(src, dst))


def run(program, executor: str, mode: str, capacity: int):
    """Run ``program`` on fresh arrays; the arrays after every barrier and
    the engine statistics."""
    arrays = Arrays()
    barriers = []
    config = {
        "runtime": {"executor": executor, "num_threads": 2,
                    "on_task_failure": "quarantine"},
        "atm": {"mode": mode, "tht_bucket_bits": 0, "tht_bucket_capacity": capacity},
    }
    with Session(config) as session:
        for host, ops in program:
            for op in host:
                host_write(arrays, op)
            for op in ops:
                submit(session, arrays, op)
            session.wait_all()
            barriers.append([array.copy() for array in arrays.all()])
        stats = session.stats
    return barriers, stats


def never_tagged():
    return mock.patch.object(DataRegion, "holds", lambda self, source, index: False)


@settings(max_examples=200, deadline=None)
@given(
    program=programs,
    executor=st.sampled_from(["serial", "threaded"]),
    mode=st.sampled_from(["static", "dynamic"]),
    capacity=st.sampled_from([2, 128]),
)
def test_eliding_a_copy_never_changes_a_byte(program, executor, mode, capacity):
    tagged, stats = run(program, executor, mode, capacity)
    exact, _ = run(program, "serial", "none", capacity)
    if mode == "static":
        for got, want in zip(tagged, exact):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
    elif executor == "threaded":
        for a, b in zip(tagged[-1], exact[-1]):
            assert np.max(np.abs(a - b)) <= TAU_MAX * max(1.0, np.max(np.abs(b)))
    if executor == "serial":
        with never_tagged():
            untagged, plain = run(program, executor, mode, capacity)
        for got, want in zip(tagged, untagged):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert plain["elided_bytes"] == 0
        assert stats["copied_bytes"] + stats["elided_bytes"] == plain["copied_bytes"]
        for name in ("tht_hits", "ikt_hits", "misses", "training_hits", "commits"):
            assert stats[name] == plain[name], name


def test_the_programs_do_elide():
    """The generator's shape reaches the mechanism: twin loads, repeated
    steps into the same outputs, and the tag survives a sibling's write."""
    program = [
        ([], [("load", 0, (0, 0)), ("load", 2, (0, 0)), ("step", 0, 5), ("step", 2, 4)]),
        ([], [("load", 2, (1, 0)), ("step", 2, 5), ("step", 0, 4), ("step", 0, 4)]),
    ]
    _, stats = run(program, "serial", "static", 128)
    # Barrier 1: a miss into row 5, its twin's hit copied into row 4.  Barrier
    # 2: rows 0 and 5 of the same grid are written (a load, a miss), then row 4
    # takes the same entry twice more and is still tagged: nothing moves.
    assert stats["tht_hits"] == 3
    assert stats["copied_bytes"] == N * 8 and stats["elided_bytes"] == 2 * N * 8
