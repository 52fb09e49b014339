"""The process backend's data plane: first-touch copy-in, per-result copy-out.

``SharedBufferRegistry`` moves bytes at two moments (``runtime/shm.py``): a
base buffer's write-version is checked the first time a chunk of the open
drain touches it (its segment is refreshed when the version moved since
the segment last matched), and a task's written *regions* come home when
its result arrives.  What has to hold:

* a **hypothesis property** — random programs over sibling views of shared
  2-D bases (rows, strided columns, non-contiguous blocks, the whole base),
  one or two workers, chunk sizes 1-8, several barriers with random host
  stores in between, each announced (DESIGN.md §4.5), into buffers the next
  drain reads, overwrites, writes in part, or never touches: after every
  barrier every base is bit-identical to a serial Session running the same
  program on copies;
* **counting tests** with a spy on the registry's version reads and the
  ``copyin_refreshed`` counter — only touched buffers are read, each once
  at its first touch and once when the drain settles, nothing is refreshed
  whose version did not move, each written region lands once, a
  resubmitted chunk re-checks nothing, and a base a failed body wrote is
  refreshed by the next drain.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.runtime import shm  # noqa: E402
from repro.runtime.data import DataRegion, In, InOut, Out, region_versions  # noqa: E402
from repro.runtime.task import TaskType  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.testing.faults import fault_session, flaky_body  # noqa: E402

SHAPE = (4, 6)
BASES = 4
OP = TaskType("shm_property_op", memoizable=False)


# -- task bodies (module-level: pickled by reference); integer-valued floats,
# so every result is exact whatever order a reduction runs in ----------------------
def combine(src: np.ndarray, dst: np.ndarray, k: int) -> None:
    dst[:] = (src.sum() + k) % 251


def mix(src: np.ndarray, dst: np.ndarray, k: int) -> None:
    dst[:] = (dst + src.sum() + k) % 251


def scale(dst: np.ndarray, k: int) -> None:
    dst[:] = (dst * 3 + k) % 251


def relax(src: np.ndarray, coef: np.ndarray, dst: np.ndarray) -> None:
    dst[:] = (src * coef + coef.sum()) % 251


def view(bases: list, spec: tuple) -> np.ndarray:
    base_index, kind, i = spec
    base = bases[base_index]
    if kind == "row":
        return base[i % SHAPE[0]]
    if kind == "col":
        return base[:, i % SHAPE[1]]           # strided 1-D
    if kind == "cols":
        return base[:, i % 2::2]               # strided 2-D
    if kind == "block":
        return base[i % 3:i % 3 + 2, 1:4]      # non-contiguous 2-D
    return base


def submit(runtime, bases: list, task: tuple) -> None:
    kind, src_spec, dst_spec, k = task
    dst = view(bases, dst_spec)
    if kind == "scale":
        runtime.submit(OP, scale, accesses=[InOut(dst)], args=(dst, k))
        return
    src = view(bases, src_spec)
    body, mode = (combine, Out) if kind == "combine" else (mix, InOut)
    runtime.submit(OP, body, accesses=[In(src), mode(dst)], args=(src, dst, k))


view_specs = st.tuples(
    st.integers(0, BASES - 1),
    st.sampled_from(["row", "col", "cols", "block", "all"]),
    st.integers(0, 5),
)


@st.composite
def tasks(draw) -> tuple:
    dst = draw(view_specs)
    # The source lives in another base: one task never declares one region twice.
    src = draw(view_specs.filter(lambda spec: spec[0] != dst[0]))
    return draw(st.sampled_from(["combine", "mix", "scale"])), src, dst, draw(st.integers(0, 9))


host_stores = st.lists(st.tuples(view_specs, st.integers(0, 250)), max_size=4)
programs = st.lists(
    st.tuples(host_stores, st.lists(tasks(), min_size=1, max_size=12)),
    min_size=2, max_size=4,
)
POOLS = [(1, 1), (1, 3), (1, 8), (2, 1), (2, 2), (2, 8)]  # (workers, mp_chunk_size)


def process_session(workers: int = 1, chunk_size: int = 4) -> Session:
    return Session({"runtime": {
        "executor": "process", "num_threads": workers, "mp_chunk_size": chunk_size,
    }})


@pytest.fixture
def pools():
    """Process Sessions by ``(workers, chunk_size)``, opened on first use and
    shared by the examples of one test: a pool outlives many programs, as in
    an application, and its registry keeps every earlier example's buffers
    registered and untouched."""
    sessions: dict = {}

    def pool(key: tuple) -> Session:
        if key not in sessions:
            sessions[key] = process_session(*key)
        return sessions[key]

    yield pool
    for session in sessions.values():
        session.close()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 16), key=st.sampled_from(POOLS), program=programs)
def test_every_barrier_is_bit_identical_to_a_serial_session(pools, seed, key, program):
    rng = np.random.default_rng(seed)
    bases = [rng.integers(0, 250, SHAPE).astype(np.float64) for _ in range(BASES)]
    copies = [base.copy() for base in bases]
    process = pools(key)
    with Session() as serial:
        for stores, barrier_tasks in program:
            for spec, value in stores:
                for arrays in (bases, copies):
                    target = view(arrays, spec)
                    target[...] = value
                    DataRegion(target).bump_version()
            for task in barrier_tasks:
                submit(process, bases, task)
                submit(serial, copies, task)
            process.wait_all()
            serial.wait_all()
            for base, copy in zip(bases, copies):
                assert np.array_equal(base, copy)


# -- counting tests ------------------------------------------------------------------
@pytest.fixture
def version_reads(monkeypatch) -> list:
    """Ids of the bases whose write-version the registry read, in order."""
    seen: list = []

    class Spy:
        @staticmethod
        def version_of(base):
            seen.append(id(base))
            return region_versions.version_of(base)

    monkeypatch.setattr(shm, "region_versions", Spy())
    return seen


def test_buffers_a_drain_never_touches_are_never_read(version_reads):
    buffers = [np.full(8, float(i)) for i in range(100)]
    with process_session() as session:
        for buffer in buffers:  # registers all hundred (seeded, not checked)
            session.submit(OP, scale, accesses=[InOut(buffer)], args=(buffer, 1))
        session.wait_all()
        for drain in range(3):
            version_reads.clear()
            src, dst = buffers[2 * drain], buffers[2 * drain + 1]
            buffers[50 + drain][:] = -1.0      # a host store nobody reads
            DataRegion(buffers[50 + drain]).bump_version()
            session.submit(OP, combine, accesses=[In(src), Out(dst)], args=(src, dst, 0))
            session.wait_all()
            # First touch, then the settle at the drain's end.
            assert sorted(version_reads) == sorted([id(src), id(dst)] * 2)
        stats = session.executor._stats
    assert stats["copyin_refreshed"] == 0
    assert stats["copyout_buffers"] == 100 + 3


def test_a_relax_drain_checks_each_base_once_and_lands_each_region_once(version_reads):
    """Ping-pong sweeps over row regions of two grids and whole coefficient
    blocks: many regions and many chunks per base, one version check per
    base and drain (plus one at its settle), one landing per written
    region, nothing refreshed."""
    rows, sweeps = 8, 3
    grids = [np.arange(rows * 4.0).reshape(rows, 4), np.zeros((rows, 4))]
    coefs = [np.full(4, 2.0), np.full(4, 3.0)]
    expected = [grid.copy() for grid in grids]
    # ``grids[0]`` is a reshaped view: its owning base is the ``arange``.
    bases = [id(array if array.base is None else array.base) for array in grids + coefs]
    with process_session(workers=2, chunk_size=3) as session, Session() as serial:
        for sweep in range(sweeps):
            for runtime, (src, dst) in ((session, grids), (serial, expected)):
                if sweep % 2:
                    src, dst = dst, src
                for row in range(rows):
                    coef = coefs[row % 2]
                    runtime.submit(
                        OP, relax, accesses=[In(src[row]), In(coef), Out(dst[row])],
                        args=(src[row], coef, dst[row]),
                    )
                runtime.wait_all()
            # Sweep 0 reads each base when registering (and seeding) it,
            # later sweeps at its first touch; every sweep at its settle.
            assert sorted(version_reads) == sorted(bases * 2 * (sweep + 1))
        stats = session.executor._stats
    assert stats["copyout_buffers"] == rows * sweeps
    assert stats["copyin_refreshed"] == 0
    for grid, reference in zip(grids, expected):
        assert np.array_equal(grid, reference)


def test_a_resubmitted_chunk_rechecks_nothing(version_reads, tmp_path):
    src, dst = np.arange(8.0), np.zeros(8)
    flaky = TaskType("shm_flaky", memoizable=False)
    with fault_session("process", workers=1, chunk_size=1, task_max_retries=2) as session:
        session.submit(OP, scale, accesses=[InOut(src)], args=(src, 0))
        session.submit(OP, scale, accesses=[InOut(dst)], args=(dst, 0))
        session.wait_all()                      # both registered
        version_reads.clear()
        marker = str(tmp_path / "attempts")
        session.submit(flaky, flaky_body, accesses=[In(src), Out(dst)],
                       args=(marker, 2, src, dst))
        session.wait_all()
        stats = session.executor._stats
        assert stats["resubmitted_tasks"] == 2  # raised twice, healed
        # src and dst at the first send only; the settle reads src alone:
        # the failed body may have written dst's segment.
        assert sorted(version_reads) == sorted([id(src), id(src), id(dst)])
        assert stats["copyin_refreshed"] == 0
        assert np.array_equal(dst, src ** 2)
        session.submit(OP, scale, accesses=[InOut(dst)], args=(dst, 0))
        session.wait_all()
        assert stats["copyin_refreshed"] == 1  # dst was out of step
    assert np.array_equal(dst, src ** 2 * 3 % 251)
