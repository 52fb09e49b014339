"""Property-based round-trip tests for the network wire format.

Hypothesis-driven guarantees over :mod:`repro.runtime.net_wire`:

* **frame identity** — ``decode_frame(encode_frame(m))`` returns ``m`` for
  arbitrary message payloads;
* **frame integrity** — flipping *any single byte* of a frame, or
  truncating it anywhere, raises the named
  :class:`~repro.common.exceptions.WireProtocolError` (never a silent
  mis-decode, never a hang on a garbage length prefix);
* **array identity** — the ref → bytes → arena path rebuilds every ndarray
  *view* shape-, dtype- and value-identically, including 0-d arrays, empty
  arrays and non-contiguous views (strided slices, transposes, negative
  steps), while aliasing between views of one base survives and the rebuilt
  buffers never share memory with the originals;
* **descriptor identity** — ``TaskDescriptor``/engine-delta payloads
  survive encode→decode structurally intact.

The array and descriptor properties run over *each* arena built on the
shared :class:`~repro.runtime.remote_task.ArrayArena` base: the process
backend's shared-memory ``WorkerArena``, the network backend's
``ChunkArena`` and the gateway's ``TenantArena``.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.common.exceptions import WireProtocolError  # noqa: E402
from repro.runtime.data import In, InOut  # noqa: E402
from repro.runtime.net_wire import (  # noqa: E402
    ChunkArena,
    ChunkEncoder,
    NetBuffer,
    decode_frame,
    encode_frame,
    span_bytes,
)
from repro.runtime.remote_task import describe_task, rebuild_task  # noqa: E402
from repro.runtime.shm import (  # noqa: E402
    SharedBufferRegistry,
    SharedVersionTable,
    WorkerArena,
)
from repro.runtime.task import TaskType  # noqa: E402
from repro.serving.gateway import TenantArena  # noqa: E402

_DTYPES = ("<f8", "<f4", "<i4", "<i2", "|u1", "<c16")


# -- strategies -----------------------------------------------------------------------
messages = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_nan=False),
        st.text(max_size=32),
        st.binary(max_size=64),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)


@st.composite
def base_arrays(draw):
    """A freshly allocated (C-contiguous, owning) base array."""
    dtype = np.dtype(draw(st.sampled_from(_DTYPES)))
    ndim = draw(st.integers(0, 3))
    shape = tuple(draw(st.integers(0, 5)) for _ in range(ndim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(np.prod(shape, dtype=np.int64))
    data = rng.integers(0, 256, size=count * dtype.itemsize, dtype=np.uint8)
    return np.frombuffer(data.tobytes(), dtype=dtype).reshape(shape).copy()


@st.composite
def views(draw):
    """A view of a base array: slices with (possibly negative) steps and/or
    a transpose — the shapes task regions and stencil halos actually take."""
    base = draw(base_arrays())
    array = base
    if array.ndim and draw(st.booleans()):
        index = []
        for dim in array.shape:
            start = draw(st.integers(0, max(dim - 1, 0)))
            stop = draw(st.integers(start, dim))
            step = draw(st.sampled_from([1, 1, 2, -1]))
            index.append(
                slice(start, stop, step) if step > 0
                else slice(stop - 1 if stop > 0 else None, None, step)
            )
            # else-branch: a negative step anchored at the slice end.
        array = array[tuple(index)]
    if array.ndim >= 2 and draw(st.booleans()):
        array = array.T
    return base, array


# -- frame properties -----------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(messages)
def test_frame_round_trip_identity(message):
    decoded, consumed = decode_frame(encode_frame(message))
    assert decoded == message
    assert consumed == len(encode_frame(message))


@settings(max_examples=150, deadline=None)
@given(messages, st.data())
def test_any_single_byte_corruption_is_detected(message, data):
    frame = bytearray(encode_frame(message))
    index = data.draw(st.integers(0, len(frame) - 1), label="corrupt_index")
    frame[index] ^= data.draw(st.integers(1, 255), label="xor_mask")
    with pytest.raises(WireProtocolError):
        decode_frame(bytes(frame))


@settings(max_examples=100, deadline=None)
@given(messages, st.data())
def test_any_truncation_is_detected(message, data):
    frame = encode_frame(message)
    cut = data.draw(st.integers(0, len(frame) - 1), label="cut")
    with pytest.raises(WireProtocolError):
        decode_frame(frame[:cut])


def test_garbage_length_prefix_is_bounded():
    """A corrupted length field must raise, not allocate/await gigabytes."""
    frame = bytearray(encode_frame(("chunk", b"x" * 64)))
    frame[4:8] = (0x7F, 0xFF, 0xFF, 0xFF)  # 2 GiB length prefix
    with pytest.raises(WireProtocolError):
        decode_frame(bytes(frame))


# -- array properties -----------------------------------------------------------------
def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Byte-exact equality — the wire contract (``array_equal`` would call
    random-byte NaN payloads unequal to themselves)."""
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


ARENAS = ("worker", "chunk", "tenant")


@contextlib.contextmanager
def shipped(kind: str):
    """One backend's sender/receiver pair around the shared arena base.

    Yields ``(ref, arena)``: ``ref`` is the backend's array→ref function
    and ``arena()`` — called once every ref has been taken — builds the
    receiving arena from what the sender would ship.
    """
    if kind == "worker":  # process backend: shared segments, refs by name
        table = SharedVersionTable(capacity=8)
        registry = SharedBufferRegistry(table)
        arena = WorkerArena(table)
        try:
            yield registry.array_ref, lambda: arena
        finally:
            arena.close()
            registry.close()
            table.close()
        return
    encoder = ChunkEncoder()

    def receive():
        if kind == "chunk":  # network backend: the union spans a chunk touches
            buffers, _ = decode_frame(encode_frame(encoder.buffers()))
            return ChunkArena(buffers)
        whole = tuple(  # gateway: whole owning buffers, shipped once
            NetBuffer(buffer_id, 0, span_bytes(base, 0, base.nbytes))
            for buffer_id, (base, _start, _end) in encoder.spans().items()
        )
        arena = TenantArena()
        arena.store(decode_frame(encode_frame(whole))[0])
        return arena

    yield encoder.ref, receive


@contextlib.contextmanager
def round_trip_arrays(kind, arrays):
    """Ship views as refs through a frame and rebuild them in the arena
    (the rebuilt views are only valid inside the block: a shared segment is
    unmapped when its arena closes)."""
    with shipped(kind) as (ref, arena):
        refs, _ = decode_frame(encode_frame([ref(a) for a in arrays]))
        arena = arena()
        yield [arena.view(r) for r in refs]


@pytest.mark.parametrize("arena_kind", ARENAS)
@settings(max_examples=100, deadline=None)
@given(views())
def test_array_view_round_trip_identity(arena_kind, base_and_view):
    base, view = base_and_view
    with round_trip_arrays(arena_kind, [view]) as (rebuilt,):
        assert bit_equal(rebuilt, view)
        # No shared memory spans "hosts" (and a shared segment is a mirror
        # until copy_out): mutating the rebuilt copy never touches the
        # original.
        if rebuilt.size:
            before = view.copy()
            rebuilt[...] = 0
            assert bit_equal(view, before)


@pytest.mark.parametrize("arena_kind", ARENAS)
@settings(max_examples=50, deadline=None)
@given(views())
def test_sibling_views_of_one_base_alias_after_round_trip(arena_kind, base_and_view):
    """Two views of one base must rebuild over *one* shared worker buffer:
    a write through one is visible through the other (the aliasing contract
    task arguments rely on)."""
    base, view = base_and_view
    with round_trip_arrays(arena_kind, [base, view]) as (whole, rebuilt_view):
        assert bit_equal(whole, base)
        assert bit_equal(rebuilt_view, view)
        # Structural: both views resolve to the same backing uint8 ndarray.
        assert _backing_of(rebuilt_view) is _backing_of(whole)
        if whole.size:
            whole[...] = 0
            assert not rebuilt_view.size or np.count_nonzero(rebuilt_view) == 0


def _backing_of(array: np.ndarray):
    base = array
    while isinstance(base.base, np.ndarray):
        base = base.base
    return base


def square(x, y):  # module-level: pickles by reference
    y[:] = x ** 2


@pytest.mark.parametrize("arena_kind", ARENAS)
@settings(max_examples=40, deadline=None)
@given(views(), st.integers(0, 2**31 - 1), st.text(max_size=12))
def test_descriptor_round_trip_identity(arena_kind, base_and_view, task_id, name):
    base, view = base_and_view
    other = np.arange(4, dtype=np.float64)
    task_type = TaskType(name or "t", memoizable=True)
    with shipped(arena_kind) as (ref, arena):
        descriptor = describe_task(
            task_id, task_id, task_type, square,
            [InOut(view, name), In(other)],
            (view, 3.5, [name, (view,)]), {"scale": 2, "data": base}, ref,
        )
        decoded, _ = decode_frame(encode_frame(descriptor))
        assert decoded == descriptor
        assert decoded.function is square  # resolved by reference, not copied
        assert [a[1:] for a in decoded.accesses] == [
            ("inout", name), ("in", decoded.accesses[1][2])
        ]
        task = rebuild_task(decoded, arena(), {})
        assert (task.task_id, task.creation_index) == (task_id, task_id)
        assert task.label == f"{task_type.name}#{task_id}"
        assert task.task_type == task_type and task.task_type.atm_eligible
        assert [access.mode.value for access in task.accesses] == ["inout", "in"]
        assert bit_equal(task.accesses[0].region.array, view)
        assert bit_equal(task.accesses[1].region.array, other)
        assert bit_equal(task.args[0], view)
        assert task.args[1] == 3.5 and task.args[2][0] == name
        assert task.kwargs["scale"] == 2
        # Every ref to one byte layout resolves to one object: args, nested
        # args, kwargs and the access region alias like they do at home.
        assert task.args[0] is task.accesses[0].region.array
        assert task.args[2][1][0] is task.args[0]
        assert bit_equal(task.kwargs["data"], base)
        assert _backing_of(task.kwargs["data"]) is _backing_of(task.args[0])


def test_engine_delta_round_trip():
    """A real ATM engine delta (stats + THT journal with output snapshots)
    survives the frame and merges into a fresh engine."""
    from repro.atm.engine import ATMEngine
    from repro.atm.policy import StaticATMPolicy
    from repro.common.config import ATMConfig
    from repro.runtime.data import In, Out
    from repro.runtime.task import Task

    config = ATMConfig(use_ikt=False)
    engine = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=1)
    engine.enable_delta_snapshots()
    task_type = TaskType("delta-rt", memoizable=True)
    src, dst = np.arange(8, dtype=np.float64), np.zeros(8)
    for _ in range(3):  # same key: one commit + two hits
        task = Task(task_type=task_type, function=square,
                    accesses=[In(src), Out(dst)], args=(src, dst), task_id=0)
        decision = engine.task_ready(task, 0)
        executed = not decision.skips_execution
        if executed:
            task.run()
        engine.task_finished(task, decision, executed, 0)
    delta = engine.snapshot(reset=True)
    decoded, _ = decode_frame(encode_frame(delta))

    sink = ATMEngine(config=config, policy=StaticATMPolicy(config), num_threads=1)
    sink.merge(decoded)
    merged = sink.stats.snapshot()
    original = engine.stats.snapshot()
    assert merged["tht_hits"] == 2
    assert merged["tht_hits"] == original["tht_hits"] or original["tht_hits"] == 0
    # The hit now replays against the merged THT: a twin task must skip.
    twin = Task(task_type=task_type, function=square,
                accesses=[In(src), Out(np.zeros(8))], args=(src, dst), task_id=1)
    assert sink.task_ready(twin, 0).skips_execution
