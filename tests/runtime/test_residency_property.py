"""Residency protocol tests: unit rules + hypothesis interleavings.

The per-endpoint residency protocol (``repro.runtime.residency``, wired
into the network backend in PR 7) has one correctness invariant: whenever
a parent-side :class:`ResidencyEntry`'s version equals the base buffer's
current write-version, the worker's cached backing holds bit-identical
bytes over the entry's span.  Everything else — eviction, invalidation,
staleness after unknown writers — is allowed to *lose* residency (a loss
only costs a re-ship), never to serve wrong bytes.

Three layers of coverage:

* **unit tests** of every :meth:`ResidencyTable.note_write` rule, the
  lookup/record/evict bookkeeping, :class:`WorkerBufferCache`'s
  generation-guarded invalidation and :class:`ChunkArena`'s cached-form
  resolution (including the loud :class:`WireProtocolError` paths);
* **placement unit tests** of :meth:`NetworkExecutor._place` and the
  fixed-pool round-robin cursor (the failover skew fix);
* a **hypothesis property** that drives the full parent+worker model —
  random interleavings of dispatches, task writes, unknown parent writes,
  budget evictions and endpoint failures — and asserts after every single
  dispatch that the bytes a worker would serve a task are bit-identical
  to the parent buffer, and after the whole run that every current table
  entry still describes a coherent worker backing.
"""

from __future__ import annotations


import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.common.exceptions import WireProtocolError  # noqa: E402
from repro.runtime.net_executor import NetworkExecutor  # noqa: E402
from repro.runtime.net_transport import NetWorkerState  # noqa: E402
from repro.runtime.net_wire import (  # noqa: E402
    PROTOCOL_VERSION,
    ChunkArena,
    NetBuffer,
    NetChunk,
    span_view,
)
from repro.runtime.residency import (  # noqa: E402
    ResidencyTable,
    WorkerBufferCache,
)


class Ep:
    """Stand-in endpoint: identity-keyed like a real SocketEndpoint."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.failed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


# ---------------------------------------------------------------------------
# ResidencyTable: dispatch-side bookkeeping
# ---------------------------------------------------------------------------


def test_lookup_on_empty_table_misses():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    assert table.lookup(ep, 1, 0, 8, version=0) is None
    assert table.stats["misses"] == 1
    assert table.stats["hits"] == 0


def test_record_then_lookup_hits_and_counts_saved_bytes():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    gen = table.record(ep, 1, 0, 64, version=3)
    entry = table.lookup(ep, 1, 0, 64, version=3)
    assert entry is not None and entry.generation == gen
    assert table.stats["hits"] == 1
    assert table.stats["bytes_saved"] == 64
    assert table.stats["bytes_shipped"] == 64
    assert table.bytes_held(ep) == 64


def test_lookup_misses_on_version_change():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    table.record(ep, 1, 0, 64, version=3)
    assert table.lookup(ep, 1, 0, 64, version=4) is None


def test_lookup_hit_requires_span_coverage():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    table.record(ep, 1, 8, 32, version=0)
    # Sub-span of the resident entry: hit.
    assert table.lookup(ep, 1, 12, 20, version=0) is not None
    # Pokes outside on either side: miss (re-ship the wider span).
    assert table.lookup(ep, 1, 0, 16, version=0) is None
    assert table.lookup(ep, 1, 16, 40, version=0) is None


def test_record_replaces_and_reaccounts_bytes():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    g1 = table.record(ep, 1, 0, 64, version=0)
    g2 = table.record(ep, 1, 0, 16, version=1)
    assert g2 > g1
    assert table.bytes_held(ep) == 16
    assert table.entry(ep, 1).generation == g2


def test_generations_are_unique_across_endpoints_and_buffers():
    table = ResidencyTable(budget_bytes=1 << 20)
    a, b = Ep("A"), Ep("B")
    gens = {
        table.record(a, 1, 0, 8, 0),
        table.record(a, 2, 0, 8, 0),
        table.record(b, 1, 0, 8, 0),
        table.record(b, 2, 0, 8, 0),
    }
    assert len(gens) == 4


def test_next_tick_is_monotonic():
    table = ResidencyTable(budget_bytes=1 << 20)
    ticks = [table.next_tick() for _ in range(5)]
    assert ticks == sorted(ticks) and len(set(ticks)) == 5


# ---------------------------------------------------------------------------
# ResidencyTable: eviction
# ---------------------------------------------------------------------------


def test_evict_under_budget_is_a_noop():
    table = ResidencyTable(budget_bytes=128)
    ep = Ep("A")
    table.record(ep, 1, 0, 64, version=0)
    assert table.evict_over_budget(ep, protect_tick=table.next_tick()) == []
    assert table.stats["evictions"] == 0


def test_evict_drops_lru_first():
    table = ResidencyTable(budget_bytes=96)
    ep = Ep("A")
    g1 = table.record(ep, 1, 0, 64, version=0)  # oldest tick
    table.record(ep, 2, 0, 64, version=0)
    protect = table.next_tick()
    evicted = table.evict_over_budget(ep, protect_tick=protect)
    assert evicted == [(1, g1)]
    assert table.entry(ep, 1) is None
    assert table.entry(ep, 2) is not None
    assert table.bytes_held(ep) == 64
    assert table.stats["evictions"] == 1
    assert table.stats["invalidations"] == 1


def test_lookup_refreshes_lru_rank():
    table = ResidencyTable(budget_bytes=96)
    ep = Ep("A")
    table.record(ep, 1, 0, 64, version=0)
    g2 = table.record(ep, 2, 0, 64, version=0)
    table.lookup(ep, 1, 0, 64, version=0)  # touch 1: now 2 is LRU
    evicted = table.evict_over_budget(ep, protect_tick=table.next_tick())
    assert evicted == [(2, g2)]


def test_evict_never_touches_the_chunk_being_encoded():
    table = ResidencyTable(budget_bytes=32)
    ep = Ep("A")
    table.record(ep, 1, 0, 64, version=0)
    protect = table.next_tick()
    # Entries recorded at/after protect_tick belong to the in-flight chunk:
    # a chunk larger than the whole budget must still dispatch.
    table.record(ep, 2, 0, 64, version=0)
    evicted = table.evict_over_budget(ep, protect_tick=protect)
    assert [buffer_id for buffer_id, _ in evicted] == [1]
    assert table.entry(ep, 2) is not None  # protected despite blowing budget
    assert table.bytes_held(ep) == 64


# ---------------------------------------------------------------------------
# ResidencyTable: note_write rules (the load-bearing part)
# ---------------------------------------------------------------------------


def test_write_upgrades_writer_entry_at_dispatch_generation():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    gen = table.record(ep, 1, 0, 64, version=0)
    dropped = table.note_write(ep, gen, 1, (0, 32), prev_version=0, new_version=1)
    assert dropped == []
    assert table.entry(ep, 1).version == 1
    assert table.stats["write_upgrades"] == 1


def test_write_skips_upgrade_when_writer_backing_was_reshipped():
    """A generation mismatch means the writer's current backing was shipped
    *after* the writing chunk dispatched — it does not contain the write's
    bytes, so upgrading it would serve stale data.  Overlap drops it."""
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    stale_gen = table.record(ep, 1, 0, 64, version=0)
    table.record(ep, 1, 0, 64, version=0)  # re-ship: new generation
    dropped = table.note_write(
        ep, stale_gen, 1, (0, 32), prev_version=0, new_version=1
    )
    assert [(d[0], d[1]) for d in dropped] == [(ep, 1)]
    assert table.entry(ep, 1) is None
    assert table.stats["write_upgrades"] == 0


def test_write_drops_overlapping_entries_on_other_endpoints():
    table = ResidencyTable(budget_bytes=1 << 20)
    a, b = Ep("A"), Ep("B")
    ga = table.record(a, 1, 0, 64, version=0)
    gb = table.record(b, 1, 0, 64, version=0)
    dropped = table.note_write(a, ga, 1, (16, 48), prev_version=0, new_version=1)
    assert dropped == [(b, 1, gb)]
    assert table.entry(a, 1).version == 1
    assert table.entry(b, 1) is None
    assert table.bytes_held(b) == 0


def test_write_upgrades_disjoint_entries_on_other_endpoints():
    table = ResidencyTable(budget_bytes=1 << 20)
    a, b = Ep("A"), Ep("B")
    ga = table.record(a, 1, 0, 64, version=0)
    table.record(b, 1, 0, 16, version=0)  # disjoint from the write below
    dropped = table.note_write(a, ga, 1, (32, 64), prev_version=0, new_version=1)
    assert dropped == []
    assert table.entry(b, 1).version == 1  # bytes untouched -> still current


def test_write_leaves_stale_disjoint_entries_alone():
    table = ResidencyTable(budget_bytes=1 << 20)
    a, b = Ep("A"), Ep("B")
    table.record(b, 1, 0, 16, version=5)  # already stale vs prev=7
    ga = table.record(a, 1, 32, 64, version=7)
    dropped = table.note_write(a, ga, 1, (32, 64), prev_version=7, new_version=8)
    assert dropped == []
    entry = table.entry(b, 1)
    assert entry is not None and entry.version == 5  # NOT upgraded to 8


def test_write_drops_stale_overlapping_entries():
    table = ResidencyTable(budget_bytes=1 << 20)
    a, b = Ep("A"), Ep("B")
    gb = table.record(b, 1, 0, 64, version=5)  # stale vs prev=7
    ga = table.record(a, 1, 0, 64, version=7)
    dropped = table.note_write(a, ga, 1, (0, 32), prev_version=7, new_version=8)
    assert dropped == [(b, 1, gb)]


def test_write_with_unknown_dispatch_generation_is_conservative():
    """``dispatch_generation=None`` (duplicate result, unknown origin)
    must never upgrade the writer's entry — overlap drops it instead."""
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    gen = table.record(ep, 1, 0, 64, version=0)
    dropped = table.note_write(ep, None, 1, (0, 32), prev_version=0, new_version=1)
    assert dropped == [(ep, 1, gen)]
    assert table.entry(ep, 1) is None


def test_write_to_unrelated_buffer_touches_nothing():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    table.record(ep, 1, 0, 64, version=0)
    dropped = table.note_write(ep, None, 2, (0, 64), prev_version=0, new_version=1)
    assert dropped == []
    assert table.entry(ep, 1).version == 0


# ---------------------------------------------------------------------------
# ResidencyTable: failure + placement scoring
# ---------------------------------------------------------------------------


def test_drop_endpoint_forgets_everything():
    table = ResidencyTable(budget_bytes=1 << 20)
    a, b = Ep("A"), Ep("B")
    table.record(a, 1, 0, 64, version=0)
    table.record(b, 1, 0, 64, version=0)
    table.drop_endpoint(a)
    assert table.entry(a, 1) is None
    assert table.bytes_held(a) == 0
    assert table.entry(b, 1) is not None  # other endpoints untouched
    table.drop_endpoint(a)  # idempotent


def test_score_counts_overlap_of_current_entries_only():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    table.record(ep, 1, 0, 64, version=3)
    table.record(ep, 2, 0, 64, version=1)
    wanted = [
        (1, 32, 96, 3),  # half-overlaps the resident [0, 64) span -> 32
        (2, 0, 64, 2),  # version mismatch -> 0
        (3, 0, 64, 0),  # not resident -> 0
    ]
    assert table.score(ep, wanted) == 32
    assert table.score(Ep("cold"), wanted) == 0


def test_score_is_a_pure_read():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    table.record(ep, 1, 0, 64, version=0)
    before = dict(table.stats)
    tick = table.entry(ep, 1).tick
    table.score(ep, [(1, 0, 64, 0)])
    assert table.stats == before
    assert table.entry(ep, 1).tick == tick


def test_write_rules_compose_across_three_endpoints():
    """One commit, three endpoints: writer upgrades, the overlapping
    reader drops, the disjoint reader upgrades — all in one note_write."""
    table = ResidencyTable(budget_bytes=1 << 20)
    a, b, c = Ep("A"), Ep("B"), Ep("C")
    ga = table.record(a, 1, 0, 64, version=0)
    gb = table.record(b, 1, 16, 48, version=0)
    table.record(c, 1, 48, 64, version=0)
    dropped = table.note_write(a, ga, 1, (0, 32), prev_version=0, new_version=1)
    assert dropped == [(b, 1, gb)]
    assert table.entry(a, 1).version == 1
    assert table.entry(b, 1) is None
    assert table.entry(c, 1).version == 1


def test_evict_keeps_dropping_until_under_budget():
    table = ResidencyTable(budget_bytes=70)
    ep = Ep("A")
    g1 = table.record(ep, 1, 0, 64, version=0)
    g2 = table.record(ep, 2, 0, 64, version=0)
    table.record(ep, 3, 0, 64, version=0)
    evicted = table.evict_over_budget(ep, protect_tick=table.next_tick())
    assert evicted == [(1, g1), (2, g2)]  # two LRU victims, oldest first
    assert table.bytes_held(ep) == 64


def test_score_sums_across_buffers():
    table = ResidencyTable(budget_bytes=1 << 20)
    ep = Ep("A")
    table.record(ep, 1, 0, 32, version=0)
    table.record(ep, 2, 0, 16, version=4)
    wanted = [(1, 0, 32, 0), (2, 0, 32, 4)]
    assert table.score(ep, wanted) == 32 + 16


# ---------------------------------------------------------------------------
# WorkerBufferCache
# ---------------------------------------------------------------------------


def test_worker_cache_put_get_and_sizes():
    cache = WorkerBufferCache()
    assert len(cache) == 0 and cache.nbytes == 0
    backing = np.zeros(32, dtype=np.uint8)
    cache.put(1, backing, start=0, generation=7)
    got = cache.get(1)
    assert got is not None and got.backing is backing and got.generation == 7
    assert len(cache) == 1 and cache.nbytes == 32
    assert cache.get(2) is None


def test_worker_cache_replace_reaccounts_nbytes():
    cache = WorkerBufferCache()
    cache.put(1, np.zeros(32, dtype=np.uint8), start=0, generation=1)
    cache.put(1, np.zeros(8, dtype=np.uint8), start=4, generation=2)
    assert len(cache) == 1 and cache.nbytes == 8
    assert cache.get(1).generation == 2


def test_worker_cache_invalidate_is_generation_guarded():
    cache = WorkerBufferCache()
    cache.put(1, np.zeros(8, dtype=np.uint8), start=0, generation=7)
    cache.invalidate([(1, 6)])  # aimed at a predecessor: no-op
    assert cache.get(1) is not None
    cache.invalidate([(1, 7), (2, 9)])  # right gen drops; unknown id ignored
    assert cache.get(1) is None
    cache.invalidate([(1, 7)])  # idempotent


# ---------------------------------------------------------------------------
# ChunkArena cached-form integration
# ---------------------------------------------------------------------------


def _full_ship(buffer_id: int, payload: bytes, gen: int, start: int = 0):
    # A received segment is a writable buffer the arena adopts as is.
    return NetBuffer(buffer_id, start, bytearray(payload), gen)


def test_arena_full_ship_populates_cache_then_cached_dispatch_serves_it():
    cache = WorkerBufferCache()
    ChunkArena((_full_ship(1, bytes(range(16)), gen=3),), cache=cache)
    arena = ChunkArena((NetBuffer(1, 0, None, 3),), cache=cache)
    backing, start = arena._bases[1]
    assert start == 0
    assert bytes(backing) == bytes(range(16))


def test_arena_cached_dispatch_without_entry_is_a_protocol_error():
    with pytest.raises(WireProtocolError):
        ChunkArena((NetBuffer(1, 0, None, 3),), cache=WorkerBufferCache())


def test_arena_cached_dispatch_with_wrong_generation_is_a_protocol_error():
    cache = WorkerBufferCache()
    ChunkArena((_full_ship(1, bytes(16), gen=3),), cache=cache)
    with pytest.raises(WireProtocolError):
        ChunkArena((NetBuffer(1, 0, None, 2),), cache=cache)


def test_a_fresh_network_worker_refuses_a_cached_dispatch():
    """Every network worker keeps a cache, and a fresh one holds nothing:
    a cached row in its first chunk fails loudly instead of reading bytes
    the worker was never shipped."""
    state = NetWorkerState()
    state.hello({"protocol": PROTOCOL_VERSION})
    with pytest.raises(WireProtocolError, match="holds nothing"):
        state.run_chunk(NetChunk(1, (NetBuffer(1, 0, None, 3),), ()))


def test_arena_writes_land_in_the_cached_backing():
    cache = WorkerBufferCache()
    arena = ChunkArena((_full_ship(1, bytes(16), gen=3),), cache=cache)
    backing, _ = arena._bases[1]
    backing[4:8] = 0xAB
    assert bytes(cache.get(1).backing[4:8]) == b"\xab" * 4


def test_arena_reship_replaces_the_cached_backing():
    cache = WorkerBufferCache()
    ChunkArena((_full_ship(1, b"\x01" * 16, gen=3),), cache=cache)
    ChunkArena((_full_ship(1, b"\x02" * 16, gen=4),), cache=cache)
    entry = cache.get(1)
    assert entry.generation == 4
    assert bytes(entry.backing) == b"\x02" * 16


def test_span_view_aliases_the_requested_window():
    base = np.arange(32, dtype=np.uint8)
    window = span_view(base, 4, 12)
    assert bytes(window) == bytes(range(4, 12))
    assert np.shares_memory(np.frombuffer(window, dtype=np.uint8), base)
    assert bytes(span_view(np.empty(0, dtype=np.uint8), 0, 0)) == b""


# ---------------------------------------------------------------------------
# Placement: _next_cold_endpoint + _place on a harness
# ---------------------------------------------------------------------------


class _Harness:
    """NetworkExecutor's placement methods over hand-built state."""

    _place = NetworkExecutor._place
    _wanted_spans = NetworkExecutor._wanted_spans
    _next_cold_endpoint = NetworkExecutor._next_cold_endpoint

    def __init__(self, n: int, residency: ResidencyTable | None = None):
        self._endpoints = [Ep(f"w{i}") for i in range(n)]
        self._rr_cursor = 0
        self._residency = residency or ResidencyTable(budget_bytes=1 << 20)
        self.engine = None

    @property
    def live(self):
        return [ep for ep in self._endpoints if not ep.failed]


def test_cold_round_robin_cycles_the_fixed_pool():
    h = _Harness(3)
    order = [h._next_cold_endpoint(h.live).name for _ in range(6)]
    assert order == ["w0", "w1", "w2", "w0", "w1", "w2"]


def test_cold_round_robin_skips_failed_without_rebiasing():
    """The failover skew fix: killing an endpoint mid-sequence must not
    re-bias the survivors' rotation toward low indices (the old
    ``live[cursor % len(live)]`` did exactly that)."""
    h = _Harness(3)
    assert [h._next_cold_endpoint(h.live).name for _ in range(2)] == ["w0", "w1"]
    h._endpoints[1].failed = True
    # w2's turn is next in the fixed pool; a live-indexed cursor would have
    # jumped back to w0 here.
    after = [h._next_cold_endpoint(h.live).name for _ in range(4)]
    assert after == ["w2", "w0", "w2", "w0"]


def test_place_single_live_endpoint_short_circuits():
    h = _Harness(3)
    h._endpoints[0].failed = True
    h._endpoints[2].failed = True
    assert h._place([], h.live).name == "w1"
    assert h._rr_cursor == 0  # no cursor burn on the shortcut


def test_place_prefers_the_residency_warm_endpoint():
    table = ResidencyTable(budget_bytes=1 << 20)
    h = _Harness(3, residency=table)
    table.record(h._endpoints[2], 1, 0, 64, version=0)
    h._wanted_spans = lambda tasks: [(1, 0, 64, 0)]
    assert h._place([object()], h.live).name == "w2"


def test_place_residency_tie_breaks_in_pool_order():
    """Equal non-zero scores: the first live endpoint wins, deterministically."""
    table = ResidencyTable(budget_bytes=1 << 20)
    h = _Harness(3, residency=table)
    table.record(h._endpoints[1], 1, 0, 64, version=0)
    table.record(h._endpoints[2], 1, 0, 64, version=0)
    h._wanted_spans = lambda tasks: [(1, 0, 64, 0)]
    for _ in range(3):
        assert h._place([object()], h.live).name == "w1"


def test_place_zero_score_falls_back_to_round_robin():
    table = ResidencyTable(budget_bytes=1 << 20)
    h = _Harness(3, residency=table)
    h._wanted_spans = lambda tasks: [(1, 0, 64, 0)]  # nothing resident
    assert h._place([object()], h.live).name == "w0"
    assert h._place([object()], h.live).name == "w1"


# ---------------------------------------------------------------------------
# Hypothesis: random interleavings keep worker views bit-identical
# ---------------------------------------------------------------------------

BUF_SIZE = 64
N_BUFFERS = 2
N_ENDPOINTS = 2

_span = (
    st.tuples(st.integers(0, BUF_SIZE), st.integers(0, BUF_SIZE))
    .filter(lambda t: t[0] != t[1])
    .map(lambda t: (min(t), max(t)))
)
_buf = st.integers(0, N_BUFFERS - 1)
_ep = st.integers(0, N_ENDPOINTS - 1)
_value = st.integers(0, 255)

_dispatch = st.tuples(
    st.just("dispatch"),
    _ep,
    st.lists(st.tuples(_buf, _span), min_size=1, max_size=2),
    st.one_of(st.none(), st.tuples(_span, _value)),
)
_parent_write = st.tuples(st.just("parent_write"), _buf, _span, _value)
_fail = st.tuples(st.just("fail"), _ep)

_ops = st.lists(
    st.one_of(_dispatch, _dispatch, _dispatch, _parent_write, _fail),
    min_size=1,
    max_size=40,
)


class _Model:
    """Serial parent+workers model of the full residency dispatch cycle.

    Mirrors the executor's exact sequencing per chunk: tick, lookup/record
    per buffer, budget eviction, frame to the worker (ChunkArena build),
    eviction invalidates (FIFO: after the chunk), task execution, then the
    write-commit (parent copy-back, version bump, note_write, invalidate
    fan-out).  Every dispatch asserts the served bytes match the parent.
    """

    def __init__(self, budget: int) -> None:
        self.table = ResidencyTable(budget_bytes=budget)
        self.endpoints = [Ep(f"w{i}") for i in range(N_ENDPOINTS)]
        self.caches = {ep: WorkerBufferCache() for ep in self.endpoints}
        self.parent = [
            np.arange(i, i + BUF_SIZE, dtype=np.uint8) for i in range(N_BUFFERS)
        ]
        self.versions = [0] * N_BUFFERS
        self._next_version = 100

    def bump_version(self, buffer_id: int) -> tuple[int, int]:
        prev = self.versions[buffer_id]
        self._next_version += 1
        self.versions[buffer_id] = self._next_version
        return prev, self._next_version

    def dispatch(self, ep_index, spans, write) -> None:
        ep = self.endpoints[ep_index]
        cache = self.caches[ep]
        # Coalesce duplicate buffers the way ChunkEncoder merges spans.
        merged: dict[int, tuple[int, int]] = {}
        for buffer_id, (start, end) in spans:
            if buffer_id in merged:
                old = merged[buffer_id]
                merged[buffer_id] = (min(old[0], start), max(old[1], end))
            else:
                merged[buffer_id] = (start, end)
        tick0 = self.table.next_tick()
        netbufs, dispatch_gens = [], {}
        for buffer_id, (start, end) in merged.items():
            version = self.versions[buffer_id]
            entry = self.table.lookup(ep, buffer_id, start, end, version)
            if entry is not None:
                netbufs.append(NetBuffer(buffer_id, entry.start, None, entry.generation))
                dispatch_gens[buffer_id] = entry.generation
            else:
                gen = self.table.record(ep, buffer_id, start, end, version)
                # bytearray(): what the frame reader hands the arena, not the view.
                payload = bytearray(span_view(self.parent[buffer_id], start, end))
                netbufs.append(NetBuffer(buffer_id, start, payload, gen))
                dispatch_gens[buffer_id] = gen
        evicted = self.table.evict_over_budget(ep, protect_tick=tick0)
        arena = ChunkArena(tuple(netbufs), cache=cache)  # the chunk frame
        cache.invalidate(evicted)  # FIFO: invalidate rides behind the chunk
        # THE PROPERTY: the bytes the worker serves every task are the
        # parent's bytes, whatever interleaving led here.
        for buffer_id, (start, end) in merged.items():
            backing, base_start = arena._bases[buffer_id]
            served = bytes(backing[start - base_start : end - base_start])
            assert served == self.parent[buffer_id][start:end].tobytes(), (
                f"worker {ep.name} served stale bytes of buffer {buffer_id} "
                f"[{start}:{end})"
            )
        if write is not None:
            (raw_start, raw_end), value = write
            # Clamp the write inside the chunk's span of its first buffer —
            # workers only ever write within regions they were shipped.
            buffer_id, (start, end) = next(iter(merged.items()))
            w_start = min(max(raw_start, start), end)
            w_end = min(max(raw_end, start), end)
            if w_end <= w_start:
                return
            backing, base_start = arena._bases[buffer_id]
            backing[w_start - base_start : w_end - base_start] = value
            # Result message: parent applies the write and commits it.
            self.parent[buffer_id][w_start:w_end] = value
            prev, new = self.bump_version(buffer_id)
            dropped = self.table.note_write(
                ep, dispatch_gens.get(buffer_id), buffer_id,
                (w_start, w_end), prev, new,
            )
            by_endpoint: dict[Ep, list[tuple[int, int]]] = {}
            for dep, dbuf, dgen in dropped:
                by_endpoint.setdefault(dep, []).append((dbuf, dgen))
            for dep, pairs in by_endpoint.items():
                self.caches[dep].invalidate(pairs)

    def parent_write(self, buffer_id, span, value) -> None:
        """An unknown writer (copy_from, another backend): no note_write —
        entries silently go stale and must re-ship on next touch."""
        start, end = span
        self.parent[buffer_id][start:end] = value
        self.bump_version(buffer_id)

    def fail(self, ep_index) -> None:
        ep = self.endpoints[ep_index]
        self.table.drop_endpoint(ep)
        self.caches[ep] = WorkerBufferCache()  # the worker died with its cache

    def audit(self) -> None:
        """Parent-authoritative coherence: every entry the table still
        calls *current* describes a worker backing that is bit-identical
        to the parent over the entry's span, at the entry's generation."""
        for ep in self.endpoints:
            held = 0
            for buffer_id in range(N_BUFFERS):
                entry = self.table.entry(ep, buffer_id)
                if entry is None:
                    continue
                held += entry.nbytes
                if entry.version != self.versions[buffer_id]:
                    continue  # stale: allowed, will re-ship on next touch
                cached = self.caches[ep].get(buffer_id)
                assert cached is not None, (
                    f"{ep.name} table entry for buffer {buffer_id} has no "
                    f"worker backing"
                )
                assert cached.generation == entry.generation
                lo = entry.start - cached.start
                view = bytes(cached.backing[lo : lo + entry.nbytes])
                assert view == self.parent[buffer_id][entry.start:entry.end].tobytes()
            assert held == self.table.bytes_held(ep)  # accounting invariant


@settings(max_examples=200, deadline=None)
@given(ops=_ops, budget=st.sampled_from([24, 48, 1 << 20]))
def test_random_interleavings_never_serve_stale_bytes(ops, budget):
    model = _Model(budget)
    for op in ops:
        if op[0] == "dispatch":
            model.dispatch(op[1], op[2], op[3])
        elif op[0] == "parent_write":
            model.parent_write(op[1], op[2], op[3])
        else:
            model.fail(op[1])
        model.audit()


@settings(max_examples=100, deadline=None)
@given(ops=_ops)
def test_tiny_budget_still_serves_correct_bytes(ops):
    """Budget 1: every chunk evicts everything older — residency degrades
    to ship-always but must never corrupt."""
    model = _Model(budget=1)
    for op in ops:
        if op[0] == "dispatch":
            model.dispatch(op[1], op[2], op[3])
        elif op[0] == "parent_write":
            model.parent_write(op[1], op[2], op[3])
        else:
            model.fail(op[1])
    model.audit()
