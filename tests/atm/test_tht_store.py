"""Persistent THT store tests (DESIGN.md §9).

Covers the ``file://`` snapshot format (round-trip bit-identity, append +
compact, corruption -> named error + cold start), the ``tcp://`` cache-shard
protocol (handshake, fetch/publish/stats, unavailability), and the Session
warm-start semantics on the six benchmark applications.
"""

from __future__ import annotations

import importlib.util
import io
import json
import pickle
import struct
import sys
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.apps import make_benchmark
from repro.apps.registry import BENCHMARK_NAMES
from repro.atm.store import (
    COMPACT_AFTER_FRAMES,
    SHARD_PROTOCOL_VERSION,
    STORE_SCHEMA_VERSION,
    FileTHTStore,
    ShardState,
    ShardTHTStore,
    merge_deltas,
    open_store,
    parse_store_url,
)
from repro.atm.tht import TaskHistoryTable
from repro.common.config import ATMConfig
from repro.common.exceptions import (
    ConfigurationError,
    THTStoreCorruptError,
    THTStoreError,
    THTStoreSchemaError,
    THTStoreUnavailableError,
)
from repro.common.hashing import HashKey, hash_bytes
from repro.runtime.net_wire import encode_frame, iter_frames
from repro.session import In, Out, Session

CFG = ATMConfig(tht_bucket_bits=4, tht_bucket_capacity=8)

#: The header frame of a parent-commit (schema 1) store file, pasted as a
#: literal: the in-band layout ``ATMW | length | crc32 | pickle``.
PARENT_LAYOUT_STORE_HEADER = bytes.fromhex(
    "41544d57000000559dd61f278005954a000000000000008c097468745f73746f7265947d"
    "94288c06736368656d61944b018c0f7468745f6275636b65745f62697473944b088c1374"
    "68745f6275636b65745f6361706163697479944b807586942e"
)


def hand_frame(control: bytes, segments: tuple = ()) -> bytes:
    """A segmented frame assembled byte by byte around ``control``."""
    table = b"".join(struct.pack("!II", len(seg), zlib.crc32(seg)) for seg in segments)
    counts = struct.pack("!II", len(control), len(segments))
    crc = zlib.crc32(control, zlib.crc32(table, zlib.crc32(counts)))
    head = struct.pack("!4sIII", b"ATMS", crc, len(control), len(segments))
    return head + table + control + b"".join(segments)


#: A store file as schema 4 wrote it: segmented frames whose control
#: sections are pickles, a header and one delta.
SCHEMA_4_FILE = b"".join(hand_frame(pickle.dumps(message, protocol=5)) for message in (
    ("tht_store", {"schema": 4, "tht_bucket_bits": 4, "tht_bucket_capacity": 8}),
    ("tht_delta", {"entries": [], "counters": {"hits": 1}}),
))


def load_shard_module():
    """Import ``scripts/tht_shard.py`` (not a package) by file path."""
    name = "tht_shard_under_test"
    if name in sys.modules:
        return sys.modules[name]
    path = Path(__file__).resolve().parents[2] / "scripts" / "tht_shard.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def fill_table(n: int = 12, seed: int = 0) -> TaskHistoryTable:
    tht = TaskHistoryTable(CFG)
    tht.enable_journal()
    for i in range(n):
        tht.insert(
            HashKey(value=seed * 100_000 + i * 17),
            "store-test",
            [np.arange(6, dtype=np.float64) + seed * 1000 + i],
            producer_index=i,
        )
    return tht


def entry_map(delta: dict) -> dict:
    return {
        (e.key_value, e.task_type_name, e.p_canonical): e
        for e in delta["entries"]
    }


@pytest.fixture()
def store_path(tmp_path) -> Path:
    return tmp_path / "tht" / "store.tht"


@pytest.fixture(scope="module")
def shard():
    """An in-process cache-shard daemon; yields its ``tcp://`` URL."""
    server, addr = load_shard_module().serve_in_thread(
        bucket_bits=CFG.tht_bucket_bits, bucket_capacity=CFG.tht_bucket_capacity
    )
    yield f"tcp://{addr}"
    server.shutdown_gracefully()


class TestUrlParsing:
    def test_file_and_tcp_urls(self, tmp_path):
        kind, path = parse_store_url(f"file://{tmp_path}/x.tht")
        assert kind == "file" and path == tmp_path / "x.tht"
        assert parse_store_url("tcp://host.example:9201") == (
            "tcp", ("host.example", 9201)
        )

    @pytest.mark.parametrize("url", [
        "ftp://x", "file://", "tcp://nohost", "tcp://h:notaport", "relative/path",
    ])
    def test_bad_urls_raise(self, url):
        with pytest.raises(THTStoreError):
            parse_store_url(url)

    def test_config_validates_store_url(self):
        with pytest.raises(ConfigurationError, match="tht_store"):
            ATMConfig(tht_store="ftp://x").validate()
        with pytest.raises(ConfigurationError, match="tht_store"):
            ATMConfig(tht_store="tcp://h:70000").validate()
        ATMConfig(tht_store="tcp://h:9201").validate()
        ATMConfig(tht_store="file:///tmp/x.tht").validate()

    def test_open_store_dispatches_by_scheme(self, store_path):
        store = open_store(f"file://{store_path}", CFG)
        assert isinstance(store, FileTHTStore)
        assert store.url == f"file://{store_path}"


class TestMergeDeltas:
    def test_later_entries_win_and_counters_sum(self):
        first = fill_table(4, seed=1).snapshot()
        second = fill_table(4, seed=1).snapshot()  # same keys, new outputs
        merged = merge_deltas([first, second])
        assert len(merged["entries"]) == 4
        for key, entry in entry_map(merged).items():
            np.testing.assert_array_equal(
                entry.outputs[0], entry_map(second)[key].outputs[0]
            )
        assert merged["counters"]["insertions"] == 8


class TestFileStore:
    def test_missing_file_loads_empty(self, store_path):
        delta = FileTHTStore(store_path, CFG).load()
        assert delta["entries"] == []
        assert not store_path.exists()

    def test_round_trip_is_bit_identical(self, store_path):
        tht = fill_table(12)
        shipped = tht.snapshot(reset=True)
        store = FileTHTStore(store_path, CFG)
        assert store.publish(shipped) == 12
        loaded = FileTHTStore(store_path, CFG).load()
        assert entry_map(loaded).keys() == entry_map(shipped).keys()
        for key, entry in entry_map(shipped).items():
            restored = entry_map(loaded)[key]
            assert hash_bytes(restored.outputs[0].tobytes()) == hash_bytes(
                entry.outputs[0].tobytes()
            )
            assert restored.stored_bytes == entry.stored_bytes
            assert restored.producer_index == entry.producer_index

    def test_empty_delta_publish_is_a_noop(self, store_path):
        store = FileTHTStore(store_path, CFG)
        assert store.publish({"entries": [], "counters": {}}) == 0
        assert not store_path.exists()

    def test_appends_compact_to_a_bounded_frame_count(self, store_path):
        store = FileTHTStore(store_path, CFG)
        publishes = COMPACT_AFTER_FRAMES + 2  # enough to cross the bound once
        for seed in range(publishes):
            store.publish(fill_table(2, seed=seed).snapshot())
        stats = store.stats()
        assert stats["delta_frames"] <= COMPACT_AFTER_FRAMES < publishes
        assert stats["entries"] == 2 * publishes
        assert len(store.load()["entries"]) == 2 * publishes
        # compaction leaves no temp litter behind
        assert list(store_path.parent.glob("*.tmp")) == []

    @pytest.mark.parametrize(
        "damage", ["garbage", "flip", "segment_length", "control_length", "last_magic"]
    )
    def test_damaged_file_raises_the_named_error(self, store_path, damage):
        store = FileTHTStore(store_path, CFG)
        header_end = len(store._header_frame())
        store.publish(fill_table(6).snapshot())
        first_delta_end = store_path.stat().st_size
        store.publish(fill_table(4, seed=5).snapshot())
        raw = store_path.read_bytes()
        # Inside the first of two deltas: damage that does not end at EOF.  A
        # damaged length claims bytes past EOF, yet the frame is not torn.
        at, bit = {
            "flip": (first_delta_end - 9, 0xFF),
            "segment_length": (header_end + 16, 0x80),  # first table entry
            "control_length": (header_end + 10, 0x40),
            # A bad magic is not what an interrupted append leaves.
            "last_magic": (first_delta_end, 0xFF),
        }.get(damage, (None, None))
        if damage == "garbage":
            store_path.write_bytes(b"these are not frames")
        else:
            store_path.write_bytes(raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:])
        with pytest.raises(THTStoreCorruptError):
            store.load()

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_a_torn_tail_keeps_the_frames_in_front_of_it(self, store_path, damage):
        store = FileTHTStore(store_path, CFG)
        store.publish(fill_table(6).snapshot())
        store.publish(fill_table(4, seed=5).snapshot())
        raw = store_path.read_bytes()
        if damage == "truncate":
            store_path.write_bytes(raw[:-7])
        else:  # a checksum failure in the last frame, which ends at EOF
            store_path.write_bytes(raw[:-9] + bytes([raw[-9] ^ 0xFF]) + raw[-8:])
        with pytest.warns(RuntimeWarning, match="dropped a torn tail of"):
            assert len(store.load()["entries"]) == 6

    def test_schema_mismatch_raises_corrupt(self, store_path):
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(
            bytes(encode_frame(("tht_store", {"schema": STORE_SCHEMA_VERSION + 1})))
        )
        with pytest.raises(THTStoreCorruptError, match="schema"):
            FileTHTStore(store_path, CFG).load()

    def test_previous_schema_is_refused_by_name(self, store_path):
        """A file of the previous schema is not read at all (its entries sat
        under another key definition or in pickled frames)."""
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(
            bytes(encode_frame(("tht_store", {"schema": STORE_SCHEMA_VERSION - 1})))
            + bytes(encode_frame(("tht_delta", fill_table(3).snapshot())))
        )
        with pytest.raises(THTStoreCorruptError, match="has schema 4; this build reads schema 5"):
            FileTHTStore(store_path, CFG).load()

    def test_schema_4_file_is_refused_by_name_and_never_overwritten(self, store_path):
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(SCHEMA_4_FILE)
        store = FileTHTStore(store_path, CFG)
        match = "written by schema 4 or earlier; this build reads schema 5"
        with pytest.raises(THTStoreSchemaError, match=match):
            store.load()
        with pytest.raises(THTStoreSchemaError, match=match):
            store.publish(fill_table(3).snapshot())
        assert store_path.read_bytes() == SCHEMA_4_FILE

    def test_an_object_dtype_output_is_refused_in_both_directions(self, store_path):
        """THT outputs are read from the file as raw bytes: a dtype that holds
        Python objects is never built from them, nor written."""
        header = bytes(encode_frame(("tht_store", {"schema": STORE_SCHEMA_VERSION})))
        entry = ["e", 1, 1.0, "t", 0, ["[", ["a", "|O", [1], 0]]]
        control = ["", ["(", "tht_delta", {"entries": ["[", entry], "counters": {}}]]
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(header + hand_frame(json.dumps(control).encode(), (b"\0" * 8,)))
        with pytest.raises(THTStoreCorruptError, match="holds Python objects"):
            FileTHTStore(store_path, CFG).load()
        delta = fill_table(1).snapshot()
        delta["entries"][0].outputs[0] = np.array([object()])
        with pytest.raises(TypeError, match="holds Python objects"):
            encode_frame(("tht_delta", delta))

    def test_a_delta_frame_of_other_values_is_corrupt(self, store_path):
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(b"".join(bytes(encode_frame(m)) for m in (
            ("tht_store", {"schema": STORE_SCHEMA_VERSION}),
            ("tht_delta", {"entries": [1, "two"], "counters": {}}),
        )))
        with pytest.raises(THTStoreCorruptError, match="non-delta frame"):
            FileTHTStore(store_path, CFG).load()

    def test_header_kind_mismatch_raises_corrupt(self, store_path):
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(bytes(encode_frame(("something_else", {}))))
        with pytest.raises(THTStoreCorruptError, match="header"):
            FileTHTStore(store_path, CFG).load()

    def test_publish_self_heals_a_damaged_store(self, store_path):
        store = FileTHTStore(store_path, CFG)
        store.publish(fill_table(4).snapshot())
        store_path.write_bytes(b"broken beyond repair")
        store.publish(fill_table(5, seed=9).snapshot())
        assert len(store.load()["entries"]) == 5


    def test_parent_layout_file_is_rejected_by_its_magic_and_self_heals(self, store_path):
        """A schema-1 store (in-band frames) must fail on its first frame's
        magic — never be mis-parsed — and be replaced by the next publish."""
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(PARENT_LAYOUT_STORE_HEADER + b"\x00" * 64)
        store = FileTHTStore(store_path, CFG)
        with pytest.raises(THTStoreCorruptError, match="bad frame magic"):
            store.load()
        store.publish(fill_table(3).snapshot())
        assert len(store.load()["entries"]) == 3

    def test_an_append_is_one_write_of_a_whole_frame(self, store_path, monkeypatch):
        """Concurrent publishers interleave whole frames only if each append
        reaches the O_APPEND handle as a single write."""
        store = FileTHTStore(store_path, CFG)
        store.publish(fill_table(2).snapshot())
        size_before = store_path.stat().st_size
        writes = []

        class SpiedAppend(io.FileIO):
            def write(self, data):
                writes.append(len(data))
                return super().write(data)

        real_open = open
        monkeypatch.setattr(
            "builtins.open",
            lambda path, mode="r", *a, **kw: (
                SpiedAppend(path, mode) if mode == "ab" else real_open(path, mode, *a, **kw)
            ),
        )
        store.publish(fill_table(3, seed=5).snapshot())
        monkeypatch.undo()
        assert writes == [store_path.stat().st_size - size_before]
        assert len(store.load()["entries"]) == 5


class TestShardState:
    def test_hello_checks_the_protocol_version(self):
        state = ShardState(CFG)
        kind, info = state.handle(("hello", {"protocol": SHARD_PROTOCOL_VERSION}))
        assert kind == "hello_ack"
        assert info["schema"] == STORE_SCHEMA_VERSION
        reply = state.handle(("hello", {"protocol": 999}))
        assert reply[0] == "error"
        reply = state.handle(("hello", {"protocol": SHARD_PROTOCOL_VERSION - 1}))
        assert reply[:2] == ("error", "THTStoreUnavailableError")
        assert "shard speaks protocol 5, client spoke 4" in reply[2]

    def test_publish_then_fetch_round_trips(self):
        state = ShardState(CFG)
        shipped = fill_table(8).snapshot()
        kind, received = state.handle(("publish", shipped))
        assert (kind, received) == ("publish_ack", 8)
        kind, delta = state.handle(("fetch",))
        assert kind == "fetch_result"
        assert entry_map(delta).keys() == entry_map(shipped).keys()
        kind, stats = state.handle(("stats",))
        assert kind == "stats_reply"
        assert stats["entries"] == 8
        assert stats["publishes"] == 1 and stats["fetches"] == 1

    def test_malformed_requests_get_error_replies(self):
        state = ShardState(CFG)
        assert state.handle("not-a-tuple")[0] == "error"
        assert state.handle(("frobnicate",))[0] == "error"
        assert state.handle(("publish", "not-a-delta"))[0] == "error"


class TestShardService:
    def test_publish_visible_to_other_clients(self, shard):
        shipped = fill_table(10, seed=3).snapshot()
        with open_store(shard, CFG) as writer:
            assert writer.publish(shipped) == 10
        with open_store(shard, CFG) as reader:
            fetched = reader.load()
            stats = reader.stats()
        assert entry_map(shipped).keys() <= entry_map(fetched).keys()
        assert stats["publishes"] >= 1
        assert stats["backend"] == "shard"

    def test_unreachable_shard_raises_unavailable(self):
        with pytest.raises(THTStoreUnavailableError):
            ShardTHTStore("127.0.0.1", 1, CFG, timeout_s=0.5)

    def test_closed_connection_raises_unavailable(self, shard):
        store = open_store(shard, CFG)
        store.close()
        with pytest.raises(THTStoreUnavailableError):
            store.load()

    def test_backed_shard_survives_restart(self, tmp_path):
        backing = tmp_path / "shard-backing.tht"
        module = load_shard_module()
        server, addr = module.serve_in_thread(
            bucket_bits=CFG.tht_bucket_bits,
            bucket_capacity=CFG.tht_bucket_capacity,
            backing=backing,
        )
        shipped = fill_table(7, seed=5).snapshot()
        with ShardTHTStore(*addr.rsplit(":", 1)[:1], int(addr.rsplit(":", 1)[1]), CFG) as c:
            c.publish(shipped)
        server.shutdown_gracefully()  # flushes the backing file
        assert backing.exists()
        server2, addr2 = module.serve_in_thread(
            bucket_bits=CFG.tht_bucket_bits,
            bucket_capacity=CFG.tht_bucket_capacity,
            backing=backing,
        )
        try:
            with ShardTHTStore(*addr2.rsplit(":", 1)[:1], int(addr2.rsplit(":", 1)[1]), CFG) as c:
                restored = c.load()
            assert entry_map(shipped).keys() == entry_map(restored).keys()
        finally:
            server2.shutdown_gracefully()

    def test_flush_every_fires_for_a_persistent_client(self, tmp_path):
        """One long-lived connection (a gateway holds its shard connection
        for life): every 2nd publish must reach the backing file *before*
        the client disconnects, or a ``kill -9`` of the shard loses
        everything since boot."""
        backing = tmp_path / "shard-backing.tht"
        server, addr = load_shard_module().serve_in_thread(
            bucket_bits=CFG.tht_bucket_bits,
            bucket_capacity=CFG.tht_bucket_capacity,
            backing=backing,
            flush_every=2,
        )
        host, port = addr.rsplit(":", 1)
        try:
            with ShardTHTStore(host, int(port), CFG) as client:
                client.publish(fill_table(3, seed=1).snapshot())
                assert not backing.exists()  # 1 publish: nothing due yet
                second = fill_table(3, seed=2).snapshot()
                client.publish(second)
                # Still connected: the flush happened where the publish did.
                persisted = FileTHTStore(backing, CFG).load()
                assert entry_map(second).keys() <= entry_map(persisted).keys()
                assert len(persisted["entries"]) == 6
                client.publish(fill_table(3, seed=3).snapshot())
                assert len(FileTHTStore(backing, CFG).load()["entries"]) == 6
        finally:
            server.shutdown_gracefully()


def run_saxpy(config, n=10, start=0):
    """One tiny memoizable workload; returns (session, outputs)."""
    with Session(config, executor="serial") as s:
        @s.task(memoizable=True)
        def saxpy(x: In, y: Out, a):
            y[:] = a * x

        xs = [np.full(32, float(i)) for i in range(start, start + n)]
        ys = [np.zeros(32) for _ in range(n)]
        for x, y in zip(xs, ys):
            saxpy(x, y, 2.0)
        s.wait_all()
        return s, [y.copy() for y in ys]


class TestSessionWarmStart:
    def atm(self, url) -> dict:
        return {"atm": {"mode": "static", "tht_store": url}}

    def test_file_store_cold_then_warm(self, store_path):
        url = f"file://{store_path}"
        cold, cold_out = run_saxpy(self.atm(url))
        assert not cold.warm_started
        assert cold.stats["tht_hits"] == 0
        warm, warm_out = run_saxpy(self.atm(url))
        assert warm.warm_started
        assert warm.stats["tht_hits"] == 10  # every task reused: >50% hit-rate
        assert all(np.array_equal(a, b) for a, b in zip(cold_out, warm_out))

    def test_shard_store_cold_then_warm(self, shard):
        cold, cold_out = run_saxpy(self.atm(shard), n=8)
        warm, warm_out = run_saxpy(self.atm(shard), n=8)
        assert warm.warm_started
        assert warm.stats["tht_hits"] == 8
        assert all(np.array_equal(a, b) for a, b in zip(cold_out, warm_out))

    def test_corrupt_store_warns_and_cold_starts(self, store_path):
        url = f"file://{store_path}"
        run_saxpy(self.atm(url))
        store_path.write_bytes(b"definitely not a store")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            session, _ = run_saxpy(self.atm(url))
        assert not session.warm_started
        assert session.stats["tht_hits"] == 0
        # the finish() flush replaced the damaged file: next run is warm
        healed, _ = run_saxpy(self.atm(url))
        assert healed.warm_started

    def test_a_torn_tail_keeps_its_prefix_across_warm_start_and_publish(self, store_path):
        """Two sessions publish 4 entries each; the second append is torn.
        The first session's 4 entries load, warm-start the next session and
        stay in the file that session's publish rewrites."""
        url = f"file://{store_path}"
        run_saxpy(self.atm(url), n=4)
        run_saxpy(self.atm(url), n=4, start=10)
        store_path.write_bytes(store_path.read_bytes()[:-5])
        with pytest.warns(RuntimeWarning, match="torn tail of"):
            assert len(FileTHTStore(store_path).load()["entries"]) == 4
        with pytest.warns(RuntimeWarning, match="torn tail of"):
            session, _ = run_saxpy(self.atm(url), n=8)
        assert session.warm_started
        assert session.stats["tht_hits"] == 4  # the prefix, restored
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rewritten: no tail left
            assert len(FileTHTStore(store_path).load()["entries"]) == 8

    def test_parent_layout_store_warns_and_cold_starts(self, store_path):
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(PARENT_LAYOUT_STORE_HEADER)
        url = f"file://{store_path}"
        with pytest.warns(RuntimeWarning, match="bad frame magic"):
            session, _ = run_saxpy(self.atm(url))
        assert not session.warm_started
        healed, _ = run_saxpy(self.atm(url))
        assert healed.warm_started

    def test_two_input_program_warm_starts_bit_identically(self, store_path):
        """Multi-input keys are combinations of digests (since store schema 3): a
        store written under that definition is found again under it."""
        def run(config):
            with Session(config, executor="serial") as s:
                @s.task(memoizable=True)
                def blend(x: In, w: In, y: Out):
                    y[:] = x * w + 1.0

                weights = np.linspace(0.5, 1.5, 32)
                xs = [np.full(32, float(i % 3)) for i in range(9)]
                ys = [np.zeros(32) for _ in xs]
                for x, y in zip(xs, ys):
                    blend(x, weights, y)
                s.wait_all()
                return s, [y.copy() for y in ys]

        url = f"file://{store_path}"
        _, plain = run({"atm": {"mode": "none"}})
        cold, cold_out = run(self.atm(url))
        assert cold.stats["tht_hits"] == 6  # three distinct inputs, nine tasks
        assert FileTHTStore(store_path, CFG).load()["entries"]
        warm, warm_out = run(self.atm(url))
        assert warm.warm_started and warm.stats["tht_hits"] == 9
        for got in (cold_out, warm_out):
            assert [y.tobytes() for y in got] == [y.tobytes() for y in plain]

    def test_dynamic_two_input_program_warm_starts_bit_identically(self, store_path):
        """Below ``p = 1`` a digest reads its sample in address order (store
        schema 4): entries written under sampled keys are found again."""
        def run(config):
            with Session(config, executor="serial") as s:
                @s.task(memoizable=True)
                def blend(x: In, w: In, y: Out):
                    y[:] = x * w + 1.0

                weights = np.linspace(0.5, 1.5, 64)
                rng = np.random.default_rng(0)
                bases = [rng.standard_normal(64) for _ in range(3)]
                xs = [bases[i % 3].copy() for i in range(60)]
                ys = [np.zeros(64) for _ in xs]
                for x, y in zip(xs, ys):
                    blend(x, weights, y)
                s.wait_all()
                return s, [y.tobytes() for y in ys]

        url = f"file://{store_path}"
        atm = {"atm": {"mode": "dynamic", "l_training": 5, "tht_store": url}}
        _, plain = run({"atm": {"mode": "none"}})
        cold, cold_out = run(atm)
        assert not cold.warm_started
        stored = FileTHTStore(store_path, CFG).load()["entries"]
        assert any(entry.p < 1.0 for entry in stored)
        warm, warm_out = run(atm)
        assert warm.warm_started and warm.stats["tht_hits"] > cold.stats["tht_hits"]
        assert cold_out == warm_out == plain

    def test_previous_schema_store_warns_and_cold_starts(self, store_path):
        url = f"file://{store_path}"
        run_saxpy(self.atm(url))
        frames = list(iter_frames(store_path.read_bytes()))
        store_path.write_bytes(b"".join(
            bytes(encode_frame(frame))
            for frame in [("tht_store", {"schema": STORE_SCHEMA_VERSION - 1})] + frames[1:]
        ))
        with pytest.warns(RuntimeWarning, match="has schema 4"):
            session, _ = run_saxpy(self.atm(url))
        assert not session.warm_started and session.stats["tht_hits"] == 0

    def test_schema_4_store_warns_and_is_left_alone(self, store_path):
        store_path.parent.mkdir(parents=True)
        store_path.write_bytes(SCHEMA_4_FILE)
        with pytest.warns(RuntimeWarning, match="refused and left as it is.*schema 4 or earlier"):
            session, _ = run_saxpy(self.atm(f"file://{store_path}"))
        assert not session.warm_started
        assert store_path.read_bytes() == SCHEMA_4_FILE

    def test_unreachable_shard_warns_and_cold_starts(self):
        with pytest.warns(RuntimeWarning, match="unavailable"):
            session, _ = run_saxpy(self.atm("tcp://127.0.0.1:1"))
        assert not session.warm_started

    def test_store_without_engine_is_a_config_error(self, store_path):
        with pytest.raises(ConfigurationError, match="tht_store"):
            Session(
                {"atm": {"mode": "none", "tht_store": f"file://{store_path}"}},
                executor="serial",
            )

    def test_error_path_close_does_not_publish(self, store_path):
        url = f"file://{store_path}"
        session, _ = run_saxpy(self.atm(url))
        before = store_path.read_bytes()
        with pytest.raises(ValueError):
            with Session(self.atm(url), executor="serial") as s:
                @s.task(memoizable=True)
                def work(x: In, y: Out):
                    y[:] = x

                raise ValueError("in-flight failure")
        assert store_path.read_bytes() == before

    @pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
    def test_warm_restore_serves_benchmark_bit_identical(self, tmp_path, bench_name):
        """Cold-vs-warm on each benchmark app: same bytes, real reuse."""
        url = f"file://{tmp_path / 'bench.tht'}"
        reference = make_benchmark(bench_name, scale="tiny")
        with Session({"atm": {"mode": "static"}}, executor="serial") as s:
            reference.run(s)

        cold = make_benchmark(bench_name, scale="tiny")
        with Session(self.atm(url), executor="serial") as s:
            cold.run(s)
            cold_memoized = s.result.tasks_memoized

        warm = make_benchmark(bench_name, scale="tiny")
        with Session(self.atm(url), executor="serial") as s:
            warm.run(s)
            assert s.warm_started
            assert s.stats["tht_hits"] > 0
            # The restored table serves at least the hits the live table
            # produced within one cold run.
            assert s.result.tasks_memoized >= cold_memoized

        expected = hash_bytes(np.ascontiguousarray(reference.output()).tobytes())
        for app in (cold, warm):
            got = hash_bytes(np.ascontiguousarray(app.output()).tobytes())
            assert got == expected, f"{bench_name}: warm restore changed the output"
