"""Tests for the Task History Table and the In-flight Key Table."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atm.ikt import InFlightKeyTable
from repro.atm.tht import TaskHistoryTable, THTEntry
from repro.common.config import ATMConfig
from repro.common.hashing import HashKey
from repro.runtime.data import Out
from repro.runtime.task import Task, TaskType

TT = TaskType("table-test", memoizable=True)


def make_key(value: int, p: float = 1.0) -> HashKey:
    return HashKey(value=value, p=p, sampled_bytes=8, total_bytes=8)


def make_outputs(seed: int = 0) -> list[np.ndarray]:
    return [np.full(4, float(seed)), np.full(2, float(seed) + 0.5)]


def make_task(index: int = 0) -> Task:
    return Task(task_type=TT, function=lambda: None,
                accesses=[Out(np.zeros(4))], task_id=index)


class TestTHTEntry:
    def test_stored_bytes(self):
        entry = THTEntry(1, 1.0, "t", make_outputs(), producer_index=0)
        assert entry.stored_bytes == 4 * 8 + 2 * 8

    def test_matching_requires_key_type_and_p(self):
        entry = THTEntry(42, 0.5, "t", make_outputs(), producer_index=0)
        assert entry.matches(make_key(42, 0.5), "t")
        assert not entry.matches(make_key(42, 1.0), "t")
        assert not entry.matches(make_key(43, 0.5), "t")
        assert not entry.matches(make_key(42, 0.5), "other")

    def test_memory_bytes_includes_metadata(self):
        entry = THTEntry(1, 1.0, "t", make_outputs(), producer_index=0)
        assert entry.memory_bytes == entry.stored_bytes + 24


class TestTaskHistoryTable:
    def config(self, bits=2, capacity=2) -> ATMConfig:
        return ATMConfig(tht_bucket_bits=bits, tht_bucket_capacity=capacity)

    def test_insert_then_lookup(self):
        tht = TaskHistoryTable(self.config())
        key = make_key(5)
        tht.insert(key, "t", make_outputs(1), producer_index=3)
        entry = tht.lookup(key, "t")
        assert entry is not None
        assert entry.producer_index == 3
        assert tht.hits == 1

    def test_miss_recorded(self):
        tht = TaskHistoryTable(self.config())
        assert tht.lookup(make_key(1), "t") is None
        assert tht.misses == 1

    def test_bucket_selection_uses_low_bits(self):
        tht = TaskHistoryTable(self.config(bits=2))
        assert tht.bucket_index(make_key(0b1011)) == 0b11

    def test_fifo_eviction(self):
        tht = TaskHistoryTable(self.config(bits=0, capacity=2))
        keys = [make_key(i) for i in range(3)]
        for index, key in enumerate(keys):
            tht.insert(key, "t", make_outputs(index), producer_index=index)
        assert tht.evictions == 1
        assert tht.lookup(keys[0], "t") is None       # oldest evicted
        assert tht.lookup(keys[1], "t") is not None
        assert tht.lookup(keys[2], "t") is not None

    def test_refresh_existing_key_updates_in_place(self):
        tht = TaskHistoryTable(self.config(bits=0, capacity=4))
        key = make_key(9)
        tht.insert(key, "t", make_outputs(1), producer_index=1)
        tht.insert(key, "t", make_outputs(2), producer_index=2)
        assert len(tht) == 1
        assert tht.lookup(key, "t").producer_index == 2
        assert tht.evictions == 0

    def test_same_key_different_p_coexist(self):
        tht = TaskHistoryTable(self.config(bits=0, capacity=4))
        tht.insert(make_key(7, p=1.0), "t", make_outputs(1), producer_index=1)
        tht.insert(make_key(7, p=0.5), "t", make_outputs(2), producer_index=2)
        assert len(tht) == 2
        assert tht.lookup(make_key(7, p=0.5), "t").producer_index == 2

    def test_memory_bytes_grows_with_entries(self):
        tht = TaskHistoryTable(self.config())
        empty = tht.memory_bytes()
        tht.insert(make_key(1), "t", make_outputs(), producer_index=0)
        assert tht.memory_bytes() > empty

    def test_clear(self):
        tht = TaskHistoryTable(self.config())
        tht.insert(make_key(1), "t", make_outputs(), producer_index=0)
        tht.lookup(make_key(1), "t")
        tht.clear()
        assert len(tht) == 0
        assert tht.hits == 0 and tht.insertions == 0

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_bucket_capacity_invariant(self, key_values):
        """Property: no bucket ever exceeds its configured capacity."""
        tht = TaskHistoryTable(self.config(bits=2, capacity=3))
        for index, value in enumerate(key_values):
            tht.insert(make_key(value), "t", make_outputs(index), producer_index=index)
            assert all(len(bucket) <= 3 for bucket in tht._buckets)


class TestInFlightKeyTable:
    def test_register_lookup_retire(self):
        ikt = InFlightKeyTable(max_entries=4)
        key = make_key(11)
        producer = make_task(0)
        assert ikt.register(key, "t", producer)
        assert ikt.lookup(key, "t") is producer
        assert ikt.retire(key, "t", producer)
        assert ikt.lookup(key, "t") is None

    def test_lookup_miss_counted(self):
        ikt = InFlightKeyTable()
        ikt.lookup(make_key(1), "t")
        assert ikt.misses == 1 and ikt.hits == 0

    def test_capacity_enforced(self):
        ikt = InFlightKeyTable(max_entries=1)
        assert ikt.register(make_key(1), "t", make_task(0))
        assert not ikt.register(make_key(2), "t", make_task(1))
        assert ikt.rejected_registrations == 1

    def test_retire_only_matching_task(self):
        ikt = InFlightKeyTable()
        key = make_key(4)
        first, second = make_task(0), make_task(1)
        ikt.register(key, "t", first)
        assert not ikt.retire(key, "t", second)
        assert ikt.retire(key, "t", first)

    def test_distinct_task_types_do_not_collide(self):
        ikt = InFlightKeyTable()
        key = make_key(6)
        ikt.register(key, "a", make_task(0))
        assert ikt.lookup(key, "b") is None

    def test_memory_bytes(self):
        ikt = InFlightKeyTable(max_entries=8)
        assert ikt.memory_bytes() == 8 * 24

    def test_clear(self):
        ikt = InFlightKeyTable()
        ikt.register(make_key(1), "t", make_task(0))
        ikt.clear()
        assert len(ikt) == 0 and ikt.registrations == 0


class TestCanonicalPMatching:
    """Satellite fix: float-equality on p silently broke Dynamic-ATM matches."""

    def test_p_recomputed_through_different_float_path_matches(self):
        from repro.atm.tht import THTEntry

        # 15 doublings of 2^-15 vs the literal 1.0-adjacent ladder value:
        # equal on paper, but a float-equality compare can be defeated by
        # intermediate rounding (e.g. scaling through percentages).
        p_stored = 0.1 + 0.2 - 0.2          # 0.10000000000000003
        p_probe = 0.1                        # 0.1
        assert p_stored != p_probe           # the seed bug's precondition
        entry = THTEntry(42, p_stored, "t", make_outputs(), producer_index=0)
        assert entry.matches(make_key(42, p_probe), "t")

    def test_ladder_values_stay_distinct(self):
        from repro.atm.tht import THTEntry
        from repro.common.config import P_LADDER

        entry = THTEntry(42, P_LADDER[0], "t", make_outputs(), producer_index=0)
        for p in P_LADDER[1:]:
            assert not entry.matches(make_key(42, p), "t")

    def test_canonical_p_quantization(self):
        from repro.common.hashing import canonical_p

        assert canonical_p(1.0) == canonical_p(1.0 - 2.0 ** -60)
        assert canonical_p(0.5) != canonical_p(0.25)
        assert canonical_p(2.0 ** -15) != canonical_p(2.0 ** -14)
        assert canonical_p(1e-12) >= 1  # tiny fractions clamp, never zero


class TestJournalDeltas:
    """Regression: journaled snapshot(reset=True) must ship every commit."""

    def config(self, bits=2, capacity=8) -> ATMConfig:
        return ATMConfig(tht_bucket_bits=bits, tht_bucket_capacity=capacity)

    def test_merge_feeds_enabled_journal(self):
        # The seed bug: merge() inserted directly into buckets and never
        # journaled, so a journaled shared tier silently dropped every
        # merged peer entry from its next delta.
        peer = TaskHistoryTable(self.config())
        peer.insert(make_key(1), "t", make_outputs(1), producer_index=1)
        peer.insert(make_key(2), "t", make_outputs(2), producer_index=2)
        shared = TaskHistoryTable(self.config())
        shared.enable_journal()
        shared.merge(peer.snapshot())
        delta = shared.snapshot(reset=True)
        assert sorted(e.key_value for e in delta["entries"]) == [1, 2]
        # Consumed: the next delta is empty until new commits land.
        assert shared.snapshot(reset=True)["entries"] == []

    def test_merge_journal_false_skips_journal(self):
        # Warm-start restore path: loaded entries must not be re-published.
        peer = TaskHistoryTable(self.config())
        peer.insert(make_key(1), "t", make_outputs(1), producer_index=1)
        tht = TaskHistoryTable(self.config())
        tht.enable_journal()
        tht.merge(peer.snapshot(), journal=False)
        assert tht.snapshot(reset=True)["entries"] == []
        assert tht.lookup(make_key(1), "t") is not None

    def test_merged_entries_flow_through_chained_tiers(self):
        worker = TaskHistoryTable(self.config())
        worker.insert(make_key(7), "t", make_outputs(7), producer_index=7)
        middle = TaskHistoryTable(self.config())
        middle.enable_journal()
        middle.merge(worker.snapshot())
        downstream = TaskHistoryTable(self.config())
        downstream.merge(middle.snapshot(reset=True))
        assert downstream.lookup(make_key(7), "t") is not None

    def test_threaded_churn_no_counted_but_lost_insertions(self):
        # Regression for the non-atomic snapshot: entries and counters were
        # read in two passes, so inserts landing between them were counted
        # by a reset=True snapshot that never shipped them.  Across all
        # delta cycles, counted insertions must equal shipped entries.
        import threading

        config = ATMConfig(tht_bucket_bits=3, tht_bucket_capacity=512)
        tht = TaskHistoryTable(config)
        tht.enable_journal()
        downstream = TaskHistoryTable(config)
        per_thread, threads_n = 400, 4

        def churn(base):
            for i in range(per_thread):
                tht.insert(
                    make_key(base + i), "t", [np.full(2, float(i))],
                    producer_index=base + i,
                )

        threads = [
            threading.Thread(target=churn, args=(t * 10_000,))
            for t in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        shipped = 0
        counted = 0
        while any(t.is_alive() for t in threads):
            delta = tht.snapshot(reset=True)
            shipped += len(delta["entries"])
            counted += delta["counters"]["insertions"]
            downstream.merge(delta)
        for thread in threads:
            thread.join()
        final = tht.snapshot(reset=True)
        shipped += len(final["entries"])
        counted += final["counters"]["insertions"]
        downstream.merge(final)
        assert shipped == counted == per_thread * threads_n
        assert len(downstream) == per_thread * threads_n


class TestPerBucketCounters:
    def test_counters_aggregate_across_buckets(self):
        config = ATMConfig(tht_bucket_bits=2, tht_bucket_capacity=4)
        tht = TaskHistoryTable(config)
        for value in range(8):  # spread over all 4 buckets
            tht.insert(make_key(value), "t", make_outputs(value), producer_index=value)
        for value in range(8):
            assert tht.lookup(make_key(value), "t") is not None
        tht.lookup(make_key(123456), "t")
        assert tht.hits == 8
        assert tht.misses == 1
        assert tht.insertions == 8

    def test_concurrent_probes_keep_exact_counts(self):
        import threading

        config = ATMConfig(tht_bucket_bits=4, tht_bucket_capacity=8)
        tht = TaskHistoryTable(config)
        for value in range(32):
            tht.insert(make_key(value), "t", make_outputs(value), producer_index=value)

        def probe():
            for value in range(32):
                tht.lookup(make_key(value), "t")       # hit
                tht.lookup(make_key(1000 + value), "t")  # miss

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tht.hits == 8 * 32
        assert tht.misses == 8 * 32
