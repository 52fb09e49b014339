"""Equivalence proofs: the per-input-digest keygen vs the seed implementation.

The seed (:class:`~tests.reference.keygen_reference.ReferenceKeyGenerator`,
unedited) hashes one interleaved stream of the sampled bytes of all inputs,
in shuffle order; :class:`~repro.atm.keygen.HashKeyGenerator` hashes each
input's sampled bytes on their own, in address order, and combines the
digests.  What is proved here:

* a **one-input** key at ``p = 1`` has the seed's *value*, bit for bit;
* every other key induces the seed's *partition*: over a family of twins
  (differing only in bytes the key does not sample) and near-twins (one
  sampled byte of one input differs), two tasks share a key iff the seed
  gives them one (``tests/atm/keygen_families.py``);
* the caches never decide a value: hot or cold, on or off, at every ``p``;
  a write re-reads the written input and no other; an entry is replaced,
  not stranded, by a write, and is charged what it really holds;
* a sample of whole significance levels stores no vector at all, and the
  stored shuffle stays under a fifth of the seed's bytes.
"""

from __future__ import annotations

import gc
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from repro.atm.keygen import HashKeyGenerator
from repro.common.config import ATMConfig
from repro.runtime.data import DataRegion, In, Out
from repro.runtime.task import Task, TaskType
from tests.atm.keygen_families import check_family
from tests.reference.keygen_reference import ReferenceKeyGenerator

TT = TaskType("equiv-test", memoizable=True)

P_GRID = (2.0 ** -15, 0.001, 1 / 32, 1 / 16, 0.25, 0.5, 1.0)


def make_task(arrays, outputs=()):
    accesses = [In(a) for a in arrays] + [Out(o) for o in outputs]
    return Task(task_type=TT, function=lambda: None, accesses=accesses, task_id=0)


def array_sets():
    rng = np.random.default_rng(42)
    twice = rng.standard_normal(300)
    return {
        "one_float64": [rng.standard_normal(4096)],
        "one_int32": [rng.integers(-1000, 1000, 2048, dtype=np.int32)],
        "multi_uniform": [rng.standard_normal(1024) for _ in range(4)],
        "multi_mixed_dtypes": [
            rng.standard_normal(513),                                  # odd size
            rng.integers(0, 255, 1000, dtype=np.uint8),
            rng.standard_normal(256).astype(np.float32),
            rng.integers(-7, 7, 77, dtype=np.int16),
        ],
        "multi_lopsided": [rng.standard_normal(65536), rng.standard_normal(32)],
        "multi_zero_byte_input": [
            rng.standard_normal(64), np.empty(0), rng.standard_normal(100).astype(np.float32),
        ],
        "multi_same_array_twice": [twice, rng.standard_normal(40), twice],
    }


ONE_INPUT = sorted(name for name in array_sets() if name.startswith("one_"))
MULTI_INPUT = sorted(name for name in array_sets() if name.startswith("multi_"))


class TestAgainstTheSeed:
    @pytest.mark.parametrize("type_aware", [True, False])
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("case", ONE_INPUT)
    def test_one_input_key_has_the_seeds_value_or_partition(self, case, p, type_aware):
        """The seed's value at ``p = 1``; below, the seed's partition."""
        config = ATMConfig(type_aware=type_aware)
        new = HashKeyGenerator(config)
        ref = ReferenceKeyGenerator(config)
        arrays = array_sets()[case]
        task = make_task(arrays)
        for _ in range(3):  # repeat: cold caches, then hot caches
            key_new = new.compute(task, p)
            key_ref = ref.compute(task, p)
            if p == 1.0:  # below, the seed hashes the sample in shuffle order
                assert key_new.value == key_ref.value
            assert key_new.sampled_bytes == key_ref.sampled_bytes
            assert key_new.total_bytes == key_ref.total_bytes
        assert new.cache_info()["digest_cache_misses"] == 0  # nothing to combine
        assert new.cache_info()["cache_entries"] == 1
        check_family(new, ref, TT, arrays, p)

    @pytest.mark.parametrize("type_aware", [True, False])
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("case", MULTI_INPUT)
    def test_multi_input_keys_partition_like_the_seed(self, case, p, type_aware):
        config = ATMConfig(type_aware=type_aware)
        check_family(
            HashKeyGenerator(config), ReferenceKeyGenerator(config), TT,
            array_sets()[case], p,
        )

    @pytest.mark.parametrize("hash_function", ["lookup3", "one_at_a_time"])
    def test_scalar_hashes_partition_like_the_seed(self, hash_function):
        config = ATMConfig(hash_function=hash_function)
        rng = np.random.default_rng(3)
        arrays = [rng.standard_normal(40), rng.integers(0, 9, 33, dtype=np.int16)]
        for p in (0.001, 0.25, 1.0):
            check_family(HashKeyGenerator(config), ReferenceKeyGenerator(config), TT, arrays, p)

    def test_no_input_task_matches_seed(self):
        config = ATMConfig()
        new = HashKeyGenerator(config)
        ref = ReferenceKeyGenerator(config)
        task = make_task([], outputs=[np.zeros(8)])
        assert new.compute(task, 1.0).value == ref.compute(task, 1.0).value

    def test_swapping_two_equal_sized_inputs_changes_the_key(self):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal(128), rng.standard_normal(128)
        generator = HashKeyGenerator(ATMConfig())
        for p in P_GRID:
            assert generator.compute(make_task([a, b]), p).value != (
                generator.compute(make_task([b, a]), p).value
            ), p

    def test_sampled_shuffles_store_a_fifth_of_the_seed_bytes(self):
        """A uint32 prefix plus one sorted intp vector per input and ladder
        step (a partial level is no lattice) vs the seed's full int64
        permutation."""
        rng = np.random.default_rng(8)
        arrays = [rng.standard_normal(1 << 14) for _ in range(4)]
        new = HashKeyGenerator(ATMConfig())
        ref = ReferenceKeyGenerator(ATMConfig())
        task = make_task(arrays)
        counts = []
        for p in (0.001, 0.01, 0.1):
            counts.append(new.compute(task, p).sampled_bytes)
            ref.compute(task, p)
        assert new.shuffle_memory_bytes() == (
            counts[-1] * 4 + sum(counts) * np.dtype(np.intp).itemsize
        )
        assert 5 * new.shuffle_memory_bytes() <= ref.shuffle_memory_bytes()

    @pytest.mark.parametrize("p", [1 / 8, 1 / 4, 1 / 2])
    def test_whole_levels_store_the_prefix_only(self, p):
        """The top ``8 p`` bytes of every float64, of both inputs: a lattice
        per input, read as one strided view — no vector is kept for it."""
        rng = np.random.default_rng(10)
        task = make_task([rng.standard_normal(512), rng.standard_normal(256)])
        generator = HashKeyGenerator(ATMConfig())
        count = generator.compute(task, p).sampled_bytes
        assert generator.shuffle_memory_bytes() == count * 4
        # A partial level on top of them is no lattice: one vector per input.
        more = generator.compute(task, p + 1 / 64).sampled_bytes
        assert generator.shuffle_memory_bytes() == (
            more * 4 + more * np.dtype(np.intp).itemsize
        )

    def test_an_input_the_sample_covers_is_read_in_place(self):
        """Level 0 of a byte input is the whole input: nothing is stored for
        it, and nothing for the float lattice beside it."""
        rng = np.random.default_rng(14)
        arrays = [rng.integers(0, 255, 1024, dtype=np.uint8), rng.standard_normal(128)]
        generator = HashKeyGenerator(ATMConfig())
        key = generator.compute(make_task(arrays), (1024 + 128) / 2048)
        assert key.sampled_bytes == 1024 + 128
        assert generator.shuffle_memory_bytes() == key.sampled_bytes * 4
        check_family(generator, ReferenceKeyGenerator(ATMConfig()), TT, arrays, key.p)


class TestCachesNeverDecideAValue:
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("case", ["one_float64", "multi_mixed_dtypes"])
    def test_cache_on_equals_cache_off(self, case, p):
        arrays = array_sets()[case]
        cached = HashKeyGenerator(ATMConfig())
        task = make_task(arrays)
        for _ in range(3):
            # A fresh generator's first call always misses: nothing cached.
            uncached = HashKeyGenerator(ATMConfig()).compute(task, p)
            assert cached.compute(task, p).value == uncached.value
        assert cached.counters["key_cache_hits"] == 2

    def test_a_key_assembled_from_cached_digests_is_the_cold_key(self):
        arrays = array_sets()["multi_uniform"]
        for p in P_GRID:
            generator = HashKeyGenerator(ATMConfig())
            task = make_task(arrays)
            cold = generator.compute(task, p).value
            task.accesses[0].region.bump_version()  # same bytes, whole key stale
            assert generator.compute(task, p).value == cold
            assert generator.counters["digest_cache_hits"] == len(arrays) - 1

    @pytest.mark.parametrize("case", ["one_float64", "multi_uniform"])
    def test_prefix_growth_preserves_keys(self, case):
        """Growing the stored shuffle (larger p) must not change earlier keys,
        nor strand the digests taken under the shorter prefix."""
        new = HashKeyGenerator(ATMConfig())
        task = make_task(array_sets()[case])
        small_before = new.compute(task, 0.01).value
        new.compute(task, 0.4)  # grows the stored prefix
        assert new.counters["shuffle_regrowths"] == 1
        assert new.compute(task, 0.01).value == small_before
        assert HashKeyGenerator(ATMConfig()).compute(task, 0.01).value == small_before


class TestAWriteRereadsOnlyTheWrittenInput:
    @pytest.mark.parametrize("p", [0.001, 0.25, 1.0])
    def test_write_to_one_input_of_three(self, p):
        rng = np.random.default_rng(12)
        arrays = [rng.standard_normal(2048) for _ in range(3)]
        generator = HashKeyGenerator(ATMConfig())
        task = make_task(arrays)
        before = generator.compute(task, p)
        arrays[1][:] += 1.0
        task.accesses[1].region.bump_version()
        misses = generator.counters["digest_cache_misses"]
        with mock.patch.object(
            DataRegion, "to_bytes_view", autospec=True, side_effect=DataRegion.to_bytes_view
        ) as read:
            after = generator.compute(task, p)
        assert [call.args[0] for call in read.call_args_list] == [task.accesses[1].region]
        assert generator.counters["digest_cache_misses"] == misses + 1
        assert after.value != before.value
        assert after.value == HashKeyGenerator(ATMConfig()).compute(task, p).value


class TestLayoutKeyedCaches:
    """Cached digests are filed by the per-input byte layout and, for views
    that are not C-contiguous, by the view's own layout.
    """

    def test_shared_region_across_layouts(self):
        """Same type, same total bytes, split differently: the region at
        ordinal 1 of both owns different slots of the shuffle in each."""
        rng = np.random.default_rng(11)
        shared = rng.standard_normal(8)          # 64 bytes, ordinal 1 in both
        b, c = rng.standard_normal(8), rng.standard_normal(16)
        d, e = rng.standard_normal(16), rng.standard_normal(8)
        layout_one = [b, shared, c]              # sizes (64, 64, 128)
        layout_two = [d, shared, e]              # sizes (128, 64, 64)
        config = ATMConfig()
        cached = HashKeyGenerator(config)
        key_one = cached.compute(make_task(layout_one), 0.05)
        key_two = cached.compute(make_task(layout_two), 0.05)
        fresh = HashKeyGenerator(config)
        assert fresh.compute(make_task(layout_two), 0.05).value == key_two.value
        assert fresh.compute(make_task(layout_one), 0.05).value == key_one.value
        for layout in (layout_one, layout_two):
            check_family(cached, ReferenceKeyGenerator(config), TT, layout, 0.05)

    @pytest.mark.parametrize("p", [0.25, 1.0])
    def test_two_strided_views_of_one_span_do_not_alias(self, p):
        """``A`` and ``B`` touch the same byte span of ``base`` through
        different strides: equal ``region_key``, different content."""
        base = np.arange(16.0).reshape(4, 4)
        a = base[0:3:2, 0:3:2]
        b = base.T[0:3:2, 0:3:2]
        assert DataRegion(a).region_key == DataRegion(b).region_key
        assert DataRegion(a).nbytes == DataRegion(b).nbytes
        assert DataRegion(a).cache_key != DataRegion(b).cache_key
        for arity in (1, 2):
            generator = HashKeyGenerator(ATMConfig())
            key_a = generator.compute(make_task([a] * arity), p)
            key_b = generator.compute(make_task([b] * arity), p)
            assert key_b.value == HashKeyGenerator(ATMConfig()).compute(
                make_task([b] * arity), p
            ).value
            assert key_a.value != key_b.value

    def test_contiguous_regions_keep_their_token(self):
        block = np.arange(64.0)[8:24]
        region = DataRegion(block)
        assert region.cache_key is region.region_key


class TestCacheEntriesAreReplacedAndCharged:
    def test_a_write_replaces_its_entries(self):
        """Versions come from one monotonic clock: an entry for a version
        that has moved can never hit again, so it must not stay."""
        rng = np.random.default_rng(13)
        fixed, moving = rng.standard_normal(256), rng.standard_normal(256)
        generator = HashKeyGenerator(ATMConfig())
        task = make_task([fixed, moving])
        for _ in range(1000):
            task.accesses[1].region.bump_version()
            generator.compute(task, 0.25)
        info = generator.cache_info()
        assert info["cache_entries"] == 3  # one whole key, two digests
        assert info["digest_cache_hits"] == 999  # `fixed`, after its first read

    @staticmethod
    def _tasks(arity: int, n: int) -> list[Task]:
        tasks = [make_task([np.zeros(8) for _ in range(arity)]) for _ in range(n)]
        for task in tasks:
            for access in task.inputs:
                access.region.version  # registers the base: the registry's bytes
        return tasks

    @staticmethod
    def _traced_growth(generator, tasks, p) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for task in tasks:
                generator.compute(task, p)
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("p", [0.5, 1.0])
    @pytest.mark.parametrize("arity", [1, 2, 3, 4])
    def test_charge_is_within_a_quarter_of_tracemalloc(self, arity, p):
        tasks = self._tasks(arity, 2001)
        generator = HashKeyGenerator(ATMConfig(key_cache_budget_bytes=1 << 40))
        generator.compute(tasks[0], p)  # shuffle record, scratch: not entries
        charged = generator.cache_info()["cache_bytes"]
        traced = self._traced_growth(generator, tasks[1:], p)
        charged = generator.cache_info()["cache_bytes"] - charged
        assert generator.cache_info()["cache_entries"] == 2001 * (arity + (arity > 1))
        assert abs(charged - traced) <= 0.25 * traced, (charged, traced)

    def test_budget_bounds_real_memory(self):
        budget = 1 << 20
        tasks = self._tasks(2, 2501)
        generator = HashKeyGenerator(ATMConfig(key_cache_budget_bytes=budget))
        generator.compute(tasks[0], 1.0)
        traced = self._traced_growth(generator, tasks[1:], 1.0)
        info = generator.cache_info()
        assert info["cache_entries"] < 3 * 2501  # the budget did evict
        assert info["cache_bytes"] <= budget
        assert traced <= 1.5 * budget


class TestCacheCountersUnderThreads:
    def test_digests_are_read_and_replaced_on_worker_threads(self):
        """``compute`` runs on every worker thread; a lost update breaks the
        sums, a torn (version, digest) pair breaks a value.

        The counters feed ``cache_info()`` (the bench's hit ratios).  One
        thread keeps announcing writes to an input (same bytes, new version)
        while the others key the tasks that read it.
        """
        generator = HashKeyGenerator(ATMConfig())
        shared = np.arange(512, dtype=np.float64)
        pairs = [
            make_task([shared, np.arange(64, dtype=np.float64)]),
            make_task([np.arange(64, 128, dtype=np.float64), shared]),
        ]
        expected = [HashKeyGenerator(ATMConfig()).compute(task, 0.05).value for task in pairs]
        threads_n, calls_each = 4, 2000
        wrong = []
        done = threading.Event()

        def worker():
            for i in range(calls_each):
                if generator.compute(pairs[i & 1], 0.05).value != expected[i & 1]:
                    wrong.append(i)

        def writer():
            region = pairs[0].accesses[0].region
            while not done.is_set():
                region.bump_version()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(threads_n)]
            announcer = threading.Thread(target=writer)
            announcer.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            done.set()
            announcer.join(timeout=120)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        assert not wrong
        info = generator.cache_info()
        assert info["key_cache_hits"] + info["key_cache_misses"] == threads_n * calls_each
        # Every whole-key miss of a two-input task looks both digests up.
        assert info["digest_cache_hits"] + info["digest_cache_misses"] == (
            2 * info["key_cache_misses"]
        )
        assert info["cache_entries"] == 2 + 4  # whole keys + digests, none stranded


class TestDigestCacheInvalidation:
    def test_write_through_copy_from_changes_next_key(self):
        rng = np.random.default_rng(5)
        big = rng.standard_normal(8192)
        small = rng.standard_normal(64)
        generator = HashKeyGenerator(ATMConfig())
        task = make_task([big, small])
        before = generator.compute(task, 0.05)
        assert generator.compute(task, 0.05).value == before.value  # cache hit
        assert generator.counters["key_cache_hits"] >= 1
        # Commit a write through the sanctioned path: the next key changes.
        task.accesses[1].region.copy_from(small + 123.0)
        after = generator.compute(task, 0.05)
        assert after.value != before.value

    def test_bump_version_invalidates_without_content_change_check(self):
        """A version bump alone forces recomputation (conservative, safe)."""
        rng = np.random.default_rng(6)
        data = rng.standard_normal(4096)
        generator = HashKeyGenerator(ATMConfig())
        task = make_task([data])
        before = generator.compute(task, 0.1)
        misses_before = generator.counters["key_cache_misses"]
        task.accesses[0].region.bump_version()
        after = generator.compute(task, 0.1)
        # Same bytes -> same key, but recomputed (cache missed on new version).
        assert after.value == before.value
        assert generator.counters["key_cache_misses"] == misses_before + 1

    def test_end_to_end_task_write_invalidates(self):
        """A write committed by the runtime changes the consumer's next key."""
        from repro.session import Session
        from repro.runtime.data import InOut

        rng = np.random.default_rng(7)
        shared = rng.standard_normal(2048)
        generator = HashKeyGenerator(ATMConfig())
        probe = make_task([shared])
        before = generator.compute(probe, 0.25)

        writer_type = TaskType("equiv-writer", memoizable=False)

        def writer(buf):
            buf += 1.0

        runtime = Session(executor="serial", cores=1)
        runtime.submit(writer_type, writer, accesses=[InOut(shared)], args=(shared,))
        runtime.finish()

        after = generator.compute(make_task([shared]), 0.25)
        assert after.value != before.value
