"""Equivalence proofs: the zero-copy/cached keygen vs the seed implementation.

The optimised :class:`~repro.atm.keygen.HashKeyGenerator` must produce
**bit-identical** ``HashKey.value`` to the preserved seed implementation
(:class:`~tests.reference.keygen_reference.ReferenceKeyGenerator`) for every
arity, shuffle flavour and sampling fraction, with the digest caches hot or
cold, while storing at most a fifth of the seed's shuffle bytes.

Also covers digest-cache invalidation: a write to a region must change the
next key.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.atm.keygen import HashKeyGenerator
from repro.common.config import ATMConfig
from repro.runtime.data import In, Out
from repro.runtime.task import Task, TaskType
from tests.reference.keygen_reference import ReferenceKeyGenerator

TT = TaskType("equiv-test", memoizable=True)

P_GRID = (0.001, 0.5, 1.0)


def make_task(arrays, outputs=()):
    accesses = [In(a) for a in arrays] + [Out(o) for o in outputs]
    return Task(task_type=TT, function=lambda: None, accesses=accesses, task_id=0)


def array_sets():
    rng = np.random.default_rng(42)
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
    }


class TestExactPipelineBitIdentical:
    @pytest.mark.parametrize("type_aware", [True, False])
    @pytest.mark.parametrize("p", P_GRID)
    @pytest.mark.parametrize("case", sorted(array_sets()))
    def test_bit_identical_to_seed(self, case, p, type_aware):
        arrays = array_sets()[case]
        config = ATMConfig(type_aware=type_aware)
        new = HashKeyGenerator(config)
        ref = ReferenceKeyGenerator(config)
        task = make_task(arrays)
        for _ in range(3):  # repeat: cold caches, then hot caches
            key_new = new.compute(task, p)
            key_ref = ref.compute(task, p)
            assert key_new.value == key_ref.value
            assert key_new.sampled_bytes == key_ref.sampled_bytes
            assert key_new.total_bytes == key_ref.total_bytes

    @pytest.mark.parametrize("p", P_GRID)
    def test_cache_on_equals_cache_off(self, p):
        arrays = array_sets()["multi_mixed_dtypes"]
        cached = HashKeyGenerator(ATMConfig())
        task = make_task(arrays)
        for _ in range(3):
            # A fresh generator's first call always misses: nothing cached.
            uncached = HashKeyGenerator(ATMConfig()).compute(task, p)
            assert cached.compute(task, p).value == uncached.value
        assert cached.counters["key_cache_hits"] == 2

    def test_no_input_task_matches_seed(self):
        config = ATMConfig()
        new = HashKeyGenerator(config)
        ref = ReferenceKeyGenerator(config)
        task = make_task([], outputs=[np.zeros(8)])
        assert new.compute(task, 1.0).value == ref.compute(task, 1.0).value

    def test_dense_fallback_boundary(self):
        """Keys stay identical on both sides of the dense-sample crossover."""
        arrays = array_sets()["multi_uniform"]
        config = ATMConfig()
        new = HashKeyGenerator(config)
        ref = ReferenceKeyGenerator(config)
        task = make_task(arrays)
        total = sum(a.nbytes for a in arrays)
        for count_fraction in (1 / 32, 1 / 16, 1 / 8, 0.9):
            p = count_fraction
            assert new.compute(task, p).value == ref.compute(task, p).value, p

    def test_prefix_growth_preserves_keys(self):
        """Growing the stored shuffle (larger p) must not change earlier keys."""
        arrays = array_sets()["one_float64"]
        config = ATMConfig()
        new = HashKeyGenerator(config)
        ref = ReferenceKeyGenerator(config)
        task = make_task(arrays)
        small_before = new.compute(task, 0.01).value
        new.compute(task, 0.4)  # grows the stored prefix
        assert new.compute(task, 0.01).value == small_before
        assert small_before == ref.compute(task, 0.01).value


    def test_sampled_shuffles_store_a_fifth_of_the_seed_bytes(self):
        """Truncated uint32 prefixes vs the seed's full int64 permutations."""
        rng = np.random.default_rng(8)
        arrays = [rng.standard_normal(1 << 14) for _ in range(4)]
        new = HashKeyGenerator(ATMConfig())
        ref = ReferenceKeyGenerator(ATMConfig())
        task = make_task(arrays)
        for p in (0.001, 0.01, 0.1):
            assert new.compute(task, p).value == ref.compute(task, p).value
        assert 5 * new.shuffle_memory_bytes() <= ref.shuffle_memory_bytes()


class TestLayoutKeyedCaches:
    """Cache entries must be keyed by the per-input byte layout.

    Two tasks of the same type and same total input bytes may split those
    bytes differently; a region appearing at the same ordinal in both must
    not reuse the other layout's cached sample segment.
    """

    def test_shared_region_across_layouts(self):
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
        ref = ReferenceKeyGenerator(config)
        assert ref.compute(make_task(layout_one), 0.05).value == key_one.value
        assert ref.compute(make_task(layout_two), 0.05).value == key_two.value


class TestCacheCountersUnderThreads:
    def test_hits_plus_misses_equal_calls(self):
        """``compute`` runs on every worker thread; a lost update breaks the sum.

        The counters feed ``cache_info()`` (the bench's key-cache hit ratio);
        the parent bumped them outside the generator lock.
        """
        generator = HashKeyGenerator(ATMConfig())
        small = np.arange(64, dtype=np.float64)
        pair = [np.arange(512, dtype=np.float64), np.arange(64, dtype=np.float64)]
        tasks = [make_task([small]), make_task(pair)]
        threads_n, calls_each = 4, 2000

        def worker():
            for i in range(calls_each):
                generator.compute(tasks[i & 1], 0.05)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        info = generator.cache_info()
        assert info["key_cache_hits"] + info["key_cache_misses"] == threads_n * calls_each
        # Every whole-key miss of the two-input task looks both segments up.
        assert info["digest_cache_hits"] + info["digest_cache_misses"] >= 2


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
