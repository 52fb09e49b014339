"""Tests for ATM hash-key generation (input sampling and type-aware shuffles)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.keygen import HashKeyGenerator
from repro.common.config import ATMConfig
from repro.runtime.data import In, Out
from repro.runtime.task import Task, TaskType

TT = TaskType("keygen-test", memoizable=True)


def make_task(inputs, outputs=None):
    accesses = [In(arr) for arr in inputs]
    for out in outputs or []:
        accesses.append(Out(out))
    return Task(task_type=TT, function=lambda: None, accesses=accesses, task_id=0)


class TestKeyComputation:
    def test_identical_inputs_same_key(self):
        generator = HashKeyGenerator(ATMConfig())
        data = np.arange(64, dtype=np.float32)
        k1 = generator.compute(make_task([data]), p=1.0)
        k2 = generator.compute(make_task([data.copy()]), p=1.0)
        assert k1.value == k2.value

    def test_different_inputs_different_key(self):
        generator = HashKeyGenerator(ATMConfig())
        a = np.arange(64, dtype=np.float32)
        b = a.copy()
        b[10] += 1.0
        assert generator.compute(make_task([a]), 1.0).value != generator.compute(make_task([b]), 1.0).value

    def test_key_records_p_and_byte_counts(self):
        generator = HashKeyGenerator(ATMConfig())
        data = np.zeros(64, dtype=np.float32)   # 256 bytes
        key = generator.compute(make_task([data]), p=0.5)
        assert key.p == 0.5
        assert key.sampled_bytes == 128
        assert key.total_bytes == 256

    def test_small_p_samples_at_least_one_byte(self):
        generator = HashKeyGenerator(ATMConfig())
        data = np.zeros(8, dtype=np.float32)
        key = generator.compute(make_task([data]), p=2.0 ** -15)
        assert key.sampled_bytes == 1

    def test_no_input_task_keyed_by_type(self):
        generator = HashKeyGenerator(ATMConfig())
        task = make_task([], outputs=[np.zeros(4)])
        key1 = generator.compute(task, 1.0)
        key2 = generator.compute(make_task([], outputs=[np.zeros(4)]), 1.0)
        assert key1.value == key2.value
        assert key1.total_bytes == 0

    def test_multiple_inputs_concatenated(self):
        generator = HashKeyGenerator(ATMConfig())
        a = np.arange(16, dtype=np.float32)
        b = np.arange(16, 32, dtype=np.float32)
        key_ab = generator.compute(make_task([a, b]), 1.0)
        key_ba = generator.compute(make_task([b, a]), 1.0)
        assert key_ab.value != key_ba.value

    def test_different_p_gives_different_key_for_same_data(self):
        generator = HashKeyGenerator(ATMConfig())
        data = np.arange(256, dtype=np.float64)
        full = generator.compute(make_task([data]), 1.0)
        sampled = generator.compute(make_task([data]), 0.25)
        assert full.value != sampled.value or full.sampled_bytes != sampled.sampled_bytes


class TestSampling:
    def test_msb_sampling_ignores_low_order_perturbations(self):
        """Type-aware MSB-first selection at small p must not see low-bit jitter."""
        generator = HashKeyGenerator(ATMConfig(type_aware=True))
        base = np.linspace(1.0, 2.0, 128, dtype=np.float64)
        jittered = base + 1e-14
        p = 1.0 / 8.0  # selects exactly the MSB of every float64 element
        key_base = generator.compute(make_task([base]), p)
        key_jittered = generator.compute(make_task([jittered]), p)
        assert key_base.value == key_jittered.value

    def test_full_p_detects_low_order_perturbations(self):
        generator = HashKeyGenerator(ATMConfig(type_aware=True))
        base = np.linspace(1.0, 2.0, 128, dtype=np.float64)
        jittered = base + 1e-14
        assert generator.compute(make_task([base]), 1.0).value != generator.compute(
            make_task([jittered]), 1.0
        ).value

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    def test_complex_parts_each_keep_their_most_significant_byte(self, dtype):
        """A complex element is two floats: at ``p = 1 / component size`` the
        key reads the sign/exponent byte of the real *and* the imaginary part."""
        generator = HashKeyGenerator(ATMConfig(type_aware=True))
        rng = np.random.default_rng(0)
        a = (rng.standard_normal(64) + 1j * rng.standard_normal(64)).astype(dtype)
        scaled, real_only, imag_only = a.copy(), a.copy(), a.copy()
        scaled.real *= 1e6
        real_only.real *= -1.0
        imag_only.imag *= -1.0
        key = generator.compute(make_task([a]), 1 / 16).value
        assert generator.compute(make_task([scaled]), 1 / 16).value != key
        p = 2.0 / a.itemsize
        key = generator.compute(make_task([a]), p).value
        assert generator.compute(make_task([real_only]), p).value != key
        assert generator.compute(make_task([imag_only]), p).value != key

    def test_selected_byte_count(self):
        generator = HashKeyGenerator(ATMConfig())
        assert generator.selected_byte_count(1000, 0.1) == 100
        assert generator.selected_byte_count(1000, 1.0) == 1000
        assert generator.selected_byte_count(1000, 2.0 ** -15) == 1
        assert generator.selected_byte_count(0, 0.5) == 0


class TestShuffleCaching:
    def test_shuffle_reused_per_task_type_and_size(self):
        generator = HashKeyGenerator(ATMConfig())
        data = np.arange(64, dtype=np.float32)   # 256 bytes
        generator.compute(make_task([data]), 0.5)
        first = generator.shuffle_memory_bytes()
        # The truncated prefix (ceil(256 * 0.5) = 128 slots, uint32) and
        # nothing else: two whole significance levels are read as a lattice.
        assert first == 128 * 4
        generator.compute(make_task([data]), 0.25)  # smaller p reuses the prefix
        assert generator.shuffle_memory_bytes() == first
        assert generator.shuffle_record_count() == 1

    def test_full_sampling_stores_no_shuffle(self):
        """p = 1.0 reads every byte in order; no index vector is needed."""
        generator = HashKeyGenerator(ATMConfig())
        generator.compute(make_task([np.zeros(16, dtype=np.float32)]), 1.0)
        generator.compute(make_task([np.zeros(32, dtype=np.float32)]), 1.0)
        assert generator.shuffle_memory_bytes() == 0
        assert generator.shuffle_record_count() == 0

    def test_new_shuffle_for_new_input_size(self):
        generator = HashKeyGenerator(ATMConfig())
        generator.compute(make_task([np.zeros(16, dtype=np.float32)]), 0.5)
        assert generator.shuffle_record_count() == 1
        generator.compute(make_task([np.zeros(32, dtype=np.float32)]), 0.5)
        assert generator.shuffle_record_count() == 2

    def test_shuffle_prefix_grows_for_larger_p(self):
        generator = HashKeyGenerator(ATMConfig())
        data = np.arange(256, dtype=np.float32)
        generator.compute(make_task([data]), 0.1)
        small = generator.shuffle_memory_bytes()
        generator.compute(make_task([data]), 0.5)
        assert generator.shuffle_memory_bytes() > small
        assert generator.counters["shuffle_regrowths"] == 1

    def test_shuffle_lru_bound(self):
        generator = HashKeyGenerator(ATMConfig(shuffle_cache_entries=2))
        for n in (16, 32, 64, 128):
            generator.compute(make_task([np.zeros(n, dtype=np.float32)]), 0.5)
        assert generator.shuffle_record_count() == 2
        assert generator.counters["shuffle_evictions"] == 2

    def test_deterministic_across_generator_instances(self):
        data = np.arange(1024, dtype=np.float32)
        k1 = HashKeyGenerator(ATMConfig()).compute(make_task([data]), 0.05)
        k2 = HashKeyGenerator(ATMConfig()).compute(make_task([data]), 0.05)
        assert k1.value == k2.value

    def test_plain_shuffle_mode(self):
        generator = HashKeyGenerator(ATMConfig(type_aware=False))
        data = np.arange(64, dtype=np.float32)
        key = generator.compute(make_task([data]), 0.5)
        assert key.sampled_bytes == 128

    def test_lookup3_hash_function_option(self):
        generator = HashKeyGenerator(ATMConfig(hash_function="lookup3"))
        data = np.arange(8, dtype=np.float32)
        assert generator.compute(make_task([data]), 1.0).value >= 0
