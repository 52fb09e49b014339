"""Tests for the hashing substrate."""

from __future__ import annotations

import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import hashing
from repro.common.hashing import (
    HASH_FUNCTIONS,
    HashKey,
    hash_bytes,
    hash_views,
    jenkins_lookup3,
    jenkins_one_at_a_time,
    splitmix64,
)
from tests.reference import hashing_reference as frozen

BLOCK_BYTES = hashing._BLOCK_BYTES


class TestJenkinsOneAtATime:
    def test_deterministic(self):
        assert jenkins_one_at_a_time(b"hello") == jenkins_one_at_a_time(b"hello")

    def test_empty_input(self):
        assert jenkins_one_at_a_time(b"") == 0

    def test_known_sensitivity(self):
        assert jenkins_one_at_a_time(b"hello") != jenkins_one_at_a_time(b"hellp")

    def test_seed_changes_result(self):
        assert jenkins_one_at_a_time(b"data", seed=1) != jenkins_one_at_a_time(b"data", seed=2)

    def test_fits_32_bits(self):
        value = jenkins_one_at_a_time(b"some longer buffer " * 10)
        assert 0 <= value < 2 ** 32

    def test_accepts_numpy_arrays(self):
        arr = np.arange(16, dtype=np.uint8)
        assert jenkins_one_at_a_time(arr) == jenkins_one_at_a_time(arr.tobytes())


class TestJenkinsLookup3:
    def test_deterministic(self):
        data = b"the quick brown fox jumps over the lazy dog"
        assert jenkins_lookup3(data) == jenkins_lookup3(data)

    def test_64_bit_range(self):
        assert 0 <= jenkins_lookup3(b"abc") < 2 ** 64

    def test_different_lengths_differ(self):
        assert jenkins_lookup3(b"aaaa") != jenkins_lookup3(b"aaaaa")

    def test_block_boundary_sizes(self):
        # Exercise the 12-byte mixing loop boundaries.
        values = {jenkins_lookup3(bytes(range(n))) for n in (0, 1, 11, 12, 13, 24, 25)}
        assert len(values) == 7

    def test_seed_sensitivity(self):
        assert jenkins_lookup3(b"abc", seed=0) != jenkins_lookup3(b"abc", seed=1)

    def test_single_byte_change(self):
        base = bytearray(range(64))
        mutated = bytearray(base)
        mutated[37] ^= 0x01
        assert jenkins_lookup3(bytes(base)) != jenkins_lookup3(bytes(mutated))


class TestSplitmix64:
    def test_scalar_roundtrip_type(self):
        assert isinstance(splitmix64(42), int)

    def test_vectorised_matches_scalar(self):
        values = np.arange(10, dtype=np.uint64)
        vector = splitmix64(values)
        for index, value in enumerate(values):
            assert int(vector[index]) == splitmix64(int(value))

    def test_bijective_on_sample(self):
        sample = np.arange(1000, dtype=np.uint64)
        assert len(set(np.asarray(splitmix64(sample)).tolist())) == 1000


class TestHashBytes:
    def test_deterministic(self):
        data = np.random.default_rng(0).integers(0, 255, 4096, dtype=np.uint8)
        assert hash_bytes(data) == hash_bytes(data.copy())

    def test_empty_buffer(self):
        assert isinstance(hash_bytes(b""), int)

    def test_length_sensitivity(self):
        assert hash_bytes(b"\x00" * 8) != hash_bytes(b"\x00" * 16)

    def test_order_sensitivity(self):
        a = bytes(range(32))
        b = bytes(reversed(range(32)))
        assert hash_bytes(a) != hash_bytes(b)

    def test_single_byte_flip(self):
        base = np.zeros(1 << 16, dtype=np.uint8)
        mutated = base.copy()
        mutated[12345] = 1
        assert hash_bytes(base) != hash_bytes(mutated)

    def test_seed_sensitivity(self):
        assert hash_bytes(b"payload", seed=1) != hash_bytes(b"payload", seed=2)

    def test_accepts_non_byte_arrays(self):
        floats = np.linspace(0, 1, 100)
        assert hash_bytes(floats) == hash_bytes(floats.tobytes())

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_itself_property(self, data):
        assert hash_bytes(data) == hash_bytes(bytes(data))

    @given(st.binary(min_size=1, max_size=100), st.integers(min_value=0, max_value=99))
    @settings(max_examples=50, deadline=None)
    def test_flip_changes_hash_property(self, data, index):
        index %= len(data)
        mutated = bytearray(data)
        mutated[index] ^= 0xFF
        assert hash_bytes(data) != hash_bytes(bytes(mutated))


    @pytest.mark.parametrize("seed", [-1, 0, 2 ** 64, 2 ** 64 + 5])
    @pytest.mark.parametrize("data", [b"", b"abc", bytes(range(64))])
    def test_seed_is_taken_modulo_2_64(self, data, seed):
        # The parent masked the seed for non-empty input only and raised
        # OverflowError on the empty buffer.
        assert hash_bytes(data, seed) == frozen.hash_bytes(data, seed & (2 ** 64 - 1))

    def test_golden_values_of_the_parent_commit(self):
        assert hash_bytes(b"", 0) == 0xE2AAC06220126021
        assert hash_bytes(b"", 2 ** 64 - 1) == 0x4A476B57B4159846
        assert hash_bytes(b"abc", 5) == 0x3D9D9A7071AE2C71
        assert hash_bytes(b"abc", -1) == 0x1A1A4708F358F2F8


def _random_bytes(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8)


class TestHashViews:
    """The streaming entry point == the frozen ``hash_bytes`` of the concatenation."""

    def test_gathered_subset(self):
        data = np.arange(100, dtype=np.uint8)
        indices = np.array([0, 10, 20], dtype=np.int64)
        assert hash_views((data[indices],)) == frozen.hash_bytes(data[indices])

    def test_no_views_and_empty_views(self):
        empty = np.empty(0, dtype=np.uint8)
        assert hash_views(()) == hash_views((empty, b"")) == frozen.hash_bytes(b"")

    @pytest.mark.parametrize("function", ["lookup3", "one_at_a_time"])
    def test_scalar_functions_hash_the_concatenation(self, function):
        data = np.arange(30, dtype=np.uint8)
        expected = HASH_FUNCTIONS[function](data, 3)
        assert hash_views((data,), 3, function) == expected
        assert hash_views((data[:7], data[7:7], data[7:]), 3, function) == expected

    def test_ignores_unsampled_bytes(self):
        data = np.arange(100, dtype=np.uint8)
        mutated = data.copy()
        mutated[50] = 0
        indices = np.array([1, 2, 3], dtype=np.int64)
        assert hash_views((data[indices],)) == hash_views((mutated[indices],))

    @pytest.mark.parametrize(
        "n", [1, 7, 8, 9, BLOCK_BYTES - 1, BLOCK_BYTES, BLOCK_BYTES + 1, 4 * BLOCK_BYTES + 7]
    )
    def test_block_boundaries(self, n):
        data = _random_bytes(n + 1)
        aligned, odd = data[:n], data[1:]
        assert hash_bytes(aligned, 9) == frozen.hash_bytes(aligned.copy(), 9)
        # An odd-offset view is read through the staging block.
        assert hash_bytes(odd, 9) == frozen.hash_bytes(odd.copy(), 9)
        assert hash_views((odd[:3], odd[3:]), 9) == frozen.hash_bytes(odd.copy(), 9)

    def test_non_contiguous_and_typed_arrays(self):
        grid = np.random.default_rng(3).standard_normal((64, 48))
        for array in (grid[:, ::2], grid.T, grid[::-1], grid.astype(np.float32)[5:, 3:]):
            expected = frozen.hash_bytes(np.ascontiguousarray(array).tobytes())
            assert hash_bytes(array) == expected
            assert hash_views((array[:10], array[10:])) == expected

    @given(
        data=st.data(),
        n=st.one_of(
            st.integers(0, 300),
            st.integers(BLOCK_BYTES - 9, BLOCK_BYTES + 9),
            st.integers(0, 4 * BLOCK_BYTES + 7),
        ),
        seed=st.integers(-(2 ** 65), 2 ** 65),
        offset=st.integers(0, 9),
        stride=st.sampled_from([1, 1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_split_into_views_property(self, data, n, seed, offset, stride):
        # Views start at any (odd) address and may be strided, i.e. non-contiguous.
        payload = _random_bytes(offset + n * stride, seed=n)[offset::stride]
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=5)))
        views = [payload[a:b] for a, b in zip([0] + cuts, cuts + [n])]
        expected = frozen.hash_bytes(payload.copy(), seed & (2 ** 64 - 1))
        assert hash_views(views, seed) == expected

    def test_each_thread_mixes_on_its_own_scratch(self):
        payloads = [_random_bytes(3 * BLOCK_BYTES + 5 + i, seed=i) for i in range(4)]
        expected = [frozen.hash_bytes(payload) for payload in payloads]
        results = [[] for _ in payloads]

        def worker(i):
            for _ in range(20):
                results[i].append(hash_views((payloads[i][:11], payloads[i][11:])))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results == [[value] * 20 for value in expected]

    def test_allocates_nothing_proportional_to_the_input(self):
        """Regression fence (no timing): the parent peaked at 4x the input."""
        size = 4 << 20
        buffer = _random_bytes(size)
        views = (buffer[: size // 3 + 1], buffer[size // 3 + 1: size // 2 + 3], buffer[size // 2 + 3:])
        hash_bytes(buffer)  # warm: this thread's scratch blocks and the salt table
        tracemalloc.start()
        try:
            hash_bytes(buffer)
            whole_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            hash_views(views)
            views_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert whole_peak < 64 * 1024
        assert views_peak < 64 * 1024


class TestHashKey:
    def test_bucket_uses_low_bits(self):
        key = HashKey(value=0b101101, p=1.0)
        assert key.bucket(4) == 0b1101

    def test_bucket_zero_bits(self):
        assert HashKey(value=12345).bucket(0) == 0

    def test_int_conversion(self):
        assert int(HashKey(value=77)) == 77

    def test_storage_is_eight_bytes(self):
        assert HashKey(value=1).storage_bytes == 8

    def test_registry_contains_all_functions(self):
        assert set(HASH_FUNCTIONS) == {"numpy", "lookup3", "one_at_a_time"}
