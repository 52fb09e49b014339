"""Tests for type descriptors and type-aware byte-significance ordering."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.dtypes import (
    TypeDescriptor,
    describe_array,
    describe_dtype,
    significance_order,
)
from tests.reference import dtypes_reference as frozen


class TestDescribeArray:
    def test_float32(self):
        desc = describe_array(np.zeros(4, dtype=np.float32))
        assert desc.itemsize == 4
        assert desc.kind == "f"

    def test_float64(self):
        desc = describe_array(np.zeros(4, dtype=np.float64))
        assert desc.itemsize == 8

    def test_int32(self):
        desc = describe_array(np.zeros(4, dtype=np.int32))
        assert desc.kind == "i"

    def test_uint8_single_byte(self):
        desc = describe_array(np.zeros(4, dtype=np.uint8))
        assert not desc.is_multibyte

    def test_native_byteorder_resolved(self):
        desc = describe_array(np.zeros(2, dtype=np.float32))
        assert desc.byteorder in ("little", "big")

    @pytest.mark.parametrize("dtype,component", [
        ("<c8", "<f4"), ("<c16", "<f8"), (">c8", ">f4"), (">c16", ">f8"),
    ])
    def test_complex_is_described_by_its_float_component(self, dtype, component):
        """Two floats side by side: the real part's sign/exponent byte is on
        level 0 beside the imaginary part's, not on level ``itemsize / 2``."""
        assert describe_dtype(np.dtype(dtype)) == describe_dtype(np.dtype(component))

    @pytest.mark.parametrize("dtype", ["V48", "S40", "U3", [("a", "<f8"), ("b", "<i2")]])
    def test_raw_record_and_string_dtypes_are_single_byte_elements(self, dtype):
        desc = describe_dtype(np.dtype(dtype))
        assert desc.itemsize == 1 and desc.msb_first_byte_offsets() == [0]


class TestMSBOffsets:
    def test_little_endian_float32(self):
        desc = TypeDescriptor("float32", 4, "f", "little")
        assert desc.msb_first_byte_offsets() == [3, 2, 1, 0]

    def test_big_endian(self):
        desc = TypeDescriptor("float32", 4, "f", "big")
        assert desc.msb_first_byte_offsets() == [0, 1, 2, 3]

    def test_single_byte(self):
        desc = TypeDescriptor("uint8", 1, "u", "little")
        assert desc.msb_first_byte_offsets() == [0]


class TestSignificanceLevels:
    """Which bytes share a significance level, read off the shuffled order."""

    def _levels(self, descriptor, nbytes, sizes):
        order = significance_order([(descriptor, nbytes)], np.random.default_rng(0))
        bounds = np.cumsum([0] + sizes)
        return [sorted(order[a:b].tolist()) for a, b in zip(bounds[:-1], bounds[1:])]

    def test_float32_levels(self):
        desc = TypeDescriptor("float32", 4, "f", "little")
        # Little-endian: byte 3 of each element is the MSB (level 0).
        assert self._levels(desc, 8, [2, 2, 2, 2]) == [[3, 7], [2, 6], [1, 5], [0, 4]]

    def test_single_byte_type_is_one_level(self):
        desc = TypeDescriptor("uint8", 1, "u", "little")
        order = significance_order([(desc, 5)], np.random.default_rng(0))
        assert order.tolist() == np.random.default_rng(0).permutation(5).tolist()

    def test_trailing_partial_element(self):
        desc = TypeDescriptor("float32", 4, "f", "little")
        # Bytes 4 and 5 form no element: they rank with the least significant.
        assert self._levels(desc, 6, [1, 1, 1, 3]) == [[3], [2], [1], [0, 4, 5]]


class TestSignificanceOrder:
    def _order(self, descriptors, seed=0):
        rng = np.random.default_rng(seed)
        return significance_order(descriptors, rng)

    def test_is_a_permutation(self):
        desc = TypeDescriptor("float32", 4, "f", "little")
        order = self._order([(desc, 16), (desc, 8)])
        assert sorted(order.tolist()) == list(range(24))

    def test_msb_bytes_come_first(self):
        desc = TypeDescriptor("float32", 4, "f", "little")
        nbytes = 16
        order = self._order([(desc, nbytes)])
        # The first nbytes/4 indexes must all be MSB positions (offset 3 mod 4).
        first_group = order[: nbytes // 4]
        assert all(index % 4 == 3 for index in first_group.tolist())

    def test_empty_input(self):
        assert self._order([]).size == 0

    def test_mixed_types(self):
        f32 = TypeDescriptor("float32", 4, "f", "little")
        i64 = TypeDescriptor("int64", 8, "i", "little")
        order = self._order([(f32, 8), (i64, 16)])
        assert sorted(order.tolist()) == list(range(24))
        # Level 0 contains MSBs of both regions: 2 from float32, 2 from int64.
        level0 = set(order[:4].tolist())
        assert {3, 7} <= level0          # float32 MSBs at offsets 3 and 7
        assert {8 + 7, 8 + 15} <= level0  # int64 MSBs at global offsets 15 and 23

    def test_deterministic_for_same_rng_seed(self):
        desc = TypeDescriptor("float64", 8, "f", "little")
        a = self._order([(desc, 64)], seed=7)
        b = self._order([(desc, 64)], seed=7)
        assert np.array_equal(a, b)

    def test_different_seed_changes_shuffle(self):
        desc = TypeDescriptor("float64", 8, "f", "little")
        a = self._order([(desc, 64)], seed=1)
        b = self._order([(desc, 64)], seed=2)
        assert not np.array_equal(a, b)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_permutation_property(self, n_elements, seed):
        desc = TypeDescriptor("float32", 4, "f", "little")
        nbytes = 4 * n_elements
        order = self._order([(desc, nbytes)], seed=seed)
        assert sorted(order.tolist()) == list(range(nbytes))


F8 = describe_dtype(np.dtype("f8"))
F4 = describe_dtype(np.dtype("f4"))
I2 = describe_dtype(np.dtype("i2"))
U1 = describe_dtype(np.dtype("u1"))
BIG_F4 = describe_dtype(np.dtype(">f4"))
RAW3 = TypeDescriptor("void24", 3, "V", "little")


class TestPrefixEqualsFrozenFullOrder:
    """``significance_order(..., count)`` is the head of the parent's full order."""

    CASES = {
        "one_f8": [(F8, 4096)],
        "mixed_itemsizes": [(F8, 512), (U1, 77), (F4, 256), (I2, 30), (BIG_F4, 64)],
        "trailing_partial_elements": [(F4, 30), (RAW3, 20), (F8, 13), (I2, 1)],
        "zero_length_inputs": [(F8, 0), (F4, 16), (U1, 0), (F8, 0), (I2, 6)],
        "all_empty": [(F8, 0), (U1, 0)],
        "no_inputs": [],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_prefix_length_class(self, case):
        descriptors = self.CASES[case]
        total = sum(nbytes for _, nbytes in descriptors)
        full = frozen.significance_order(descriptors, np.random.default_rng(11))
        assert np.array_equal(
            significance_order(descriptors, np.random.default_rng(11)), full
        )
        for count in {0, 1, total // 8, total // 8 + 1, total // 2, total - 1, total}:
            if count < 0:
                continue
            prefix = significance_order(descriptors, np.random.default_rng(11), count)
            assert prefix.dtype == full.dtype
            assert np.array_equal(prefix[:count], full[:count]), count

    @given(
        layout=st.lists(
            st.tuples(st.sampled_from([F8, F4, I2, U1, BIG_F4, RAW3]), st.integers(0, 70)),
            max_size=5,
        ),
        seed=st.integers(0, 2 ** 32),
        fraction=st.floats(0, 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_prefix_property(self, layout, seed, fraction):
        total = sum(nbytes for _, nbytes in layout)
        count = int(total * fraction)
        full = frozen.significance_order(layout, np.random.default_rng(seed))
        prefix = significance_order(layout, np.random.default_rng(seed), count)
        assert np.array_equal(prefix[:count], full[:count])

    def test_one_level_prefix_builds_one_level(self):
        """Regression fence (no timing): the parent peaked at 33 x N bytes."""
        nbytes = 1 << 20
        descriptors = [(F8, nbytes)]
        tracemalloc.start()
        try:
            prefix = significance_order(descriptors, np.random.default_rng(0), nbytes // 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prefix.size == nbytes // 8
        assert peak < 4 * nbytes
