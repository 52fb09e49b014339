"""Tests for data regions and access annotations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.exceptions import TaskDefinitionError
from repro.runtime.data import (
    AccessMode,
    DataRegion,
    In,
    InOut,
    Out,
    as_region,
    total_bytes,
    validate_accesses,
)


class TestAccessMode:
    def test_in_reads_only(self):
        assert AccessMode.IN.reads and not AccessMode.IN.writes

    def test_out_writes_only(self):
        assert AccessMode.OUT.writes and not AccessMode.OUT.reads

    def test_inout_both(self):
        assert AccessMode.INOUT.reads and AccessMode.INOUT.writes


class TestDataRegion:
    def test_requires_numpy_array(self):
        with pytest.raises(TaskDefinitionError):
            DataRegion([1, 2, 3])

    def test_nbytes_and_shape(self):
        region = DataRegion(np.zeros((4, 4), dtype=np.float32))
        assert region.nbytes == 64
        assert region.shape == (4, 4)

    def test_views_of_same_buffer_share_base_id(self):
        base = np.zeros(100, dtype=np.float64)
        r1 = DataRegion(base[:50])
        r2 = DataRegion(base[50:])
        assert r1.base_id == r2.base_id
        assert not r1.overlaps(r2)

    def test_overlapping_views_detected(self):
        base = np.zeros(100, dtype=np.float64)
        r1 = DataRegion(base[:60])
        r2 = DataRegion(base[40:])
        assert r1.overlaps(r2)
        assert r2.overlaps(r1)

    def test_distinct_buffers_never_overlap(self):
        r1 = DataRegion(np.zeros(10))
        r2 = DataRegion(np.zeros(10))
        assert not r1.overlaps(r2)

    def test_reversed_view_interval_stays_inside_buffer(self):
        """Regression: a negative-stride view's data pointer addresses its
        first *logical* element (the highest address), so the interval must
        be anchored at the lowest touched byte, not extended upwards past
        the end of the buffer."""
        base = np.zeros(10, dtype=np.float64)
        reversed_region = DataRegion(base[::-1])
        assert reversed_region.byte_interval == (0, 80)
        assert reversed_region.overlaps(DataRegion(base[:5]))
        assert DataRegion(base[:5]).overlaps(reversed_region)
        tail = DataRegion(base[8:][::-1])
        assert tail.byte_interval == (64, 80)
        assert not tail.overlaps(DataRegion(base[:5]))

    def test_strided_1d_view_interval_covers_touched_bytes(self):
        """Regression: 1-D strided views used the contiguous formula
        (nbytes from the data pointer), under-covering the touched span."""
        base = np.zeros(10, dtype=np.float64)
        strided = DataRegion(base[::2])  # touches bytes 0..64+8
        assert strided.byte_interval == (0, 72)
        assert strided.overlaps(DataRegion(base[8:9]))  # byte 64..72

    def test_region_key_stable(self):
        base = np.zeros(16)
        assert DataRegion(base[4:8]).region_key == DataRegion(base[4:8]).region_key

    def test_copy_from_writes_through_to_application_memory(self):
        array = np.zeros(8)
        region = DataRegion(array)
        region.copy_from(np.arange(8, dtype=float))
        assert array.tolist() == list(range(8))

    def test_copy_from_reshapes(self):
        array = np.zeros((2, 4))
        DataRegion(array).copy_from(np.arange(8, dtype=float))
        assert array[1, 3] == 7.0

    def test_snapshot_is_independent_copy(self):
        array = np.arange(5, dtype=float)
        snap = DataRegion(array).snapshot()
        array[0] = 99.0
        assert snap[0] == 0.0

    def test_to_bytes_view_length(self):
        region = DataRegion(np.zeros(3, dtype=np.float64))
        assert region.to_bytes_view().shape == (24,)

    def test_non_contiguous_view_supported(self):
        base = np.zeros((8, 8), dtype=np.float32)
        column = base[:, 2]
        region = DataRegion(column)
        assert region.nbytes == 32
        assert region.to_bytes_view().size == 32

    def test_2d_block_of_4d_array_is_contiguous(self):
        blocks = np.zeros((2, 2, 4, 4), dtype=np.float32)
        region = DataRegion(blocks[1, 0])
        other = DataRegion(blocks[1, 1])
        assert not region.overlaps(other)


class TestAccessHelpers:
    def test_in_out_inout_modes(self):
        array = np.zeros(4)
        assert In(array).mode == AccessMode.IN
        assert Out(array).mode == AccessMode.OUT
        assert InOut(array).mode == AccessMode.INOUT

    def test_as_region_idempotent(self):
        region = DataRegion(np.zeros(4))
        assert as_region(region) is region

    def test_access_nbytes(self):
        assert In(np.zeros(4, dtype=np.float64)).nbytes == 32

    def test_named_region(self):
        assert In(np.zeros(2), name="weights").region.name == "weights"


class TestValidateAccesses:
    def test_conflicting_modes_rejected(self):
        array = np.zeros(4)
        with pytest.raises(TaskDefinitionError):
            validate_accesses([In(array), Out(array)])

    def test_duplicate_same_mode_allowed(self):
        array = np.zeros(4)
        validate_accesses([In(array), In(array)])

    def test_distinct_regions_allowed(self):
        validate_accesses([In(np.zeros(4)), Out(np.zeros(4))])


class TestTotalBytes:
    def test_sum_all(self):
        accesses = [In(np.zeros(4, dtype=np.float32)), Out(np.zeros(2, dtype=np.float64))]
        assert total_bytes(accesses) == 16 + 16

    def test_filter_by_mode(self):
        accesses = [In(np.zeros(4, dtype=np.float32)), Out(np.zeros(2, dtype=np.float64))]
        assert total_bytes(accesses, AccessMode.IN) == 16
        assert total_bytes(accesses, AccessMode.OUT) == 16


class TestRegionVersions:
    def test_fresh_region_has_stable_version(self):
        array = np.zeros(16)
        region = DataRegion(array)
        assert region.version == region.version

    def test_views_of_same_base_share_version(self):
        base = np.zeros(64)
        first, second = DataRegion(base[:32]), DataRegion(base[32:])
        assert first.version == second.version
        first.bump_version()
        assert first.version == second.version

    def test_version_token_reflects_identity_and_version(self):
        """A region's content is named by its cache key (which interval of
        which base) and its base's version (which write)."""
        base = np.zeros(64)
        first, second = DataRegion(base[:32]), DataRegion(base[32:])
        assert first.cache_key != second.cache_key  # different intervals
        assert DataRegion(base[:32]).cache_key == first.cache_key
        token_before = (first.cache_key, first.version)
        first.bump_version()
        assert (first.cache_key, first.version) != token_before

    def test_bump_changes_version_monotonically(self):
        region = DataRegion(np.zeros(8))
        before = region.version
        bumped = region.bump_version()
        assert bumped > before
        assert region.version == bumped

    def test_copy_from_bumps_version(self):
        region = DataRegion(np.zeros(8))
        before = region.version
        region.copy_from(np.ones(8))
        assert region.version > before

    def test_distinct_bases_have_distinct_histories(self):
        a, b = DataRegion(np.zeros(8)), DataRegion(np.zeros(8))
        va = a.bump_version()
        assert b.version != va

    def test_registry_autoremoves_collected_buffers(self):
        import gc

        from repro.runtime.data import region_versions

        region = DataRegion(np.zeros(8))
        _ = region.version
        key = region.base_id
        assert key in region_versions._entries
        del region
        gc.collect()
        # The weakref callback removed the dead entry.
        assert key not in region_versions._entries

    def test_graph_completion_bumps_output_versions(self):
        from repro.runtime.graph import TaskDependenceGraph
        from repro.runtime.task import Task, TaskType

        graph = TaskDependenceGraph()
        buffer = np.zeros(16)
        access = Out(buffer)
        before = access.region.version
        task = Task(
            task_type=TaskType("vers-test"), function=lambda: None,
            accesses=[access], task_id=-1,
        )
        graph.add_task(task)
        graph.complete_task(task)
        assert access.region.version > before
