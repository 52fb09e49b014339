"""One shared access per region and mode (``DataRegion.access``).

``In`` / ``Out`` / ``InOut`` over a region hand every task the region's one
live access in that mode, so a live task stores no access of its own:

* it is shared while alive — and distinct per mode;
* it is held weakly — the region keeps no strong reference to it, so a region
  whose tasks are gone is freed by reference counting alone (no cycle);
* a bare array gets a fresh region and a fresh access, with no cache;
* the cache never travels — a pickled or copied region starts without one;
* rebuilt tasks share it too — two descriptors naming one ref in one mode,
  rebuilt over one arena, yield one access object.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.common.exceptions import TaskDefinitionError
from repro.runtime.data import AccessMode, DataRegion, In, InOut, Out
from repro.runtime.net_wire import ChunkEncoder, NetBuffer, span_view
from repro.runtime.remote_task import WorkerArena, describe_task, rebuild_task
from repro.runtime.shm import SharedBufferRegistry
from repro.runtime.task import Task, TaskType
from repro.serving.gateway import TenantArena
from repro.session import Session
from tests.conftest import full_ship

TT = TaskType("shared-access")


def touch(*arrays) -> None:
    pass


def test_one_live_access_per_region_and_mode():
    region = DataRegion(np.zeros(8))
    first = In(region)
    assert In(region) is first
    assert region.access(AccessMode.IN) is first
    accesses = (first, Out(region), InOut(region))
    assert len({id(access) for access in accesses}) == 3
    assert [access.mode for access in accesses] == list(AccessMode)
    assert all(access.region is region for access in accesses)
    assert Out(region) is accesses[1] and InOut(region) is accesses[2]


def test_a_dead_access_is_rebuilt():
    region = DataRegion(np.zeros(8))
    dead = weakref.ref(In(region))
    assert dead() is None  # the region alone does not keep it
    assert In(region).mode is AccessMode.IN


def test_a_region_whose_tasks_are_gone_is_freed_without_the_collector():
    gc.collect()
    gc.disable()
    try:
        array = np.zeros(8)
        region = DataRegion(array)
        tasks = [
            Task(task_type=TT, function=touch, accesses=(In(region),)),
            Task(task_type=TT, function=touch, accesses=(In(region), Out(DataRegion(np.ones(2))))),
            Task(task_type=TT, function=touch, accesses=(InOut(region),)),
        ]
        array_ref, access_ref = weakref.ref(array), weakref.ref(tasks[0].accesses[0])
        del array, region
        assert array_ref() is not None
        tasks.clear()
        assert access_ref() is None
        assert array_ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("declare", [In, Out, InOut])
def test_a_bare_array_gets_a_fresh_region_without_a_cache(declare):
    array = np.zeros(8)
    access = declare(array, name="fresh")
    assert access.region._accesses is None
    assert access.region.name == "fresh"
    assert declare(array).region is not access.region


def test_pickled_and_copied_regions_carry_no_access_cache():
    region = DataRegion(np.arange(16.0)[4:12], name="block")
    kept = (In(region), Out(region))
    for twin in (pickle.loads(pickle.dumps(region)), copy.deepcopy(region), copy.copy(region)):
        assert twin._accesses is None
        assert twin.byte_interval == region.byte_interval
        access = In(twin)
        assert access is not kept[0] and access.region is twin
    assert In(region) is kept[0]


def test_conflicting_modes_on_one_region_still_raise():
    region = DataRegion(np.zeros(8), name="twice")
    with pytest.raises(TaskDefinitionError, match="twice"):
        Task(task_type=TT, function=touch, accesses=(In(region), Out(region)))
    with Session({"runtime": {"executor": "serial"}}) as session:
        with pytest.raises(TaskDefinitionError):
            session.submit(TT, touch, [InOut(region), In(region)])
        # The same shared access twice is one mode: allowed.
        task = session.submit(TT, touch, (In(region), In(region)))
        assert task.accesses[0] is task.accesses[1]


def test_a_submitted_declaration_is_a_tuple():
    region = DataRegion(np.zeros(8))
    declared = (In(region),)
    with Session({"runtime": {"executor": "serial"}}) as session:
        assert session.submit(TT, touch, declared).accesses is declared
        assert session.submit(TT, touch, [Out(region)]).accesses == (Out(region),)
        (task,) = session.submit_batch([(TT, touch, [InOut(region)])])
        assert type(task.accesses) is tuple


def _shipped(kind: str, base: np.ndarray):
    """``(ref, arena, close)``: a backend's array→ref function and, once the
    refs are taken, the arena its receiver rebuilds them in."""
    if kind == "worker":  # process pool: shared segments
        registry = SharedBufferRegistry()
        worker = WorkerArena(shared=True)

        def arena():
            worker.load(registry.table())
            return worker

        def close():
            worker.close()
            registry.close()

        return registry.array_ref, arena, close
    encoder = ChunkEncoder()
    if kind == "chunk":  # network endpoint: the spans one chunk touches
        def received():
            worker = WorkerArena()
            worker.load(full_ship(encoder))
            return worker

        return encoder.ref, received, lambda: None

    def tenant():  # gateway tenant: whole owning buffers, stored once
        arena = TenantArena()
        arena.store([
            NetBuffer(buffer_id, 0, span_view(owner, 0, owner.nbytes))
            for buffer_id, (owner, _start, _end) in encoder.spans().items()
        ])
        return arena

    return encoder.ref, tenant, lambda: None


@pytest.mark.parametrize("kind", ["worker", "chunk", "tenant"])
def test_rebuilt_tasks_naming_one_ref_and_mode_share_one_access(kind):
    base = np.arange(32.0)
    ref, arena, close = _shipped(kind, base)
    try:
        left, right = base[:16], base[16:]
        descriptors = [
            describe_task(task_id, task_id, TT, touch, accesses, (), {}, ref)
            for task_id, accesses in enumerate((
                [In(left), Out(right)], [In(left), InOut(right)], [In(left)],
            ))
        ]
        arena = arena()
        first, second, third = (rebuild_task(desc, arena, {}) for desc in descriptors)
        assert first.accesses[0] is second.accesses[0] is third.accesses[0]
        assert first.accesses[1].region is second.accesses[1].region
        assert first.accesses[1] is not second.accesses[1]  # out vs inout
        assert [a.mode for a in second.accesses] == [AccessMode.IN, AccessMode.INOUT]
    finally:
        close()
