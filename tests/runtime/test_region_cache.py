"""The dependence-state cache a region carries (``DataRegion._dep_state``).

Three promises of the cache beyond edge equality (which
``test_dependences_property.py`` checks against the reference tracker):

* it is weak — a region the application keeps does not keep a closed
  Session's tasks alive through the tracker state it points to;
* it never travels — a pickled or deep-copied region starts without one;
* it is one attribute — two graphs on two threads may submit over the same
  region objects, and each still gets exactly its own edges.
"""

from __future__ import annotations

import copy
import gc
import pickle
import threading
import weakref

import numpy as np

from repro.runtime.data import DataRegion, In, InOut, Out
from repro.runtime.graph import TaskDependenceGraph
from repro.runtime.task import Task, TaskType
from repro.session import Session
from tests.reference.dependences_reference import (
    DependenceTracker as ReferenceDependenceTracker,
)
from tests.reference.graph_edges import record_edges

TT = TaskType("region-cache")


class _Body:
    """A task body of its own per task: a weak reference to it tells whether
    its task is still reachable (``Task`` itself takes no weak references)."""

    def __call__(self, *arrays) -> None:
        pass


def test_kept_regions_do_not_pin_a_closed_sessions_tasks():
    grid = np.zeros((8, 4))
    regions = [DataRegion(row) for row in grid]
    bodies = []
    with Session({"runtime": {"executor": "serial"}}) as session:
        for sweep in range(3):
            for i, region in enumerate(regions):
                body = _Body()
                bodies.append(weakref.ref(body))
                session.submit(TT, body, [In(regions[i - 1]), InOut(region)])
    assert all(isinstance(region._dep_state, weakref.ref) for region in regions)
    del session, body
    gc.collect()
    assert [ref for ref in bodies if ref() is not None] == []
    assert all(region._dep_state() is None for region in regions)


def test_pickled_and_copied_regions_carry_no_cache():
    array = np.arange(16, dtype=np.float64)
    region = DataRegion(array[4:12], name="block")
    graph = TaskDependenceGraph()
    graph.add_task(Task(task_type=TT, function=lambda: None, accesses=[Out(region)]))
    graph.add_task(Task(task_type=TT, function=lambda: None, accesses=[In(region)]))
    assert isinstance(region._dep_state, weakref.ref)
    for twin in (pickle.loads(pickle.dumps(region)), copy.deepcopy(region), copy.copy(region)):
        assert twin._dep_state is None
        assert twin.byte_interval == region.byte_interval
        assert twin.name == "block"
        np.testing.assert_array_equal(twin.array, region.array)
    # The original keeps its cache and still resolves through it.
    assert region._dep_state() is not None


def _stream(regions, seed: int, count: int):
    """``count`` accesses lists over ``regions`` (random modes and picks)."""
    rng = np.random.default_rng(seed)
    modes = (In, Out, InOut)
    for _ in range(count):
        picks = rng.choice(len(regions), size=int(rng.integers(1, 4)), replace=False)
        yield [modes[int(rng.integers(3))](regions[int(p)]) for p in picks]


def test_two_graphs_on_two_threads_share_region_objects():
    """Each graph's edges equal its own reference tracker's, although both
    overwrite the one cache slot of the regions they share."""
    buffers = [np.zeros(64, dtype=np.uint8) for _ in range(2)]
    regions = [DataRegion(buffer[start:start + 16])
               for buffer in buffers for start in range(0, 64, 16)]
    errors: list[BaseException] = []
    start = threading.Barrier(2)

    def submit(seed: int) -> None:
        try:
            graph = TaskDependenceGraph()
            edges = record_edges(graph)
            reference = ReferenceDependenceTracker()
            expected = set()
            start.wait()
            for accesses in _stream(regions, seed, 400):
                task = Task(task_type=TT, function=lambda: None, accesses=accesses)
                graph.add_task(task)
                expected |= {(p.task_id, task.task_id) for p in reference.dependences_for(task)}
            assert set(edges) == expected
            assert graph.edge_count == len(expected)
        except BaseException as exc:  # reported on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(seed,)) for seed in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
