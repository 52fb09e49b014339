"""Property-based keygen tests (hypothesis; skipped if it is unavailable).

Random region shapes, dtypes, arities and sampling fractions assert that

* keys induce the *partition* of the preserved seed implementation
  (:mod:`tests.reference.keygen_reference`, unedited): over a family of twins
  and near-twins (``tests/atm/keygen_families.py``) two tasks share a key iff
  the seed gives them one, and a one-input key has the seed's *value* — the
  generative counterpart of the fixed cases in ``test_keygen_equivalence.py``;
* keys are *stable*: they depend only on content, order and ``p``, never on
  cache state — evicting the LRU (tiny budget), disabling the cache, or
  bumping write-versions over unchanged bytes must all reproduce the same
  key value.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.atm.keygen import HashKeyGenerator  # noqa: E402
from repro.common.config import ATMConfig, P_LADDER  # noqa: E402
from repro.runtime.data import In  # noqa: E402
from repro.runtime.task import Task, TaskType  # noqa: E402
from tests.atm.keygen_families import check_family  # noqa: E402
from tests.reference.keygen_reference import ReferenceKeyGenerator  # noqa: E402

TT = TaskType("prop-test", memoizable=True)

_DTYPES = (np.float64, np.float32, np.int32, np.int16, np.uint8)


def _arrays_from(seed: int, shapes_dtypes) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    arrays = []
    for n_elements, dtype_index in shapes_dtypes:
        dtype = np.dtype(_DTYPES[dtype_index % len(_DTYPES)])
        if dtype.kind == "f":
            arrays.append(rng.standard_normal(n_elements).astype(dtype))
        else:
            info = np.iinfo(dtype)
            arrays.append(
                rng.integers(info.min, int(info.max), n_elements).astype(dtype)
            )
    return arrays


def make_task(arrays) -> Task:
    return Task(
        task_type=TT,
        function=lambda: None,
        accesses=[In(a) for a in arrays],
        task_id=0,
    )


shapes_strategy = st.lists(
    st.tuples(st.integers(1, 4096), st.integers(0, len(_DTYPES) - 1)),
    min_size=1,
    max_size=4,
)
p_strategy = st.one_of(
    st.sampled_from(P_LADDER),
    st.floats(min_value=2.0 ** -15, max_value=1.0, allow_nan=False),
)


#: The grid the partition property walks: both ends of the ladder, the old
#: sparse/dense crossover (1/16) on either side, and where Dynamic ATM settles.
PARTITION_P = (2.0 ** -15, 0.001, 1 / 32, 1 / 16, 0.25, 0.5, 1.0)


@st.composite
def families(draw):
    """``(config, arrays, p)``: 1-4 inputs of mixed dtypes and odd sizes, some
    of zero bytes, some the same array at two ordinals.  The scalar Jenkins
    hashes walk bytes in Python, so they get the small shapes."""
    hash_function = draw(st.sampled_from(("numpy", "numpy", "lookup3", "one_at_a_time")))
    largest = 2048 if hash_function == "numpy" else 96
    shapes = draw(st.lists(
        st.tuples(st.integers(0, largest), st.integers(0, len(_DTYPES) - 1)),
        min_size=1, max_size=4,
    ))
    if not any(n for n, _ in shapes):
        shapes[0] = (1 + shapes[0][0], shapes[0][1])
    arrays = _arrays_from(draw(st.integers(0, 2**31 - 1)), shapes)
    if len(arrays) > 1 and draw(st.booleans()):
        source, target = draw(st.permutations(range(len(arrays))))[:2]
        arrays[target] = arrays[source]
    config = ATMConfig(type_aware=draw(st.booleans()), hash_function=hash_function)
    return config, arrays, draw(st.sampled_from(PARTITION_P))


class TestPartitionMatchesReferenceProperty:
    @settings(max_examples=300, deadline=None)
    @given(family=families())
    def test_keys_partition_like_the_seed(self, family):
        config, arrays, p = family
        new = HashKeyGenerator(config)
        ref = ReferenceKeyGenerator(config)
        if len(arrays) == 1:
            task = make_task(arrays)
            for _ in range(2):  # cold caches, then hot caches
                assert new.compute(task, p).value == ref.compute(task, p).value
        check_family(new, ref, TT, arrays, p)


class TestKeyStabilityProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shapes=shapes_strategy, p=p_strategy)
    def test_keys_survive_cache_eviction(self, seed, shapes, p):
        """Key values never depend on what the LRU happened to keep."""
        arrays = _arrays_from(seed, shapes)
        task = make_task(arrays)
        # A fresh generator's first call always misses: the uncached baseline.
        baseline = HashKeyGenerator(ATMConfig()).compute(task, p)
        # A one-entry-sized budget forces continuous eviction...
        starved = HashKeyGenerator(ATMConfig(key_cache_budget_bytes=64))
        for _ in range(3):
            assert starved.compute(task, p).value == baseline.value
        # ...and a comfortable budget must agree too, hot or cold.
        cached = HashKeyGenerator(ATMConfig())
        for _ in range(3):
            assert cached.compute(task, p).value == baseline.value

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), shapes=shapes_strategy, p=p_strategy)
    def test_keys_survive_version_bumps(self, seed, shapes, p):
        """A write-version bump without a byte change recomputes the same key."""
        arrays = _arrays_from(seed, shapes)
        task = make_task(arrays)
        generator = HashKeyGenerator(ATMConfig())
        before = generator.compute(task, p)
        for access in task.accesses:
            access.region.bump_version()
        after = generator.compute(task, p)
        assert after.value == before.value
        assert after.sampled_bytes == before.sampled_bytes
