"""Property-based keygen tests (hypothesis; skipped if it is unavailable).

Random region shapes, dtypes, arities and sampling fractions assert that

* keys induce the *partition* of the preserved seed implementation
  (:mod:`tests.reference.keygen_reference`, unedited): over a family of twins
  and near-twins (``tests/atm/keygen_families.py``) two tasks share a key iff
  the seed gives them one, for one input and for several, and a one-input key
  at ``p = 1`` has the seed's *value* — the generative counterpart of the
  fixed cases in ``test_keygen_equivalence.py``;
* a digest is the hash of the seed's sampled bytes *in address order*,
  whichever reader took them: a lattice reads what ``take`` of its expanded
  offsets reads, at odd offsets of the base buffer, through non-contiguous
  and zero-byte regions, for big-endian and complex elements;
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

from repro.atm.keygen import HashKeyGenerator, _reader_for  # noqa: E402
from repro.common.config import ATMConfig, P_LADDER  # noqa: E402
from repro.common.hashing import combine_digests, hash_views  # noqa: E402
from repro.runtime.data import DataRegion, In  # noqa: E402
from repro.runtime.task import Task, TaskType  # noqa: E402
from tests.atm.keygen_families import check_family, sampled_positions  # noqa: E402
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
def families(draw, min_inputs, max_inputs):
    """``(config, arrays, p)``: inputs of mixed dtypes and odd sizes, some of
    zero bytes, some the same array at two ordinals.  The scalar Jenkins
    hashes walk bytes in Python, so they get the small shapes."""
    hash_function = draw(st.sampled_from(("numpy", "numpy", "lookup3", "one_at_a_time")))
    largest = 2048 if hash_function == "numpy" else 96
    shapes = draw(st.lists(
        st.tuples(st.integers(0, largest), st.integers(0, len(_DTYPES) - 1)),
        min_size=min_inputs, max_size=max_inputs,
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
    @given(family=families(1, 1))
    def test_one_input_keys_partition_like_the_seed(self, family):
        config, arrays, p = family
        new = HashKeyGenerator(config)
        ref = ReferenceKeyGenerator(config)
        if p == 1.0:  # below, the seed hashes the sample in shuffle order
            task = make_task(arrays)
            for _ in range(2):  # cold caches, then hot caches
                assert new.compute(task, p).value == ref.compute(task, p).value
        check_family(new, ref, TT, arrays, p)

    @settings(max_examples=300, deadline=None)
    @given(family=families(2, 4))
    def test_multi_input_keys_partition_like_the_seed(self, family):
        config, arrays, p = family
        check_family(HashKeyGenerator(config), ReferenceKeyGenerator(config), TT, arrays, p)


#: Element types whose significance levels lie differently in memory: both
#: byte orders, two floats to the element, single bytes.
_LAYOUT_DTYPES = ("<f8", ">f8", "<f4", ">i4", "<i2", ">c16", "<c8", "u1")


@st.composite
def regions(draw, dtype, n_elements):
    """A region of ``n_elements`` random ``dtype`` elements: C-contiguous, at
    an odd byte offset of its base buffer, or a strided (non-contiguous) view."""
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    form = draw(st.sampled_from(("contiguous", "odd_offset", "strided")))
    span = n_elements * (2 if form == "strided" else 1)
    raw = rng.integers(0, 256, span * dtype.itemsize + 1, dtype=np.uint8)
    array = raw[form == "odd_offset":][:span * dtype.itemsize].view(dtype)
    return array[::2] if form == "strided" else array


class TestAddressOrderProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        offset=st.integers(0, 9), width=st.sampled_from((1, 2, 4, 8)),
        gap=st.integers(0, 5), rows=st.integers(1, 300), slack=st.integers(0, 9),
        hash_function=st.sampled_from(("numpy", "lookup3", "one_at_a_time")),
    )
    def test_a_lattice_reads_what_take_of_its_offsets_reads(
        self, data, offset, width, gap, rows, slack, hash_function
    ):
        stride = width * (gap + 1)
        size = offset + (rows - 1) * stride + width + slack
        region = DataRegion(data.draw(regions("u1", size)))
        offsets = (
            offset + stride * np.arange(rows)[:, None] + np.arange(width)
        ).reshape(-1).astype(np.intp)
        reader = _reader_for(offsets, size)
        assert not isinstance(reader, np.ndarray)  # a lattice, or all of it
        generator = HashKeyGenerator(ATMConfig(hash_function=hash_function))
        expected = generator._hash_views((region.to_bytes_view().take(offsets),))
        assert generator._digest(region, reader) == expected
        assert generator._digest(region, offsets) == expected
        # One byte off the lattice and it is a plain sorted vector.
        if rows > 2 and gap:
            bent = offsets.copy()
            bent[-1] += 1
            if bent[-1] < size:
                assert _reader_for(bent, size) is bent

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        layout=st.lists(
            st.tuples(st.sampled_from(_LAYOUT_DTYPES), st.integers(0, 200)),
            min_size=1, max_size=3,
        ),
        p=st.sampled_from((1 / 16, 1 / 8, 3 / 16, 1 / 4, 1 / 2, 3 / 4, 1.0)),
        type_aware=st.booleans(),
        hash_function=st.sampled_from(("numpy", "lookup3", "one_at_a_time")),
    )
    def test_a_digest_hashes_the_seeds_sample_in_address_order(
        self, data, layout, p, type_aware, hash_function
    ):
        """Whole levels (lattices), partial levels (sorted vectors), covered
        and zero-byte inputs, every region form: one definition."""
        if not any(n for _, n in layout):
            layout[0] = (layout[0][0], 1)
        arrays = [data.draw(regions(dtype, n)) for dtype, n in layout]
        config = ATMConfig(type_aware=type_aware, hash_function=hash_function)
        task = make_task(arrays)
        sampled = np.sort(sampled_positions(ReferenceKeyGenerator(config), task, p))
        digests, start = [], 0
        for access in task.inputs:
            owned = sampled[(sampled >= start) & (sampled < start + access.nbytes)] - start
            digests.append(hash_views(
                (access.region.to_bytes_view().take(owned),), config.hash_seed, hash_function
            ))
            start += access.nbytes
        expected = digests[0] if len(digests) == 1 else combine_digests(
            digests, sampled.size, config.hash_seed
        )
        generator = HashKeyGenerator(config)
        for _ in range(2):  # cold caches, then hot caches
            assert generator.compute(task, p).value == expected


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
