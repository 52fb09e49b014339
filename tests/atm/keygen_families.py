"""Task families for the key *partition* oracle.

Since keys are combinations of per-input digests, a multi-input key no longer
has the seed's 64-bit *value*; what must not move is which tasks are twins.
A family is one task plus variants of known relation to it, built from the
byte positions the seed's key reads (``tests/reference/keygen_reference.py``,
unedited): the suites assert that two members get equal new keys **iff** the
seed gives them equal keys.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.runtime.data import In
from repro.runtime.task import Task, TaskType
from tests.reference.keygen_reference import ReferenceKeyGenerator


def task_of(task_type: TaskType, arrays) -> Task:
    return Task(
        task_type=task_type, function=lambda: None,
        accesses=[In(a) for a in arrays], task_id=0,
    )


def sampled_positions(ref: ReferenceKeyGenerator, task: Task, p: float) -> np.ndarray:
    """Positions over the concatenated inputs that the seed's key reads at ``p``."""
    total = sum(access.nbytes for access in task.inputs)
    count = ref.selected_byte_count(total, p)
    if count >= total:
        return np.arange(total)
    return np.asarray(ref._shuffle_for(task, total).indices[:count])


def _rebuilt(arrays, blob: np.ndarray) -> list[np.ndarray]:
    """Fresh arrays of the same dtypes and shapes over the bytes of ``blob``."""
    rebuilt, start = [], 0
    for array in arrays:
        end = start + array.nbytes
        rebuilt.append(
            np.frombuffer(blob[start:end].tobytes(), dtype=array.dtype).reshape(array.shape)
        )
        start = end
    return rebuilt


def family(ref: ReferenceKeyGenerator, task_type: TaskType, arrays, p: float):
    """``(twins, near_twins)`` of the task over ``arrays`` at fraction ``p``.

    ``twins``: the task itself, a byte-for-byte copy in fresh arrays and a
    variant with *every unsampled byte* flipped.  ``near_twins``: per input
    that owns a sampled byte, a variant with one sampled byte of it flipped.
    """
    base = task_of(task_type, arrays)
    blob = np.concatenate([a.view(np.uint8).reshape(-1) for a in arrays])
    sampled = sampled_positions(ref, base, p)
    unsampled = np.ones(blob.size, dtype=bool)
    unsampled[sampled] = False
    flipped = blob.copy()
    flipped[unsampled] ^= 0xFF
    twins = [
        base,
        task_of(task_type, _rebuilt(arrays, blob)),
        task_of(task_type, _rebuilt(arrays, flipped)),
    ]
    bounds = np.cumsum([a.nbytes for a in arrays])
    owners = np.searchsorted(bounds, sampled, side="right")
    near_twins = []
    for ordinal in range(len(arrays)):
        owned = sampled[owners == ordinal]
        if owned.size:
            nudged = blob.copy()
            nudged[owned[-1]] ^= 0x01
            near_twins.append(task_of(task_type, _rebuilt(arrays, nudged)))
    return twins, near_twins


def assert_same_partition(new, ref: ReferenceKeyGenerator, tasks, p: float) -> None:
    """Two of ``tasks`` share a new key iff they share a seed key (and the
    byte counts a key reports are the seed's)."""
    new_keys = [new.compute(task, p) for task in tasks]
    ref_keys = [ref.compute(task, p) for task in tasks]
    for new_key, ref_key in zip(new_keys, ref_keys):
        assert new_key.sampled_bytes == ref_key.sampled_bytes
        assert new_key.total_bytes == ref_key.total_bytes
    for i, j in itertools.combinations(range(len(tasks)), 2):
        assert (new_keys[i].value == new_keys[j].value) == (
            ref_keys[i].value == ref_keys[j].value
        ), (i, j)


def check_family(new, ref: ReferenceKeyGenerator, task_type: TaskType, arrays, p: float) -> None:
    """The partition property over one family, which is also what it claims
    to be: all twins under one key, every near-twin under its own."""
    twins, near_twins = family(ref, task_type, arrays, p)
    assert_same_partition(new, ref, twins + near_twins, p)
    assert len({new.compute(task, p).value for task in twins}) == 1
    assert len({new.compute(task, p).value for task in twins[:1] + near_twins}) == (
        1 + len(near_twins)
    )
