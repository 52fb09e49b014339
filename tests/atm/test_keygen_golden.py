"""Golden ATM keys: literal 64-bit values computed at the commits named.

The equivalence suites compare the generator against reference *code*; this
table pins the *numbers*, for the inputs below, which are built with integer
arithmetic only so that they are the same bytes on every platform.  The
one-input rows (and the no-input key) were printed by ``HashKeyGenerator`` at
commit ``cd38fcc`` (the temporaries-based ``_hash_words`` and the
full-permutation ``significance_order``) and have not moved since: a
one-input key is still the hash of its sampled bytes.  The multi-input rows
were printed at PR 22, the child of ``6642a5a``, which redefined a
multi-input key as the combination of its inputs' digests — and bumped
``STORE_SCHEMA_VERSION``, ``SHARD_PROTOCOL_VERSION`` and ``PROTOCOL_VERSION``
for it: a key that changes here invalidates every persisted or exchanged THT.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atm.keygen import HashKeyGenerator
from repro.common.config import ATMConfig
from repro.runtime.data import In, Out
from repro.runtime.task import Task, TaskType

TT = TaskType("golden-key", memoizable=True)

P_GRID = (1.0, 0.25, 2.0 ** -15)


def _ramp(n: int, dtype: str, salt: int) -> np.ndarray:
    """Exactly representable pseudo-random values (no libm, no RNG stream)."""
    raw = (
        np.arange(n, dtype=np.uint64) * np.uint64(2654435761) + np.uint64(salt)
    ) % np.uint64(1000003)
    if np.dtype(dtype).kind == "f":
        return (raw.astype(np.float64) / 8.0 - 60000.0).astype(dtype)
    return (raw % np.uint64(251)).astype(dtype)


def golden_inputs() -> dict[str, list[np.ndarray]]:
    return {
        "one_f8": [_ramp(8192, "f8", 1)],
        "two_f4": [_ramp(8192, "f4", 2), _ramp(8192, "f4", 3)],
        # 60 000 bytes in three views whose sizes are not word multiples.
        "three_u1": [_ramp(20000, "u1", 4), _ramp(20001, "u1", 5), _ramp(19999, "u1", 6)],
        # 41 985 bytes: mixed itemsizes, odd total (the last word is padded).
        "mixed": [_ramp(4099, "f8", 7), _ramp(1001, "u1", 8), _ramp(2048, "f4", 9)],
    }


#: (inputs, type_aware, hash_function) -> keys at p = 1, 0.25, 2^-15.
#: Single-byte inputs have one significance level, so ``three_u1`` reads the
#: same with the type-aware shuffle on and off.
GOLDEN_KEYS = {
    ("one_f8", True, "numpy"): (0x53E5B1E6A19319A8, 0x06CECE7FB17C3417, 0xFD2846A23F6FE799),
    ("one_f8", True, "lookup3"): (0xF637670A67E5A489, 0x174B4979E284B088, 0x6E7923DB890894BF),
    ("one_f8", False, "numpy"): (0x53E5B1E6A19319A8, 0xF40D730CCA305018, 0x978587BA9F5E15E9),
    ("one_f8", False, "lookup3"): (0xF637670A67E5A489, 0xA8C1F53D0510F530, 0xF6AFD2E0F8EFB49A),
    ("two_f4", True, "numpy"): (0xC7D0EEBEF2130E85, 0xD03F5934B018E49E, 0x4B9AE96AE4994431),
    ("two_f4", True, "lookup3"): (0xCD3AC5B62B5B4F9D, 0x327CCE4B54C18B20, 0x3EE780E73E81ABA0),
    ("two_f4", False, "numpy"): (0xC7D0EEBEF2130E85, 0xB10A57FF6BAB6293, 0x45109A27C5DA0BE5),
    ("two_f4", False, "lookup3"): (0xCD3AC5B62B5B4F9D, 0x2CD114036E575939, 0x871CCC0997D436F0),
    ("three_u1", True, "numpy"): (0x01452A91EE613753, 0x3402930917F1510B, 0x8E7A00E1ADE179DE),
    ("three_u1", True, "lookup3"): (0x18A0873992237620, 0xB2EFE4A0B74290F3, 0x70F887ECE4CCE23B),
    ("three_u1", False, "numpy"): (0x01452A91EE613753, 0x3402930917F1510B, 0x8E7A00E1ADE179DE),
    ("three_u1", False, "lookup3"): (0x18A0873992237620, 0xB2EFE4A0B74290F3, 0x70F887ECE4CCE23B),
    ("mixed", True, "numpy"): (0x3570B31E5E573A72, 0x2BEFFA0F1710D187, 0xDAC6CB6E56927053),
    ("mixed", True, "lookup3"): (0x73EF1F1644B26A4D, 0xCB0CEAB75D974298, 0xEF59D8C9724BBD68),
    ("mixed", False, "numpy"): (0x3570B31E5E573A72, 0x0597DE84797FEC4E, 0x16087429FF696A10),
    ("mixed", False, "lookup3"): (0x73EF1F1644B26A4D, 0xD59E5A81010F5248, 0x054B29567D3AF3CD),
}

#: Key of a task without inputs: the hash of its type name alone.
GOLDEN_NO_INPUT = {"numpy": 0x2F6D2C36F24B3251, "lookup3": 0x1722D76FE5B0FF8E}


def _task(arrays, outputs=()):
    accesses = [In(a) for a in arrays] + [Out(o) for o in outputs]
    return Task(task_type=TT, function=lambda: None, accesses=accesses, task_id=0)


@pytest.mark.parametrize("case,type_aware,hash_function", sorted(GOLDEN_KEYS))
def test_keys_equal_the_parent_commit(case, type_aware, hash_function):
    task = _task(golden_inputs()[case])
    config = ATMConfig(type_aware=type_aware, hash_function=hash_function)
    for p, golden in zip(P_GRID, GOLDEN_KEYS[case, type_aware, hash_function]):
        # A fresh generator per p, as at the parent: no regrown shuffle.
        assert HashKeyGenerator(config).compute(task, p).value == golden, p


def test_regrown_shuffle_reaches_the_same_keys():
    """Growing one record 2^-15 -> 0.25 ends on the keys of fresh records."""
    task = _task(golden_inputs()["mixed"])
    generator = HashKeyGenerator(ATMConfig())
    keys = [generator.compute(task, p).value for p in reversed(P_GRID)]
    assert tuple(reversed(keys)) == GOLDEN_KEYS["mixed", True, "numpy"]
    assert generator.counters["shuffle_regrowths"] == 1


@pytest.mark.parametrize("hash_function", sorted(GOLDEN_NO_INPUT))
def test_no_input_key_equals_the_parent_commit(hash_function):
    task = _task([], outputs=[np.zeros(8)])
    generator = HashKeyGenerator(ATMConfig(hash_function=hash_function))
    assert generator.compute(task, 1.0).value == GOLDEN_NO_INPUT[hash_function]
