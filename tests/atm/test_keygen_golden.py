"""Golden ATM keys: literal 64-bit values computed at the commits named.

The equivalence suites compare the generator against reference *code*; this
table pins the *numbers*, for the inputs below, which are built with integer
arithmetic only so that they are the same bytes on every platform.  The
``p = 1`` column of the one-input rows (and the no-input key) was printed by
``HashKeyGenerator`` at commit ``cd38fcc`` (the temporaries-based
``_hash_words`` and the full-permutation ``significance_order``) and has not
moved since: a one-input key at ``p = 1`` is still the hash of its bytes.
The ``p = 1`` column of the multi-input rows was printed at PR 22, the child
of ``6642a5a``, which redefined a multi-input key as the combination of its
inputs' digests.  Both ``p < 1`` columns were printed at PR 23, the child of
``7dcaa3e``, which hashes a sample in address order instead of shuffle order
(a sample of one byte, or of two that the shuffle drew in ascending order,
kept its value).  Each of the two redefinitions bumped
``STORE_SCHEMA_VERSION``, the cache-shard protocol of the time (its store
verbs are the gateway's now, behind ``SERVING_PROTOCOL_VERSION``) and
``PROTOCOL_VERSION``: a key that changes here invalidates every persisted or
exchanged THT.
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
    ("one_f8", True, "numpy"): (0x53E5B1E6A19319A8, 0xF3B19A1DD5B1C18B, 0xFD2846A23F6FE799),
    ("one_f8", True, "lookup3"): (0xF637670A67E5A489, 0xF07F892CE8190BF6, 0x6E7923DB890894BF),
    ("one_f8", False, "numpy"): (0x53E5B1E6A19319A8, 0x7335ECB38DD734DF, 0x978587BA9F5E15E9),
    ("one_f8", False, "lookup3"): (0xF637670A67E5A489, 0xF600BAFCDFD43512, 0xF6AFD2E0F8EFB49A),
    ("two_f4", True, "numpy"): (0xC7D0EEBEF2130E85, 0x65CB2B626D904639, 0x4B9AE96AE4994431),
    ("two_f4", True, "lookup3"): (0xCD3AC5B62B5B4F9D, 0x01EC301B4327FA54, 0x3EE780E73E81ABA0),
    ("two_f4", False, "numpy"): (0xC7D0EEBEF2130E85, 0xA58B3046F4A3BADB, 0x45109A27C5DA0BE5),
    ("two_f4", False, "lookup3"): (0xCD3AC5B62B5B4F9D, 0x42F4C6ABF874EAEB, 0x871CCC0997D436F0),
    ("three_u1", True, "numpy"): (0x01452A91EE613753, 0xD95D891B83766EE9, 0x126039248861C850),
    ("three_u1", True, "lookup3"): (0x18A0873992237620, 0x670EBC159F936746, 0xC7D03C4AF58FF1A6),
    ("three_u1", False, "numpy"): (0x01452A91EE613753, 0xD95D891B83766EE9, 0x126039248861C850),
    ("three_u1", False, "lookup3"): (0x18A0873992237620, 0x670EBC159F936746, 0xC7D03C4AF58FF1A6),
    ("mixed", True, "numpy"): (0x3570B31E5E573A72, 0x096FE1A31A145388, 0xDAC6CB6E56927053),
    ("mixed", True, "lookup3"): (0x73EF1F1644B26A4D, 0xE065D240AE20604E, 0xEF59D8C9724BBD68),
    ("mixed", False, "numpy"): (0x3570B31E5E573A72, 0x5F3E9EA80AFB284F, 0xD1DAB272F8DD51B9),
    ("mixed", False, "lookup3"): (0x73EF1F1644B26A4D, 0x4C107AED28F09BB8, 0xE1C28E5358D159BE),
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
