"""Reference (seed) hash-key generator, kept verbatim for equivalence proofs.

This module preserves the original, unoptimised key-generation algorithm the
reproduction shipped with: concatenate all input bytes on every lookup, store
one full ``int64`` permutation per ``(task type, total bytes)`` and gather the
first ``ceil(N * p)`` shuffled positions.  The optimised generator in
:mod:`repro.atm.keygen` must produce **bit-identical** ``HashKey.value``
results — the equivalence suites in ``tests/atm/test_keygen_equivalence.py``
and ``tests/atm/test_keygen_property.py`` compare against this implementation.

Do not optimise this module; it is the fixed point the fast path is measured
and verified against.  Its hash and its type-aware shuffle come from the
frozen parent-commit copies beside it (:mod:`tests.reference.hashing_reference`,
:mod:`tests.reference.dtypes_reference`), not from ``src/``, so rewriting
those in ``src/`` cannot move the oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from repro.common.config import ATMConfig
from repro.common.hashing import HashKey
from repro.common.rng import generator_for
from repro.runtime.task import Task
from tests.reference.dtypes_reference import significance_order
from tests.reference.hashing_reference import REFERENCE_HASH_FUNCTIONS

__all__ = ["ReferenceKeyGenerator", "ReferenceShuffleRecord"]


@dataclass
class ReferenceShuffleRecord:
    """The seed's stored shuffle: a full permutation, one int64 per byte."""

    task_type_name: str
    total_bytes: int
    indices: np.ndarray

    @property
    def nbytes(self) -> int:
        return int(self.indices.nbytes)


class ReferenceKeyGenerator:
    """The seed implementation of :class:`repro.atm.keygen.HashKeyGenerator`."""

    def __init__(self, config: ATMConfig) -> None:
        self.config = config
        self._shuffles: dict[tuple[str, int], ReferenceShuffleRecord] = {}
        self._lock = threading.Lock()
        self._hash = REFERENCE_HASH_FUNCTIONS[config.hash_function]

    # -- shuffle management ----------------------------------------------------
    def _shuffle_for(self, task: Task, total_bytes: int) -> ReferenceShuffleRecord:
        key = (task.task_type.name, total_bytes)
        with self._lock:
            record = self._shuffles.get(key)
            if record is not None:
                return record
            rng = generator_for(self.config.shuffle_seed, task.task_type.name, total_bytes)
            if self.config.type_aware:
                descriptors = [
                    (access.region.descriptor, access.nbytes) for access in task.inputs
                ]
                indices = significance_order(descriptors, rng)
            else:
                indices = rng.permutation(total_bytes).astype(np.int64)
            record = ReferenceShuffleRecord(task.task_type.name, total_bytes, indices)
            self._shuffles[key] = record
            return record

    def shuffle_memory_bytes(self) -> int:
        with self._lock:
            return sum(record.nbytes for record in self._shuffles.values())

    # -- key computation ---------------------------------------------------------
    def selected_byte_count(self, total_bytes: int, p: float) -> int:
        if total_bytes == 0:
            return 0
        return max(1, min(total_bytes, math.ceil(total_bytes * p)))

    def compute(self, task: Task, p: float) -> HashKey:
        inputs = task.inputs
        total_bytes = sum(access.nbytes for access in inputs)
        if total_bytes == 0:
            value = self._hash(task.task_type.name.encode("utf-8"), self.config.hash_seed)
            return HashKey(value=value, p=p, sampled_bytes=0, total_bytes=0)
        concatenated = (
            inputs[0].region.to_bytes_view()
            if len(inputs) == 1
            else np.concatenate([access.region.to_bytes_view() for access in inputs])
        )
        record = self._shuffle_for(task, total_bytes)
        count = self.selected_byte_count(total_bytes, p)
        if count >= total_bytes:
            sampled = concatenated
        else:
            sampled = concatenated[record.indices[:count]]
        value = self._hash(sampled, self.config.hash_seed)
        return HashKey(
            value=value, p=p, sampled_bytes=int(count), total_bytes=int(total_bytes)
        )
