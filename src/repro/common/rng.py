"""Deterministic random-number helpers.

Everything stochastic in the reproduction (workload generation, index
shuffles) derives from named, seeded generators so
experiments are bit-reproducible across runs and machines.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["generator_for"]


def derive_seed(root_seed: int, *names: object) -> int:
    """Derive a 64-bit child seed from a root seed and a name path.

    Uses BLAKE2b over the textual representation so the mapping is stable
    across Python versions and processes (unlike ``hash()``).
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(root_seed)).encode("utf-8"))
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode("utf-8"))
    return int.from_bytes(digest.digest(), "little")


def generator_for(root_seed: int, *names: object) -> np.random.Generator:
    """A NumPy Generator deterministically derived from ``root_seed/names``."""
    return np.random.default_rng(derive_seed(root_seed, *names))
