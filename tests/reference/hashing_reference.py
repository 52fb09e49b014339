"""Frozen hashing oracle: the parent-commit NumPy hash, kept verbatim.

``splitmix64``, ``_hash_words`` and ``hash_bytes`` below are byte-for-byte
copies of :mod:`repro.common.hashing` as of commit ``cd38fcc`` (before the
streaming hasher replaced the temporaries-based ``_hash_words``).  They
define what a key *is*: the streaming hasher, the golden key table and the
reference key generator (:mod:`tests.reference.keygen_reference`) are all
checked against these functions, so the fixed point no longer moves with
``src/``.

Do not optimise or "fix" this module (it keeps the parent's unmasked-seed
``OverflowError`` on empty input, too); the Jenkins functions are not copied
because no change has touched them since the seed.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.common.hashing import HASH_FUNCTIONS

__all__ = ["splitmix64", "hash_bytes", "REFERENCE_HASH_FUNCTIONS"]

_MASK64 = 0xFFFFFFFFFFFFFFFF

BytesLike = Union[bytes, bytearray, memoryview, np.ndarray]


def _as_uint8(data: BytesLike) -> np.ndarray:
    """View arbitrary byte-like input as a contiguous ``uint8`` array."""
    if isinstance(data, np.ndarray):
        arr = np.ascontiguousarray(data)
        return arr.view(np.uint8).reshape(-1)
    return np.frombuffer(bytes(data), dtype=np.uint8)


_SPLITMIX_C1 = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_C2 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C3 = np.uint64(0x94D049BB133111EB)


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64 finaliser: a cheap, high-quality 64-bit bijective mixer."""
    scalar = np.isscalar(x) or isinstance(x, int)
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z + _SPLITMIX_C1
        z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_C2
        z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_C3
        z = z ^ (z >> np.uint64(31))
    if scalar:
        return int(z)
    return z


def _hash_words(words: np.ndarray, n: int, seed: int) -> int:
    """Mix little-endian 64-bit ``words`` covering ``n`` payload bytes.

    Shared core of :func:`hash_bytes` and :func:`hash_padded_buffer`; the
    trailing word must be zero-padded beyond byte ``n``.
    """
    with np.errstate(over="ignore"):
        positions = np.arange(1, words.size + 1, dtype=np.uint64)
        salted = words ^ (positions * _SPLITMIX_C1)
        mixed = splitmix64(salted)
        acc = np.bitwise_xor.reduce(mixed)
        acc ^= np.uint64(n) * _SPLITMIX_C3
        acc ^= np.uint64(seed & _MASK64)
    return int(splitmix64(acc))


def hash_bytes(data: BytesLike, seed: int = 0) -> int:
    """Vectorised 64-bit hash of a byte buffer.

    The buffer is reinterpreted as little-endian 64-bit words (zero-padded to
    a multiple of 8 bytes), each word is salted with its position and pushed
    through the splitmix64 finaliser, and the lanes are XOR-reduced before a
    final mix that also folds in the total length and the seed.  The result is
    deterministic across platforms and runs at NumPy speed for multi-megabyte
    inputs.
    """
    buf = _as_uint8(data)
    n = buf.size
    if n == 0:
        return int(splitmix64(np.uint64(seed) ^ np.uint64(0xA5A5A5A5A5A5A5A5)))
    pad = (-n) % 8
    if pad:
        padded = np.zeros(n + pad, dtype=np.uint8)
        padded[:n] = buf
        buf = padded
    return _hash_words(buf.view(np.uint64), n, seed)


#: The registry the reference key generator hashes with: the frozen NumPy
#: hash beside the (unchanged) Jenkins functions.
REFERENCE_HASH_FUNCTIONS = {**HASH_FUNCTIONS, "numpy": hash_bytes}
