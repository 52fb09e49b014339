"""Hashing substrate used to build ATM hash keys.

The paper indexes the Task History Table with a "very precise hash key"
computed with Bob Jenkins's hash function over (a sampled subset of) the task
input bytes; the resulting key is 8 bytes and collisions are expected roughly
once every 2^32 keys.

This module provides three layers:

``jenkins_one_at_a_time``
    The classic scalar Jenkins one-at-a-time 32-bit hash.  Simple reference
    implementation, used in tests and for tiny inputs.

``jenkins_lookup3``
    A faithful Python port of Jenkins's *lookup3* ``hashlittle2`` returning a
    64-bit value (the concatenation of the two 32-bit lanes).  This is the
    function the paper cites [12].  It is exact but scalar, so it is only the
    default for small inputs.

``hash_bytes`` / ``hash_sampled_bytes``
    A vectorised 64-bit mixing hash built on NumPy (splitmix64 finalisation of
    position-salted 64-bit words).  It has the same statistical role as
    lookup3 (uniform 64-bit keys, order- and content-sensitive) but runs at
    memory bandwidth on multi-megabyte task inputs, which is what the ATM key
    generator needs.  The engine can be configured to use the exact lookup3
    implementation instead (``ATMConfig.hash_function = "lookup3"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "HashKey",
    "bucket_of_value",
    "jenkins_one_at_a_time",
    "jenkins_lookup3",
    "hash_bytes",
    "hash_sampled_bytes",
    "splitmix64",
    "canonical_p",
    "padded_sample_buffer",
    "hash_padded_buffer",
    "HASH_FUNCTIONS",
]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF


def bucket_of_value(value: int, n_bits: int) -> int:
    """THT bucket of a raw 64-bit key value: its lower ``n_bits`` bits.

    The single source of truth for bucket selection — used both by live
    lookups (:meth:`HashKey.bucket`) and by the THT delta merge, which only
    has the stored ``key_value``; the two must never disagree or merged
    worker entries would land in buckets lookups never probe.
    """
    if n_bits <= 0:
        return 0
    return value & ((1 << n_bits) - 1)

BytesLike = Union[bytes, bytearray, memoryview, np.ndarray]


@dataclass(frozen=True)
class HashKey:
    """A computed ATM hash key.

    Attributes
    ----------
    value:
        The 64-bit key (non-negative Python int).
    p:
        The fraction of input bytes that was sampled to build the key
        (``1.0`` for Static ATM).
    sampled_bytes:
        Number of bytes actually fed to the hash function.
    total_bytes:
        Total number of input bytes of the task.
    """

    value: int
    p: float = 1.0
    sampled_bytes: int = 0
    total_bytes: int = 0

    def __int__(self) -> int:  # pragma: no cover - trivial
        return self.value

    def bucket(self, n_bits: int) -> int:
        """Return the THT bucket index: the lower ``n_bits`` bits of the key."""
        return bucket_of_value(self.value, n_bits)

    @property
    def storage_bytes(self) -> int:
        """Bytes needed to store this key in the THT (the paper uses 8)."""
        return 8


def _as_uint8(data: BytesLike) -> np.ndarray:
    """View arbitrary byte-like input as a contiguous ``uint8`` array."""
    if isinstance(data, np.ndarray):
        arr = np.ascontiguousarray(data)
        return arr.view(np.uint8).reshape(-1)
    return np.frombuffer(bytes(data), dtype=np.uint8)


def jenkins_one_at_a_time(data: BytesLike, seed: int = 0) -> int:
    """Jenkins one-at-a-time hash (32-bit).

    Reference scalar implementation; intended for small inputs and testing.
    """
    h = seed & _MASK32
    buf = _as_uint8(data)
    for byte in buf.tolist():
        h = (h + int(byte)) & _MASK32
        h = (h + ((h << 10) & _MASK32)) & _MASK32
        h ^= h >> 6
    h = (h + ((h << 3) & _MASK32)) & _MASK32
    h ^= h >> 11
    h = (h + ((h << 15) & _MASK32)) & _MASK32
    return h


def _rot(x: int, k: int) -> int:
    """32-bit left rotation."""
    return ((x << k) | (x >> (32 - k))) & _MASK32


def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    """lookup3 ``mix()`` of three 32-bit values."""
    a = (a - c) & _MASK32
    a ^= _rot(c, 4)
    c = (c + b) & _MASK32
    b = (b - a) & _MASK32
    b ^= _rot(a, 6)
    a = (a + c) & _MASK32
    c = (c - b) & _MASK32
    c ^= _rot(b, 8)
    b = (b + a) & _MASK32
    a = (a - c) & _MASK32
    a ^= _rot(c, 16)
    c = (c + b) & _MASK32
    b = (b - a) & _MASK32
    b ^= _rot(a, 19)
    a = (a + c) & _MASK32
    c = (c - b) & _MASK32
    c ^= _rot(b, 4)
    b = (b + a) & _MASK32
    return a, b, c


def _final(a: int, b: int, c: int) -> tuple[int, int, int]:
    """lookup3 ``final()`` of three 32-bit values."""
    c ^= b
    c = (c - _rot(b, 14)) & _MASK32
    a ^= c
    a = (a - _rot(c, 11)) & _MASK32
    b ^= a
    b = (b - _rot(a, 25)) & _MASK32
    c ^= b
    c = (c - _rot(b, 16)) & _MASK32
    a ^= c
    a = (a - _rot(c, 4)) & _MASK32
    b ^= a
    b = (b - _rot(a, 14)) & _MASK32
    c ^= b
    c = (c - _rot(b, 24)) & _MASK32
    return a, b, c


def jenkins_lookup3(data: BytesLike, seed: int = 0) -> int:
    """Jenkins *lookup3* ``hashlittle2`` producing a 64-bit key.

    The two 32-bit lanes (``pc`` and ``pb`` in the original C code) are
    concatenated as ``(pc << 32) | pb``.
    """
    buf = _as_uint8(data)
    length = buf.size
    a = b = c = (0xDEADBEEF + length + (seed & _MASK32)) & _MASK32
    c = (c + ((seed >> 32) & _MASK32)) & _MASK32

    offset = 0
    remaining = length
    data_list = buf.tolist()

    def word(off: int, nbytes: int) -> int:
        value = 0
        for i in range(nbytes):
            value |= data_list[off + i] << (8 * i)
        return value

    while remaining > 12:
        a = (a + word(offset, 4)) & _MASK32
        b = (b + word(offset + 4, 4)) & _MASK32
        c = (c + word(offset + 8, 4)) & _MASK32
        a, b, c = _mix(a, b, c)
        offset += 12
        remaining -= 12

    if remaining > 0:
        chunk = data_list[offset:offset + remaining] + [0] * (12 - remaining)

        def tail_word(start: int) -> int:
            return (
                chunk[start]
                | (chunk[start + 1] << 8)
                | (chunk[start + 2] << 16)
                | (chunk[start + 3] << 24)
            )

        a = (a + tail_word(0)) & _MASK32
        b = (b + tail_word(4)) & _MASK32
        c = (c + tail_word(8)) & _MASK32
        a, b, c = _final(a, b, c)
    # When remaining == 0, lookup3 returns c,b unchanged (zero-length case is
    # the seeded initial state).

    return ((c << 32) | b) & _MASK64


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


def padded_sample_buffer(count: int) -> np.ndarray:
    """A zeroed ``uint8`` buffer of ``count`` bytes padded to a word multiple.

    Gather sampled bytes into ``buf[:count]`` and hash with
    :func:`hash_padded_buffer`; the result is bit-identical to
    ``hash_bytes(buf[:count])`` without the extra pad-and-copy pass.
    """
    return np.zeros(count + ((-count) % 8), dtype=np.uint8)


def hash_padded_buffer(buf: np.ndarray, count: int, seed: int = 0,
                       function: str = "numpy") -> int:
    """Hash ``buf[:count]`` where ``buf`` came from :func:`padded_sample_buffer`.

    For the vectorised ``"numpy"`` hash the already-padded buffer is mixed in
    place (one pass, no copy); other hash functions fall back to slicing.
    """
    if count == 0:
        return HASH_FUNCTIONS[function](np.empty(0, dtype=np.uint8), seed)
    if function == "numpy":
        return _hash_words(buf.view(np.uint64), count, seed)
    return HASH_FUNCTIONS[function](buf[:count], seed)


#: Quantization grid for canonical sampling fractions: 2^-20 steps cover the
#: whole Dynamic-ATM ladder (min p = 2^-15) with headroom to spare.
_P_QUANT_BITS = 20


def canonical_p(p: float) -> int:
    """Canonical quantized representation of a sampling fraction.

    THT entries must never fail to match because ``p`` was recomputed through
    a different floating-point path (e.g. the Dynamic-ATM trainer doubling
    ``p0`` versus the policy reading a stored ladder value).  Quantizing to a
    2^-20 grid makes equality robust to sub-grid float jitter while keeping
    every ladder step (2^-15 ... 1.0) distinct.
    """
    if p >= 1.0:
        return 1 << _P_QUANT_BITS
    return max(1, int(round(p * (1 << _P_QUANT_BITS))))


def hash_sampled_bytes(
    data: BytesLike,
    indices: np.ndarray,
    seed: int = 0,
    function: str = "numpy",
) -> int:
    """Hash only the bytes of ``data`` selected by ``indices``.

    ``indices`` is the prefix of the stored shuffled index vector described in
    Section III-B of the paper; gathering then hashing matches the paper's
    "selected bytes are served to the hash key generator".
    """
    buf = _as_uint8(data)
    if indices.size == 0:
        sampled: BytesLike = np.empty(0, dtype=np.uint8)
    else:
        sampled = buf[indices]
    return HASH_FUNCTIONS[function](sampled, seed)


#: Registry of usable whole-buffer hash functions, keyed by config name.
HASH_FUNCTIONS = {
    "numpy": hash_bytes,
    "lookup3": jenkins_lookup3,
    "one_at_a_time": lambda data, seed=0: jenkins_one_at_a_time(data, seed),
}
