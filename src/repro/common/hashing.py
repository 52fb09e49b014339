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

``hash_views`` / ``hash_bytes``
    A vectorised 64-bit mixing hash built on NumPy (splitmix64 finalisation of
    position-salted 64-bit words).  It has the same statistical role as
    lookup3 (uniform 64-bit keys, order- and content-sensitive) and is the
    only one fast enough for multi-megabyte task inputs.  ``hash_views`` is
    the one entry point of the key generator: it streams a sequence of byte
    views through fixed 256 KiB blocks, mixing each block with nine in-place
    ufunc passes on two per-thread scratch blocks.  Measured on the 2-vCPU
    reference host (one core, 128 distinct 256 KiB inputs in turn, as
    ``memo_hot`` hashes them): 2.4 GB/s (2.1 with the eleven passes that a
    per-lane last xorshift cost), against 0.53 GB/s for the whole-buffer
    expression it replaced, which built ~12 input-sized
    ``uint64`` temporaries per call — each above glibc's mmap threshold, so
    every pass paid mmap/munmap and fresh page faults and ran out of DRAM
    instead of L2.  That is still a fraction of memory bandwidth: nine
    passes over a cache-resident block, not one over the input.  The engine
    can be configured to use the exact lookup3 implementation instead
    (``ATMConfig.hash_function = "lookup3"``).
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = [
    "HashKey",
    "bucket_of_value",
    "hash_views",
    "combine_digests",
    "canonical_p",
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


_C1 = 0x9E3779B97F4A7C15
_C2 = 0xBF58476D1CE4E5B9
_C3 = 0x94D049BB133111EB
_SPLITMIX_C1 = np.uint64(_C1)
_SPLITMIX_C2 = np.uint64(_C2)
_SPLITMIX_C3 = np.uint64(_C3)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)


def _splitmix64_int(x: int) -> int:
    """splitmix64 of one value on Python ints (no NumPy scalar round trip)."""
    z = (x + _C1) & _MASK64
    z = ((z ^ (z >> 30)) * _C2) & _MASK64
    z = ((z ^ (z >> 27)) * _C3) & _MASK64
    return z ^ (z >> 31)


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """splitmix64 finaliser: a cheap, high-quality 64-bit bijective mixer."""
    if np.isscalar(x) or isinstance(x, int):
        return _splitmix64_int(int(np.uint64(x)))
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z + _SPLITMIX_C1
        z = (z ^ (z >> _SHIFT_30)) * _SPLITMIX_C2
        z = (z ^ (z >> _SHIFT_27)) * _SPLITMIX_C3
        return z ^ (z >> _SHIFT_31)


#: Words per mixing block (256 KiB).  Chosen once from a measured sweep on the
#: reference host (PERFORMANCE.md, "Hash-key generation"): the two scratch
#: blocks, the salt table and the input block being read (1 MiB together)
#: stay L2-resident through all nine passes, while the ~12 us of ufunc-call
#: overhead per block is amortised.  A constant, not a knob.
_BLOCK_WORDS = 32768
_BLOCK_BYTES = 8 * _BLOCK_WORDS

_scratch = threading.local()


@functools.cache
def _salt_table() -> np.ndarray:
    """Position salts ``(i + 1) * C1`` of the first block (read-only, shared)."""
    salt = np.arange(1, _BLOCK_WORDS + 1, dtype=np.uint64) * _SPLITMIX_C1
    salt.flags.writeable = False
    return salt


def _scratch_blocks() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's two scratch blocks and the salt table, built on first use.

    Transient working memory (512 KiB per hashing thread, 256 KiB shared),
    like the temporaries it replaces: not part of the ATM memory accounting.
    """
    blocks = getattr(_scratch, "blocks", None)
    if blocks is None:
        blocks = _scratch.blocks = (
            np.empty(_BLOCK_WORDS, dtype=np.uint64),
            np.empty(_BLOCK_WORDS, dtype=np.uint64),
            _salt_table(),
        )
    return blocks


def _mix_block(words: np.ndarray, first: int, mix: np.ndarray, tmp: np.ndarray,
               salt: np.ndarray) -> int:
    """XOR of the salted splitmix64 lanes of one block of 64-bit ``words``,
    short of the finaliser's last xorshift (``z ^ z >> 31``): that step is
    GF(2)-linear, so it commutes with the XOR reduction and
    :func:`hash_views` applies it once to the reduced accumulator instead of
    spending two passes per block on it.

    ``first`` is the 0-based stream position of ``words[0]``; every pass
    writes into the scratch blocks (``words`` may be ``tmp`` itself: it is
    consumed by the first pass).
    """
    m = words.size
    mix = mix[:m]
    tmp = tmp[:m]
    if first:
        np.add(salt[:m], np.uint64((first * _C1) & _MASK64), out=mix)
        np.bitwise_xor(mix, words, out=mix)
    else:
        np.bitwise_xor(words, salt[:m], out=mix)
    np.add(mix, _SPLITMIX_C1, out=mix)
    np.right_shift(mix, _SHIFT_30, out=tmp)
    np.bitwise_xor(mix, tmp, out=mix)
    np.multiply(mix, _SPLITMIX_C2, out=mix)
    np.right_shift(mix, _SHIFT_27, out=tmp)
    np.bitwise_xor(mix, tmp, out=mix)
    np.multiply(mix, _SPLITMIX_C3, out=mix)
    return int(np.bitwise_xor.reduce(mix))


def hash_views(views: Iterable[BytesLike], seed: int = 0, function: str = "numpy") -> int:
    """Hash the concatenation of ``views`` without building it.

    The one entry point of the key generator.  For the vectorised ``"numpy"``
    hash the byte stream is read as little-endian 64-bit words, each word is
    salted with its position and pushed through the splitmix64 finaliser, and
    the lanes are XOR-reduced before a final mix that also folds in the total
    length and the seed.  The stream is walked in fixed cache-sized blocks
    mixed in place on two per-thread scratch blocks: aligned word runs are
    read straight from the view, anything else (unaligned views, words that
    straddle two views, the zero-padded last word) is staged through one
    scratch block, so nothing proportional to the input is allocated.  The
    result equals ``hash_bytes`` of the concatenated bytes.

    The scalar Jenkins functions take one buffer, so for them the views are
    concatenated.
    """
    bufs = [_as_uint8(view) for view in views]
    if function != "numpy":
        data = bufs[0] if len(bufs) == 1 else np.concatenate(bufs)
        return HASH_FUNCTIONS[function](data, seed)
    seed &= _MASK64
    n = sum(buf.size for buf in bufs)
    if n == 0:
        return _splitmix64_int(seed ^ 0xA5A5A5A5A5A5A5A5)
    mix, tmp, salt = _scratch_blocks()
    stage = tmp.view(np.uint8)
    acc = 0
    first = 0  # words mixed so far
    fill = 0   # bytes staged and not yet mixed
    for buf in bufs:
        pos = 0
        size = buf.size
        while pos < size:
            if fill == 0 and size - pos >= 8:
                m = min((size - pos) >> 3, _BLOCK_WORDS)
                words = buf[pos:pos + 8 * m].view(np.uint64)
                if words.flags.aligned:
                    acc ^= _mix_block(words, first, mix, tmp, salt)
                    first += m
                    pos += 8 * m
                    continue
            take = min(size - pos, _BLOCK_BYTES - fill)
            stage[fill:fill + take] = buf[pos:pos + take]
            fill += take
            pos += take
            if fill == _BLOCK_BYTES:
                acc ^= _mix_block(tmp, first, mix, tmp, salt)
                first += _BLOCK_WORDS
                fill = 0
    if fill:
        m = (fill + 7) >> 3
        stage[fill:8 * m] = 0
        acc ^= _mix_block(tmp[:m], first, mix, tmp, salt)
    acc ^= acc >> 31  # the lanes' last xorshift, after their reduction
    acc ^= (n * _C3) & _MASK64
    return _splitmix64_int(acc ^ seed)


def hash_bytes(data: BytesLike, seed: int = 0) -> int:
    """Vectorised 64-bit hash of one byte buffer (see :func:`hash_views`).

    Deterministic across platforms; ``seed`` is taken modulo 2^64.
    """
    return hash_views((data,), seed)


def combine_digests(digests: Iterable[int], count: int, seed: int = 0) -> int:
    """Key of a multi-input task from its inputs' digests, in input order.

    A seeded splitmix64 chain: the state starts from the seed and ``count``
    (the sampled bytes of the whole task) and absorbs one digest per step,
    so the result depends on the digests' order.  A step is a bijection of
    the state for a fixed digest and of the digest for a fixed state: two
    sequences that differ in one digest never collide.
    """
    state = _splitmix64_int((seed ^ (count * _C3)) & _MASK64)
    for digest in digests:
        state = _splitmix64_int(state ^ digest)
    return state


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


#: Registry of usable whole-buffer hash functions, keyed by config name.
HASH_FUNCTIONS = {
    "numpy": hash_bytes,
    "lookup3": jenkins_lookup3,
    "one_at_a_time": lambda data, seed=0: jenkins_one_at_a_time(data, seed),
}
