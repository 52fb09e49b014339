"""Type descriptors for type-aware input selection (paper Section III-C).

The OmpSs runtime only knows the start address and size of each data region;
the paper extends the runtime API so the compiler can also communicate the
element type of every input and output.  With that information the hash-key
generator can shuffle the *most significant byte* of every element first, then
the next most significant byte, and so on, so that a small sampling percentage
``p`` still protects sign and exponent bits of floating-point data and sign
and high-order bits of integer data.

This module provides the Python equivalent: a :class:`TypeDescriptor` derived
from a NumPy dtype, and :func:`significance_order`, which returns for a region
of ``n`` elements the byte indexes ordered from most to least significant
(grouped by significance level, as the paper describes) — or just the leading
part of that order a sampling fraction needs.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TypeDescriptor",
    "describe_array",
    "significance_order",
]


@dataclass(frozen=True)
class TypeDescriptor:
    """Describes the element type of a data region.

    Attributes
    ----------
    name:
        Canonical NumPy dtype name (``"float32"``, ``"int64"``...).
    itemsize:
        Bytes per ranked element: a complex dtype is described by its float
        component, a raw, record or string dtype as single bytes.
    kind:
        NumPy kind character: ``'f'`` float (also the two components of a
        complex element), ``'i'`` signed int, ``'u'`` unsigned int, ``'b'``
        boolean, ``'V'`` raw/void.
    byteorder:
        ``"little"`` or ``"big"``; raw byte buffers are treated as
        little-endian single-byte elements.
    """

    name: str
    itemsize: int
    kind: str
    byteorder: str = "little"

    def msb_first_byte_offsets(self) -> list[int]:
        """Byte offsets within one element, most significant first.

        For little-endian multi-byte types the most significant byte is the
        last one of the element; for big-endian it is the first.  Single-byte
        types trivially return ``[0]``.
        """
        offsets = list(range(self.itemsize))
        if self.byteorder == "little":
            offsets.reverse()
        return offsets


#: Descriptors depend on the dtype alone, and programs use a handful of
#: dtypes across millions of regions — memoise them (``dtype.name`` alone
#: costs microseconds per call, measurable on the task-submission path).
@functools.cache
def describe_dtype(dtype: np.dtype) -> TypeDescriptor:
    """Build (or fetch the cached) :class:`TypeDescriptor` for a dtype."""
    order = {"<": "little", ">": "big"}.get(dtype.byteorder, sys.byteorder)
    name, itemsize, kind = dtype.name, int(dtype.itemsize), dtype.kind
    if kind == "c":
        # Two floats side by side, each with its own sign/exponent byte:
        # ranked as one wide integer, every byte of the imaginary part would
        # come before the real part's most significant one.
        name, itemsize, kind = f"float{4 * itemsize}", itemsize // 2, "f"
    elif kind in "VSU":
        # Raw buffers, records and strings: single-byte elements.
        itemsize = 1
    return TypeDescriptor(name=name, itemsize=itemsize, kind=kind, byteorder=order)


def describe_array(array: np.ndarray) -> TypeDescriptor:
    """Build a :class:`TypeDescriptor` from a NumPy array."""
    return describe_dtype(array.dtype)


def _significance_levels(
    descriptors: list[tuple[TypeDescriptor, int]],
) -> list[list[range]]:
    """Per significance level, the global byte positions it holds, ascending.

    Level 0 holds the most significant byte of every element of every input.
    Positions are described as strided ``range`` runs, possibly empty (one
    per input, plus one for a trailing partial element, which only raw
    buffers can have and which ranks with the input's least significant
    bytes), so nothing sized by the inputs is built until a level is shuffled.
    """
    levels: list[list[range]] = []
    cursor = 0
    for descriptor, nbytes in descriptors:
        offsets = descriptor.msb_first_byte_offsets() or [0]
        itemsize = len(offsets)
        end = cursor + nbytes
        full_end = end - nbytes % itemsize
        levels.extend([] for _ in range(len(levels), itemsize))
        for level, offset in enumerate(offsets):
            levels[level].append(range(cursor + offset, full_end, itemsize))
        levels[itemsize - 1].append(range(full_end, end))
        cursor = end
    return levels


def significance_order(
    descriptors: list[tuple[TypeDescriptor, int]],
    rng: np.random.Generator,
    count: int | None = None,
) -> np.ndarray:
    """Type-aware shuffled index vector over the concatenated inputs.

    ``descriptors`` is a list of ``(TypeDescriptor, nbytes)`` pairs describing
    the task's data inputs in concatenation order.  The index vector covers
    ``sum(nbytes)`` global byte positions.  Bytes are grouped by significance
    level (level 0 = most significant byte of every element of every input)
    and each group is independently shuffled; groups are then concatenated
    from most to least significant, exactly as Section III-C describes ("first
    shuffles the indexes pointing to the MSBs of the data inputs, then the
    next MSBs, ...").

    With ``count`` only the first ``count`` entries are returned, and only the
    levels that cover them are built and shuffled (levels draw from ``rng`` in
    order, so the prefix is the one the full vector starts with): a sampling
    fraction below ``1 / itemsize`` costs one level, not ``sum(nbytes)``.
    """
    parts: list[np.ndarray] = []
    have = 0
    for runs in _significance_levels(descriptors):
        if count is not None and have >= count:
            break
        pieces = [
            np.arange(run.start, run.stop, run.step, dtype=np.int64)
            for run in runs if run
        ]
        if not pieces:
            continue
        group = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        rng.shuffle(group)
        parts.append(group)
        have += group.size
    if not parts:
        return np.empty(0, dtype=np.int64)
    order = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return order if count is None else order[:count]
