"""Frozen type-aware shuffle oracle: the parent-commit full permutation.

``byte_significance_ranks`` and ``significance_order`` below are verbatim
copies of :mod:`repro.common.dtypes` as of commit ``cd38fcc``: one N-sized
rank array, one full N-entry permutation per call.  The prefix-lazy
``significance_order`` in ``src/`` must return exactly the leading entries of
this order for the same generator state.

Do not optimise this module.
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import TypeDescriptor

__all__ = ["byte_significance_ranks", "significance_order"]


def byte_significance_ranks(descriptor: TypeDescriptor, nbytes: int) -> np.ndarray:
    """Rank every byte of a region by significance level.

    Returns an int array ``ranks`` of length ``nbytes`` where ``ranks[i]`` is
    the significance level of byte ``i`` (0 = most significant byte of its
    element).  Trailing bytes that do not form a full element (possible only
    for raw buffers) are assigned the lowest significance.
    """
    itemsize = max(1, descriptor.itemsize)
    ranks = np.empty(nbytes, dtype=np.int64)
    if itemsize == 1:
        ranks.fill(0)
        return ranks
    offsets = descriptor.msb_first_byte_offsets()
    # offset -> rank (position in MSB-first order)
    rank_of_offset = np.empty(itemsize, dtype=np.int64)
    for rank, offset in enumerate(offsets):
        rank_of_offset[offset] = rank
    n_full = (nbytes // itemsize) * itemsize
    if n_full:
        within = np.arange(n_full, dtype=np.int64) % itemsize
        ranks[:n_full] = rank_of_offset[within]
    if n_full < nbytes:
        ranks[n_full:] = itemsize - 1
    return ranks


def significance_order(
    descriptors: list[tuple[TypeDescriptor, int]],
    rng: np.random.Generator,
) -> np.ndarray:
    """Type-aware shuffled index vector over the concatenated inputs.

    ``descriptors`` is a list of ``(TypeDescriptor, nbytes)`` pairs describing
    the task's data inputs in concatenation order.  The returned index vector
    covers ``sum(nbytes)`` global byte positions.  Bytes are grouped by
    significance level (level 0 = most significant byte of every element of
    every input) and each group is independently shuffled; groups are then
    concatenated from most to least significant, exactly as Section III-C
    describes ("first shuffles the indexes pointing to the MSBs of the data
    inputs, then the next MSBs, ...").
    """
    total = sum(nbytes for _, nbytes in descriptors)
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ranks = np.empty(total, dtype=np.int64)
    cursor = 0
    for descriptor, nbytes in descriptors:
        ranks[cursor:cursor + nbytes] = byte_significance_ranks(descriptor, nbytes)
        cursor += nbytes
    indices = np.arange(total, dtype=np.int64)
    order_parts: list[np.ndarray] = []
    for level in range(int(ranks.max()) + 1):
        group = indices[ranks == level]
        if group.size:
            order_parts.append(rng.permutation(group))
    return np.concatenate(order_parts)
