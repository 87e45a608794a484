"""Distances on the l-cube {0,1}^l from a set of marked vertices.

The vertices are the 2^l sign patterns on a dataset of l points, as
bitmasks, and the marked ones are the distinct restriction masks of a
function class. `learning` reads its best-fit table from
`_min_mismatches_per_pattern`; `instances` checks the table's histogram
against `_reference_distance_counts`, which counts the same distances
another way and shares nothing with the table. Both are O(l * 2^l) numpy
passes that read only the masks.
"""
from __future__ import annotations

import numpy as np


def _min_mismatches_per_pattern(masks: np.ndarray, length: int) -> np.ndarray:
    """For every sign pattern on the dataset, the best-fit mismatch count.

    The count is the Hamming distance from the pattern to the nearest
    restriction mask, an L1 distance on {0,1}^l, and L1 distance transforms
    separate by axis: start from 0 at each mask and l + 1 elsewhere, then
    for each bit b set d[v] = min(d[v], d[v ^ 2^b] + 1). Each pass views the
    table as (block, bit b, low bits) and relaxes the two halves against
    each other. O(l * 2^l) work and one uint8 table of 2^l entries,
    whatever the number of masks.
    """
    table = np.full(1 << length, length + 1, dtype=np.uint8)
    table[masks] = 0
    for b in range(length):
        halves = table.reshape(-1, 2, 1 << b)
        low, high = halves[:, 0], halves[:, 1]
        np.minimum(low, high + 1, out=low)
        np.minimum(high, low + 1, out=high)
    return table


def _reference_distance_counts(masks: np.ndarray, length: int) -> tuple[int, ...]:
    """How many patterns lie at each distance 0..l from the nearest mask.

    A breadth-first search over the l-cube from all masks: layer k is the
    unreached single-bit flips of layer k - 1, and the layer sizes, padded
    with zeros to l + 1, are the histogram of the best-fit table. O(l * 2^l)
    work in two 2^l bool arrays; the flips are scattered in groups, so the
    neighbour indices of one scatter number at most max(2^l, 2^17). Shares
    nothing with the best-fit table.
    """
    unreached = np.ones(1 << length, dtype=bool)
    unreached[masks] = False
    layer = np.zeros_like(unreached)
    flips = 1 << np.arange(length)
    scratch = max(unreached.size, 1 << 17)  # one group for every l <= 13
    frontier, remaining, counts = masks, unreached.size - masks.size, [masks.size]
    while remaining:
        group = max(1, scratch // frontier.size)
        for first in range(0, length, group):
            layer[(frontier[:, None] ^ flips[first:first + group]).ravel()] = True
        layer &= unreached
        frontier = np.flatnonzero(layer)
        unreached ^= layer
        layer[frontier] = False
        remaining -= frontier.size
        counts.append(frontier.size)
    return tuple(counts + [0] * (length + 1 - len(counts)))
