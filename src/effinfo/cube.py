"""Distances on the l-cube {0,1}^l from a set of marked vertices.

The vertices are the 2^l sign patterns on a dataset of l points, as
bitmasks, and the marked ones are the distinct restriction masks of a
function class. `learning` reads its best-fit table from
`_min_mismatches_per_pattern`; `instances` checks the table's histogram
against `_reference_distance_counts`, which counts the same distances
another way and shares nothing with the table. Both are O(l * 2^l) numpy
passes that read only the masks.

Both take many instances at once, as rows of one flat index array, one
length l_r per row. The rows are laid out longest first, and row r takes
the 2^l_r entries from the sum of the sizes before it (`_row_starts`); as
the sizes never grow, each row starts at a multiple of its own size, so its
masks are its restriction masks plus that start, and the rows' masks are
one sorted array (`instances._window_masks` builds it from drawn codes). A
single instance is one row with start 0. The rows longer than bit b are
then a prefix of the array, so each kernel's step for bit b reads only that
prefix: the work is exactly the sum of l_r * 2^l_r, with no padding, and a
flip of bit b never leaves a row that has it. `learning` counts every row's
table with one `bincount`, and the search splits each sorted layer at the
row starts.
"""
from __future__ import annotations

import numpy as np


def _row_starts(lengths) -> np.ndarray:
    """Where each row of non-increasing lengths starts, and the total size last."""
    starts = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(np.left_shift(1, lengths, dtype=np.intp), out=starts[1:])
    return starts


def _prefix_ends(lengths, starts: np.ndarray) -> np.ndarray:
    """For each bit b below the longest length, the end of the rows longer than b."""
    longer = np.searchsorted(-np.asarray(lengths), -np.arange(lengths[0]))
    return starts[longer]


def _min_mismatches_per_pattern(masks: np.ndarray, lengths) -> np.ndarray:
    """For every sign pattern of every row, the best-fit mismatch count.

    The count is the Hamming distance from the pattern to the nearest
    restriction mask of its row, an L1 distance on {0,1}^l, and L1 distance
    transforms separate by axis: start from 0 at each mask and past the
    longest length elsewhere (every row holds a mask, so no entry keeps
    it), then for each bit b set d[v] = min(d[v], d[v ^ 2^b] + 1) on the
    rows longer than b. Each pass views that prefix as (block, bit b, low
    bits) and relaxes the two halves against each other. O(l * 2^l) work
    per row and one uint8 table of the rows' 2^l_r entries, whatever the
    number of masks.
    """
    starts = _row_starts(lengths)
    table = np.full(starts[-1], lengths[0] + 1, dtype=np.uint8)
    table[masks] = 0
    for b, end in enumerate(_prefix_ends(lengths, starts)):
        halves = table[:end].reshape(-1, 2, 1 << b)
        low, high = halves[:, 0], halves[:, 1]
        np.minimum(low, high + 1, out=low)
        np.minimum(high, low + 1, out=high)
    return table


def _reference_distance_counts(masks: np.ndarray, lengths) -> list[tuple[int, ...]]:
    """For each row, how many patterns lie at each distance 0..l_r from its
    nearest mask; the masks are sorted, as the row layout keeps them.

    A breadth-first search over the l-cube from all masks: layer k is the
    unreached single-bit flips of layer k - 1, and a row's layer sizes,
    padded with zeros to l_r + 1, are the histogram of its best-fit table.
    Bit b is flipped only on the layer's prefix in rows longer than b (one
    search cuts the layer at every bit's prefix end), so the neighbour
    indices of one scatter number at most the layer. O(l * 2^l) work per
    row in two bool arrays of the rows' 2^l_r entries. Shares nothing with
    the best-fit table.
    """
    starts = _row_starts(lengths)
    ends = _prefix_ends(lengths, starts)
    unreached = np.ones(starts[-1], dtype=bool)
    unreached[masks] = False
    layer = np.zeros_like(unreached)
    # as indices, so that searching a layer for a row start casts nothing
    frontier, remaining = masks.astype(np.intp, copy=False), unreached.size - masks.size
    # a sorted layer's per-row sizes are the gaps between its row starts
    bounds = [frontier.searchsorted(starts)]
    while remaining:
        for b, cut in enumerate(frontier.searchsorted(ends).tolist()):
            layer[frontier[:cut] ^ (1 << b)] = True
        layer &= unreached
        frontier = np.flatnonzero(layer)
        unreached ^= layer
        layer[frontier] = False
        remaining -= frontier.size
        bounds.append(frontier.searchsorted(starts))
    bounds = np.array(bounds)
    counts = (bounds[:, 1:] - bounds[:, :-1]).T.tolist()
    return [tuple(c[:l + 1] + [0] * (l + 1 - len(c))) for c, l in zip(counts, lengths)]
