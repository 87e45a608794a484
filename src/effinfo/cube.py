"""Distances on the l-cube {0,1}^l from a set of marked vertices.

The vertices are the 2^l sign patterns on a dataset of l points, as
bitmasks, and the marked ones are the distinct restriction masks of a
function class. `learning` reads its best-fit table from
`_min_mismatches_per_pattern`; `instances` checks the table's histogram
against `_reference_distance_counts`, which counts the same distances
another way and shares nothing with the table. Both are O(l * 2^l) numpy
passes that read only the masks.

Both take many instances of one length l at once, as rows: row r's masks
are offset by r << l into one flat index array of rows * 2^l entries
(`_stack_rows`), and a single instance is one row with offset 0. The
table's passes relax blocks of at most 2^l entries, which never cross a
row, and the search's single-bit flips stay below 2^l, so the rows never
meet. `learning` counts every row's table with one `bincount`, and the
search splits each sorted layer at the row starts. `verify` checks its
instances in chunks of at most max(2^l, CHUNK_ENTRIES) entries.
"""
from __future__ import annotations

import numpy as np

# Entries (rows * 2^l) a chunk of rows may hold past a single row, and the
# neighbour indices one scatter of the reference search may hold.
CHUNK_ENTRIES = 1 << 17


def _stack_rows(rows, length: int) -> np.ndarray:
    """The masks of many rows of length l as one flat index array: row r's
    masks plus r << l, in row order."""
    sizes = [m.size for m in rows]
    flat = np.repeat(np.arange(len(rows), dtype=np.intp) << length, sizes)
    flat += np.concatenate(rows)
    return flat


def _min_mismatches_per_pattern(masks: np.ndarray, length: int,
                                rows: int = 1) -> np.ndarray:
    """For every sign pattern of every row, the best-fit mismatch count.

    The count is the Hamming distance from the pattern to the nearest
    restriction mask of its row, an L1 distance on {0,1}^l, and L1 distance
    transforms separate by axis: start from 0 at each mask and l + 1
    elsewhere, then for each bit b set d[v] = min(d[v], d[v ^ 2^b] + 1).
    Each pass views the table as (block, bit b, low bits) and relaxes the
    two halves against each other. O(l * 2^l) work per row and one uint8
    table of rows * 2^l entries, whatever the number of masks.
    """
    table = np.full(rows << length, length + 1, dtype=np.uint8)
    table[masks] = 0
    for b in range(length):
        halves = table.reshape(-1, 2, 1 << b)
        low, high = halves[:, 0], halves[:, 1]
        np.minimum(low, high + 1, out=low)
        np.minimum(high, low + 1, out=high)
    return table


def _reference_distance_counts(masks: np.ndarray, length: int,
                               rows: int = 1) -> list[tuple[int, ...]]:
    """For each row, how many patterns lie at each distance 0..l from its
    nearest mask; the masks are sorted, as `_stack_rows` keeps sorted rows.

    A breadth-first search over the l-cube from all masks: layer k is the
    unreached single-bit flips of layer k - 1, and a row's layer sizes,
    padded with zeros to l + 1, are the histogram of its best-fit table.
    O(l * 2^l) work per row in two bool arrays of rows * 2^l entries; the
    flips are scattered in groups, so the neighbour indices of one scatter
    number at most max(rows * 2^l, CHUNK_ENTRIES). Shares nothing with the
    best-fit table.
    """
    unreached = np.ones(rows << length, dtype=bool)
    unreached[masks] = False
    layer = np.zeros_like(unreached)
    flips = 1 << np.arange(length)
    scratch = max(unreached.size, CHUNK_ENTRIES)  # one group for every l <= 13
    frontier, remaining = masks, unreached.size - masks.size
    # a sorted layer's per-row sizes are the gaps between its row starts
    starts = np.arange(rows + 1, dtype=np.intp) << length
    bounds = [masks.searchsorted(starts)]
    while remaining:
        group = max(1, scratch // frontier.size)
        for first in range(0, length, group):
            layer[(frontier[:, None] ^ flips[first:first + group]).ravel()] = True
        layer &= unreached
        frontier = np.flatnonzero(layer)
        unreached ^= layer
        layer[frontier] = False
        remaining -= frontier.size
        bounds.append(frontier.searchsorted(starts))
    bounds = np.array(bounds)
    counts = np.zeros((rows, length + 1), dtype=np.intp)
    counts[:, :len(bounds)] = (bounds[:, 1:] - bounds[:, :-1]).T
    return list(map(tuple, counts.tolist()))
