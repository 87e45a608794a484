"""Distances on the l-cube {0,1}^l from a set of marked vertices.

The vertices are the 2^l sign patterns on a dataset of l points, as
bitmasks, and the marked ones are the distinct restriction masks of a
function class. `_best_fit_counts` counts the histogram of the best-fit
table (`_min_mismatches_per_pattern`), and `_reference_distance_counts`
counts the same distances another way, sharing nothing with the table.
Both return one shape, a (rows, l_0 + 2) intp array, l_0 the longest row's
length: row r's count k is the number of its patterns at distance k from
its nearest mask. So `instances` compares the two as plain arrays, and
`learning` reads an instance's pattern counts off its row. Both are
O(l * 2^l) numpy passes that read only the masks.

Both take many instances at once, as rows of one flat index array, one
length l_r per row. The rows are laid out longest first, and row r takes
the 2^l_r entries from the sum of the sizes before it (`_row_starts`); as
the sizes never grow, each row starts at a multiple of its own size, so its
masks are its restriction masks plus that start, and the rows' masks are
one sorted array (`instances._window_masks` builds it from drawn codes). A
single instance is one row with start 0. The rows longer than bit b are
then a prefix of the array, so each kernel's step for bit b reads only that
prefix: the work is exactly the sum of l_r * 2^l_r, with no padding, and a
flip of bit b never leaves a row that has it.

The table is one byte per pattern. Its passes for bits 0-3 run on a
transposed copy of the rows of 16 patterns or more, so that each reads whole
rows of the copy, not inner axes of 1 to 8 bytes; the table and the copy,
or the table and one pass's temporary, peak at 2 bytes per pattern, and
counting it adds one block's keys, 128 KiB at any l. The search holds one
bit per pattern in uint64 words, each row padded to at least one word: its
frontier, its unseen set and its next layer, seven words of flips a word
and a layer's popcounts, 1.4 bytes per pattern at its peak. (Peaks traced
with `tracemalloc` at l = 20.)
"""
from __future__ import annotations

import numpy as np

# A pattern's bits 0-5 are its place in a uint64 word. Flipping bit b moves
# the places whose bit b is clear (_CLEAR[b]) up by 2^b (_SHIFT[b]), and the
# others down by as much.
_CLEAR = np.array([[0x5555555555555555], [0x3333333333333333], [0x0F0F0F0F0F0F0F0F],
                   [0x00FF00FF00FF00FF], [0x0000FFFF0000FFFF], [0x00000000FFFFFFFF]],
                  dtype=np.uint64)
_SHIFT = np.array([[1], [2], [4], [8], [16], [32]], dtype=np.uint64)
# Table entries counted by one `bincount`: its 8-byte keys take 128 KiB.
_COUNT_BLOCK = 1 << 14


def _row_starts(lengths) -> np.ndarray:
    """Where each row of non-increasing lengths starts, and the total size last."""
    starts = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(np.left_shift(1, lengths, dtype=np.intp), out=starts[1:])
    return starts


def _prefix_ends(lengths: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """For each bit b below the longest length, the end of the rows longer than b."""
    longer = np.searchsorted(-lengths, -np.arange(lengths[0]))
    return starts[longer]


def _min_mismatches_per_pattern(masks: np.ndarray, lengths) -> np.ndarray:
    """For every sign pattern of every row, the best-fit mismatch count.

    The count is the Hamming distance from the pattern to the nearest
    restriction mask of its row, an L1 distance on {0,1}^l, and L1 distance
    transforms separate by axis: start from 0 at each mask and past the
    longest length elsewhere (every row holds a mask, so no entry keeps
    it), then for each bit b set d[v] = min(d[v], d[v ^ 2^b] + 1) on the
    rows longer than b. Each pass views its entries as (block, bit b, rest)
    and relaxes both halves at once, as the new high half is
    min(high, low + 1) whether or not the low half was relaxed first.

    The rows of 16 patterns or more are a prefix ending at a multiple of
    16. Their passes for bits 0-3 run on a (16, prefix / 16) copy, where bit
    b < 4 of a pattern picks the copy's row, so each pass reads rows of
    prefix / 16 contiguous bytes; the copy is written back for bits 4 and up.
    The shorter rows take those four passes in place. O(l * 2^l) work per
    row and one uint8 table of the rows' 2^l_r entries, whatever the number
    of masks.
    """
    lengths = np.asarray(lengths)
    starts = _row_starts(lengths)
    ends = _prefix_ends(lengths, starts).tolist()
    far = lengths[0] + 1
    wide = ends[3] if len(ends) > 3 else 0
    cut = int(masks.searchsorted(wide))
    transposed = np.full((16, wide >> 4), far, dtype=np.uint8)
    transposed[masks[:cut] & 15, masks[:cut] >> 4] = 0
    for b in range(4):
        h = transposed.reshape(8 >> b, 2, -1)
        np.minimum(h, h[:, ::-1] + 1, out=h)
    table = np.empty(starts[-1], dtype=np.uint8)
    table[:wide].reshape(-1, 16).T[...] = transposed
    del transposed
    table[wide:] = far
    table[masks[cut:]] = 0
    for b, end in enumerate(ends):
        h = table[wide if b < 4 else 0:end].reshape(-1, 2, 1 << b)
        np.minimum(h, h[:, ::-1] + 1, out=h)
    return table


def _best_fit_counts(masks: np.ndarray, lengths) -> np.ndarray:
    """Every row's best-fit histogram: a (rows, l_0 + 2) array, l_0 the
    longest length, counted in blocks of `_COUNT_BLOCK` entries, one
    `bincount` a block.

    The table starts every entry at l_0 + 1 and only lowers it, so l_0 + 2
    bins hold every entry, even one that a broken table leaves past l_r. A
    row starts at a multiple of its size, so it lies within one block or
    spans whole blocks of its own; within a block of several rows, row r's
    entries k are keyed (r - first row) * bins + k, and a block of one row
    by its entries.
    """
    lengths = np.asarray(lengths)
    table = _min_mismatches_per_pattern(masks, lengths)
    bins = int(lengths[0]) + 2
    starts = _row_starts(lengths)
    # each row's entries within any block that holds it, and its key offset
    sizes = np.minimum(np.left_shift(1, lengths), _COUNT_BLOCK)
    offsets = np.arange(0, len(lengths) * bins, bins)
    counts = np.zeros(len(lengths) * bins, dtype=np.intp)
    for start in range(0, table.size, _COUNT_BLOCK):
        end = min(start + _COUNT_BLOCK, table.size)
        # the rows holding the block's entries, from the one it starts in
        first, stop = starts.searchsorted((start, end - 1), side="right").tolist()
        first -= 1
        keys = table[start:end]
        if stop - first > 1:
            keys = np.repeat(offsets[:stop - first], sizes[first:stop])
            keys += table[start:end]
        counts[first * bins:stop * bins] += np.bincount(keys, minlength=(stop - first) * bins)
    return counts.reshape(-1, bins)


def _reference_distance_counts(masks: np.ndarray, lengths) -> np.ndarray:
    """For each row, how many patterns lie at each distance from its nearest
    mask, as `_best_fit_counts` counts them: a (rows, l_0 + 2) array; the
    masks are sorted, as the row layout keeps them.

    A breadth-first search over the l-cube from all masks: layer k is the
    unseen single-bit flips of layer k - 1, and a row's layer sizes, padded
    with zeros, are the histogram of its best-fit table. The sets are bits
    of uint64 words: a row of 64 patterns or more takes 2^(l_r - 6) words
    from its start, and each shorter row one word of its own after them,
    whose places past 2^l_r are seen from the start. So a
    flip of bits 0-5 is a shift within every word, with no cut at a row's
    length (a flip past l_r lands in padding and is dropped), and all six
    take a fixed number of calls a layer; a flip of bit b >= 6 swaps blocks
    of 2^(b - 6) words in the rows longer than b. Each layer's per-row
    counts are one sum of popcounts from each row's first word. O(l * 2^l)
    work per row. Shares nothing with the best-fit table.
    """
    lengths = np.asarray(lengths)
    starts = _row_starts(lengths)
    ends = _prefix_ends(lengths, starts).tolist()
    # row r's first word; its masks move there from its start
    words = _row_starts(np.maximum(lengths, 6)) >> 6
    places = masks + np.repeat((words[:-1] << 6) - starts[:-1],
                               np.diff(masks.searchsorted(starts)))
    marked = np.zeros(words[-1] << 6, dtype=bool)
    marked[places] = True
    frontier = np.packbits(marked, bitorder="little").view("<u8")
    del marked, places
    unseen = ~frontier
    # the places past 2^l_r in a short row's word are padding
    row_places = np.left_shift(1, np.minimum(lengths, 6)).astype(np.uint64)
    unseen[words[:-1]] &= ~np.left_shift(~np.uint64(0), row_places)
    layer = np.empty_like(frontier)
    # six rows of flips of bits 0-5 and a seventh for the upward ones
    flips = np.empty((7, frontier.size), dtype=np.uint64)
    moved, up = flips[:6], flips[6]
    # for each bit b >= 6, the layer's pairs of blocks and the frontier's, swapped
    block_flips = [(layer[:end >> 6].reshape(-1, 2, 1 << b),
                    frontier[:end >> 6].reshape(-1, 2, 1 << b)[:, ::-1])
                   for b, end in enumerate(ends[6:])]
    counts = [np.add.reduceat(np.bitwise_count(frontier), words[:-1], dtype=np.intp)]
    found = int(counts[0].sum())
    remaining = int(starts[-1]) - found
    # a correct search finds a pattern in every layer until none remains
    while remaining and found:
        np.bitwise_and(frontier, _CLEAR, out=moved)
        moved <<= _SHIFT
        np.bitwise_or.reduce(moved, axis=0, out=up)
        np.right_shift(frontier, _SHIFT, out=moved)
        moved &= _CLEAR
        np.bitwise_or.reduce(flips, axis=0, out=layer)
        for halves, swapped in block_flips:
            halves |= swapped
        layer &= unseen
        unseen ^= layer
        counts.append(np.add.reduceat(np.bitwise_count(layer), words[:-1], dtype=np.intp))
        found = int(counts[-1].sum())
        remaining -= found
        frontier[...] = layer
    # a row's last layer is at most l_r, so the table's l_0 + 2 bins hold all
    histograms = np.zeros((lengths[0] + 2, lengths.size), dtype=np.intp)
    histograms[:len(counts)] = counts
    return histograms.T
