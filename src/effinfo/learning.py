"""Empirical risk minimization as a deterministic system over hypothesis space.

The hypothesis space over a finite point set X is the set of all 2^|X| sign
labelings. Given a function class F and an unlabeled dataset D of l distinct
points, the learner maps each labeling to the minimum disagreement fraction
any f in F achieves on D. Treating that map as a physical system yields:

* its perfect-fit effective information, which equals l minus the empirical
  VC-entropy (log2 of the number of distinct restrictions of F to D), and
  counts falsified hypotheses in bits;
* its expected output risk, which equals (1 - R)/2 where R is the empirical
  Rademacher complexity.

Both identities are exact, so this module does exact arithmetic: counts are
Python integers, risks and weights are `fractions.Fraction`, and log2 is
`math.log2` of an exact integer count, exact on powers of two at any size.
The learner's value on a labeling depends only on the labeling's
restriction to the l distinct dataset points, so each restriction pattern
stands for exactly 2^(|X| - l) full labelings; enumerations therefore run
over 2^l patterns, which is exactly equivalent to the 2^|X| sweep (the test
suite checks this against a literal sweep at small sizes). The factor
cancels before any float exists: ei(L,0) is l - log2 of the zero-risk
count, the same expression as l - V. Nothing enumerates 2^|X|: the one
enumeration limit, `cap`, bounds l, checked once in `analyze_learner`.

A `FunctionClass` is one read-only (|F|, |X|) int8 matrix of +1/-1, one
row per function, 1 byte a sign. Its one constructor takes sign rows, read
by `_sign_matrix`, or an int8 matrix, such as `documents.load_json` reads
from a document's text, held as the class's own copy; both are checked by
one validator, `_checked_signs`: array passes, and only on a fault a walk
over the rows to word it (`_sign_fault`, which `Labeling` calls).
Its `functions` are built as `Labeling`s only when read. Rows are told
apart one way: each row is one key, `_row_keys`, sorted and compared with
its neighbours by `_sorted_distinct`, never hashed. `_checked_signs` wants
|F| keys, `restriction_count` counts those of F's columns at D, at any l,
and `_restriction_masks` are the same keys as uint32, under the cap.

Every quantity of one instance comes from one pass: `analyze_learner`
builds the distinct restriction masks of F on D once, and has
`cube._best_fit_counts` build one table from them, the best-fit mismatch
count of each of the 2^l patterns, by a hypercube distance transform in
O(l * 2^l) time, whatever |F| is, and count it once: the learner's
output-risk distribution. `cube` owns that histogram and its shape, one
row of a (rows, l_0 + 2) array per instance, and `verify` counts each
window of its instances as rows of one such array; `_count_tuple` is the
one place where a row becomes a tuple of l + 1 counts. A `LearnerAnalysis`
is those counts and the mask count, exact integers and nothing else, so
analyses are equal exactly when their counts are; every learning quantity
is derived from them (ei(L,0) and the fitted bits from the zero-risk
count, V from the mask count, expected risk and R from the mean, the
falsification table from each count), so a caller reads every
quantity off one analysis: `analyze_learner`, or
`instances.checked_analysis`, which also checks it.
`cube._reference_distance_counts` reads the same masks and counts the same
histograms again, in the same shape, by a breadth-first search over the
l-cube, O(l * 2^l), sharing nothing with the table; its `LearnerAnalysis`
is only the independent side of the identity checks.
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from operator import eq, index

import numpy as np

from . import channels, cube
from .errors import EnumerationCapError, ValidationError

# Largest dataset length l analyzed by default: a best-fit table of the 2^l
# sign patterns and a reference search over the same 2^l patterns, about 2
# and 1.4 bytes per pattern at their peaks.
DEFAULT_POINT_CAP = 20


@dataclass(frozen=True)
class PointSet:
    """An ordered set of distinct point identifiers."""

    points: tuple[str, ...]

    def __init__(self, points):
        points = tuple(str(p) for p in points)
        if not points:
            raise ValidationError("point set must contain at least one point")
        # each name against its sorted neighbour: a set took about 60 bytes a name
        ordered = sorted(points)
        if any(map(eq, ordered, islice(ordered, 1, None))):
            raise ValidationError("point identifiers must be distinct, "
                                  f"repeated: {channels._repeated(points)}")
        object.__setattr__(self, "points", points)

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, point: str) -> int:
        try:
            return self.points.index(point)
        except ValueError:
            shown = ", ".join(map(repr, self.points[:10])) + (", ..." if self.size > 10 else "")
            raise ValidationError(f"unknown point {point!r}, expected one of the "
                                  f"{self.size} points [{shown}]") from None

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Labeling:
    """A sign assignment (+1 / -1) to every point of a PointSet."""

    pointset: PointSet
    signs: tuple[int, ...]

    def __init__(self, pointset: PointSet, signs):
        signs = tuple(signs)
        if fault := _sign_fault(pointset, 0, signs):
            raise ValidationError(fault)
        object.__setattr__(self, "pointset", pointset)
        object.__setattr__(self, "signs", signs)


def _sign_fault(pointset: PointSet, i: int, signs) -> str | None:
    """What is wrong with `signs` as row i of a class over `pointset`, or
    None: that it is not a list, tuple or array, its length, or its first
    sign that is not exactly the int +1 or -1, in that order."""
    if type(signs) not in (list, tuple, np.ndarray):
        return f"function {i} must be a list of +1/-1 signs"
    if len(signs) != pointset.size:
        return f"labeling has {len(signs)} signs for {pointset.size} points"
    for p, s in zip(pointset.points, signs):
        # Exact type, not isinstance: True and 1.0 equal 1 but are not signs.
        if type(s) is not int or s not in (-1, 1):
            return f"sign at point {p!r} is {s!r}, must be the integer +1 or -1"
    return None


@dataclass(frozen=True, eq=False)
class FunctionClass:
    """A nonempty set of distinct labelings the learner may fit with.

    A class is its sign matrix: `signs` is a read-only (|F|, |X|) int8 array
    of +1/-1, one row per function, in order. It is built from a list or
    tuple of sign rows, read by `_sign_matrix`, or from an int8 (|F|, |X|)
    array, held as the class's own copy; an array of any other dtype or
    shape is read as rows. Either is checked by `_checked_signs`, with no
    fallback. `functions`, the rows as `Labeling`s, is built only when read.
    Two classes are equal when their point sets and sign matrices are.
    """

    pointset: PointSet
    signs: np.ndarray

    def __init__(self, pointset: PointSet, signs):
        if (type(signs) is np.ndarray and signs.dtype == np.int8 and signs.ndim == 2
                and signs.shape[0] and signs.shape[1] == pointset.size):
            signs = _checked_signs(pointset, signs.copy())
        else:
            signs = _sign_matrix(pointset, signs)
        signs.setflags(write=False)
        object.__setattr__(self, "pointset", pointset)
        object.__setattr__(self, "signs", signs)

    @cached_property
    def functions(self) -> tuple[Labeling, ...]:
        # tuple() of a list: of a generator, it grows by reallocation
        return tuple([Labeling(self.pointset, row) for row in self.signs.tolist()])

    @property
    def size(self) -> int:
        return self.signs.shape[0]

    def __eq__(self, other):
        if not isinstance(other, FunctionClass):
            return NotImplemented
        return self.pointset == other.pointset and np.array_equal(self.signs, other.signs)

    def __hash__(self):
        return hash((self.pointset, self.signs.tobytes()))


def _sign_matrix(pointset: PointSet, rows) -> np.ndarray:
    """`rows` as an int8 (|F|, |X|) matrix of +1/-1, read in one pass once
    every row is a list, tuple or array of |X| Python ints, and checked by
    `_checked_signs`; rows that cannot be read are refused at their first
    `_sign_fault`."""
    n = pointset.size
    if not len(rows):  # len(), not truth, which an array refuses
        raise ValidationError("function class must be nonempty")
    signs = None
    if (set(map(type, rows)) <= {list, tuple, np.ndarray} and set(map(len, rows)) == {n}
            and set(map(type, chain.from_iterable(rows))) <= {int}):
        with suppress(OverflowError):  # a sign past int8's range fails the read
            signs = np.fromiter(chain.from_iterable(rows), np.int8, len(rows) * n)
    if signs is None:
        raise ValidationError(_first_fault(pointset, rows))
    return _checked_signs(pointset, signs.reshape(len(rows), n))


def _checked_signs(pointset: PointSet, signs: np.ndarray) -> np.ndarray:
    """The int8 (|F|, |X|) matrix `signs`, checked in bulk passes: a sign
    other than +1 or -1 is refused at the first `_sign_fault` of its rows,
    as Python ints, in row order; only then a row equal to an earlier one,
    named as a tuple of Python ints."""
    # one bool array at a time: the peak is about 2 bytes per sign
    if np.count_nonzero(signs == -1) + np.count_nonzero(signs == 1) < signs.size:
        raise ValidationError(_first_fault(pointset, signs.tolist()))
    plus = signs == 1
    if _sorted_distinct(_row_keys(plus)).size < len(signs):
        keys = _row_keys(plus)
        order = np.argsort(keys, kind="stable")  # a repeat sorts after what it repeats
        first = order[1:][keys[order[1:]] == keys[order[:-1]]].min()
        raise ValidationError(f"duplicate function {tuple(signs[first].tolist())} in class")
    return signs


def _first_fault(pointset: PointSet, rows) -> str:
    """The first `_sign_fault` of `rows`, in row order."""
    return next(fault for i, row in enumerate(rows) if (fault := _sign_fault(pointset, i, row)))


def _row_keys(bits: np.ndarray) -> np.ndarray:
    """One key per row of a 2-D bool array: up to 64 columns its bits as one
    uint64 (bit k is column k), past that its packed bytes. The product casts
    its bits to uint64, so it takes 2^15 at a time, never all at 8 bytes a bit."""
    if bits.shape[1] > 64:
        packed = np.packbits(bits, axis=1)
        return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    weights = np.uint64(1) << np.arange(bits.shape[1], dtype=np.uint64)
    keys = np.empty(bits.shape[0], np.uint64)
    step = (1 << 15) // bits.shape[1]
    for start in range(0, bits.shape[0], step):
        np.matmul(bits[start:start + step], weights, out=keys[start:start + step])
    return keys


def _sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Each value of `keys` once, sorted in place and compared with its
    neighbours: `np.unique` hashes, hundreds of bytes a key, and its first
    call in a process costs milliseconds of set-up."""
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _integer(value, what: str) -> int:
    """`value`, named `what` if refused, as an int: an integer, numpy's too,
    but not bool, as `Labeling` refuses it, and no float or string, which
    int() would coerce."""
    if type(value) is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} {value!r} must be an integer")


@dataclass(frozen=True)
class Dataset:
    """An ordered tuple of l distinct point indices (the unlabeled data)."""

    pointset: PointSet
    indices: tuple[int, ...]

    def __init__(self, pointset: PointSet, indices):
        indices = tuple([_integer(i, "dataset index") for i in indices])
        if not indices:
            raise ValidationError("dataset must contain at least one point")
        seen = set()
        for i in indices:
            if not 0 <= i < pointset.size:
                raise ValidationError(
                    f"dataset index {i} out of range for {pointset.size} points")
            if i in seen:
                raise ValidationError(
                    f"dataset points must be distinct, point {pointset.points[i]!r} repeats")
            seen.add(i)
        object.__setattr__(self, "pointset", pointset)
        object.__setattr__(self, "indices", indices)

    @classmethod
    def from_points(cls, pointset: PointSet, names) -> "Dataset":
        """The dataset of the named points, resolved in one scan of X that
        stops once every name is found; the first name not found, in
        dataset order, is refused by `PointSet.index`."""
        names = list(names)
        # only a str can equal a point; any other name, unhashable too, is unknown
        found = dict.fromkeys(n for n in names if isinstance(n, str))
        left = len(found)
        for i, p in enumerate(pointset.points):
            if not left:
                break
            if p in found:
                found[p] = i
                left -= 1
        indices = [found.get(n) if isinstance(n, str) else None for n in names]
        if None in indices:
            pointset.index(names[indices.index(None)])
        return cls(pointset, indices)

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def points(self) -> tuple[str, ...]:
        return tuple(self.pointset.points[i] for i in self.indices)


@dataclass(frozen=True)
class LearnerAnalysis:
    """One (F, D) instance as exact counts: its best-fit pattern counts and
    its restriction count.

    `pattern_counts[k]` counts the 2^l sign patterns on D best fitted with k
    mismatches; each stands for 2^(|X| - l) labelings of X. They are the
    instance's row of `cube._best_fit_counts`, made a tuple of l + 1 by
    `_count_tuple`. `restriction_count` is |q_D(F)|, the number of distinct
    restriction masks the table is built from. Every other member is derived
    from these counts, once. The falsification report is `ei`, the bits of
    hypothesis space falsified, `fitted_bits`, the rest of its |X| bits, and
    `falsification_table`. `ei` is l - log2 of the zero-risk count and
    `vc_entropy` log2 of the restriction count, so ei and l - V agree bit
    for bit when those counts do. `expected_risk` and `rademacher` are both
    the pattern counts' mean, so Prop 2 reads R off the analysis of the same
    row of `cube._reference_distance_counts` instead. Counting them takes
    about 2 bytes per pattern at the table's peak, and the reference search
    1.4, so l = 24 takes about 32 and 23 MiB.
    """

    n_points: int
    length: int
    pattern_counts: tuple[int, ...]
    restriction_count: int

    @cached_property
    def expected_risk(self) -> Fraction:
        """Expected output risk of the learner over hypothesis space, exact."""
        mismatch_sum = sum(k * c for k, c in enumerate(self.pattern_counts))
        return Fraction(mismatch_sum, self.length << self.length)

    @cached_property
    def rademacher(self) -> Fraction:
        """Empirical Rademacher complexity, as an exact rational.

        Averages, over all 2^l sign patterns on the dataset, the best
        correlation (1/l) sum_k sigma_k f(d_k) achievable by the class; the
        average over all 2^|X| labelings of X is the same, as only D is read.
        """
        # Best correlation with a pattern is l - 2 * (its best-fit mismatches).
        return 1 - 2 * self.expected_risk

    @cached_property
    def ei(self) -> float:
        """Effective information of the learner's perfect-fit output, in bits.

        |X| minus log2 of the number of labelings some f in F fits exactly,
        which is l minus log2 of the zero-risk pattern count; defined for a
        right table, because any member of F fits its own labeling.
        """
        return self.length - math.log2(self.pattern_counts[0])

    @cached_property
    def fitted_bits(self) -> float:
        """log2 of the number of labelings of X some f in F fits exactly."""
        return math.log2(self.pattern_counts[0] << (self.n_points - self.length))

    @cached_property
    def falsification_table(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Each realized risk k/l with the exact fraction of hypothesis space
        whose best fit has that risk, in order of k."""
        l = self.length
        return tuple((Fraction(k, l), Fraction(c, 1 << l))
                     for k, c in enumerate(self.pattern_counts) if c)

    @property
    def vc_entropy(self) -> float:
        """Empirical VC-entropy: log2 of the restriction count, in bits."""
        return math.log2(self.restriction_count)


def _check_pointsets(*objs) -> None:
    first = objs[0].pointset
    for other in objs[1:]:
        if other.pointset != first:
            raise ValidationError("arguments are over different point sets")


def empirical_risk(f: Labeling, target: Labeling, d: Dataset) -> Fraction:
    """Disagreement fraction of f against the target labeling on the dataset."""
    _check_pointsets(f, target, d)
    mismatches = sum(1 for i in d.indices if f.signs[i] != target.signs[i])
    return Fraction(mismatches, d.length)


def erm(fc: FunctionClass, d: Dataset, target: Labeling) -> Fraction:
    """The minimum empirical risk over the class; only the value, no argmin."""
    _check_pointsets(fc, d, target)
    plus = np.take(target.signs, d.indices) > 0
    return Fraction(int(np.count_nonzero(_restricted(fc, d) != plus, axis=1).min()), d.length)


def _restricted(fc: FunctionClass, d: Dataset) -> np.ndarray:
    """F restricted to D as a (|F|, l) bool array: row f, column k is True
    iff f labels dataset position k with +1."""
    _check_pointsets(fc, d)
    return fc.signs.take(d.indices, axis=1) > 0


def restriction_count(fc: FunctionClass, d: Dataset) -> int:
    """|q_D(F)|: the number of distinct restrictions of F to D, at any l."""
    return _sorted_distinct(_row_keys(_restricted(fc, d))).size


def vc_entropy(fc: FunctionClass, d: Dataset) -> float:
    """Empirical VC-entropy: log2 of the restriction count, in bits."""
    return math.log2(restriction_count(fc, d))


def _length_limit(cap: int) -> int:
    """The longest dataset `analyze_learner` accepts under `cap`.

    `cap` bounds l, not |X|; past 32 positions the masks no longer fit uint32.
    """
    return min(cap, 32)


def analyze_learner(fc: FunctionClass, d: Dataset,
                    cap: int = DEFAULT_POINT_CAP) -> LearnerAnalysis:
    """Every learning quantity of (F, D), read off one best-fit table.

    The table gives the best-fit mismatch count of each of the 2^l sign
    patterns on the dataset; the analysis keeps its histogram.
    """
    masks = _restriction_masks(fc, d, cap)
    (row,) = cube._best_fit_counts(masks, [d.length])
    return LearnerAnalysis(fc.pointset.size, d.length, _count_tuple(row, d.length), masks.size)


def _restriction_masks(fc: FunctionClass, d: Dataset,
                       cap: int = DEFAULT_POINT_CAP) -> np.ndarray:
    """The sorted, read-only uint32 restriction masks of F on D, once l is
    known to be within `cap`.

    Bit k of a mask is set iff the function labels dataset position k with
    +1: the masks are the restricted rows' distinct `_row_keys`, which
    `restriction_count` counts, cast from uint64.
    """
    l = d.length
    limit = _length_limit(cap)
    if l > limit:
        raise EnumerationCapError(
            f"dataset length l = {l} exceeds the enumeration cap {limit}: "
            f"a best-fit table of 2^{l} patterns")
    masks = _sorted_distinct(_row_keys(_restricted(fc, d))).astype(np.uint32)
    masks.setflags(write=False)
    return masks


def _count_tuple(row: np.ndarray, length: int) -> tuple[int, ...]:
    """One row of a `cube` kernel's (rows, l_0 + 2) histograms, of an
    instance of length l, as a `LearnerAnalysis.pattern_counts` tuple:
    trimmed to its l + 1 bins, or to its last nonzero bin past l, which only
    a broken kernel fills."""
    last = row.size - 1 - int(np.argmax(row[::-1] > 0))
    return tuple(row[:max(length, last) + 1].tolist())

