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

A `FunctionClass` is its sign rows, one tuple of +1/-1 per function,
validated and deduplicated in bulk by `FunctionClass.from_signs`, which
documents and the random generator both use; its `functions` are built as
`Labeling`s only when something reads them (`erm` does). A restriction is
a row read at the dataset's indices: `restriction_count` (and so
`vc_entropy`) counts the distinct restricted rows and builds no mask, at
any l. Only the l-cube kernels need restrictions as bitmasks, and
`_restriction_masks` builds them once, under the cap, from the at most 2^l
distinct restricted rows.

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
is derived from them (ei(L,0) from the zero-risk count, V from the mask
count, expected risk and R from the mean), and the public learning
functions are views of it.
`cube._reference_distance_counts` reads the same masks and counts the same
histograms again, in the same shape, by a breadth-first search over the
l-cube, O(l * 2^l), sharing nothing with the table; it is only the
independent side of the identity checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import index, itemgetter

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
        if len(set(points)) != len(points):
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
        if len(signs) != pointset.size:
            raise ValidationError(
                f"labeling has {len(signs)} signs for {pointset.size} points")
        # Exact type, not isinstance: True and 1.0 equal 1 but are not signs.
        if not set(map(type, signs)) <= {int} or not set(signs) <= {-1, 1}:
            for p, s in zip(pointset.points, signs):
                if type(s) is not int or s not in (-1, 1):
                    raise ValidationError(
                        f"sign at point {p!r} is {s!r}, must be the integer +1 or -1")
        object.__setattr__(self, "pointset", pointset)
        object.__setattr__(self, "signs", signs)


@dataclass(frozen=True)
class FunctionClass:
    """A nonempty set of distinct labelings the learner may fit with.

    A class is its sign rows: `signs` holds one tuple of +1/-1 per function,
    in order. `functions`, the rows as `Labeling`s, is built only when read.
    """

    pointset: PointSet
    signs: tuple[tuple[int, ...], ...]

    def __init__(self, pointset: PointSet, functions):
        functions = tuple(functions)
        if not functions:
            raise ValidationError("function class must be nonempty")
        seen = set()
        for f in functions:
            if f.pointset != pointset:
                raise ValidationError("all functions must be over the same point set")
            if f.signs in seen:
                raise ValidationError(f"duplicate function {f.signs} in class")
            seen.add(f.signs)
        object.__setattr__(self, "pointset", pointset)
        object.__setattr__(self, "signs", tuple([f.signs for f in functions]))
        self.__dict__["functions"] = functions  # what `functions` would build

    @classmethod
    def from_signs(cls, pointset: PointSet, rows) -> "FunctionClass":
        """The class of sign rows, validated in bulk without a `Labeling` each.

        A few whole-class passes check lengths, exact int type, values and
        distinctness; on any failure the rows go through
        `FunctionClass(pointset, [Labeling(pointset, row), ...])`, which
        raises the first error in row order with its usual message.
        """
        signs = tuple([tuple(row) for row in rows])
        if (signs and set(map(len, signs)) == {pointset.size}
                and set(map(type, chain.from_iterable(signs))) <= {int}
                and set(chain.from_iterable(signs)) <= {-1, 1}
                and len(set(signs)) == len(signs)):
            fc = object.__new__(cls)
            object.__setattr__(fc, "pointset", pointset)
            object.__setattr__(fc, "signs", signs)
            return fc
        return cls(pointset, [Labeling(pointset, row) for row in signs])

    @cached_property
    def functions(self) -> tuple[Labeling, ...]:
        # tuple() of a list: of a generator, it grows by reallocation
        return tuple([Labeling(self.pointset, row) for row in self.signs])

    @property
    def size(self) -> int:
        return len(self.signs)


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
        return cls(pointset, tuple(pointset.index(n) for n in names))

    @property
    def length(self) -> int:
        return len(self.indices)

    @property
    def points(self) -> tuple[str, ...]:
        return tuple(self.pointset.points[i] for i in self.indices)


@dataclass(frozen=True)
class RiskDistribution:
    """The learner's output distribution over risks, with exact integer counts.

    `counts` maps each realized mismatch count k to the number of labelings
    of X whose best achievable fit has exactly k mismatches on the dataset;
    the counts partition all 2^|X| labelings.
    """

    length: int
    total: int
    counts: tuple[tuple[int, int], ...]

    def __init__(self, length: int, total: int, counts):
        length, total = _integer(length, "length"), _integer(total, "total")
        counts = tuple(sorted((_integer(k, "mismatch count"), _integer(c, "count"))
                              for k, c in dict(counts).items()))
        for k, c in counts:
            if not 0 <= k <= length:
                raise ValidationError(f"mismatch count {k} outside 0..{length}")
            if c <= 0:
                raise ValidationError(f"count for k={k} must be positive, got {c}")
        if sum(c for _, c in counts) != total:
            raise ValidationError(
                f"counts sum to {sum(c for _, c in counts)}, expected {total}")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "counts", counts)

    @property
    def weights(self) -> dict[int, Fraction]:
        """Exact probability of each realized mismatch count."""
        return {k: Fraction(c, self.total) for k, c in self.counts}

    def count(self, mismatches: int) -> int:
        return dict(self.counts).get(mismatches, 0)


@dataclass(frozen=True)
class FalsificationReport:
    """Hypothesis accounting for a learner, in bits and per-risk fractions.

    `falsified_bits` is the perfect-fit effective information: total
    hypothesis bits |X| minus log2 of the number of labelings fitted with
    zero error. `table` pairs each realized risk with the exact fraction of
    hypothesis space whose best fit is that risk.
    """

    total_hypotheses_bits: float
    fitted_bits: float
    falsified_bits: float
    table: tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class LearnerAnalysis:
    """One (F, D) instance as exact counts: its best-fit pattern counts and
    its restriction count.

    `pattern_counts[k]` counts the 2^l sign patterns on D best fitted with k
    mismatches; each stands for 2^(|X| - l) labelings of X. They are the
    instance's row of `cube._best_fit_counts`, made a tuple of l + 1 by
    `_count_tuple`. `restriction_count` is |q_D(F)|, the number of distinct
    restriction masks the table is built from. Every other member is derived
    from these counts, once. `ei` is l - log2 of the zero-risk count and
    `vc_entropy` log2 of the restriction count, so ei and l - V agree bit
    for bit when those counts do. `expected_risk` and `rademacher` are both
    the pattern counts' mean, so Prop 2 checks the counts against the same
    row of `cube._reference_distance_counts` instead. Counting them takes
    about 2 bytes per pattern at the table's peak, and the reference search
    1.4, so l = 24 takes about 32 and 23 MiB.
    """

    n_points: int
    length: int
    pattern_counts: tuple[int, ...]
    restriction_count: int

    @cached_property
    def risk_distribution(self) -> RiskDistribution:
        multiplier = 1 << (self.n_points - self.length)
        return RiskDistribution(self.length, 1 << self.n_points, {
            k: c * multiplier for k, c in enumerate(self.pattern_counts) if c})

    @cached_property
    def expected_risk(self) -> Fraction:
        mismatch_sum = sum(k * c for k, c in enumerate(self.pattern_counts))
        return Fraction(mismatch_sum, self.length << self.length)

    @cached_property
    def rademacher(self) -> Fraction:
        # Best correlation with a pattern is l - 2 * (its best-fit mismatches).
        return 1 - 2 * self.expected_risk

    @cached_property
    def ei(self) -> float:
        return self.length - math.log2(self.pattern_counts[0])

    @cached_property
    def falsification(self) -> FalsificationReport:
        n, l = self.n_points, self.length
        fitted_bits = math.log2(self.pattern_counts[0] << (n - l))
        table = tuple((Fraction(k, l), Fraction(c, 1 << l))
                      for k, c in enumerate(self.pattern_counts) if c)
        return FalsificationReport(float(n), fitted_bits, self.ei, table)

    @property
    def vc_entropy(self) -> float:
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
    return min(empirical_risk(f, target, d) for f in fc.functions)


def restriction_count(fc: FunctionClass, d: Dataset) -> int:
    """|q_D(F)|: the number of distinct restrictions of F to the dataset."""
    _check_pointsets(fc, d)
    return len(set(map(itemgetter(*d.indices), fc.signs)))


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
    +1. The rows are restricted and deduplicated first, so only the at most
    2^l distinct restrictions become masks, in one product with the bit
    weights; distinct rows give distinct masks.
    """
    _check_pointsets(fc, d)
    l = d.length
    limit = _length_limit(cap)
    if l > limit:
        raise EnumerationCapError(
            f"dataset length l = {l} exceeds the enumeration cap {limit}: "
            f"a best-fit table of 2^{l} patterns")
    rows = set(map(itemgetter(*d.indices), fc.signs))
    # itemgetter of one index returns the sign itself, not a 1-tuple
    signs = np.fromiter(chain.from_iterable(rows) if l > 1 else rows, np.int8, len(rows) * l)
    masks = (signs.reshape(-1, l) > 0) @ (1 << np.arange(l, dtype=np.uint32))
    masks.sort()
    masks.setflags(write=False)
    return masks


def _count_tuple(row: np.ndarray, length: int) -> tuple[int, ...]:
    """One row of a `cube` kernel's (rows, l_0 + 2) histograms, of an
    instance of length l, as a `LearnerAnalysis.pattern_counts` tuple:
    trimmed to its l + 1 bins, or to its last nonzero bin past l, which only
    a broken kernel fills."""
    last = row.size - 1 - int(np.argmax(row[::-1] > 0))
    return tuple(row[:max(length, last) + 1].tolist())


def risk_distribution(fc: FunctionClass, d: Dataset) -> RiskDistribution:
    """Group all 2^|X| labelings by their best-fit mismatch count."""
    return analyze_learner(fc, d).risk_distribution


def ei_of_learner(fc: FunctionClass, d: Dataset) -> float:
    """Effective information of the learner's perfect-fit output, in bits.

    |X| minus log2 of the number of labelings some f in F fits exactly;
    always defined because any member of F fits its own labeling.
    """
    return analyze_learner(fc, d).ei


def rademacher(fc: FunctionClass, d: Dataset) -> Fraction:
    """Empirical Rademacher complexity, as an exact rational.

    Averages, over all 2^l sign patterns on the dataset, the best
    correlation (1/l) sum_k sigma_k f(d_k) achievable by the class; the
    average over all 2^|X| labelings of X is the same, as only D is read.
    """
    return analyze_learner(fc, d).rademacher


def expected_risk(fc: FunctionClass, d: Dataset) -> Fraction:
    """Expected output risk of the learner over hypothesis space, exact."""
    return analyze_learner(fc, d).expected_risk


def falsification_report(fc: FunctionClass, d: Dataset) -> FalsificationReport:
    """Bits of hypothesis space falsified, and the per-risk falsification table."""
    return analyze_learner(fc, d).falsification
