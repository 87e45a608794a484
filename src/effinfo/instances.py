"""Seeded random instances and exact identity checks.

Everything here is deterministic given the seed: generators draw from a
caller-supplied `random.Random`, and check functions return plain failure
messages (empty list = pass) so callers can aggregate or fail fast. The
checks assert the two learner identities on integer counts over the 2^l
sign patterns:

* perfect-fit effective information equals l minus empirical VC-entropy:
  |L^-1(0)| = |q_D(F)| * 2^(|X|-l), so the zero-risk pattern count must
  equal |q_D(F)|;
* expected risk equals (1 - Rademacher)/2: both sides share the
  denominator l * 2^l, so the best-fit table's mismatch sum must equal the
  distance sum of a reference search that shares nothing with the table.

plus the supporting invariants (restriction-count bounds, negation
symmetry, and the falsification report, whose table must equal the
reference search's whole distance histogram). The checks read one
`LearnerAnalysis`, its counts only, and the histograms of the reference
search and of the negated class, which the caller counts from the
instance's restriction masks: negating the class complements every mask.
Many instances, of any dataset lengths, are checked as rows (`cube`'s row
layout): one table for all their masks, one for all their complements, and
one reference search whose histograms both checks that read it share.
`cube` counts all three, each as one (rows, l_0 + 2) array (l_0 the
longest length), so each row passes or fails by plain row comparisons of
those arrays and its mask count, and by nothing else. Only a failing row
gets a `LearnerAnalysis` and the checks, which word each fault once: every
risk at which the reference's or the negated class's histogram differs
from the table's, a zero-risk count off the mask count, a mismatch sum off
the distance sum, and a mask count out of bounds.
`learn` and `check_instance` are the one-row case (`checked_analysis`
also reads the instance's `LearnerAnalysis` off its table).
`verify_instances` draws each instance as numbers (`random_instance_codes`:
direct `getrandbits` calls, the very calls `randint` and `sample` make,
which a test holds to those methods; `random_learning_instance` turns the
same numbers into a class through `FunctionClass.from_signs`) into windows
of at most `CHUNK_ENTRIES` patterns and codes (or one instance past that).
A window takes all its masks from its codes at once, one pass per dataset
position over the concatenated codes, then checks its rows in one call per
kernel, reporting failures by instance index in drawing order. A passing
instance costs no numpy call of its own and builds no class,
`LearnerAnalysis`, `Fraction`, `RiskDistribution` or `FalsificationReport`.

`verify_instances` checks its own arguments; a drawn dataset may be as long
as `max_points`, so a `max_points` above the longest dataset the cap lets
`analyze_learner` accept is refused before anything is drawn.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, zip_longest

import numpy as np

from . import cube, learning
from .channels import Alphabet, Channel, Distribution
from .errors import EnumerationCapError, ValidationError
from .learning import DEFAULT_POINT_CAP, Dataset, FunctionClass, LearnerAnalysis, PointSet

# Patterns and drawn codes (the sum of 2^l + |F| over its instances) that
# one window of `verify_instances` may hold past a single instance.
CHUNK_ENTRIES = 1 << 17


def _positive_weights(rng: random.Random, n: int) -> list[float]:
    weights = []
    for _ in range(n):
        u = rng.random()
        while u <= 0.0:
            u = rng.random()
        weights.append(-math.log(u))
    return weights


def random_prior(rng: random.Random, alphabet: Alphabet) -> Distribution:
    """A strictly positive random distribution (uniform Dirichlet)."""
    weights = _positive_weights(rng, alphabet.size)
    total = sum(weights)
    return Distribution(alphabet, [w / total for w in weights])


def random_channel(rng: random.Random, n_inputs: int, n_outputs: int) -> Channel:
    """A random row-stochastic channel with named symbol alphabets."""
    inputs = Alphabet(f"x{i}" for i in range(n_inputs))
    outputs = Alphabet(f"y{j}" for j in range(n_outputs))
    rows = []
    for _ in range(n_inputs):
        weights = _positive_weights(rng, n_outputs)
        total = sum(weights)
        rows.append([w / total for w in weights])
    return Channel(inputs, outputs, rows)


def _below(getrandbits, w: int) -> int:
    """`randrange(w)`: the first draw of w's bit length that is below w."""
    k = w.bit_length()
    r = getrandbits(k)
    while r >= w:
        r = getrandbits(k)
    return r


def _sample_range(getrandbits, n: int, k: int) -> list[int]:
    """`sample(range(n), k)`: a pool Fisher-Yates while an n-element list is
    smaller than a k-element set, by the standard library's rule, else
    redraws until new."""
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n <= setsize:
        pool, out = list(range(n)), []
        for m in range(n, n - k, -1):
            j = _below(getrandbits, m)
            out.append(pool[j])
            pool[j] = pool[m - 1]
        return out
    b, selected = n.bit_length(), {}
    for _ in range(k):
        j = getrandbits(b)
        while j >= n or j in selected:
            j = getrandbits(b)
        selected[j] = None
    return list(selected)


def random_instance_codes(rng: random.Random, min_points: int = 3,
                          max_points: int = 12) -> tuple[int, list[int], list[int]]:
    """A random (F, D) pair as numbers: |X|, the dataset's point indices and
    each function's code, whose bit i is set iff the function labels point i
    with +1; 1 <= l <= |X| distinct points, 1 <= |F| <= 2^|X| distinct codes.

    Class sizes are drawn log-uniformly so the sweep regularly hits both
    singleton classes and the full 2^|X| hypothesis space. The draws are
    `rng.randint(min_points, max_points)`, `rng.sample(range(n),
    rng.randint(1, n))`, `rng.randint(1, 1 << rng.randint(0, n))` and
    `rng.sample(range(1 << n), size)`, made as the same `rng.getrandbits`
    calls those methods make, without their per-word layers; a test holds
    them to the methods. Bounds outside 1 <= min <= max are refused before
    anything is drawn.
    """
    if not 1 <= min_points <= max_points:
        raise ValueError(f"point bounds must satisfy 1 <= min <= max, "
                         f"got {min_points}..{max_points}")
    getrandbits = rng.getrandbits
    n = min_points + _below(getrandbits, max_points - min_points + 1)
    indices = _sample_range(getrandbits, n, 1 + _below(getrandbits, n))
    size = min(1 << n, 1 + _below(getrandbits, 1 << _below(getrandbits, n + 1)))
    return n, indices, _sample_range(getrandbits, 1 << n, size)


def random_learning_instance(rng: random.Random, min_points: int = 3,
                             max_points: int = 12) -> tuple[FunctionClass, Dataset]:
    """The (F, D) pair of `random_instance_codes`, drawn from the same calls:
    a code's row is +1 at point i iff its bit i is set."""
    n, indices, codes = random_instance_codes(rng, min_points, max_points)
    pointset = PointSet(f"x{i}" for i in range(n))
    rows = [[1 if (c >> i) & 1 else -1 for i in range(n)] for c in codes]
    return FunctionClass.from_signs(pointset, rows), Dataset(pointset, indices)


def _weighted_sum(counts) -> int:
    """Sum of k * counts[k]: the table's mismatch sum or the search's distance sum."""
    return sum(k * c for k, c in enumerate(counts))


def check_proposition1(a: LearnerAnalysis) -> list[str]:
    """Perfect-fit effective information = l - VC-entropy, on exact counts.

    |L^-1(0)| = |q_D(F)| * 2^(|X|-l) exactly when the zero-risk pattern
    count equals the restriction count, so no 2^(|X|-l) integer is built.
    ei(L,0) and l - V are one expression of the two counts. With no pattern
    fitted at zero mismatches, which only a broken table gives, ei(L,0) is
    undefined and is named as such rather than read.
    """
    msgs = []
    shift = a.n_points - a.length
    fit_count = a.pattern_counts[0]
    if fit_count != a.restriction_count:
        msgs.append(
            f"perfect-fit count {fit_count} * 2^{shift} != |q_D(F)| * 2^(|X|-l) "
            f"= {a.restriction_count} * 2^{shift}")
    if not fit_count:
        msgs.append("ei(L,0) is undefined: no sign pattern is fitted with zero mismatches")
    return msgs


def _bin_differences(a: LearnerAnalysis, other: tuple[int, ...], source: str) -> list[str]:
    """Each risk k/l at which `other`, the histogram `source` counts,
    differs from the table's, as fractions of the 2^l patterns; a bin past
    the shorter histogram counts 0 there."""
    l = a.length
    return [f"fraction at risk {Fraction(k, l)} is {Fraction(c, 1 << l)}, "
            f"{source} {Fraction(o, 1 << l)}"
            for k, (c, o) in enumerate(zip_longest(a.pattern_counts, other, fillvalue=0))
            if c != o]


def check_proposition2(a: LearnerAnalysis, reference: tuple[int, ...]) -> list[str]:
    """Expected risk = (1 - Rademacher)/2, on exact integer sums.

    Both sides are sums over the 2^l patterns over l * 2^l: the table's
    mismatch sum, and the distance sum of `reference`, the reference
    search's distance counts from the instance's restriction masks.
    `a.rademacher` is not the other side: it comes from the same table as
    `a.expected_risk` and agrees by construction.
    """
    distance_sum = _weighted_sum(reference)
    if _weighted_sum(a.pattern_counts) == distance_sum:
        return []
    denominator = a.length << a.length
    r = Fraction(denominator - 2 * distance_sum, denominator)
    return [f"E[eps] = {a.expected_risk} but (1 - R)/2 = {(1 - r) / 2} (R = {r})"]


def check_falsification(a: LearnerAnalysis, reference: tuple[int, ...]) -> list[str]:
    """The falsification report agrees with the reference search.

    The report's table is the fraction of the 2^l patterns best fitted at
    each risk k/l, and its falsified bits come from the zero-risk count, so
    it agrees exactly when the table's histogram equals `reference`, the
    reference search's distance counts from the instance's restriction
    masks, which do not come from the table. Each risk at which the two
    differ is worded once; a zero-risk count that differs is also Prop 1's
    fault, which `check_proposition1` words.
    """
    return _bin_differences(a, reference, "the reference search finds")


def check_learning_invariants(a: LearnerAnalysis, class_size: int,
                              negated: tuple[int, ...]) -> list[str]:
    """Restriction bounds and negation symmetry.

    Negating every f in F complements every restriction mask, so the
    negated class's pattern counts, `negated`, are the table's histogram of
    the complemented masks, and no negated class is built.
    Complementing keeps the mask count, so V cannot change; R, the expected
    risk and ei(L,0) are functions of the histogram, which must not change,
    and each risk at which the negated class's differs is worded.
    """
    msgs = []
    if not 1 <= a.restriction_count <= min(class_size, 1 << a.length):
        msgs.append(f"restriction count {a.restriction_count} outside 1..min(|F|, 2^l)")
    return msgs + _bin_differences(a, negated, "the negated class has")


def _check_rows(flat: np.ndarray, lengths, n_points, class_sizes) -> tuple[np.ndarray, dict]:
    """All checks for nonempty rows of instances, as rows of one table.

    `flat` holds the rows' sorted, distinct masks in `cube`'s row layout,
    longest row first, and row r is the instance (|X| = n_points[r],
    |F| = class_sizes[r], l = lengths[r]). `cube` counts each row's
    histogram three times, each as a (rows, l_0 + 2) array: the table's, the
    table's of the complemented masks, which are the negated classes' (row
    r's complement is flat ^ (2^l_r - 1), as each row starts at a multiple
    of its size), and the reference search's, which both checks that read
    it share. A row passes when its table row equals its reference and
    complement rows and its zero-risk count equals its mask count, within
    1..min(|F|, 2^l) (ei(L,0) and l - V are one expression of the two equal
    counts). Only a row that fails gets a `LearnerAnalysis` and the checks,
    which word its failure from its three rows as `learning._count_tuple`
    tuples; each comparison that fails is worded by at least one check, so
    every failing row is reported. Returns the table's histograms and each
    failing row's messages by row, in row order, keyed by failing check:
    "prop1", "prop2", "falsification" and "invariants", in that order.
    """
    lengths = np.asarray(lengths)
    sizes = np.diff(flat.searchsorted(cube._row_starts(lengths)))
    counts = cube._best_fit_counts(flat, lengths)
    negated = cube._best_fit_counts(flat ^ np.repeat(np.left_shift(1, lengths) - 1, sizes),
                                    lengths)
    reference = cube._reference_distance_counts(flat, lengths)
    ok = ((counts == reference).all(axis=1) & (negated == counts).all(axis=1)
          & (counts[:, 0] == sizes) & (1 <= sizes)
          & (sizes <= np.minimum(class_sizes, 1 << lengths)))
    out = {}
    for r in np.flatnonzero(~ok).tolist():
        length = int(lengths[r])
        c, neg, ref = (learning._count_tuple(h[r], length)
                       for h in (counts, negated, reference))
        a = LearnerAnalysis(int(n_points[r]), length, c, int(sizes[r]))
        out[r] = {name: msgs for name, msgs in (
            ("prop1", check_proposition1(a)),
            ("prop2", check_proposition2(a, ref)),
            ("falsification", check_falsification(a, ref)),
            ("invariants", check_learning_invariants(a, int(class_sizes[r]), neg))) if msgs}
    return counts, out


def _check_one(fc: FunctionClass, d: Dataset, cap: int):
    """One (F, D) instance as one row of `_check_rows`: the count of its
    masks, built once under `cap`, the table's histograms and its failing
    checks' messages."""
    masks = learning._restriction_masks(fc, d, cap)
    counts, failures = _check_rows(masks, [d.length], [fc.pointset.size], [fc.size])
    return masks.size, counts, failures.get(0, {})


def checked_analysis(fc: FunctionClass, d: Dataset, cap: int = DEFAULT_POINT_CAP
                     ) -> tuple[LearnerAnalysis, dict[str, list[str]]]:
    """Every check of one (F, D) instance, by check, and its
    `LearnerAnalysis`, read off the histogram that the checks count."""
    restrictions, (counts,), failed = _check_one(fc, d, cap)
    pattern_counts = learning._count_tuple(counts, d.length)
    return LearnerAnalysis(fc.pointset.size, d.length, pattern_counts, restrictions), failed


def check_instance(fc: FunctionClass, d: Dataset,
                   cap: int = DEFAULT_POINT_CAP) -> list[str]:
    """All identity and invariant checks for one (F, D) instance, in check order."""
    return list(chain.from_iterable(_check_one(fc, d, cap)[2].values()))


@dataclass(frozen=True)
class VerifyResult:
    """Outcome of a seeded verification sweep."""

    total: int
    failures: tuple[tuple[int, tuple[str, ...]], ...]

    @property
    def passed(self) -> int:
        return self.total - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_instances(seed: int, count: int, min_points: int = 3,
                     max_points: int = 12,
                     cap: int = DEFAULT_POINT_CAP) -> VerifyResult:
    """Check `count` seeded random instances; deterministic for a given seed."""
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if not 1 <= min_points <= max_points:
        raise ValidationError(
            f"point bounds must satisfy 1 <= min <= max, got {min_points}..{max_points}")
    limit = learning._length_limit(cap)
    if max_points > limit:
        raise EnumerationCapError(
            f"max_points {max_points} exceeds the enumeration cap {limit}")
    rng = random.Random(seed)
    failures = []
    # Instances are drawn in windows of at most CHUNK_ENTRIES patterns and
    # codes (or one instance past that), keeping them as numbers; each
    # window's rows, whatever their lengths, are then checked together.
    window, entries = [], 0
    for i in range(count):
        n, indices, codes = random_instance_codes(rng, min_points, max_points)
        size = (1 << len(indices)) + len(codes)
        if window and entries + size > CHUNK_ENTRIES:
            failures += _check_window(i - len(window), window)
            window, entries = [], 0
        window.append((n, indices, codes))
        entries += size
    if window:
        failures += _check_window(count - len(window), window)
    return VerifyResult(count, tuple(failures))


def _window_masks(indices, codes) -> np.ndarray:
    """The masks of drawn rows, each its dataset indices and its codes, of
    non-increasing lengths, in `cube`'s row layout: bit k of a code's mask
    is bit indices[k] of the code, plus its row's start, sorted and distinct.

    One pass per dataset position over all the codes at once: the rows
    longer than position k are a prefix of the rows, so their codes are a
    prefix of the concatenated codes, and each pass reads only that prefix.
    `verify_instances` draws no |X| above `learning._length_limit(cap)`, at
    most 32, so the codes and masks fit uint32, and l is within the cap.
    """
    lengths = np.array([len(row) for row in indices])
    class_sizes = np.array([len(row) for row in codes])
    flat_codes = np.fromiter(chain.from_iterable(codes), dtype=np.uint32,
                             count=int(class_sizes.sum()))
    # each row's dataset indices, zero-padded to the longest row
    positions = np.zeros((len(indices), lengths[0]), dtype=np.uint32)
    positions[np.arange(lengths[0]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(indices), dtype=np.uint32)
    code_ends = np.cumsum(class_sizes)
    masks = np.zeros_like(flat_codes)
    for k, longer in enumerate(np.searchsorted(-lengths, -np.arange(lengths[0])).tolist()):
        end = int(code_ends[longer - 1])
        bits = flat_codes[:end] >> np.repeat(positions[:longer, k], class_sizes[:longer])
        bits &= 1
        bits <<= k
        masks[:end] |= bits
    flat = np.repeat(cube._row_starts(lengths)[:-1], class_sizes)
    flat += masks
    flat.sort()
    # by neighbours: np.unique's hash table takes hundreds of bytes a code
    return flat[np.concatenate(([True], flat[1:] != flat[:-1]))]


def _check_window(first: int, window) -> list[tuple[int, tuple[str, ...]]]:
    """The failures of the window's instances, by index from `first`, in
    order: the window is laid out longest first and checked as rows."""
    order = sorted(range(len(window)), key=lambda i: -len(window[i][1]))
    n_points, indices, codes = zip(*(window[i] for i in order))
    _, failures = _check_rows(_window_masks(indices, codes), [len(row) for row in indices],
                              n_points, [len(row) for row in codes])
    return sorted((first + order[r], tuple(chain.from_iterable(checks.values())))
                  for r, checks in failures.items())
