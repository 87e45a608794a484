"""Seeded random instances and exact identity checks.

Everything here is deterministic given the seed: generators draw from a
caller-supplied `random.Random`, and check functions return plain failure
messages (empty list = pass) so callers can aggregate or fail fast. The
checks assert the two learner identities on exact counts over the 2^l sign
patterns:

* perfect-fit effective information equals l minus empirical VC-entropy:
  |L^-1(0)| = |q_D(F)| * 2^(|X|-l), so the zero-risk pattern count must
  equal |q_D(F)|;
* expected risk equals (1 - Rademacher)/2: E[eps] of the best-fit table's
  analysis must equal (1 - R)/2 of the reference search's.

plus the supporting checks (restriction-count bounds and the falsification
report, whose table must equal the reference search's whole distance
histogram). The checks read the counts of two `LearnerAnalysis`es of one
instance: the table's, and the reference's, whose pattern counts are the
reference search's histogram of the instance's restriction masks. Many
instances, of any dataset lengths, are checked as rows (`cube`'s row
layout): one table for all their masks and one reference search whose
histograms both checks that read it share. `cube` counts both, each as one
(rows, l_0 + 2) array (l_0 the longest length), so each row passes or
fails by plain row comparisons of those arrays and its mask count, and by
nothing else. Only a failing row gets its two `LearnerAnalysis`es and the
checks, which word each fault once: every risk at which the reference's
histogram differs from the table's, a zero-risk count off the mask count,
an expected risk off the reference's (1 - R)/2, and a mask count out of
bounds.
`learn` is the one-row case: `checked_analysis` checks one instance and
reads its `LearnerAnalysis` off the same table.
`verify_instances` draws each instance as numbers (`random_instance_codes`:
direct `getrandbits` calls, the very calls `randint` and `sample` make,
which a test holds to those methods; `random_learning_instance` turns the
same numbers into a class of one int8 sign matrix) into windows
of at most `CHUNK_ENTRIES` patterns and codes (or one instance past that).
A window takes all its masks from its codes at once, one pass per dataset
position over the concatenated codes, then checks its rows in one call per
kernel, reporting failures by instance index in drawing order. A passing
instance costs no numpy call of its own and builds no class,
`LearnerAnalysis` or `Fraction`.

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
    a code's row is +1 at point i iff its bit i is set. The codes are read
    as uint64, so |X| is at most 64."""
    n, indices, codes = random_instance_codes(rng, min_points, max_points)
    pointset = PointSet(f"x{i}" for i in range(n))
    bits = (np.array(codes, np.uint64)[:, None] >> np.arange(n, dtype=np.uint64)) & 1
    return FunctionClass(pointset, bits.astype(np.int8) * 2 - 1), Dataset(pointset, indices)


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


def check_proposition2(a: LearnerAnalysis, reference: LearnerAnalysis) -> list[str]:
    """Expected risk = (1 - Rademacher)/2, between two analyses.

    E[eps] is read off the table's analysis `a`, and R off `reference`, the
    analysis of the reference search's histogram of the same masks. `a`'s
    own R is not the other side: it comes from the same table as
    `a.expected_risk` and agrees by construction.
    """
    if a.expected_risk == (1 - reference.rademacher) / 2:
        return []
    return [f"E[eps] = {a.expected_risk} but (1 - R)/2 = {reference.expected_risk} "
            f"(R = {reference.rademacher})"]


def check_falsification(a: LearnerAnalysis, reference: LearnerAnalysis) -> list[str]:
    """The falsification report agrees with the reference search.

    The report's table is the fraction of the 2^l patterns best fitted at
    each risk k/l, and its falsified bits come from the zero-risk count, so
    it agrees exactly when the table's histogram equals that of `reference`,
    the analysis of the reference search's histogram of the same masks,
    which does not come from the table. Each risk at which the two differ
    is worded once, with both fractions of the 2^l patterns (a bin past the
    shorter histogram counts 0 there); a zero-risk count that differs is
    also Prop 1's fault, which `check_proposition1` words.
    """
    l = a.length
    return [f"fraction at risk {Fraction(k, l)} is {Fraction(c, 1 << l)}, "
            f"the reference search finds {Fraction(o, 1 << l)}"
            for k, (c, o) in enumerate(zip_longest(a.pattern_counts, reference.pattern_counts,
                                                   fillvalue=0))
            if c != o]


def check_restriction_bounds(a: LearnerAnalysis, class_size: int) -> list[str]:
    """The restriction count lies within 1..min(|F|, 2^l)."""
    if 1 <= a.restriction_count <= min(class_size, 1 << a.length):
        return []
    return [f"restriction count {a.restriction_count} outside 1..min(|F|, 2^l)"]


def _check_rows(flat: np.ndarray, lengths, n_points, class_sizes) -> tuple[np.ndarray, dict]:
    """All checks for nonempty rows of instances, as rows of one table.

    `flat` holds the rows' sorted, distinct masks in `cube`'s row layout,
    longest row first, and row r is the instance (|X| = n_points[r],
    |F| = class_sizes[r], l = lengths[r]). `cube` counts each row's
    histogram twice, each as a (rows, l_0 + 2) array: the table's, and the
    reference search's, which both checks that read it share. A row passes
    when its table row equals its reference row and its zero-risk count
    equals its mask count, within 1..min(|F|, 2^l) (ei(L,0) and l - V are one
    expression of the two equal counts). Only a row that fails gets a
    `LearnerAnalysis` of each of its two rows, made `learning._count_tuple`
    tuples, and the checks, which word its failure from them; each
    comparison that fails is worded by at least one check, so every failing
    row is reported. Returns the table's histograms and each failing row's
    messages by row, in row order, keyed by failing check: "prop1", "prop2",
    "falsification" and "bounds", in that order.
    """
    lengths = np.asarray(lengths)
    sizes = np.diff(flat.searchsorted(cube._row_starts(lengths)))
    counts = cube._best_fit_counts(flat, lengths)
    reference = cube._reference_distance_counts(flat, lengths)
    ok = ((counts == reference).all(axis=1) & (counts[:, 0] == sizes) & (1 <= sizes)
          & (sizes <= np.minimum(class_sizes, 1 << lengths)))
    out = {}
    for r in np.flatnonzero(~ok).tolist():
        length = int(lengths[r])
        a, ref = (LearnerAnalysis(int(n_points[r]), length,
                                  learning._count_tuple(h[r], length), int(sizes[r]))
                  for h in (counts, reference))
        out[r] = {name: msgs for name, msgs in (
            ("prop1", check_proposition1(a)),
            ("prop2", check_proposition2(a, ref)),
            ("falsification", check_falsification(a, ref)),
            ("bounds", check_restriction_bounds(a, int(class_sizes[r])))) if msgs}
    return counts, out


def checked_analysis(fc: FunctionClass, d: Dataset, cap: int = DEFAULT_POINT_CAP
                     ) -> tuple[LearnerAnalysis, dict[str, list[str]]]:
    """One (F, D) instance as one row of `_check_rows`: its `LearnerAnalysis`,
    read off the histogram that the checks count from its masks, built once
    under `cap`, and each failing check's messages, by check."""
    masks = learning._restriction_masks(fc, d, cap)
    (counts,), failures = _check_rows(masks, [d.length], [fc.pointset.size], [fc.size])
    pattern_counts = learning._count_tuple(counts, d.length)
    return (LearnerAnalysis(fc.pointset.size, d.length, pattern_counts, masks.size),
            failures.get(0, {}))


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
    is bit indices[k] of the code, plus its row's start, sorted and distinct
    by `learning._sorted_distinct`, as a class's masks are.

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
    return learning._sorted_distinct(flat)


def _check_window(first: int, window) -> list[tuple[int, tuple[str, ...]]]:
    """The failures of the window's instances, by index from `first`, in
    order: the window is laid out longest first and checked as rows."""
    order = sorted(range(len(window)), key=lambda i: -len(window[i][1]))
    n_points, indices, codes = zip(*(window[i] for i in order))
    _, failures = _check_rows(_window_masks(indices, codes), [len(row) for row in indices],
                              n_points, [len(row) for row in codes])
    return sorted((first + order[r], tuple(chain.from_iterable(checks.values())))
                  for r, checks in failures.items())
