"""Seeded random instances and exact identity checks.

Everything here is deterministic given the seed: generators draw from a
caller-supplied `random.Random`, and check functions return plain failure
messages (empty list = pass) so callers can aggregate or fail fast. The
checks assert the two learner identities on integer counts over the 2^l
sign patterns:

* perfect-fit effective information equals l minus empirical VC-entropy:
  |L^-1(0)| = |q_D(F)| * 2^(|X|-l);
* expected risk equals (1 - Rademacher)/2: both sides share the
  denominator l * 2^l, so the best-fit table's mismatch sum must equal the
  distance sum of a reference search that shares nothing with the table.

plus the supporting invariants (restriction-count bounds, negation
symmetry, and the falsification report, whose table must equal the
reference search's whole distance histogram). The checks read one
`LearnerAnalysis`: the reference search runs on the restriction masks the
analysis carries, and negating the class complements every mask. Many
instances, of any dataset lengths, are checked as rows (`cube`'s row
layout): one table for all their masks, one for all their complements,
and one reference search whose histograms both checks that read it share.
`check_instance` is the one-row case. `verify_instances` draws each
instance as numbers (`random_instance_codes`, the same `random.Random`
calls that `random_learning_instance` makes before it builds the class),
takes its masks straight from the codes, and checks windows of at most
`CHUNK_ENTRIES` patterns (or one instance past that) in one call per
kernel, reporting failures by instance index in drawing order. A passing
instance builds no class, `Fraction`, `RiskDistribution` or
`FalsificationReport`; they are built only to word a failure.

`verify_instances` checks its own arguments; a drawn dataset may be as long
as `max_points`, so a `max_points` above the longest dataset the cap lets
`analyze_learner` accept is refused before anything is drawn.
"""
from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import Alphabet, Channel, Distribution
from .cube import _reference_distance_counts, _stack_rows
from .errors import EnumerationCapError, ValidationError
from .learning import (
    DEFAULT_POINT_CAP,
    Dataset,
    FunctionClass,
    LearnerAnalysis,
    PointSet,
    _length_limit,
    _log2_count,
    _pattern_count_rows,
    _restriction_masks,
)

# Float identities are checked this tight; exact identities use integers.
FLOAT_TOL = 1e-12
# Patterns (the sum of 2^l over its instances) that one window of
# `verify_instances` may hold past a single instance.
CHUNK_ENTRIES = 1 << 17


@functools.cache
def _sign_chunks() -> tuple[tuple[int, ...], ...]:
    """The signs of each byte value's 8 bits, low bit first: a drawn row is
    the chunks of its code's bytes, low byte first, cut to |X|. Built on
    the first `random_learning_instance`, its only reader; `verify` builds
    no class."""
    return tuple(tuple(1 if (b >> i) & 1 else -1 for i in range(8)) for b in range(256))


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


def random_instance_codes(rng: random.Random, min_points: int = 3,
                          max_points: int = 12) -> tuple[int, list[int], list[int]]:
    """A random (F, D) pair as numbers: |X|, the dataset's point indices and
    each function's code, whose bit i is set iff the function labels point i
    with +1; 1 <= l <= |X| distinct points, 1 <= |F| <= 2^|X| distinct codes.

    Class sizes are drawn log-uniformly so the sweep regularly hits both
    singleton classes and the full 2^|X| hypothesis space.
    """
    n = rng.randint(min_points, max_points)
    indices = rng.sample(range(n), rng.randint(1, n))
    size = min(1 << n, rng.randint(1, 1 << rng.randint(0, n)))
    return n, indices, rng.sample(range(1 << n), size)


def random_learning_instance(rng: random.Random, min_points: int = 3,
                             max_points: int = 12) -> tuple[FunctionClass, Dataset]:
    """The (F, D) pair of `random_instance_codes`, drawn from the same calls."""
    n, indices, codes = random_instance_codes(rng, min_points, max_points)
    pointset = PointSet(f"x{i}" for i in range(n))
    dataset = Dataset(pointset, indices)
    # distinct codes give distinct rows, so the class needs no check
    chunks = _sign_chunks()
    rows = [chunks[c & 255] for c in codes]
    for shift in range(8, n, 8):
        rows = [r + chunks[(c >> shift) & 255] for r, c in zip(rows, codes)]
    return FunctionClass._of_valid_rows(pointset, tuple([r[:n] for r in rows])), dataset


def _weighted_sum(counts) -> int:
    """Sum of k * counts[k]: the table's mismatch sum or the search's distance sum."""
    return sum(k * c for k, c in enumerate(counts))


def check_proposition1(a: LearnerAnalysis) -> list[str]:
    """Perfect-fit effective information = l - VC-entropy, on exact counts.

    With no pattern fitted at zero mismatches, which only a broken table
    gives, ei(L,0) is undefined and is named as such rather than read.
    """
    msgs = []
    shift = a.n_points - a.length
    fit_count = a.pattern_counts[0] << shift
    if fit_count != a.restriction_count << shift:
        msgs.append(
            f"perfect-fit count {fit_count} != |q_D(F)| * 2^(|X|-l) "
            f"= {a.restriction_count} * 2^{shift}")
    if not fit_count:
        msgs.append("ei(L,0) is undefined: no sign pattern is fitted with zero mismatches")
        return msgs
    gap = a.ei - (a.length - a.vc_entropy)
    if abs(gap) > FLOAT_TOL:
        msgs.append(f"ei(L,0) = {a.ei!r} is off l - V by {gap!r}")
    return msgs


def check_proposition2(a: LearnerAnalysis,
                       reference: tuple[int, ...] | None = None) -> list[str]:
    """Expected risk = (1 - Rademacher)/2, on exact integer sums.

    Both sides are sums over the 2^l patterns over l * 2^l: the table's
    mismatch sum, and the distance sum of `reference`, the reference
    search's distance counts from `a.masks` (searched here if not given).
    `a.rademacher` is not the other side: it comes from the same table as
    `a.expected_risk` and agrees by construction.
    """
    if reference is None:
        (reference,) = _reference_distance_counts(a.masks, [a.length])
    distance_sum = _weighted_sum(reference)
    if _weighted_sum(a.pattern_counts) == distance_sum:
        return []
    denominator = a.length << a.length
    r = Fraction(denominator - 2 * distance_sum, denominator)
    return [f"E[eps] = {a.expected_risk} but (1 - R)/2 = {(1 - r) / 2} (R = {r})"]


def check_falsification(a: LearnerAnalysis,
                        reference: tuple[int, ...] | None = None) -> list[str]:
    """The falsification report agrees with the reference search.

    The report's table is the fraction of the 2^l patterns best fitted at
    each risk k/l, and its falsified bits come from the zero-risk count, so
    it agrees exactly when the table's histogram equals `reference`, the
    reference search's distance counts from `a.masks` (searched here if not
    given), which do not come from the table. The report is read only to
    word a disagreement, and not at all when no pattern is fitted at zero
    mismatches: its falsified bits are then undefined.
    """
    if reference is None:
        (reference,) = _reference_distance_counts(a.masks, [a.length])
    if a.pattern_counts == reference:
        return []
    n, l = a.n_points, a.length
    msgs = [f"fraction at risk {Fraction(k, l)} is {Fraction(c, 1 << l)}, "
            f"the reference search finds {Fraction(ref, 1 << l)}"
            for k, (c, ref) in enumerate(zip(a.pattern_counts, reference)) if c != ref]
    falsified = float(n) - _log2_count(a.restriction_count << (n - l))
    if not a.pattern_counts[0]:
        msgs.append(f"falsified bits are undefined, not "
                    f"|X| - log2(|q_D(F)| * 2^(|X|-l)) = {falsified!r}")
    elif a.falsification.falsified_bits != falsified:
        msgs.append(f"falsified bits {a.falsification.falsified_bits!r} != "
                    f"|X| - log2(|q_D(F)| * 2^(|X|-l)) = {falsified!r}")
    return msgs


def check_learning_invariants(a: LearnerAnalysis, class_size: int,
                              negated: tuple[int, ...] | None = None) -> list[str]:
    """Restriction bounds and negation symmetry.

    Negating every f in F complements every restriction mask, so the
    negated class's pattern counts, `negated`, are the table's histogram of
    the complemented `a.masks` (counted here if not given), and no negated
    class is built. Complementing keeps the mask count, so V cannot change;
    R and the expected risk are functions of the mismatch sum and ei(L,0)
    of the zero-risk count, and those are compared only when the counts
    differ, to name what changed.
    """
    msgs = []
    counts = a.pattern_counts
    if not 1 <= a.restriction_count <= min(class_size, 1 << a.length):
        msgs.append(f"restriction count {a.restriction_count} outside 1..min(|F|, 2^l)")
    if negated is None:
        (negated,) = _pattern_count_rows(a.masks ^ np.uint32((1 << a.length) - 1), [a.length])
    if negated != counts:
        same_sum = _weighted_sum(negated) == _weighted_sum(counts)
        msgs += [f"{name} changed under class negation"
                 for name, same in (("Rademacher complexity", same_sum),
                                    ("expected risk", same_sum),
                                    ("ei(L,0)", negated[0] == counts[0])) if not same]
    return msgs


def _check_rows(rows) -> list[list[str]]:
    """All checks for a nonempty list of instances, in order, as rows.

    Each row is (|X|, |F|, l, sorted restriction masks), of any lengths.
    The rows are laid out longest first (`cube`'s row layout) and their
    masks stacked once; one table call counts every row's patterns, one
    counts the complemented masks, which are the negated classes' (row r's
    complement is flat ^ (2^l_r - 1), as each row starts at a multiple of
    its size), and one reference search counts the same histograms for both
    checks that read it. The messages come back in the rows' order.
    """
    order = sorted(range(len(rows)), key=lambda r: -rows[r][2])
    lengths = [rows[r][2] for r in order]
    flat = _stack_rows([rows[r][3] for r in order], lengths)
    counts = _pattern_count_rows(flat, lengths)
    full = np.repeat(np.left_shift(1, lengths) - 1, [rows[r][3].size for r in order])
    negated = _pattern_count_rows(flat ^ full, lengths)
    references = _reference_distance_counts(flat, lengths)
    out = [None] * len(rows)
    for r, c, neg, ref in zip(order, counts, negated, references):
        n_points, class_size, length, masks = rows[r]
        a = LearnerAnalysis(n_points, length, c, masks)
        out[r] = (check_proposition1(a)
                  + check_proposition2(a, ref)
                  + check_falsification(a, ref)
                  + check_learning_invariants(a, class_size, neg))
    return out


def check_instance(fc: FunctionClass, d: Dataset,
                   cap: int = DEFAULT_POINT_CAP) -> list[str]:
    """All identity and invariant checks for one (F, D) instance: one row."""
    (msgs,) = _check_rows([(fc.pointset.size, fc.size, d.length,
                            _restriction_masks(fc, d, cap))])
    return msgs


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
    limit = _length_limit(cap)
    if max_points > limit:
        raise EnumerationCapError(
            f"max_points {max_points} exceeds the enumeration cap {limit}")
    rng = random.Random(seed)
    failures = []
    # Instances are drawn in windows of at most CHUNK_ENTRIES patterns (or
    # one instance past that), keeping only their masks; each window's rows,
    # whatever their lengths, are then checked together.
    window, entries = [], 0
    for i in range(count):
        n, indices, codes = random_instance_codes(rng, min_points, max_points)
        if window and entries + (1 << len(indices)) > CHUNK_ENTRIES:
            failures += _check_window(i - len(window), window)
            window, entries = [], 0
        window.append((n, len(codes), len(indices), _code_masks(indices, codes)))
        entries += 1 << len(indices)
    if window:
        failures += _check_window(count - len(window), window)
    return VerifyResult(count, tuple(failures))


def _code_masks(indices, codes) -> np.ndarray:
    """The sorted, read-only uint32 restriction masks of drawn codes on the
    dataset `indices`: bit k of a mask is bit indices[k] of a code.

    `verify_instances` draws no |X| above `_length_limit(cap)`, at most 32,
    so the codes and masks fit uint32, and l is within the cap.
    """
    bits = np.array(codes, dtype=np.uint32)[:, None] >> np.array(indices, dtype=np.uint32)
    bits &= 1
    bits <<= np.arange(len(indices), dtype=np.uint32)
    masks = bits.sum(axis=1, dtype=np.uint32)
    masks.sort()
    # by neighbours: np.unique's hash table takes hundreds of bytes a code
    masks = masks[np.concatenate(([True], masks[1:] != masks[:-1]))]
    masks.setflags(write=False)
    return masks


def _check_window(first: int, window) -> list[tuple[int, tuple[str, ...]]]:
    """The failures of the window's rows, by instance index from `first`."""
    return [(i, tuple(msgs)) for i, msgs in enumerate(_check_rows(window), first) if msgs]
