"""Seeded random instances and exact identity checks.

Everything here is deterministic given the seed: generators draw from a
caller-supplied `random.Random`, and check functions return plain failure
messages (empty list = pass) so callers can aggregate or fail fast. The
checks assert the two learner identities in exact arithmetic:

* perfect-fit effective information equals l minus empirical VC-entropy
  (verified on integer counts: |L^-1(0)| = |q_D(F)| * 2^(|X|-l));
* expected risk equals (1 - Rademacher)/2 (verified on Fractions, against
  a Rademacher complexity that the reference search computes apart from the
  best-fit table).

plus the supporting invariants (restriction-count bounds, negation
symmetry, and the falsification report against the restriction masks). The
checks read one `LearnerAnalysis`: the reference search runs on the
restriction masks the analysis carries, and negating the class complements
every mask, so `check_instance` builds the class's masks once, a table for
them and one for their complements, and runs the reference once.

`verify_instances` checks its own arguments; a drawn dataset may be as long
as `max_points`, so a `max_points` above the cap on l is refused up front.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channels import Alphabet, Channel, Distribution
from .cube import _rademacher_reference
from .errors import EnumerationCapError, ValidationError
from .learning import (
    DEFAULT_POINT_CAP,
    Dataset,
    FunctionClass,
    LearnerAnalysis,
    PointSet,
    _analyze_masks,
    _log2_count,
    analyze_learner,
)

# Float identities are checked this tight; exact identities use integers/Fractions.
FLOAT_TOL = 1e-12


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


def random_learning_instance(rng: random.Random, min_points: int = 3,
                             max_points: int = 12) -> tuple[FunctionClass, Dataset]:
    """A random (F, D) pair: 1 <= l <= |X| distinct points, 1 <= |F| <= 2^|X|.

    Class sizes are drawn log-uniformly so the sweep regularly hits both
    singleton classes and the full 2^|X| hypothesis space.
    """
    n = rng.randint(min_points, max_points)
    pointset = PointSet(f"x{i}" for i in range(n))
    dataset = Dataset(pointset, rng.sample(range(n), rng.randint(1, n)))
    size = min(1 << n, rng.randint(1, 1 << rng.randint(0, n)))
    codes = rng.sample(range(1 << n), size)
    # distinct codes give distinct rows, so the class needs no check
    rows = [tuple(1 if (c >> i) & 1 else -1 for i in range(n)) for c in codes]
    return FunctionClass._of_valid_rows(pointset, tuple(rows)), dataset


def check_proposition1(a: LearnerAnalysis) -> list[str]:
    """Perfect-fit effective information = l - VC-entropy, on exact counts."""
    msgs = []
    fit_count = a.risk_distribution.count(0)
    if fit_count != a.restriction_count << (a.n_points - a.length):
        msgs.append(
            f"perfect-fit count {fit_count} != |q_D(F)| * 2^(|X|-l) "
            f"= {a.restriction_count} * 2^{a.n_points - a.length}")
    gap = a.ei - (a.length - a.vc_entropy)
    if abs(gap) > FLOAT_TOL:
        msgs.append(f"ei(L,0) = {a.ei!r} is off l - V by {gap!r}")
    return msgs


def check_proposition2(a: LearnerAnalysis) -> list[str]:
    """Expected risk = (1 - Rademacher)/2, as exact rationals.

    The Rademacher side is the reference search from `a.masks`, not
    `a.rademacher`: both of the analysis's values come from one table and
    agree by construction.
    """
    e_risk = a.expected_risk
    r = _rademacher_reference(a.masks, a.length)
    if e_risk != (1 - r) / 2:
        return [f"E[eps] = {e_risk} but (1 - R)/2 = {(1 - r) / 2} (R = {r})"]
    return []


def check_falsification(a: LearnerAnalysis) -> list[str]:
    """The falsification report agrees with the restriction masks.

    Exactly the patterns equal to a mask are fitted with zero error, so the
    zero-risk fraction must be |q_D(F)| / 2^l and the falsified bits
    |X| - log2(|q_D(F)| * 2^(|X|-l)); the masks do not come from the table.
    """
    msgs = []
    report = a.falsification
    n, l, q = a.n_points, a.length, a.restriction_count
    fitted = dict(report.table).get(Fraction(0), Fraction(0))
    if fitted != Fraction(q, 1 << l):
        msgs.append(f"zero-risk fraction {fitted} != |q_D(F)| / 2^l = {q}/{1 << l}")
    falsified = float(n) - _log2_count(q << (n - l))
    if report.falsified_bits != falsified:
        msgs.append(f"falsified bits {report.falsified_bits!r} != "
                    f"|X| - log2(|q_D(F)| * 2^(|X|-l)) = {falsified!r}")
    return msgs


def check_learning_invariants(fc: FunctionClass, d: Dataset,
                              a: LearnerAnalysis) -> list[str]:
    """Restriction bounds and negation symmetry.

    Negating every f in F complements every restriction mask, and
    complementing reverses the sorted order, so the negated class is
    analyzed from `a.masks` without building it.
    """
    msgs = []
    if not 1 <= a.restriction_count <= min(fc.size, 1 << d.length):
        msgs.append(f"restriction count {a.restriction_count} outside 1..min(|F|, 2^l)")
    everywhere = np.uint32((1 << a.length) - 1)
    negated = _analyze_masks((a.masks ^ everywhere)[::-1], a.n_points, a.length)
    if negated.vc_entropy != a.vc_entropy:
        msgs.append("VC-entropy changed under class negation")
    if negated.rademacher != a.rademacher:
        msgs.append("Rademacher complexity changed under class negation")
    if negated.expected_risk != a.expected_risk:
        msgs.append("expected risk changed under class negation")
    if negated.ei != a.ei:
        msgs.append("ei(L,0) changed under class negation")
    return msgs


def check_instance(fc: FunctionClass, d: Dataset,
                   cap: int = DEFAULT_POINT_CAP) -> list[str]:
    """All identity and invariant checks for one (F, D) instance."""
    a = analyze_learner(fc, d, cap)
    return (check_proposition1(a)
            + check_proposition2(a)
            + check_falsification(a)
            + check_learning_invariants(fc, d, a))


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
    if max_points > cap:
        raise EnumerationCapError(
            f"max_points {max_points} exceeds the enumeration cap {cap}")
    rng = random.Random(seed)
    failures = []
    for i in range(count):
        fc, d = random_learning_instance(rng, min_points, max_points)
        msgs = check_instance(fc, d, cap)
        if msgs:
            failures.append((i, tuple(msgs)))
    return VerifyResult(count, tuple(failures))
