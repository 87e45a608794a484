"""Property-based checks of the module invariants."""
import math
from fractions import Fraction

import random

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effinfo import (
    Alphabet,
    Channel,
    Dataset,
    Distribution,
    FunctionClass,
    PointSet,
    actual_repertoire,
    copy_channel,
    effective_information,
    expected_effective_information,
    kl_divergence,
    mutual_information,
    output_distribution,
    shannon_entropy,
    vc_entropy,
)
from effinfo import cube, instances
from effinfo.instances import check_falsification, check_proposition2, checked_analysis
from effinfo.learning import LearnerAnalysis, _restriction_masks, analyze_learner

from conftest import negation_changes
from test_learning import skew_pattern_zero, worded_bins

# Integer weights keep every generated distribution a rational with a small
# denominator: two of them are either identical as floats or separated far
# above rounding noise, which makes the KL iff-zero property crisp.
WEIGHT = st.integers(min_value=1, max_value=50)
SPARSE_WEIGHT = st.integers(min_value=0, max_value=50)


def _alphabet(n, prefix="s"):
    return Alphabet([f"{prefix}{i}" for i in range(n)])


@st.composite
def distributions(draw, alphabet=None, max_size=16, sparse=False):
    if alphabet is None:
        alphabet = _alphabet(draw(st.integers(1, max_size)))
    source = SPARSE_WEIGHT if sparse else WEIGHT
    weights = draw(st.lists(source, min_size=alphabet.size, max_size=alphabet.size))
    total = sum(weights)
    assume(total > 0)
    return Distribution(alphabet, [w / total for w in weights])


@st.composite
def channels(draw, max_inputs=8, max_outputs=8, sparse=True):
    inputs = _alphabet(draw(st.integers(1, max_inputs)), "x")
    outputs = _alphabet(draw(st.integers(1, max_outputs)), "y")
    source = SPARSE_WEIGHT if sparse else WEIGHT
    rows = []
    for _ in range(inputs.size):
        weights = draw(st.lists(source, min_size=outputs.size, max_size=outputs.size))
        assume(sum(weights) > 0)
        rows.append([w / sum(weights) for w in weights])
    return Channel(inputs, outputs, rows)


@st.composite
def learning_instances(draw, max_points=8):
    n = draw(st.integers(1, max_points))
    pointset = PointSet([f"p{i}" for i in range(n)])
    codes = draw(st.sets(st.integers(0, 2 ** n - 1), min_size=1,
                         max_size=min(2 ** n, 24)))
    rows = [[1 if (c >> i) & 1 else -1 for i in range(n)] for c in sorted(codes)]
    l = draw(st.integers(1, n))
    indices = tuple(draw(st.permutations(range(n)))[:l])
    return FunctionClass(pointset, rows), Dataset(pointset, indices)


@st.composite
def windows(draw, max_points=10, max_rows=6):
    """Drawn instances laid out as `verify` checks them: the masks of rows
    of mixed lengths, each its dataset indices and its codes, in `cube`'s
    row layout (`instances._window_masks`), and the rows' lengths."""
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        n = draw(st.integers(1, max_points))
        l = draw(st.integers(1, n))
        codes = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1,
                              max_size=min(2 ** n, 24), unique=True))
        rows.append((draw(st.permutations(range(n)))[:l], codes))
    rows.sort(key=lambda row: -len(row[0]))
    indices, codes = zip(*rows)
    return instances._window_masks(indices, codes), [len(row) for row in indices]


# one-row calls, on the masks that `learn` builds
ONE_ROW = learning_instances().map(lambda i: (_restriction_masks(*i), [i[1].length]))


@st.composite
def analysis_pairs(draw):
    """Two analyses of one instance shape (|X|, l and mask count), l = 1..8,
    with arbitrary nonnegative counts, some with a bin past l: unrelated,
    equal, or with patterns moved so that their mismatch sums agree while
    three bins differ."""
    l = draw(st.integers(1, 8))
    shape = (draw(st.integers(l, l + 3)), l)
    mask_count = draw(st.integers(1, 1 << l))
    bins = st.lists(st.integers(0, 1 << l), min_size=l + 1, max_size=l + 2)
    table = draw(bins)
    how = draw(st.sampled_from(["unrelated", "equal", "moved"]))
    reference = draw(bins) if how == "unrelated" else list(table)
    if how == "moved":
        # one pattern each to k and k + 2 against two to k + 1
        assume(len(table) >= 3)
        k = draw(st.integers(0, len(table) - 3))
        table[k] += 1
        table[k + 2] += 1
        reference[k + 1] += 2
    return (LearnerAnalysis(*shape, tuple(table), mask_count),
            LearnerAnalysis(*shape, tuple(reference), mask_count))


class TestKLProperties:
    @given(st.data())
    def test_nonnegative_and_zero_iff_equal(self, data):
        alphabet = _alphabet(data.draw(st.integers(1, 16)))
        p = data.draw(distributions(alphabet=alphabet, sparse=True))
        q = data.draw(distributions(alphabet=alphabet))
        kl = kl_divergence(p, q)
        assert kl >= 0.0
        equal = bool(np.allclose(p.probs, q.probs, rtol=0.0, atol=1e-9))
        assert (kl == 0.0) == equal

    @given(distributions())
    def test_self_divergence_is_exactly_zero(self, p):
        assert kl_divergence(p, p) == 0.0


class TestEntropyProperties:
    @given(distributions())
    def test_entropy_bounds(self, p):
        h = shannon_entropy(p)
        assert 0.0 <= h <= math.log2(p.alphabet.size) + 1e-12

    @given(distributions())
    def test_entropy_is_expected_ei_of_copy(self, p):
        c = copy_channel(p.alphabet)
        assert abs(shannon_entropy(p) - expected_effective_information(c, p)) < 1e-9


class TestChannelProperties:
    @given(st.data())
    def test_bayes_consistency(self, data):
        m = data.draw(channels())
        prior = data.draw(distributions(alphabet=m.input, sparse=True))
        out = output_distribution(m, prior)
        mixture = np.zeros(m.input.size)
        for y, p_y in zip(m.output.labels, out.probs):
            if p_y > 0.0:
                mixture += p_y * actual_repertoire(m, prior, y).probs
        assert np.allclose(mixture, prior.probs, rtol=0.0, atol=1e-9)

    @given(st.data())
    def test_expected_ei_equals_mutual_information(self, data):
        m = data.draw(channels())
        prior = data.draw(distributions(alphabet=m.input, sparse=True))
        assert abs(expected_effective_information(m, prior)
                   - mutual_information(m, prior)) < 1e-9

    @given(channels(sparse=True))
    def test_ei_bounds_under_uniform_prior(self, m):
        prior = Distribution.uniform(m.input)
        out = output_distribution(m, prior)
        for y, p_y in zip(m.output.labels, out.probs):
            if p_y > 0.0:
                ei = effective_information(m, prior, y)
                assert 0.0 <= ei <= math.log2(m.input.size) + 1e-12

    @given(st.data())
    def test_operations_are_pure(self, data):
        m = data.draw(channels())
        prior = data.draw(distributions(alphabet=m.input))
        assert output_distribution(m, prior) == output_distribution(m, prior)
        assert (expected_effective_information(m, prior)
                == expected_effective_information(m, prior))
        assert mutual_information(m, prior) == mutual_information(m, prior)


class TestLearningProperties:
    @settings(deadline=None)
    @given(learning_instances())
    def test_all_identities_and_invariants(self, instance):
        fc, d = instance
        # learn's analysis, read off the checked table, is the one-table one
        a, failed = checked_analysis(fc, d)
        assert (a, failed) == (analyze_learner(fc, d), {})
        assert a.restriction_count == _restriction_masks(fc, d).size

    @settings(deadline=None)
    @given(analysis_pairs())
    def test_the_checks_compare_the_table_with_the_reference(self, pair):
        a, reference = pair
        l = a.length
        mismatch_sum, distance_sum = (sum(k * c for k, c in enumerate(x.pattern_counts))
                                      for x in pair)
        e = Fraction(mismatch_sum, l << l)
        r = Fraction((l << l) - 2 * distance_sum, l << l)
        if mismatch_sum == distance_sum:
            assert check_proposition2(a, reference) == []
        else:
            assert check_proposition2(a, reference) == [
                f"E[eps] = {e} but (1 - R)/2 = {(1 - r) / 2} (R = {r})"]
        width = max(len(x.pattern_counts) for x in pair)
        table, ref = (x.pattern_counts + (0,) * (width - len(x.pattern_counts)) for x in pair)
        assert check_falsification(a, reference) == worded_bins(
            l, table, ref, [k for k in range(width) if table[k] != ref[k]])

    @settings(deadline=None)
    @given(learning_instances())
    def test_negating_the_class_complements_its_restriction_masks(self, instance):
        # the kernel-symmetry property complements masks in place of
        # negating the class; this is the identity that licenses it
        fc, d = instance
        negated = FunctionClass(fc.pointset, -fc.signs)
        everywhere = np.uint32((1 << d.length) - 1)
        complemented = np.sort(_restriction_masks(fc, d) ^ everywhere)
        np.testing.assert_array_equal(_restriction_masks(negated, d), complemented)

    @settings(deadline=None)
    @given(st.one_of(windows(), ONE_ROW))
    def test_negating_every_row_keeps_both_kernels_histograms(self, rows):
        # complementing every pattern preserves every distance to the masks,
        # so neither the table's nor the reference's histogram of any row
        # may change, whatever the other rows of its call
        assert negation_changes(*rows) == set()

    def test_the_kernel_symmetry_catches_a_table_asymmetric_under_negation(
            self, monkeypatch):
        # the fault the property exists for: a table wrong only where a row
        # and its complement differ, which no report of the row reads
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", skew_pattern_zero)
        # masks {00, 01}: pattern 0 is a mask, its complement 11 is not
        assert negation_changes(np.array([0, 1], dtype=np.uint32), [2]) == {0}
        rng = random.Random(1)
        drawn = sorted((instances.random_instance_codes(rng, 1, 8) for _ in range(40)),
                       key=lambda row: -len(row[1]))
        _, indices, codes = zip(*drawn)
        assert negation_changes(instances._window_masks(indices, codes),
                                [len(row) for row in indices])

    @settings(deadline=None)
    @given(st.data())
    def test_monotonicity_in_the_class(self, data):
        fc, d = data.draw(learning_instances(max_points=7))
        n = fc.pointset.size
        taken = {sum(1 << i for i, s in enumerate(f.signs) if s > 0)
                 for f in fc.functions}
        free = sorted(set(range(1 << n)) - taken)
        assume(free)
        extra_code = data.draw(st.sampled_from(free))
        extra = [1 if (extra_code >> i) & 1 else -1 for i in range(n)]
        bigger = FunctionClass(fc.pointset, fc.signs.tolist() + [extra])
        assert vc_entropy(bigger, d) >= vc_entropy(fc, d)
        big, small = analyze_learner(bigger, d), analyze_learner(fc, d)
        assert big.rademacher >= small.rademacher
        assert big.expected_risk <= small.expected_risk
        assert big.ei <= small.ei

    @settings(deadline=None)
    @given(learning_instances(max_points=7))
    def test_rademacher_shattering_and_rationality(self, instance):
        fc, d = instance
        a = analyze_learner(fc, d)
        r = a.rademacher
        assert isinstance(r, Fraction)
        assert -1 <= r <= 1
        if vc_entropy(fc, d) == float(d.length):  # class shatters the data
            assert r == 1
            assert a.expected_risk == 0
            assert a.ei == 0.0

    @settings(deadline=None)
    @given(learning_instances(max_points=7))
    def test_rademacher_nonnegative_for_negation_closed_class(self, instance):
        fc, d = instance
        signs = {f.signs for f in fc.functions}
        closure = sorted(signs)
        closure += [tuple(-x for x in s) for s in sorted(signs)
                    if tuple(-x for x in s) not in signs]
        closed = FunctionClass(fc.pointset, closure)
        assert 0 <= analyze_learner(closed, d).rademacher <= 1
