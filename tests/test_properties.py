"""Property-based checks of the module invariants."""
import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effinfo import (
    Alphabet,
    Channel,
    Dataset,
    Distribution,
    FunctionClass,
    Labeling,
    PointSet,
    actual_repertoire,
    copy_channel,
    effective_information,
    ei_of_learner,
    expected_effective_information,
    expected_risk,
    kl_divergence,
    mutual_information,
    output_distribution,
    rademacher,
    shannon_entropy,
    vc_entropy,
)
from effinfo import cube
from effinfo.instances import check_instance, checked_analysis
from effinfo.learning import _count_tuple, _restriction_masks, analyze_learner

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
    functions = [
        Labeling(pointset, tuple(1 if (c >> i) & 1 else -1 for i in range(n)))
        for c in sorted(codes)
    ]
    l = draw(st.integers(1, n))
    indices = tuple(draw(st.permutations(range(n)))[:l])
    return FunctionClass(pointset, functions), Dataset(pointset, indices)


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
        assert check_instance(fc, d) == []
        # learn's analysis, read off the checked table, is the one-table one
        a, failed = checked_analysis(fc, d)
        assert (a, failed) == (analyze_learner(fc, d), {})
        assert a.restriction_count == _restriction_masks(fc, d).size

    @settings(deadline=None)
    @given(learning_instances())
    def test_negating_the_class_complements_its_restriction_masks(self, instance):
        # the negation check analyzes the complemented masks in place of
        # the negated class; this is the identity that licenses it
        fc, d = instance
        negated = FunctionClass(fc.pointset, [
            Labeling(fc.pointset, tuple(-s for s in f.signs)) for f in fc.functions])
        everywhere = np.uint32((1 << d.length) - 1)
        complemented = np.sort(_restriction_masks(fc, d) ^ everywhere)
        np.testing.assert_array_equal(_restriction_masks(negated, d), complemented)
        # complementing every pattern preserves every distance to the masks
        (counts,) = cube._best_fit_counts(complemented, [d.length])
        assert _count_tuple(counts, d.length) == analyze_learner(fc, d).pattern_counts

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
        extra = Labeling(fc.pointset,
                         tuple(1 if (extra_code >> i) & 1 else -1 for i in range(n)))
        bigger = FunctionClass(fc.pointset, list(fc.functions) + [extra])
        assert vc_entropy(bigger, d) >= vc_entropy(fc, d)
        assert rademacher(bigger, d) >= rademacher(fc, d)
        assert expected_risk(bigger, d) <= expected_risk(fc, d)
        assert ei_of_learner(bigger, d) <= ei_of_learner(fc, d)

    @settings(deadline=None)
    @given(learning_instances(max_points=7))
    def test_rademacher_shattering_and_rationality(self, instance):
        fc, d = instance
        r = rademacher(fc, d)
        assert isinstance(r, Fraction)
        assert -1 <= r <= 1
        if vc_entropy(fc, d) == float(d.length):  # class shatters the data
            assert r == 1
            assert expected_risk(fc, d) == 0
            assert ei_of_learner(fc, d) == 0.0

    @settings(deadline=None)
    @given(learning_instances(max_points=7))
    def test_rademacher_nonnegative_for_negation_closed_class(self, instance):
        fc, d = instance
        signs = {f.signs for f in fc.functions}
        closure = [Labeling(fc.pointset, s) for s in sorted(signs)]
        closure += [Labeling(fc.pointset, tuple(-x for x in s))
                    for s in sorted(signs)
                    if tuple(-x for x in s) not in signs]
        closed = FunctionClass(fc.pointset, closure)
        assert 0 <= rademacher(closed, d) <= 1
