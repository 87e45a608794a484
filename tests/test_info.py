import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from effinfo import (
    ATOL,
    Alphabet,
    Channel,
    Distribution,
    UndefinedOutputError,
    ValidationError,
    actual_repertoire,
    copy_channel,
    effective_information,
    expected_effective_information,
    information_gain,
    kl_divergence,
    mutual_information,
    output_distribution,
    shannon_entropy,
)
from effinfo.documents import load_json, parse_prior, parse_system

DATA = Path(__file__).parent / "data"

ABCD = Alphabet(["a", "b", "c", "d"])
UNIF4 = Distribution.uniform(ABCD)


def constant_channel(n_in=4, n_out=4, hit=0):
    """Every input maps to the same output; output carries no information."""
    matrix = np.zeros((n_in, n_out))
    matrix[:, hit] = 1.0
    return Channel(Alphabet([f"x{i}" for i in range(n_in)]),
                   Alphabet([f"y{j}" for j in range(n_out)]), matrix)


def identity_channel(n):
    a = Alphabet([f"x{i}" for i in range(n)])
    b = Alphabet([f"y{i}" for i in range(n)])
    return Channel(a, b, np.eye(n))


def _mi_double_sum(m, prior):
    """Inline textbook oracle, independent of the library implementations."""
    nx, ny = m.input.size, m.output.size
    py = [sum(prior.probs[x] * m.matrix[x][y] for x in range(nx)) for y in range(ny)]
    total = 0.0
    for x in range(nx):
        for y in range(ny):
            pxy = prior.probs[x] * m.matrix[x][y]
            if pxy > 0:
                total += pxy * math.log2(pxy / (prior.probs[x] * py[y]))
    return total


def _mi_joint_loop(m, prior):
    """The joint-vs-product double sum, one Python term per cell."""
    py = prior.probs @ m.matrix
    total = 0.0
    for i, p_x in enumerate(prior.probs):
        if p_x == 0.0:
            continue
        for j, p_y in enumerate(py):
            p_yx = m.matrix[i, j]
            if p_yx == 0.0:
                continue
            total += p_x * p_yx * math.log2(p_yx / p_y)
    return max(0.0, total)


def _expected_ei_scalar(m, prior):
    """Sum of p(y) * ei(y) over reachable outputs, one scalar KL per output."""
    p_out = output_distribution(m, prior)
    return sum(p_y * effective_information(m, prior, y)
               for y, p_y in zip(m.output.labels, p_out.probs) if p_y > 0.0)


def _weights(draw, n):
    """n integer weights in 0..50, not all zero, normalized."""
    w = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n))
    assume(sum(w) > 0)
    return [v / sum(w) for v in w]


@st.composite
def channel_and_prior(draw, identical_rows=False):
    """|X|, |Y| <= 12, with zero matrix and prior entries, so some outputs are unreachable."""
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    row = _weights(draw, ny)
    rows = [row] * nx if identical_rows else [_weights(draw, ny) for _ in range(nx)]
    m = Channel(Alphabet([f"x{i}" for i in range(nx)]),
                Alphabet([f"y{j}" for j in range(ny)]), rows)
    return m, Distribution(m.input, _weights(draw, nx))


class TestKLDivergence:
    def test_identical_is_zero(self):
        assert kl_divergence(UNIF4, UNIF4) == 0.0

    def test_point_mass_vs_uniform(self):
        assert kl_divergence(Distribution.point_mass(ABCD, "a"), UNIF4) == 2.0

    def test_half_support_vs_uniform(self):
        # 2 * (0.5 * log2(0.5 / 0.25)) = 1.0, computed by hand
        p = Distribution(ABCD, [0.5, 0.5, 0.0, 0.0])
        assert kl_divergence(p, UNIF4) == pytest.approx(1.0, abs=1e-12)

    def test_alphabet_mismatch(self):
        q = Distribution.uniform(Alphabet(["p", "q", "r", "s"]))
        with pytest.raises(ValidationError, match="alphabet"):
            kl_divergence(UNIF4, q)

    def test_support_violation_names_symbol(self):
        p = Distribution(ABCD, [0.5, 0.5, 0.0, 0.0])
        q = Distribution(ABCD, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="'b'"):
            kl_divergence(p, q)

    def test_zero_times_log_zero_convention(self):
        # zero-probability symbols of p contribute nothing even where q > 0
        p = Distribution(ABCD, [1.0, 0.0, 0.0, 0.0])
        q = Distribution(ABCD, [0.5, 0.5, 0.0, 0.0])
        assert kl_divergence(p, q) == 1.0


class TestShannonEntropy:
    def test_uniform(self):
        assert shannon_entropy(UNIF4) == 2.0

    def test_point_mass(self):
        assert shannon_entropy(Distribution.point_mass(ABCD, "c")) == 0.0

    def test_direct_evaluation(self):
        p = Distribution(Alphabet(["x", "y", "z"]), [0.5, 0.25, 0.25])
        assert shannon_entropy(p) == 1.5


class TestOutputDistribution:
    def test_identity_uniform(self):
        m = identity_channel(3)
        out = output_distribution(m, Distribution.uniform(m.input))
        assert out == Distribution.uniform(m.output)

    def test_constant(self):
        m = constant_channel()
        prior = Distribution(m.input, [0.7, 0.1, 0.1, 0.1])
        out = output_distribution(m, prior)
        assert np.allclose(out.probs, Distribution.point_mass(m.output, "y0").probs,
                           atol=1e-12)

    def test_hand_product(self):
        m = Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1"]),
                    [[0.5, 0.5], [0.0, 1.0]])
        out = output_distribution(m, Distribution.uniform(m.input))
        assert np.allclose(out.probs, [0.25, 0.75], atol=1e-12)

    def test_prior_alphabet_mismatch(self):
        with pytest.raises(ValidationError):
            output_distribution(identity_channel(3), UNIF4)


class TestActualRepertoire:
    def test_identity_gives_point_mass(self):
        m = identity_channel(4)
        rep = actual_repertoire(m, Distribution.uniform(m.input), "y2")
        assert rep == Distribution.point_mass(m.input, "x2")

    def test_constant_gives_prior_back(self):
        m = constant_channel()
        rep = actual_repertoire(m, Distribution.uniform(m.input), "y0")
        assert np.allclose(rep.probs, 0.25, atol=1e-15)

    def test_hand_bayes(self):
        m = Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1"]),
                    [[0.5, 0.5], [0.0, 1.0]])
        rep = actual_repertoire(m, Distribution.uniform(m.input), "y1")
        assert np.allclose(rep.probs, [1 / 3, 2 / 3], atol=1e-12)

    def test_unreachable_output_is_an_error(self):
        m = constant_channel()
        with pytest.raises(UndefinedOutputError, match="'y1'"):
            actual_repertoire(m, Distribution.uniform(m.input), "y1")

    def test_support_never_exceeds_prior_support(self):
        m = Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1"]),
                    [[0.5, 0.5], [0.5, 0.5]])
        prior = Distribution(m.input, [1.0, 0.0])
        rep = actual_repertoire(m, prior, "y0")
        assert rep.support() == ("x0",)


class TestEffectiveInformation:
    def test_constant_channel_is_zero(self):
        m = constant_channel()
        assert effective_information(m, Distribution.uniform(m.input), "y0") == 0.0

    def test_identity_eight_symbols(self):
        m = identity_channel(8)
        prior = Distribution.uniform(m.input)
        for y in m.output.labels:
            assert effective_information(m, prior, y) == 3.0

    def test_copy_channel_gives_surprise(self):
        a = Alphabet(["a", "b", "c"])
        prior = Distribution(a, [0.5, 0.25, 0.25])
        c = copy_channel(a)
        for symbol, p in zip(a.labels, prior.probs):
            ei = effective_information(c, prior, symbol + "'")
            assert ei == pytest.approx(-math.log2(p), abs=1e-12)

    def test_uniform_prior_bound(self):
        m = Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1"]),
                    [[0.9, 0.1], [0.2, 0.8]])
        prior = Distribution.uniform(m.input)
        for y in m.output.labels:
            ei = effective_information(m, prior, y)
            assert 0.0 <= ei <= 1.0 + 1e-12


class TestExpectedEffectiveInformation:
    def test_copy_channel_recovers_entropy(self):
        a = Alphabet(["a", "b", "c"])
        prior = Distribution(a, [0.5, 0.25, 0.25])
        assert expected_effective_information(copy_channel(a), prior) == pytest.approx(
            1.5, abs=1e-12)

    def test_constant_channel_is_zero(self):
        m = constant_channel()
        assert expected_effective_information(m, Distribution.uniform(m.input)) == 0.0

    def test_matches_double_sum_oracle(self):
        m = Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1"]),
                    [[0.5, 0.5], [0.0, 1.0]])
        prior = Distribution.uniform(m.input)
        oracle = _mi_double_sum(m, prior)
        assert oracle == 0.31127812445913283  # frozen from the oracle
        assert expected_effective_information(m, prior) == pytest.approx(oracle, abs=1e-9)
        assert mutual_information(m, prior) == pytest.approx(oracle, abs=1e-12)

    def test_skips_unreachable_outputs(self):
        m = Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1", "y2"]),
                    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        prior = Distribution.uniform(m.input)
        assert expected_effective_information(m, prior) == pytest.approx(1.0, abs=1e-12)


class TestChannelKernels:
    """The vectorized kernels against the scalar definitions, per channel."""

    @given(channel_and_prior())
    def test_expected_ei_equals_scalar_per_output_sum(self, case):
        m, prior = case
        assert abs(expected_effective_information(m, prior)
                   - _expected_ei_scalar(m, prior)) <= 1e-12

    @given(channel_and_prior())
    def test_mutual_information_equals_double_sum(self, case):
        m, prior = case
        assert abs(mutual_information(m, prior) - _mi_joint_loop(m, prior)) <= 1e-12

    @given(channel_and_prior(identical_rows=True))
    def test_identical_rows_give_exactly_zero(self, case):
        m, prior = case
        assert expected_effective_information(m, prior) == 0.0
        assert _expected_ei_scalar(m, prior) == 0.0

    def test_zero_prior_entries_and_unreachable_outputs(self):
        m = Channel(Alphabet(["x0", "x1", "x2"]), Alphabet(["y0", "y1", "y2", "y3"]),
                    [[0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.75, 0.0], [0.0, 0.0, 0.0, 1.0]])
        prior = Distribution(m.input, [0.5, 0.5, 0.0])  # y3 is unreachable
        oracle = _mi_joint_loop(m, prior)
        assert oracle == pytest.approx(_mi_double_sum(m, prior), abs=1e-15)
        assert expected_effective_information(m, prior) == pytest.approx(oracle, abs=1e-12)
        assert expected_effective_information(m, prior) == pytest.approx(
            _expected_ei_scalar(m, prior), abs=1e-12)
        assert mutual_information(m, prior) == pytest.approx(oracle, abs=1e-12)

    def test_benchmark_scale_against_the_scalar_definitions(self):
        # inputs x0..x74 have prior 0 and alone reach y0, so y0 is a nonzero
        # column with p(y) = 0; x75's prior is subnormal
        n = 300
        rng = np.random.default_rng(26)
        weights = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        weights[:, 0] = 0.0
        weights[:75, 0] = 1.0
        m = Channel(Alphabet([f"x{i}" for i in range(n)]),
                    Alphabet([f"y{j}" for j in range(n)]),
                    weights / weights.sum(axis=1, keepdims=True))
        probs = np.zeros(n)
        probs[76:] = rng.random(n - 76)
        probs /= probs.sum()
        probs[75] = 1e-320
        prior = Distribution(m.input, probs)
        assert output_distribution(m, prior).probs[0] == 0.0
        assert abs(expected_effective_information(m, prior)
                   - _expected_ei_scalar(m, prior)) <= 1e-9
        assert abs(mutual_information(m, prior) - _mi_joint_loop(m, prior)) <= 1e-9

    @pytest.mark.parametrize("kernel", [expected_effective_information, mutual_information])
    def test_peak_memory_is_two_matrices_and_a_mask(self, kernel):
        # no index of nonzero cells and no gathered copy of the matrix
        n = 500
        weights = np.random.default_rng(500).random((n, n))
        m = Channel(Alphabet([f"x{i}" for i in range(n)]),
                    Alphabet([f"y{j}" for j in range(n)]),
                    weights / weights.sum(axis=1, keepdims=True))
        prior = Distribution.uniform(m.input)
        tracemalloc.start()
        try:
            kernel(m, prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * m.matrix.nbytes

    def test_prior_alphabet_mismatch(self):
        m = identity_channel(3)
        for kernel in (expected_effective_information, mutual_information):
            with pytest.raises(ValidationError, match="prior is over"):
                kernel(m, UNIF4)


class TestSubnormalPrior:
    """A prior entry so small that its reciprocal overflows a double.

    The swap channel sends x0 to y1, so observing y1 pins the input to x0
    and generates -log2 p(x0) bits: about 1063 bits for p(x0) = 1e-320.
    """

    @pytest.fixture
    def case(self):
        m = parse_system(load_json(str(DATA / "swap2.json"))[0])
        prior = parse_prior(load_json(str(DATA / "prior_subnormal.json"))[0], m.input)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield m, prior

    def test_ei_is_the_surprise_of_the_pinned_input(self, case):
        m, prior = case
        assert prior.probs[0] == 1e-320
        assert abs(effective_information(m, prior, "y1") - -math.log2(1e-320)) <= 1e-9
        assert effective_information(m, prior, "y0") == 0.0

    def test_expected_ei_and_mi_are_finite_and_agree(self, case):
        m, prior = case
        expected_ei = expected_effective_information(m, prior)
        mi = mutual_information(m, prior)
        assert math.isfinite(expected_ei) and math.isfinite(mi)
        assert expected_ei == pytest.approx(1e-320 * -math.log2(1e-320), rel=1e-9)
        assert mi == pytest.approx(expected_ei, rel=1e-9)


class TestAtolEdgeInputs:
    """A prior and channel rows each summing to 1 + 9e-10, just inside ATOL.

    p(y) = prior @ matrix then sums to 1 + 1.8e-9: derived, not an input, so
    it is neither rejected nor renormalized.
    """

    @pytest.fixture
    def case(self):
        m = parse_system(load_json(str(DATA / "atol_edge.json"))[0])
        prior = parse_prior(load_json(str(DATA / "prior_atol_edge.json"))[0], m.input)
        return m, prior

    def test_output_distribution_is_the_plain_product(self, case):
        m, prior = case
        out = output_distribution(m, prior)
        np.testing.assert_array_equal(out.probs, prior.probs @ m.matrix)
        assert abs(float(out.probs.sum()) - 1.0) > ATOL
        assert not out.probs.flags.writeable

    def test_ei_entropy_and_mi_are_defined_and_agree(self, case):
        m, prior = case
        assert effective_information(m, prior, "y0") > 0.0
        assert shannon_entropy(output_distribution(m, prior)) > 0.0
        expected_ei = expected_effective_information(m, prior)
        assert abs(expected_ei - mutual_information(m, prior)) < 1e-9


class TestMutualInformation:
    def test_identity_channel(self):
        for n in (2, 5, 8):
            m = identity_channel(n)
            mi = mutual_information(m, Distribution.uniform(m.input))
            assert mi == pytest.approx(math.log2(n), abs=1e-12)

    def test_constant_channel(self):
        m = constant_channel()
        assert mutual_information(m, Distribution.uniform(m.input)) == 0.0

    def test_independent_output(self):
        # all rows equal: output distribution does not depend on the input;
        # power-of-two entries keep the arithmetic exact
        m = Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1"]),
                    [[0.25, 0.75], [0.25, 0.75]])
        prior = Distribution(m.input, [0.5, 0.5])
        assert mutual_information(m, prior) == 0.0


class TestCopyChannel:
    def test_repertoire_is_point_mass_for_any_prior(self):
        a = Alphabet(["a", "b", "c", "d"])
        prior = Distribution(a, [0.4, 0.3, 0.2, 0.1])
        c = copy_channel(a)
        for symbol in a.labels:
            rep = actual_repertoire(c, prior, symbol + "'")
            assert rep == Distribution.point_mass(a, symbol)


class TestInformationGain:
    def test_delegates_to_kl(self):
        posterior = Distribution(ABCD, [0.5, 0.5, 0.0, 0.0])
        assert information_gain(UNIF4, posterior) == kl_divergence(posterior, UNIF4)
        assert information_gain(UNIF4, UNIF4) == 0.0
        assert information_gain(UNIF4, Distribution.point_mass(ABCD, "a")) == 2.0

    def test_posterior_support_must_shrink(self):
        prior = Distribution(ABCD, [1.0, 0.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            information_gain(prior, UNIF4)
