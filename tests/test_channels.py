import time

import numpy as np
import pytest

from effinfo import Alphabet, Channel, Distribution, ValidationError, copy_channel


class TestAlphabet:
    def test_basic(self):
        a = Alphabet(["a", "b", "c"])
        assert a.size == 3
        assert len(a) == 3
        assert list(a) == ["a", "b", "c"]
        assert a.index("b") == 1
        assert "c" in a and "z" not in a

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            Alphabet(["a", "b", "a"])

    def test_many_labels_with_one_repeat_refused_quickly(self):
        labels = [f"s{i}" for i in range(50_000)] + ["s4321"]
        start = time.perf_counter()
        with pytest.raises(ValidationError) as err:
            Alphabet(labels)
        assert time.perf_counter() - start < 2.0
        assert str(err.value) == "alphabet symbols must be distinct, repeated: ['s4321']"
        with pytest.raises(ValidationError) as err:
            Alphabet(["b", "a", "c", "a", "b", "b"])
        assert str(err.value) == "alphabet symbols must be distinct, repeated: ['a', 'b']"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet([])

    def test_unknown_symbol_named_in_error(self):
        with pytest.raises(ValidationError, match="'z'"):
            Alphabet(["a", "b"]).index("z")

    def test_unknown_symbol_named_briefly(self):
        # the symbol, the alphabet's size and at most ten labels: listing
        # them all wrote 3927 characters at 500 labels
        with pytest.raises(ValidationError) as err:
            Alphabet(["a", "b"]).index("z")
        assert str(err.value) == "unknown symbol 'z', expected one of the 2 symbols ['a', 'b']"
        with pytest.raises(ValidationError) as err:
            Alphabet(f"y{i}" for i in range(500)).index("zz")
        first = ", ".join(repr(f"y{i}") for i in range(10))
        assert str(err.value) == (
            f"unknown symbol 'zz', expected one of the 500 symbols [{first}, ...]")

    def test_primed(self):
        assert Alphabet(["a", "b"]).primed().labels == ("a'", "b'")

    def test_equality_and_hash(self):
        assert Alphabet(["a", "b"]) == Alphabet(["a", "b"])
        assert Alphabet(["a", "b"]) != Alphabet(["b", "a"])
        assert hash(Alphabet(["a"])) == hash(Alphabet(["a"]))


class TestDistribution:
    def test_uniform(self):
        p = Distribution.uniform(Alphabet(["a", "b", "c", "d"]))
        assert np.allclose(p.probs, 0.25)
        assert p.prob("c") == 0.25

    def test_point_mass_and_support(self):
        p = Distribution.point_mass(Alphabet(["a", "b", "c"]), "b")
        assert p.prob("b") == 1.0
        assert p.support() == ("b",)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            Distribution(Alphabet(["a", "b"]), [1.5, -0.5])

    def test_unnormalized_rejected_not_renormalized(self):
        with pytest.raises(ValidationError, match="sum"):
            Distribution(Alphabet(["a", "b"]), [0.6, 0.6])

    def test_tolerance_of_normalization(self):
        Distribution(Alphabet(["a", "b"]), [0.5 + 4e-10, 0.5 + 4e-10])
        with pytest.raises(ValidationError):
            Distribution(Alphabet(["a", "b"]), [0.5 + 1e-8, 0.5 + 1e-8])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            Distribution(Alphabet(["a", "b", "c"]), [0.5, 0.5])

    def test_immutable(self):
        p = Distribution.uniform(Alphabet(["a", "b"]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_input_buffer_not_aliased(self):
        raw = np.array([0.5, 0.5])
        p = Distribution(Alphabet(["a", "b"]), raw)
        raw[0] = 0.9
        assert p.prob("a") == 0.5

    def test_equality(self):
        a = Alphabet(["a", "b"])
        assert Distribution(a, [0.25, 0.75]) == Distribution(a, [0.25, 0.75])
        assert Distribution(a, [0.25, 0.75]) != Distribution(a, [0.75, 0.25])


class TestChannel:
    def test_row_access_is_intervention(self):
        m = Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1"]),
                    [[0.5, 0.5], [0.0, 1.0]])
        assert m.do("x0") == Distribution(m.output, [0.5, 0.5])
        assert m.prob("y1", given="x1") == 1.0

    def test_nonstochastic_row_rejected(self):
        with pytest.raises(ValidationError, match="'x1'"):
            Channel(Alphabet(["x0", "x1"]), Alphabet(["y0", "y1"]),
                    [[0.5, 0.5], [0.5, 0.6]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            Channel(Alphabet(["x"]), Alphabet(["y0", "y1"]), [[1.5, -0.5]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            Channel(Alphabet(["x0", "x1"]), Alphabet(["y"]), [[1.0]])

    def test_immutable(self):
        m = Channel(Alphabet(["x"]), Alphabet(["y"]), [[1.0]])
        with pytest.raises(ValueError):
            m.matrix[0, 0] = 0.0


class TestCopyChannel:
    def test_two_symbols(self):
        c = copy_channel(Alphabet(["a", "b"]))
        assert np.array_equal(c.matrix, np.eye(2))
        assert c.output.labels == ("a'", "b'")

    def test_single_symbol(self):
        c = copy_channel(Alphabet(["a"]))
        assert np.array_equal(c.matrix, [[1.0]])
