import dataclasses
import decimal
import hashlib
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effinfo import (
    Alphabet,
    Dataset,
    DeterministicMap,
    Distribution,
    EnumerationCapError,
    FunctionClass,
    Labeling,
    PointSet,
    ValidationError,
    actual_repertoire,
    analyze_learner,
    channel_of_map,
    effective_probability,
    ei_deterministic,
    empirical_risk,
    erm,
    expected_effective_information,
    kl_divergence,
    mutual_information,
    restriction_count,
    shannon_entropy,
    vc_entropy,
)
from effinfo import cube, instances, learning
from effinfo.cli import main
from effinfo.documents import learning_instance_doc, parse_learning_instance
from effinfo.instances import (
    check_falsification,
    check_proposition1,
    check_proposition2,
    checked_analysis,
    random_learning_instance,
    verify_instances,
)
from conftest import negation_changes, reference_analysis

DATA = Path(__file__).parent / "data"

ABC = PointSet(["a", "b", "c"])
AB = PointSet(["a", "b"])


def labeling(ps, signs):
    return Labeling(ps, signs)


def full_class(ps):
    """Every labeling of the point set."""
    n = ps.size
    return FunctionClass(ps, [
        [1 if (c >> i) & 1 else -1 for i in range(n)] for c in range(1 << n)
    ])


def int8_matrix(rows):
    """The rows as the int8 (|F|, |X|) matrix form of a class's signs."""
    return np.array(rows, np.int8)


def constant_plus_class(ps):
    return FunctionClass(ps, [(1,) * ps.size])


def labeling_counts(a):
    """The analysis's nonzero best-fit counts over all 2^|X| labelings of X,
    by mismatch count: each pattern on D stands for 2^(|X| - l) of them."""
    return {k: c << (a.n_points - a.length) for k, c in enumerate(a.pattern_counts) if c}


# ---------------------------------------------------------------------------
# brute-force oracles: literal sweeps over all 2^|X| labelings, no library
# algorithms involved
# ---------------------------------------------------------------------------

def oracle_risk_counts(fc, d):
    counts = {}
    for bits in itertools.product((1, -1), repeat=fc.pointset.size):
        best = min(
            sum(1 for i in d.indices if f.signs[i] != bits[i])
            for f in fc.functions)
        counts[best] = counts.get(best, 0) + 1
    return counts


def oracle_rademacher(fc, d):
    total = 0
    for bits in itertools.product((1, -1), repeat=fc.pointset.size):
        total += max(
            sum(bits[i] * f.signs[i] for i in d.indices)
            for f in fc.functions)
    return Fraction(total, d.length * 2 ** fc.pointset.size)


def oracle_vc_entropy_count(fc, d):
    return len({tuple(f.signs[i] for i in d.indices) for f in fc.functions})


def oracle_masks(fc, d):
    """Restriction masks, bit k set iff the function labels d_k with +1."""
    return np.array(sorted({
        sum(1 << k for k, i in enumerate(d.indices) if f.signs[i] == 1)
        for f in fc.functions}), dtype=np.uint32)


def oracle_table(masks, length):
    """min(popcount(p ^ m)) over the masks, one pattern at a time."""
    return np.array([np.bitwise_count(np.uint32(p) ^ masks).min()
                     for p in range(1 << length)])


def far_instance_doc(n):
    """Three functions on |X| = n points, the dataset at the first three:
    all +1, all -1, and +1, -1, +1, ..., so |q_D(F)| = 3 and l - V = 3 - log2 3."""
    points = [f"p{i}" for i in range(n)]
    return {"points": points,
            "functions": [[1] * n, [-1] * n, [(-1) ** i for i in range(n)]],
            "dataset": points[:3]}


class TestTypes:
    def test_pointset_duplicates_rejected(self):
        with pytest.raises(ValidationError, match="distinct"):
            PointSet(["a", "b", "a"])

    def test_many_points_with_one_repeat_refused_quickly(self):
        # one count per name: counting each name's repeats over all names
        # took seconds at 20 000 names
        points = [f"p{i}" for i in range(50_000)] + ["p123"]
        start = time.perf_counter()
        with pytest.raises(ValidationError) as err:
            PointSet(points)
        assert time.perf_counter() - start < 2.0
        assert str(err.value) == "point identifiers must be distinct, repeated: ['p123']"
        with pytest.raises(ValidationError) as err:
            PointSet(["b", "a", "c", "a", "b", "b"])
        assert str(err.value) == "point identifiers must be distinct, repeated: ['a', 'b']"

    def test_unknown_point_named_briefly(self, tmp_path, capsys):
        # the point, |X| and at most ten points: listing them all wrote a
        # 989 KB line at |X| = 100 000
        with pytest.raises(ValidationError) as err:
            Dataset.from_points(ABC, ["z"])
        assert str(err.value) == "unknown point 'z', expected one of the 3 points ['a', 'b', 'c']"
        doc = far_instance_doc(100_000)
        doc["dataset"] = ["p0", "q"]
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(doc))
        assert main(["learn", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first = ", ".join(repr(f"p{i}") for i in range(10))
        assert captured.err == (
            f"error: unknown point 'q', expected one of the 100000 points [{first}, ...]\n")

    def test_labeling_bad_sign_rejected(self):
        with pytest.raises(ValidationError, match="'b'"):
            Labeling(AB, (1, 0))

    def test_function_class_duplicates_rejected(self):
        for form in (list, int8_matrix):
            with pytest.raises(ValidationError) as err:
                FunctionClass(AB, form([[1, 1], [-1, 1], [1, 1]]))
            assert str(err.value) == "duplicate function (1, 1) in class"

    def test_function_class_must_be_nonempty(self):
        with pytest.raises(ValidationError, match="nonempty"):
            FunctionClass(AB, [])

    def test_class_of_sign_rows_keeps_only_its_rows(self):
        # the signs are read straight into an int8 matrix and checked by
        # array passes, one bool array at a time; tuples of Python ints
        # took 8 bytes a sign, held and at the peak
        n = 100_000
        ps = PointSet(f"x{i}" for i in range(n))
        rows = [[1 if i % (r + 2) else -1 for i in range(n)] for r in range(3)]
        tracemalloc.start()
        try:
            fc = FunctionClass(ps, rows)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fc.signs.tolist() == rows
        signs = 3 * n
        assert fc.signs.dtype == np.int8 and fc.signs.nbytes == signs
        assert held <= signs + 1024  # one byte a sign, and the two objects' headers
        assert peak <= 3.5 * signs

    def test_parsing_a_wide_document_peaks_below_its_text(self):
        # the point names are checked distinct sorted, one pointer a name;
        # a set of them peaked at 3.5 bytes per byte of this JSON text
        doc = far_instance_doc(100_000)
        text_bytes = len(json.dumps(doc))
        tracemalloc.start()
        try:
            fc, d = parse_learning_instance(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (fc.pointset.size, fc.size, d.length) == (100_000, 3, 3)
        assert peak <= 1.5 * text_bytes

    def test_class_of_its_own_sign_matrix_is_equal(self, monkeypatch):
        fc = FunctionClass(ABC, [[1, -1, 1], [-1, -1, 1]])
        monkeypatch.setattr(learning, "_sign_matrix", None)  # an int8 matrix is not read as rows
        again = FunctionClass(ABC, fc.signs)
        assert again == fc and again.signs is not fc.signs

    def test_class_of_a_sign_array_is_refused_at_its_first_sign(self):
        # an array of another dtype is read as rows, whose signs are numpy
        # ints; an array's truth is ambiguous: testing it leaked numpy's
        # ValueError
        with pytest.raises(ValidationError) as err:
            FunctionClass(ABC, np.array([[1, -1, 1], [-1, -1, 1]], np.int64))
        assert str(err.value) == "sign at point 'a' is np.int64(1), must be the integer +1 or -1"

    def test_writing_to_the_given_matrix_leaves_the_class_unchanged(self):
        given = np.array([[1, -1, 1], [-1, -1, 1]], np.int8)
        fc = FunctionClass(ABC, given)
        given[0, 0] = 0
        given[1] = given[0]
        assert fc.signs.tolist() == [[1, -1, 1], [-1, -1, 1]]
        assert not fc.signs.flags.writeable and given.flags.writeable

    @pytest.mark.parametrize("signs,message", [
        (np.ones((0, 3), np.int8), "function class must be nonempty"),
        (np.ones((2, 2), np.int8), "labeling has 2 signs for 3 points"),
        (np.ones((2, 4), np.int8), "labeling has 4 signs for 3 points"),
        (np.ones(3, np.int8), "function 0 must be a list of +1/-1 signs"),
        (np.ones((1, 1, 3), np.int8), "labeling has 1 signs for 3 points"),
        (np.ones((2, 3), np.uint8),
         "sign at point 'a' is np.uint8(1), must be the integer +1 or -1"),
    ], ids=["no rows", "narrow", "wide", "one row", "three axes", "uint8"])
    def test_other_shapes_and_dtypes_are_read_as_rows(self, signs, message):
        # only an int8 (|F|, |X|) matrix of at least one row skips the row
        # read; any other array is refused at its first row's fault
        with pytest.raises(ValidationError) as err:
            FunctionClass(ABC, signs)
        assert str(err.value) == message

    def test_class_row_keys_peak_below_four_bytes_a_sign(self):
        # the uint64 row keys are products of 2^15 bits at a time; one
        # product of all the bool rows with uint64 weights cast them all to
        # 8 bytes a sign, and the whole check peaked at 10.5
        n = 16
        ps = PointSet(f"x{i}" for i in range(n))
        codes = random.Random(16).sample(range(1 << n), 1 << 14)
        rows = [[1 if (c >> i) & 1 else -1 for i in range(n)] for c in codes]
        tracemalloc.start()
        try:
            fc = FunctionClass(ps, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fc.size == len(rows)
        assert peak <= 4 * len(rows) * n

    def test_classes_are_equal_by_point_set_and_sign_matrix(self):
        rows = [[1, -1, 1], [-1, -1, 1]]
        bulk = FunctionClass(ABC, rows)
        built = FunctionClass(ABC, int8_matrix(rows))
        assert bulk == built and hash(bulk) == hash(built) and len({bulk, built}) == 1
        assert not bulk.signs.flags.writeable
        other_points = PointSet(["a", "b", "z"])
        assert bulk != FunctionClass(other_points, rows)
        assert bulk != FunctionClass(ABC, rows[::-1])
        assert bulk != FunctionClass(ABC, rows[:1])
        assert bulk != rows

    def test_dataset_duplicate_point_named(self):
        with pytest.raises(ValidationError, match="'b'"):
            Dataset(ABC, (1, 1))

    def test_dataset_from_points(self):
        d = Dataset.from_points(ABC, ["c", "a"])
        assert d.indices == (2, 0)
        assert d.points == ("c", "a")

    def test_dataset_from_points_calls_no_point_index_when_every_name_is_known(
            self, monkeypatch):
        # one scan of X resolves every name; PointSet.index, a tuple.index
        # per name, made a dataset of l names cost O(l * |X|)
        calls = Counter()
        count_calls(monkeypatch, calls, PointSet, "index")
        ps = PointSet(f"p{i}" for i in range(1000))
        names = (f"p{i}" for i in range(999, -1, -2))
        assert Dataset.from_points(ps, names).indices == tuple(range(999, -1, -2))
        assert calls == {}
        # a name that is not found is worded by PointSet.index, once
        with pytest.raises(ValidationError) as err:
            Dataset.from_points(ps, ["p1", "q", "p2", "r"])
        assert str(err.value).startswith("unknown point 'q', expected one of the 1000 points")
        assert calls == {"index": 1}

    @pytest.mark.parametrize("names, message", [
        (["b", "z", "a", "y"], "unknown point 'z', expected one of the 3 points "
                               "['a', 'b', 'c']"),
        (["a", "a", "z"], "unknown point 'z', expected one of the 3 points ['a', 'b', 'c']"),
        (["c", "a", "c"], "dataset points must be distinct, point 'c' repeats"),
        (["a", ["b"]], "unknown point ['b'], expected one of the 3 points ['a', 'b', 'c']"),
        (["a", {}], "unknown point {}, expected one of the 3 points ['a', 'b', 'c']"),
        ([1], "unknown point 1, expected one of the 3 points ['a', 'b', 'c']"),
        ([], "dataset must contain at least one point"),
    ], ids=["first unknown name", "unknown before repeat", "repeated name",
            "unhashable list", "unhashable dict", "int name", "no names"])
    def test_dataset_from_points_refusals(self, names, message):
        with pytest.raises(ValidationError) as err:
            Dataset.from_points(ABC, names)
        assert str(err.value) == message

    def test_learn_refuses_a_dataset_of_every_point_on_the_cap(self, tmp_path, capsys):
        # l = |X| = 100 000: resolving the names took about a minute when
        # each was a tuple.index over X
        doc = far_instance_doc(100_000)
        doc["dataset"] = doc["points"]
        path = tmp_path / "full.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        assert main(["learn", str(path)]) == 4
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: dataset length l = 100000 exceeds the enumeration "
                                "cap 20: a best-fit table of 2^100000 patterns\n")

    def test_dataset_index_out_of_range(self):
        with pytest.raises(ValidationError, match="out of range"):
            Dataset(AB, (0, 5))

    @pytest.mark.parametrize("index", [1.9, 1.0, "2", True, np.True_, None],
                             ids=repr)
    def test_dataset_index_must_be_an_integer(self, index):
        # int() took 1.9 as 1, "2" as 2 and True as 1
        with pytest.raises(ValidationError) as err:
            Dataset(ABC, (0, index))
        assert str(err.value) == f"dataset index {index!r} must be an integer"

    def test_dataset_takes_numpy_integers(self):
        d = Dataset(ABC, np.array([2, 0], dtype=np.uint32))
        assert d.indices == (2, 0)
        assert all(type(i) is int for i in d.indices)

    def test_an_analysis_is_its_exact_counts(self):
        a = learning.analyze_learner(full_class(ABC), Dataset(ABC, (0, 1)))
        assert [f.name for f in dataclasses.fields(a)] == [
            "n_points", "length", "pattern_counts", "restriction_count"]
        assert a == learning.LearnerAnalysis(3, 2, (4, 0, 0), 4)
        assert {type(v) for v in (a.n_points, a.length, a.restriction_count,
                                  *a.pattern_counts)} == {int}

    def test_analyses_of_different_restriction_counts_differ(self):
        # the same pattern counts with one restriction and with two: V is
        # 0 and 1 bit, so the analyses are not equal
        one, two = (learning.LearnerAnalysis(3, 2, (1, 2, 1), v) for v in (1, 2))
        assert (one.vc_entropy, two.vc_entropy) == (0.0, 1.0)
        assert one != two and len({one, two}) == 2


class TestEmpiricalRisk:
    def test_perfect_fit(self):
        target = labeling(ABC, (1, -1, 1))
        d = Dataset(ABC, (0, 1))
        assert empirical_risk(target, target, d) == 0

    def test_total_mismatch(self):
        f = labeling(ABC, (1, -1, 1))
        target = labeling(ABC, (-1, 1, -1))
        d = Dataset(ABC, (0, 1, 2))
        assert empirical_risk(f, target, d) == 1

    def test_one_disagreement_on_dataset(self):
        f = labeling(ABC, (1, 1, -1))
        target = labeling(ABC, (1, -1, 1))
        d = Dataset.from_points(ABC, ["a", "b"])
        assert empirical_risk(f, target, d) == Fraction(1, 2)

    def test_pointset_mismatch(self):
        with pytest.raises(ValidationError):
            empirical_risk(labeling(AB, (1, 1)), labeling(ABC, (1, 1, 1)),
                           Dataset(ABC, (0,)))


class TestErm:
    def test_target_in_class(self):
        fc = full_class(AB)
        target = labeling(AB, (1, -1))
        assert erm(fc, Dataset(AB, (0, 1)), target) == 0

    def test_constant_class_against_all_minus(self):
        fc = constant_plus_class(AB)
        target = labeling(AB, (-1, -1))
        assert erm(fc, Dataset(AB, (0, 1)), target) == 1

    def test_two_function_class(self):
        fc = FunctionClass(AB, [(1, 1), (-1, -1)])
        target = labeling(AB, (1, -1))
        risk = erm(fc, Dataset(AB, (0, 1)), target)
        assert type(risk) is Fraction and risk == Fraction(1, 2)


    @pytest.mark.parametrize("n_points", [3, 8, 70])
    def test_equals_the_least_empirical_risk_and_builds_no_labeling(self, monkeypatch,
                                                                    n_points):
        # the literal definition, one `empirical_risk` per function, against
        # one pass over the sign matrix
        rng = random.Random(n_points)
        ps = PointSet([f"p{i}" for i in range(n_points)])

        def draw():
            return tuple(rng.choice((-1, 1)) for _ in range(n_points))

        rows = sorted({draw() for _ in range(12)})
        # the class's own `functions` are never read, so erm cannot reuse them
        fc = FunctionClass(ps, rows)
        functions = [Labeling(ps, row) for row in rows]
        cases = []
        for _ in range(20):
            d = Dataset(ps, rng.sample(range(n_points), rng.randint(1, n_points)))
            target = rng.choice(functions) if rng.random() < 0.2 else Labeling(ps, draw())
            expected = min(empirical_risk(f, target, d) for f in functions)
            cases.append((d, target, expected))
        assert any(expected == 0 for *_, expected in cases)
        monkeypatch.setattr(Labeling, "__init__", None)  # any new Labeling fails
        for d, target, expected in cases:
            risk = erm(fc, d, target)
            assert type(risk) is Fraction and risk == expected


class TestRiskDistribution:
    def test_full_class_fits_everything(self):
        a = analyze_learner(full_class(ABC), Dataset(ABC, (0, 1)))
        assert labeling_counts(a) == {0: 8}
        assert a.falsification_table == ((Fraction(0), Fraction(1)),)

    def test_constant_class_two_points(self):
        a = analyze_learner(constant_plus_class(AB), Dataset(AB, (0, 1)))
        assert dict(a.falsification_table) == {Fraction(0): Fraction(1, 4),
                                               Fraction(1, 2): Fraction(1, 2),
                                               Fraction(1): Fraction(1, 4)}

    def test_matches_literal_enumeration(self):
        rng = random.Random(11)
        for _ in range(50):
            fc, d = random_learning_instance(rng, min_points=1, max_points=8)
            assert labeling_counts(analyze_learner(fc, d)) == oracle_risk_counts(fc, d)

    def test_counts_partition_hypothesis_space(self):
        rng = random.Random(12)
        for _ in range(30):
            fc, d = random_learning_instance(rng, min_points=1, max_points=10)
            a = analyze_learner(fc, d)
            assert sum(labeling_counts(a).values()) == 2 ** fc.pointset.size
            assert sum(frac for _, frac in a.falsification_table) == 1

    def test_cap_exceeded(self):
        ps = PointSet([f"p{i}" for i in range(24)])
        fc = FunctionClass(ps, [(1,) * 24])
        # The cap bounds l, not |X|: |X| = 24 with l = 1 sweeps 2 patterns.
        assert labeling_counts(analyze_learner(fc, Dataset(ps, (0,))))[0] == 2 ** 23
        d = Dataset(ps, tuple(range(21)))
        with pytest.raises(EnumerationCapError, match=r"l = 21 exceeds the enumeration cap 20"):
            analyze_learner(fc, d)
        # an explicit higher cap unlocks it: 2^21 patterns, one of them fitted
        assert labeling_counts(learning.analyze_learner(fc, d, cap=21))[0] == 2 ** 3
        # but none past 32 positions, the width of the uint32 masks
        ps = PointSet([f"p{i}" for i in range(33)])
        fc = FunctionClass(ps, [(1,) * 33])
        with pytest.raises(EnumerationCapError, match=r"l = 33 exceeds the enumeration cap 32"):
            learning.analyze_learner(fc, Dataset(ps, tuple(range(33))), cap=40)

    def test_default_cap_runs_the_reference(self):
        # l = 20, the default cap, from the antipodal pair: the widest layers
        l = 20
        ps = PointSet([f"p{i}" for i in range(l)])
        fc = FunctionClass(ps, [(1,) * l, (-1,) * l])
        d = Dataset(ps, range(l))
        assert check_proposition2(learning.analyze_learner(fc, d), reference_analysis(fc, d)) == []
        masks = learning._restriction_masks(fc, d)
        tracemalloc.start()
        try:
            counts = cube._reference_distance_counts(masks, [l])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a pattern with w plus signs is min(w, l - w) flips from the pair
        distances = Counter()
        for w in range(l + 1):
            distances[min(w, l - w)] += math.comb(l, w)
        assert counts.tolist() == [[distances[k] for k in range(l + 2)]]
        # working memory, in uint64 words of 64 patterns: the frontier, the
        # unseen set and the layer, seven rows of flips, and a layer's
        # popcounts as 8-byte counts, plus their byte popcounts and 64 KiB of
        # slack. The 2^l bool marks packed into the first frontier, 64 bytes
        # a word, are freed before the rest is made. About 1.4 bytes per
        # pattern, where a search over 8-byte pattern indices took 7 to 10.
        words = (1 << l) // 64
        assert peak <= (3 + 7 + 1) * 8 * words + words + (1 << 16)

    def test_table_path_memory_at_the_default_cap(self):
        # l = 20: the table, its transposed low-bit copy or one pass's
        # temporary, and one block's 8-byte bincount keys, with 64 KiB of
        # slack; about 2 bytes per pattern, where one 8-byte key per pattern
        # took 9
        l = 20
        masks = np.array(sorted(random.Random(20).sample(range(1 << l), 4096)),
                         dtype=np.uint32)
        tracemalloc.start()
        try:
            counts = cube._best_fit_counts(masks, [l])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (1, l + 2)
        assert counts.sum() == 1 << l and counts[0, 0] == masks.size
        assert peak <= 2 * (1 << l) + 8 * cube._COUNT_BLOCK + (1 << 16)

    def test_many_points_short_dataset(self):
        rng = random.Random(40)
        ps = PointSet([f"p{i}" for i in range(40)])
        fc = FunctionClass(ps, [[rng.choice((1, -1)) for _ in range(40)] for _ in range(6)])
        d = Dataset(ps, (3, 17, 39))
        assert labeling_counts(analyze_learner(fc, d))[0] == restriction_count(fc, d) << 37
        assert checked_analysis(fc, d)[1] == {}


class TestVcEntropy:
    def test_single_function(self):
        assert vc_entropy(constant_plus_class(ABC), Dataset(ABC, (0, 1))) == 0.0

    def test_full_shattering(self):
        for l in (1, 2, 3):
            assert vc_entropy(full_class(ABC), Dataset(ABC, tuple(range(l)))) == float(l)

    def test_duplicate_restrictions_collapse(self):
        fc = FunctionClass(ABC, [(1, 1, 1), (1, 1, -1)])
        assert vc_entropy(fc, Dataset.from_points(ABC, ["a", "b"])) == 0.0

    def test_restriction_count_bounds(self):
        rng = random.Random(13)
        for _ in range(30):
            fc, d = random_learning_instance(rng, min_points=1, max_points=10)
            q = restriction_count(fc, d)
            assert 1 <= q <= min(fc.size, 2 ** d.length)
            assert q == oracle_vc_entropy_count(fc, d)

    def test_restrictions_past_sixty_four_points(self):
        # two functions that differ only at dataset position 65
        ps = PointSet([f"p{i}" for i in range(72)])
        d = Dataset(ps, range(70))
        rows = [[1] * 72, [1] * 72]
        rows[1][65] = -1
        fc = FunctionClass(ps, rows)
        assert restriction_count(fc, d) == 2
        assert vc_entropy(fc, d) == 1.0
        assert restriction_count(fc, d) == oracle_vc_entropy_count(fc, d)
        # counting reads the restricted rows; masks exist only up to l = 32
        with pytest.raises(EnumerationCapError, match=r"l = 70 exceeds the enumeration cap 32"):
            learning._restriction_masks(fc, d, cap=70)

    @pytest.mark.parametrize("length", [1, 31, 32, 62, 63, 64, 65, 70])
    def test_masks_equal_python_integers_at_every_length(self, length):
        rng = random.Random(length)
        ps = PointSet([f"p{i}" for i in range(length + 2)])
        d = Dataset(ps, rng.sample(range(length + 2), length))
        rows = {tuple(rng.choice((-1, 1)) for _ in range(length + 2)) for _ in range(40)}
        fc = FunctionClass(ps, list(rows))
        assert restriction_count(fc, d) == oracle_vc_entropy_count(fc, d)
        if length > 32:
            return
        # at l = 32 about half the masks set bit 31, the top bit of uint32
        masks = learning._restriction_masks(fc, d, cap=32)
        assert masks.dtype == np.uint32 and not masks.flags.writeable
        assert masks.tolist() == sorted({
            sum(1 << k for k, i in enumerate(d.indices) if f.signs[i] == 1)
            for f in fc.functions})

    @pytest.mark.parametrize("length", [4, 70])
    def test_counting_builds_no_labeling_and_no_mask(self, monkeypatch, length):
        # V is counted on the sign matrix's row keys at any l, masks or not
        rng = random.Random(15)
        ps = PointSet([f"p{i}" for i in range(length + 2)])
        d = Dataset(ps, rng.sample(range(length + 2), length))
        rows = {tuple(rng.choice((-1, 1)) for _ in range(length + 2)) for _ in range(40)}
        expected = len({tuple(row[i] for i in d.indices) for row in rows})
        fc = FunctionClass(ps, sorted(rows))
        monkeypatch.setattr(Labeling, "__init__", None)  # any new Labeling fails
        monkeypatch.setattr(learning, "_restriction_masks", None)
        assert restriction_count(fc, d) == expected
        assert vc_entropy(fc, d) == math.log2(expected)

    @pytest.mark.parametrize("n_points,point", [(65, 64), (70, 69), (64, 63)])
    def test_functions_differing_at_one_far_point_are_two(self, n_points, point):
        # distinct at a uint64 key's top bit, and as packed rows past it
        ps = PointSet([f"p{i}" for i in range(n_points)])
        rows = [[1] * n_points, [1] * n_points]
        rows[1][point] = -1
        fc = FunctionClass(ps, rows)
        assert fc.size == 2 and fc.signs.tolist() == rows
        assert vc_entropy(fc, Dataset(ps, range(n_points))) == 1.0
        assert vc_entropy(fc, Dataset(ps, [point])) == 1.0
        assert vc_entropy(fc, Dataset(ps, range(point))) == 0.0

    @pytest.mark.parametrize("n_points", [64, 70])
    def test_identical_rows_at_and_past_sixty_four_points_are_refused(self, n_points):
        # a row's key is one uint64 up to 64 points, its packed bytes past that
        ps = PointSet([f"p{i}" for i in range(n_points)])
        rows = [[(-1) ** i for i in range(n_points)], [1] * n_points]
        for form in (list, int8_matrix):
            with pytest.raises(ValidationError) as err:
                FunctionClass(ps, form(rows + [rows[0]]))
            assert str(err.value) == f"duplicate function {tuple(rows[0])} in class"


class TestEiOfLearner:
    def test_shattering_gives_zero(self):
        assert analyze_learner(full_class(ABC), Dataset(ABC, (0, 1, 2))).ei == 0.0

    def test_constant_class_two_of_five_points(self):
        # |L^-1(0)| = 2^(|X|-2), so ei = 2 bits regardless of |X|
        ps = PointSet([f"p{i}" for i in range(5)])
        assert analyze_learner(constant_plus_class(ps), Dataset(ps, (1, 3))).ei == 2.0

    def test_equals_length_minus_vc_entropy(self):
        rng = random.Random(14)
        for _ in range(100):
            fc, d = random_learning_instance(rng, min_points=1, max_points=10)
            a = analyze_learner(fc, d)
            assert a.ei == pytest.approx(d.length - vc_entropy(fc, d), abs=1e-12)
            # the exact integer form of the same identity
            assert (labeling_counts(a)[0]
                    == restriction_count(fc, d) << (fc.pointset.size - d.length))

    def test_equals_explicit_kl_over_hypothesis_space(self):
        rng = random.Random(19)
        for _ in range(20):
            fc, d = random_learning_instance(rng, min_points=3, max_points=10)
            n = fc.pointset.size
            patterns = {tuple(f.signs[i] for i in d.indices) for f in fc.functions}
            fitted = [
                c for c in range(1 << n)
                if tuple(1 if (c >> i) & 1 else -1 for i in d.indices) in patterns
            ]
            hyp = Alphabet([f"h{c}" for c in range(1 << n)])
            prior = Distribution.uniform(hyp)
            posterior = Distribution(
                hyp, [1.0 / len(fitted) if c in set(fitted) else 0.0
                      for c in range(1 << n)])
            assert analyze_learner(fc, d).ei == pytest.approx(
                kl_divergence(posterior, prior), abs=1e-9)

    def test_accurate_at_any_distance_past_the_dataset(self):
        # each of c zero-risk patterns stands for 2^shift labelings, and
        # ei(L,0) = |X| - log2(c * 2^shift) = l - log2(c): within l * 2^-52
        # of its 60-digit value at any shift, and the same float at every shift
        rng = random.Random(20)
        cases = [(c, 12) for c in range(1, (1 << 12) + 1)]
        cases += [(rng.randint(1, 1 << 32), 32) for _ in range(200)]
        ulp = decimal.Decimal(2) ** -52
        with decimal.localcontext(decimal.Context(prec=60)):
            ln2 = decimal.Decimal(2).ln()
            for c, l in cases:
                log2c = decimal.Decimal(c).ln() / ln2
                eis = set()
                for shift in (0, 1, 64, 1100, 10**6):
                    a = learning.LearnerAnalysis(l + shift, l, (c,), c)
                    assert abs(decimal.Decimal(a.ei) - (l - log2c)) <= l * ulp
                    assert a.vc_entropy == math.log2(c)
                    fitted = a.fitted_bits
                    assert abs(decimal.Decimal(fitted) - (shift + log2c)) <= (shift + l) * ulp
                    eis.add(a.ei)
                assert len(eis) == 1


class TestLearnerAsSystem:
    """The learner as a `DeterministicMap` from the 2^|X| labelings to risks
    k/l, run through the channel code. Each labeling's risk is its literal
    minimum mismatch count over F on D, so no `cube` kernel is involved."""

    def test_channel_code_reads_the_pattern_counts(self):
        rng = random.Random(26)
        for _ in range(20):
            fc, d = random_learning_instance(rng, min_points=1, max_points=10)
            n, l = fc.pointset.size, d.length
            labelings = np.array(list(itertools.product((1, -1), repeat=n)))
            signs = np.array(fc.signs)
            risks = (labelings[:, None, d.indices] != signs[None, :, d.indices]).sum(
                axis=2).min(axis=1)
            outputs = Alphabet([str(Fraction(k, l)) for k in range(l + 1)])
            learner = DeterministicMap(Alphabet([f"h{c}" for c in range(1 << n)]), outputs,
                                       [outputs.labels[k] for k in risks])
            channel = channel_of_map(learner)
            prior = Distribution.uniform(channel.input)
            a = analyze_learner(fc, d)
            realized = set(risks.tolist())
            assert realized == {k for k, c in enumerate(a.pattern_counts) if c}
            table = dict(a.falsification_table)
            for k in realized:
                y = outputs.labels[k]
                expected = l - math.log2(a.pattern_counts[k])
                assert ei_deterministic(learner, y) == pytest.approx(expected, abs=1e-9)
                kl = kl_divergence(actual_repertoire(channel, prior, y), prior)
                assert kl == pytest.approx(expected, abs=1e-9)
                assert effective_probability(learner, y) == table[Fraction(k, l)]
            entropy = shannon_entropy(Distribution(
                outputs, [float(table.get(Fraction(k, l), 0)) for k in range(l + 1)]))
            assert expected_effective_information(channel, prior) == pytest.approx(
                entropy, abs=1e-9)
            assert mutual_information(channel, prior) == pytest.approx(entropy, abs=1e-9)


class TestRademacher:
    def test_shattering_gives_one(self):
        assert analyze_learner(full_class(ABC), Dataset(ABC, (0, 1))).rademacher == 1

    def test_constant_class_two_points(self):
        # correlations over the 4 sign patterns are {2, 0, 0, -2}/2
        assert analyze_learner(constant_plus_class(AB), Dataset(AB, (0, 1))).rademacher == 0

    def test_matches_literal_enumeration(self):
        rng = random.Random(15)
        for _ in range(50):
            fc, d = random_learning_instance(rng, min_points=1, max_points=8)
            oracle = oracle_rademacher(fc, d)
            assert analyze_learner(fc, d).rademacher == oracle
            # R from the reference's distances, and the distances themselves
            # against the literal risk counts of all 2^|X| labelings
            l, shift = d.length, fc.pointset.size - d.length
            (counts,) = cube._reference_distance_counts(oracle_masks(fc, d), [l]).tolist()
            distance_sum = sum(k * c for k, c in enumerate(counts))
            assert Fraction((l << l) - 2 * distance_sum, l << l) == oracle
            literal = oracle_risk_counts(fc, d)
            assert counts == [literal.get(k, 0) >> shift for k in range(l + 2)]

    @pytest.mark.parametrize("kind", ("one mask", "random class", "full class",
                                      "antipodal pair"))
    @pytest.mark.parametrize("length", range(1, 15))
    def test_reference_equals_literal_min_popcount(self, length, kind):
        # The full class leaves the search no layer to run, one mask gives
        # it the most (l), and an antipodal pair the widest.
        rng = random.Random(100 + length)
        n = 1 << length
        masks = np.array({"one mask": [rng.randrange(n)],
                          "random class": sorted(rng.sample(range(n), rng.randint(2, min(64, n)))),
                          "full class": range(n),
                          "antipodal pair": [0, n - 1]}[kind], dtype=np.uint32)
        oracle = np.bincount(oracle_table(masks, length), minlength=length + 2)
        np.testing.assert_array_equal(cube._reference_distance_counts(masks, [length]),
                                      [oracle])

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 12).flatmap(lambda length: st.tuples(
        st.just(length), st.sets(st.integers(0, (1 << length) - 1), min_size=1,
                                 max_size=min(1 << length, 64)))))
    def test_reference_histogram_equals_the_literal_table(self, drawn):
        length, codes = drawn
        masks = np.array(sorted(codes), dtype=np.uint32)
        counts = cube._reference_distance_counts(masks, [length])
        oracle = np.bincount(oracle_table(masks, length), minlength=length + 2)
        assert counts.dtype == np.intp
        assert counts.tolist() == [oracle.tolist()]

    @pytest.mark.parametrize("length", (16, 18))
    def test_proposition_two_past_the_verify_range(self, length):
        rng = random.Random(length)
        ps = PointSet([f"p{i}" for i in range(length)])
        fc = FunctionClass(ps, [_signs(c, length) for c in rng.sample(range(1 << length), 512)])
        d = Dataset(ps, range(length))
        assert check_proposition2(learning.analyze_learner(fc, d), reference_analysis(fc, d)) == []

    def test_range(self):
        rng = random.Random(16)
        for _ in range(30):
            fc, d = random_learning_instance(rng, min_points=1, max_points=8)
            assert -1 <= analyze_learner(fc, d).rademacher <= 1


# ---------------------------------------------------------------------------
# closed-form histograms at large l: classes whose best-fit histogram is known
# at any l, from binomial coefficients and integer convolution alone
# ---------------------------------------------------------------------------

def binomial_histogram(m):
    """A single function on m positions: C(m, k) patterns at distance k."""
    return [math.comb(m, k) for k in range(m + 1)]


def folded_histogram(m):
    """{f, -f}: a pattern j flips from f is min(j, m - j) flips from the pair."""
    counts = [0] * (m + 1)
    for j in range(m + 1):
        counts[min(j, m - j)] += math.comb(m, j)
    return counts


def ball_histogram(m, r):
    """Every row within r flips of f: j > r flips from f is j - r from the ball."""
    return ([sum(math.comb(m, j) for j in range(r + 1))]
            + [math.comb(m, r + k) for k in range(1, m - r + 1)] + [0] * r)


def free_histogram(m):
    """All 2^m rows: every pattern is fitted."""
    return [1 << m] + [0] * m


def convolve(a, b):
    """The histogram of a sum of independent distances, by integer convolution."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def block_rows(kind, m, rng):
    """A block's restrictions, as sign tuples on its m positions, and their histogram."""
    f = tuple(rng.choice((1, -1)) for _ in range(m))
    if kind == "one":
        return [f], binomial_histogram(m)
    if kind == "pair":
        return [f, tuple(-s for s in f)], folded_histogram(m)
    if kind == "free":
        return list(itertools.product((1, -1), repeat=m)), free_histogram(m)
    r = int(kind.removeprefix("ball "))
    rows = [tuple(-s if k in flipped else s for k, s in enumerate(f))
            for j in range(r + 1) for flipped in itertools.combinations(range(m), j)]
    return rows, ball_histogram(m, r)


def product_instance(blocks, n_points, seed):
    """A class on n_points whose restrictions to a dataset of sum(m) spread
    points are the product of the blocks' restrictions, the blocks on
    shuffled positions of the dataset, and the product's histogram."""
    rng = random.Random(seed)
    length = sum(m for _, m in blocks)
    indices = rng.sample(range(n_points), length)
    positions = list(range(length))
    rng.shuffle(positions)
    parts, histogram, at = [], [1], 0
    for kind, m in blocks:
        rows, h = block_rows(kind, m, rng)
        parts.append([dict(zip(positions[at:at + m], row)) for row in rows])
        histogram = convolve(histogram, h)
        at += m
    # every function shares its signs off the dataset; they differ on it
    base = [rng.choice((1, -1)) for _ in range(n_points)]
    signs = []
    for choice in itertools.product(*parts):
        row = list(base)
        for part in choice:
            for k, s in part.items():
                row[indices[k]] = s
        signs.append(row)
    ps = PointSet(f"p{i}" for i in range(n_points))
    return FunctionClass(ps, signs), Dataset(ps, indices), histogram


class TestClosedForms:
    """The kernels and both identities against closed forms at l = 20-22,
    with |X| = 10 000 so that ei(L,0) and V are read far from 0."""

    @pytest.mark.parametrize("blocks, rademacher", [
        ([("one", 22)], Fraction(0)),
        # E|sigma_1 + ... + sigma_l| / l, the mean absolute value of a walk
        ([("pair", 21)], Fraction(math.comb(20, 10), 1 << 20)),
        ([("ball 2", 20)], None),
        ([("one", 18), ("free", 4)], None),
        ([("ball 1", 8), ("pair", 7), ("free", 3), ("one", 4)], None),
    ], ids=["single function", "function and negation", "Hamming ball",
            "subcube", "product"])
    def test_histogram_and_identities(self, blocks, rademacher):
        fc, d, histogram = product_instance(blocks, 10_000, seed=len(blocks))
        l = d.length
        # each function restricts to its own row, fitted at distance 0
        assert sum(histogram) == 1 << l and histogram[0] == fc.size
        a = learning.analyze_learner(fc, d, cap=l)
        assert a.pattern_counts == tuple(histogram)
        reference = reference_analysis(fc, d, cap=l)
        assert reference.pattern_counts == tuple(histogram)
        assert check_proposition1(a) == []
        assert check_proposition2(a, reference) == []
        assert a.restriction_count == fc.size
        assert abs(a.ei - (l - math.log2(fc.size))) <= 1e-12
        mismatch_sum = sum(k * c for k, c in enumerate(histogram))
        assert a.expected_risk == Fraction(mismatch_sum, l << l)
        assert labeling_counts(a)[0] == fc.size << (10_000 - l)
        if rademacher is not None:
            assert a.rademacher == rademacher


class TestExpectedRisk:
    def test_full_class(self):
        assert analyze_learner(full_class(ABC), Dataset(ABC, (0, 1))).expected_risk == 0

    def test_constant_class(self):
        a = analyze_learner(constant_plus_class(AB), Dataset(AB, (0, 1)))
        assert a.expected_risk == Fraction(1, 2)

    def test_proposition_two(self):
        # Against the literal oracle: the public rademacher reads the same
        # table as expected_risk, so comparing with it would check nothing.
        rng = random.Random(17)
        for _ in range(100):
            fc, d = random_learning_instance(rng, min_points=1, max_points=10)
            assert analyze_learner(fc, d).expected_risk == (1 - oracle_rademacher(fc, d)) / 2


class TestFalsificationReport:
    def test_full_class(self):
        a = analyze_learner(full_class(ABC), Dataset(ABC, (0, 1)))
        assert a.ei == 0.0
        assert a.falsification_table == ((Fraction(0), Fraction(1)),)

    def test_constant_class(self):
        a = analyze_learner(constant_plus_class(AB), Dataset(AB, (0, 1)))
        assert a.n_points == 2
        assert a.fitted_bits == 0.0
        assert a.ei == 2.0
        assert a.falsification_table == ((Fraction(0), Fraction(1, 4)),
                                         (Fraction(1, 2), Fraction(1, 2)),
                                         (Fraction(1), Fraction(1, 4)))

    def test_coherence_with_ei_and_expected_risk(self):
        rng = random.Random(18)
        for _ in range(50):
            fc, d = random_learning_instance(rng, min_points=1, max_points=10)
            a = analyze_learner(fc, d)
            # fitted and falsified bits split the |X| bits of hypothesis
            # space, each within a rounding of its size * 2^-52
            assert abs(a.fitted_bits + a.ei - a.n_points) <= (a.n_points + a.length) * 2**-52
            weighted = sum((eps * frac for eps, frac in a.falsification_table), Fraction(0))
            assert weighted == a.expected_risk


def _signs(code, n):
    return tuple(1 if (code >> i) & 1 else -1 for i in range(n))


def _table_rows(table, lengths):
    """Each row of a table in `cube`'s row layout, as a view."""
    return np.split(table, cube._row_starts(lengths)[1:-1])


def stack_rows(rows, lengths):
    """Sorted masks of rows of non-increasing lengths in `cube`'s row
    layout: row r's masks plus 2^l of each row before it."""
    start, flat = 0, []
    for masks, length in zip(rows, lengths):
        flat += [start + int(m) for m in masks]
        start += 1 << length
    return np.array(flat, dtype=np.intp)


# Corrupted table kernels, installed as `cube._min_mismatches_per_pattern`,
# where `cube._best_fit_counts` reads it; each calls the kernel it replaces,
# `best_fit_table`. Each corrupts every row of a call the same way, so a
# window of rows is corrupted as one instance at a time would be.
best_fit_table = cube._min_mismatches_per_pattern

def regroup(masks, lengths):
    # in every row, a pattern from risk 1 and one from risk 3 both to risk 2:
    # the zero-risk count and the mismatch sum, all that Props 1 and 2 read,
    # are kept
    table = best_fit_table(masks, lengths)
    for row in _table_rows(table, lengths):
        if (row == 1).any() and (row == 3).any():
            row[np.flatnonzero(row == 1)[0]] = 2
            row[np.flatnonzero(row == 3)[0]] = 2
    return table


def skew_pattern_zero(masks, lengths):
    # in every row, one extra mismatch on pattern 0 when it is not a mask
    # (and not already at the row's largest count): the class and its
    # negation, whose masks are the complements, are corrupted differently
    table = best_fit_table(masks, lengths)
    for row, length in zip(_table_rows(table, lengths), lengths):
        if 0 < row[0] < length:
            row[0] += 1
    return table


def every_mask_at_risk_one(masks, lengths):
    # no pattern is fitted with zero mismatches, which leaves ei(L,0) undefined
    table = best_fit_table(masks, lengths)
    table[masks] = 1
    return table


def largest_mask_at_risk_one(masks, lengths):
    # one row: its largest restriction no longer fits at zero mismatches
    table = best_fit_table(masks, lengths)
    table[masks.max()] = 1
    return table


def count_calls(monkeypatch, calls, module, name):
    """Wrap `module.name` so that each call adds one to `calls[name]`."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestBestFitTable:
    @pytest.mark.parametrize("kind", ("one mask", "random class", "full class"))
    @pytest.mark.parametrize("length", range(1, 13))
    def test_equals_literal_min_popcount(self, monkeypatch, length, kind):
        # |X| = l + 2, so every table also covers a dataset shorter than X
        rng = random.Random(length)
        n = length + 2
        ps = PointSet([f"p{i}" for i in range(n)])
        d = Dataset(ps, rng.sample(range(n), length))
        codes = {"one mask": [rng.randrange(1 << n)],
                 "random class": rng.sample(range(1 << n), rng.randint(2, min(64, 1 << n))),
                 "full class": range(1 << n)}[kind]
        fc = FunctionClass(ps, [_signs(c, n) for c in codes])
        tables = []

        def capture(masks, lengths):
            tables.append(best_fit_table(masks, lengths))
            return tables[-1]

        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", capture)
        analysis = learning.analyze_learner(fc, d)
        masks = oracle_masks(fc, d)
        built = learning._restriction_masks(fc, d)
        np.testing.assert_array_equal(built, masks)
        assert not built.flags.writeable
        assert analysis.restriction_count == masks.size
        assert len(tables) == 1
        oracle = oracle_table(masks, length)
        np.testing.assert_array_equal(tables[0], oracle)
        assert analysis.pattern_counts == tuple(np.bincount(oracle, minlength=length + 1))

    def test_corrupted_table_fails_proposition_two(self, monkeypatch, capsys):
        def off_by_one(masks, lengths):
            # in every row, its largest mask's pattern off by one; another
            # mask keeps ei defined
            table = best_fit_table(masks, lengths)
            starts = cube._row_starts(lengths)
            table[[masks[(start <= masks) & (masks < end)].max()
                   for start, end in zip(starts[:-1], starts[1:])]] += 1
            return table

        rng = random.Random(21)
        checked = 0
        while checked < 20:
            fc, d = random_learning_instance(rng, min_points=1, max_points=8)
            if restriction_count(fc, d) < 2:
                continue
            a, reference = learning.analyze_learner(fc, d), reference_analysis(fc, d)
            assert check_proposition2(a, reference) == []
            assert check_falsification(a, reference) == []
            with monkeypatch.context() as patch:
                patch.setattr(cube, "_min_mismatches_per_pattern", off_by_one)
                corrupted = learning.analyze_learner(fc, d)
                # the mismatch sum grew by one; the reference's is the clean one
                assert check_proposition2(corrupted, reference) == [
                    f"E[eps] = {corrupted.expected_risk} but (1 - R)/2 = "
                    f"{a.expected_risk} (R = {a.rademacher})"]
                # the report is checked against the reference search, not
                # the table: a mask's pattern moved from risk 0 to risk 1/l,
                # which Prop 1 words, not the report check a second time
                l, zero, one = d.length, a.pattern_counts[0], a.pattern_counts[1]
                assert check_falsification(corrupted, reference) == [
                    f"fraction at risk 0 is {Fraction(zero - 1, 1 << l)}, "
                    f"the reference search finds {Fraction(zero, 1 << l)}",
                    f"fraction at risk {Fraction(1, l)} is {Fraction(one + 1, 1 << l)}, "
                    f"the reference search finds {Fraction(one, 1 << l)}"]
            checked += 1
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", off_by_one)
        code = main(["--format", "machine", "learn", str(DATA / "instance_shatter.json")])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["prop2_pass"] is False

    def test_corrupted_reference_fails_proposition_two(self, monkeypatch, capsys):
        reference = cube._reference_distance_counts

        def one_pattern_a_layer_further(masks, lengths):
            # in every row, from the farthest layer that has a next one: the
            # distance sum grows by one, R falls by 2 / (l * 2^l)
            moved = reference(masks, lengths).copy()
            for counts, length in zip(moved, lengths):
                k = max(k for k in range(length) if counts[k])
                counts[k] -= 1
                counts[k + 1] += 1
            return moved

        monkeypatch.setattr(cube, "_reference_distance_counts", one_pattern_a_layer_further)
        rng = random.Random(23)
        for _ in range(20):
            fc, d = random_learning_instance(rng, min_points=1, max_points=8)
            a, distances = learning.analyze_learner(fc, d), reference_analysis(fc, d)
            step = Fraction(1, d.length << d.length)
            assert check_proposition2(a, distances) == [
                f"E[eps] = {a.expected_risk} but (1 - R)/2 = {a.expected_risk + step} "
                f"(R = {a.rademacher - 2 * step})"]
            assert check_falsification(a, distances) != []
            assert checked_analysis(fc, d)[1] != {}
        code = main(["--format", "machine", "learn", str(DATA / "instance_shatter.json")])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["prop2_pass"] is False

    def test_table_wrong_only_at_nonzero_risks_fails_the_report_check(
            self, monkeypatch, capsys):
        rng = random.Random(25)
        checked = 0
        while checked < 10:
            fc, d = random_learning_instance(rng, min_points=4, max_points=8)
            a = learning.analyze_learner(fc, d)
            l = d.length
            if l < 3 or not (a.pattern_counts[1] and a.pattern_counts[3]):
                continue
            one, two, three = a.pattern_counts[1:4]
            with monkeypatch.context() as patch:
                patch.setattr(cube, "_min_mismatches_per_pattern", regroup)
                corrupted = learning.analyze_learner(fc, d)
                reference = reference_analysis(fc, d)
                assert check_proposition1(corrupted) == []
                assert check_proposition2(corrupted, reference) == []
                assert check_falsification(corrupted, reference) == [
                    f"fraction at risk {Fraction(k, l)} is {Fraction(c + delta, 1 << l)}, "
                    f"the reference search finds {Fraction(c, 1 << l)}"
                    for k, c, delta in ((1, one, -1), (2, two, 2), (3, three, -1))]
                assert checked_analysis(fc, d)[1] != {}
            checked += 1
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", regroup)
        code = main(["--format", "machine", "verify", "--seed", "1", "--count", "40",
                     "--max-points", "8"])
        assert code == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert failures and all(m.startswith("fraction at risk ")
                                for f in failures for m in f["messages"])

    def test_verify_table_words_each_failure(self, monkeypatch, capsys):
        # the table format lists the machine format's failures, one block an
        # instance, before the summary
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", regroup)
        argv = ["verify", "--seed", "1", "--count", "40", "--max-points", "8"]
        assert main(["--format", "machine", *argv]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["failures"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "".join(
            f"instance {f['instance']} FAIL:\n" + "".join(f"  - {m}\n" for m in f["messages"])
            for f in report["failures"]) + f"{report['passed']}/40 instances PASS\n"

    def test_table_asymmetric_under_negation_fails_the_negation_check(
            self, monkeypatch, capsys):
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", skew_pattern_zero)
        # masks {00, 01}: pattern 0 is a mask, so the class's own table, all
        # that its checks and report read, is intact; only the negated
        # class's table, of masks {10, 11}, is skewed, its pattern 0 from risk
        # 1/2 to 1, and only the kernel-symmetry property sees it
        fc = FunctionClass(AB, [(-1, -1), (1, -1)])
        d = Dataset(AB, (0, 1))
        assert checked_analysis(fc, d)[1] == {}
        assert negation_changes(learning._restriction_masks(fc, d), [d.length]) == {0}
        code = main(["--format", "machine", "verify", "--seed", "1", "--count", "10",
                     "--max-points", "6"])
        assert code == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        # instance 3 (l = 3) is skewed under negation alone, and passes
        assert [f["instance"] for f in failures] == [1, 2, 4]
        rng = random.Random(1)
        fc, d = [random_learning_instance(rng, 3, 6) for _ in range(4)][3]
        assert d.length == 3 and checked_analysis(fc, d)[1] == {}
        assert negation_changes(learning._restriction_masks(fc, d), [d.length]) == {0}

    @staticmethod
    def learn_both_formats(capsys, path):
        """`learn` on path in both formats: (stdout, stderr) of each, having
        asserted exit 1."""
        outputs = []
        for fmt in ("table", "machine"):
            assert main(["--format", fmt, "learn", str(path)]) == 1
            captured = capsys.readouterr()
            outputs.append((captured.out, captured.err))
        return outputs

    def test_learn_passes_a_table_asymmetric_only_under_negation(self, monkeypatch,
                                                                tmp_path, capsys):
        # the class of masks {00, 01}, whose own table is intact: learn
        # reports what it reports with the true table, and passes
        fc = FunctionClass(AB, [(-1, -1), (1, -1)])
        path = tmp_path / "negation.json"
        path.write_text(json.dumps(learning_instance_doc(fc, Dataset(AB, (0, 1)))))
        for fmt in ("table", "machine"):
            argv = ["--format", fmt, "learn", str(path)]
            assert main(argv) == 0
            clean = capsys.readouterr()
            with monkeypatch.context() as patch:
                patch.setattr(cube, "_min_mismatches_per_pattern", skew_pattern_zero)
                assert main(argv) == 0
            assert capsys.readouterr() == clean
            assert clean.err == ""

    def test_learn_fails_on_the_falsification_table_alone(self, monkeypatch, tmp_path,
                                                          capsys):
        # one function on three points: regroup moves a pattern from risk
        # 1/3 and one from risk 1 to 2/3, keeping all that Props 1 and 2 read
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", regroup)
        fc = FunctionClass(ABC, [(1, 1, 1)])
        path = tmp_path / "falsification.json"
        path.write_text(json.dumps(learning_instance_doc(fc, Dataset(ABC, (0, 1, 2)))))
        (table, table_err), (machine, machine_err) = self.learn_both_formats(capsys, path)
        assert table.endswith("Prop1 (ei = l - V): PASS\n"
                              "Prop2 (E[eps] = (1 - R)/2): PASS\n")
        report = json.loads(machine)
        assert report["prop1_pass"] is True and report["prop2_pass"] is True
        assert table_err == machine_err == (
            "falsification table (against the reference search): FAIL\n"
            "  - fraction at risk 1/3 is 1/4, the reference search finds 3/8\n"
            "  - fraction at risk 2/3 is 5/8, the reference search finds 3/8\n"
            "  - fraction at risk 1 is 0, the reference search finds 1/8\n")

    def test_learn_fails_on_the_restriction_bounds_alone(self, monkeypatch, tmp_path,
                                                        capsys):
        # a mask builder that adds the complement of the one function's
        # mask: the table and the reference both read the same two masks and
        # agree, so only |q_D(F)| <= |F| fails
        build = learning._restriction_masks

        def with_complements(fc, d, cap):
            masks = build(fc, d, cap)
            masks = np.union1d(masks, masks ^ np.uint32((1 << d.length) - 1))
            masks.setflags(write=False)
            return masks

        monkeypatch.setattr(learning, "_restriction_masks", with_complements)
        fc, d = FunctionClass(AB, [(1, 1)]), Dataset(AB, (0, 1))
        message = "restriction count 2 outside 1..min(|F|, 2^l)"
        assert checked_analysis(fc, d)[1] == {"bounds": [message]}
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps(learning_instance_doc(fc, d)))
        (table, table_err), (machine, machine_err) = self.learn_both_formats(capsys, path)
        assert table.endswith("Prop1 (ei = l - V): PASS\n"
                              "Prop2 (E[eps] = (1 - R)/2): PASS\n")
        assert table_err == machine_err == (
            f"restriction bounds: FAIL\n  - {message}\n")

    def test_one_table_and_one_reference_per_command(self, monkeypatch, capsys):
        calls = Counter()
        count = partial(count_calls, monkeypatch, calls)
        count(learning, "_restriction_masks")
        count(learning, "restriction_count")
        count(cube, "_min_mismatches_per_pattern")
        count(cube, "_reference_distance_counts")
        assert main(["learn", str(DATA / "instance_constant.json")]) == 0
        capsys.readouterr()
        # the printed vc_entropy counts the restrictions; learn is
        # check_instance's one row, so its masks are built once, with one
        # table and one reference; the analysis, the printed report too, is
        # read off the table (a missing key is 0 calls)
        assert calls == {"restriction_count": 1, "_restriction_masks": 1,
                         "_min_mismatches_per_pattern": 1,
                         "_reference_distance_counts": 1}
        calls.clear()
        count(learning, "Fraction")
        count(instances, "Fraction")
        fc, d = random_learning_instance(random.Random(22), min_points=3, max_points=8)
        assert checked_analysis(fc, d)[1] == {}
        # masks once for the class; one table for them, and one reference
        # for Prop 2 and the report's histogram. A passing instance is
        # checked on integer counts: no Fraction
        assert calls == {"_restriction_masks": 1, "_min_mismatches_per_pattern": 1,
                         "_reference_distance_counts": 1}

    def test_capped_learn_restricts_nothing(self, monkeypatch, capsys):
        # the cap is checked before V's restriction pass, so a refused
        # learn reads no row
        calls = Counter()
        count_calls(monkeypatch, calls, learning, "restriction_count")
        assert main(["--cap", "1", "learn", str(DATA / "instance_constant.json")]) == 4
        captured = capsys.readouterr()
        assert calls == {}
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "exceeds the enumeration cap 1" in captured.err

    def test_no_labeling_per_function(self, monkeypatch, capsys):
        calls = Counter()
        labeling_init = Labeling.__init__

        def counted_labeling(self, *args, **kwargs):
            calls["Labeling"] += 1
            labeling_init(self, *args, **kwargs)

        count = partial(count_calls, monkeypatch, calls)
        monkeypatch.setattr(Labeling, "__init__", counted_labeling)
        count(learning, "restriction_count")
        count(learning, "_restriction_masks")
        assert main(["learn", str(DATA / "instance_shatter.json")]) == 0
        capsys.readouterr()
        assert calls == {"restriction_count": 1, "_restriction_masks": 1}
        calls.clear()
        fc, d = random_learning_instance(random.Random(24), min_points=3, max_points=8)
        assert calls == {}
        assert checked_analysis(fc, d)[1] == {}
        assert calls == {"_restriction_masks": 1}
        calls.clear()
        assert len(fc.functions) == fc.size  # built on demand, once
        assert fc.functions is fc.functions
        assert calls == {"Labeling": fc.size}


def _row_masks(length, kind, rng):
    n = 1 << length
    codes = {"one mask": [rng.randrange(n)],
             "random class": rng.sample(range(n), rng.randint(min(2, n), min(64, n))),
             "full class": range(n)}[kind]
    return np.array(sorted(codes), dtype=np.uint32)


class TestRows:
    """Many instances, one length each, as rows of one table and one search."""

    def check_rows(self, rows):
        # each (length, masks) row against its own literal table, checked on
        # its own; the kernels take the rows longest first, and both count
        # every row in one (rows, l_0 + 2) shape
        rows = sorted(rows, key=lambda row: -row[0])
        lengths = [length for length, _ in rows]
        flat = stack_rows([masks for _, masks in rows], lengths)
        table = cube._min_mismatches_per_pattern(flat, lengths)
        counts = cube._best_fit_counts(flat, lengths)
        references = cube._reference_distance_counts(flat, lengths)
        assert table.size == sum(1 << length for length in lengths)
        assert counts.shape == references.shape == (len(rows), lengths[0] + 2)
        assert counts.dtype == references.dtype == np.intp
        np.testing.assert_array_equal(counts, references)
        for (length, masks), row_table, row in zip(rows, _table_rows(table, lengths), counts):
            c = learning._count_tuple(row, length)
            oracle = oracle_table(masks, length)
            np.testing.assert_array_equal(row_table, oracle)
            assert c == tuple(np.bincount(oracle, minlength=length + 1).tolist())
            assert all(type(k) is int for k in c)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_mixed_chunk_equals_each_row_on_its_own(self, length):
        # a row of this length among rows of lengths drawn from 1..12, and
        # rows of 2^14 and 2^15 patterns: the counter's blocks of 2^14
        # entries hold several short rows each, and the long rows whole
        # blocks of their own
        rng = random.Random(200 + length)
        kinds = ("one mask", "random class", "full class", "random class", "one mask")
        lengths = [length] + [rng.randint(1, 12) for _ in kinds[1:]]
        rows = [(l, _row_masks(l, kind, rng)) for l, kind in zip(lengths, kinds)]
        self.check_rows(rows + [(15, _row_masks(15, "random class", rng)),
                                (14, _row_masks(14, "one mask", rng))])

    @pytest.mark.parametrize("lengths", [
        (9, 8, 7, 6, 5, 4, 3, 2, 1),
        (6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
        (12, 6, 4, 1),
        (5, 4, 3, 2, 1),
        (4, 4, 4, 3),
        (3, 2, 1, 1),
    ], ids=lambda lengths: "-".join(map(str, lengths)))
    @pytest.mark.parametrize("kinds", [("one mask", "random class", "full class"),
                                       ("random class", "one mask")])
    def test_sub_word_rows_among_longer_ones(self, lengths, kinds):
        # one call of each kernel where rows of l_r = 1..5 (which the search
        # pads to a word each, and whose table passes for bits 0-3 run
        # untransposed) follow rows of l_r >= 6 (whole words) and l_r >= 4
        # (the transposed prefix)
        rng = random.Random(sum(lengths) * len(kinds))
        self.check_rows([(l, _row_masks(l, kinds[r % len(kinds)], rng))
                         for r, l in enumerate(lengths)])

    @settings(deadline=None, max_examples=40)
    @given(st.lists(st.integers(1, 12).flatmap(lambda length: st.tuples(
        st.just(length),
        st.one_of(st.sets(st.integers(0, (1 << length) - 1), min_size=1,
                          max_size=min(1 << length, 64)),
                  st.just(frozenset(range(1 << length)))))),
        min_size=1, max_size=6))
    def test_every_row_equals_its_literal_table(self, rows):
        self.check_rows([(length, np.array(sorted(r), dtype=np.uint32))
                         for length, r in rows])

    @pytest.mark.parametrize("spill", (False, True), ids=("within l", "past l"))
    def test_corrupting_one_row_changes_only_its_histogram(self, monkeypatch, spill):
        lengths, rng = (6, 5, 5, 3), random.Random(31)
        rows = [_row_masks(length, kind, rng) for length, kind in
                zip(lengths, ("one mask", "random class", "full class", "random class"))]
        flat = stack_rows(rows, lengths)
        sizes = [masks.size for masks in rows]
        clean = [learning._count_tuple(row, l)
                 for row, l in zip(cube._best_fit_counts(flat, lengths), lengths)]
        for broken, l in enumerate(lengths):
            def corrupt(masks, row_lengths):
                # row `broken` at risk l everywhere, or past l at one
                # pattern, which the l_0 + 2 bins still hold when l is the
                # longest
                table = best_fit_table(masks, row_lengths)
                row = _table_rows(table, row_lengths)[broken]
                if spill:
                    row[0] = l + 1
                else:
                    row[:] = l
                return table

            monkeypatch.setattr(cube, "_min_mismatches_per_pattern", corrupt)
            array = cube._best_fit_counts(flat, lengths)
            assert array.shape == (len(lengths), lengths[0] + 2)
            counts = [learning._count_tuple(row, l) for row, l in zip(array, lengths)]
            for r, (c, before) in enumerate(zip(counts, clean)):
                if r != broken:
                    assert c == before
                elif spill:
                    assert array[r, l + 1] == 1
                    moved = list(before) + [1]
                    moved[best_fit_table(rows[r], [l])[0]] -= 1
                    assert c == tuple(moved)
                else:
                    assert c == (0,) * l + (1 << l,)
            # the checks fail the broken row alone
            _, failures = instances._check_rows(flat, lengths, lengths, sizes)
            assert list(failures) == [broken]


def movable_bin(row):
    """The first k >= 1 with patterns at risks k and k + 2 in a histogram
    row, or None."""
    return next((k for k in range(1, len(row) - 2) if row[k] and row[k + 2]), None)


def move_in_one_row(monkeypatch, name, r, k):
    """Wrap the histogram kernel `cube.<name>` so that it moves patterns in
    row r: -1 at risk k, +2 at k + 1 and -1 at k + 2. The row's total,
    mismatch sum and zero-risk count are kept."""
    kernel = getattr(cube, name)

    def moving(masks, lengths):
        counts = kernel(masks, lengths)
        counts[r, k:k + 3] += (-1, 2, -1)
        return counts

    monkeypatch.setattr(cube, name, moving)


def worded_bins(length, table, reference, bins):
    """`check_falsification`'s wording of the bins where `reference`, the
    reference search's histogram, differs from the table's."""
    return [f"fraction at risk {Fraction(k, length)} is {Fraction(table[k], 1 << length)}, "
            f"the reference search finds {Fraction(reference[k], 1 << length)}" for k in bins]


def every_mask_set(length):
    """Every nonempty set of masks on l = length positions, one row each, set
    s holding mask m iff bit m of s is set, and its literal best-fit
    histogram: of the 2^l patterns, how many are min(popcount(p ^ m)) = k
    from the set, for k = 0..l."""
    n = 1 << length
    sets = np.arange(1, 1 << n)
    member = (sets[:, None] >> np.arange(n)) & 1 == 1
    patterns = np.arange(n)
    distance = np.bitwise_count(patterns[:, None] ^ patterns[None, :]).astype(np.int8)
    best = np.where(member[:, None, :], distance, np.int8(length + 1)).min(axis=2)
    histograms = np.stack([np.count_nonzero(best == k, axis=1) for k in range(length + 1)],
                          axis=1)
    return member, histograms


class TestEveryMaskSet:
    """A row's histograms depend only on its mask set and l, so up to l = 4,
    3 + 15 + 255 + 65 535 nonempty sets, every row that any class on any |X|
    can produce is checked, not sampled."""

    def test_every_mask_set_up_to_four_positions_in_one_call(self):
        # rows of every width below 64 patterns, most of them starting
        # inside a count block, longest first
        lengths, flat, expected, sizes, start = [], [], [], [], 0
        for length in (4, 3, 2, 1):
            member, histograms = every_mask_set(length)
            rows, masks = np.nonzero(member)
            flat.append(start + (rows << length) + masks)
            start += member.shape[0] << length
            lengths += [length] * member.shape[0]
            sizes.append(member.sum(axis=1))
            expected.append(np.pad(histograms, ((0, 0), (0, 5 - length))))
        assert len(lengths) == 65_808
        counts, failures = instances._check_rows(np.concatenate(flat), lengths, lengths,
                                                 np.concatenate(sizes))
        assert failures == {}
        np.testing.assert_array_equal(counts, np.concatenate(expected))

    def test_every_class_on_three_points_through_the_drawn_codes(self):
        # each of the 255 classes on |X| = 3, as codes, at each of the 15
        # datasets, through verify's mask layout and checks
        windows = [(indices, codes) for length in (3, 2, 1)
                   for indices in itertools.permutations(range(3), length)
                   for codes in itertools.chain.from_iterable(
                       itertools.combinations(range(8), k) for k in range(1, 9))]
        indices, codes = zip(*windows)
        lengths = [len(row) for row in indices]
        restrictions = [sorted({sum(((c >> i) & 1) << k for k, i in enumerate(row))
                                for c in class_codes})
                        for row, class_codes in windows]
        masks = instances._window_masks(indices, codes)
        np.testing.assert_array_equal(masks, stack_rows(restrictions, lengths))
        counts, failures = instances._check_rows(masks, lengths, [3] * len(windows),
                                                 [len(row) for row in codes])
        assert failures == {}
        histograms = {length: every_mask_set(length)[1] for length in (1, 2, 3)}
        for row, length, restriction in zip(counts, lengths, restrictions):
            expected = histograms[length][sum(1 << m for m in restriction) - 1]
            assert row.tolist() == expected.tolist() + [0] * (4 - length)


class TestEveryFailingRowIsReported:
    """A row is reported exactly when the arrays `_check_rows` compares
    disagree on it, even by a move that keeps the row's total, mismatch sum
    and zero-risk count, which Props 1 and 2 read."""

    # each array and the kernel that counts it
    ARRAYS = {"table": "_best_fit_counts", "reference": "_reference_distance_counts"}

    @staticmethod
    def window():
        # seeded draws of l = 1..8 and one of l = 15, whose row spans two
        # count blocks, laid out longest first
        rng = random.Random(61)
        drawn = [instances.random_instance_codes(rng, 1, 8) for _ in range(40)]
        drawn.append((16, rng.sample(range(16), 15), rng.sample(range(1 << 16), 40)))
        drawn.sort(key=lambda row: -len(row[1]))
        n_points, indices, codes = zip(*drawn)
        return (instances._window_masks(indices, codes), [len(row) for row in indices],
                n_points, [len(row) for row in codes])

    def test_a_sum_preserving_move_in_any_array_reports_its_row(self, monkeypatch):
        rows = self.window()
        lengths = rows[1]
        clean, failures = instances._check_rows(*rows)
        assert failures == {}
        assert len(set(lengths)) > 2 and lengths[0] == 15
        movable = [(r, k) for r, row in enumerate(clean.tolist())
                   if (k := movable_bin(row)) is not None]
        # the l = 15 row and rows that share count blocks
        assert movable[0][0] == 0 and len(movable) > 5
        for array, name in self.ARRAYS.items():
            for r, k in movable:
                with monkeypatch.context() as patch:
                    move_in_one_row(patch, name, r, k)
                    _, failures = instances._check_rows(*rows)
                l = lengths[r]
                before = learning._count_tuple(clean[r], l)
                after = list(before)
                after[k:k + 3] = before[k] - 1, before[k + 1] + 2, before[k + 2] - 1
                table = after if array == "table" else before
                reference = after if array == "reference" else before
                expected = worded_bins(l, table, reference, range(k, k + 3))
                assert failures == {r: {"falsification": expected}}, (array, r)


class TestVerifyInstances:
    @pytest.mark.parametrize("args", [(-1,), (5, 0, 3), (5, 4, 3)],
                             ids=["negative_count", "zero_min", "min_above_max"])
    def test_bad_arguments_are_validation_errors(self, args):
        with pytest.raises(ValidationError):
            verify_instances(1, *args)

    def test_points_far_past_the_dataset(self, monkeypatch):
        # |X| - l = 1097: 2^(|X| - l) is past the float range, and a passing
        # row still passes as arrays, with no overflow warning
        ps = PointSet(f"x{i}" for i in range(1100))
        fc = FunctionClass(ps, [[1] * 1100, [-1] * 1100, [1] + [-1] * 1099])
        calls = Counter()
        count_calls(monkeypatch, calls, instances, "LearnerAnalysis")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert checked_analysis(fc, Dataset(ps, (0, 1, 2)))[1] == {}
        # the one analysis that checked_analysis returns; the checks built none
        assert calls == {"LearnerAnalysis": 1}

    @pytest.mark.parametrize("n", [100_000, 1_000_000])
    def test_proposition_one_exact_at_any_distance(self, n):
        # ei(L,0) is l - log2 of the zero-risk count, not |X| minus a number
        # near |X|, which lost 3.8e-12 of it here
        fc, d = parse_learning_instance(far_instance_doc(n))
        assert checked_analysis(fc, d)[1] == {}
        a = learning.analyze_learner(fc, d)
        assert check_proposition1(a) == []
        assert a.ei == 3 - math.log2(3) == d.length - a.vc_entropy

    def test_learn_far_past_the_dataset(self, tmp_path, capsys):
        path = tmp_path / "far.json"
        path.write_text(json.dumps(far_instance_doc(100_000)))
        assert main(["--format", "machine", "learn", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["prop1_pass"] is True and out["prop2_pass"] is True
        assert out["ei_bits"] == out["falsification"]["falsified_bits"] == 3 - math.log2(3)

    def test_broken_table_far_past_the_dataset_is_worded(self, monkeypatch, tmp_path, capsys):
        # Prop 1 compares the counts, so no 2^(|X| - l) integer is printed:
        # at |X| = 20 000 its decimal form is past int's string conversion limit
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", largest_mask_at_risk_one)
        doc = far_instance_doc(20_000)
        prop1, prop2, *falsification = [
            "perfect-fit count 2 * 2^19997 != |q_D(F)| * 2^(|X|-l) = 3 * 2^19997",
            "E[eps] = 1/4 but (1 - R)/2 = 5/24 (R = 7/12)",
            "fraction at risk 0 is 1/4, the reference search finds 3/8",
            "fraction at risk 1/3 is 3/4, the reference search finds 5/8"]
        assert checked_analysis(*parse_learning_instance(doc))[1] == {
            "prop1": [prop1], "prop2": [prop2], "falsification": falsification}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        err = (f"Prop1 (ei = l - V): FAIL\n  - {prop1}\n"
               f"Prop2 (E[eps] = (1 - R)/2): FAIL\n  - {prop2}\n"
               "falsification table (against the reference search): FAIL\n"
               + "".join(f"  - {msg}\n" for msg in falsification))
        assert main(["learn", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out.endswith("Prop1 (ei = l - V): FAIL\n"
                                     "Prop2 (E[eps] = (1 - R)/2): FAIL\n")
        assert captured.err == err
        assert main(["--format", "machine", "learn", str(path)]) == 1
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["prop1_pass"] is False and out["prop2_pass"] is False
        assert captured.err == err

    def test_max_points_above_cap(self):
        with pytest.raises(EnumerationCapError, match="max_points 9 exceeds the enumeration cap 8"):
            verify_instances(1, 5, 3, 9, cap=8)
        assert verify_instances(1, 5, 3, 8, cap=8).ok

    def test_max_points_past_the_mask_width_refused_before_drawing(self, monkeypatch, capsys):
        # a cap above 32 still analyzes no l past 32, so nothing is drawn
        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn")

        monkeypatch.setattr(instances, "random_instance_codes", no_draw)
        with pytest.raises(EnumerationCapError,
                           match="max_points 33 exceeds the enumeration cap 32"):
            verify_instances(1, 1, 3, 33, cap=40)
        code = main(["--cap", "40", "verify", "--max-points", "33", "--count", "1"])
        assert code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: max_points 33 exceeds the enumeration cap 32\n"


    # The failure reports of `verify --format machine --seed 1 --count 40
    # --max-points 8` under two corrupted tables, as one instance per table
    # call reported them: the failing indices and the sha256 of the
    # "failures" JSON.
    @pytest.mark.parametrize("corruption, indices, digest", [
        (regroup, [1, 4, 6, 8, 10, 14, 16, 17, 19, 25, 29, 30],
         "15210f14540d6209c17bfbf0e32796a2a724258dfb26176116612c399f9471b9"),
        (skew_pattern_zero, [1, 2, 4, 6, 7, 10, 14, 17, 18, 19, 22, 25, 26, 27, 29, 30],
         "8fa7e1175753630f152648c0d144d6222b4d8203da95d684c4a13667051b644f"),
    ], ids=("regroup", "skew_pattern_zero"))
    def test_failure_reports_are_pinned(self, monkeypatch, capsys, corruption, indices, digest):
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", corruption)
        code = main(["--format", "machine", "verify", "--seed", "1", "--count", "40",
                     "--max-points", "8"])
        assert code == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert [f["instance"] for f in failures] == indices
        assert hashlib.sha256(json.dumps(failures).encode()).hexdigest() == digest
        # and each equals its instance checked as a row of its own
        rng = random.Random(1)
        alone = [(i, [msg for msgs in failed.values() for msg in msgs]) for i in range(40)
                 for failed in [checked_analysis(*random_learning_instance(rng, 3, 8))[1]]
                 if failed]
        assert [(f["instance"], f["messages"]) for f in failures] == alone

    def test_two_kernel_calls_per_window(self, monkeypatch, capsys):
        calls = Counter()
        count = partial(count_calls, monkeypatch, calls)
        count(cube, "_min_mismatches_per_pattern")
        count(cube, "_reference_distance_counts")
        count(instances, "random_learning_instance")
        count(FunctionClass, "__init__")
        assert main(["verify", "--seed", "1", "--count", "40", "--max-points", "8"]) == 0
        assert capsys.readouterr().out == "40/40 instances PASS\n"
        rng = random.Random(1)
        lengths = [len(instances.random_instance_codes(rng, 3, 8)[1]) for _ in range(40)]
        assert len(set(lengths)) > 1
        assert sum(1 << l for l in lengths) <= instances.CHUNK_ENTRIES
        # one window of mixed lengths: one table for the masks and one
        # search; one call per kernel and distinct l made 2 per l, one
        # instance at a time 80; the drawn codes become masks without a class
        assert calls == {"_min_mismatches_per_pattern": 1, "_reference_distance_counts": 1}
        calls.clear()
        # no instance, no window and no kernel call
        assert main(["verify", "--count", "0"]) == 0
        assert capsys.readouterr().out == "0/0 instances PASS\n"
        assert calls == {}

    @staticmethod
    def repeated_instance(n, codes):
        # a generator that draws the same (F, D) each time, |X| = l = n, as a
        # new list of the same codes
        return lambda rng, lo, hi: (n, list(range(n)), list(codes))

    @staticmethod
    def traced_peak(count):
        tracemalloc.start()
        try:
            result = verify_instances(1, count, 3, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.ok
        return peak

    def test_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # l = 16: two rows a chunk, so twelve instances are six chunks
        l = 16
        codes = random.Random(41).sample(range(1 << l), 4096)
        monkeypatch.setattr(instances, "random_instance_codes",
                            self.repeated_instance(l, codes))
        peak = self.traced_peak(12)
        # per entry of a chunk: its masks as 8-byte indices, the uint8 table
        # and its transposed copy, the search's bool marks and its under 2
        # bytes of uint64 words, and the window's uint32 masks; one block's
        # 8-byte bincount keys and 1 MiB of slack
        entries = max(1 << l, instances.CHUNK_ENTRIES)
        assert peak <= ((8 + 2 + 1 + 2 + 4) * entries + 8 * cube._COUNT_BLOCK
                        + (1 << 20))

    def test_memory_does_not_grow_with_the_count(self, monkeypatch):
        # l = 12: 32 rows a chunk, so 40 instances already fill one
        codes = random.Random(42).sample(range(1 << 12), 512)
        monkeypatch.setattr(instances, "random_instance_codes",
                            self.repeated_instance(12, codes))
        self.traced_peak(40)  # one-time allocations of a first run
        assert self.traced_peak(400) <= self.traced_peak(40) + (1 << 16)

    def test_memory_counts_the_codes(self, monkeypatch):
        # |X| = 16, l = 1, |F| = 4096: two patterns an instance, so a window
        # bounded by its patterns alone would keep every instance's codes
        codes = random.Random(44).sample(range(1 << 16), 4096)
        monkeypatch.setattr(instances, "random_instance_codes",
                            lambda rng, lo, hi: (16, [5], list(codes)))
        peak = self.traced_peak(100)
        # a window holds at most CHUNK_ENTRIES patterns and codes: a pattern
        # costs the bytes counted above, a code its list entry, the uint32
        # codes, masks, shifts and bits of a pass, the 8-byte flat masks and
        # the bool and 8-byte arrays that drop duplicates; 1 MiB of slack
        assert peak <= max(8 + 2 + 1 + 2 + 4,
                           8 + 4 + 4 + 4 + 4 + 8 + 1 + 8) * instances.CHUNK_ENTRIES + (1 << 20)

    def test_only_a_failing_row_builds_an_analysis(self, monkeypatch, capsys):
        built = Counter()
        analysis = instances.LearnerAnalysis

        def counted(*args):
            built["LearnerAnalysis"] += 1
            return analysis(*args)

        monkeypatch.setattr(instances, "LearnerAnalysis", counted)
        argv = ["--format", "machine", "verify", "--seed", "1", "--count", "40",
                "--max-points", "8"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["passed"] == 40
        assert built == {}
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", every_mask_at_risk_one)
        assert main(argv) == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert len(failures) == 40
        assert built == {"LearnerAnalysis": 80}

    def test_no_perfect_fit_is_a_proposition_one_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(cube, "_min_mismatches_per_pattern", every_mask_at_risk_one)
        fc = FunctionClass(AB, [(1, 1)])
        failed = checked_analysis(fc, Dataset(AB, (0, 1)))[1]
        # the mask 11 and the patterns 01 and 10 at risk 1/2, 00 at risk 1
        msgs = [
            "perfect-fit count 0 * 2^0 != |q_D(F)| * 2^(|X|-l) = 1 * 2^0",
            "ei(L,0) is undefined: no sign pattern is fitted with zero mismatches",
            "E[eps] = 5/8 but (1 - R)/2 = 1/2 (R = 0)",
            "fraction at risk 0 is 0, the reference search finds 1/4",
            "fraction at risk 1/2 is 3/4, the reference search finds 1/2"]
        assert failed == {"prop1": msgs[:2], "prop2": msgs[2:3], "falsification": msgs[3:]}
        code = main(["--format", "machine", "verify", "--seed", "1", "--count", "40",
                     "--max-points", "8"])
        assert code == 1
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert [f["instance"] for f in failures] == list(range(40))
        assert all(f["messages"][1] == msgs[1] for f in failures)
        for fmt in ("table", "machine"):
            code = main(["--format", fmt, "learn", str(DATA / "instance_constant.json")])
            captured = capsys.readouterr()
            assert code == 1
            # no report, as ei(L,0) is undefined, but every failed check
            assert captured.out == ""
            assert captured.err == ("Prop1 (ei = l - V): FAIL\n"
                                    f"  - {msgs[0]}\n  - {msgs[1]}\n"
                                    "Prop2 (E[eps] = (1 - R)/2): FAIL\n"
                                    f"  - {msgs[2]}\n"
                                    "falsification table (against the reference search): FAIL\n"
                                    f"  - {msgs[3]}\n  - {msgs[4]}\n")


class TestDeterminism:
    # sha256 of the first draws of random_learning_instance(rng, min, max),
    # one learning_instance_doc JSON line each: a passing verify report is
    # only counts, so this is what shows a changed draw. |X| = 9..16 draws
    # codes past one byte.
    @pytest.mark.parametrize("seed, bounds, draws, digest", [
        (1, (3, 8), 200, "63182531bd3e340e3928b386ce4befb22caf9172911c03d99912049a7fd52efc"),
        (3, (3, 8), 200, "954c449da91b76149c0b9cfb0552be2279a19e6c4465fd38de14e7478f97adc2"),
        (7, (3, 8), 200, "9268cc38f5b7535b049f09baded310c8ea3e91801047ac7171d3ee9fb1ef9064"),
        (5, (9, 16), 30, "ca8c44d7f6ef8fe38d4b6abe7a108404d3c2939bae6049b15fb5caff02ea4cd8"),
    ])
    def test_generator_draws_are_pinned(self, seed, bounds, draws, digest):
        rng = random.Random(seed)
        sha = hashlib.sha256()
        for _ in range(draws):
            doc = learning_instance_doc(*random_learning_instance(rng, *bounds))
            sha.update(json.dumps(doc).encode() + b"\n")
        assert sha.hexdigest() == digest

    @staticmethod
    def stdlib_codes(rng, min_points, max_points):
        # the reference: random_instance_codes' draws as random.Random's
        # own randint and sample calls
        n = rng.randint(min_points, max_points)
        indices = rng.sample(range(n), rng.randint(1, n))
        size = min(1 << n, rng.randint(1, 1 << rng.randint(0, n)))
        return n, indices, rng.sample(range(1 << n), size)

    def test_draws_equal_the_stdlib_calls(self):
        # the same draws and the same generator state after each; at
        # |X| = 8 sample(range(256), k) takes its pool branch for k >= 22
        # and its set branch below that, and both are reached
        pool_at_256 = set()
        for seed in range(1, 21):
            for bounds, draws in [((1, 1), 20), ((3, 3), 20), ((3, 8), 60),
                                  ((1, 12), 30), ((9, 16), 8)]:
                rng, oracle = random.Random(seed), random.Random(seed)
                for _ in range(draws):
                    drawn = instances.random_instance_codes(rng, *bounds)
                    expected = self.stdlib_codes(oracle, *bounds)
                    assert drawn == expected
                    assert rng.getstate() == oracle.getstate()
                    if drawn[0] == 8:
                        pool_at_256.add(len(drawn[2]) >= 22)
        assert pool_at_256 == {False, True}

    @pytest.mark.parametrize("bounds", [(0, 0), (0, 3), (5, 4)])
    def test_bad_bounds_are_refused_before_drawing(self, bounds):
        class CountingRandom(random.Random):
            calls = 0

            def getrandbits(self, k):
                self.calls += 1
                return super().getrandbits(k)

        rng = CountingRandom(1)
        with pytest.raises(ValueError, match="1 <= min <= max"):
            instances.random_instance_codes(rng, *bounds)
        assert rng.calls == 0
        assert rng.getstate() == random.Random(1).getstate()

    @pytest.mark.parametrize("seed", (1, 3, 7))
    @pytest.mark.parametrize("bounds, draws", [((3, 8), 200), ((1, 12), 100), ((9, 16), 30)])
    def test_code_masks_equal_the_class_masks(self, seed, bounds, draws):
        # verify's window masks, straight from the drawn codes, against the
        # masks of the class and dataset drawn from the same sequence: each
        # draw as a window of one, then the draws in windows of mixed lengths
        codes_rng, class_rng = random.Random(seed), random.Random(seed)
        rows, class_masks = [], []
        for _ in range(draws):
            n, indices, codes = instances.random_instance_codes(codes_rng, *bounds)
            fc, d = random_learning_instance(class_rng, *bounds)
            assert (n, tuple(indices), len(codes)) == (fc.pointset.size, d.indices, fc.size)
            class_masks.append(learning._restriction_masks(fc, d))
            masks = instances._window_masks([indices], [codes])
            assert masks.dtype == np.intp
            np.testing.assert_array_equal(masks, class_masks[-1])
            rows.append((indices, codes))
        assert codes_rng.getstate() == class_rng.getstate()
        mixed = 0
        for first in range(0, draws, 7):
            window = sorted(range(first, min(first + 7, draws)), key=lambda i: -len(rows[i][0]))
            indices, codes = zip(*(rows[i] for i in window))
            lengths = [len(row) for row in indices]
            mixed += len(set(lengths)) > 1
            np.testing.assert_array_equal(instances._window_masks(indices, codes),
                                          stack_rows([class_masks[i] for i in window], lengths))
        assert mixed

    def test_window_masks_are_exact_up_to_32_points(self):
        # codes and masks are uint32: rows at |X| = 32 that read point 31,
        # with code bit 31 set, beside shorter rows; bit k of a mask is bit
        # indices[k] of a code
        rng = random.Random(43)
        rows = []
        for n, length in ((32, 32), (32, 12), (31, 9), (20, 9), (5, 1)):
            indices = rng.sample(range(n), length)
            if n == 32 and 31 not in indices:
                indices[0] = 31
            codes = set(rng.sample(range(1 << n), min(40, 1 << n)))
            if n == 32:
                codes |= {1 << 31, (1 << 32) - 1}
            rows.append((indices, list(codes)))
        expected = [sorted({sum(((c >> i) & 1) << k for k, i in enumerate(indices))
                            for c in codes}) for indices, codes in rows]
        assert max(expected[0]) >= 1 << 31
        indices, codes = zip(*rows)
        np.testing.assert_array_equal(instances._window_masks(indices, codes),
                                      stack_rows(expected, [len(row) for row in indices]))

    def test_repeated_calls_identical(self):
        rng = random.Random(20)
        fc, d = random_learning_instance(rng, min_points=6, max_points=10)
        a, b = analyze_learner(fc, d), analyze_learner(fc, d)
        assert a.pattern_counts == b.pattern_counts
        assert a.rademacher == b.rademacher
        assert vc_entropy(fc, d) == vc_entropy(fc, d)
        assert a.ei == b.ei
        assert (a.fitted_bits, a.falsification_table) == (b.fitted_bits, b.falsification_table)
