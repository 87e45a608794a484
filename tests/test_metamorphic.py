"""Metamorphic relations of the learner, exact, at sizes `verify` never draws.

`verify` draws |X| of at most its `max_points`, so it never meets an
instance with |X| far past l. Each relation here changes an instance in a
way that the paper's quantities must not see, and compares what every entry
point reports before and after, field by field:

* points outside D, |X| - l in {0, 1, 64, 1100, 100 000}: every pattern
  count, V, R, E[risk] and ei(L,0) are unchanged, and the total bits move
  by exactly the points added;
* a new order of X (and of F) or of D: the histogram is unchanged;
* a function that differs from a member only outside D: the masks are
  unchanged and |F| grows by one;
* every function of F negated: every field is unchanged but the masks,
  which become their sorted complements.
"""
import json
import random

import numpy as np
import pytest

from effinfo import Dataset, FunctionClass, PointSet, learning
from effinfo.cli import main
from effinfo.documents import learning_instance_doc
from effinfo.instances import checked_analysis, random_learning_instance


def observe(fc, d, capsys, path):
    """What `checked_analysis`, `analyze_learner` and the machine `learn`
    report say of (F, D), one field each, once every check has passed and
    both analyses agree, and its restriction masks. The report's fields keep
    their names; the analysis's are under "analysis.", and the masks, as
    `learning._restriction_masks` builds them, are "masks"."""
    a, failed = checked_analysis(fc, d)
    assert failed == {}
    alone = learning.analyze_learner(fc, d)
    assert a == alone
    path.write_text(json.dumps(learning_instance_doc(fc, d)))
    assert main(["--format", "machine", "learn", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["instance_file"]
    falsification = report.pop("falsification")
    return {**report, **{f"falsification.{k}": v for k, v in falsification.items()},
            "analysis.pattern_counts": a.pattern_counts,
            "masks": learning._restriction_masks(fc, d).tolist(),
            "analysis.restriction_count": a.restriction_count,
            "analysis.vc_entropy": a.vc_entropy,
            "analysis.rademacher": a.rademacher,
            "analysis.expected_risk": a.expected_risk,
            "analysis.ei": a.ei,
            "analysis.n_points": a.n_points,
            "analysis.fitted_bits": a.fitted_bits,
            "analysis.table": a.falsification_table}


def changed(before, after):
    return {k for k in before if before[k] != after[k]}


def base_instance(rng, l):
    """A seeded (F, D) with X = D: l points, in a shuffled order for D, and
    1..16 distinct functions."""
    codes = rng.sample(range(1 << l), rng.randint(1, min(16, 1 << l)))
    ps = PointSet(f"d{k}" for k in range(l))
    rows = [[1 if (c >> i) & 1 else -1 for i in range(l)] for c in codes]
    return FunctionClass(ps, rows), Dataset(ps, rng.sample(range(l), l))


def pad_points(fc, d, pad, seed):
    """(F, D) with `pad` points added to X at seeded places among the old
    ones, each function signed at random there; D names the same points."""
    rng = np.random.default_rng(seed)
    n = fc.pointset.size + pad
    old = np.sort(rng.choice(n, fc.pointset.size, replace=False)).tolist()
    names = [f"pad{i}" for i in range(n)]
    for i, name in zip(old, fc.pointset.points):
        names[i] = name
    signs = rng.choice((-1, 1), size=(fc.size, n))
    signs[:, old] = fc.signs
    ps = PointSet(names)
    return FunctionClass(ps, signs.tolist()), Dataset.from_points(ps, d.points)


class TestPointsOutsideTheDataset:
    @pytest.mark.parametrize("pad", [0, 1, 64, 1100, 100_000])
    def test_padding_moves_only_the_total_bits(self, pad, capsys, tmp_path):
        rng = random.Random(90)
        for draw, l in enumerate([1, rng.randint(2, 12), learning.DEFAULT_POINT_CAP]):
            fc, d = base_instance(rng, l)
            before = observe(fc, d, capsys, tmp_path / "base.json")
            padded = pad_points(fc, d, pad, seed=draw)
            assert padded[0].pointset.size - d.length == pad
            after = observe(*padded, capsys, tmp_path / "padded.json")
            assert changed(before, after) <= {
                "n_points", "falsification.total_bits", "falsification.fitted_bits",
                "analysis.n_points", "analysis.fitted_bits"}
            for key in ("n_points", "falsification.total_bits", "analysis.n_points"):
                assert after[key] - before[key] == pad
            # fitted bits are log2 of the zero-risk count times 2^(|X| - l),
            # each within a rounding of |X| * 2^-52
            bound = (before["n_points"] + after["n_points"]) * 2.0 ** -52
            for key in ("falsification.fitted_bits", "analysis.fitted_bits"):
                assert abs(after[key] - (before[key] + pad)) <= bound


class TestOrders:
    def test_new_orders_of_x_and_f_change_nothing(self, capsys, tmp_path):
        rng = random.Random(91)
        for _ in range(20):
            fc, d = random_learning_instance(rng, min_points=1, max_points=8)
            before = observe(fc, d, capsys, tmp_path / "base.json")
            order = rng.sample(range(fc.pointset.size), fc.pointset.size)
            rows = [[row[i] for i in order] for row in fc.signs.tolist()]
            rng.shuffle(rows)
            ps = PointSet(fc.pointset.points[i] for i in order)
            after = observe(FunctionClass(ps, rows), Dataset.from_points(ps, d.points),
                            capsys, tmp_path / "shuffled.json")
            assert changed(before, after) == set()

    def test_a_new_order_of_d_keeps_the_histogram(self, capsys, tmp_path):
        rng = random.Random(92)
        for _ in range(20):
            fc, d = random_learning_instance(rng, min_points=1, max_points=8)
            before = observe(fc, d, capsys, tmp_path / "base.json")
            order = rng.sample(range(d.length), d.length)
            shuffled = Dataset(fc.pointset, [d.indices[k] for k in order])
            after = observe(fc, shuffled, capsys, tmp_path / "shuffled.json")
            assert changed(before, after) <= {"masks"}
            # the same restrictions, their bit k read from the old bit order[k]
            assert after["masks"] == sorted(
                sum(((m >> j) & 1) << k for k, j in enumerate(order))
                for m in before["masks"])


class TestFunctionsOutsideTheDataset:
    def test_a_function_new_only_outside_d_keeps_the_masks(self, capsys, tmp_path):
        rng = random.Random(93)
        checked = 0
        while checked < 20:
            fc, d = random_learning_instance(rng, min_points=2, max_points=8)
            outside = sorted(set(range(fc.pointset.size)) - set(d.indices))
            rows = list(map(tuple, fc.signs.tolist()))
            taken = set(rows)
            # a member with one sign flipped outside D, not already in F
            new = [row for f in rows for i in outside
                   for row in [f[:i] + (-f[i],) + f[i + 1:]] if row not in taken]
            if not new:
                continue
            before = observe(fc, d, capsys, tmp_path / "base.json")
            bigger = FunctionClass(fc.pointset, rows + [rng.choice(new)])
            after = observe(bigger, d, capsys, tmp_path / "bigger.json")
            assert changed(before, after) == {"class_size"}
            assert after["class_size"] == before["class_size"] + 1
            checked += 1


class TestNegation:
    def test_negating_every_function_complements_only_the_masks(self, capsys, tmp_path):
        rng = random.Random(94)
        drawn = [random_learning_instance(rng, min_points=1, max_points=8) for _ in range(20)]
        drawn.append(base_instance(rng, learning.DEFAULT_POINT_CAP))
        for fc, d in drawn:
            before = observe(fc, d, capsys, tmp_path / "base.json")
            negated = FunctionClass(fc.pointset, (-fc.signs).tolist())
            after = observe(negated, d, capsys, tmp_path / "negated.json")
            assert changed(before, after) <= {"masks"}
            everywhere = (1 << d.length) - 1
            assert after["masks"] == sorted(m ^ everywhere for m in before["masks"])
