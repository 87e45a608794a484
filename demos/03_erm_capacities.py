"""Empirical risk minimization as a system that falsifies hypotheses.

Fix a point set X, a function class F of sign labelings, and a dataset D of
l distinct points. The learner maps each of the 2^|X| candidate labelings
to the best fit any f in F achieves on D. Treated as a system, its
perfect-fit output carries l - V bits (V = empirical VC-entropy), i.e. it
counts the hypotheses the class falsifies outright; its expected output
risk is (1 - R)/2 (R = empirical Rademacher complexity), a falsification
count weighted by how much of the data each hypothesis fails on. Both
identities are exact, and this script checks them with exact arithmetic.
"""
from fractions import Fraction

from effinfo import Dataset, FunctionClass, PointSet, analyze_learner

points = PointSet([f"p{i}" for i in range(6)])
dataset = Dataset(points, (0, 1, 2, 3))  # l = 4 of the 6 points


def signs_from_code(code):
    return tuple(1 if (code >> i) & 1 else -1 for i in range(points.size))


def summarize(fc, name):
    l = dataset.length
    # every quantity is read off one best-fit table
    a = analyze_learner(fc, dataset)
    v, r, e, ei = a.vc_entropy, a.rademacher, a.expected_risk, a.ei
    print(f"\n== {name} (|F| = {fc.size}) ==")
    print(f"  VC-entropy V  = {v:.4f} bits   ei(L, 0) = {ei:.4f} = l - V "
          f"({l} - {v:.4f})")
    print(f"  Rademacher R  = {r} = {float(r):.4f}")
    print(f"  E[risk]       = {e} = {float(e):.4f}   (1 - R)/2 = {(1 - r) / 2}")
    # each pattern on D stands for 2^(|X| - l) labelings of X, so the
    # fraction of labelings at k mismatches is that of the 2^l patterns
    dist = "  ".join(f"{k}/{l}:{Fraction(c, 1 << l)}"
                     for k, c in enumerate(a.pattern_counts) if c)
    print(f"  risk distribution over all 2^{points.size} labelings: {dist}")
    print(f"  hypotheses: total {points.size} bits, "
          f"fits {a.fitted_bits:.4f}, falsifies {ei:.4f}")
    assert a.fitted_bits + ei == points.size
    assert e == (1 - r) / 2
    weighted = sum((eps * frac for eps, frac in a.falsification_table), Fraction(0))
    assert weighted == e


# a class is its sign rows, one row of +1/-1 per function
# one rigid hypothesis: explains little, falsifies a lot
summarize(FunctionClass(points, [(1,) * 6]), "single constant function")

# two complementary functions
summarize(FunctionClass(points, [(1,) * 6, (-1,) * 6]), "constant +1 and constant -1")

# sixteen functions that shatter the dataset: nothing is falsified
shattering = FunctionClass(points, [signs_from_code(c) for c in range(16)])
summarize(shattering, "class shattering the 4 dataset points")

print("\nAs the class grows it explains more labelings, so it falsifies")
print("fewer: ei and E[risk] fall while V and R rise.")
