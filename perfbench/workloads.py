"""Workload specs, seeded input documents and the output oracle.

A workload is one fixed batch of `effinfo` commands. Its sizes are the same
for every seed; the seed only chooses the contents (which functions, which
matrix, which prior), so run-to-run spread measures the program and not the
luck of the draw. Documents are written to a work directory during set-up and
the program sees only those files.

The oracle re-derives every checked quantity with numpy from the benchmark's
own copy of the inputs, never by calling `effinfo`.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

FLOAT_TOL = 1e-9
# uint32 XOR word per (pattern, restriction) pair of a brute-force Hamming sweep
SWEEP_WORD_BYTES = 4


@dataclass(frozen=True)
class Op:
    """One CLI command, the oracle for its machine output and its input size."""

    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    input_bytes: int


@dataclass(frozen=True)
class Inputs:
    """The timed batch, the untimed warm-up command and input-size counters."""

    ops: tuple[Op, ...]
    warmup: tuple[str, ...]
    counters: dict[str, int]


def _counters(instances=(), channel_ns=()) -> dict[str, int]:
    """Input sizes of one batch, computed from the inputs, not measured.

    `instances` holds (|X|, l, |q_D(F)|) per learning instance.
    """
    return {
        "inputs.instances": len(instances),
        "inputs.points_max": max((n for n, _, _ in instances), default=0),
        "inputs.length_max": max((l for _, l, _ in instances), default=0),
        "inputs.restrictions_sum": sum(q for _, _, q in instances),
        "inputs.patterns_sum": sum(1 << l for _, l, _ in instances),
        "inputs.pattern_table_bytes_max": max(
            ((1 << l) * q * SWEEP_WORD_BYTES for _, l, q in instances), default=0),
        "inputs.channel_n_max": max(channel_ns, default=0),
        "inputs.channel_cells_sum": sum(n * n for n in channel_ns),
    }


COUNTER_NAMES = tuple(_counters())


def _write(path: Path, doc) -> int:
    text = json.dumps(doc)
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


def _close(name: str, got, want: float) -> list[str]:
    # written so that a NaN fails too
    if (not isinstance(got, (int, float)) or isinstance(got, bool)
            or not abs(got - want) <= FLOAT_TOL):
        return [f"{name} = {got!r}, oracle {want!r}"]
    return []


def _equal(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name} = {got!r}, expected {want!r}"]


# ---------------------------------------------------------------- learning

def restriction_masks(codes: np.ndarray, dataset: np.ndarray) -> np.ndarray:
    """Bit k of a mask is the +1/-1 label a function gives dataset point k."""
    bits = (codes[:, None] >> dataset[None, :].astype(np.int64)) & 1
    return (bits << np.arange(dataset.size, dtype=np.int64)[None, :]).sum(axis=1)


def learning_instance(rng: np.random.Generator, n_points: int, length: int,
                      class_size: int) -> tuple[dict, int]:
    """A random instance document and its restriction count |q_D(F)|."""
    codes = rng.choice(1 << n_points, size=class_size, replace=False)
    dataset = rng.permutation(n_points)[:length]
    signs = ((codes[:, None] >> np.arange(n_points)) & 1) * 2 - 1
    points = [f"p{i}" for i in range(n_points)]
    doc = {"points": points, "functions": signs.tolist(),
           "dataset": [points[i] for i in dataset]}
    return doc, int(np.unique(restriction_masks(codes, dataset)).size)


def check_learn(out: dict, *, n_points: int, length: int, class_size: int,
                restrictions: int) -> list[str]:
    problems = (_equal("command", out.get("command"), "learn")
                + _equal("n_points", out.get("n_points"), n_points)
                + _equal("length", out.get("length"), length)
                + _equal("class_size", out.get("class_size"), class_size)
                + _equal("prop1_pass", out.get("prop1_pass"), True)
                + _equal("prop2_pass", out.get("prop2_pass"), True))
    v = math.log2(restrictions)
    problems += _close("vc_entropy_bits", out.get("vc_entropy_bits"), v)
    problems += _close("ei_bits", out.get("ei_bits"), length - v)
    try:
        r = Fraction(out["rademacher"])
        e_risk = Fraction(out["expected_risk"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return problems + [f"unreadable rademacher/expected_risk: {exc!r}"]
    return problems + _equal("expected_risk", e_risk, (1 - r) / 2)


@dataclass(frozen=True)
class LearnSpec:
    """`learn` on one instance per (|X|, l, |F|) entry of `sizes`."""

    sizes: tuple[tuple[int, int, int], ...]

    def make(self, rng: np.random.Generator, workdir: Path) -> Inputs:
        ops, instances = [], []
        for i, (n, l, size) in enumerate(self.sizes):
            doc, q = learning_instance(rng, n, l, size)
            path = workdir / f"instance{i}.json"
            nbytes = _write(path, doc)
            instances.append((n, l, q))
            check = partial(check_learn, n_points=n, length=l, class_size=size,
                            restrictions=q)
            ops.append(Op(("--format", "machine", "learn", str(path)), check, nbytes))
        warm, _ = learning_instance(rng, 8, 8, 16)
        warm_path = workdir / "warmup.json"
        _write(warm_path, warm)
        return Inputs(tuple(ops), ("--format", "machine", "learn", str(warm_path)),
                      _counters(instances))


# ------------------------------------------------------------------ verify

def check_verify(out: dict, *, count: int) -> list[str]:
    return (_equal("command", out.get("command"), "verify")
            + _equal("count", out.get("count"), count)
            + _equal("passed", out.get("passed"), count)
            + _equal("failures", out.get("failures"), []))


def verify_instance_sizes(seed: int, count: int, max_points: int) -> list[tuple[int, int, int]]:
    """(|X|, l, |q_D(F)|) of the instances `effinfo verify` draws for a seed.

    Replays the public generator with the seeded `random.Random` that
    `verify_instances` uses; the restriction count comes from the numpy oracle.
    """
    from effinfo.instances import random_learning_instance

    rng = random.Random(seed)
    sizes = []
    for _ in range(count):
        fc, d = random_learning_instance(rng, 3, max_points)
        codes = np.array([sum(1 << i for i, s in enumerate(f.signs) if s > 0)
                          for f in fc.functions], dtype=np.int64)
        masks = restriction_masks(codes, np.array(d.indices))
        sizes.append((fc.pointset.size, d.length, int(np.unique(masks).size)))
    return sizes


@dataclass(frozen=True)
class VerifySpec:
    """`commands` x `verify --seed s --count count --max-points max_points`."""

    commands: int
    count: int
    max_points: int

    def _argv(self, seed: int, count: int) -> tuple[str, ...]:
        return ("--format", "machine", "verify", "--seed", str(seed),
                "--count", str(count), "--max-points", str(self.max_points))

    def make(self, rng: np.random.Generator, workdir: Path) -> Inputs:
        seeds = [int(s) for s in rng.integers(0, 2**31, size=self.commands + 1)]
        check = partial(check_verify, count=self.count)
        ops = tuple(Op(self._argv(s, self.count), check, 0) for s in seeds[1:])
        instances = [size for s in seeds[1:]
                     for size in verify_instance_sizes(s, self.count, self.max_points)]
        return Inputs(ops, self._argv(seeds[0], 1), _counters(instances))


# ----------------------------------------------------------------- channels

def channel_oracle(matrix: np.ndarray, prior: np.ndarray) -> dict:
    """Output distribution, ei per output and E[ei], from the posterior matrix."""
    p_out = prior @ matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        post = matrix * prior[:, None] / p_out[None, :]
        terms = np.where(post > 0.0, post * np.log2(post / prior[:, None]), 0.0)
    ei = terms.sum(axis=0)
    reach = p_out > 0.0
    return {"p_out": p_out, "ei": ei,
            "expected_ei": float(p_out[reach] @ ei[reach]),
            "h_prior": float(-(prior @ np.log2(prior))),
            "h_out": float(-(p_out[reach] @ np.log2(p_out[reach])))}


def check_ei(out: dict, *, oracle: dict, y: int) -> list[str]:
    return (_equal("command", out.get("command"), "ei")
            + _close("ei_bits", out.get("ei_bits"), float(oracle["ei"][y]))
            + _close("output_probability", out.get("output_probability"),
                     float(oracle["p_out"][y])))


def check_entropy(out: dict, *, oracle: dict) -> list[str]:
    return (_equal("command", out.get("command"), "entropy")
            + _close("expected_ei_bits", out.get("expected_ei_bits"), oracle["expected_ei"])
            + _close("prior_entropy_bits", out.get("prior_entropy_bits"), oracle["h_prior"])
            + _close("output_entropy_bits", out.get("output_entropy_bits"), oracle["h_out"]))


def check_mi(out: dict, *, oracle: dict) -> list[str]:
    return (_equal("command", out.get("command"), "mi")
            + _close("expected_ei_bits", out.get("expected_ei_bits"), oracle["expected_ei"])
            + _close("mutual_information_bits", out.get("mutual_information_bits"),
                     oracle["expected_ei"])
            + _equal("within_tolerance", out.get("within_tolerance"), True))


def channel_system(rng: np.random.Generator, kind: str, n: int) -> tuple[dict, np.ndarray]:
    """An n x n channel document with strictly positive entries, or a map document."""
    inputs = [f"x{i}" for i in range(n)]
    outputs = [f"y{j}" for j in range(n)]
    if kind == "map":
        table = rng.integers(0, n, size=n)
        matrix = np.zeros((n, n))
        matrix[np.arange(n), table] = 1.0
        return {"inputs": inputs, "outputs": outputs,
                "table": [outputs[j] for j in table]}, matrix
    matrix = rng.random((n, n)) + 0.01
    matrix /= matrix.sum(axis=1, keepdims=True)
    return {"inputs": inputs, "outputs": outputs, "matrix": matrix.tolist()}, matrix


@dataclass(frozen=True)
class ChannelSpec:
    """One command per (kind, n, command, file prior) entry of `docs`.

    kind is "channel" or "map"; without a file prior the CLI uses the uniform one.
    """

    docs: tuple[tuple[str, int, str, bool], ...]

    def make(self, rng: np.random.Generator, workdir: Path) -> Inputs:
        ops = []
        for i, (kind, n, command, file_prior) in enumerate(self.docs):
            doc, matrix = channel_system(rng, kind, n)
            path = workdir / f"system{i}.json"
            nbytes = _write(path, doc)
            argv = ["--format", "machine", command, str(path)]
            if file_prior:
                prior = rng.random(n) + 0.01
                prior /= prior.sum()
                prior_path = workdir / f"prior{i}.json"
                nbytes += _write(prior_path, {"probs": prior.tolist()})
                argv += ["--prior", str(prior_path)]
            else:
                prior = np.full(n, 1.0 / n)
            oracle = channel_oracle(matrix, prior)
            if command == "ei":
                # an output the map reaches, so p(y) > 0 and ei is defined
                y = int(rng.choice(np.flatnonzero(oracle["p_out"] > 0.0)))
                argv.insert(4, f"y{y}")
                check = partial(check_ei, oracle=oracle, y=y)
            else:
                check = partial(check_entropy if command == "entropy" else check_mi,
                                oracle=oracle)
            ops.append(Op(tuple(argv), check, nbytes))
        warm, _ = channel_system(rng, "channel", 20)
        warm_path = workdir / "warmup.json"
        _write(warm_path, warm)
        return Inputs(tuple(ops), ("--format", "machine", "entropy", str(warm_path)),
                      _counters(channel_ns=[n for _, n, _, _ in self.docs]))


def make_inputs(spec, seed: int, workdir: Path) -> Inputs:
    """Write the documents of one workload for `seed` and return its batch."""
    return spec.make(np.random.default_rng(seed), workdir)


# Sizes are fixed per workload; see NOTES.md for why each one exists.
WORKLOADS = {
    # |X| = l in 13..15 and |F| in 64..512 with 2^l * |F| <= 2^22: the 2^l
    # pattern sweep and the Rademacher matmul do nearly all the work.
    "learn_dense": LearnSpec(tuple(
        (l, l, size) for l in (13, 14, 15) for size in (64, 128, 256, 512)
        if (1 << l) * size <= 1 << 22)),
    # l in 8..10, |X| in 16..18, |F| in 4096..16384: at most 2^10 patterns,
    # so parsing, per-function construction, mask building and the embedded
    # instance in the report dominate. Cost grows with |F| (about 34 us per
    # function here), so only one class is at the top of the range.
    "learn_wide": LearnSpec(((16, 8, 4096), (17, 9, 4096), (18, 10, 4096),
                             (17, 9, 8192), (16, 8, 16384))),
    # 2000 instances at |X| <= 8, where fixed per-call overhead dominates.
    # At the CLI default --max-points 12 the largest 1% of instances take
    # 45% of the time, so the batch time would depend on the seed.
    "verify_small": VerifySpec(commands=50, count=40, max_points=8),
    # n x n systems, n in 100..500 weighted to small n; about a quarter are
    # maps and half read a file prior. The command times differ by up to 60x,
    # so the pooled latencies form one cluster per command. With 15 commands
    # the p50 and the p90 fall inside a cluster (the 8th and the 14th), not
    # in the gap between two.
    "channel": ChannelSpec((
        ("channel", 100, "ei", False), ("map", 100, "entropy", False),
        ("channel", 100, "mi", True), ("channel", 100, "entropy", True),
        ("map", 100, "mi", False), ("channel", 100, "ei", True),
        ("channel", 150, "ei", True), ("channel", 150, "entropy", False),
        ("map", 150, "mi", True), ("channel", 150, "entropy", True),
        ("channel", 200, "mi", False), ("map", 200, "ei", True),
        ("channel", 300, "entropy", True), ("channel", 300, "ei", False),
        ("channel", 500, "mi", False),
    )),
}
