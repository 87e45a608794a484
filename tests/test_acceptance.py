"""Acceptance suite: every exit criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion. Criteria 1, 2, and 8 share one seeded family of 500 random
learning instances with 3 <= |X| <= 12; criteria 3, 4, and 6 share seeded
random channels and priors.
"""
import functools
import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from effinfo import (
    Alphabet,
    Channel,
    Dataset,
    DeterministicMap,
    Distribution,
    FunctionClass,
    Labeling,
    PointSet,
    actual_repertoire,
    actual_repertoire_det,
    analyze_learner,
    channel_of_map,
    copy_channel,
    effective_information,
    effective_probability,
    ei_deterministic,
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
from effinfo.cli import main
from effinfo.documents import (
    channel_doc,
    learning_instance_doc,
    map_doc,
    parse_channel,
    parse_learning_instance,
    parse_map,
    parse_prior,
    prior_doc,
)
from effinfo.errors import UndefinedOutputError
from effinfo.instances import (
    check_falsification,
    check_proposition1,
    check_proposition2,
    random_channel,
    random_learning_instance,
    random_prior,
)
from conftest import reference_counts

DATA = Path(__file__).parent / "data"
SEED = 20260811
N_LEARNING_INSTANCES = 500
N_CHANNEL_INSTANCES = 200


def _report(criterion, description):
    print(f"[acceptance] criterion {criterion} ({description}): PASS")


@functools.lru_cache(maxsize=1)
def learning_family():
    rng = random.Random(SEED)
    return tuple(random_learning_instance(rng, min_points=3, max_points=12)
                 for _ in range(N_LEARNING_INSTANCES))


@functools.lru_cache(maxsize=1)
def channel_family():
    rng = random.Random(SEED + 1)
    instances = []
    for _ in range(N_CHANNEL_INSTANCES):
        m = random_channel(rng, rng.randint(1, 8), rng.randint(1, 8))
        instances.append((m, random_prior(rng, m.input)))
    return tuple(instances)


@functools.lru_cache(maxsize=1)
def prior_family():
    rng = random.Random(SEED + 2)
    priors = []
    for _ in range(N_CHANNEL_INSTANCES):
        alphabet = Alphabet([f"s{i}" for i in range(rng.randint(1, 16))])
        priors.append(random_prior(rng, alphabet))
    return tuple(priors)


def test_criterion_1_proposition_1_exact():
    start = time.monotonic()
    failures = [msg for fc, d in learning_family()
                for msg in check_proposition1(analyze_learner(fc, d))]
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 60.0
    _report(1, f"ei(L,0) = l - V exactly on {N_LEARNING_INSTANCES} instances, "
               f"{elapsed:.1f}s")


def test_criterion_2_proposition_2_exact():
    start = time.monotonic()
    failures = [msg for fc, d in learning_family()
                for msg in check_proposition2(analyze_learner(fc, d), reference_counts(fc, d))]
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 60.0
    _report(2, f"E[eps] = (1 - R)/2 exactly on {N_LEARNING_INSTANCES} instances, "
               f"{elapsed:.1f}s")


def test_criterion_3_shannon_identity():
    worst = 0.0
    for prior in prior_family():
        copy = copy_channel(prior.alphabet)
        gap = abs(shannon_entropy(prior)
                  - expected_effective_information(copy, prior))
        worst = max(worst, gap)
        assert gap < 1e-9
    _report(3, f"H(X) = E[ei] over copy channels, {len(prior_family())} priors, "
               f"worst gap {worst:.2e}")


def test_criterion_4_mutual_information_identity():
    worst = 0.0
    for m, prior in channel_family():
        gap = abs(expected_effective_information(m, prior)
                  - mutual_information(m, prior))
        worst = max(worst, gap)
        assert gap < 1e-9
    _report(4, f"E[ei] = MI double-sum on {len(channel_family())} channels, "
               f"worst gap {worst:.2e}")


def test_criterion_5_deterministic_consistency():
    checked = 0
    for n_inputs in (1, 2, 3, 4):
        for n_outputs in (1, 2, 3):
            inputs = Alphabet([f"x{i}" for i in range(n_inputs)])
            outputs = Alphabet([f"y{j}" for j in range(n_outputs)])
            for table in itertools.product(outputs.labels, repeat=n_inputs):
                f = DeterministicMap(inputs, outputs, table)
                m = channel_of_map(f)
                uniform = Distribution.uniform(inputs)
                for y in outputs.labels:
                    p_eff = effective_probability(f, y)
                    if p_eff == 0:
                        with pytest.raises(UndefinedOutputError):
                            ei_deterministic(f, y)
                        continue
                    closed = ei_deterministic(f, y)
                    assert abs(closed - effective_information(m, uniform, y)) < 1e-9
                    assert abs(closed - (-math.log2(p_eff))) < 1e-9
                    assert np.allclose(actual_repertoire_det(f, y).probs,
                                       actual_repertoire(m, uniform, y).probs,
                                       atol=1e-9)
                checked += 1
    _report(5, f"closed form = channel pipeline on all {checked} maps "
               f"with |X| <= 4, |Y| <= 3")


def test_criterion_6_bayes_consistency_and_kl_nonnegativity():
    pairs = 0
    for m, prior in channel_family():
        out = output_distribution(m, prior)
        mixture = np.zeros(m.input.size)
        for y, p_y in zip(m.output.labels, out.probs):
            if p_y == 0.0:
                continue
            rep = actual_repertoire(m, prior, y)
            mixture += p_y * rep.probs
            kl = kl_divergence(rep, prior)
            assert kl >= 0.0
            assert (kl == 0.0) == bool(
                np.allclose(rep.probs, prior.probs, rtol=0.0, atol=1e-9))
            pairs += 1
        assert np.allclose(mixture, prior.probs, rtol=0.0, atol=1e-9)
    for prior in prior_family():
        copy = copy_channel(prior.alphabet)
        for symbol in prior.alphabet.labels:
            rep = actual_repertoire(copy, prior, symbol + "'")
            kl = kl_divergence(rep, prior)
            assert kl >= 0.0
            assert (kl == 0.0) == bool(
                np.allclose(rep.probs, prior.probs, rtol=0.0, atol=1e-9))
            pairs += 1
    _report(6, f"Bayes consistency and KL >= 0 (= 0 iff equal) on {pairs} "
               f"repertoire/prior pairs")


def test_criterion_7_boundary_cases():
    # shattering class: every labeling of X is available
    ps = PointSet(["a", "b", "c"])
    full = FunctionClass(ps, [
        Labeling(ps, tuple(1 if (c >> i) & 1 else -1 for i in range(3)))
        for c in range(8)
    ])
    d = Dataset(ps, (0, 1, 2))
    assert vc_entropy(full, d) == 3.0
    assert ei_of_learner(full, d) == 0.0
    assert rademacher(full, d) == 1
    assert expected_risk(full, d) == 0

    # singleton class on l distinct points
    ps5 = PointSet([f"p{i}" for i in range(5)])
    single = FunctionClass(ps5, [Labeling(ps5, (1,) * 5)])
    d3 = Dataset(ps5, (0, 2, 4))
    assert vc_entropy(single, d3) == 0.0
    assert ei_of_learner(single, d3) == 3.0

    # constant channel: one reachable output, no information
    matrix = np.zeros((4, 4))
    matrix[:, 0] = 1.0
    constant = Channel(Alphabet(["x0", "x1", "x2", "x3"]),
                       Alphabet(["y0", "y1", "y2", "y3"]), matrix)
    uniform = Distribution.uniform(constant.input)
    assert effective_information(constant, uniform, "y0") == 0.0
    assert mutual_information(constant, uniform) == 0.0
    assert expected_effective_information(constant, uniform) == 0.0
    _report(7, "shattering / singleton / constant-channel boundary values exact")


def test_criterion_8_falsification_report_coherence():
    failures = [msg for fc, d in learning_family()
                for msg in check_falsification(analyze_learner(fc, d), reference_counts(fc, d))]
    assert failures == []
    _report(8, f"falsification table = the reference search's histogram on "
               f"{N_LEARNING_INSTANCES} instances")


def test_criterion_9_cli_round_trip_and_exit_codes(capsys, tmp_path, replay, replay_learn):
    # exit code 0 with golden output on the channel schema
    assert main(["ei", str(DATA / "identity8.json"), "y3"]) == 0
    assert capsys.readouterr().out == (DATA / "golden" / "ei_identity8_y3.txt").read_text()

    # a machine-mode channel report replays from the file it names, and the
    # documents re-parse to equal objects, all four schemas
    original_channel = parse_channel(json.loads((DATA / "half_split.json").read_text()))
    argv = ["--format", "machine", "ei", str(DATA / "half_split.json"), "y1"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    replay(doc, argv)
    assert parse_prior(doc["prior"], original_channel.input) == Distribution.uniform(
        original_channel.input)
    assert parse_prior(doc["actual_repertoire"], original_channel.input) == (
        actual_repertoire(original_channel, Distribution.uniform(original_channel.input), "y1"))

    original_map = parse_map(json.loads((DATA / "map3to1.json").read_text()))
    assert parse_map(map_doc(original_map)) == original_map

    original_instance = parse_learning_instance(
        json.loads((DATA / "instance_shatter.json").read_text()))
    assert parse_learning_instance(learning_instance_doc(*original_instance)) == original_instance
    argv = ["--format", "machine", "learn", str(DATA / "instance_shatter.json")]
    assert main(argv) == 0
    replay_learn(json.loads(capsys.readouterr().out), argv)

    prior = parse_prior(json.loads((DATA / "prior3.json").read_text()),
                        Alphabet(["a", "b", "c"]))
    assert parse_prior(prior_doc(prior), prior.alphabet) == prior
    assert channel_doc(parse_channel(channel_doc(original_channel))) == channel_doc(
        original_channel)

    # exit-code contract: 0 covered above
    assert main(["ei", str(DATA / "identity8.json"), "zz"]) == 2       # input error
    assert main(["ei", str(DATA / "constant4.json"), "y1"]) == 3       # undefined
    assert main(["--cap", "1", "learn", str(DATA / "instance_constant.json")]) == 4
    assert main(["--tolerance", "0", "mi", str(DATA / "half_split.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["ei", str(bad), "y0"]) == 2                           # parse failure
    capsys.readouterr()
    _report(9, "golden files, a channel and a learn report replayed from their files, machine "
               "round-trips on all four schemas, "
               "exit codes 0/1/2/3/4")
