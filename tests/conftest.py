"""Shared test helpers."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from effinfo import (
    Distribution,
    actual_repertoire,
    expected_effective_information,
    kl_divergence,
    mutual_information,
    output_distribution,
    shannon_entropy,
)
from effinfo import cube, learning
from effinfo.cli import build_parser
from effinfo.documents import parse_learning_instance, parse_prior, parse_system, prior_doc
from effinfo.instances import check_proposition1, check_proposition2
from effinfo.learning import DEFAULT_POINT_CAP, analyze_learner, vc_entropy


def reference_analysis(fc, d, cap=DEFAULT_POINT_CAP) -> learning.LearnerAnalysis:
    """The analysis of the reference search's distance counts of (F, D),
    from its restriction masks: the `reference` that `check_proposition2`
    and `check_falsification` compare a bare analysis with."""
    masks = learning._restriction_masks(fc, d, cap)
    (row,) = cube._reference_distance_counts(masks, [d.length])
    return learning.LearnerAnalysis(fc.pointset.size, d.length,
                                    learning._count_tuple(row, d.length), masks.size)


def negation_changes(flat, lengths) -> set[int]:
    """The rows of `cube`'s row layout whose histogram either kernel changes
    when each row's masks are complemented, as negating its class does: row
    r's complement is flat ^ (2^l_r - 1), as each row starts at a multiple
    of its size, and the complements are sorted back into the layout."""
    sizes = np.diff(flat.searchsorted(cube._row_starts(lengths)))
    complemented = np.sort(flat ^ np.repeat(np.left_shift(1, lengths) - 1, sizes))
    return {r for kernel in (cube._best_fit_counts, cube._reference_distance_counts)
            for r in np.flatnonzero(
                (kernel(flat, lengths) != kernel(complemented, lengths)).any(axis=1)).tolist()}


def _named_document(named: dict, path: str, stdin: str | None):
    """The document of the bytes a report names, once their path, SHA-256
    and size are the reported ones."""
    assert named["path"] == path
    data = stdin.encode("utf-8") if path == "-" else Path(path).read_bytes()
    assert named["sha256"] == hashlib.sha256(data).hexdigest()
    assert named["bytes"] == len(data)
    return json.loads(data.decode("utf-8"))


def replay_channel_report(report: dict, argv, stdin: str | None = None) -> None:
    """Replay a machine report of `ei`, `entropy` or `mi` from the input it names.

    `argv` is the command line that wrote the report; `stdin` is the text it
    read when its channel file is "-". The named bytes must have the reported
    SHA-256, size and input and output counts, and recomputing from them must
    give the whole report, every float exactly.
    """
    args = build_parser().parse_args([str(a) for a in argv])
    named = report["channel_file"]
    channel = parse_system(_named_document(named, args.channel_file, stdin))
    assert (named["inputs"], named["outputs"]) == (channel.input.size, channel.output.size)
    if args.prior:
        prior = parse_prior(json.loads(Path(args.prior).read_text()), channel.input)
    else:
        prior = Distribution.uniform(channel.input)
    expected = {"command": args.command, "channel_file": named, "prior": prior_doc(prior)}
    if args.command == "ei":
        out_dist = output_distribution(channel, prior)
        repertoire = actual_repertoire(channel, prior, args.output_symbol, out_dist)
        expected |= {
            "output_symbol": args.output_symbol,
            "output_probability": out_dist.prob(args.output_symbol),
            "ei_bits": kl_divergence(repertoire, prior),
            "actual_repertoire": prior_doc(repertoire),
            "output_distribution": prior_doc(out_dist),
        }
    elif args.command == "entropy":
        expected |= {
            "prior_entropy_bits": shannon_entropy(prior),
            "output_entropy_bits": shannon_entropy(output_distribution(channel, prior)),
            "expected_ei_bits": expected_effective_information(channel, prior),
        }
    else:
        expected_ei = expected_effective_information(channel, prior)
        mi = mutual_information(channel, prior)
        diff = abs(expected_ei - mi)
        expected |= {
            "expected_ei_bits": expected_ei,
            "mutual_information_bits": mi,
            "abs_difference": diff,
            "within_tolerance": diff < args.tolerance,
        }
    assert list(report) == list(expected)
    assert report == expected


def replay_learn_report(report: dict, argv, stdin: str | None = None) -> None:
    """Replay a machine report of `learn` from the instance file it names.

    As `replay_channel_report`: the named bytes must have the reported
    SHA-256, size and point and function counts, and the whole report must
    be what `analyze_learner`, `vc_entropy` and the two proposition checks
    give on them.
    """
    args = build_parser().parse_args([str(a) for a in argv])
    named = report["instance_file"]
    fc, d = parse_learning_instance(_named_document(named, args.instance_file, stdin))
    assert (named["points"], named["functions"]) == (fc.pointset.size, fc.size)
    a = analyze_learner(fc, d, args.cap)
    expected = {
        "command": "learn",
        "instance_file": named,
        "n_points": fc.pointset.size,
        "length": d.length,
        "class_size": fc.size,
        "vc_entropy_bits": vc_entropy(fc, d),
        "rademacher": str(a.rademacher),
        "expected_risk": str(a.expected_risk),
        "ei_bits": a.ei,
        "falsification": {
            "total_bits": float(a.n_points),
            "fitted_bits": a.fitted_bits,
            "falsified_bits": a.ei,
            "table": [{"risk": str(eps), "fraction": str(frac)}
                      for eps, frac in a.falsification_table],
        },
        "prop1_pass": not check_proposition1(a),
        "prop2_pass": not check_proposition2(a, reference_analysis(fc, d, args.cap)),
    }
    assert list(report) == list(expected)
    assert report == expected


@pytest.fixture
def replay():
    return replay_channel_report


@pytest.fixture
def replay_learn():
    return replay_learn_report
