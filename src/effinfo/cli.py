"""Command-line interface: file ingestion, dispatch, and reporting.

Commands read the JSON document schemas from `documents` (filename "-" means
stdin) and print either a human-readable table or a machine-readable JSON
document. A machine report of `ei`, `entropy` or `mi` names its channel input
as `channel_file` (path, SHA-256 and size of the bytes read, input and output
counts), and one of `learn` names its instance as `instance_file` (the same,
with point and function counts). `learn` runs every check that `verify`
runs, on its one instance, and writes each failing check's messages to
stderr. Exit codes: 0 success, 1 verification failure, 2 input/validation
error, 3 undefined quantity (zero-probability output), 4 enumeration cap,
141 stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import documents
from .channels import Distribution
from .errors import EnumerationCapError, UndefinedOutputError, ValidationError
from .info import (
    actual_repertoire,
    expected_effective_information,
    kl_divergence,
    mutual_information,
    output_distribution,
    shannon_entropy,
)
from .instances import checked_analysis, verify_instances
from .learning import DEFAULT_POINT_CAP, vc_entropy

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_UNDEFINED = 3
EXIT_CAP = 4
EXIT_BROKEN_PIPE = 128 + 13  # as a shell reports a process ended by SIGPIPE


def _bits(value: float) -> str:
    return f"{value:.6f} bits"


def _rational(value: Fraction) -> str:
    return f"{value} ({float(value):.6f})"


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


# The name that each check of `checked_analysis` fails under on stderr.
CHECK_NAMES = {"prop1": "Prop1 (ei = l - V)", "prop2": "Prop2 (E[eps] = (1 - R)/2)",
               "falsification": "falsification table (against the reference search)",
               "bounds": "restriction bounds"}


def _load_channel_and_prior(args):
    """The channel, the prior, and the `channel_file` member that names the
    channel's input in a machine report."""
    doc, source = documents.load_json(args.channel_file)
    channel = documents.parse_system(doc)
    del doc  # only the parsed matrix is kept
    if args.prior:
        prior = documents.parse_prior(documents.load_json(args.prior)[0], channel.input)
    else:
        prior = Distribution.uniform(channel.input)
    return channel, prior, {**source, "inputs": channel.input.size,
                            "outputs": channel.output.size}


def cmd_ei(args) -> int:
    channel, prior, channel_file = _load_channel_and_prior(args)
    out_dist = output_distribution(channel, prior)
    repertoire = actual_repertoire(channel, prior, args.output_symbol, out_dist)
    ei = kl_divergence(repertoire, prior)
    if args.format == "machine":
        _emit({
            "command": "ei",
            "channel_file": channel_file,
            "prior": documents.prior_doc(prior),
            "output_symbol": args.output_symbol,
            "output_probability": out_dist.prob(args.output_symbol),
            "ei_bits": ei,
            "actual_repertoire": documents.prior_doc(repertoire),
            "output_distribution": documents.prior_doc(out_dist),
        })
        return EXIT_OK
    print(f"channel: {channel.input.size} inputs -> {channel.output.size} outputs")
    print(f"output symbol: {args.output_symbol}")
    print(f"p({args.output_symbol}) = {out_dist.prob(args.output_symbol):.6f}")
    print(f"ei = {_bits(ei)}")
    print("actual repertoire:")
    for symbol, p in zip(repertoire.alphabet.labels, repertoire.probs):
        print(f"  {symbol}  {p:.6f}")
    print("output distribution:")
    for symbol, p in zip(out_dist.alphabet.labels, out_dist.probs):
        print(f"  {symbol}  {p:.6f}")
    return EXIT_OK


def cmd_entropy(args) -> int:
    channel, prior, channel_file = _load_channel_and_prior(args)
    out_dist = output_distribution(channel, prior)
    h_prior = shannon_entropy(prior)
    h_out = shannon_entropy(out_dist)
    expected_ei = expected_effective_information(channel, prior)
    if args.format == "machine":
        _emit({
            "command": "entropy",
            "channel_file": channel_file,
            "prior": documents.prior_doc(prior),
            "prior_entropy_bits": h_prior,
            "output_entropy_bits": h_out,
            "expected_ei_bits": expected_ei,
        })
        return EXIT_OK
    print(f"H(prior) = {_bits(h_prior)}")
    print(f"H(output) = {_bits(h_out)}")
    print(f"E[ei] = {_bits(expected_ei)}")
    return EXIT_OK


def cmd_mi(args) -> int:
    channel, prior, channel_file = _load_channel_and_prior(args)
    expected_ei = expected_effective_information(channel, prior)
    mi = mutual_information(channel, prior)
    diff = abs(expected_ei - mi)
    ok = diff < args.tolerance
    if args.format == "machine":
        _emit({
            "command": "mi",
            "channel_file": channel_file,
            "prior": documents.prior_doc(prior),
            "expected_ei_bits": expected_ei,
            "mutual_information_bits": mi,
            "abs_difference": diff,
            "within_tolerance": ok,
        })
    else:
        print(f"E[ei] = {_bits(expected_ei)}")
        print(f"MI = {_bits(mi)}")
        verdict = "PASS" if ok else "FAIL"
        print(f"|E[ei] - MI| = {diff:.6e} (< {args.tolerance:g}: {verdict})")
    return EXIT_OK if ok else EXIT_VERIFY_FAILURE


def cmd_learn(args) -> int:
    doc, source = documents.load_json(args.instance_file)
    fc, dataset = documents.parse_learning_instance(doc)
    del doc  # only the parsed class and dataset are kept
    a, failed = checked_analysis(fc, dataset, args.cap)
    v = vc_entropy(fc, dataset)
    prop1_ok, prop2_ok = "prop1" not in failed, "prop2" not in failed
    # With no perfect fit, ei(L,0) and the report are undefined, so none is
    # printed; the failed checks, Prop 1 among them, say why.
    if a.pattern_counts[0] and args.format == "machine":
        _emit({
            "command": "learn",
            "instance_file": {**source, "points": fc.pointset.size, "functions": fc.size},
            "n_points": fc.pointset.size,
            "length": dataset.length,
            "class_size": fc.size,
            "vc_entropy_bits": v,
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
            "prop1_pass": prop1_ok,
            "prop2_pass": prop2_ok,
        })
    elif a.pattern_counts[0]:
        print(f"points |X| = {fc.pointset.size}")
        print(f"dataset length l = {dataset.length}")
        print(f"class size |F| = {fc.size}")
        print(f"VC-entropy V = {_bits(v)}")
        print(f"Rademacher R = {_rational(a.rademacher)}")
        print(f"expected risk E[eps] = {_rational(a.expected_risk)}")
        print(f"ei(L, 0) = {_bits(a.ei)}")
        print("falsification report:")
        print(f"  total hypotheses = {_bits(a.n_points)}")
        print(f"  fitted = {_bits(a.fitted_bits)}")
        print(f"  falsified = {_bits(a.ei)}")
        print("  best-fit risk / fraction of hypotheses:")
        for eps, frac in a.falsification_table:
            print(f"    {str(eps):<8} {_rational(frac)}")
        print(f"Prop1 (ei = l - V): {'PASS' if prop1_ok else 'FAIL'}")
        print(f"Prop2 (E[eps] = (1 - R)/2): {'PASS' if prop2_ok else 'FAIL'}")
    for name, msgs in failed.items():
        print(f"{CHECK_NAMES[name]}: FAIL", *(f"  - {msg}" for msg in msgs),
              sep="\n", file=sys.stderr)
    return EXIT_VERIFY_FAILURE if failed else EXIT_OK


def cmd_verify(args) -> int:
    result = verify_instances(args.seed, args.count, args.min_points,
                              args.max_points, args.cap)
    if args.format == "machine":
        _emit({
            "command": "verify",
            "seed": args.seed,
            "count": result.total,
            "passed": result.passed,
            "failures": [{"instance": i, "messages": list(msgs)}
                         for i, msgs in result.failures],
        })
    else:
        for i, msgs in result.failures:
            print(f"instance {i} FAIL:")
            for msg in msgs:
                print(f"  - {msg}")
        print(f"{result.passed}/{result.total} instances PASS")
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effinfo",
        description="Effective information and ERM capacities for finite discrete systems.")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="mi passes when |E[ei] - MI| is below this finite "
                             "bound > 0 (default 1e-9); no other command reads it")
    parser.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP,
                        help="largest dataset length l to analyze (a best-fit table of 2^l "
                             "sign patterns, about 2 bytes a pattern at its peak); "
                             "default 20, at most 32")
    parser.add_argument("--format", choices=("table", "machine"), default="table",
                        help="human-readable table or machine-readable JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ei = sub.add_parser("ei", help="effective information of one output symbol")
    p_ei.add_argument("channel_file", help="channel document ('-' for stdin)")
    p_ei.add_argument("output_symbol", help="observed output symbol")
    p_ei.add_argument("--prior", help="prior document (default: uniform)")

    p_entropy = sub.add_parser("entropy", help="entropies and expected ei of a channel")
    p_entropy.add_argument("channel_file", help="channel document ('-' for stdin)")
    p_entropy.add_argument("--prior", help="prior document (default: uniform)")

    p_mi = sub.add_parser("mi", help="mutual information two ways, with their difference")
    p_mi.add_argument("channel_file", help="channel document ('-' for stdin)")
    p_mi.add_argument("--prior", help="prior document (default: uniform)")

    p_learn = sub.add_parser("learn", help="capacities and falsification for an ERM instance")
    p_learn.add_argument("instance_file", help="learning-instance document ('-' for stdin)")

    p_verify = sub.add_parser("verify", help="seeded randomized identity checks")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--count", type=int, default=500)
    p_verify.add_argument("--min-points", type=int, default=3)
    p_verify.add_argument("--max-points", type=int, default=12)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; `parse_args` leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    # a name stdout's encoding cannot spell is escaped, as on stderr, not raised
    if reconfigure := getattr(sys.stdout, "reconfigure", None):
        reconfigure(errors="backslashreplace")
    args = _parser().parse_args(argv)
    try:
        # mi passes on |E[ei] - MI| < tolerance, which no tolerance <= 0 allows
        if not (math.isfinite(args.tolerance) and args.tolerance > 0):
            raise ValidationError(
                f"--tolerance must be a finite number > 0, got {args.tolerance}")
        if args.cap < 1:
            raise ValidationError(f"--cap must be >= 1, got {args.cap}")
        # looked up per call, so a wrapper installed on `cmd_<command>` is run
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a reader that left is met here, not at exit
        return code
    except BrokenPipeError:
        # fd 1 goes to /dev/null, so the interpreter's final flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except UndefinedOutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
