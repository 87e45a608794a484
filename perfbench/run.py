"""End-to-end benchmark of the `effinfo` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Writes the workload's documents for the seed under .perfbench_work/, then
runs its fixed batch of commands in this process through
`effinfo.cli.main(argv)` with `--format machine`, repeating the batch until S
seconds have passed and the batch has run min_batches() times. Cold set-up
probes run between batches, spread over the run. A fixed reference workload
is timed between any two commands and around each probe, and every time is
scaled to the host speed it shows (see scaled()). Every output is checked by
the oracle in workloads.py. The last line of stdout is one JSON object: the
end-to-end metrics with --trace 0, and with --trace 1 the per-layer metrics of
a run that alternates untraced and traced batches (see tracer.py). Workloads
and metrics are described in NOTES.md.
"""
import os

# One thread per workload process, set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_OPS = 100  # executions, so the p90 latency has ten samples above it
MIN_BATCHES = 10  # executions per command, at least
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60

# Host-speed reference: a pure-Python integer loop and a JSON round trip of
# floats, the kinds of work that dominate the commands. The host's speed
# drifts by up to 1.5x over minutes, and the reference's time follows it.
REFERENCE_LOOP = 20_000
REFERENCE_FLOATS = np.random.default_rng(0).random(1500).tolist()
# Times are scaled to a host on which reference_s() takes this long: its
# median on the host described in NOTES.md.
REFERENCE_S = 0.0035

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "documents.load_json.calls": "count",
    "documents.load_json.self_s": "s",
    "documents.parse.calls": "count",
    "documents.parse.self_s": "s",
    "documents.input_bytes": "B",
    "learning.construct.calls": "count",
    "learning.construct.self_s": "s",
    "learning.restriction_count.calls": "count",
    "learning.restriction_count.self_s": "s",
    "learning.risk_distribution.calls": "count",
    "learning.risk_distribution.self_s": "s",
    "learning.rademacher.calls": "count",
    "learning.rademacher.self_s": "s",
    "learning.patterns_swept": "count",
    "learning.sweeps_per_instance": "ratio",
    "learning.views.self_s": "s",
    "instances.check_instance.calls": "count",
    "instances.check_instance.self_s": "s",
    "instances.generate.self_s": "s",
    "info.expected_ei.self_s": "s",
    "info.mutual_information.self_s": "s",
    "info.effective_information.calls": "count",
    "info.output_distribution.calls": "count",
    "info.kl_divergence.self_s": "s",
    "channels.construct.calls": "count",
    "channels.construct.self_s": "s",
    "deterministic.channel_of_map.self_s": "s",
    "cli.report.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_frac": "ratio",
    "host.reference_ms": "ms",
    **{name: ("B" if name.endswith("_bytes_max") else "count")
       for name in workloads.COUNTER_NAMES},
}
# Functions that take in one learning instance each.
INSTANCE_SOURCES = ("documents.parse_learning_instance", "instances.random_learning_instance")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Measurement:
    """Timed repetitions of one batch of commands."""

    batches: list = field(default_factory=list)  # scaled command seconds per batch
    latencies: list = field(default_factory=list)  # scaled seconds per execution, in run order
    raw: list = field(default_factory=list)  # the same, unscaled
    references: list = field(default_factory=list)  # reference_s() results
    setup: list = field(default_factory=list)  # scaled seconds per cold set-up probe
    attempted: int = 0
    failures: list = field(default_factory=list)
    output_bytes: int = 0  # of the first batch


def import_cli():
    """effinfo.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "effinfo" / "cli.py").is_file():
        raise BenchError(f"no effinfo sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from effinfo import cli

    if Path(cli.__file__).resolve().parent != SRC / "effinfo":
        raise BenchError(f"effinfo.cli imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, op: workloads.Op) -> tuple[float, list[str], int]:
    """Run one command; return its seconds, the oracle's problems and output bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception:  # a traceback is a failed command, not a crashed benchmark
            code = "traceback:\n" + traceback.format_exc()
        seconds = perf_counter() - start
    text = out.getvalue()
    return seconds, check_output(op, code, text, err.getvalue()), len(text.encode("utf-8"))


def check_output(op: workloads.Op, code, text: str, stderr: str = "") -> list[str]:
    if code != 0:
        return [f"exit {code}: {stderr.strip()}"]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"machine output is not JSON: {exc}"]
    if not isinstance(doc, dict):
        return ["machine output is not a JSON object"]
    return op.check(doc)


def reference_s() -> float:
    """Seconds that the fixed reference workload takes now."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    json.loads(json.dumps(REFERENCE_FLOATS))
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """seconds at the host speed of REFERENCE_S, from the references around it."""
    return seconds * 2 * REFERENCE_S / (before + after)


def run_batch(cli, ops, m: Measurement, tracer=None) -> None:
    """Run every command once, adding timings and failures to m."""
    gc.collect()
    total, nbytes = 0.0, 0
    before = reference_s()
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        seconds, problems, size = run_op(cli, op)
        after = reference_s()
        m.raw.append(seconds)
        m.references.append(after)
        m.latencies.append(scaled(seconds, before, after))
        before = after
        total += m.latencies[-1]
        nbytes += size
        m.attempted += 1
        if problems:
            m.failures.append((op.argv, problems))
    if tracer is not None:
        tracer.end_batch()
    if not m.batches:
        m.output_bytes = nbytes
    m.batches.append(total)


def min_batches(commands: int, min_ops: int) -> int:
    return max(MIN_BATCHES, math.ceil(min_ops / commands))


def measure(cli, ops, budget_s: float, min_ops: int, warmup_argv, probes: int) -> Measurement:
    """Repeat the batch until budget_s seconds have passed and min_batches() batches.

    Probe i of the cold set-up runs between batches once i/probes of the run
    has passed, so the probes meet the same host states as the batches.
    """
    m = Measurement()
    need = min_batches(len(ops), min_ops)
    start = perf_counter()
    done = 0.0
    while done < 1:
        run_batch(cli, ops, m)
        elapsed = perf_counter() - start
        done = min(elapsed / budget_s if budget_s > 0 else 1, len(m.batches) / need)
        while len(m.setup) < math.ceil(probes * min(done, 1)):
            m.setup.append(probe_setup(warmup_argv))
    return m


def probe_setup(warmup_argv) -> float:
    """Scaled seconds to import effinfo.cli and run the warm-up command, cold."""
    before = reference_s()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(list(warmup_argv))],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}") from None
    if result["exit"] != 0:
        raise BenchError(f"warm-up command exited {result['exit']}")
    return scaled(result["setup_s"], before, reference_s())


def peak_private_mb() -> float:
    """ru_maxrss less the file-backed pages resident now, in MiB.

    Those are mostly the shared libraries. How many of their pages the kernel
    maps depends on the host's page cache, and it moved ru_maxrss by 5 %
    between runs of the same inputs.
    """
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("RssFile:"):
                return (peak_kb - int(line.split()[1])) / 1024
    raise BenchError("no RssFile line in /proc/self/status")


def end_to_end_metrics(m: Measurement, commands: int) -> dict:
    """Medians and percentiles over every scaled execution of the run.

    wall_s sums each command's median time, the time of a typical batch.
    """
    executions = np.array(m.latencies).reshape(-1, commands)
    p50_ms, p90_ms = np.percentile(executions * 1e3, [50, 90])
    return {
        "setup_s": statistics.median(m.setup),
        "wall_s": float(np.median(executions, axis=0).sum()),
        "op_p50_ms": float(p50_ms),
        "op_p90_ms": float(p90_ms),
        "peak_rss_mb": peak_private_mb(),
        "ok_frac": 1 - len(m.failures) / m.attempted,
    }


def traced_measure(cli, ops, budget_s: float) -> tuple[Measurement, Measurement, Tracer]:
    """Alternate untraced and traced batches, so that both meet the same host states."""
    plain, traced, tracer = Measurement(), Measurement(), Tracer()
    start = perf_counter()
    while not traced.batches or perf_counter() - start < budget_s:
        run_batch(cli, ops, plain)
        tracer.install()
        try:
            run_batch(cli, ops, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced, tracer


def per_layer_metrics(plain: Measurement, traced: Measurement, tracer: Tracer,
                      inputs: workloads.Inputs) -> dict:
    batches = tracer.batches
    calls, self_s = tracer.calls, tracer.self_s
    instances = sum(tracer.func_calls[f] for f in INSTANCE_SOURCES)
    sweeps = calls["learning.risk_distribution"] + calls["learning.rademacher"]
    metrics = {}
    for name in PER_LAYER:
        layer, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = calls[layer] / batches
        elif kind == "self_s":
            metrics[name] = self_s[layer] / batches
    metrics.update({
        "documents.input_bytes": sum(op.input_bytes for op in inputs.ops),
        "learning.patterns_swept": tracer.patterns_swept / batches,
        "learning.sweeps_per_instance": sweeps / instances if instances else 0.0,
        "cli.output_bytes": plain.output_bytes,
        # each traced batch against the untraced batch just before it
        "trace.overhead_frac": statistics.median(
            t / p for t, p in zip(traced.batches, plain.batches)) - 1,
        "host.reference_ms": statistics.median(plain.references + traced.references) * 1e3,
        **inputs.counters,
    })
    return {name: metrics[name] for name in PER_LAYER}


def run(spec, seed: int, seconds: float, trace: bool, workdir: Path,
        min_ops: int = MIN_OPS, probes: int = SETUP_PROBES) -> dict:
    """Set up, measure and check one workload; return the result object."""
    cli = import_cli()
    inputs = workloads.make_inputs(spec, seed, workdir)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(list(inputs.warmup))
    if trace:
        plain, traced, tracer = traced_measure(cli, inputs.ops, seconds)
        metrics = per_layer_metrics(plain, traced, tracer, inputs)
        units = PER_LAYER
        runs = [plain, traced]
    else:
        plain = measure(cli, inputs.ops, seconds, min_ops, inputs.warmup, probes)
        metrics = end_to_end_metrics(plain, len(inputs.ops))
        raw_p50, raw_p90 = np.percentile(np.array(plain.raw) * 1e3, [50, 90])
        print(f"{len(plain.batches)} batches; latency samples: {len(plain.latencies)}; "
              f"set-up probes: {len(plain.setup)}")
        print(f"unscaled: op_p50_ms={raw_p50:.2f} op_p90_ms={raw_p90:.2f}; "
              f"reference median {statistics.median(plain.references) * 1e3:.3f} ms "
              f"against {REFERENCE_S * 1e3:g} ms")
        units = END_TO_END
        runs = [plain]
    attempted = sum(m.attempted for m in runs)
    failures = [f for m in runs for f in m.failures]
    for argv, problems in failures[:5]:
        print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
    print(f"{len(inputs.ops)} commands per batch")
    print("inputs (computed): " + ", ".join(f"{k}={v}" for k, v in inputs.counters.items()))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once no other run is using it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
