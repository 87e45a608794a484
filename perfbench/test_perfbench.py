"""Tests of the benchmark itself: inputs, oracle, tracer and a tiny run of every workload.

Run from the repository root with `python3 -m pytest perfbench`.
"""
import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import run
import workloads
from tracer import Tracer, layer_of

ROOT = Path(__file__).resolve().parent.parent

# Same spec types as workloads.WORKLOADS, at sizes that run in milliseconds.
TINY = {
    "learn_dense": workloads.LearnSpec(((6, 6, 8), (7, 7, 16))),
    "learn_wide": workloads.LearnSpec(((9, 4, 64), (10, 5, 128))),
    "verify_small": workloads.VerifySpec(commands=3, count=2, max_points=5),
    "channel": workloads.ChannelSpec((
        ("channel", 5, "ei", True), ("map", 6, "entropy", False),
        ("channel", 4, "mi", True), ("map", 5, "ei", False),
        ("channel", 3, "entropy", True), ("map", 4, "mi", False),
    )),
}

# One oracle-checked field per command, and a corruption of it.
TAMPER = {
    "learn": ("vc_entropy_bits", lambda v: v + 1e-6),
    "verify": ("passed", lambda v: v - 1),
    "ei": ("ei_bits", lambda v: v + 1e-6),
    "entropy": ("expected_ei_bits", lambda v: v + 1e-6),
    "mi": ("mutual_information_bits", lambda v: v - 1e-6),
}


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def _snapshot(inputs, workdir: Path):
    argv = [tuple(a.replace(str(workdir), "<dir>") for a in op.argv) for op in inputs.ops]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return argv, files, inputs.counters


def test_tiny_specs_cover_every_workload():
    assert TINY.keys() == workloads.WORKLOADS.keys()
    for name, spec in TINY.items():
        assert type(spec) is type(workloads.WORKLOADS[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_inputs_are_deterministic_per_seed(cli, tmp_path, name):
    snaps = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = tmp_path / label
        workdir.mkdir()
        snaps[label] = _snapshot(workloads.make_inputs(TINY[name], seed, workdir), workdir)
    assert snaps["a"] == snaps["b"]
    assert snaps["a"][:2] != snaps["c"][:2]


def _machine_output(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(TINY))
def test_oracle_accepts_outputs_and_rejects_tampered_ones(cli, tmp_path, name):
    inputs = workloads.make_inputs(TINY[name], 7, tmp_path)
    for op in inputs.ops:
        text = _machine_output(cli, op.argv)
        assert run.check_output(op, 0, text) == [], op.argv
        doc = json.loads(text)
        key, corrupt = TAMPER[doc["command"]]
        doc[key] = corrupt(doc[key])
        assert run.check_output(op, 0, json.dumps(doc)), (op.argv, key)
        doc[key] = float("nan")
        assert run.check_output(op, 0, json.dumps(doc)), (op.argv, key)
        assert run.check_output(op, 0, text[:-3])
        assert run.check_output(op, 1, text)


def test_corrupted_program_output_counts_as_failed(cli, tmp_path, monkeypatch):
    original = cli.vc_entropy
    monkeypatch.setattr(cli, "vc_entropy", lambda fc, d: original(fc, d) + 0.25)
    result = run.run(TINY["learn_dense"], 1, 0.0, False, tmp_path, min_ops=1, probes=1)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_timing_metrics_are_medians_of_scaled_executions():
    commands, batches = 4, 11
    latencies = np.ones((batches, commands))
    latencies[:, 3] = 3.0
    latencies[1] = 100.0  # one transient batch moves no median
    m = run.Measurement(latencies=latencies.ravel().tolist(), attempted=batches * commands,
                        setup=[0.3, 0.1, 0.2])
    metrics = run.end_to_end_metrics(m, commands)
    assert metrics["wall_s"] == 6.0
    assert metrics["op_p50_ms"] == 1000.0
    assert metrics["op_p90_ms"] == 3000.0
    assert metrics["setup_s"] == 0.2


def test_scaling_divides_out_the_host_speed():
    ref = run.REFERENCE_S
    assert run.scaled(0.5, ref, ref) == 0.5
    assert run.scaled(0.5, 2 * ref, 2 * ref) == 0.25  # a host at half speed
    assert math.isclose(run.scaled(0.5, ref, 3 * ref), 0.25)
    assert 0 < run.reference_s() < 1


def test_measure_spreads_the_requested_probes(cli, tmp_path):
    inputs = workloads.make_inputs(TINY["channel"], 4, tmp_path)
    m = run.measure(cli, inputs.ops, 0.0, 1, inputs.warmup, 3)
    assert len(m.batches) == run.MIN_BATCHES
    assert len(m.setup) == 3 and all(s > 0 for s in m.setup)
    executions = run.MIN_BATCHES * len(inputs.ops)
    assert len(m.latencies) == len(m.raw) == len(m.references) == executions


@pytest.mark.parametrize("func, layer", [
    ("documents.load_json", "documents.load_json"),
    ("documents.parse_system", "documents.parse"),
    ("documents.channel_doc", "cli.report"),
    ("documents.learning_instance_doc", "cli.report"),
    ("cli.cmd_entropy", "cli.report"),
    ("learning.expected_risk", "learning.views"),
    ("instances.random_learning_instance", "instances.generate"),
])
def test_layer_names(func, layer):
    assert layer_of(func) == layer


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_of_every_workload(cli, tmp_path, name, trace):
    result = run.run(TINY[name], 3, 0.05, trace, tmp_path, min_ops=1, probes=1)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = declared["per_layer"] if trace else declared["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_benchmark_json_names_every_workload_and_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER


def test_traced_learn_reaches_every_learning_layer(cli, tmp_path):
    inputs = workloads.make_inputs(TINY["learn_dense"], 2, tmp_path)
    _, _, tracer = run.traced_measure(cli, inputs.ops[:1], 0.0)
    calls = tracer.calls
    for layer in ("documents.load_json", "documents.parse", "learning.construct",
                  "learning.restriction_count", "learning.risk_distribution",
                  "learning.rademacher", "cli.report"):
        assert calls[layer] >= 1, layer
    assert tracer.patterns_swept == (calls["learning.risk_distribution"]
                                     + calls["learning.rademacher"]) << 6


def _effinfo_functions():
    """(module, name, function) for each public effinfo function in each namespace."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "effinfo" and not mod_name.startswith("effinfo."):
            continue
        for name, obj in vars(mod).items():
            home = getattr(obj, "__module__", "") or ""
            if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                    and home.startswith("effinfo.") and obj.__name__ == name):
                yield mod, name, obj


def test_tracer_patches_from_imported_names_and_uninstalls(cli):
    imported = [(m, n) for m, n, f in _effinfo_functions()
                if m is cli and f.__module__ != cli.__name__]
    assert imported, "cli binds no functions of other effinfo modules"
    before = {(m.__name__, n): f for m, n, f in _effinfo_functions()}
    tracer = Tracer()
    tracer.install()
    try:
        for mod, name, func in _effinfo_functions():
            assert hasattr(func, "__wrapped__"), f"{mod.__name__}.{name} not traced"
            assert func.__wrapped__ is before[(mod.__name__, name)]
    finally:
        tracer.uninstall()
    assert {(m.__name__, n): f for m, n, f in _effinfo_functions()} == before


def test_self_time_excludes_children():
    inner = types.ModuleType("fakepkg.inner")
    outer = types.ModuleType("fakepkg.outer")

    def work():
        time.sleep(0.05)

    def wrapper():
        time.sleep(0.005)
        outer.work()

    work.__module__, wrapper.__module__ = inner.__name__, outer.__name__
    inner.work = outer.work = work  # outer binds work as `from .inner import work` would
    outer.wrapper = wrapper
    mods = {inner.__name__: inner, outer.__name__: outer}
    sys.modules.update(mods)
    tracer = Tracer("fakepkg")
    try:
        tracer.install()
        start = time.perf_counter()
        outer.wrapper()
        elapsed = time.perf_counter() - start
        tracer.uninstall()
    finally:
        for name in mods:
            del sys.modules[name]
    tracer.end_batch()
    calls, self_s = tracer.calls, tracer.self_s
    assert calls == {"outer.wrapper": 1, "inner.work": 1}
    assert self_s["inner.work"] >= 0.05 > self_s["outer.wrapper"] >= 0.005
    assert self_s["inner.work"] + self_s["outer.wrapper"] <= elapsed
    assert outer.work is work and inner.work is work


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "channel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench_work").exists()
