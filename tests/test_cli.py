"""Golden-file and exit-code tests for the command-line interface."""
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from effinfo import documents
from effinfo.cli import main
from effinfo.documents import parse_channel, parse_prior

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"
GOLDEN = DATA / "golden"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def golden(name):
    return (GOLDEN / name).read_text()


def _process_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))


def run_process(*argv):
    """Run the CLI in a fresh interpreter, so that a traceback reaches stderr."""
    return subprocess.run(
        [sys.executable, "-m", "effinfo.cli", *map(str, argv)],
        capture_output=True, text=True, env=_process_env(), timeout=60, check=False)


class TestGoldenOutputs:
    def test_ei_identity_channel(self, capsys):
        code, out, _ = run(capsys, "ei", DATA / "identity8.json", "y3")
        assert code == 0
        assert out == golden("ei_identity8_y3.txt")
        assert "ei = 3.000000 bits" in out

    def test_ei_constant_channel(self, capsys):
        code, out, _ = run(capsys, "ei", DATA / "constant4.json", "y0")
        assert code == 0
        assert "ei = 0.000000 bits" in out

    def test_ei_map_document(self, capsys):
        code, out, _ = run(capsys, "ei", DATA / "map3to1.json", "A")
        assert code == 0
        assert out == golden("ei_map3to1_A.txt")

    def test_entropy_copy_channel(self, capsys):
        code, out, _ = run(capsys, "entropy", DATA / "copy3.json",
                           "--prior", DATA / "prior3.json")
        assert code == 0
        assert out == golden("entropy_copy3.txt")
        assert "H(prior) = 1.500000 bits" in out

    def test_mi_half_split(self, capsys):
        code, out, _ = run(capsys, "mi", DATA / "half_split.json")
        assert code == 0
        assert out == golden("mi_half_split.txt")
        assert "PASS" in out

    def test_learn_constant_instance(self, capsys):
        code, out, _ = run(capsys, "learn", DATA / "instance_constant.json")
        assert code == 0
        assert out == golden("learn_constant.txt")
        assert "Prop1 (ei = l - V): PASS" in out
        assert "Prop2 (E[eps] = (1 - R)/2): PASS" in out

    def test_learn_shattering_instance(self, capsys):
        code, out, _ = run(capsys, "learn", DATA / "instance_shatter.json")
        assert code == 0
        assert "VC-entropy V = 2.000000 bits" in out
        assert "Rademacher R = 1 (1.000000)" in out
        assert "expected risk E[eps] = 0 (0.000000)" in out
        assert "ei(L, 0) = 0.000000 bits" in out
        assert out == golden("learn_shatter.txt")

    @pytest.mark.parametrize("name", ["constant", "shatter"])
    def test_learn_machine_report(self, capsys, name):
        # the golden report names its file by its name alone
        path = DATA / f"instance_{name}.json"
        code, out, err = run(capsys, "--format", "machine", "learn", path)
        assert (code, err) == (0, "")
        assert out == golden(f"learn_{name}_machine.json").replace(
            json.dumps(path.name), json.dumps(str(path)), 1)

    def test_pretty_printed_instance_reads_its_signs_from_its_bytes(self, monkeypatch, capsys):
        path = DATA / "instance_shatter_pretty.json"
        reads = []
        read = documents._read_sign_matrix
        monkeypatch.setattr(documents, "_read_sign_matrix",
                            lambda *args: reads.append(read(*args)) or reads[-1])
        code, out, _ = run(capsys, "learn", path)
        assert (code, out) == (0, golden("learn_shatter.txt"))
        code, out, err = run(capsys, "--format", "machine", "learn", path)
        assert (code, err) == (0, "")
        report, want = json.loads(out), json.loads(golden("learn_shatter_machine.json"))
        data = path.read_bytes()
        assert report.pop("instance_file") == {
            "path": str(path), "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "points": 2, "functions": 4}
        want.pop("instance_file")
        assert report == want
        assert [r.tolist() for r in reads] == [[[1, 1], [1, -1], [-1, 1], [-1, -1]]] * 2

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "learn", DATA / "instance_constant.json")
        _, second, _ = run(capsys, "learn", DATA / "instance_constant.json")
        assert first == second
        _, v1, _ = run(capsys, "verify", "--seed", 3, "--count", 10)
        _, v2, _ = run(capsys, "verify", "--seed", 3, "--count", 10)
        assert v1 == v2


class TestExitCodes:
    def test_unknown_symbol_is_input_error(self, capsys):
        code, _, err = run(capsys, "ei", DATA / "identity8.json", "nope")
        assert code == 2
        assert "'nope'" in err

    def test_unreachable_output_is_undefined(self, capsys):
        code, _, err = run(capsys, "ei", DATA / "constant4.json", "y1")
        assert code == 3
        assert "'y1'" in err

    def test_duplicate_dataset_point_is_input_error(self, capsys):
        code, _, err = run(capsys, "learn", DATA / "instance_dup.json")
        assert code == 2
        assert "'a'" in err

    def test_cap_exceeded_in_learn(self, capsys):
        code, _, err = run(capsys, "--cap", 1, "learn", DATA / "instance_constant.json")
        assert code == 4
        assert "cap" in err

    def test_cap_exceeded_in_verify_bounds(self, capsys):
        code, _, err = run(capsys, "verify", "--max-points", 25)
        assert code == 4

    @staticmethod
    def _instance(tmp_path, n, l):
        doc = tmp_path / "instance.json"
        points = [f"p{i}" for i in range(n)]
        doc.write_text(json.dumps({"points": points,
                                   "functions": [[1] * n, [-1] * n, [1] + [-1] * (n - 1)],
                                   "dataset": points[:l]}))
        return doc

    def test_cap_bounds_dataset_length_not_points(self, capsys, tmp_path):
        code, out, _ = run(capsys, "--format", "machine", "learn", self._instance(tmp_path, 40, 3))
        assert code == 0
        report = json.loads(out)
        assert (report["n_points"], report["length"]) == (40, 3)
        assert report["prop1_pass"] and report["prop2_pass"]

    # The default cap is 20; no cap unlocks l > 32, the width of the masks.
    @pytest.mark.parametrize("cap,n,l", [(None, 22, 21), (40, 34, 33)])
    def test_dataset_longer_than_cap_in_learn(self, capsys, tmp_path, cap, n, l):
        options = ("--cap", cap) if cap else ()
        code, out, err = run(capsys, *options, "learn", self._instance(tmp_path, n, l))
        assert code == 4
        assert out == ""
        assert f"l = {l}" in err and f"2^{l} patterns" in err

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "ei", bad, "y0")
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "ei", "/does/not/exist.json", "y0")
        assert code == 2

    @pytest.mark.parametrize("signs", ([1.7, -1.2], [True, "-1"]))
    def test_non_integer_signs_are_input_errors(self, capsys, tmp_path, signs):
        doc = tmp_path / "instance.json"
        doc.write_text(json.dumps(
            {"points": ["a", "b"], "functions": [signs], "dataset": ["a", "b"]}))
        code, out, err = run(capsys, "learn", doc)
        assert code == 2
        assert out == ""
        assert "sign at point 'a'" in err

    @pytest.mark.parametrize("functions,message", [
        ([[1, True]], "sign at point 'b' is True, must be the integer +1 or -1"),
        ([[1.0, 1]], "sign at point 'a' is 1.0, must be the integer +1 or -1"),
        ([[1, 1], [2, 1]], "sign at point 'a' is 2, must be the integer +1 or -1"),
        ([[1, 2 ** 70]], "sign at point 'b' is 1180591620717411303424, "
                         "must be the integer +1 or -1"),
        ([[1, 1], [1]], "labeling has 1 signs for 2 points"),
        ([[1, 1], 1], "function 1 must be a list of +1/-1 signs"),
        ([[1, 1], [-1, 1], [1, 1]], "duplicate function (1, 1) in class"),
        ([], "function class must be nonempty"),
        ({"f": [1, 1]}, "learning instance functions must be a list of sign vectors"),
    ], ids=["true", "float", "two", "huge", "ragged", "non_list", "duplicate", "empty",
            "object"])
    def test_malformed_class_names_the_function(self, capsys, tmp_path, functions, message):
        doc = tmp_path / "instance.json"
        doc.write_text(json.dumps(
            {"points": ["a", "b"], "functions": functions, "dataset": ["a", "b"]}))
        for fmt in ("table", "machine"):
            code, out, err = run(capsys, "--format", fmt, "learn", doc)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("content", [
        b'{"probs": [0.5, 0.25\xff, 0.25]}',                 # not UTF-8
        b"[" * 100_000,                                       # nesting too deep
        b'{"probs": [' + b"9" * 400 + b', 0.25, 0.25]}',     # overflows a float
        b'{"probs": [' + b"9" * 5000 + b', 0.25, 0.25]}',    # past the digit limit
    ], ids=["non_utf8", "deep_nesting", "400_digits", "5000_digits"])
    def test_undecodable_prior_is_input_error_without_traceback(self, tmp_path, content):
        prior = tmp_path / "prior.json"
        prior.write_bytes(content)
        proc = run_process("entropy", DATA / "copy3.json", "--prior", prior)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ")

    @pytest.mark.parametrize("command, doc, message", [
        ("ei", {"inputs": ["a", "\ud800"], "outputs": ["y0", "y1"],
                "matrix": [[1, 0], [0, 1]]}, "channel inputs[1]"),
        ("ei", {"inputs": ["a", "b"], "outputs": ["y0", "y1", "z\udfff"],
                "matrix": [[1, 0, 0], [0, 1, 0]]}, "channel outputs[2]"),
        ("ei", {"inputs": ["", "\udc00b"], "outputs": ["y0", "y1"],
                "table": ["y0", "y1"]}, "map inputs[1]"),
        ("ei", {"inputs": ["a", "b"], "outputs": ["y0", "\ud800"],
                "table": ["y0", "y0"]}, "map outputs[1]"),
        ("ei", {"inputs": ["a", "b"], "outputs": ["y0", "y1"],
                "table": ["y0", "\ud800"]}, "map table[1]"),
        ("learn", {"points": ["\ud800", "b"], "functions": [[1, 1]], "dataset": ["b"]},
         "learning instance points[0]"),
        ("learn", {"points": ["a", "b"], "functions": [[1, 1]], "dataset": ["a", "\udfff"]},
         "learning instance dataset[1]"),
    ], ids=["channel_inputs", "channel_outputs", "map_inputs", "map_outputs", "map_table",
            "points", "dataset"])
    def test_lone_surrogate_name_is_input_error_without_traceback(self, tmp_path, command,
                                                                  doc, message):
        # JSON's \u escapes spell lone surrogates, which no output can encode
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(doc))
        argv = (command, path, "y0") if command == "ei" else (command, path)
        for fmt in ("table", "machine"):
            proc = run_process("--format", fmt, *argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                2, "", f"error: {message} holds a lone surrogate, which UTF-8 cannot encode\n")

    @pytest.mark.parametrize("command, text, message", [
        ("ei", "[[1, 0], [0, 1]]", "channel document must be a JSON object"),
        ("learn", '["a", "b"]', "learning instance document must be a JSON object"),
        ("prior", "[0.5, 0.5]", "prior document must be a JSON object"),
        ("ei", '{"inputs": ["a", "b"], "outputs": ["y0", "y1"], "matrix": {"a": [1, 0]}}',
         "channel matrix must be a list of rows"),
        # json.loads reads the JavaScript names as floats
        ("ei", '{"inputs": ["a", "b"], "outputs": ["y0", "y1"], '
               '"matrix": [[Infinity, 0.0], [0.0, 1.0]]}', "probabilities must be finite"),
        ("ei", '{"inputs": ["a", "b"], "outputs": ["y0", "y1"], '
               '"matrix": [[0.5, 0.5], [NaN, 1.0]]}', "probabilities must be finite"),
        ("prior", '{"probs": [NaN, 0.5]}', "probabilities must be finite"),
        ("prior", '{"probs": [-Infinity, 0.5]}', "probabilities must be finite"),
    ], ids=["channel_array", "instance_array", "prior_array", "matrix_object",
            "matrix_infinity", "matrix_nan", "prior_nan", "prior_minus_infinity"])
    def test_malformed_document_is_one_error_line(self, capsys, tmp_path, command, text,
                                                  message):
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = {"ei": ("ei", path, "y0"), "learn": ("learn", path),
                "prior": ("mi", DATA / "half_split.json", "--prior", path)}[command]
        for fmt in ("table", "machine"):
            assert run(capsys, "--format", fmt, *argv) == (2, "", f"error: {message}\n")

    def test_ragged_matrix_is_input_error_without_traceback(self, tmp_path):
        # Also rows and priors that are not normalized, among them finite
        # entries whose sum overflows: one plain `error:` line each.
        def channel(name, matrix):
            path = tmp_path / name
            path.write_text(json.dumps({"inputs": ["a", "b"], "outputs": ["y0", "y1"],
                                        "matrix": matrix}))
            return path

        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"probs": [1e308, 1e308]}))
        for argv in [("ei", channel("ragged.json", [[0.5, 0.5], [1.0]]), "y0"),
                     ("ei", channel("row_sum.json", [[0.5, 0.6], [1.0, 0.0]]), "y0"),
                     ("ei", channel("overflow.json", [[1e308, 1e308], [1.0, 0.0]]), "y0"),
                     ("ei", DATA / "half_split.json", "y0", "--prior", prior)]:
            proc = run_process(*argv)
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1, proc.stderr
            for leak in ("Traceback", "np.float64", "RuntimeWarning"):
                assert leak not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("--tolerance", "-1", "mi", DATA / "half_split.json"),
        ("--tolerance", "0", "mi", DATA / "copy3.json"),
        ("--tolerance", "nan", "mi", DATA / "half_split.json"),
        ("--tolerance", "inf", "mi", DATA / "half_split.json"),
        ("verify", "--count", "-3"),
        ("--cap", "0", "verify", "--max-points", "3", "--min-points", "1"),
        ("--cap", "-3", "verify", "--max-points", "3", "--min-points", "1"),
    ], ids=["negative_tolerance", "zero_tolerance", "nan_tolerance", "inf_tolerance",
            "negative_count", "zero_cap", "negative_cap"])
    def test_bad_option_values_are_input_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_mi_tolerance_failure(self, capsys):
        # half_split's |E[ei] - MI| is about 5.55e-17
        code, out, _ = run(capsys, "--tolerance", 1e-20, "mi", DATA / "half_split.json")
        assert code == 1
        assert "FAIL" in out


class TestSubnormalPrior:
    """p(x0) = 1e-320 on the swap channel: 1/p(x0) overflows a double."""

    PRIOR = ("--prior", DATA / "prior_subnormal.json")

    def test_commands_stay_finite_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "--format", "machine", "ei",
                               DATA / "swap2.json", "y1", *self.PRIOR)
            assert code == 0
            assert abs(json.loads(out)["ei_bits"] - -math.log2(1e-320)) <= 1e-9
            code, out, _ = run(capsys, "--format", "machine", "entropy",
                               DATA / "swap2.json", *self.PRIOR)
            assert code == 0
            assert math.isfinite(json.loads(out)["expected_ei_bits"])
            code, out, _ = run(capsys, "mi", DATA / "swap2.json", *self.PRIOR)
            assert code == 0
            assert "PASS" in out

    def test_mi_exits_zero_with_warnings_as_errors(self, monkeypatch):
        monkeypatch.setenv("PYTHONWARNINGS", "error")
        result = run_process("mi", DATA / "swap2.json", *self.PRIOR)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


class TestAtolEdgeInputs:
    """A prior and channel rows each within ATOL of 1, whose p(y) is not."""

    CHANNEL = DATA / "atol_edge.json"
    PRIOR = ("--prior", DATA / "prior_atol_edge.json")

    @pytest.mark.parametrize("argv", [("ei", CHANNEL, "y0"), ("entropy", CHANNEL),
                                      ("mi", CHANNEL)], ids=["ei", "entropy", "mi"])
    def test_commands_exit_zero(self, capsys, argv):
        code, out, err = run(capsys, "--format", "machine", *argv, *self.PRIOR)
        assert code == 0, err
        assert err == ""
        if argv[0] == "mi":
            report = json.loads(out)
            assert report["abs_difference"] < 1e-9
            assert report["within_tolerance"] is True

    def test_inputs_past_atol_exit_two(self, capsys, tmp_path):
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"probs": [0.500000002, 0.5]}))
        code, out, err = run(capsys, "mi", self.CHANNEL, "--prior", prior)
        assert (code, out) == (2, "")
        assert err.startswith("error: probabilities sum to 1.000000002")
        channel = tmp_path / "channel.json"
        channel.write_text(json.dumps({"inputs": ["x0", "x1"], "outputs": ["y0", "y1"],
                                       "matrix": [[0.7, 0.3], [0.200000002, 0.8]]}))
        code, out, err = run(capsys, "mi", channel, *self.PRIOR)
        assert (code, out) == (2, "")
        assert err.startswith("error: row for input 'x1' sums to")


class TestVerify:
    def test_pass_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--seed", 1, "--count", 25)
        assert code == 0
        assert out.strip().endswith("25/25 instances PASS")

    def test_zero_count(self, capsys):
        code, out, _ = run(capsys, "verify", "--count", 0)
        assert code == 0
        assert "0/0 instances PASS" in out

    def test_machine_format(self, capsys):
        code, out, _ = run(capsys, "--format", "machine", "verify",
                           "--seed", 2, "--count", 5)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert doc["passed"] == doc["count"] == 5
        assert doc["failures"] == []


class TestMachineRoundTrip:
    def test_ei_documents_reparse(self, capsys, replay):
        argv = ("--format", "machine", "ei", DATA / "half_split.json", "y1")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        replay(doc, argv)
        original = parse_channel(json.loads((DATA / "half_split.json").read_text()))
        prior = parse_prior(doc["prior"], original.input)
        rep = parse_prior(doc["actual_repertoire"], original.input)
        out_dist = parse_prior(doc["output_distribution"], original.output)
        from effinfo import actual_repertoire, output_distribution
        assert rep == actual_repertoire(original, prior, "y1")
        assert out_dist == output_distribution(original, prior)

    def test_learn_instance_reparses(self, capsys, replay_learn):
        argv = ("--format", "machine", "learn", DATA / "instance_shatter.json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        replay_learn(doc, argv)
        assert list(doc)[:2] == ["command", "instance_file"]
        assert (doc["instance_file"]["points"], doc["instance_file"]["functions"]) == (2, 4)
        assert doc["prop1_pass"] and doc["prop2_pass"]
        assert doc["rademacher"] == "1"
        assert doc["expected_risk"] == "0"

    def test_map_document_reparses_via_system(self, capsys, replay):
        argv = ("--format", "machine", "ei", DATA / "map3to1.json", "B")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        replay(doc, argv)
        assert (doc["channel_file"]["inputs"], doc["channel_file"]["outputs"]) == (4, 2)
        assert doc["ei_bits"] == 2.0

    def test_entropy_documents_reparse(self, capsys, replay):
        argv = ("--format", "machine", "entropy", DATA / "copy3.json",
                "--prior", DATA / "prior3.json")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        replay(doc, argv)
        assert doc["prior_entropy_bits"] == 1.5

    def test_mi_machine_fields(self, capsys):
        code, out, _ = run(capsys, "--format", "machine", "mi",
                           DATA / "copy3.json", "--prior", DATA / "prior3.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["expected_ei_bits"] == pytest.approx(1.5, abs=1e-12)
        assert doc["mutual_information_bits"] == pytest.approx(1.5, abs=1e-12)
        assert doc["within_tolerance"] is True


MACHINE_COMMANDS = [
    ("ei", DATA / "half_split.json", "y1"),
    ("ei", DATA / "identity8.json", "y3"),
    ("ei", DATA / "map3to1.json", "A"),
    ("ei", DATA / "constant4.json", "y0", "--prior", DATA / "prior4.json"),
    ("entropy", DATA / "copy3.json", "--prior", DATA / "prior3.json"),
    ("entropy", DATA / "constant4.json"),
    ("mi", DATA / "half_split.json"),
    ("mi", DATA / "map3to1.json"),
    ("learn", DATA / "instance_shatter.json"),
    ("learn", DATA / "instance_constant.json"),
    ("verify", "--seed", 3, "--count", 20),
]


class TestMachineOneLine:
    """Machine reports are one compact JSON line, the same value as the indented form."""

    @pytest.mark.parametrize("argv", MACHINE_COMMANDS,
                             ids=lambda a: "-".join(Path(str(v)).stem for v in a))
    def test_one_line_with_the_indented_value(self, capsys, replay, replay_learn, argv):
        code, out, _ = run(capsys, "--format", "machine", *argv)
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        value = json.loads(out)
        assert out == json.dumps(value) + "\n"
        indented = json.dumps(value, indent=2)  # the form the reports used to take
        assert indented.count("\n") > 1
        assert json.loads(indented) == value
        command = argv[0]
        if command == "learn":
            assert "instance" not in value
            replay_learn(value, ("--format", "machine", *argv))
        elif command != "verify":
            assert "channel" not in value
            replay(value, argv)
            if "--prior" in argv:
                prior_file = json.loads(Path(argv[argv.index("--prior") + 1]).read_text())
                assert value["prior"] == prior_file

    @pytest.mark.parametrize("bad", [True, "1", None, [0.5], 10 ** 400],
                             ids=["bool", "string", "null", "nested", "10**400"])
    @pytest.mark.parametrize("where", ["matrix", "prior"])
    def test_non_numbers_are_input_errors_without_traceback(self, tmp_path, bad, where):
        matrix = [[0.5, 0.5], [0.0, 1.0]]
        probs = [0.5, 0.5]
        (matrix[0] if where == "matrix" else probs)[0] = bad
        channel = tmp_path / "channel.json"
        channel.write_text(json.dumps({"inputs": ["a", "b"], "outputs": ["y0", "y1"],
                                       "matrix": matrix}))
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps({"probs": probs}))
        proc = run_process("--format", "machine", "mi", channel, "--prior", prior)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr


CHANNEL_TEXT = ('{"inputs": ["x\u00e9", "x1"], "outputs": ["y0", "y1"],\n'
                ' "matrix": [[0.75, 0.25], [0.125, 0.875]]}\n')


class TestChannelFile:
    """Channel reports name the bytes they read instead of echoing the matrix."""

    @pytest.mark.parametrize("argv", [("ei", "-", "y1"), ("entropy", "-", "--prior"),
                                      ("mi", "-")], ids=lambda a: a[0])
    def test_stdin_replays_from_its_text(self, capsys, monkeypatch, tmp_path, replay, argv):
        if "--prior" in argv:
            argv += (tmp_path / "prior.json",)
            argv[-1].write_text('{"probs": [0.5, 0.5]}')
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(CHANNEL_TEXT.encode())))
        code, out, _ = run(capsys, "--format", "machine", *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["channel_file"]["path"] == "-"
        assert doc["channel_file"]["bytes"] == len(CHANNEL_TEXT) + 1  # é is 2 bytes
        replay(doc, ("--format", "machine", *argv), stdin=CHANNEL_TEXT)

    def test_crlf_file_reports_the_digest_of_its_bytes(self, capsys, tmp_path, replay):
        path = tmp_path / "crlf.json"
        path.write_bytes(CHANNEL_TEXT.replace("\n", "\r\n").encode("utf-8"))
        argv = ("--format", "machine", "mi", path)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        named = json.loads(out)["channel_file"]
        assert named["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        translated = path.read_text(encoding="utf-8").encode("utf-8")  # "\r\n" read as "\n"
        assert named["sha256"] != hashlib.sha256(translated).hexdigest()
        assert named["bytes"] == path.stat().st_size
        replay(json.loads(out), argv)

    @pytest.mark.parametrize("head", [b"\xff", b"\xef\xbb\xbf"], ids=["not-utf8", "bom"])
    @pytest.mark.parametrize("command", [("ei", "y1"), ("entropy",), ("mi",)],
                             ids=lambda c: c[0])
    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path, head, command):
        path = tmp_path / "channel.json"
        path.write_bytes(head + CHANNEL_TEXT.encode("utf-8"))
        code, out, err = run(capsys, "--format", "machine", command[0], path, *command[1:])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: not valid JSON: ")


def _identity_map(path, n):
    """The identity map on n symbols: its `ei` report holds three n-entry
    distributions, two of them 1/n in each entry."""
    names = [f"y{i}" for i in range(n)]
    path.write_text(json.dumps({"inputs": names, "outputs": names, "table": names}))
    return path


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
class TestClosedPipe:
    """A reader that leaves early ends the command with 141 and an empty stderr,
    whether a report's bytes wait in stdout's buffer or are written at once."""

    @staticmethod
    def _start(buffering, *argv):
        env = _process_env()
        env.pop("PYTHONUNBUFFERED", None)
        if buffering == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.Popen(
            [sys.executable, "-m", "effinfo.cli", "--format", "machine", *map(str, argv)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)

    @staticmethod
    def _finish(proc):
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (141, b"")

    def test_reader_leaves_after_10_bytes(self, capsys, tmp_path, buffering):
        path = _identity_map(tmp_path / "identity.json", 1500)
        code, out, _ = run(capsys, "--format", "machine", "ei", path, "y0")
        assert code == 0 and len(out) > 1 << 16  # more than a pipe holds
        proc = self._start(buffering, "ei", path, "y0")
        assert proc.stdout.read(10) == out[:10].encode()
        proc.stdout.close()  # the reader leaves with most of the report unread
        self._finish(proc)

    def test_reader_leaves_before_a_small_report(self, buffering):
        # closed while the command starts, so the report's flush meets no reader
        proc = self._start(buffering, "entropy", DATA / "copy3.json")
        proc.stdout.close()
        self._finish(proc)


# A point named é in UTF-8, which the dataset names by its JSON escape: it
# resolves only if the document is decoded from its bytes as UTF-8.
NAMED_E = b'{"points": ["\xc3\xa9", "b"], "functions": [[1, -1]], "dataset": ["\\u00e9"]}'


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        doc = (DATA / "instance_constant.json").read_text()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(doc.encode())))
        code, out, _ = run(capsys, "learn", "-")
        assert code == 0
        assert out == golden("learn_constant.txt")

    @pytest.mark.parametrize("flags, env", [
        ((), {"PYTHONIOENCODING": "latin-1"}),
        (("-X", "utf8=0"), {"LC_ALL": "C"}),
    ], ids=["latin-1", "C locale"])
    def test_stdin_is_its_bytes_whatever_its_text_encoding(self, flags, env):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "effinfo.cli", "--format", "machine", "learn", "-"],
            input=NAMED_E, capture_output=True, env=_process_env() | env, timeout=60,
            check=False)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["instance_file"] == {
            "path": "-", "sha256": hashlib.sha256(NAMED_E).hexdigest(), "bytes": len(NAMED_E),
            "points": 2, "functions": 1}

    def test_closed_stdin_is_an_input_error(self):
        proc = subprocess.run(
            ["sh", "-c", 'exec "$@" <&-', "sh", sys.executable, "-m", "effinfo.cli",
             "learn", "-"],
            capture_output=True, text=True, env=_process_env(), timeout=60, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: -: stdin is closed\n")


def test_a_name_stdout_cannot_encode_is_escaped(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(json.dumps({"inputs": ["\u00e9", "x1"], "outputs": ["y", "z"],
                                "matrix": [[0.5, 0.5], [0.5, 0.5]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "effinfo.cli", "ei", str(path), "y"], capture_output=True,
        text=True, env=_process_env() | {"PYTHONIOENCODING": "ascii"}, timeout=60,
        check=False)
    assert proc.returncode == 0
    assert "  \\xe9  0.500000" in proc.stdout.splitlines()
    assert "Traceback" not in proc.stderr


def test_channel_bits_do_not_depend_on_the_blas_thread_count(tmp_path):
    # numpy hands `@` to BLAS, whose sums are split by thread: mi of this
    # channel printed 0x1.0f2de1a673690p-2 bits on one thread and
    # 0x1.0f2de1a67368dp-2 on two
    rng = np.random.default_rng(1)
    n = 500
    matrix = rng.random((n, n)) + 0.01
    matrix /= matrix.sum(axis=1, keepdims=True)
    prior = rng.random(n) + 0.01
    names = [f"s{i}" for i in range(n)]
    channel, prior_path = tmp_path / "channel.json", tmp_path / "prior.json"
    channel.write_text(json.dumps({"inputs": names, "outputs": names,
                                   "matrix": matrix.tolist()}))
    prior_path.write_text(json.dumps({"probs": (prior / prior.sum()).tolist()}))
    for argv in (["ei", channel, "s0"], ["entropy", channel], ["mi", channel]):
        outs = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "effinfo.cli", "--format", "machine",
                 *map(str, argv), "--prior", str(prior_path)],
                capture_output=True, text=True, timeout=60, check=False,
                env=_process_env() | {"OPENBLAS_NUM_THREADS": threads})
            assert (proc.returncode, proc.stderr) == (0, "")
            outs.append(proc.stdout)
        assert outs[0] == outs[1], argv[0]


class TestParserOncePerProcess:
    def test_parser_is_built_once(self, capsys, monkeypatch):
        from effinfo import cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "learn", DATA / "instance_constant.json")[0] == 0
        finally:
            cli._parser.cache_clear()
        assert built == [1]

    def test_command_is_looked_up_per_call(self, capsys, monkeypatch):
        from effinfo import cli

        assert run(capsys, "learn", DATA / "instance_constant.json")[0] == 0
        seen = []
        learn = cli.cmd_learn
        monkeypatch.setattr(cli, "cmd_learn",
                            lambda args: seen.append(args.command) or learn(args))
        code, out, _ = run(capsys, "learn", DATA / "instance_constant.json")
        assert (code, seen) == (0, ["learn"])
        assert out == golden("learn_constant.txt")


class TestLearnCallsNoUnique:
    INSTANCES = sorted(DATA.glob("instance_*.json"))

    @pytest.mark.parametrize("fmt", ["table", "machine"])
    @pytest.mark.parametrize(
        "command",
        [*(["learn", p] for p in INSTANCES),
         ["verify", "--seed", 1, "--count", 40, "--max-points", 8]],
        ids=[*(p.name for p in INSTANCES), "verify"])
    def test_same_output_with_np_unique_refused(self, capsys, monkeypatch, command, fmt):
        # np.unique's first call in a process sets itself up for about 8 ms,
        # which every cold `learn` and `verify` would pay
        expected = run(capsys, "--format", fmt, *command)

        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", refuse)
        assert run(capsys, "--format", fmt, *command) == expected

    def test_every_instance_is_read(self):
        assert [p.name for p in self.INSTANCES] == [
            "instance_constant.json", "instance_dup.json", "instance_shatter.json",
            "instance_shatter_pretty.json"]
