import hashlib
import io
import json
import random
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effinfo import (
    Alphabet,
    Channel,
    Dataset,
    Distribution,
    FunctionClass,
    Labeling,
    PointSet,
    ValidationError,
)
from effinfo import documents
from effinfo.cli import main
from effinfo.documents import (
    channel_doc,
    learning_instance_doc,
    load_json,
    map_doc,
    parse_channel,
    parse_learning_instance,
    parse_map,
    parse_prior,
    parse_system,
    prior_doc,
)
from effinfo.learning import _restriction_masks

DATA = Path(__file__).parent / "data"

CHANNEL_DOC = {
    "inputs": ["x0", "x1"],
    "outputs": ["y0", "y1"],
    "matrix": [[0.5, 0.5], [0.0, 1.0]],
}
MAP_DOC = {
    "inputs": ["0", "1", "2", "3"],
    "outputs": ["A", "B"],
    "table": ["A", "A", "A", "B"],
}
INSTANCE_DOC = {
    "points": ["a", "b", "c"],
    "functions": [[1, 1, 1], [1, -1, 1]],
    "dataset": ["a", "c"],
}


class TestChannelDocuments:
    def test_parse(self):
        m = parse_channel(CHANNEL_DOC)
        assert m.input.labels == ("x0", "x1")
        assert m.prob("y1", given="x0") == 0.5

    def test_round_trip(self):
        m = parse_channel(CHANNEL_DOC)
        assert channel_doc(m) == CHANNEL_DOC
        assert parse_channel(channel_doc(m)) == m

    def test_missing_key(self):
        with pytest.raises(ValidationError, match="missing"):
            parse_channel({"inputs": ["a"], "outputs": ["b"]})

    def test_unexpected_key(self):
        doc = dict(CHANNEL_DOC, extra=1)
        with pytest.raises(ValidationError, match="unexpected"):
            parse_channel(doc)

    def test_non_string_symbols(self):
        doc = dict(CHANNEL_DOC, inputs=[1, 2])
        with pytest.raises(ValidationError, match="strings"):
            parse_channel(doc)

    def test_nonstochastic_matrix(self):
        doc = dict(CHANNEL_DOC, matrix=[[0.5, 0.6], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="'x0'"):
            parse_channel(doc)


class TestMapDocuments:
    def test_parse(self):
        f = parse_map(MAP_DOC)
        assert f("2") == "A"

    def test_round_trip(self):
        f = parse_map(MAP_DOC)
        assert map_doc(f) == MAP_DOC
        assert parse_map(map_doc(f)) == f

    def test_unknown_output_symbol(self):
        doc = dict(MAP_DOC, table=["A", "A", "A", "Z"])
        with pytest.raises(ValidationError, match="'Z'"):
            parse_map(doc)


class TestSystemDocuments:
    def test_channel_document(self):
        assert parse_system(CHANNEL_DOC) == parse_channel(CHANNEL_DOC)

    def test_map_document_embeds_as_channel(self):
        m = parse_system(MAP_DOC)
        assert isinstance(m, Channel)
        assert m.prob("A", given="0") == 1.0
        assert m.prob("B", given="3") == 1.0


class TestPriorDocuments:
    def test_parse_and_round_trip(self):
        a = Alphabet(["x0", "x1"])
        p = parse_prior({"probs": [0.25, 0.75]}, a)
        assert p == Distribution(a, [0.25, 0.75])
        assert prior_doc(p) == {"probs": [0.25, 0.75]}
        assert parse_prior(prior_doc(p), a) == p

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="2 entries"):
            parse_prior({"probs": [0.5, 0.5]}, Alphabet(["a", "b", "c"]))

    def test_non_numeric(self):
        with pytest.raises(ValidationError, match="numbers"):
            parse_prior({"probs": ["x", "y"]}, Alphabet(["a", "b"]))


class TestLearningInstanceDocuments:
    def test_parse(self):
        fc, d = parse_learning_instance(INSTANCE_DOC)
        assert fc.size == 2
        assert d.points == ("a", "c")

    def test_round_trip(self):
        fc, d = parse_learning_instance(INSTANCE_DOC)
        assert learning_instance_doc(fc, d) == INSTANCE_DOC
        fc2, d2 = parse_learning_instance(learning_instance_doc(fc, d))
        assert (fc2, d2) == (fc, d)

    def test_duplicate_dataset_point_named(self):
        doc = dict(INSTANCE_DOC, dataset=["a", "a"])
        with pytest.raises(ValidationError, match="'a'"):
            parse_learning_instance(doc)

    def test_unknown_dataset_point(self):
        doc = dict(INSTANCE_DOC, dataset=["a", "z"])
        with pytest.raises(ValidationError, match="'z'"):
            parse_learning_instance(doc)

    def test_bad_sign_vector(self):
        doc = dict(INSTANCE_DOC, functions=[[1, 2, 1]])
        with pytest.raises(ValidationError, match="'b'"):
            parse_learning_instance(doc)


# Each malformed class with the message of the per-function check: the first
# bad row in document order wins, and duplicates are looked for only after
# every row is a valid sign vector.
MALFORMED_CLASSES = [
    ([[1, True, 1]], "sign at point 'b' is True, must be the integer +1 or -1"),
    ([[1, 1.0, 1]], "sign at point 'b' is 1.0, must be the integer +1 or -1"),
    ([[1, 1, 1], [1, 2, 1]], "sign at point 'b' is 2, must be the integer +1 or -1"),
    ([[1, 10 ** 30, 1]], "sign at point 'b' is 1000000000000000000000000000000, "
                         "must be the integer +1 or -1"),
    ([[0, 1, 1]], "sign at point 'a' is 0, must be the integer +1 or -1"),
    ([[1, None, 1]], "sign at point 'b' is None, must be the integer +1 or -1"),
    ([[1, 1, 1], [1, -1]], "labeling has 2 signs for 3 points"),
    ([[1, 1, 1], [1, 1, 1, 1]], "labeling has 4 signs for 3 points"),
    ([[]], "labeling has 0 signs for 3 points"),
    ([[1, 1, 1], "abc"], "function 1 must be a list of +1/-1 signs"),
    ([[1, 1, 1], {"a": 1}], "function 1 must be a list of +1/-1 signs"),
    ([[1, 1, 1], [1, -1, 1], [1, 1, 1]], "duplicate function (1, 1, 1) in class"),
    ([], "function class must be nonempty"),
    # order: a bad row before a non-list row, before a duplicate, before a
    # ragged row
    ([[1, 2, 1], "abc"], "sign at point 'b' is 2, must be the integer +1 or -1"),
    ([[1, 1, 1], [1, 1, 1], [1, 2, 1]],
     "sign at point 'b' is 2, must be the integer +1 or -1"),
    ([[1, 1, 1], [1, 1, 1], [1, 1]], "labeling has 2 signs for 3 points"),
    ([[1, 1, 1], [1, 1, 1], "abc"], "function 2 must be a list of +1/-1 signs"),
    # the first repeat in row order, row 2, is not the first in sorted
    # order, row 3's (-1, -1, -1)
    ([[-1, -1, -1], [1, 1, 1], [1, 1, 1], [-1, -1, -1]],
     "duplicate function (1, 1, 1) in class"),
    ([[1, 1], [1, 2, 1]], "labeling has 2 signs for 3 points"),
    # at and past the ends of int8: an astype(np.int8) wraps 255 to -1 and
    # 257 to +1
    *(([[1, v, 1]], f"sign at point 'b' is {v}, must be the integer +1 or -1")
      for v in (255, 257, 127, -128, 128, -129)),
]


def _parse_per_function(doc):
    """The sign rows of a document's class by the literal rules, shared with
    no code under test: each row in document order must be a list of
    exactly the int +1 or -1, one per point, and then no row may equal an
    earlier one, as found in a set of tuples."""
    points, rows = doc["points"], doc["functions"]
    if not rows:
        raise ValidationError("function class must be nonempty")
    for i, signs in enumerate(rows):
        if not isinstance(signs, list):
            raise ValidationError(f"function {i} must be a list of +1/-1 signs")
        if len(signs) != len(points):
            raise ValidationError(f"labeling has {len(signs)} signs for {len(points)} points")
        for p, s in zip(points, signs):
            if type(s) is not int or s not in (-1, 1):
                raise ValidationError(f"sign at point {p!r} is {s!r}, "
                                      "must be the integer +1 or -1")
    seen = set()
    for signs in map(tuple, rows):
        if signs in seen:
            raise ValidationError(f"duplicate function {signs} in class")
        seen.add(signs)
    return rows


def _oracle_masks(rows, indices):
    """Distinct restriction masks by numpy: bit k is +1 at dataset point k."""
    signs = np.array(rows, dtype=np.int64)[:, indices]
    return set(((signs == 1) * (1 << np.arange(len(indices)))).sum(axis=1).tolist())


SIGN = st.sampled_from([1, -1])


@st.composite
def instance_docs(draw):
    n = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(SIGN, min_size=n, max_size=n), min_size=1,
                         max_size=40, unique_by=tuple))
    points = [f"p{i}" for i in range(n)]
    dataset = draw(st.permutations(points))[:draw(st.integers(1, n))]
    return {"points": points, "functions": rows, "dataset": dataset}


# rows that may hold a non-sign, a wrong length or a duplicate
ANY_SIGN = st.one_of(SIGN, st.sampled_from([0, 2, -2, True, False, 1.0, -1.0, None,
                                             10 ** 30, "1", [1]]),
                     st.integers(126, 258), st.integers(-258, -126))


@st.composite
def malformed_docs(draw):
    n = draw(st.integers(1, 4))
    row = st.lists(st.one_of(SIGN, SIGN, ANY_SIGN), min_size=n - 1, max_size=n + 1)
    rows = draw(st.lists(st.one_of(row, row, row, st.just("row")), max_size=6))
    # repeats of drawn rows, each at any position, before or after its row
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    return {"points": [f"p{i}" for i in range(n)], "functions": rows,
            "dataset": ["p0"]}


class TestBulkClassValidation:
    @pytest.mark.parametrize("functions,message", MALFORMED_CLASSES)
    def test_message_names_the_first_bad_function(self, functions, message):
        doc = dict(INSTANCE_DOC, functions=functions)
        with pytest.raises(ValidationError) as exc:
            parse_learning_instance(doc)
        assert str(exc.value) == message

    @given(malformed_docs())
    def test_same_outcome_as_one_labeling_per_function(self, doc):
        try:
            expected = _parse_per_function(doc)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                parse_learning_instance(doc)
            assert str(got.value) == str(exc)
        else:
            fc = parse_learning_instance(doc)[0]
            assert (fc.pointset.points, fc.signs.tolist()) == (tuple(doc["points"]), expected)

    @given(instance_docs())
    @example({"points": ["a"], "functions": [[1], [-1]], "dataset": ["a"]})
    @example({"points": ["a", "b", "c"], "functions": [[1, -1, 1], [-1, -1, 1]],
              "dataset": ["b"]})
    @example({"points": ["a", "b", "c"], "functions": [[1, -1, 1], [-1, -1, 1]],
              "dataset": ["c", "a", "b"]})
    def test_class_and_masks_equal_the_per_function_path(self, doc):
        fc, d = parse_learning_instance(doc)
        pointset = PointSet(doc["points"])
        labelings = [Labeling(pointset, row) for row in doc["functions"]]
        assert fc == FunctionClass(pointset, labelings)
        assert fc.functions == tuple(labelings)
        assert fc.signs.tolist() == doc["functions"]
        assert d == Dataset.from_points(pointset, doc["dataset"])
        masks = _restriction_masks(fc, d)
        assert masks.dtype == np.uint32
        assert masks.tolist() == sorted(_oracle_masks(doc["functions"], d.indices))


def _sign_rows(codes, n):
    return [[1 if (c >> i) & 1 else -1 for i in range(n)] for c in codes]


def _class_and_dataset(points, rows, dataset):
    return parse_learning_instance({"points": points, "functions": rows, "dataset": dataset})


# widths below, at and past 8 and 16 signs and the 64-bit mask width
WIDTHS = [1, 7, 8, 9, 16, 17, 63, 64, 65]


class TestInstanceText:
    """`learning_instance_doc` written as JSON text re-parses to the same
    class and dataset, at any width, with names that `json.dumps` escapes."""

    @pytest.mark.parametrize("n, codes", [
        *[pytest.param(n, [(1 << n) - 1], id=f"{n}-one") for n in WIDTHS],
        *[pytest.param(n, range(1 << n), id=f"{n}-full") for n in (1, 7, 8, 9)],
        *[pytest.param(n, [c * 0x9E3779B97F4A7C15 % (1 << n) for c in range(1, 300)],
                       id=f"{n}-299") for n in WIDTHS if n > 8],
    ])
    def test_every_run_width(self, n, codes):
        points = [f"p{i}" if i % 3 else f"\u00e9\u2028\"{i}\\" for i in range(n)]
        fc, d = _class_and_dataset(points, _sign_rows(codes, n), points[::-1][:8])
        text = json.dumps(learning_instance_doc(fc, d))
        assert parse_learning_instance(json.loads(text)) == (fc, d)


# One document of each schema with a repeated key, which a reader that kept
# the last value would take for a valid document of other contents, and the
# keys that are named.
REPEATED_KEYS = {
    "channel": ('{"inputs": ["x0", "x1"], "outputs": ["y0", "y1"], '
                '"matrix": [[0.5, 0.5], [0, 1]], "matrix": [[1, 0], [0, 1]]}', ["matrix"]),
    "map": ('{"inputs": ["0"], "outputs": ["A"], "inputs": ["1"], "table": ["A"], '
            '"outputs": ["A", "B"]}', ["inputs", "outputs"]),
    "prior": ('{"probs": [0.5, 0.5], "probs": [0.25, 0.75]}', ["probs"]),
    "learning instance": ('{"points": ["a", "b"], "functions": [[1, -1]], '
                          '"dataset": ["a"], "dataset": ["b"]}', ["dataset"]),
}


class TestLoadJson:
    def test_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(CHANNEL_DOC))
        value, source = load_json(str(path))
        assert value == CHANNEL_DOC
        data = path.read_bytes()
        assert source == {"path": str(path), "sha256": hashlib.sha256(data).hexdigest(),
                          "bytes": len(data)}

    def test_stdin(self, monkeypatch):
        import io
        text = json.dumps(MAP_DOC | {"inputs": ["\u00e9", "x1"]}, ensure_ascii=False)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        value, source = load_json("-")
        assert value == MAP_DOC | {"inputs": ["\u00e9", "x1"]}
        data = text.encode("utf-8")
        assert source == {"path": "-", "sha256": hashlib.sha256(data).hexdigest(),
                          "bytes": len(data)}

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_json(str(path))

    @pytest.mark.parametrize("schema", REPEATED_KEYS)
    def test_repeated_keys_are_refused(self, tmp_path, schema):
        text, keys = REPEATED_KEYS[schema]
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            load_json(str(path))
        assert str(info.value) == f"{path}: repeated keys: {keys}"
        # a key may recur in distinct objects
        path.write_text('[{"a": 1}, {"a": 2, "b": {"a": 3}}]')
        assert load_json(str(path))[0] == [{"a": 1}, {"a": 2, "b": {"a": 3}}]

    @pytest.mark.parametrize("schema, argv", [
        ("learning instance", ["learn", "{doc}"]),
        ("learning instance", ["learn", "-"]),
        ("channel", ["ei", "{doc}", "y0"]),
        ("map", ["entropy", "{doc}"]),
        ("prior", ["mi", DATA / "half_split.json", "--prior", "{doc}"]),
    ], ids=["learn", "learn-stdin", "ei", "entropy-map", "prior"])
    def test_repeated_keys_exit_2_naming_them(self, monkeypatch, capsys, tmp_path, schema,
                                              argv):
        text, keys = REPEATED_KEYS[schema]
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = [str(path) if a == "{doc}" else str(a) for a in argv]
        name = str(path) if str(path) in argv else "-"
        for fmt in ("table", "machine"):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
            assert main(["--format", fmt, *argv]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: {name}: repeated keys: {keys}\n")

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            load_json("/nonexistent/nope.json")

    @pytest.mark.parametrize("data, message", [
        (b"{broken", "not valid JSON: Expecting property name enclosed in double quotes: "
                     "line 1 column 2 (char 1)"),
        (b"\xff{}", "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
                    "invalid start byte"),
        (b"\xef\xbb\xbf{}", "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
                           "line 1 column 1 (char 0)"),
        ('{"probs": [1]}'.encode("utf-16"), "not valid JSON: 'utf-8' codec can't decode "
                                            "byte 0xff in position 0: invalid start byte"),
        (None, "No such file or directory"),
        ("directory", "Is a directory"),
    ], ids=["syntax", "not-utf8", "bom", "utf16", "missing", "directory"])
    def test_error_messages(self, tmp_path, data, message):
        path = tmp_path / "doc.json"
        if data == "directory":
            path.mkdir()
        elif data is not None:
            path.write_bytes(data)
        with pytest.raises(ValidationError) as info:
            load_json(str(path))
        assert str(info.value) == f"{path}: {message}"


# The forms of a sign that the byte reader leaves to `json`, each in place of
# one sign: `0` is also the byte each -1 becomes inside the reader.
NOT_A_SIGN = ["1.0", "1e0", "true", "-0", "0", "2", "01", "11", "+1", "-2", "--1", "- 1",
              "-\n1", '"1"', "[1]", "null", "1 1"]
JSON_WHITESPACE = st.text(" \t\n\r", max_size=2)
VALID = '{"points": ["a", "b"], "functions": [[1, 1], [1, -1]], "dataset": ["a"]}'
# Documents whose sign matrix is not in the exact form, or that are not
# learning instances that `json` accepts, by one change to VALID
NOT_A_SIGN_MATRIX = {
    "ragged": VALID.replace("[1, 1]", "[1, 1, 1]"),
    "empty-row": VALID.replace("[1, 1]", "[]"),
    "empty": VALID.replace("[[1, 1], [1, -1]]", "[]"),
    "nested": VALID.replace("[[1, 1], [1, -1]]", "[[[1, 1], [1, -1]]]"),
    "string": VALID.replace("[[1, 1], [1, -1]]", '"[[1, 1], [1, -1]]"'),
    "not-a-list": VALID.replace("[[1, 1], [1, -1]]", '{"a": [[1]]}'),
    "zero-and-minus-two": VALID.replace("[1, -1]", "[0, -2]"),
    "row-of-eleven": VALID.replace("[1, -1]", "[11, ]"),
    "comma-first": VALID.replace("[1, -1]", "[,11]"),
    "open-with-a-sign": VALID.replace("[[1, 1]", "1[1, 1]"),
    "bad-separator": VALID.replace("1], [", "1]; ["),
    "no-separator": VALID.replace("1], [", "1]["),
    "semicolon-in-row": VALID.replace("[1, -1]", "[1; -1]"),
    "row-without-bracket": VALID.replace("[1, -1]", ",1, -1]"),
    "bracket-for-comma": VALID.replace("[1, -1]", "[1]-1]"),
    "trailing-comma": VALID.replace("-1]]", "-1],]"),
    "object-trailing-comma": VALID.replace('["a"]}', '["a"],}'),
    "object-trailing-comma-spaced": VALID.replace('["a"]}', '["a"] ,\n }'),
    "object-leading-comma": VALID.replace("{", "{,"),
    "brackets-in-name-after": VALID.replace('["a"]}', '["a"], "x]]": 1}'),
    "trailing-data": VALID + " 1",
    "trailing-brace": VALID + "}",
    "repeated": VALID.replace("}", ', "functions": [[1, 1]]}'),
    "missing-points": VALID.replace('"points": ["a", "b"], ', ""),
    "extra": VALID.replace("}", ', "extra": 1}'),
    "points-not-a-list": VALID.replace('["a", "b"]', '"ab"'),
    "short-rows": VALID.replace('["a", "b"]', '["a", "b", "c"]'),
    "bom": "\ufeff" + VALID,
    "array": f"[{VALID}]",
    "bracket-for-brace": "[" + VALID[1:],
    "no-colon": VALID.replace('"functions":', '"functions"'),
    "semicolon": VALID.replace('"functions":', '"functions";'),
    "unquoted-key": VALID.replace('"dataset"', "dataset"),
}


@st.composite
def learning_texts(draw):
    """The text of a learning-instance document: valid, spaced anywhere and
    in any key order, or with one mutation the byte reader must leave to
    `json`: a sign in another form, a row's characters reordered, a ragged
    or empty row, nesting, another row separator, trailing data, a trailing
    comma in the object, and repeated, missing or extra keys. Names may hold
    `]]` and any character."""
    n = draw(st.integers(1, 4))
    names = draw(st.lists(st.text("ab]-0,[é \"\\", min_size=1, max_size=3),
                          min_size=n, max_size=n, unique=True))
    rows = draw(st.lists(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
                         min_size=1, max_size=5))
    dataset = draw(st.lists(st.sampled_from(names), min_size=1, max_size=n, unique=True))
    keys = draw(st.permutations(["points", "functions", "dataset"]))
    doc = {"points": names, "functions": rows, "dataset": dataset}
    if draw(st.booleans()):
        return json.dumps({k: doc[k] for k in keys}, ensure_ascii=draw(st.booleans()),
                          **draw(st.sampled_from([{}, {"indent": 1}, {"indent": 2},
                                                  {"separators": (",", ":")}])))
    space = lambda: draw(JSON_WHITESPACE)  # noqa: E731
    tokens = [[str(s) for s in row] for row in rows]
    mutation = draw(st.sampled_from(["none", "sign", "scrambled", "ragged", "empty row",
                                     "nested", "separator", "trailing", "repeated",
                                     "missing", "extra", "trailing comma"]))
    if mutation == "scrambled":  # a row's text, of the same length, in another order
        row = draw(st.sampled_from(tokens))
        row[:] = ["".join(draw(st.permutations(",".join(row))))]
    elif mutation == "sign":
        row = draw(st.sampled_from(tokens))
        row[draw(st.integers(0, n - 1))] = draw(st.sampled_from(NOT_A_SIGN))
    elif mutation == "ragged":
        draw(st.sampled_from(tokens)).append("1")
    elif mutation == "empty row":
        tokens.append([])
    members = {k: json.dumps(doc[k]) for k in ("points", "dataset")}
    separator = draw(st.sampled_from(["", ",,", "1", ";"])) if mutation == "separator" else ","
    members["functions"] = "[" + separator.join(
        space() + "[" + ",".join(space() + t.replace("-", "-" + space() * (t == "-1")) + space()
                                 for t in row) + "]" + space()
        for row in tokens) + "]"
    if mutation == "nested":
        members["functions"] = "[" + members["functions"] + "]"
    members = [(k, members[k]) for k in keys]
    if mutation == "repeated":
        members.append(draw(st.sampled_from(members)))
    elif mutation == "missing":
        members.pop(draw(st.integers(0, 2)))
    elif mutation == "extra":
        members.insert(draw(st.integers(0, 3)), ("extra", "1"))
    comma = "," + space() if mutation == "trailing comma" else ""
    text = space() + "{" + ",".join(f'{space()}"{k}"{space()}:{space()}{v}{space()}'
                                     for k, v in members) + comma + "}" + space()
    return text + ("1" if mutation == "trailing" else "")


class TestSignReader:
    """`learn` prints the same bytes, exit code and stderr whether its
    document's sign matrix is read from its bytes or by `json`."""

    @staticmethod
    def run(path, read_bytes):
        """(exit code, stdout, stderr) in both formats, and how many times
        the byte reader read the sign matrix."""
        reads = []
        read = documents._read_sign_matrix
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(documents, "_read_sign_matrix",
                       lambda *args: reads.append(read(*args)) or reads[-1])
            if not read_bytes:
                mp.setattr(documents, "_instance_members", lambda text: None)
            runs = []
            for fmt in ("table", "machine"):
                with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
                    code = main(["--format", fmt, "learn", str(path)])
                runs.append((code, out.getvalue(), err.getvalue()))
        return runs, sum(r is not None for r in reads)

    def test_the_byte_reader_prints_what_json_prints(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sign_reader") / "instance.json"
        read = Counter()

        @settings(deadline=None, max_examples=400)
        @given(learning_texts())
        def check(text):
            path.write_text(text, encoding="utf-8")
            fast, hits = self.run(path, True)
            slow, none = self.run(path, False)
            assert none == 0
            assert fast == slow, text
            read["bytes" if hits else "json"] += 1

        check()
        assert read["bytes"] and read["json"], read

    @pytest.mark.parametrize("text", [
        *[pytest.param(VALID.replace("-1]]", f"{sign}]]"), id=sign) for sign in NOT_A_SIGN],
        *[pytest.param(text, id=name) for name, text in NOT_A_SIGN_MATRIX.items()],
    ])
    def test_every_other_form_is_read_by_json(self, tmp_path, text):
        path = tmp_path / "instance.json"
        path.write_text(text, encoding="utf-8")
        fast, hits = self.run(path, True)
        assert (hits, fast) == (0, self.run(path, False)[0])

    @pytest.mark.parametrize("name", ["copy3.json", "map3to1.json", "prior3.json"])
    def test_other_documents_are_left_to_json_at_their_first_key(self, monkeypatch, name):
        scans = []
        monkeypatch.setattr(documents, "_scan", lambda *args: scans.append(args))
        assert documents._instance_members((DATA / name).read_text()) is None
        assert scans == []

    @pytest.mark.parametrize("name", ["p", "π"])
    def test_reading_a_wide_document_peaks_below_json(self, tmp_path, name):
        # learn_wide's largest shape, |X| = 16 and |F| = 16 384, 950 KB: the
        # json path peaks at its text, its lists of ints and the int8 read;
        # a non-ASCII name has the reader find the matrix's byte offsets
        path = tmp_path / "wide.json"
        points = [f"{name}{i}" for i in range(16)]
        codes = random.Random(16).sample(range(1 << 16), 16384)
        path.write_text(json.dumps({"points": points, "functions": _sign_rows(codes, 16),
                                    "dataset": points[:8]}, ensure_ascii=False),
                        encoding="utf-8")

        def read():
            tracemalloc.start()
            try:
                parsed = parse_learning_instance(load_json(str(path))[0])
                return parsed, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert type(load_json(str(path))[0]["functions"]) is documents._SignRows
        fast, fast_peak = read()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(documents, "_instance_members", lambda text: None)
            slow, slow_peak = read()
        assert fast == slow
        assert fast_peak <= slow_peak

    def test_spacing_is_read_from_the_bytes(self, tmp_path):
        path = tmp_path / "instance.json"
        path.write_text('\n{ "functions" :[ [ 1,\t-1 ]\r\n, [-1 ,1]\n ] ,'
                        '"points":["a]]", "é"], "dataset": ["é"]}\n')
        fast, hits = self.run(path, True)
        assert (hits, fast) == (2, self.run(path, False)[0])
        assert fast[0][0] == 0
