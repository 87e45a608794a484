"""JSON document schemas for channels, maps, priors, and learning instances.

Four small schemas, chosen to be diffable and trivially scriptable:

* channel:            {"inputs": [...], "outputs": [...], "matrix": [[...]]}
* deterministic map:  {"inputs": [...], "outputs": [...], "table": [...]}
* prior:              {"probs": [...]}
* learning instance:  {"points": [...], "functions": [[+-1 ...]], "dataset": [...]}

Parsers are strict: repeated keys, unknown keys, wrong shapes, unresolved
symbols and names that UTF-8 cannot encode are rejected with the offending
name or position in the message. Serializers emit documents that re-parse
to equal objects.

`load_json` is the one reader. Besides the value it returns the source of the
bytes it parsed, {"path", "sha256", "bytes"}: a machine report names the
document it read with it, so `channel_doc` and `learning_instance_doc` are
their schemas' serializers and no report's. It reads one form from the bytes
themselves: a learning instance's `functions` as rows [s, ..., s] of
|points| signs, each exactly 1 or -1, with JSON whitespace anywhere but
inside a -1, straight into an int8 matrix, with the other members read by
`json`'s own scanners. `json.loads` reads every other form and every other
document, so every refusal of a text, and its message, is `json`'s, and
`parse_learning_instance` checks the matrix with the validator that checks
rows read by `json`.
"""
from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import re
import sys
from json.decoder import scanstring

import numpy as np

from . import channels
from .channels import Alphabet, Channel, Distribution
from .deterministic import DeterministicMap, channel_of_map
from .errors import ValidationError
from .learning import Dataset, FunctionClass, PointSet


def _members(pairs: list) -> dict:
    """A JSON object's members, refusing a repeated key, which `json` would
    otherwise resolve silently to its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise ValidationError(f"repeated keys: {channels._repeated(k for k, _ in pairs)}")
    return obj


# the JSON text between values, which `json` skips
_skip = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder(object_pairs_hook=_members).scan_once
# a `]` and the next `]` past JSON whitespace: the end of a matrix's last row
_MATRIX_END = re.compile(r"\][ \t\n\r]*\]")
# characters of a document's text encoded at a time
_BLOCK = 1 << 18


class _SignRows:
    """A `functions` value that `load_json` read from its bytes: an int8
    (|F|, |X|) matrix of +1/-1, for `parse_learning_instance` to check."""

    __slots__ = ("signs",)

    def __init__(self, signs: np.ndarray):
        self.signs = signs


def _instance_members(text: str) -> tuple[dict, int, int] | None:
    """The members of the learning-instance object `text`, read in order by
    `json`'s own scanners but for the `functions` value, left as None and
    found as the text up to its first `]]` (JSON whitespace may part the
    two): (members, start, end), the byte offsets of that text in the UTF-8
    bytes. None if `text` is any other document, holds another key, repeats
    one or is not valid JSON outside that text: `json.loads` then reads it.
    """
    try:
        pairs, span = [], None
        i = _skip(text, 0).end()
        if text[i:i + 1] != "{":
            return None
        i = _skip(text, i + 1).end()
        while text[i:i + 1] == '"':
            key, i = scanstring(text, i + 1)
            if key not in ("points", "functions", "dataset"):
                return None  # a channel, map or prior document, read by `json`
            i = _skip(text, i).end()
            if text[i:i + 1] != ":":
                return None
            i = _skip(text, i + 1).end()
            if key == "functions" and span is None:
                if (end := _MATRIX_END.search(text, i)) is None:
                    return None
                value, span, i = None, (i, end.end()), end.end()
            else:
                value, i = _scan(text, i)
            pairs.append((key, value))
            i = _skip(text, i).end()
            if text[i:i + 1] != ",":
                break
            i = _skip(text, i + 1).end()
            if text[i:i + 1] != '"':
                return None  # a trailing comma, which `json` refuses
        if span is None or text[i:i + 1] != "}" or _skip(text, i + 1).end() < len(text):
            return None
        members = _members(pairs)
    except (ValueError, StopIteration, RecursionError, ValidationError):
        # ValueError covers JSONDecodeError; StopIteration, no value at i
        return None
    start, end = span
    if not text.isascii():
        start = _utf8_len(text, 0, start)
        end = start + _utf8_len(text, span[0], end)
    return members, start, end


def _utf8_len(text: str, i: int, j: int) -> int:
    """len(text[i:j].encode()), encoded a block at a time, so that no copy is
    as large as the text."""
    return sum(len(text[k:min(k + _BLOCK, j)].encode()) for k in range(i, j, _BLOCK))


def _read_sign_matrix(data: bytes, start: int, end: int, width: int) -> np.ndarray | None:
    """The int8 (|F|, width) matrix of `data[start:end]` if that text is
    exactly a JSON list of rows [s, s, ..., s] of `width` signs s, each 1 or
    -1, with JSON whitespace anywhere but between a - and its 1; else None.
    """
    if width < 1 or data.find(b"0", start, end) >= 0:
        return None
    # The byte after each - is lowered by one, so the 1 of a -1 becomes 0,
    # which the text does not hold, and once the whitespace and the -s are
    # deleted each sign is one byte, 1 or 0. The 0s count the -s followed
    # directly by a 1, and must count every -, so "- 1" or "--1" is refused.
    text = bytearray(memoryview(data)[start:end])
    raw = np.frombuffer(text, np.uint8)
    minus = raw[:-1] == ord("-")
    minuses = np.count_nonzero(minus)
    raw[1:] -= minus.view(np.uint8)
    del minus
    if np.count_nonzero(raw == ord("0")) != minuses:
        return None
    del raw
    flat = text.translate(None, b" \t\n\r-")
    del text
    # "[", then each row "[s,...,s]" and the "," or "]" after it
    rows, extra = divmod(len(flat) - 1, 2 * width + 2)
    if not rows or extra or flat[0] != ord("["):
        return None
    body = np.frombuffer(flat, np.uint8, offset=1).reshape(rows, 2 * width + 2)
    if body[:, -1].tobytes() != b"," * (rows - 1) + b"]":
        return None
    # one comparison of the bytes about the signs with the row "[,,...,]"
    template = np.frombuffer(b"[" + b"," * (width - 1) + b"]", np.uint8)
    if not (body[:, 0:2 * width + 1:2] == template).all():
        return None
    # "0" and "1" become 0 and 1; any other byte wraps round past 1
    signs = body[:, 1:2 * width:2] - np.uint8(ord("0"))
    if not (signs <= 1).all():
        return None
    signs = signs.view(np.int8)
    signs *= 2
    signs -= 1
    return signs


def load_json(path: str) -> tuple[object, dict]:
    """Read a JSON document from a file path, or from stdin when path is '-'.

    Returns (value, source), where source is {"path", "sha256", "bytes"} of
    the bytes parsed. A file or stdin is read once, in binary, and decoded
    as UTF-8, whatever stdin's encoding.

    The `functions` value of a learning instance in its exact form, rows
    [s, s, ..., s] of |points| signs s, each 1 or -1, with JSON whitespace
    anywhere but inside a -1, is read from the bytes, once the text is
    dropped, into an int8 matrix, which `parse_learning_instance` checks as
    it checks rows read by `json`. `json.loads` reads every other document
    and every other form, once the bytes are dropped, so every refusal of
    the text is `json`'s, with its message.
    """
    try:
        if path == "-":
            if sys.stdin is None:
                raise OSError("stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        source = {"path": path, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        text = data.decode("utf-8")
        if (members := _instance_members(text)) is not None:
            del text
            obj, start, end = members
            points = obj.get("points")
            width = len(points) if type(points) is list else 0
            if (signs := _read_sign_matrix(data, start, end, width)) is not None:
                obj["functions"] = _SignRows(signs)
                return obj, source
            text = data.decode("utf-8")
        del data
        return json.loads(text, object_pairs_hook=_members), source
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeError and integers past
        # the interpreter's digit limit; RecursionError, deep nesting.
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc


def _require_mapping(obj, keys: tuple[str, ...], what: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} document must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValidationError(f"{what} document is missing keys: {missing}")
    extra = [k for k in obj if k not in keys]
    if extra:
        raise ValidationError(f"{what} document has unexpected keys: {extra}")


def _name_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValidationError(f"{what} must be a list of strings")
    try:
        "".join(value).encode()
    except UnicodeEncodeError as exc:
        # only a lone surrogate, which a JSON \u escape can spell, fails
        i = bisect.bisect_right(list(itertools.accumulate(map(len, value))), exc.start)
        raise ValidationError(
            f"{what}[{i}] holds a lone surrogate, which UTF-8 cannot encode") from None
    return value


def _real_list(value, what: str) -> list[float]:
    types = set(map(type, value)) if isinstance(value, list) else None
    # exact types: bool, an int subclass, is refused
    if types is None or not types <= {int, float}:
        raise ValidationError(f"{what} must be a list of numbers")
    if int not in types:
        return value
    try:
        return [float(v) for v in value]
    except OverflowError:
        raise ValidationError(f"{what} holds a number too large for a float") from None


def parse_channel(obj) -> Channel:
    _require_mapping(obj, ("inputs", "outputs", "matrix"), "channel")
    inputs = Alphabet(_name_list(obj["inputs"], "channel inputs"))
    outputs = Alphabet(_name_list(obj["outputs"], "channel outputs"))
    matrix = obj["matrix"]
    if not isinstance(matrix, list):
        raise ValidationError("channel matrix must be a list of rows")
    rows = [_real_list(row, "channel matrix row") for row in matrix]
    return Channel(inputs, outputs, rows)


def channel_doc(m: Channel) -> dict:
    return {
        "inputs": list(m.input.labels),
        "outputs": list(m.output.labels),
        "matrix": m.matrix.tolist(),
    }


def parse_system(obj) -> Channel:
    """Parse a channel document, or a map document embedded as a 0/1 channel.

    The two schemas are distinguished by their "matrix" / "table" key.
    """
    if isinstance(obj, dict) and "table" in obj:
        return channel_of_map(parse_map(obj))
    return parse_channel(obj)


def parse_map(obj) -> DeterministicMap:
    _require_mapping(obj, ("inputs", "outputs", "table"), "map")
    inputs = Alphabet(_name_list(obj["inputs"], "map inputs"))
    outputs = Alphabet(_name_list(obj["outputs"], "map outputs"))
    table = _name_list(obj["table"], "map table")
    return DeterministicMap(inputs, outputs, table)


def map_doc(f: DeterministicMap) -> dict:
    return {
        "inputs": list(f.input.labels),
        "outputs": list(f.output.labels),
        "table": list(f.table),
    }


def parse_prior(obj, alphabet: Alphabet) -> Distribution:
    _require_mapping(obj, ("probs",), "prior")
    probs = _real_list(obj["probs"], "prior probs")
    if len(probs) != alphabet.size:
        raise ValidationError(
            f"prior has {len(probs)} entries for {alphabet.size} input symbols")
    return Distribution(alphabet, probs)


def prior_doc(p: Distribution) -> dict:
    return {"probs": p.probs.tolist()}


def parse_learning_instance(obj) -> tuple[FunctionClass, Dataset]:
    """The class and dataset of a learning-instance document. Its
    `functions` are a list of sign rows, or the int8 matrix that `load_json`
    read from the bytes of the exact form; both are checked by one validator,
    `learning._checked_signs`, with the same messages."""
    _require_mapping(obj, ("points", "functions", "dataset"), "learning instance")
    pointset = PointSet(_name_list(obj["points"], "learning instance points"))
    raw_fns = obj["functions"]
    if isinstance(raw_fns, _SignRows):
        fc = FunctionClass._of_read_signs(pointset, raw_fns.signs)
    elif not isinstance(raw_fns, list):
        raise ValidationError("learning instance functions must be a list of sign vectors")
    else:
        fc = FunctionClass.from_signs(pointset, raw_fns)
    dataset = Dataset.from_points(
        pointset, _name_list(obj["dataset"], "learning instance dataset"))
    return fc, dataset


def learning_instance_doc(fc: FunctionClass, d: Dataset) -> dict:
    return {
        "points": list(fc.pointset.points),
        "functions": fc.signs.tolist(),
        "dataset": list(d.points),
    }
