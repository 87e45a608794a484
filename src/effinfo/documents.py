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
their schemas' serializers and no report's.
"""
from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import sys

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


def load_json(path: str) -> tuple[object, dict]:
    """Read a JSON document from a file path, or from stdin when path is '-'.

    Returns (value, source), where source is {"path", "sha256", "bytes"} of
    the bytes parsed. A file or stdin is read once, in binary, and decoded
    as UTF-8, whatever stdin's encoding; its bytes are dropped before parsing.
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
    _require_mapping(obj, ("points", "functions", "dataset"), "learning instance")
    pointset = PointSet(_name_list(obj["points"], "learning instance points"))
    raw_fns = obj["functions"]
    if not isinstance(raw_fns, list):
        raise ValidationError("learning instance functions must be a list of sign vectors")
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
