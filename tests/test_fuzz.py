"""Fuzz the CLI with malformed documents: every one must end in an exit code.

Each example takes a valid document, replaces one field (or one element of a
list field) with arbitrary JSON, and runs `main` in-process on it. Only
0 (success), 2 (input error), 3 (undefined output) and 4 (enumeration cap)
are allowed: 1 would mean an identity check failed on a document the
parsers accepted, and an exception is a traceback at the command line. A
warning fails the example too: at the command line it is noise on stderr
next to the `error:` line, and pytest's own capture would hide it.
"""
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effinfo.cli import main

DATA = Path(__file__).parent / "data"

# (document read from stdin, argv with "-" in its place); every |X| <= 8
CASES = {
    "channel": ("identity8.json", ["ei", "-", "y3"]),
    "map": ("map3to1.json", ["entropy", "-"]),
    "prior": ("prior3.json", ["entropy", str(DATA / "copy3.json"), "--prior", "-"]),
    "learning instance": ("instance_shatter.json", ["--format", "machine", "learn", "-"]),
}

NUMBERS = (st.integers(-3, 3) | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([10**400, -(10**400), 1e308]))
# Strings from the symbol names' own characters, so that some of them resolve.
NAMES = st.text("abxy03", max_size=3)
SCALARS = st.none() | st.booleans() | NAMES | NUMBERS
ROWS = st.lists(NUMBERS, max_size=9)           # a number row, often of the wrong length
JSON = (ROWS
        | st.lists(ROWS, max_size=9)            # mostly ragged matrices
        | st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                       | st.dictionaries(NAMES, inner, max_size=3),
                       max_leaves=12))


def malformed(data, name):
    """The document `name` with one field, or one element of it, replaced."""
    doc = json.loads((DATA / name).read_text())
    key = data.draw(st.sampled_from(sorted(doc)))
    if isinstance(doc[key], list) and doc[key] and data.draw(st.booleans()):
        doc[key][data.draw(st.integers(0, len(doc[key]) - 1))] = data.draw(JSON)
    else:
        doc[key] = data.draw(JSON)
    return json.dumps(doc)


@pytest.mark.parametrize("kind", sorted(CASES))
@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_malformed_documents_exit_with_a_code(kind, data):
    name, argv = CASES[kind]
    text = malformed(data, name)
    with (mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode()))),
          redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in {0, 2, 3, 4}, text
    assert not caught, (text, [str(w.message) for w in caught])
