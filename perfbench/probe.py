"""Time one cold set-up of the effinfo CLI in a fresh interpreter.

Usage: python3 probe.py SRC_DIR ARGV_JSON

Imports `effinfo.cli` from SRC_DIR, runs the command in ARGV_JSON once with
its output discarded, and prints {"exit": code, "setup_s": seconds}, timed
from the start of this script.
"""
import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(src: str, argv_json: str) -> None:
    sys.path.insert(0, src)
    from effinfo import cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(json.loads(argv_json))
    print(json.dumps({"exit": code, "setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
