"""Every demo script, and README's quick start, runs to completion against
the library in src/."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_against_src(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo):
    run_against_src(str(demo))


def test_readme_quick_start_runs():
    # README's first python block
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    run_against_src("-W", "error", "-c", readme.split("```python\n", 1)[1].split("```", 1)[0])
