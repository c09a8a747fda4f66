"""Every demo script runs to completion against the package and prints
exactly its recorded output, ``tests/data/demo-0N.txt``, with warnings
turned into errors and nothing written to stderr; README's library quick
start runs the same way."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_all_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT, env=env, capture_output=True
    )
    assert (result.returncode, result.stderr.decode()) == (0, "")
    assert result.stdout == (DATA / f"demo-{demo.name[:2]}.txt").read_bytes()


def test_readme_quick_start_runs():
    """The python blocks under README's "Library quick start", run in order
    as one program from the repository root."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library quick start\n")[1].split("\n## ")[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 2
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", "".join(blocks)],
        cwd=ROOT, env=env, capture_output=True,
    )
    assert (result.returncode, result.stderr.decode()) == (0, "")
