"""Every demo script runs to completion against the package and prints
exactly its recorded output, ``tests/data/demo-0N.txt``, with warnings
turned into errors and nothing written to stderr; README's library quick
start and command lines run the same way."""

import os
import re
import shlex
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


# The exit codes of the lines of README's "Command line" block, a code per
# command of a pipe: ``eval --mode aspic-minus`` and ``check-postulates``
# report violated postulates.
README_EXIT_CODES = ["0", "1", "0", "0", "0", "1", "0 0", "0"]


def test_readme_command_lines_run():
    """Each line of README's "Command line" block, run by bash from the
    repository root with ``jsbaf`` as ``python -W error -m jsbaf.cli``,
    pipe and all."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    (block,) = re.findall(r"^```sh\n(.*?)^```$", section, re.M | re.S)
    jsbaf = f"{shlex.quote(sys.executable)} -W error -m jsbaf.cli "
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    codes = []
    for line in block.splitlines():
        script = re.sub(r"(^|\| )jsbaf ", lambda m: m[1] + jsbaf, line)
        result = subprocess.run(
            ["bash", "-c", script + '; echo "${PIPESTATUS[*]}"'],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.stderr == "", line
        codes.append(result.stdout.splitlines()[-1])
    assert codes == README_EXIT_CODES
