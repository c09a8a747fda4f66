"""Smoke test of the benchmark harness on its search workload.

One pass of ``bench/run.py --workload tandem-search`` evaluates all 44
operations and compares every report with its recorded SHA-256 digest, so
this also guards the byte-identical output of complete, stable and
preferred search.  No assertion is made on times, nor on how many operations
met their deadline.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tandem_search_workload_runs_and_is_correct():
    command = [
        sys.executable, "bench/run.py", "--workload", "tandem-search",
        "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
