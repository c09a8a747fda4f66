"""Smoke tests of the benchmark harness on its three workloads.

One pass of ``bench/run.py --workload tandem-search`` evaluates all 44
operations and compares every report with its recorded SHA-256 digest, so
this also guards the byte-identical output of complete, stable and
preferred search.  One pass of ``--workload tandem-build`` does the same for
its four large grounded reports, with hundreds of thousands of attack
witnesses and attacks between them.  One pass of ``--workload
random-sweep`` checks all 1,600 reports of its 200 random systems, 800 of
them over deductive flattenings.  One traced ``tandem-build`` run checks
that the tracer still finds the flattening it wraps.  No assertion is made
on times, nor on how many operations met their deadline.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import jsbaf

ROOT = Path(__file__).resolve().parents[1]


def run_workload(workload, trace=0):
    """The JSON summary of one pass of ``workload`` (with ``trace``, an
    untraced and a traced pass)."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tandem_search_workload_runs_and_is_correct():
    assert run_workload("tandem-search")["correct"] is True


def test_tandem_build_workload_runs_and_is_correct():
    summary = run_workload("tandem-build")
    assert summary["correct"] is True
    assert summary["attempted"] == 4 and summary["failed"] == 0


def test_traced_tandem_build_pass_counts_the_flattening():
    summary = run_workload("tandem-build", trace=1)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["metrics"]["frameworks.flatten_simplified.calls"]["value"] > 0


def test_random_sweep_workload_runs_and_is_correct():
    summary = run_workload("random-sweep")
    assert summary["correct"] is True
    assert summary["attempted"] == 1600 and summary["failed"] == 0


def test_checks_name_the_postulates_of_the_package():
    # the benchmark reads each report's postulate_summary under its own copy
    # of the names, which must not fall behind a renamed or added postulate
    spec = importlib.util.spec_from_file_location("bench_checks", ROOT / "bench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    assert checks.POSTULATES == jsbaf.POSTULATES
