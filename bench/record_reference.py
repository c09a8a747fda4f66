"""Record the reference digest of every operation the benchmark can run.

Run from the root of a checkout of the commit whose reports are the
reference::

    python3 bench/record_reference.py [--op-limit SECONDS]

It covers the operations of every workload and the untimed check
operations, and writes ``bench/reference_digests.json``.  Each report must
first pass the full correctness check of ``checks.py``, so a report equal to
its reference is correct.  An operation that does not finish within
``--op-limit``, or whose report fails the check, gets no reference; the
benchmark then reports it as unreferenced instead of checking its digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--op-limit", type=float, default=600.0)
    args = parser.parse_args()
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    import checks

    ops = (
        workloads.tandem_search_operations()
        + workloads.check_operations("tandem-search")
        + workloads.tandem_build_operations()
        + workloads.random_sweep_operations()
    )
    workloads.write_inputs(ops)
    checker = checks.Checker({})
    references = {}
    for op in ops:
        with run.Speedometer() as meter:
            outcome = run.run_operation(dataclasses.replace(op, deadline_s=args.op_limit), meter, capture=True)
        error = outcome.error
        if error is None:
            problems = checker.check(op, outcome.code, outcome.digest, outcome.report)
            if problems:
                error = "; ".join(problems)
            else:
                references[op.key] = outcome.digest
        print(f"{op.key}: {error or 'ok'} ({outcome.seconds:.2f} s)", file=sys.stderr)
    checks.REFERENCE_FILE.write_text(json.dumps(references, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(references)} of {len(ops)} operations recorded", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
