"""Benchmark for ``jsbaf eval``.

Usage, from the root of a checkout (the program is imported from ``src/``)::

    python3 bench/run.py --workload tandem-search --seed 1 --seconds 30 --trace 0

One operation is one ``jsbaf eval``, driven in-process through
``jsbaf.cli.main`` with stdout captured, in a single-threaded process.  Each
operation has a wall-clock deadline, enforced from the SIGALRM handler that
also samples the host's speed (no extra threads or processes).  Times are
wall times scaled by those samples (see CALIBRATION_REFERENCE_S), so that
the host's swings in speed cancel out.  A run makes a fixed number of passes
over the workload's operations, ``--seconds / SECONDS_PER_PASS``.  The count
does not depend on how fast the code under test is, so every commit gets the
same samples and the same percentiles; only passes that measure over twice
``--seconds``, or take four times as long in wall time, cut a run short.
Every completed operation is checked for correctness (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics, measured with tracing off.  A
report that has a reference digest is hashed as jsbaf writes it and neither
kept nor parsed; the others are checked in full after the peak RSS is read.
So that figure is jsbaf's own peak plus the benchmark's small base.
``--trace 1`` alternates untraced and traced passes, checks every report in
full, and prints per-layer metrics from the traced passes (see
``tracer.py``), plus the tracing overhead; the spans are written to
``.bench_work/<workload>/spans.tsv``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a readable
summary.  Exit code 0 when every output was correct, 1 when one was not,
2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 15
# A run makes --seconds / SECONDS_PER_PASS passes, three at --seconds 30.
# Each workload's pass took 6-15 s at the seed commit on a 2-vCPU x86-64 VM
# (CPython 3.11).  Three passes give each operation's latency as the median
# of three repeats.
SECONDS_PER_PASS = 10.0

END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("eval_s.p50", "s"),
    ("eval_s.tail", "s"),
    ("peak_rss_mb", "MB"),
    ("completed_ratio", "ratio"),
)


# Speed calibration.  The host's speed swings by up to 2x within seconds
# (other tenants share its cores; process CPU time swings with wall time, so
# it does not help).  While a pass runs, a SIGALRM every SAMPLE_INTERVAL_S
# times a fixed pure-Python loop.  Each operation's wall time, less the time
# spent in the handler, is multiplied by CALIBRATION_REFERENCE_S over the
# mean loop time sampled during the operation (widened by one interval on
# each side).  Times are thus seconds at the speed where the loop takes
# CALIBRATION_REFERENCE_S, about its median on a 2-vCPU x86-64 VM with
# CPython 3.11.  The handler costs about 2% of a pass.
CALIBRATION_REFERENCE_S = 0.0012
SAMPLE_INTERVAL_S = 0.05


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now.  It mixes the kinds of
    work jsbaf does: dict updates, building frozensets of tuples, set
    intersections over an adjacency map, sorting and joining strings.

    The collector is off meanwhile: called from the signal handler, the
    loop's allocations would otherwise trigger collections of the heap of
    the operation it interrupted, and time them as the host's speed.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _calibration_loop()
    finally:
        if collecting:
            gc.enable()


def _calibration_loop() -> float:
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    pairs = {frozenset(((f"a{i % 53}", i % 7), (i % 7, f"a{i % 53}"))) for i in range(400)}
    attackers: dict[int, set[int]] = {}
    for i in range(600):
        attackers.setdefault(i * 7 % 120, set()).add(i * 13 % 120)
    accepted: set[int] = set()
    for node in range(120):
        if not attackers.get(node, set()) & accepted:
            accepted.add(node)
    ",".join(sorted(map(str, accepted)) + sorted(str(sorted(map(str, p))) for p in pairs))
    return time.perf_counter() - start


class DeadlineExceeded(Exception):
    pass


class Speedometer:
    """Samples the host's speed, and enforces the per-operation deadline,
    from one SIGALRM handler: no extra thread or process."""

    def __init__(self):
        self.times: list[float] = []  # when each sample was taken
        self.loops: list[float] = []  # the calibration loop's time then
        self.spent = 0.0  # seconds spent in the handler so far
        self.deadline: float | None = None  # perf_counter time of the deadline

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)  # a first sample at once
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        if self.deadline is not None and start > self.deadline:
            self.deadline = None
            raise DeadlineExceeded()
        self.loops.append(calibrate())
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def factor(self, start: float, end: float) -> float:
        """Speed factor for something that ran from ``start`` to ``end``."""
        lo = bisect.bisect_left(self.times, start - SAMPLE_INTERVAL_S)
        hi = bisect.bisect_right(self.times, end + SAMPLE_INTERVAL_S)
        loops = self.loops[lo:hi] or self.loops[max(0, lo - 1):lo + 1] or [calibrate()]
        return CALIBRATION_REFERENCE_S / statistics.mean(loops)


class DigestWriter(io.TextIOBase):
    """A stdout that keeps only the SHA-256 of what is written to it.  Like
    a real stdout it holds no copy of the report, so the report's size is
    not added to the peak memory a second time."""

    def __init__(self):
        super().__init__()
        self.sha256 = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.sha256.update(text.encode("utf-8"))
        return len(text)


@dataclass
class Outcome:
    """What one ``jsbaf eval`` did."""

    code: int | None  # the exit code main() returned
    error: str | None  # None, or why the operation failed
    seconds: float  # wall time less the time spent in the meter's handler
    window: tuple[float, float]  # perf_counter start and end
    digest: str  # SHA-256 of stdout
    report: str | None  # stdout, when it was captured


def run_operation(op, meter: Speedometer, capture: bool) -> Outcome:
    """Run one ``jsbaf eval`` while ``meter`` runs.  Its stdout is captured
    with ``capture``, else only its digest is kept.

    The operation fails when the deadline passes, the argument parser
    exits, an exception escapes, or it returns an exit code other than 0
    or 1 (1 is a verdict: a postulate is violated).
    """
    import checks
    import jsbaf.cli

    out = io.StringIO() if capture else DigestWriter()
    err = io.StringIO()
    code, error = None, None
    spent = meter.spent
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            meter.deadline = start + op.deadline_s
            try:
                code = jsbaf.cli.main(op.argv())
            finally:
                meter.deadline = None
    except DeadlineExceeded:
        error = f"deadline {op.deadline_s:g} s passed"
    except SystemExit as exc:
        error = f"exited with {exc.code!r}: {err.getvalue().strip()}"
    except Exception as exc:  # an escaped exception is a counted failure
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    elapsed = end - start - (meter.spent - spent)
    if error is None and code not in (0, 1):
        error = f"exit code {code}: {err.getvalue().strip()}"
    if error is None and elapsed > op.deadline_s:
        error = f"finished after the {op.deadline_s:g} s deadline"
    if capture:
        report = out.getvalue()
        return Outcome(code, error, elapsed, (start, end), checks.digest(report), report)
    return Outcome(code, error, elapsed, (start, end), out.sha256.hexdigest(), None)


def setup_probe(workload: str, seed: int):
    """The set-up of a run, in a fresh process: import jsbaf and write the
    rule files.  Prints ``ready``, the speed factor sampled meanwhile and the
    seconds spent sampling it."""
    with Speedometer() as meter:
        start = time.perf_counter()
        import jsbaf.cli  # noqa: F401
        workloads.write_inputs(workloads.operations(workload, seed))
        end = time.perf_counter()
    print(f"ready {meter.factor(start, end)!r} {meter.spent!r}", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh-process set-up times: from spawning the interpreter until it has
    imported jsbaf and written the workload's rule files, less the probe's
    sampling time, scaled by the speed the probe sampled on its own CPU."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            end = time.perf_counter()
            probe.stdout.read()
            ready, factor, spent = (line.split() + ["", "", ""])[:3]
            if probe.wait() != 0 or ready != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        times.append((end - start - float(spent)) * float(factor))
    return times


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile, in tenths, with at least ten samples above
    it, but not below p90 (nearest rank); returns (percentile, value).

    The samples are per-operation medians over the passes, so the tail
    reports slow operations, not moments when the host was slow.  With
    fewer than 100 operations p90 has fewer than ten samples above it; the
    floor keeps the tail above the median when there are not enough.
    """
    n = len(samples)
    per_mille = max(900, 1000 * (n - 10) // n)
    rank = max(1, -(-per_mille * n // 1000))
    return per_mille / 10, sorted(samples)[rank - 1]


class Run:
    """The passes of one benchmark run and what they measured.

    Operation times are scaled by the speed calibration (see
    CALIBRATION_REFERENCE_S); a failed operation counts at its deadline,
    unscaled, since the deadline is a wall-clock budget.
    """

    def __init__(self, ops, checker, tracer=None):
        self.ops = ops
        self.checker = checker
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}  # operation -> untraced latencies
        self.totals = {False: [], True: []}  # traced? -> pass times
        self.wall_totals = {False: [], True: []}  # the same, unscaled
        self.traced_passes: list[list[int]] = []
        self.op_keys: dict[int, str] = {}
        self.scale: dict[int, float] = {}  # operation id -> speed factor
        self.completed: set[int] = set()
        self.attempted = 0
        self.failures: dict[str, list[str]] = {}
        self.problems: dict[str, list[str]] = {}
        self.deferred: list[tuple] = []  # (op, outcome) awaiting the full check

    def run_pass(self, traced: bool):
        if traced:
            self.tracer.install()
        ran = []  # (op id, operation, seconds or None if it failed, window)
        with Speedometer() as meter:
            for op in self.ops:
                # Each operation starts from a collected heap, so its garbage
                # collections and its peak memory do not depend on the
                # operations before it.
                gc.collect()
                op_id = len(self.op_keys)
                self.op_keys[op_id] = op.key
                if traced:
                    self.tracer.op = op_id
                # Untraced, a report with a reference is only hashed, not
                # kept, and the full check of the others waits for the end.
                outcome = run_operation(op, meter, traced or op.key not in self.checker.references)
                if traced:
                    self.tracer.op = None
                self.attempted += 1
                if outcome.error is None:
                    self.completed.add(op_id)
                    if traced or outcome.report is None:
                        self.check(op, outcome)
                    else:
                        self.deferred.append((op, outcome))
                    ran.append((op_id, op, outcome.seconds, outcome.window))
                else:
                    self.failures.setdefault(op.key, []).append(outcome.error)
                    ran.append((op_id, op, None, outcome.window))
                del outcome  # so the report is not alive during the next operation
        if traced:
            self.tracer.uninstall()
            self.traced_passes.append([op_id for op_id, _, _, _ in ran])
        total = wall = 0.0
        for op_id, op, elapsed, window in ran:
            self.scale[op_id] = meter.factor(*window)
            if elapsed is None:  # a failure counts at the deadline
                wall += op.deadline_s
                time_s = op.deadline_s
            else:
                wall += elapsed
                time_s = elapsed * self.scale[op_id]
            total += time_s
            if not traced:
                self.samples.setdefault(op.key, []).append(time_s)
        self.totals[traced].append(total)
        self.wall_totals[traced].append(wall)

    def check(self, op, outcome: Outcome):
        found = self.checker.check(op, outcome.code, outcome.digest, outcome.report)
        if found:
            known = self.problems.setdefault(op.key, [])
            known += [problem for problem in found if problem not in known]

    def measure(self, seconds: float, trace: bool):
        """Run ``seconds / SECONDS_PER_PASS`` passes, and at least one, or
        one untraced and one traced pass with ``trace``, which alternates
        them.

        On a machine so slow that the passes measure over twice ``seconds``,
        or take four times as long in wall time, stop once the minimum is
        reached, so the run still ends in time; the summary shows how many
        passes ran.
        """
        minimum = 2 if trace else 1
        for number in range(max(round(seconds / SECONDS_PER_PASS), minimum)):
            self.run_pass(trace and number % 2 == 1)
            measured = sum(self.totals[False]) + sum(self.totals[True])
            wall = sum(self.wall_totals[False]) + sum(self.wall_totals[True])
            if number + 1 >= minimum and (measured > 2 * seconds or wall > 4 * seconds):
                return

    @property
    def failed(self) -> int:
        return sum(len(v) for v in self.failures.values())


def end_to_end_metrics(run: Run, setup: list[float], tail: float, peak_rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "total_s": statistics.median(run.totals[False]),
        "eval_s.p50": statistics.median(t for times in run.samples.values() for t in times),
        "eval_s.tail": tail,
        "peak_rss_mb": peak_rss_mb,
        "completed_ratio": 1 - run.failed / run.attempted,
    }


def tracing_overhead(run: Run) -> float:
    """Median over (untraced, traced) pass pairs, which alternate, of the
    traced minus the untraced pass time."""
    pairs = zip(run.totals[False], run.totals[True])
    return statistics.median(traced - untraced for untraced, traced in pairs)


def print_summary(args, inputs_digest, run, metrics, checker, tail_label):
    p = print
    p(f"workload {args.workload}  seed {args.seed}  inputs sha256 {inputs_digest}")
    p(f"  {len(run.ops)} operations per pass; passes: {len(run.totals[False])} untraced, "
      f"{len(run.totals[True])} traced; {run.attempted} attempted, {run.failed} failed")
    if not args.trace:
        notes = {
            "setup_s": f"median of {SETUP_PROBES} fresh processes",
            "total_s": "median of passes " + " ".join(f"{t:.3f}" for t in run.totals[False])
            + "; unscaled wall " + " ".join(f"{t:.3f}" for t in run.wall_totals[False]),
            "eval_s.tail": tail_label,
        }
        for name, unit in END_TO_END:
            p(f"  {name:<16} {metrics[name]:>12.6g} {unit:<6} {notes.get(name, '')}")
        p(f"  {'failed_ratio':<16} {run.failed / run.attempted:>12.6g} {'ratio':<6} "
          f"{run.failed} of {run.attempted}")
    for key, errors in sorted(run.failures.items()):
        p(f"  failed {key}: {errors[0]} (x{len(errors)})")
    checked = "in full" if args.trace else f"by digest, {len(run.deferred)} of them also in full"
    p(f"  correctness: {len(run.completed)} completed operations checked {checked}, "
      f"{checker.oracle_checked} outputs against the oracle, {len(run.problems)} with problems, "
      f"{len(checker.unreferenced)} without a reference digest")
    for key, problems in sorted(run.problems.items()):
        for problem in problems:
            p(f"  WRONG {key}: {problem}")


def print_trace(run, metrics, tracer):
    p = print
    overhead = metrics["tracing_overhead_s"]
    untraced = run.totals[False]
    spread = max(untraced) - min(untraced)
    p(f"  tracing overhead {overhead:.4f} s per pass "
      f"({overhead / statistics.median(untraced):+.1%} of untraced total_s)"
      + (f", within the {spread:.4f} s spread of the untraced passes, so noise"
         if abs(overhead) < spread else ""))
    if tracer.absent:
        p(f"  absent (no longer in jsbaf): {', '.join(tracer.absent)}")
    p(f"  {'function':<42} {'calls':>8} {'per eval':>9} {'self_s':>10}")
    for fn in tracer.names:
        p(f"  {fn:<42} {metrics[fn + '.calls']:>8g} {metrics[fn + '.calls_per_eval']:>9.3f} "
          f"{metrics[fn + '.self_s']:>10.4f}")
    for module in tracing.WRAPPED:
        p(f"  {module + ' (module)':<42} {'':>8} {'':>9} {metrics[module + '.self_s']:>10.4f}")
    for name, unit, _ in tracing.SIZE_METRICS:
        p(f"  {name:<42} {metrics[name]:>12.6g} {unit}")
    sizes: dict[str, dict[str, int]] = {}
    for op in run.traced_passes[0]:
        instance = run.op_keys[op].split("/")[1]
        for name, value in tracer.sizes.get(op, {}).items():
            row = sizes.setdefault(instance, {})
            row[name] = max(row.get(name, 0), value)
    if len(sizes) > 20:  # random-sweep: the summed sizes above cover it
        return
    p(f"  {'instance':<16} {'args':>6} {'witnesses':>10} {'attacks':>8} {'supports':>9} "
      f"{'flat nodes':>11} {'flat edges':>11}")
    for instance in sorted(sizes):
        s = sizes[instance]
        p(f"  {instance:<16} {s.get('arguments.args', 0):>6} {s.get('arguments.witnesses', 0):>10} "
          f"{s.get('arguments.attacks', 0):>8} {s.get('arguments.supports', 0):>9} "
          f"{s.get('frameworks.flat_nodes', 0):>11} {s.get('frameworks.flat_edges', 0):>11}")


def check_benchmark_json(per_layer: list[tuple[str, str, str]]):
    """Fail fast when BENCHMARK.json and this program disagree on metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if e2e != list(END_TO_END) or layer != per_layer:
        raise RuntimeError("BENCHMARK.json metrics differ from the metrics bench/run.py reports")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jsbaf" / "__init__.py").is_file():
        sys.stderr.write(f"error: no jsbaf sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import jsbaf.cli  # noqa: F401  (imported before any operation is timed)

    import checks

    per_layer = tracing.per_layer_metrics()
    check_benchmark_json(per_layer)
    ops = workloads.operations(args.workload, args.seed)
    inputs_digest = workloads.write_inputs(ops)
    checker = checks.Checker(checks.load_references())
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    run = Run(ops, checker, tracer)
    # The set-up's objects (modules, inputs, references) will not become
    # garbage; freezing them keeps the collection before each operation cheap.
    gc.collect()
    gc.freeze()
    run.measure(args.seconds, bool(args.trace))
    # Read before the untraced run parses any report, so the peak is jsbaf's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for op, outcome in run.deferred:
        run.check(op, outcome)
    for op in workloads.check_operations(args.workload):
        with Speedometer() as meter:
            outcome = run_operation(op, meter, capture=True)
        if outcome.error is None:
            run.check(op, outcome)
        else:
            run.problems.setdefault(op.key, []).append(f"check operation failed: {outcome.error}")

    tail_label = None
    if args.trace:
        metrics = tracing.summarise(tracer, run.traced_passes, run.completed, run.scale)
        metrics["tracing_overhead_s"] = tracing_overhead(run)
        tracer.write_spans(workloads.WORK_DIR / args.workload / "spans.tsv", run.op_keys)
        units = {name: unit for name, unit, _ in per_layer}
        reported = {name: metrics[name] for name, _, _ in per_layer}
    else:
        percentile, tail = tail_percentile([statistics.median(t) for t in run.samples.values()])
        passes = len(run.totals[False])
        tail_label = f"p{percentile:g} of {len(run.samples)} per-operation medians of {passes} passes"
        metrics = end_to_end_metrics(run, setup, tail, peak_rss_mb)
        units = dict(END_TO_END)
        reported = metrics
    print_summary(args, inputs_digest, run, metrics, checker, tail_label)
    if args.trace:
        print_trace(run, metrics, tracer)
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
