"""Per-module tracing from outside the program.

The tracer wraps public functions of the eight ``jsbaf`` modules on the eval
path.  Modules import each other by name (``from .arguments import
construct_arguments``), so each wrapper replaces the binding in every
``jsbaf.*`` namespace that holds the original.  Calls inside a module go
through its globals and are caught the same way.

Per-element helpers (``complement``, ``undercuts``, ``base``, ``sort_nodes``
and the like, called per formula, per node or per argument pair) are not
wrapped: millions of spans would swamp the stages they belong to, whose self
time includes them.  Functions off the eval path are not wrapped either, nor
are the ones no workload reaches: ``frameworks.prune_inert`` (no operation
passes ``--flatten prune-inert``) and ``reporting.limit_error_report`` (the
search bounds are set so high that no limit report is produced).
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from typing import Callable

# Wrapped functions by module.  A name that no longer exists is reported as
# absent, so the traced run survives refactors that delete a stage.
WRAPPED: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "dsl": ("parse_system",),
    "core": ("is_consistent", "strict_closure", "find_complement_pair"),
    "arguments": (
        "construct_arguments", "attack_witnesses", "build_aspic_minus_af",
        "build_da_jsbaf", "support_pairs", "strict_argument_nodes",
    ),
    "frameworks": (
        "flatten_one_step", "flatten_joint_attacks", "flatten_simplified", "project",
    ),
    "semantics": (
        "extensions", "grounded_extension", "complete_extensions",
        "stable_extensions", "preferred_extensions", "canonical_extension_order",
        "flattened_af", "jsbaf_extensions",
    ),
    "postulates": (
        "conclusion_sets", "evaluate_postulates", "check_closure",
        "check_direct_consistency", "check_indirect_consistency",
    ),
    "reporting": ("build_report", "emit_report"),
}

# Functions that some workload never calls.  Their self time is printed, but
# it is not a per-layer metric, because on that workload it would read
# exactly 0 on every run; their module's self time covers them.
NOT_ON_EVERY_WORKLOAD = frozenset({
    "semantics.grounded_extension", "semantics.complete_extensions",
    "semantics.stable_extensions", "semantics.preferred_extensions",
})

# Instance sizes and search counts, read from return values once the
# operation has ended, outside every span.  Within one operation an instance
# size is the largest value seen (the pipeline recomputes stages), a work
# count is summed over calls.
_SIZES: dict[str, tuple[tuple[str, Callable, bool], ...]] = {
    "arguments.construct_arguments": (("arguments.args", lambda r: len(r.arguments), False),),
    "arguments.attack_witnesses": (("arguments.witnesses", len, False),),
    "arguments.build_aspic_minus_af": (("arguments.attacks", lambda r: len(r.attacks), False),),
    "arguments.build_da_jsbaf": (
        ("arguments.attacks", lambda r: len(r.attacks), False),
        ("arguments.supports", lambda r: len(r.supports), False),
    ),
    "frameworks.flatten_simplified": (
        ("frameworks.flat_nodes", lambda r: len(r.nodes), False),
        ("frameworks.flat_edges", lambda r: len(r.attacks), False),
    ),
    "semantics.complete_extensions": (("semantics.complete_labellings", len, True),),
    "semantics.extensions": (("semantics.extensions_found", len, False),),
    "semantics.jsbaf_extensions": (("semantics.projected_extensions", len, False),),
    "reporting.emit_report": (("reporting.report_bytes", lambda r: len(r.encode()), False),),
}

SIZE_METRICS = (
    ("arguments.args", "count", "lower"),
    ("arguments.witnesses", "count", "lower"),
    ("arguments.attacks", "count", "lower"),
    ("arguments.supports", "count", "lower"),
    ("frameworks.flat_nodes", "count", "lower"),
    ("frameworks.flat_edges", "count", "lower"),
    ("frameworks.blowup", "ratio", "lower"),
    ("semantics.complete_labellings", "count", "lower"),
    ("semantics.extensions_found", "count", "lower"),
    ("semantics.projection_yield", "ratio", "higher"),
    ("reporting.report_bytes", "bytes", "lower"),
)


def function_names() -> list[str]:
    return [f"{module}.{name}" for module, names in WRAPPED.items() for name in names]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for fn in function_names():
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.calls_per_eval", "calls/eval", "lower"))
        if fn not in NOT_ON_EVERY_WORKLOAD:
            out.append((f"{fn}.self_s", "s", "lower"))
    out += [(f"{module}.self_s", "s", "lower") for module in WRAPPED]
    out += list(SIZE_METRICS)
    out.append(("tracing_overhead_s", "s", "lower"))
    return out


class Tracer:
    """Records one span per wrapped call made while an operation is active.

    A span is (function index, start, end, parent span index, operation id);
    spans stay in memory until ``write_spans``.
    """

    def __init__(self):
        self.names = function_names()
        self.absent: list[str] = []
        self.spans: list = []
        self.sizes: dict[int, dict[str, int]] = {}  # operation id -> sizes
        self.op: int | None = None
        self._stack: list[int] = []
        self._pending: list = []  # (operation id, sizers, return value)
        self._patches: list[tuple[object, str, object, object]] = []

    def install(self):
        """Replace every binding of each wrapped function in ``jsbaf.*``."""
        self.absent = []
        holders = [m for n, m in sys.modules.items() if n == "jsbaf" or n.startswith("jsbaf.")]
        for index, full in enumerate(self.names):
            module_name, name = full.split(".")
            try:
                module = importlib.import_module(f"jsbaf.{module_name}")
            except ImportError:
                self.absent.append(full)
                continue
            original = getattr(module, name, None)
            if not callable(original):
                self.absent.append(full)
                continue
            wrapper = self._wrap(index, original, _SIZES.get(full, ()))
            for holder in holders:
                for attr, value in vars(holder).items():
                    if value is original:
                        self._patches.append((holder, attr, original, wrapper))
        for holder, attr, _, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        self._measure_sizes()  # left over when an operation's span raised
        for holder, attr, original, _ in self._patches:
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, index: int, fn: Callable, sizers) -> Callable:
        spans, stack, pending, clock = self.spans, self._stack, self._pending, time.perf_counter

        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, op)
            if sizers:
                pending.append((op, sizers, result))
            if not stack and pending:
                self._measure_sizes()
            return result

        return wrapper

    def _measure_sizes(self):
        """Size the return values of the operation that just ended; runs
        after its outermost span, so no span's time includes it."""
        for op, sizers, result in self._pending:
            record = self.sizes.setdefault(op, {})
            for metric, measure, summed in sizers:
                value = measure(result)
                old = record.get(metric, 0)
                record[metric] = old + value if summed else max(old, value)
        self._pending.clear()

    def self_times(self) -> dict[int, list[float]]:
        """Operation id -> self time per wrapped function index: span
        duration minus the time its direct child spans cover."""
        child = [0.0] * len(self.spans)
        for index, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, list[float]] = {}
        for slot, (index, start, end, parent, op) in enumerate(self.spans):
            row = out.setdefault(op, [0.0] * len(self.names))
            row[index] += end - start - child[slot]
        return out

    def calls(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for index, _, _, _, op in self.spans:
            out.setdefault(op, [0] * len(self.names))[index] += 1
        return out

    def write_spans(self, path, operation_keys: dict[int, str]):
        """One line per span: function, start, end, parent, operation."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# function\tstart_s\tend_s\tparent\toperation\n")
            for index, start, end, parent, op in self.spans:
                handle.write(
                    f"{self.names[index]}\t{start:.9f}\t{end:.9f}\t{parent}\t{operation_keys[op]}\n"
                )


def summarise(tracer: Tracer, passes: list[list[int]], completed: set[int],
              scale: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics from the traced passes.

    ``passes`` lists the operation ids of each traced pass.  Call counts and
    self times are per pass (median over traced passes).  Self times are
    multiplied by ``scale`` (operation id -> speed factor, see run.py), like
    the end-to-end times; they include the speed sampler's handler, about 2%
    of the functions it happens to interrupt.  ``calls_per_eval`` is the
    mean number of calls in the completed evaluations that call the
    function at all, so a deductive-only stage counts per deductive
    evaluation.  Sizes are summed over one pass; the two ratios are over
    the operations that flatten (deductive ones).
    """
    self_by_op = {
        op: [t * scale[op] for t in row] for op, row in tracer.self_times().items()
    }
    calls_by_op = tracer.calls()
    zero_f = [0.0] * len(tracer.names)
    zero_i = [0] * len(tracer.names)
    metrics: dict[str, float] = {}
    done = [op for ops in passes for op in ops if op in completed]
    for i, fn in enumerate(tracer.names):
        metrics[f"{fn}.calls"] = statistics.median(
            sum(calls_by_op.get(op, zero_i)[i] for op in ops) for ops in passes
        )
        callers = [calls_by_op[op][i] for op in done if calls_by_op.get(op, zero_i)[i]]
        metrics[f"{fn}.calls_per_eval"] = sum(callers) / len(callers) if callers else 0.0
        metrics[f"{fn}.self_s"] = statistics.median(
            sum(self_by_op.get(op, zero_f)[i] for op in ops) for ops in passes
        )
    for module in WRAPPED:
        members = [i for i, fn in enumerate(tracer.names) if fn.startswith(module + ".")]
        metrics[f"{module}.self_s"] = statistics.median(
            sum(self_by_op.get(op, zero_f)[i] for op in ops for i in members) for ops in passes
        )
    first = passes[0]
    sizes = [tracer.sizes.get(op, {}) for op in first]
    for name, _, _ in SIZE_METRICS:
        metrics[name] = sum(s.get(name, 0) for s in sizes)
    args = sum(s.get("arguments.args", 0) for s in sizes if "frameworks.flat_nodes" in s)
    nodes = sum(s.get("frameworks.flat_nodes", 0) for s in sizes)
    metrics["frameworks.blowup"] = nodes / args if args else 0.0
    found = sum(s.get("semantics.extensions_found", 0) for s in sizes if "semantics.projected_extensions" in s)
    projected = sum(s.get("semantics.projected_extensions", 0) for s in sizes)
    metrics["semantics.projection_yield"] = projected / found if found else 0.0
    return metrics
