"""Correctness checks on every completed operation.

References that do not come from the eval pipeline under test:

* the SHA-256 of each report as recorded at the seed commit
  (``reference_digests.json``), the byte-identical guard for refactors;
* closed-form results for tandem(n, k): n + n + C(n, k)(n - k) arguments;
  under deductive support, complete has 1 + C(n, k) extensions, stable and
  preferred C(n, k), all postulates hold; under aspic-minus, complete,
  stable and preferred violate closure and indirect consistency; grounded
  concludes exactly the n ``w`` atoms in both modes;
* the ROADMAP's instance sizes (arguments, flattened nodes);
* the paper's theorem: every deductive evaluation of a consistent system
  satisfies all three postulates;
* ``jsbaf.oracle.brute_force_extensions`` on every framework of at most
  ORACLE_NODE_CAP nodes.  The oracle is off the eval path and never timed.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

from jsbaf.frameworks import AF, base
from jsbaf.oracle import brute_force_extensions

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_digests.json"

# The default --oracle-cap of `jsbaf oracle`: the subset enumeration costs
# 2^n, and above this size it would dominate the run.
ORACLE_NODE_CAP = 12

# (arguments, flattened nodes) of the ROADMAP baseline instances.
ROADMAP_SIZES = {"tandem-3-2": (9, 21), "tandem-5-3": (30, 100), "seed38": (61, 143)}

POSTULATES = ("closure", "direct_consistency", "indirect_consistency")


def digest(output: str) -> str:
    return hashlib.sha256(output.encode("utf-8")).hexdigest()


def load_references() -> dict[str, str]:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


class Checker:
    """Checks outputs; the semantic checks run once per distinct output."""

    def __init__(self, references: dict[str, str]):
        self.references = references
        self.unreferenced: set[str] = set()
        self.oracle_checked = 0
        self._semantic: dict[str, list[str]] = {}

    def check(self, op, code: int, report_digest: str, report: str | None) -> list[str]:
        """Problems found in one completed operation; empty when correct.

        ``report`` is None when only its digest was kept.  Then only the
        digest is checked: a report equal to its reference passed the full
        check when the reference was recorded.
        """
        problems = []
        expected = self.references.get(op.key)
        if expected is None:
            self.unreferenced.add(op.key)
        elif report_digest != expected:
            problems.append(f"report digest {report_digest[:16]} differs from reference {expected[:16]}")
        if report is None:
            return problems
        if report_digest not in self._semantic:
            try:
                self._semantic[report_digest] = self._check_report(op, code, json.loads(report))
            except (ValueError, KeyError, TypeError) as exc:
                self._semantic[report_digest] = [f"report is not a complete eval report: {exc!r}"]
        return problems + self._semantic[report_digest]

    def _check_report(self, op, code: int, report: dict) -> list[str]:
        summary = report["postulate_summary"]
        problems = []
        violated = {p for p in POSTULATES if summary.get(p) == "violated"}
        if code != (1 if violated else 0):
            problems.append(f"exit code {code} disagrees with postulate summary {summary}")
        if op.mode == "deductive" and violated:
            problems.append(f"deductive evaluation violates {sorted(violated)}")
        extensions = report["extensions"]
        args = report["enumeration"]["count"]
        if op.instance.tandem:
            n, k = op.instance.tandem
            expected_args = 2 * n + comb(n, k) * (n - k)
            if args != expected_args:
                problems.append(f"{args} arguments, expected {expected_args}")
            if op.mode == "deductive":
                expected = {"grounded": 1, "complete": 1 + comb(n, k)}.get(op.semantics, comb(n, k))
                if len(extensions) != expected:
                    problems.append(f"{len(extensions)} extensions, expected {expected}")
            elif op.semantics != "grounded" and violated != {"closure", "indirect_consistency"}:
                problems.append(f"aspic-minus violates {sorted(violated)}, expected closure and indirect")
            if op.semantics == "grounded":
                wants = sorted(f"w{i}" for i in range(1, n + 1))
                got = [cs["conclusions"] for cs in report["conclusion_sets"]]
                if got != [wants]:
                    problems.append(f"grounded conclusions {got}, expected {[wants]}")
        if op.mode == "deductive" and op.instance.name in ROADMAP_SIZES:
            sizes = (args, len(report["flattened"]["nodes"]))
            if sizes != ROADMAP_SIZES[op.instance.name]:
                problems.append(f"(arguments, flattened nodes) = {sizes}, ROADMAP has {ROADMAP_SIZES[op.instance.name]}")
        problems += self._check_oracle(op, report)
        return problems

    def _check_oracle(self, op, report: dict) -> list[str]:
        if op.mode == "deductive":
            flat = report["flattened"]
            nodes, attacks, engine = flat["nodes"], flat["attacks"], flat["extensions"]
        else:
            nodes = [a["id"] for a in report["arguments"]]
            attacks, engine = report["framework"]["attacks"], report["extensions"]
        if len(nodes) > ORACLE_NODE_CAP:
            return []
        self.oracle_checked += 1
        af = AF(frozenset(map(base, nodes)), frozenset((base(s), base(d)) for s, d in attacks))
        brute = sorted(sorted(n.label for n in ext) for ext in brute_force_extensions(af, op.semantics))
        if sorted(engine) != brute:
            return [f"extensions {engine} differ from brute force {brute}"]
        return []
