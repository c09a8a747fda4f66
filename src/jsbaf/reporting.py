"""Report assembly and the DOT / APX / JSON / text emitters.

Serialisation is canonical: every list is sorted, JSON keys are sorted, and
identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from .core import StrictRule
from .frameworks import AF, JSBAF, HigherLevelAF, NodeId, is_meta, sort_nodes
from .postulates import POSTULATES, Evaluation, PostulateReport, Verdict

def _formula_list(formulas) -> list[str]:
    return sorted(str(f) for f in formulas)


def _node_list(nodes: Iterable[NodeId]) -> list[str]:
    return [n.label for n in sort_nodes(nodes)]


def _edge_list(edges: Iterable[tuple[NodeId, NodeId]]) -> list[list[str]]:
    return sorted([s.label, d.label] for s, d in edges)


def _support_list(supports) -> list[list]:
    return sorted([_node_list(src), dst.label] for src, dst in supports)


def _verdict_json(name: str, verdict: Verdict) -> dict:
    out: dict = {"satisfied": verdict.satisfied}
    if verdict.witness is None:
        out["witness"] = None
    elif name == "closure":
        rule: StrictRule = verdict.witness
        out["witness"] = {
            "rule": rule.id,
            "body": _formula_list(rule.body),
            "missing_head": str(rule.head),
        }
    else:
        out["witness"] = {"pair": _formula_list(verdict.witness)}
    return out


def _postulates_json(report: PostulateReport) -> dict:
    return {name: _verdict_json(name, getattr(report, name)) for name in POSTULATES}


def report_settings(
    semantics: str, mode: str, flatten_mode: str, max_arguments: int, max_nodes: int
) -> dict:
    """The ``settings`` block of a full report and of a limit report."""
    return {
        "semantics": semantics,
        "mode": mode,
        "flatten": flatten_mode if mode == "deductive" else None,
        "max_arguments": max_arguments,
        "max_nodes": max_nodes,
    }


def build_report(ev: Evaluation, source: str, settings: dict) -> dict:
    """One evaluation as a plain dict ready for canonical serialisation;
    ``settings`` is its ``report_settings`` block."""
    system = ev.store.system
    report: dict = {
        "input": {
            "source": source,
            "atoms": sorted(system.atoms),
            "strict_rules": len(system.strict_rules),
            "defeasible_rules": len(system.defeasible_rules),
            "undercut_names": len(system.undercut_names),
            "consistent": ev.consistent,
        },
        "settings": settings,
        "arguments": [
            {
                "id": arg.canonical_id,
                "rule": arg.rule.id,
                "subs": [s.canonical_id for s in arg.subs],
                "conclusion": str(arg.conclusion),
                "defeasible": arg.defeasible,
                "form": arg.form,
                "structure": arg.structure,
            }
            for arg in ev.store.arguments
        ],
        "enumeration": {
            "count": len(ev.store),
            "acyclicity_pruned": ev.store.acyclicity_pruned,
        },
        "status": "ok",
        "framework": {
            "attacks": _edge_list(ev.framework.attacks),
            "attack_witnesses": [
                {"attacker": w.attacker, "target": w.target, "kind": w.kind, "on": w.on}
                for w in ev.witnesses
            ],
        },
    }
    if ev.flat is not None:
        report["framework"]["supports"] = _support_list(ev.framework.supports)
        report["flattened"] = {
            "mode": settings["flatten"],
            "nodes": _node_list(ev.flat.nodes),
            "attacks": _edge_list(ev.flat.attacks),
            "extensions": sorted(_node_list(e) for e in ev.raw_extensions),
        }
    report["extensions"] = sorted(_node_list(e) for e in ev.extensions)
    report["conclusion_sets"] = [
        {
            "extension": list(cs.extension),
            "conclusions": _formula_list(cs.formulas),
            "postulates": _postulates_json(verdicts),
        }
        for cs, verdicts in zip(ev.conclusion_sets, ev.postulates)
    ]
    report["postulate_summary"] = {
        name: (
            "satisfied"
            if all(entry["postulates"][name]["satisfied"] for entry in report["conclusion_sets"])
            else "violated"
        )
        for name in POSTULATES
    }
    report["postulates_in_scope"] = ev.consistent
    return report


def limit_error_report(source: str, settings: dict, error: Exception) -> dict:
    """Minimal report for a run stopped by an enumeration or search limit."""
    detail: dict = {"type": type(error).__name__, "message": str(error)}
    for attr in ("limit", "bound", "nodes"):
        if hasattr(error, attr):
            detail[attr] = getattr(error, attr)
    return {
        "input": {"source": source},
        "settings": settings,
        "status": "limit-exceeded",
        "error": detail,
    }


def emit_report(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if fmt == "text":
        return _render_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _render_text(report: dict) -> str:
    lines = []
    inp = report["input"]
    lines.append(f"source: {inp['source']}")
    if report["status"] != "ok":
        err = report["error"]
        lines.append(f"status: {report['status']} ({err['type']}: {err['message']})")
        return "\n".join(lines) + "\n"
    settings = report["settings"]
    lines.append(
        f"system: {inp['strict_rules']} strict, {inp['defeasible_rules']} defeasible, "
        f"{inp['undercut_names']} named, consistent={str(inp['consistent']).lower()}"
    )
    flatten = f", flatten={settings['flatten']}" if settings["flatten"] else ""
    lines.append(f"run: semantics={settings['semantics']}, mode={settings['mode']}{flatten}")
    lines.append("")
    lines.append(f"arguments ({report['enumeration']['count']}):")
    for arg in report["arguments"]:
        lines.append(f"  {arg['form']}")
    lines.append("")
    lines.append("attacks:")
    for src, dst in report["framework"]["attacks"]:
        lines.append(f"  {src} -> {dst}")
    if "supports" in report["framework"]:
        lines.append("supports:")
        for src, dst in report["framework"]["supports"]:
            lines.append(f"  {{{','.join(src)}}} => {dst}")
    if "flattened" in report:
        flat = report["flattened"]
        lines.append(
            f"flattened ({flat['mode']}): {len(flat['nodes'])} nodes, "
            f"{len(flat['attacks'])} attacks"
        )
    lines.append("")
    lines.append(f"extensions ({settings['semantics']}):")
    for ext in report["extensions"]:
        lines.append("  {" + ",".join(ext) + "}")
    lines.append("")
    lines.append("conclusion sets:")
    for entry in report["conclusion_sets"]:
        lines.append("  {" + ", ".join(entry["conclusions"]) + "}")
        for name in POSTULATES:
            verdict = entry["postulates"][name]
            state = "satisfied" if verdict["satisfied"] else f"VIOLATED ({verdict['witness']})"
            lines.append(f"    {name}: {state}")
    lines.append("")
    summary = ", ".join(f"{k}={v}" for k, v in sorted(report["postulate_summary"].items()))
    lines.append(f"summary: {summary}")
    if not report["postulates_in_scope"]:
        lines.append("note: system is inconsistent; postulate verdicts are out of scope")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(framework: AF | JSBAF | HigherLevelAF) -> str:
    """GraphViz rendering: attacks as solid arrows, supports and joint
    attacks as doubled-style edges through a small junction point,
    meta-arguments drawn as dashed boxes."""
    lines = ["digraph framework {"]
    for node in sort_nodes(framework.nodes):
        style = " [shape=box, style=dashed]" if is_meta(node) else ""
        lines.append(f"  {_dot_quote(node.label)}{style};")

    if isinstance(framework, HigherLevelAF):
        singles = sorted(
            ((next(iter(x)), b) for x, b in framework.joint_attacks if len(x) == 1),
            key=lambda p: (p[0].key(), p[1].key()),
        )
        joints = sorted(
            ((x, b) for x, b in framework.joint_attacks if len(x) > 1),
            key=lambda p: (tuple(n.key() for n in sort_nodes(p[0])), p[1].key()),
        )
        for src, dst in singles:
            lines.append(f"  {_dot_quote(src.label)} -> {_dot_quote(dst.label)};")
        for i, (srcs, dst) in enumerate(joints):
            junction = f"ja{i}"
            lines.append(f"  {junction} [shape=point, width=0.05];")
            for src in sort_nodes(srcs):
                lines.append(f"  {_dot_quote(src.label)} -> {junction} [dir=none];")
            lines.append(f"  {junction} -> {_dot_quote(dst.label)};")
    else:
        for src, dst in sorted(framework.attacks, key=lambda p: (p[0].key(), p[1].key())):
            lines.append(f"  {_dot_quote(src.label)} -> {_dot_quote(dst.label)};")

    if isinstance(framework, JSBAF):
        supports = sorted(
            framework.supports,
            key=lambda p: (tuple(n.key() for n in sort_nodes(p[0])), p[1].key()),
        )
        double = ' [color="black:invis:black"'
        for i, (srcs, dst) in enumerate(supports):
            junction = f"sup{i}"
            lines.append(f"  {junction} [shape=point, width=0.05];")
            for src in sort_nodes(srcs):
                lines.append(f"  {_dot_quote(src.label)} -> {junction}{double}, dir=none];")
            lines.append(f"  {junction} -> {_dot_quote(dst.label)}{double}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _apx_name(node: NodeId) -> str:
    from .frameworks import BarNode, BaseNode, ENode

    if isinstance(node, BaseNode):
        raw = node.label_text
    elif isinstance(node, BarNode):
        raw = "bar_" + _apx_name(node.base)
    elif isinstance(node, ENode):
        raw = "e_" + "_".join(_apx_name(m) for m in node.members)
    else:  # pragma: no cover
        raise TypeError(node)
    return re.sub(r"[^a-z0-9_]", "_", raw.lower())


def emit_apx(af: AF) -> str:
    """ASPARTIX format: one ``arg(x).`` line per node, one ``att(x,y).`` per
    edge, sorted.  Ids are sanitised to lowercase alphanumerics; renamed
    nodes get ``% apx-id := original`` comment lines so the mapping stays
    reversible.  An empty framework yields an empty file."""
    if not af.nodes:
        return ""
    names: dict[NodeId, str] = {}
    used: set[str] = set()
    for node in sort_nodes(af.nodes):
        candidate = _apx_name(node) or "n"
        final = candidate
        suffix = 2
        while final in used:
            final = f"{candidate}_{suffix}"
            suffix += 1
        used.add(final)
        names[node] = final
    lines = [f"arg({names[n]})." for n in sort_nodes(af.nodes)]
    lines += sorted(f"att({names[s]},{names[d]})." for s, d in af.attacks)
    lines += [
        f"% {names[n]} := {n.label}" for n in sort_nodes(af.nodes) if names[n] != n.label
    ]
    return "\n".join(lines) + "\n"
