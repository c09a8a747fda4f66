"""Report writing and the DOT / APX emitters.

Serialisation is canonical: every list is sorted, JSON keys are sorted, and
identical inputs produce byte-identical output.  A JSON report is the text
that ``json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)``
gives for it, plus a newline, written section by section straight from the
``Evaluation``.  Its large lists are filled in from fixed templates: the
attack lists row by row, and the witness records once per hits tuple.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring as _quote  # the C escaper of ensure_ascii=False
from typing import Callable

from .core import StrictRule
from .frameworks import AF, JSBAF, BarNode, BaseNode, ENode, HigherLevelAF, NodeId
from .postulates import POSTULATES, Evaluation, PostulateReport, Verdict

REPORT_FORMATS = ("json", "text")


def _formula_list(formulas) -> list[str]:
    return sorted(str(f) for f in formulas)


# Nodes are numbers into a framework's node table; each node's label is
# computed once, by ``labels``, and the lists below are built from it.

def _attack_rows(framework: AF | JSBAF, names: list[str]):
    """The attacks of ``framework`` by source, as (name of the source, names
    of its targets), sources and targets in label order: the order of the
    sorted label pairs.  ``names`` holds each node's name, by number."""
    labels, rows = framework.labels, framework.target_ids
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = None
    if order != list(range(len(order))):  # node numbers are not in label order
        rank = [0] * len(order)
        for r, i in enumerate(order):
            rank[i] = r
    for s in order:
        row = rows[s]
        if row:
            if rank is not None:
                row = sorted(row, key=rank.__getitem__)
            yield names[s], list(map(names.__getitem__, row))


def _extension_list(framework: AF | JSBAF, extensions) -> list[list[str]]:
    labels = framework.labels
    return sorted([labels[i] for i in ext] for ext in extensions)


def _support_list(j: JSBAF) -> list[tuple[list[str], str]]:
    labels = j.labels
    return sorted(([labels[i] for i in src], labels[dst]) for src, dst in j.support_ids)


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


# The JSON writer.  ``depth`` is the nesting level of the line a value starts
# on; its members are indented one level deeper, by two spaces per level.

def _block(brackets: str, items: list[str], depth: int) -> str:
    """A JSON list or object of already encoded ``items``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _list(items: list[str], depth: int) -> str:
    return _block("[]", items, depth)


def _json(value, depth: int) -> str:
    """A dict, list, str, int, bool or None as JSON, keys sorted."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        return _block("{}", [f"{_quote(k)}: {_json(v, depth + 1)}" for k, v in items], depth)
    if isinstance(value, (list, tuple)):
        return _list([_json(v, depth + 1) for v in value], depth)
    raise TypeError(f"a report holds no {type(value).__name__}")


def _attacks_json(framework: AF | JSBAF, names: list[str], depth: int) -> str:
    """The sorted label pairs of ``framework``'s attacks; ``names`` are its
    quoted labels.  Each row is one ``join`` over its targets."""
    inner, outer = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 1)
    rows = []
    for s, targets in _attack_rows(framework, names):
        head, tail = f"[{inner}{s},{inner}", f"{outer}]"
        rows.append(head + f"{tail},{outer}{head}".join(targets) + tail)
    return _list(rows, depth)


def _arguments_json(ev: Evaluation, depth: int) -> str:
    inner, outer = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 1)
    return _list([
        f'{{{inner}"conclusion": {_quote(str(arg.conclusion))},'
        f'{inner}"defeasible": {"true" if arg.defeasible else "false"},'
        f'{inner}"form": {_quote(arg.form)},{inner}"id": {_quote(arg.canonical_id)},'
        f'{inner}"rule": {_quote(arg.rule.id)},{inner}"structure": {_quote(arg.structure)},'
        f'{inner}"subs": {_list([_quote(s.canonical_id) for s in arg.subs], depth + 2)}{outer}}}'
        for arg in ev.store.arguments
    ], depth)


def _witnesses_json(ev: Evaluation, depth: int) -> str:
    """The witness records, attacker by attacker.  Each hits tuple is
    formatted once, into the record tails of its witnesses, and each
    attacker's records are one ``join`` of its tails."""
    inner, outer = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 1)
    tails_of: dict[int, list[str]] = {}
    records = []
    for attacker, hits in ev.witnesses.groups:
        tails = tails_of.get(id(hits))
        if tails is None:
            tails = tails_of[id(hits)] = [
                f'"kind": {_quote(kind)},{inner}"on": {_quote(on)},'
                f'{inner}"target": {_quote(target)}{outer}}}'
                for target, kind, on in hits
            ]
        head = f'{{{inner}"attacker": {_quote(attacker)},{inner}'
        records.append(head + f",{outer}{head}".join(tails))
    return _list(records, depth)


def _flattened_entries(ev: Evaluation, settings: dict):
    names = list(map(_quote, ev.flat.labels))
    yield "attacks", _attacks_json(ev.flat, names, 2)
    yield "extensions", _json(_extension_list(ev.flat, ev.raw_extensions), 2)
    yield "mode", _json(settings["flatten"], 2)
    yield "nodes", _list(names, 2)


def _framework_entries(ev: Evaluation):
    yield "attack_witnesses", _witnesses_json(ev, 2)
    yield "attacks", _attacks_json(ev.framework, list(map(_quote, ev.framework.labels)), 2)
    if ev.flat is not None:
        yield "supports", _json(_support_list(ev.framework), 2)


def _report_entries(ev: Evaluation, source: str, settings: dict, sets: list[dict], summary: dict):
    """The entries of a full JSON report, in key order: (key, encoded value),
    or (key, entries) for the two large nested objects."""
    system = ev.store.system
    yield "arguments", _arguments_json(ev, 1)
    yield "conclusion_sets", _json(sets, 1)
    yield "enumeration", _json(
        {"count": len(ev.store), "acyclicity_pruned": ev.store.acyclicity_pruned}, 1
    )
    yield "extensions", _json(_extension_list(ev.framework, ev.extensions), 1)
    if ev.flat is not None:
        yield "flattened", _flattened_entries(ev, settings)
    yield "framework", _framework_entries(ev)
    yield "input", _json({
        "source": source,
        "atoms": sorted(system.atoms),
        "strict_rules": len(system.strict_rules),
        "defeasible_rules": len(system.defeasible_rules),
        "undercut_names": len(system.undercut_names),
        "consistent": ev.consistent,
    }, 1)
    yield "postulate_summary", _json(summary, 1)
    yield "postulates_in_scope", _json(ev.consistent, 1)
    yield "settings", _json(settings, 1)
    yield "status", _json("ok", 1)


def _write_object(entries, depth: int, write) -> None:
    """Write a JSON object from its lazily built ``entries``, one ``write``
    per entry, so that only one large value is alive at a time."""
    indent = "\n" + "  " * (depth + 1)
    separator = "{"
    for key, value in entries:
        head = f"{separator}{indent}{_quote(key)}: "
        if isinstance(value, str):
            write(head + value)
        else:
            write(head)
            _write_object(value, depth + 1, write)
        separator = ","
    write("\n" + "  " * depth + "}")


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def _write_text(
    ev: Evaluation, source: str, settings: dict, sets: list[dict], summary: dict, write
) -> None:
    system = ev.store.system
    flatten = f", flatten={settings['flatten']}" if settings["flatten"] else ""
    write(_lines(
        f"source: {source}",
        f"system: {len(system.strict_rules)} strict, {len(system.defeasible_rules)} defeasible, "
        f"{len(system.undercut_names)} named, consistent={str(ev.consistent).lower()}",
        f"run: semantics={settings['semantics']}, mode={settings['mode']}{flatten}",
        "",
        f"arguments ({len(ev.store)}):",
        *(f"  {arg.form}" for arg in ev.store.arguments),
        "",
        "attacks:",
    ))
    write("".join(
        f"  {s} -> " + f"\n  {s} -> ".join(targets) + "\n"
        for s, targets in _attack_rows(ev.framework, ev.framework.labels)
    ))
    if ev.flat is not None:
        write(_lines(
            "supports:",
            *(
                f"  {{{','.join(src)}}} => {dst}"
                for src, dst in _support_list(ev.framework)
            ),
            f"flattened ({settings['flatten']}): {len(ev.flat.node_table)} nodes, "
            f"{sum(map(len, ev.flat.target_ids))} attacks",
        ))
    tail = ["", f"extensions ({settings['semantics']}):"]
    tail += ["  {" + ",".join(ext) + "}" for ext in _extension_list(ev.framework, ev.extensions)]
    tail += ["", "conclusion sets:"]
    for entry in sets:
        tail.append("  {" + ", ".join(entry["conclusions"]) + "}")
        for name in POSTULATES:
            verdict = entry["postulates"][name]
            state = "satisfied" if verdict["satisfied"] else f"VIOLATED ({verdict['witness']})"
            tail.append(f"    {name}: {state}")
    tail += ["", "summary: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))]
    if not ev.consistent:
        tail.append("note: system is inconsistent; postulate verdicts are out of scope")
    write(_lines(*tail))


def write_report(
    ev: Evaluation, source: str, settings: dict, fmt: str, write: Callable[[str], object]
) -> bool:
    """Write the report of ``ev`` as ``fmt`` (one of ``REPORT_FORMATS``)
    through ``write``, calling it a fixed number of times whatever the
    report's size; ``settings`` is its ``report_settings`` block.  Returns
    whether every postulate holds on every conclusion set."""
    sets = [
        {
            "extension": list(cs.extension),
            "conclusions": _formula_list(cs.formulas),
            "postulates": _postulates_json(verdicts),
        }
        for cs, verdicts in zip(ev.conclusion_sets, ev.postulates)
    ]
    summary = {
        name: "satisfied" if all(e["postulates"][name]["satisfied"] for e in sets) else "violated"
        for name in POSTULATES
    }
    if fmt == "json":
        _write_object(_report_entries(ev, source, settings, sets, summary), 0, write)
        write("\n")
    elif fmt == "text":
        _write_text(ev, source, settings, sets, summary, write)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return "violated" not in summary.values()


def write_limit_report(
    source: str, settings: dict, error: Exception, fmt: str, write: Callable[[str], object]
) -> None:
    """Write the minimal report of a run stopped by an enumeration or search
    limit, in one call of ``write``."""
    detail: dict = {"type": type(error).__name__, "message": str(error)}
    for attr in ("limit", "bound", "nodes"):
        if hasattr(error, attr):
            detail[attr] = getattr(error, attr)
    if fmt == "json":
        report = {
            "input": {"source": source},
            "settings": settings,
            "status": "limit-exceeded",
            "error": detail,
        }
        write(_json(report, 0) + "\n")
    elif fmt == "text":
        write(_lines(
            f"source: {source}",
            f"status: limit-exceeded ({detail['type']}: {detail['message']})",
        ))
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(framework: AF | JSBAF | HigherLevelAF) -> str:
    """GraphViz rendering: attacks as solid arrows, supports and joint
    attacks as doubled-style edges through a small junction point,
    meta-arguments drawn as dashed boxes."""
    names = [_dot_quote(label) for label in framework.labels]
    lines = ["digraph framework {"]
    for name, key in zip(names, framework.node_keys):
        style = " [shape=box, style=dashed]" if key[0] else ""
        lines.append(f"  {name}{style};")
    for src, row in enumerate(framework.target_ids):
        lines += [f"  {names[src]} -> {names[dst]};" for dst in row]
    if isinstance(framework, HigherLevelAF):
        for i, (srcs, dst) in enumerate(sorted(framework.joint_attack_ids)):
            junction = f"ja{i}"
            lines.append(f"  {junction} [shape=point, width=0.05];")
            for src in srcs:
                lines.append(f"  {names[src]} -> {junction} [dir=none];")
            lines.append(f"  {junction} -> {names[dst]};")
    if isinstance(framework, JSBAF):
        double = ' [color="black:invis:black"'
        for i, (srcs, dst) in enumerate(sorted(framework.support_ids)):
            junction = f"sup{i}"
            lines.append(f"  {junction} [shape=point, width=0.05];")
            for src in srcs:
                lines.append(f"  {names[src]} -> {junction}{double}, dir=none];")
            lines.append(f"  {junction} -> {names[dst]}{double}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _apx_name(node: NodeId) -> str:
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
    if not af.node_table:
        return ""
    names: list[str] = []
    used: set[str] = set()
    for node in af.node_table:
        candidate = _apx_name(node) or "n"
        final = candidate
        suffix = 2
        while final in used:
            final = f"{candidate}_{suffix}"
            suffix += 1
        used.add(final)
        names.append(final)
    lines = [f"arg({name})." for name in names]
    lines += sorted(
        f"att({names[s]},{names[d]})." for s, row in enumerate(af.target_ids) for d in row
    )
    lines += [f"% {name} := {label}" for name, label in zip(names, af.labels) if name != label]
    return "\n".join(lines) + "\n"
