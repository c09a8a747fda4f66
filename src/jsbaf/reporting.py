"""Report writing and the DOT / APX emitters.

Serialisation is canonical: every list is sorted, JSON keys are sorted, and
identical inputs produce byte-identical output.  Lists of nodes, extensions
and supports are written in node order, which is label order (see
``frameworks``), as the pipeline holds them.  A JSON report is the text
that ``json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)``
gives for it, plus a newline, written straight from the ``Evaluation`` by
fixed templates of its sections: no report dict, no generic encoder.  Ids
are quoted once per report, and each large section (attack lists, witness
records) is one ``join``, written on its own.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring as _quote  # the C escaper of ensure_ascii=False
from typing import Callable

from .frameworks import AF, JSBAF, BarNode, BaseNode, ENode, HigherLevelAF, NodeId
from .postulates import POSTULATES, Evaluation, Verdict

REPORT_FORMATS = ("json", "text")

# A JSON value that starts on a line at depth d has its members on lines
# that start with _NL[d + 1], and its closing bracket on one of _NL[d].
_NL = tuple("\n" + "  " * depth for depth in range(8))


def report_settings(
    semantics: str, mode: str, flatten_mode: str, max_arguments: int, max_nodes: int
) -> dict:
    """The ``settings`` block of a full report and of a limit report."""
    flatten = flatten_mode if mode == "deductive" else None
    return {"semantics": semantics, "mode": mode, "flatten": flatten,
            "max_arguments": max_arguments, "max_nodes": max_nodes}


# Nodes are numbers into a framework's node table, and ``names`` holds each
# node's name (its label, quoted or not), by number.

def _attack_rows(framework: AF | JSBAF, names: list[str]):
    """The attacks of ``framework`` by source, as (name of the source, names
    of its targets), in node order: the order of the sorted label pairs."""
    for s, row in enumerate(framework.target_ids):
        if row:
            yield names[s], list(map(names.__getitem__, row))


def _support_lists(j: JSBAF, names: list[str]) -> list[tuple[list[str], str]]:
    """The supports of ``j`` as (source names, target name)."""
    return [([names[i] for i in src], names[dst]) for src, dst in j.support_ids]


# JSON templates: ``depth`` is that of the line a value starts on; ``names``
# are a framework's quoted labels by node number, ``quoted`` the ids by ordinal.

def _list(items: list[str], depth: int) -> str:
    """A JSON list of already encoded ``items``."""
    if not items:
        return "[]"
    if len(items) == 1:
        return f"[{_NL[depth + 1]}{items[0]}{_NL[depth]}]"
    return f"[{_NL[depth + 1]}{(',' + _NL[depth + 1]).join(items)}{_NL[depth]}]"


def _texts(texts, depth: int) -> str:
    """A JSON list of ``texts``, sorted."""
    return _list(list(map(_quote, sorted(texts))), depth)


def _rows(parts: list[str], depth: int) -> str:
    """A large JSON list as one ``join`` of ``parts``, where each item comes
    after a "," and its indent; the first "," becomes the opening bracket."""
    if not parts:
        return "[]"
    parts[0] = "["
    parts.append(_NL[depth] + "]")
    return "".join(parts)


def _flat_object(fields: dict, depth: int) -> str:
    """A JSON object of str, int and None values (no bool), keys sorted."""
    return "{" + ",".join(
        f"{_NL[depth + 1]}{_quote(key)}: "
        + (_quote(value) if isinstance(value, str) else "null" if value is None else str(value))
        for key, value in sorted(fields.items())
    ) + (_NL[depth] + "}" if fields else "}")


def _arguments_json(ev: Evaluation, quoted: list[str]) -> str:
    """The argument records; each rule's head and id are quoted once."""
    i2, i3 = _NL[2], _NL[3]
    rules: dict = {}  # rule id: (quoted head, quoted rule id)
    records = []
    for arg in ev.store.arguments:
        rule = arg.rule
        parts = rules.get(rule.id)
        if parts is None:
            parts = rules[rule.id] = (_quote(str(rule.head)), _quote(rule.id))
        records.append(
            f'{{{i3}"conclusion": {parts[0]},'
            f'{i3}"defeasible": {"true" if arg.defeasible else "false"},'
            f'{i3}"form": {_quote(arg.form)},'
            f'{i3}"id": {quoted[arg.ordinal]},{i3}"rule": {parts[1]},'
            f'{i3}"structure": {_quote(arg.structure)},'
            f'{i3}"subs": {_list([quoted[s.ordinal] for s in arg.subs], 3)}{i2}}}'
        )
    return _list(records, 1)


def _verdict(verdict: Verdict, name: str) -> str:
    """A verdict: a closure witness is {body, missing_head, rule}, any other {pair}."""
    witness, i5, i6 = verdict.witness, _NL[5], _NL[6]
    if witness is None:
        encoded = "null"
    elif name == "closure":
        encoded = (f'{{{i6}"body": {_texts(map(str, witness.body), 6)},{i6}"missing_head": '
                   f'{_quote(str(witness.head))},{i6}"rule": {_quote(witness.id)}{i5}}}')
    else:
        encoded = f'{{{i6}"pair": {_texts(map(str, witness), 6)}{i5}}}'
    satisfied = "true" if verdict.satisfied else "false"
    return f'{{{i5}"satisfied": {satisfied},{i5}"witness": {encoded}{_NL[4]}}}'


def _conclusion_sets_json(ev: Evaluation, quoted_id: dict) -> str:
    """The conclusion sets and their verdicts."""
    i3, i4 = _NL[3], _NL[4]
    entries = []
    for cs, report in zip(ev.conclusion_sets, ev.postulates):
        postulates = ",".join(
            f'{i4}"{name}": {_verdict(getattr(report, name), name)}' for name in POSTULATES
        )
        entries.append(
            f'{{{i3}"conclusions": {_texts(map(str, cs.formulas), 3)},'
            f'{i3}"extension": {_list([quoted_id[i] for i in cs.extension], 3)},'
            f'{i3}"postulates": {{{postulates}{i3}}}{_NL[2]}}}'
        )
    return _list(entries, 1)


def _attacks_json(framework: AF | JSBAF, names: list[str]) -> str:
    """The sorted label pairs of ``framework``'s attacks, a row at a time."""
    i3, i4, tail = _NL[3], _NL[4], _NL[3] + "]"
    parts = []
    for s, targets in _attack_rows(framework, names):
        head = f"[{i4}{s},{i4}"
        parts += (",", i3, head, f"{tail},{i3}{head}".join(targets), tail)
    return _rows(parts, 2)


def _witnesses_json(ev: Evaluation, quoted_id: dict[str, str]) -> str:
    """The witness records, attacker by attacker.  Each hits tuple is made
    into record tails once, and an attacker's records are a ``join`` of them."""
    i3, i4 = _NL[3], _NL[4]
    tails_of: dict[int, list[str]] = {}
    parts = []
    for attacker, hits in ev.witnesses.groups:
        tails = tails_of.get(id(hits))
        if tails is None:
            tails = tails_of[id(hits)] = [
                f'"kind": "{kind}",{i4}"on": {quoted_id[on]},'
                f'{i4}"target": {quoted_id[target]}{i3}}}'
                for target, kind, on in hits
            ]
        head = f'{{{i4}"attacker": {quoted_id[attacker]},{i4}'
        parts += (",", i3, head, f",{i3}{head}".join(tails))
    return _rows(parts, 2)


def _write_json(ev: Evaluation, source: str, settings: dict, write) -> None:
    """The JSON report, in key order.  Each large section is written on its
    own, after a ``write`` that ends with its key, so that it is never copied
    to put the key in front and is dropped before the next one is built."""
    store, system, flat, i1, i2 = ev.store, ev.store.system, ev.flat, _NL[1], _NL[2]
    ids = [arg.canonical_id for arg in store.arguments]
    quoted = list(map(_quote, ids))
    quoted_id = dict(zip(ids, quoted))
    names = [quoted[o] for o in store.node_order]  # the framework's quoted labels
    arguments = _arguments_json(ev, quoted)
    write(f'{{{i1}"arguments": ')
    write(arguments)
    del arguments
    pruned = "true" if store.acyclicity_pruned else "false"
    extensions = [[names[i] for i in ext] for ext in ev.extensions]
    write(
        f',{i1}"conclusion_sets": {_conclusion_sets_json(ev, quoted_id)},'
        f'{i1}"enumeration": {{{i2}"acyclicity_pruned": {pruned},{i2}"count": {len(store)}{i1}}},'
        f'{i1}"extensions": {_list([_list(e, 2) for e in extensions], 1)},'
    )
    if flat is not None:
        flat_names = list(map(_quote, flat.labels))
        write(f'{i1}"flattened": {{{i2}"attacks": ')
        write(_attacks_json(flat, flat_names))
        mode = "null" if settings["flatten"] is None else _quote(settings["flatten"])
        extensions = [[flat_names[i] for i in ext] for ext in ev.raw_extensions]
        write(
            f',{i2}"extensions": {_list([_list(e, 3) for e in extensions], 2)},'
            f'{i2}"mode": {mode},{i2}"nodes": {_list(flat_names, 2)}{i1}}},'
        )
    write(f'{i1}"framework": {{{i2}"attack_witnesses": ')
    write(_witnesses_json(ev, quoted_id))
    write(f',{i2}"attacks": ')
    write(_attacks_json(ev.framework, names))
    if flat is not None:
        i3, i4, supports = _NL[3], _NL[4], _support_lists(ev.framework, names)
        write(f',{i2}"supports": ' + _list(
            [f"[{i4}{_list(src, 4)},{i4}{dst}{i3}]" for src, dst in supports], 2))
    consistent = "true" if ev.consistent else "false"
    summary = ",".join(f'{i2}"{name}": "{"satisfied" if held else "violated"}"'
                       for name, held in zip(POSTULATES, ev.holds))
    write(
        f'{i1}}},{i1}"input": {{{i2}"atoms": {_texts(system.atoms, 2)},'
        f'{i2}"consistent": {consistent},{i2}"defeasible_rules": {len(system.defeasible_rules)},'
        f'{i2}"source": {_quote(source)},{i2}"strict_rules": {len(system.strict_rules)},'
        f'{i2}"undercut_names": {len(system.undercut_names)}{i1}}},'
        f'{i1}"postulate_summary": {{{summary}{i1}}},{i1}"postulates_in_scope": {consistent},'
        f'{i1}"settings": {_flat_object(settings, 1)},{i1}"status": "ok"\n}}\n'
    )


def _witness_text(name: str, witness) -> str:
    """A witness as the text report shows it: its JSON object as a Python dict."""
    if witness is None:
        return "None"
    if name == "closure":
        body, head = sorted(map(str, witness.body)), str(witness.head)
        return f"{{'rule': {witness.id!r}, 'body': {body!r}, 'missing_head': {head!r}}}"
    return f"{{'pair': {sorted(map(str, witness))!r}}}"


def _write_text(ev: Evaluation, source: str, settings: dict, write) -> None:
    system, labels = ev.store.system, ev.framework.labels
    flatten = f", flatten={settings['flatten']}" if settings["flatten"] else ""
    write("\n".join([
        f"source: {source}",
        f"system: {len(system.strict_rules)} strict, {len(system.defeasible_rules)} defeasible, "
        f"{len(system.undercut_names)} named, consistent={str(ev.consistent).lower()}",
        f"run: semantics={settings['semantics']}, mode={settings['mode']}{flatten}",
        "", f"arguments ({len(ev.store)}):", *(f"  {arg.form}" for arg in ev.store.arguments),
        "", "attacks:\n",
    ]))
    write("".join(
        f"  {s} -> " + f"\n  {s} -> ".join(targets) + "\n"
        for s, targets in _attack_rows(ev.framework, labels)
    ))
    tail = [] if ev.flat is None else ["supports:", *(
        f"  {{{','.join(src)}}} => {dst}" for src, dst in _support_lists(ev.framework, labels)
    ), f"flattened ({settings['flatten']}): {len(ev.flat.node_table)} nodes, "
       f"{sum(map(len, ev.flat.target_ids))} attacks"]
    tail += ["", f"extensions ({settings['semantics']}):"]
    tail += ["  {" + ",".join(labels[i] for i in e) + "}" for e in ev.extensions]
    tail += ["", "conclusion sets:"]
    for cs, report in zip(ev.conclusion_sets, ev.postulates):
        tail.append("  {" + ", ".join(sorted(map(str, cs.formulas))) + "}")
        for name in POSTULATES:
            verdict = getattr(report, name)
            tail.append(f"    {name}: " + ("satisfied" if verdict.satisfied else (
                f"VIOLATED ({_witness_text(name, verdict.witness)})")))
    tail += ["", "summary: " + ", ".join(f"{name}={'satisfied' if held else 'violated'}"
                                         for name, held in zip(POSTULATES, ev.holds))]
    if not ev.consistent:
        tail.append("note: system is inconsistent; postulate verdicts are out of scope")
    write("\n".join(tail) + "\n")


def write_report(
    ev: Evaluation, source: str, settings: dict, fmt: str, write: Callable[[str], object]
) -> bool:
    """Write the report of ``ev`` as ``fmt`` (one of ``REPORT_FORMATS``)
    through ``write``, calling it a fixed number of times whatever the
    report's size; ``settings`` is its ``report_settings`` block.  Returns
    whether every postulate holds on every conclusion set."""
    if fmt == "json":
        _write_json(ev, source, settings, write)
    elif fmt == "text":
        _write_text(ev, source, settings, write)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return all(ev.holds)


def write_limit_report(
    source: str, settings: dict, error: Exception, fmt: str, write: Callable[[str], object]
) -> None:
    """Write the minimal report of a run stopped by an enumeration or search
    limit, in one call of ``write``."""
    detail = {"type": type(error).__name__, "message": str(error)}
    detail.update((a, getattr(error, a)) for a in ("limit", "bound", "nodes") if hasattr(error, a))
    if fmt == "json":
        i1 = _NL[1]
        write(
            f'{{{i1}"error": {_flat_object(detail, 1)},'
            f'{i1}"input": {{{_NL[2]}"source": {_quote(source)}{i1}}},'
            f'{i1}"settings": {_flat_object(settings, 1)},{i1}"status": "limit-exceeded"\n}}\n'
        )
    elif fmt == "text":
        write(f"source: {source}\nstatus: limit-exceeded ({detail['type']}: {detail['message']})\n")
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
        for i, (srcs, dst) in enumerate(framework.joint_attack_ids):
            junction = f"ja{i}"
            lines.append(f"  {junction} [shape=point, width=0.05];")
            for src in srcs:
                lines.append(f"  {names[src]} -> {junction} [dir=none];")
            lines.append(f"  {junction} -> {names[dst]};")
    if isinstance(framework, JSBAF):
        double = ' [color="black:invis:black"'
        for i, (srcs, dst) in enumerate(framework.support_ids):
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
