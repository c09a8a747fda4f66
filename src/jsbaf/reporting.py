"""Report writing and the DOT / APX emitters.

Serialisation is canonical: every list is sorted, JSON keys are sorted, and
identical inputs produce byte-identical output.  Lists of nodes, extensions
and supports are written in node order, which is label order (see
``frameworks``), as the pipeline holds them.  A JSON report is the text
that ``json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)``
gives for it, plus a newline, written straight from the ``Evaluation`` by
fixed templates of its sections: no report dict, no generic encoder.  The
fixed parts are templates too: each section's keys and brackets are one
f-string with the list that follows them, the ``settings`` block is one
f-string in key order, and the ``postulate_summary`` block is one of the
strings made at import.  Every text a report states but the source path
and a limit's message is made of ASCII identifiers, ``~`` and the rule
language's punctuation (ids, labels, atoms, literals, forms, rule ids,
semantics and mode names), which JSON does not escape, so the templates
quote them; the source and the message go through the escaper.  A JSON
report quotes argument ids once, and every set whose verdicts are the
shared ``postulates.ALL_HOLD`` shares one verdict block.  A full report reads everything it states
from the ``Evaluation``, the run's parameters included.  A JSON limit
report is that ``json.dumps`` of its dict, by template too: the indented
``json`` encoder leaves reference cycles, and a command pauses the collector.

Both formats are written in pieces of about ``PIECE`` chars, each the
parts a report holds once they reach that size, so a report shorter than a
piece is one write.  A part is never split: a JSON list (the arguments, the
conclusion sets, the extensions, the nodes, the supports) is one part, and
so is each group of records handed to ``_Pieces.rows``: one source's row of
attack pairs, one attacker's witness records, one run of text lines.  So
are the JSON tail from ``input`` to ``status``, whose sorted atom list grows
with the atoms, and the text header up to the ``run:`` line; a write
exceeds ``PIECE`` by at most one part.
"""

from __future__ import annotations

import itertools
import re
from json.encoder import encode_basestring as _quote  # the C escaper of ensure_ascii=False
from typing import Callable

from .arguments import KINDS
from .frameworks import AF, JSBAF, BarNode, BaseNode, ENode, HigherLevelAF, NodeId
from .postulates import ALL_HOLD, POSTULATES, Evaluation

REPORT_FORMATS = ("json", "text")

# A JSON value that starts on a line at depth d has its members on lines
# that start with _NL[d + 1], and its closing bracket on one of _NL[d].
_NL = tuple("\n" + "  " * depth for depth in range(8))
_SEP = tuple("," + nl for nl in _NL)  # between the members of a value

PIECE = 1 << 16  # chars a report holds before it calls ``write``


class _Pieces:
    """Parts of a report, written when they hold ``PIECE`` chars, and at the
    end by ``flush(last)``.  ``add`` and ``flush`` take a part whole, and
    ``rows`` makes a part of each group of records, so a write exceeds
    ``PIECE`` by at most one part."""

    def __init__(self, write: Callable[[str], object]):
        self.write, self.parts, self.size = write, [], 0

    def add(self, part: str) -> None:
        self.parts.append(part)
        self.size += len(part)
        if self.size >= PIECE:
            self.flush()

    def rows(self, lead: str, groups, end: str, sep: str) -> None:
        """``lead``, then the records of ``groups``, pairs (head, list of
        items) whose records are ``head + item + end``, with ``sep`` between
        records: a part per group, the first behind ``lead``.  Nothing if no
        group has an item."""
        between = end + sep  # between two records, before the second one's head
        for head, items in groups:
            if items:
                self.add(f"{lead}{head}{(between + head).join(items)}{end}")
                lead = sep

    def flush(self, last: str = "") -> None:
        self.parts.append(last)
        self.write("".join(self.parts))
        self.parts, self.size = [], 0


# The flattening that deductive mode searches, the literal simplified one;
# aspic-minus mode flattens nothing.
_FLATTEN = "literal"


def report_settings(semantics: str, mode: str, max_arguments: int, max_nodes: int) -> dict:
    """The ``settings`` block of a limit report, which has no run to read:
    the parameters the stopped run was given.  A full report writes the
    same keys from its ``Evaluation`` by its own template, which is faster
    than encoding this dict."""
    flatten = _FLATTEN if mode == "deductive" else None
    return {"semantics": semantics, "mode": mode, "flatten": flatten,
            "max_arguments": max_arguments, "max_nodes": max_nodes}


# JSON templates: ``depth`` is that of the line a value starts on; ``names``
# are a framework's quoted labels by node number, ``quoted`` the ids by ordinal.

def _list(items, depth: int) -> str:
    """A JSON list of already encoded ``items``, any iterable of them."""
    text = _SEP[depth + 1].join(items)
    return f"[{_NL[depth + 1]}{text}{_NL[depth]}]" if text else "[]"


def _texts(texts, depth: int) -> str:
    """A JSON list of ``texts``, sorted: literals or atoms, which need no
    escape."""
    text = f'",{_NL[depth + 1]}"'.join(sorted(texts))
    return f'[{_NL[depth + 1]}"{text}"{_NL[depth]}]' if text else "[]"


def _flat_object(fields: dict, depth: int) -> str:
    """A JSON object of str, int and None values (no bool), keys sorted."""
    return "{" + ",".join(
        f"{_NL[depth + 1]}{_quote(key)}: "
        + (_quote(value) if isinstance(value, str) else "null" if value is None else str(value))
        for key, value in sorted(fields.items())
    ) + (_NL[depth] + "}" if fields else "}")


def _argument_records(ev: Evaluation, quoted: list[str]) -> list[str]:
    """The argument records."""
    i2, i3, i4 = _NL[2], _NL[3], _NL[4]
    records = []
    for arg, ident in zip(ev.store.arguments, quoted):
        subs = arg.subs
        subs = f"[{i4}{_SEP[4].join([quoted[s.ordinal] for s in subs])}{i3}]" if subs else "[]"
        records.append(
            f'{{{i3}"conclusion": "{arg.conclusion}",'
            f'{i3}"defeasible": {"true" if arg.defeasible else "false"},{i3}"form": "{arg.form}",'
            f'{i3}"id": {ident},{i3}"rule": "{arg.rule.id}",{i3}"structure": "{arg.structure}",'
            f'{i3}"subs": {subs}{i2}}}'
        )
    return records


def _verdict(witness, name: str) -> str:
    """A verdict from its witness: {body, missing_head, rule} for closure, else {pair}."""
    i5, i6 = _NL[5], _NL[6]
    if witness is None:
        encoded = "null"
    elif name == "closure":
        encoded = (f'{{{i6}"body": {_texts(map(str, witness.body), 6)},{i6}"missing_head": '
                   f'"{witness.head}",{i6}"rule": "{witness.id}"{i5}}}')
    else:
        encoded = f'{{{i6}"pair": {_texts(map(str, witness), 6)}{i5}}}'
    satisfied = "true" if witness is None else "false"
    return f'{{{i5}"satisfied": {satisfied},{i5}"witness": {encoded}{_NL[4]}}}'


# The JSON verdicts of ``ALL_HOLD``.
_ALL_HOLD_JSON = ",".join(
    f'{_NL[4]}"{name}": {_verdict(witness, name)}' for name, witness in zip(POSTULATES, ALL_HOLD)
)


def _conclusion_set_records(ev: Evaluation, quoted: list[str]) -> list[str]:
    """The conclusion sets and their verdicts."""
    i3, i4 = _NL[3], _NL[4]
    entries = []
    for cs in ev.conclusion_sets:
        postulates = _ALL_HOLD_JSON if cs.postulates is ALL_HOLD else ",".join(
            f'{i4}"{name}": {_verdict(witness, name)}'
            for name, witness in zip(POSTULATES, cs.postulates)
        )
        entries.append(
            f'{{{i3}"conclusions": {_texts(map(str, cs.formulas), 3)},'
            f'{i3}"extension": {_list(map(quoted.__getitem__, cs.extension), 3)},'
            f'{i3}"postulates": {{{postulates}{i3}}}{_NL[2]}}}'
        )
    return entries


def _named_rows(rows, names: list[str], done: dict, base=()):
    """(source number, the names of its targets) for each row of ``rows``
    that is not empty.  ``done`` maps the id of each row the report has
    named to its names, so each distinct row is named once: the attackers
    with the same conclusion share one row (see ``frameworks``).  ``base``
    holds the JSBAF rows that a flattening's argument rows extend: such a
    row takes the names of its row there and names only the targets after."""
    name, m = names.__getitem__, len(base)
    for s, row in enumerate(rows):
        if row:
            found = done.get(id(row))
            if found is None:
                before = base[s] if s < m and base[s] is not row else ()
                found = done[id(row)] = list(map(name, row[len(before):]))
                if before:  # its row in the JSBAF comes first, named once
                    prefix = done[id(before)] = done.get(id(before)) or list(map(name, before))
                    found[:0] = prefix
            yield s, found


def _attacks_json(out: _Pieces, lead: str, rows, names: list[str], done: dict, base=()) -> None:
    """``lead``, then the sorted label pairs of the attacks ``rows``, a row
    of targets per source, named by ``_named_rows``; ``names`` are the
    nodes' quoted labels."""
    if not any(rows):
        return out.add(lead + "[]")
    i3, i4 = _NL[3], _NL[4]
    groups = (
        (f"{i3}[{i4}{names[s]},{i4}", found) for s, found in _named_rows(rows, names, done, base)
    )
    out.rows(lead + "[", groups, i3 + "]", ",")
    out.add(_NL[2] + "]")


def _witnesses_json(out: _Pieces, lead: str, ev: Evaluation, quoted: list[str]) -> None:
    """``lead``, then the witness records, attacker by attacker.  Each hits
    tuple is made into record tails once, and an attacker's records are
    its head before each of them."""
    if not ev.witnesses.groups:
        return out.add(lead + "[]")
    i3, i4 = _NL[3], _NL[4]
    tails_of: dict[int, list[str]] = {}  # id(hits): its record tails
    groups = []
    for attacker, hits in ev.witnesses.groups:
        tails = tails_of.get(id(hits))
        if tails is None:
            tails = tails_of[id(hits)] = [
                f'"kind": "{KINDS[kind]}",{i4}"on": {quoted[on]},'
                f'{i4}"target": {quoted[target]}{i3}}}'
                for target, kind, on in hits
            ]
        groups.append((f'{i3}{{{i4}"attacker": {quoted[attacker]},{i4}', tails))
    out.rows(lead + "[", groups, "", ",")
    out.add(_NL[2] + "]")


# The ``postulate_summary`` block of a JSON report, by ``Evaluation.holds``.
_SUMMARY_JSON = {
    holds: "{" + ",".join(f'{_NL[2]}"{name}": "{"satisfied" if held else "violated"}"'
                          for name, held in zip(POSTULATES, holds)) + _NL[1] + "}"
    for holds in itertools.product((True, False), repeat=len(POSTULATES))
}


def _write_json(ev: Evaluation, source: str, out: _Pieces) -> None:
    """The JSON report, in key order, a section at a time."""
    store, system, flat, i1, i2 = ev.store, ev.store.system, ev.flat, _NL[1], _NL[2]
    quoted = [f'"{arg.canonical_id}"' for arg in store.arguments]
    names = list(map(quoted.__getitem__, store.node_order))  # the framework's quoted labels
    rows, done = ev.framework.target_ids, {}  # done: the names of each row, by id
    out.add(f'{{{i1}"arguments": {_list(_argument_records(ev, quoted), 1)}')
    out.add(f',{i1}"conclusion_sets": {_list(_conclusion_set_records(ev, quoted), 1)}')
    pruned = "true" if store.acyclicity_pruned else "false"
    extensions = _list([_list(map(names.__getitem__, ext), 2) for ext in ev.extensions], 1)
    out.add(
        f',{i1}"enumeration": {{{i2}"acyclicity_pruned": {pruned},{i2}"count": {len(store)}'
        f'{i1}}},{i1}"extensions": {extensions}'
    )
    lead = f',{i1}"framework": {{{i2}"attack_witnesses": '
    if flat is not None:
        flat_names = names + [f'"{label}"' for label in flat.labels[len(names):]]
        _attacks_json(out, f',{i1}"flattened": {{{i2}"attacks": ', flat.target_ids, flat_names,
                      done, rows)
        raw = [_list(map(flat_names.__getitem__, ext), 3) for ext in ev.raw_extensions]
        out.add(f',{i2}"extensions": {_list(raw, 2)}')
        out.add(f',{i2}"mode": "{_FLATTEN}",{i2}"nodes": {_list(flat_names, 2)}')
        lead = i1 + "}" + lead
    _witnesses_json(out, lead, ev, quoted)
    _attacks_json(out, f',{i2}"attacks": ', rows, names, done)
    if flat is not None:
        i3, i4 = _NL[3], _NL[4]
        out.add(f',{i2}"supports": ' + _list([
            f"[{i4}{_list(map(names.__getitem__, src), 4)},{i4}{names[dst]}{i3}]"
            for src, dst in ev.framework.support_ids
        ], 2))
    consistent = "true" if ev.consistent else "false"
    # ``system.atoms`` would build a frozenset that nothing else reads.
    atoms = {phi.atom for phi in system.literal_table.literals}
    flatten = "null" if flat is None else f'"{_FLATTEN}"'
    out.flush(
        f'{i1}}},{i1}"input": {{{i2}"atoms": {_texts(atoms, 2)},'
        f'{i2}"consistent": {consistent},{i2}"defeasible_rules": {len(system.defeasible_rules)},'
        f'{i2}"source": {_quote(source)},{i2}"strict_rules": {len(system.strict_rules)},'
        f'{i2}"undercut_names": {len(system.undercut_names)}{i1}}},'
        f'{i1}"postulate_summary": {_SUMMARY_JSON[ev.holds]},'
        f'{i1}"postulates_in_scope": {consistent},'
        f'{i1}"settings": {{{i2}"flatten": {flatten},{i2}"max_arguments": {store.max_arguments},'
        f'{i2}"max_nodes": {ev.max_nodes},{i2}"mode": "{ev.mode}",'
        f'{i2}"semantics": "{ev.semantics}"{i1}}},{i1}"status": "ok"\n}}\n'
    )


def _witness_text(name: str, witness) -> str:
    """A violation's witness as the text report shows it: its JSON object as
    a Python dict."""
    if name == "closure":
        body, head = sorted(map(str, witness.body)), str(witness.head)
        return f"{{'rule': {witness.id!r}, 'body': {body!r}, 'missing_head': {head!r}}}"
    return f"{{'pair': {sorted(map(str, witness))!r}}}"


def _write_text(ev: Evaluation, source: str, out: _Pieces) -> None:
    system, framework, labels = ev.store.system, ev.framework, ev.framework.labels
    flatten = "" if ev.flat is None else f", flatten={_FLATTEN}"
    out.add(
        f"source: {source}\n"
        f"system: {len(system.strict_rules)} strict, {len(system.defeasible_rules)} defeasible, "
        f"{len(system.undercut_names)} named, consistent={str(ev.consistent).lower()}\n"
        f"run: semantics={ev.semantics}, mode={ev.mode}{flatten}\n"
        f"\narguments ({len(ev.store)}):"
    )
    forms = [arg.form for arg in ev.store.arguments]
    out.rows("", [("\n  ", forms)], "", "")
    out.add("\n\nattacks:")
    groups = (
        (f"\n  {labels[s]} -> ", found)
        for s, found in _named_rows(framework.target_ids, labels, {})
    )
    out.rows("", groups, "", "")
    tail = [] if ev.flat is None else ["supports:", *(
        f"  {{{','.join([labels[i] for i in src])}}} => {labels[dst]}"
        for src, dst in framework.support_ids
    ), f"flattened ({_FLATTEN}): {len(ev.flat.target_ids)} nodes, "
       f"{sum(map(len, ev.flat.target_ids))} attacks"]
    tail += ["", f"extensions ({ev.semantics}):"]
    tail += ["  {" + ",".join(labels[i] for i in e) + "}" for e in ev.extensions]
    tail += ["", "conclusion sets:"]
    for cs in ev.conclusion_sets:
        tail.append("  {" + ", ".join(sorted(map(str, cs.formulas))) + "}")
        for name, witness in zip(POSTULATES, cs.postulates):
            tail.append(f"    {name}: " + ("satisfied" if witness is None else (
                f"VIOLATED ({_witness_text(name, witness)})")))
    tail += ["", "summary: " + ", ".join(f"{name}={'satisfied' if held else 'violated'}"
                                         for name, held in zip(POSTULATES, ev.holds))]
    if not ev.consistent:
        tail.append("note: system is inconsistent; postulate verdicts are out of scope")
    out.rows("", [("\n", tail)], "", "")
    out.flush("\n")


def write_report(ev: Evaluation, source: str, fmt: str, write: Callable[[str], object]) -> bool:
    """Write the report of ``ev`` as ``fmt`` (one of ``REPORT_FORMATS``)
    through ``write``, a call per ``PIECE`` chars or so.  Its settings (the
    JSON ``settings`` block, the text ``run:`` line) are the parameters
    ``ev`` ran under.  Returns whether every postulate holds on every
    conclusion set."""
    if fmt not in REPORT_FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    (_write_json if fmt == "json" else _write_text)(ev, source, _Pieces(write))
    return all(ev.holds)


def write_limit_report(
    source: str, settings: dict, error: Exception, fmt: str, write: Callable[[str], object]
) -> None:
    """Write the minimal report of a run stopped by an enumeration or search
    limit, in one call of ``write``; ``settings`` is the ``report_settings``
    block of the parameters that run was given."""
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


def emit_dot(framework: AF | HigherLevelAF) -> str:
    """GraphViz rendering: attacks as solid arrows, joint attacks and
    supports through a small junction point (supports as doubled edges),
    meta-arguments drawn as dashed boxes."""
    names = [_dot_quote(label) for label in framework.labels]
    lines = ["digraph framework {"]
    for i, name in enumerate(names):
        style = " [shape=box, style=dashed]" if i >= framework.argument_count else ""
        lines.append(f"  {name}{style};")
    for src, row in enumerate(framework.target_ids):
        lines += [f"  {names[src]} -> {names[dst]};" for dst in row]
    relation, prefix, leg, head = (), "", "", ""
    if isinstance(framework, HigherLevelAF):
        relation, prefix, leg = framework.joint_attack_ids, "ja", " [dir=none]"
    elif isinstance(framework, JSBAF):
        relation, prefix = framework.support_ids, "sup"
        leg, head = ' [color="black:invis:black", dir=none]', ' [color="black:invis:black"]'
    for i, (srcs, dst) in enumerate(relation):
        junction = f"{prefix}{i}"
        lines.append(f"  {junction} [shape=point, width=0.05];")
        lines += [f"  {names[src]} -> {junction}{leg};" for src in srcs]
        lines.append(f"  {junction} -> {names[dst]}{head};")
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
