"""Report writing and the DOT / APX emitters.

Serialisation is canonical: every list is sorted, JSON keys are sorted, and
identical inputs produce byte-identical output.  Lists of nodes, extensions
and supports are written in node order, which is label order (see
``frameworks``), as the pipeline holds them.  A JSON report is the text
that ``json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False)``
gives for it, plus a newline, written straight from the ``Evaluation`` by
fixed templates of its sections: no report dict, no generic encoder.  A
JSON report quotes ids and conclusions once, and every set on which all
postulates hold shares one verdict block.  A full report reads everything
it states from the ``Evaluation``, the run's parameters included.

Both formats are written in pieces of about ``PIECE`` chars, split between
records (an argument, a conclusion set, an extension, an attack target, a
witness, a support, a line of text).  Records are held whole, and so are
the JSON tail from ``input`` to ``status``, whose sorted atom list grows
with the atoms, and the text header up to the ``run:`` line; a write
exceeds ``PIECE`` by at most one of these.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring as _quote  # the C escaper of ensure_ascii=False
from typing import Callable

from .arguments import KINDS
from .frameworks import AF, JSBAF, BarNode, BaseNode, ENode, HigherLevelAF, NodeId, is_meta
from .postulates import POSTULATES, Evaluation, Verdict

REPORT_FORMATS = ("json", "text")

# A JSON value that starts on a line at depth d has its members on lines
# that start with _NL[d + 1], and its closing bracket on one of _NL[d].
_NL = tuple("\n" + "  " * depth for depth in range(8))

PIECE = 1 << 16  # chars a report holds before it calls ``write``


class _Pieces:
    """Parts of a report, written when they hold ``PIECE`` chars, and at the
    end by ``flush(last)``.  ``join`` splits a list between its records to
    fit; ``add`` and ``flush`` take a part whole, so a write exceeds
    ``PIECE`` by at most one record or part.  A JSON section of many lists
    (the attacks, the witnesses) that ``fits`` the room left is one part."""

    def __init__(self, write: Callable[[str], object]):
        self.write, self.parts, self.size = write, [], 0

    def add(self, part: str) -> None:
        self.parts.append(part)
        self.size += len(part)
        if self.size >= PIECE:
            self.flush()

    def join(self, first: str, sep: str, items: list[str], width: int) -> None:
        """``first + sep.join(items)``, where ``sep`` and any one item take
        at most ``width`` chars, and ``first`` no more than ``sep``."""
        i, n = 0, len(items)
        while i < n:
            step = (PIECE - self.size) // width or 1  # the items the room holds
            part = sep.join(items[i:i + step] if i or step < n else items)
            self.parts += (first, part)
            self.size += len(first) + len(part)
            if self.size >= PIECE:
                self.flush()
            first, i = sep, i + step

    def fits(self, records: int, width: int) -> bool:
        """Whether ``records`` records of at most ``width`` chars each fit
        in the room left in this piece, so that a section of them can be
        one part, made by one join."""
        return records * width <= PIECE - self.size

    def json_list(self, items: list[str], depth: int) -> None:
        """A JSON list of already encoded ``items``, a record each."""
        if not items:
            return self.add("[]")
        sep = "," + _NL[depth + 1]
        self.join("[" + _NL[depth + 1], sep, items, len(sep) + max(map(len, items)))
        self.add(_NL[depth] + "]")

    def flush(self, last: str = "") -> None:
        self.parts.append(last)
        self.write("".join(self.parts))
        self.parts, self.size = [], 0


# The flattening that deductive mode searches, the literal simplified one;
# aspic-minus mode flattens nothing.
_FLATTEN = "literal"


def report_settings(semantics: str, mode: str, max_arguments: int, max_nodes: int) -> dict:
    """The ``settings`` block of a report: the parameters its run was given.
    A full report passes those its ``Evaluation`` ran under; a limit
    report, which has no run to read, those of the stopped run."""
    flatten = _FLATTEN if mode == "deductive" else None
    return {"semantics": semantics, "mode": mode, "flatten": flatten,
            "max_arguments": max_arguments, "max_nodes": max_nodes}


# Nodes are numbers into a framework's node table, and ``names`` holds each
# node's name (its label, quoted or not), by number.

def _attack_rows(framework: AF, names: list[str]):
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


def _flat_object(fields: dict, depth: int) -> str:
    """A JSON object of str, int and None values (no bool), keys sorted."""
    return "{" + ",".join(
        f"{_NL[depth + 1]}{_quote(key)}: "
        + (_quote(value) if isinstance(value, str) else "null" if value is None else str(value))
        for key, value in sorted(fields.items())
    ) + (_NL[depth] + "}" if fields else "}")


def _argument_records(ev: Evaluation, quoted: list[str]) -> list[str]:
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
    return records


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


# The JSON verdicts of a set on which every postulate holds.
_ALL_HOLD_JSON = ",".join(f'{_NL[4]}"{name}": {_verdict(Verdict(), name)}' for name in POSTULATES)


class _LiteralTexts(dict):
    """Each formula's quoted text, made on its first lookup.  A quoted
    literal sorts as its text does: the quotes around it sort below every
    character a literal holds."""

    def __missing__(self, phi) -> str:
        text = self[phi] = _quote(str(phi))
        return text


def _conclusion_set_records(ev: Evaluation, quoted: list[str]) -> list[str]:
    """The conclusion sets and their verdicts."""
    i3, i4 = _NL[3], _NL[4]
    entries, texts = [], _LiteralTexts()
    for cs in ev.conclusion_sets:
        postulates = _ALL_HOLD_JSON if cs.postulates.all_satisfied else ",".join(
            f'{i4}"{name}": {_verdict(verdict, name)}'
            for name, verdict in zip(POSTULATES, cs.postulates)
        )
        entries.append(
            f'{{{i3}"conclusions": {_list(sorted(map(texts.__getitem__, cs.formulas)), 3)},'
            f'{i3}"extension": {_list([quoted[o] for o in cs.extension], 3)},'
            f'{i3}"postulates": {{{postulates}{i3}}}{_NL[2]}}}'
        )
    return entries


def _attacks_json(out: _Pieces, framework: AF, names: list[str]) -> None:
    """The sorted label pairs of ``framework``'s attacks: one join if they
    fit the room left, else a row at a time."""
    i3, i4, close = _NL[3], _NL[4], _NL[3] + "]"
    pairs = sum(map(len, framework.target_ids))
    if not pairs:
        return out.add("[]")
    width = len(f"{close},{i3}[{i4},{i4}") + 2 * max(map(len, names))
    if out.fits(pairs, width):
        records = [f"{i3}[{i4}{names[s]},{i4}{names[d]}{close}"
                   for s, row in enumerate(framework.target_ids) for d in row]
        return out.add("[" + ",".join(records) + _NL[2] + "]")
    lead = "["
    for s, targets in _attack_rows(framework, names):
        head = f"{i3}[{i4}{s},{i4}"
        out.join(lead + head, f"{close},{head}", targets, width)
        lead = close + ","
    out.add(close + _NL[2] + "]")


def _witnesses_json(out: _Pieces, ev: Evaluation, quoted: list[str]) -> None:
    """The witness records, attacker by attacker: one join if they fit the
    room left, else a join per attacker.  Each hits tuple is made into
    record tails once, and an attacker's records are joins of them."""
    if not ev.witnesses.groups:
        return out.add("[]")
    i3, i4 = _NL[3], _NL[4]
    tails_of: dict[int, tuple[list[str], int]] = {}  # id(hits): (tails, longest tail)
    rows, width = [], 0
    for attacker, hits in ev.witnesses.groups:
        entry = tails_of.get(id(hits))
        if entry is None:
            tails = [
                f'"kind": "{KINDS[kind]}",{i4}"on": {quoted[on]},'
                f'{i4}"target": {quoted[target]}{i3}}}'
                for target, kind, on in hits
            ]
            entry = tails_of[id(hits)] = (tails, max(map(len, tails)))
        head = f'{i3}{{{i4}"attacker": {quoted[attacker]},{i4}'
        rows.append((head, entry[0]))
        width = max(width, 1 + len(head) + entry[1])
    if out.fits(len(ev.witnesses), width):
        return out.add("[" + ",".join([head + ("," + head).join(tails) for head, tails in rows])
                       + _NL[2] + "]")
    lead = "["
    for head, tails in rows:
        out.join(lead + head, "," + head, tails, width)
        lead = ","
    out.add(_NL[2] + "]")


def _write_json(ev: Evaluation, source: str, out: _Pieces) -> None:
    """The JSON report, in key order, a section at a time."""
    store, system, flat, i1, i2 = ev.store, ev.store.system, ev.flat, _NL[1], _NL[2]
    quoted = [_quote(arg.canonical_id) for arg in store.arguments]
    names = [quoted[o] for o in store.node_order]  # the framework's quoted labels
    out.add(f'{{{i1}"arguments": ')
    out.json_list(_argument_records(ev, quoted), 1)
    out.add(f',{i1}"conclusion_sets": ')
    out.json_list(_conclusion_set_records(ev, quoted), 1)
    pruned = "true" if store.acyclicity_pruned else "false"
    out.add(f',{i1}"enumeration": {{{i2}"acyclicity_pruned": {pruned},{i2}"count": {len(store)}'
            f'{i1}}},{i1}"extensions": ')
    out.json_list([_list([names[i] for i in ext], 2) for ext in ev.extensions], 1)
    if flat is not None:
        flat_names = list(map(_quote, flat.labels))
        out.add(f',{i1}"flattened": {{{i2}"attacks": ')
        _attacks_json(out, flat, flat_names)
        out.add(f',{i2}"extensions": ')
        out.json_list([_list([flat_names[i] for i in ext], 3) for ext in ev.raw_extensions], 2)
        out.add(f',{i2}"mode": {_quote(_FLATTEN)},{i2}"nodes": ')
        out.json_list(flat_names, 2)
        out.add(i1 + "}")
    out.add(f',{i1}"framework": {{{i2}"attack_witnesses": ')
    _witnesses_json(out, ev, quoted)
    out.add(f',{i2}"attacks": ')
    _attacks_json(out, ev.framework, names)
    if flat is not None:
        i3, i4, supports = _NL[3], _NL[4], _support_lists(ev.framework, names)
        out.add(f',{i2}"supports": ')
        out.json_list([f"[{i4}{_list(src, 4)},{i4}{dst}{i3}]" for src, dst in supports], 2)
    consistent = "true" if ev.consistent else "false"
    summary = ",".join(f'{i2}"{name}": "{"satisfied" if held else "violated"}"'
                       for name, held in zip(POSTULATES, ev.holds))
    settings = report_settings(ev.semantics, ev.mode, store.max_arguments, ev.max_nodes)
    out.flush(
        f'{i1}}},{i1}"input": {{{i2}"atoms": {_texts(system.atoms, 2)},'
        f'{i2}"consistent": {consistent},{i2}"defeasible_rules": {len(system.defeasible_rules)},'
        f'{i2}"source": {_quote(source)},{i2}"strict_rules": {len(system.strict_rules)},'
        f'{i2}"undercut_names": {len(system.undercut_names)}{i1}}},'
        f'{i1}"postulate_summary": {{{summary}{i1}}},{i1}"postulates_in_scope": {consistent},'
        f'{i1}"settings": {_flat_object(settings, 1)},{i1}"status": "ok"\n}}\n'
    )


def _witness_text(name: str, witness) -> str:
    """A violation's witness as the text report shows it: its JSON object as
    a Python dict."""
    if name == "closure":
        body, head = sorted(map(str, witness.body)), str(witness.head)
        return f"{{'rule': {witness.id!r}, 'body': {body!r}, 'missing_head': {head!r}}}"
    return f"{{'pair': {sorted(map(str, witness))!r}}}"


def _write_text(ev: Evaluation, source: str, out: _Pieces) -> None:
    system, labels = ev.store.system, ev.framework.labels
    flatten = "" if ev.flat is None else f", flatten={_FLATTEN}"
    out.add(
        f"source: {source}\n"
        f"system: {len(system.strict_rules)} strict, {len(system.defeasible_rules)} defeasible, "
        f"{len(system.undercut_names)} named, consistent={str(ev.consistent).lower()}\n"
        f"run: semantics={ev.semantics}, mode={ev.mode}{flatten}\n"
        f"\narguments ({len(ev.store)}):"
    )
    forms = [arg.form for arg in ev.store.arguments]
    out.join("\n  ", "\n  ", forms, 3 + max(map(len, forms), default=0))
    out.add("\n\nattacks:")
    longest = max(map(len, labels), default=0)
    for s, targets in _attack_rows(ev.framework, labels):
        sep = f"\n  {s} -> "
        out.join(sep, sep, targets, len(sep) + longest)
    tail = [] if ev.flat is None else ["supports:", *(
        f"  {{{','.join(src)}}} => {dst}" for src, dst in _support_lists(ev.framework, labels)
    ), f"flattened ({_FLATTEN}): {len(ev.flat.node_table)} nodes, "
       f"{sum(map(len, ev.flat.target_ids))} attacks"]
    tail += ["", f"extensions ({ev.semantics}):"]
    tail += ["  {" + ",".join(labels[i] for i in e) + "}" for e in ev.extensions]
    tail += ["", "conclusion sets:"]
    for cs in ev.conclusion_sets:
        tail.append("  {" + ", ".join(sorted(map(str, cs.formulas))) + "}")
        for name, verdict in zip(POSTULATES, cs.postulates):
            tail.append(f"    {name}: " + ("satisfied" if verdict.satisfied else (
                f"VIOLATED ({_witness_text(name, verdict.witness)})")))
    tail += ["", "summary: " + ", ".join(f"{name}={'satisfied' if held else 'violated'}"
                                         for name, held in zip(POSTULATES, ev.holds))]
    if not ev.consistent:
        tail.append("note: system is inconsistent; postulate verdicts are out of scope")
    out.join("\n", "\n", tail, 1 + max(map(len, tail)))
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
    for name, node in zip(names, framework.node_table):
        style = " [shape=box, style=dashed]" if is_meta(node) else ""
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
