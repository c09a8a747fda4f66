"""Definitional references for the pipeline.

An argument's form and expanded structure, the pairwise attack definitions,
the flattening stages, conflict-freeness, defence and the grounded fixpoint
as first written, over arguments and sets of ``NodeId``s: they read a
framework's ``NodeId`` views and build their results through the public
constructors.  ``jsbaf.arguments``, ``jsbaf.frameworks`` and
``jsbaf.semantics`` compute the same results through indexes and on node
numbers; the tests assert that both agree.  Besides these, the label-domain
search as first written, over a list of domains and a set of dirty nodes,
the sorting complement-pair finder, and the report writers as first
written: the report built as a dict and encoded by a generic recursive JSON
encoder, and the text report read from the same dicts.
"""

from json.encoder import encode_basestring as _quote
from typing import Iterable, Optional

from jsbaf.arguments import Argument
from jsbaf.core import ArgumentationSystem, DefeasibleRule, Formula, StrictRule, complement
from jsbaf.frameworks import (
    AF, JSBAF, ENode, HigherLevelAF, NodeId, bar, e_node, is_meta, sort_nodes,
)
from jsbaf.postulates import POSTULATES
from jsbaf.semantics import _IN, _OUT, _UNDEC


def undercuts(a: Argument, b: Argument, system: ArgumentationSystem) -> tuple[Argument, ...]:
    """Sub-arguments of ``b`` whose defeasible top rule is named, where the
    name's complement is concluded by ``a``.  Empty when no undercut holds."""
    names = system.undercut_names
    hits = [
        sub
        for sub in b.sub_arguments
        if isinstance(sub.rule, DefeasibleRule)
        and sub.rule.id in names
        and complement(a.conclusion, names[sub.rule.id])
    ]
    return tuple(sorted(hits, key=lambda s: s.ordinal))


def rebuts_unrestricted(a: Argument, b: Argument) -> tuple[Argument, ...]:
    """Defeasible sub-arguments of ``b`` whose conclusion is the complement
    of ``a``'s conclusion.

    The attacked sub-argument's *own* top rule may be strict: it only needs
    some defeasible rule in its tree.  Strict arguments are never rebutted.
    """
    hits = [
        sub
        for sub in b.sub_arguments
        if sub.defeasible and complement(a.conclusion, sub.conclusion)
    ]
    return tuple(sorted(hits, key=lambda s: s.ordinal))


def _arrow(arg: Argument) -> str:
    return "->" if isinstance(arg.rule, StrictRule) else "=>"


def form(arg: Argument) -> str:
    """E.g. ``A7: A5,A6 -> ~ht``; empty body renders as ``A1: -> hw``."""
    body = ",".join(s.canonical_id for s in arg.subs)
    lhs = f"{body} " if body else ""
    return f"{arg.canonical_id}: {lhs}{_arrow(arg)} {arg.conclusion}"


def structure(arg: Argument) -> str:
    """The fully expanded tree of ``arg``, rebuilt from every sub-argument."""
    body = ",".join(structure(s) for s in arg.subs)
    lhs = f"{body} " if body else ""
    return f"({lhs}{_arrow(arg)} {arg.conclusion})"


def flatten_one_step(j: JSBAF, shielded: frozenset[NodeId] = frozenset()) -> HigherLevelAF:
    """For every support (X, b): bar(b) attacked by b, and for each
    unshielded supporter a in X the joint attack (X - {a}) | {bar(b)} on a."""
    supported = {b for _, b in j.supports}
    nodes = set(j.nodes) | {bar(b) for b in supported}
    joint: set[tuple[frozenset[NodeId], NodeId]] = set()
    for src, dst in j.attacks:
        joint.add((frozenset({src}), dst))
    for source, target in j.supports:
        joint.add((frozenset({target}), bar(target)))
        for a in source:
            if a not in shielded:
                joint.add(((source - {a}) | {bar(target)}, a))
    return HigherLevelAF(frozenset(nodes), frozenset(joint))


def flatten_joint_attacks(h: HigherLevelAF) -> AF:
    """A singleton joint attack becomes an edge; (X, b) with |X| > 1 becomes
    e(X) -> b with a -> bar(a) -> e(X) for every a in X."""
    nodes = set(h.nodes)
    attacks: set[tuple[NodeId, NodeId]] = set()
    for attackers, target in h.joint_attacks:
        if len(attackers) == 1:
            (a,) = attackers
            attacks.add((a, target))
        else:
            carrier = e_node(attackers)
            nodes.add(carrier)
            attacks.add((carrier, target))
            for a in attackers:
                nodes.add(bar(a))
                attacks.add((a, bar(a)))
                attacks.add((bar(a), carrier))
    return AF(frozenset(nodes), frozenset(attacks))


def flatten_simplified(j: JSBAF, shielded: frozenset[NodeId] = frozenset()) -> AF:
    """The two-step flattening without the double bars of multiply
    supported nodes, and without their bars where relaying was their only
    role; e-nodes renamed over the surviving nodes unless two collide."""
    return simplify(j, flatten_joint_attacks(flatten_one_step(j, shielded)))


def simplify(j: JSBAF, flat: AF) -> AF:
    """The simplification step of ``flatten_simplified``, on the two-step
    flattening ``flat`` of ``j``."""
    multi_supported = sort_nodes({b for src, b in j.supports if len(src) > 1})

    removed: set[NodeId] = set()
    rewired: set[tuple[NodeId, NodeId]] = set()
    for b in multi_supported:
        b_bar = bar(b)
        b_dbar = bar(b_bar)
        for dst in flat.targets.get(b_dbar, ()):
            rewired.add((b, dst))
        removed.add(b_dbar)
        if flat.targets[b_bar] <= {b_dbar}:
            removed.add(b_bar)

    nodes = flat.nodes - removed
    attacks = {
        (src, dst)
        for src, dst in flat.attacks
        if src not in removed and dst not in removed
    }
    attacks |= {(src, dst) for src, dst in rewired if dst not in removed}

    rename = {bar(b): b for b in multi_supported if bar(b) in removed}
    relabelled: dict[ENode, ENode] = {}
    for node in nodes:
        if isinstance(node, ENode) and any(m in rename for m in node.members):
            relabelled[node] = e_node(rename.get(m, m) for m in node.members)
    counts: dict[ENode, int] = {}
    for new in relabelled.values():
        counts[new] = counts.get(new, 0) + 1
    mapping = {old: new for old, new in relabelled.items() if counts[new] == 1}

    def final(node: NodeId) -> NodeId:
        return mapping.get(node, node)

    return AF(
        frozenset(final(n) for n in nodes),
        frozenset((final(s), final(d)) for s, d in attacks),
    )


def prune_inert(af: AF) -> AF:
    """Drop meta-arguments with no outgoing attacks, to a fixpoint."""
    nodes = set(af.nodes)
    attacks = set(af.attacks)
    while True:
        out_degree = {n: 0 for n in nodes}
        for src, _ in attacks:
            out_degree[src] += 1
        inert = {n for n in nodes if is_meta(n) and out_degree[n] == 0}
        if not inert:
            return AF(frozenset(nodes), frozenset(attacks))
        nodes -= inert
        attacks = {(s, d) for s, d in attacks if s not in inert and d not in inert}


def is_conflict_free(af: AF, s: Iterable[NodeId]) -> bool:
    """True iff no member of ``s`` attacks another member (or itself)."""
    members = frozenset(s)
    return not any(src in members and dst in members for src, dst in af.attacks)


def defends(af: AF, s: Iterable[NodeId], a: NodeId) -> bool:
    """True iff every attacker of ``a`` is attacked by some member of ``s``."""
    members = frozenset(s)
    attacked = set()
    for m in members:
        attacked |= af.targets[m]
    return af.attackers[a] <= attacked


def grounded_extension(af: AF) -> frozenset[NodeId]:
    """Least fixpoint of S -> {nodes defended by S}, starting from the
    unattacked nodes, re-scanning every node each round."""
    current: frozenset[NodeId] = frozenset()
    while True:
        attacked = set()
        for m in current:
            attacked |= af.targets[m]
        nxt = frozenset(x for x in af.nodes if af.attackers[x] <= attacked)
        if nxt == current:
            return current
        current = nxt


def find_complement_pair(formulas: Iterable[Formula]) -> Optional[tuple[Formula, Formula]]:
    """The pair (phi, ~phi) inside the set whose phi is least in formula
    order, found by sorting the whole set; None when there is none."""
    pool = set(formulas)
    for phi in sorted(pool):
        if phi.negation() in pool:
            return (phi, phi.negation())
    return None


# Byte maps over domains: 1 where the domain holds in, and where it is not in.
_CAN_IN = bytes(d & _IN for d in range(256))
_NOT_IN = bytes(int(d != _IN) for d in range(256))


class DomainSearch:
    """The label-domain search over a list of domains and a set of dirty
    nodes, which reads the distinct domains of a node's attackers through a
    fresh set on every pop.  ``jsbaf.semantics._DomainSearch`` applies the
    same rules on node masks, so it splits the same nodes and calls
    ``_propagate`` as often."""

    def __init__(self, af: AF):
        self.n = len(af.node_table)
        self.attackers = af.attacker_ids
        self.targets = af.target_ids

    def run(self, domain: int, maximal: bool = False) -> list[tuple[int, ...]]:
        results = []
        found: list[int] = []  # the nodes outside each in-set, one byte per node
        stack = [([domain] * self.n, set(range(self.n)))]
        while stack:
            doms, dirty = stack.pop()
            if not self._propagate(doms, dirty):
                continue
            if found:
                can_in = int.from_bytes(bytes(doms).translate(_CAN_IN), "little")
                if not all(can_in & outside for outside in found):
                    continue
            pivot = next((i for i, d in enumerate(doms) if d & (d - 1)), None)
            if pivot is None:
                if self._verify(doms):
                    results.append(tuple(i for i, d in enumerate(doms) if d == _IN))
                    if maximal:
                        found.append(int.from_bytes(bytes(doms).translate(_NOT_IN), "little"))
                continue
            rest = doms.copy()
            low = doms[pivot] & -doms[pivot]
            rest[pivot] ^= low
            doms[pivot] = low
            stack.append((rest, {pivot, *self.targets[pivot]}))
            stack.append((doms, {pivot, *self.targets[pivot]}))
        return sorted(set(results))

    def _propagate(self, doms: list[int], dirty: set[int]) -> bool:
        """Narrow domains until quiescent; False once one becomes empty."""

        def narrow(x: int, mask: int) -> bool:
            new = doms[x] & mask
            if new != doms[x]:
                doms[x] = new
                dirty.add(x)
                dirty.update(self.targets[x])
            return new != 0

        while dirty:
            y = dirty.pop()
            atk = self.attackers[y]
            seen = {doms[a] for a in atk}  # the distinct attacker domains
            union, common = 0, _IN | _OUT | _UNDEC
            for d in seen:
                union |= d
                common &= d
            allowed = 0
            if common & _OUT:  # every attacker can be out
                allowed |= _IN
            if union & _IN:  # some attacker can be in
                allowed |= _OUT
            if _IN not in seen and union & _UNDEC:  # none is in, some can be undecided
                allowed |= _UNDEC
            if not narrow(y, allowed):
                return False
            dy = doms[y]
            # Narrow the attackers, skipping rules that ``seen`` shows to hold.
            if dy == _IN:  # every attacker out
                if union != _OUT and not all(narrow(a, _OUT) for a in atk):
                    return False
            elif dy == _OUT:  # some attacker in
                if _IN not in seen:
                    can_in = [a for a in atk if doms[a] & _IN]
                    if len(can_in) == 1 and not narrow(can_in[0], _IN):
                        return False
            else:
                if not dy & _OUT:  # no attacker in
                    if union & _IN and not all(narrow(a, _OUT | _UNDEC) for a in atk):
                        return False
                if not dy & _IN and common & _OUT:  # some attacker not out
                    not_out = [a for a in atk if doms[a] != _OUT]
                    if len(not_out) == 1 and not narrow(not_out[0], _IN | _UNDEC):
                        return False
        return True

    def _verify(self, doms: list[int]) -> bool:
        for y in range(self.n):
            atk = [doms[a] for a in self.attackers[y]]
            ly = doms[y]
            if ly == _IN and not all(la == _OUT for la in atk):
                return False
            if ly == _OUT and not any(la == _IN for la in atk):
                return False
            if ly == _UNDEC and (any(la == _IN for la in atk) or _UNDEC not in atk):
                return False
        return True


def search_extension_ids(af: AF, semantics: str) -> list[tuple[int, ...]]:
    """``semantics.extension_ids`` for complete, stable and preferred, on
    ``DomainSearch``."""
    if semantics == "complete":
        return DomainSearch(af).run(_IN | _OUT | _UNDEC)
    if semantics == "stable":
        return DomainSearch(af).run(_IN | _OUT)
    complete = DomainSearch(af).run(_IN | _OUT | _UNDEC, maximal=True)
    sets = [frozenset(ext) for ext in complete]
    return [ext for ext, s in zip(complete, sets) if not any(s < other for other in sets)]


def _block(brackets: str, items: list[str], depth: int) -> str:
    """A JSON list or object of already encoded ``items``, starting on a
    line at ``depth``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def _json(value, depth: int) -> str:
    """A dict, list, str, int, bool or None as JSON, keys sorted: what
    ``json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)``
    gives, for a value that starts on a line at ``depth``."""
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
        return _block("[]", [_json(v, depth + 1) for v in value], depth)
    raise TypeError(f"a report holds no {type(value).__name__}")


def _formula_list(formulas) -> list[str]:
    return sorted(str(f) for f in formulas)


def _verdict_json(name: str, verdict) -> dict:
    out: dict = {"satisfied": verdict.satisfied}
    if verdict.witness is None:
        out["witness"] = None
    elif name == "closure":
        rule = verdict.witness
        out["witness"] = {
            "rule": rule.id,
            "body": _formula_list(rule.body),
            "missing_head": str(rule.head),
        }
    else:
        out["witness"] = {"pair": _formula_list(verdict.witness)}
    return out


def _label_pairs(framework) -> list[list[str]]:
    return sorted([s.label, d.label] for s, d in framework.attacks)


def _extension_list(framework, extensions) -> list[list[str]]:
    labels = framework.labels
    return sorted([labels[i] for i in ext] for ext in extensions)


def _support_list(j: JSBAF) -> list[tuple[list[str], str]]:
    labels = j.labels
    return sorted(([labels[i] for i in src], labels[dst]) for src, dst in j.support_ids)


def _report(ev, source: str, settings: dict, sets: list[dict], summary: dict) -> dict:
    """The full report of ``ev`` as a dict."""
    system = ev.store.system
    framework = {
        "attack_witnesses": [w._asdict() for w in ev.witnesses],
        "attacks": _label_pairs(ev.framework),
    }
    report = {
        "arguments": [
            {
                "conclusion": str(arg.conclusion),
                "defeasible": arg.defeasible,
                "form": form(arg),
                "id": arg.canonical_id,
                "rule": arg.rule.id,
                "structure": structure(arg),
                "subs": [s.canonical_id for s in arg.subs],
            }
            for arg in ev.store.arguments
        ],
        "conclusion_sets": sets,
        "enumeration": {"count": len(ev.store), "acyclicity_pruned": ev.store.acyclicity_pruned},
        "extensions": _extension_list(ev.framework, ev.extensions),
        "framework": framework,
        "input": {
            "source": source,
            "atoms": sorted(system.atoms),
            "strict_rules": len(system.strict_rules),
            "defeasible_rules": len(system.defeasible_rules),
            "undercut_names": len(system.undercut_names),
            "consistent": ev.consistent,
        },
        "postulate_summary": summary,
        "postulates_in_scope": ev.consistent,
        "settings": settings,
        "status": "ok",
    }
    if ev.flat is not None:
        framework["supports"] = _support_list(ev.framework)
        report["flattened"] = {
            "attacks": _label_pairs(ev.flat),
            "extensions": _extension_list(ev.flat, ev.raw_extensions),
            "mode": settings["flatten"],
            "nodes": list(ev.flat.labels),
        }
    return report


def _lines(*lines: str) -> str:
    return "".join(line + "\n" for line in lines)


def _write_text(ev, source: str, settings: dict, sets: list[dict], summary: dict, write) -> None:
    system = ev.store.system
    flatten = f", flatten={settings['flatten']}" if settings["flatten"] else ""
    lines = [
        f"source: {source}",
        f"system: {len(system.strict_rules)} strict, {len(system.defeasible_rules)} defeasible, "
        f"{len(system.undercut_names)} named, consistent={str(ev.consistent).lower()}",
        f"run: semantics={settings['semantics']}, mode={settings['mode']}{flatten}",
        "",
        f"arguments ({len(ev.store)}):",
        *(f"  {form(arg)}" for arg in ev.store.arguments),
        "",
        "attacks:",
        *(f"  {s} -> {d}" for s, d in _label_pairs(ev.framework)),
    ]
    if ev.flat is not None:
        lines.append("supports:")
        lines += [f"  {{{','.join(src)}}} => {dst}" for src, dst in _support_list(ev.framework)]
        lines.append(
            f"flattened ({settings['flatten']}): {len(ev.flat.node_table)} nodes, "
            f"{sum(map(len, ev.flat.target_ids))} attacks"
        )
    lines += ["", f"extensions ({settings['semantics']}):"]
    lines += ["  {" + ",".join(ext) + "}" for ext in _extension_list(ev.framework, ev.extensions)]
    lines += ["", "conclusion sets:"]
    for entry in sets:
        lines.append("  {" + ", ".join(entry["conclusions"]) + "}")
        for name in POSTULATES:
            verdict = entry["postulates"][name]
            state = "satisfied" if verdict["satisfied"] else f"VIOLATED ({verdict['witness']})"
            lines.append(f"    {name}: {state}")
    lines += ["", "summary: " + ", ".join(f"{k}={v}" for k, v in sorted(summary.items()))]
    if not ev.consistent:
        lines.append("note: system is inconsistent; postulate verdicts are out of scope")
    write(_lines(*lines))


def write_report(ev, source: str, settings: dict, fmt: str, write) -> bool:
    """``reporting.write_report``, from the report dict: JSON through
    ``_json``, text from the conclusion-set and summary dicts."""
    sets = [
        {
            "extension": list(cs.extension),
            "conclusions": _formula_list(cs.formulas),
            "postulates": {name: _verdict_json(name, getattr(v, name)) for name in POSTULATES},
        }
        for cs, v in zip(ev.conclusion_sets, ev.postulates)
    ]
    summary = {
        name: "satisfied" if all(e["postulates"][name]["satisfied"] for e in sets) else "violated"
        for name in POSTULATES
    }
    if fmt == "json":
        write(_json(_report(ev, source, settings, sets, summary), 0) + "\n")
    elif fmt == "text":
        _write_text(ev, source, settings, sets, summary, write)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return "violated" not in summary.values()


def write_limit_report(source: str, settings: dict, error: Exception, fmt: str, write) -> None:
    """``reporting.write_limit_report``, from the report dict."""
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
