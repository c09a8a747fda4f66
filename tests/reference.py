"""Definitional references for the pipeline.

An argument's expanded structure, the pairwise attack definitions, the
flattening stages, conflict-freeness, defence and the grounded fixpoint as
first written, over arguments and sets of ``NodeId``s: they read a
framework's ``NodeId`` views and build their results through the public
constructors.  ``jsbaf.arguments``, ``jsbaf.frameworks`` and
``jsbaf.semantics`` compute the same results through indexes and on node
numbers; the tests assert that both agree.
"""

from typing import Iterable

from jsbaf.arguments import Argument
from jsbaf.core import ArgumentationSystem, DefeasibleRule, complement
from jsbaf.frameworks import (
    AF, JSBAF, ENode, HigherLevelAF, NodeId, bar, e_node, is_meta, sort_nodes,
)


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
        if sub.def_rule_ids and complement(a.conclusion, sub.conclusion)
    ]
    return tuple(sorted(hits, key=lambda s: s.ordinal))


def structure(arg: Argument) -> str:
    """The fully expanded tree of ``arg``, rebuilt from every sub-argument."""
    body = ",".join(structure(s) for s in arg.subs)
    lhs = f"{body} " if body else ""
    return f"({lhs}{arg.arrow} {arg.conclusion})"


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
