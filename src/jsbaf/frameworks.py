"""Framework tiers and the flattening pipeline.

Three tiers are connected by flattening:

* ``JSBAF``         — attacks plus a joint support relation (sets of nodes
                      supporting a node),
* ``HigherLevelAF`` — joint attacks (sets of nodes attacking a node),
* ``AF``            — a plain directed attack graph.

``flatten_one_step`` turns joint supports into joint attacks by introducing
one "bar" meta-argument per supported node; ``flatten_joint_attacks`` turns
joint attacks into plain attacks by introducing bars for every participant
and one "e" meta-argument per attacker set.  ``flatten_simplified`` composes
the two and then removes bar pairs that merely relay the supported node's
status through a double negation.

Every framework numbers its nodes 0, 1, ... in canonical order
(``sort_nodes``) and keeps its relations as ints over those numbers.  Its
node table holds each node's ``NodeId`` once, with the node's sort key; a
flattening stage interns each new meta-argument by its key, so one node is
one object however many edges it ends.  The ``NodeId`` views ``nodes``,
``attacks``, ``supports`` and ``joint_attacks`` are built on first read,
for callers and tests; the pipeline reads only the ints.  The public
constructors check that every endpoint is a node; the flattening stages and
the builders in ``arguments`` make frameworks whose ints are right by
construction, and skip that check.

A JSBAF's nodes are arguments (``BaseNode``s); bars and e-nodes arise only
in flattening.  Arguments sort before every meta-argument, so the nodes of
a JSBAF keep their numbers 0 .. m-1 in each of its flattenings.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Collection, Iterable, Iterator, Sequence, Union


@dataclass(frozen=True)
class BaseNode:
    """An original argument, identified by its label."""

    label_text: str

    def key(self):
        return (0, self.label_text)

    @property
    def label(self) -> str:
        return self.label_text

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class BarNode:
    """Meta-argument standing for the rejection of ``base``.

    Generated during flattening, never parsed from user input.  Bars nest:
    the bar of a bar arises when a bar participates in a joint attack.
    """

    base: "NodeId"

    def key(self):
        return (1, self.base.key())

    @property
    def label(self) -> str:
        return f"bar({self.base.label})"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class ENode:
    """Meta-argument carrying a joint attack; identified by the attacker set
    alone, so two joint attacks with the same source share one e-node."""

    members: tuple["NodeId", ...]

    def key(self):
        return (2, tuple(m.key() for m in self.members))

    @property
    def label(self) -> str:
        return "e(" + ",".join(m.label for m in self.members) + ")"

    def __str__(self) -> str:
        return self.label


NodeId = Union[BaseNode, BarNode, ENode]


def base(label: str) -> BaseNode:
    return BaseNode(label)


def bar(node: NodeId) -> BarNode:
    return BarNode(node)


def e_node(members: Iterable[NodeId]) -> ENode:
    return ENode(tuple(sorted(set(members), key=lambda n: n.key())))


def is_meta(node: NodeId) -> bool:
    return not isinstance(node, BaseNode)


def sort_nodes(nodes: Iterable[NodeId]) -> list[NodeId]:
    return sorted(nodes, key=lambda n: n.key())


def _check_endpoints(nodes, pairs, what: str):
    for src, dst in pairs:
        if src not in nodes or dst not in nodes:
            raise ValueError(f"{what} ({src}, {dst}) has an endpoint outside the node set")


def _node_table(nodes: Iterable[NodeId]) -> tuple[tuple[NodeId, ...], tuple, dict[NodeId, int]]:
    """The distinct ``nodes`` in canonical order, their keys, and the number
    of each."""
    keyed = sorted((n.key(), n) for n in set(nodes))
    table = tuple(n for _, n in keyed)
    return table, tuple(k for k, _ in keyed), {n: i for i, n in enumerate(table)}


def _target_rows(size: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    rows: list[set[int]] = [set() for _ in range(size)]
    for src, dst in pairs:
        rows[src].add(dst)
    return [sorted(row) for row in rows]


def _source_ids(source: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(set(source)))


class _Framework:
    """Nodes numbered in canonical order: ``node_table[i]`` is node i and
    ``node_keys[i]`` its sort key.  ``target_ids[i]`` lists, in ascending
    order, the nodes that node i attacks (in a ``HigherLevelAF``, on its
    own).  Rows are never changed once built; the AF of an argument store
    shares one tuple among the attackers with the same conclusion."""

    node_table: tuple[NodeId, ...]
    node_keys: tuple
    target_ids: list[Sequence[int]]

    def _value(self) -> tuple:
        return self.node_table, tuple(map(tuple, self.target_ids))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    @classmethod
    def _make(cls, node_table, node_keys, **relations):
        """A framework whose relations are already ints over ``node_table``."""
        self = cls.__new__(cls)
        self.node_table, self.node_keys = node_table, node_keys
        self.__dict__.update(relations)
        return self

    @cached_property
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self.node_table)

    @cached_property
    def labels(self) -> list[str]:
        """The label of each node, by number."""
        return [n.label for n in self.node_table]

    def _intern_attacks(self, nodes, attacks) -> dict[NodeId, int]:
        """Number ``nodes``, check and number ``attacks``; the numbers by node."""
        self.node_table, self.node_keys, index = _node_table(nodes)
        attacks = frozenset(attacks)
        _check_endpoints(index, attacks, "attack")
        self.target_ids = _target_rows(len(index), ((index[s], index[d]) for s, d in attacks))
        return index

    def _pairs(self) -> Iterator[tuple[NodeId, NodeId]]:
        table = self.node_table
        return ((table[s], table[d]) for s, row in enumerate(self.target_ids) for d in row)

    def _sets(self, pairs) -> Iterator[tuple[frozenset[NodeId], NodeId]]:
        table = self.node_table
        return ((frozenset(table[i] for i in src), table[d]) for src, d in pairs)


class AF(_Framework):
    """A plain argumentation framework: nodes and a directed attack relation."""

    def __init__(self, nodes: Iterable[NodeId], attacks: Iterable[tuple[NodeId, NodeId]]):
        self._intern_attacks(nodes, attacks)

    @cached_property
    def attacks(self) -> frozenset[tuple[NodeId, NodeId]]:
        return frozenset(self._pairs())

    @cached_property
    def attacker_ids(self) -> list[list[int]]:
        """The attackers of each node, by number, in ascending order."""
        attackers: list[list[int]] = [[] for _ in self.node_table]
        for src, row in enumerate(self.target_ids):
            for dst in row:
                attackers[dst].append(src)
        return attackers

    @cached_property
    def attackers(self) -> dict[NodeId, frozenset[NodeId]]:
        table = self.node_table
        rows = self.attacker_ids
        return {table[i]: frozenset(table[a] for a in row) for i, row in enumerate(rows)}

    @cached_property
    def targets(self) -> dict[NodeId, frozenset[NodeId]]:
        table = self.node_table
        rows = self.target_ids
        return {table[i]: frozenset(table[t] for t in row) for i, row in enumerate(rows)}


class HigherLevelAF(_Framework):
    """Nodes and a joint attack relation from nonempty node sets to nodes.

    ``target_ids`` holds the joint attacks from a single node;
    ``joint_attack_ids`` the others, as (ascending source numbers, target).
    """

    joint_attack_ids: list[tuple[tuple[int, ...], int]]

    def __init__(
        self,
        nodes: Iterable[NodeId],
        joint_attacks: Iterable[tuple[Iterable[NodeId], NodeId]],
    ):
        self.node_table, self.node_keys, index = _node_table(nodes)
        singles, joints = set(), set()
        for attackers, target in {(frozenset(x), b) for x, b in joint_attacks}:
            if not attackers:
                raise ValueError("joint attacks must have a nonempty attacker set")
            if not all(a in index for a in attackers) or target not in index:
                raise ValueError("joint attack has an endpoint outside the node set")
            source = _source_ids(index[a] for a in attackers)
            if len(source) == 1:
                singles.add((source[0], index[target]))
            else:
                joints.add((source, index[target]))
        self.target_ids = _target_rows(len(index), singles)
        self.joint_attack_ids = sorted(joints)

    def _value(self) -> tuple:
        return super()._value() + (frozenset(self.joint_attack_ids),)

    @cached_property
    def joint_attacks(self) -> frozenset[tuple[frozenset[NodeId], NodeId]]:
        singles = ((frozenset({s}), d) for s, d in self._pairs())
        return frozenset((*singles, *self._sets(self.joint_attack_ids)))


class JSBAF(_Framework):
    """An attack relation plus a joint support relation.

    Every node is an argument, a ``BaseNode``.  Support sources range over
    *all* subsets of the nodes, including the empty set; an empty-source
    support just asserts its target outright.  ``support_ids`` holds each
    support once, as (ascending source numbers, target).
    """

    support_ids: list[tuple[tuple[int, ...], int]]

    def __init__(
        self,
        nodes: Iterable[BaseNode],
        attacks: Iterable[tuple[BaseNode, BaseNode]],
        supports: Iterable[tuple[Iterable[BaseNode], BaseNode]],
    ):
        nodes = frozenset(nodes)
        for node in nodes:
            if not isinstance(node, BaseNode):
                raise ValueError(f"JSBAF node {node} is not an argument")
        index = self._intern_attacks(nodes, attacks)
        self.support_ids = []
        for source, target in {(frozenset(x), b) for x, b in supports}:
            if not all(a in index for a in source) or target not in index:
                raise ValueError("support has an endpoint outside the node set")
            self.support_ids.append((_source_ids(index[a] for a in source), index[target]))
        self.support_ids.sort()

    def _value(self) -> tuple:
        return super()._value() + (frozenset(self.support_ids),)

    @cached_property
    def attacks(self) -> frozenset[tuple[NodeId, NodeId]]:
        return frozenset(self._pairs())

    @cached_property
    def supports(self) -> frozenset[tuple[frozenset[NodeId], NodeId]]:
        return frozenset(self._sets(self.support_ids))


class _Interner:
    """The node table of a framework under construction.  The nodes of
    ``framework`` keep their numbers; a bar or e meta-argument gets the next
    number the first time its key is seen, and its ``NodeId`` is built then,
    from the ``NodeId`` objects already in the table."""

    def __init__(self, framework: _Framework):
        self.nodes = list(framework.node_table)
        self.keys = list(framework.node_keys)
        self.number = {k: i for i, k in enumerate(self.keys)}

    def _intern(self, key, make) -> int:
        i = self.number.get(key)
        if i is None:
            i = self.number[key] = len(self.keys)
            self.keys.append(key)
            self.nodes.append(make())
        return i

    def bar(self, i: int) -> int:
        return self._intern((1, self.keys[i]), lambda: BarNode(self.nodes[i]))

    def e(self, members: Iterable[int]) -> int:
        members = sorted(set(members), key=self.keys.__getitem__)
        key = (2, tuple(self.keys[m] for m in members))
        return self._intern(key, lambda: ENode(tuple(self.nodes[m] for m in members)))

    def renumber(self, kept: Iterable[int]) -> tuple[tuple[NodeId, ...], tuple, list[int]]:
        """The ``kept`` nodes in canonical order, their keys, and the new
        number of every node, -1 for those not kept."""
        order = sorted(kept, key=self.keys.__getitem__)
        new = [-1] * len(self.keys)
        for p, i in enumerate(order):
            new[i] = p
        return tuple(self.nodes[i] for i in order), tuple(self.keys[i] for i in order), new


def _rows(
    size: int, new: list[int], *parts: Iterable[tuple[int, Iterable[int]]]
) -> list[list[int]]:
    """The target rows of ``size`` renumbered nodes.  Each part yields (node,
    targets) by old number; ``new`` gives the new numbers, -1 dropping a
    node or a target.  A node that parts name twice gets the union."""
    rows: list = [None] * size
    get = new.__getitem__
    for part in parts:
        for i, targets in part:
            p = new[i]
            if p < 0:
                continue
            if rows[p] is None:
                rows[p] = sorted(map(get, targets))
            else:
                rows[p] = sorted({*rows[p], *map(get, targets)})
    for p, row in enumerate(rows):
        if row is None:
            rows[p] = []
        elif row and row[0] < 0:
            del row[: bisect_left(row, 0)]
    return rows


def flatten_one_step(j: JSBAF, shielded: Collection[int] = frozenset()) -> HigherLevelAF:
    """Replace joint supports by joint attacks through bar meta-arguments.

    For every support (X, b): a fresh node bar(b) attacked by b, and, for
    each supporter a in X, the joint attack (X minus {a}) plus {bar(b)}
    against a.  Existing attacks become singleton joint attacks.

    ``shielded`` numbers nodes of ``j`` that can never be rejected (strict
    arguments, in the structured pipeline); the per-supporter attack
    against such a node is omitted, since its contrapositive reading
    "reject this supporter" is not an option for them.  Flattening a plain
    framework leaves the set empty.
    """
    work = _Interner(j)
    singles: dict[int, set[int]] = {}
    joints = set()
    for source, target in j.support_ids:
        target_bar = work.bar(target)
        singles.setdefault(target, set()).add(target_bar)
        for a in source:
            if a not in shielded:
                rest = (set(source) - {a}) | {target_bar}
                if len(rest) == 1:
                    singles.setdefault(target_bar, set()).add(a)
                else:
                    joints.add((tuple(sorted(rest)), a))
    table, keys, new = work.renumber(range(len(work.keys)))
    return HigherLevelAF._make(
        table, keys,
        target_ids=_rows(len(table), new, enumerate(j.target_ids), singles.items()),
        joint_attack_ids=sorted((_source_ids(new[a] for a in x), new[b]) for x, b in joints),
    )


def flatten_joint_attacks(h: HigherLevelAF) -> AF:
    """Replace joint attacks by plain attacks through bar and e meta-arguments.

    A singleton joint attack becomes a direct edge.  A joint attack (X, b)
    with |X| > 1 is carried by e(X) -> b, with a -> bar(a) -> e(X) for every
    participant a in X; e(X) is shared by all joint attacks from the same X.
    """
    work = _Interner(h)
    added: dict[int, set[int]] = {}
    for attackers, target in h.joint_attack_ids:
        carrier = work.e(attackers)
        added.setdefault(carrier, set()).add(target)
        for a in attackers:
            a_bar = work.bar(a)
            added.setdefault(a, set()).add(a_bar)
            added.setdefault(a_bar, set()).add(carrier)
    table, keys, new = work.renumber(range(len(work.keys)))
    return AF._make(
        table, keys, target_ids=_rows(len(table), new, enumerate(h.target_ids), added.items())
    )


def flatten_simplified(j: JSBAF, shielded: Collection[int] = frozenset()) -> AF:
    """Two-step flattening with the redundant double-negation bars removed.

    For a node b supported by a set of size > 1, the two-step flattening
    chains b -> bar(b) -> bar(bar(b)), and bar(bar(b)) tracks b's status
    exactly.  So bar(bar(b)) is dropped and its outgoing attacks re-sourced
    to b.  bar(b) itself is dropped only when relaying that chain was its
    sole role; it is kept whenever it also attacks directly (b has a
    singleton support) or feeds other e-nodes (b co-supports another node),
    since removing it there would change the projected extensions.

    E-node identities are then re-canonicalised over the surviving nodes:
    a member bar(b) whose bar was removed is displayed as b.  No two
    e-nodes collide: each has exactly one bar member, and bar(b) is removed
    only when b is a member of no e-node.
    """
    flat = flatten_joint_attacks(flatten_one_step(j, shielded))
    work = _Interner(flat)
    number, targets = work.number, flat.target_ids
    multi_supported = {j.node_keys[b] for src, b in j.support_ids if len(src) > 1}

    removed: set[int] = set()
    rewired: dict[int, list[int]] = {}
    for key in multi_supported:
        b, b_bar, b_dbar = number[key], number[(1, key)], number.get((1, (1, key)))
        if b_dbar is not None:
            rewired[b] = targets[b_dbar]
            removed.add(b_dbar)
        if all(t == b_dbar for t in targets[b_bar]):
            removed.add(b_bar)

    # final[i]: the node that node i of ``flat`` becomes, -1 once removed
    final = [-1 if i in removed else i for i in range(len(flat.node_table))]
    rename = {number[(1, k)]: number[k] for k in multi_supported if number[(1, k)] in removed}
    for i, key in enumerate(flat.node_keys):
        if key[0] == 2:
            members = [number[k] for k in key[1]]
            if any(m in rename for m in members):
                final[i] = work.e(rename.get(m, m) for m in members)

    table, keys, new = work.renumber({f for f in final if f >= 0})
    new = [new[f] if f >= 0 else -1 for f in final]
    rows = _rows(len(table), new, enumerate(targets), rewired.items())
    return AF._make(table, keys, target_ids=rows)


def prune_inert(af: AF) -> AF:
    """Drop meta-arguments with no outgoing attacks, to a fixpoint.

    Such nodes (typically bars introduced for empty-source supports) cannot
    join or influence any admissible set, so every semantics yields the same
    extension sets before and after pruning.
    """
    out_degree = [len(row) for row in af.target_ids]
    inert = [i for i, k in enumerate(af.node_keys) if k[0] and not out_degree[i]]
    dropped = set(inert)
    while inert:
        for a in af.attacker_ids[inert.pop()]:
            out_degree[a] -= 1
            if not out_degree[a] and af.node_keys[a][0]:
                dropped.add(a)
                inert.append(a)
    kept = [i for i in range(len(af.node_table)) if i not in dropped]
    new = [-1] * len(af.node_table)
    for p, i in enumerate(kept):
        new[i] = p
    return AF._make(
        tuple(af.node_table[i] for i in kept),
        tuple(af.node_keys[i] for i in kept),
        target_ids=_rows(len(kept), new, enumerate(af.target_ids)),
    )
