"""Framework tiers and the flattening pipeline.

Three tiers are connected by flattening:

* ``JSBAF``         — attacks plus a joint support relation (sets of nodes
                      supporting a node),
* ``HigherLevelAF`` — joint attacks (sets of nodes attacking a node),
* ``AF``            — a plain directed attack graph.

``flatten_one_step`` turns joint supports into joint attacks by introducing
one "bar" meta-argument per supported node; ``flatten_joint_attacks`` turns
joint attacks into plain attacks by introducing bars for every participant
and one "e" meta-argument per attacker set.  ``flatten_simplified`` is the
composition of the two without the bar pairs that merely relay a supported
node's status through a double negation.  It is built in one pass from the
supports of the JSBAF, and builds neither intermediate framework; the two
stages serve ``jsbaf flatten --stage one-step|two-step``.

Every framework numbers its nodes 0, 1, ... in canonical order
(``sort_nodes``) and keeps its relations as ints over those numbers.  Its
node table holds each node's ``NodeId`` once, with the node's sort key; a
flattening builds each meta-argument's ``NodeId`` once, from the objects
already in its table, so one node is one object however many edges it
ends.  The ``NodeId`` views ``nodes``, ``attacks``, ``supports`` and
``joint_attacks`` are built on first read, for callers and tests; the
pipeline reads only the ints.  The public constructors check that every
endpoint is a node; the flattening stages and the builders in
``arguments`` make frameworks whose ints are right by construction, and
skip that check.

Every framework the pipeline builds numbers its nodes in label order too:
its labels are made of argument ids ``A<n>`` (sorted as text),
``bar(...)`` and ``e(...,...)``, and for these text order equals key order,
since ")" and "," sort below the digits and "A" < "b" < "e".  So reports
write its nodes, rows, extensions and supports unsorted.  (Other labels
need not keep this: ``bar(a)`` sorts as text before ``c``.)

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
    ``joint_attack_ids`` the others, as (ascending source numbers, target),
    sorted.
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
    support once, as (ascending source numbers, target), sorted.
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

    def renumber(self) -> tuple[tuple[NodeId, ...], tuple, list[int]]:
        """The nodes in canonical order, their keys, and the new number of
        every node."""
        order = sorted(range(len(self.keys)), key=self.keys.__getitem__)
        new = [0] * len(self.keys)
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
    table, keys, new = work.renumber()
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
    table, keys, new = work.renumber()
    return AF._make(
        table, keys, target_ids=_rows(len(table), new, enumerate(h.target_ids), added.items())
    )


def flatten_simplified(j: JSBAF, shielded: Collection[int] = frozenset()) -> AF:
    """The two-step flattening without its redundant double-negation bars,
    built in one pass from the supports of ``j``.

    In the two-step flattening, a node b supported by a set of size > 1
    ("multi") relays its status to each e-node of its support arms through
    b -> bar(b) -> bar(bar(b)) -> e, and bar(bar(b)) tracks b exactly.  So
    b attacks those e-nodes itself, and bar(bar(b)) is never built.  bar(b)
    is left out too when that relay was its sole role: b is multi, has no
    singleton support {a} with a unshielded, and co-supports no node in any
    arm.  Otherwise bar(b) is kept, since leaving it out would change the
    projected extensions.  With ``shielded`` as in ``flatten_one_step``,
    each support (X, b) gives:

    * b -> bar(b), when bar(b) exists;
    * for X = {a}, a unshielded: bar(b) -> a;
    * for |X| > 1 and each unshielded a in X, with Y = X - {a}: the e-node e
      over Y plus bar(b) (or b, when bar(b) is left out), with e -> a,
      b -> e, and y -> bar(y) -> e for every y in Y.

    No two e-nodes collide: b is a member of an e-node only in place of its
    bar, and then b co-supports no node.  The arguments keep their numbers
    0 .. m-1, and an argument that attacks no meta-argument keeps its row
    of ``j``; the meta-arguments are numbered once, in canonical order.
    """
    m = len(j.node_table)
    supported, multi = set(), set()
    direct: dict[int, list[int]] = {}  # b -> its unshielded singleton supporters
    arms = []  # (Y, b, a) per unshielded supporter a of a support (X, b), |X| > 1
    for source, b in j.support_ids:
        supported.add(b)
        if len(source) > 1:
            multi.add(b)
            arms += [
                (source[:k] + source[k + 1:], b, a)
                for k, a in enumerate(source)
                if a not in shielded
            ]
        elif source and source[0] not in shielded:
            direct.setdefault(b, []).append(source[0])
    co_supporters = {y for rest, _, _ in arms for y in rest}
    barred = sorted((supported - multi) | direct.keys() | co_supporters)
    bar_number = {b: m + p for p, b in enumerate(barred)}

    # Members of meta-arguments are numbered x for argument x and m + x for
    # bar(x).  These numbers sort as the members' keys do, so e-nodes over
    # them sort in canonical order.
    arm_members = [
        rest + (m + b,) if b in bar_number else tuple(sorted(rest + (b,)))
        for rest, b, _ in arms
    ]
    e_members = sorted(set(arm_members))
    e_number = {members: m + len(barred) + p for p, members in enumerate(e_members)}

    node_of, key_of = [*j.node_table, *[None] * m], [*j.node_keys, *[None] * m]
    for b in barred:
        node_of[m + b], key_of[m + b] = BarNode(node_of[b]), (1, key_of[b])
    node_table = (
        *j.node_table,
        *(node_of[m + b] for b in barred),
        *(ENode(tuple(map(node_of.__getitem__, e))) for e in e_members),
    )
    node_keys = (
        *j.node_keys,
        *(key_of[m + b] for b in barred),
        *((2, tuple(map(key_of.__getitem__, e))) for e in e_members),
    )

    # The attacks that flattening adds, by source number.  An argument gains
    # only meta-argument targets, which follow the targets of its row in j.
    added: dict[int, set[int]] = {b: {p} for b, p in bar_number.items()}
    for b, supporters in direct.items():
        added[bar_number[b]] = set(supporters)
    for (rest, b, a), members in zip(arms, arm_members):
        e = e_number[members]
        added.setdefault(b, set()).add(e)
        added.setdefault(e, set()).add(a)
        for y in rest:
            added.setdefault(bar_number[y], set()).add(e)

    rows: list[Sequence[int]] = list(j.target_ids)
    for i, targets in added.items():
        if i < m:
            rows[i] = (*rows[i], *sorted(targets))
    rows += [tuple(sorted(added.get(p, ()))) for p in range(m, len(node_table))]
    return AF._make(node_table, node_keys, target_ids=rows)


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
