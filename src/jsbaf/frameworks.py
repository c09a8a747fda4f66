"""Framework tiers and the flattening pipeline.

Three tiers are connected by flattening:

* ``JSBAF``         — an ``AF``, which it subclasses, plus a joint support
                      relation (sets of nodes supporting a node) and a shield,
* ``HigherLevelAF`` — joint attacks (sets of nodes attacking a node),
* ``AF``            — a plain directed attack graph.

``flatten_one_step`` turns joint supports into joint attacks by introducing
one "bar" meta-argument per supported node; ``flatten_two_step`` then turns
those joint attacks into plain attacks by introducing bars for every
participant and one "e" meta-argument per attacker set.
``flatten_simplified`` is the two-step flattening without the bar pairs
that merely relay a supported node's status through a double negation.  It
is the one flattening that deductive mode searches, and it keeps every
other bar, including those that attack nothing.  All three stages read
one classification of the JSBAF's supports (``_support_arms``); both plain
flattenings are built from it by one builder, with no intermediate
framework.  The one-step and two-step stages serve ``jsbaf flatten
--stage one-step|two-step``.

Every framework numbers its nodes 0, 1, ... in canonical order
(``sort_nodes``) and keeps its relations as ints over those numbers; the
number is the only record of that order.  Every framework holds its
``labels`` by number and its ``argument_count``; its arguments come first.
The public constructors number by key and build the node table of
``NodeId``s at once.  Every flattening and builder in ``arguments``
numbers by construction, writes each label once from the labels of its
parts, and builds its node table on first read (see ``_Framework``), for
the oracle, ``jsbaf flatten``, the views and ``__eq__``: the pipeline
reads only the ints and the labels.  A node table holds each ``NodeId``
once, built from the objects already in it, so one node is one object
however many edges it ends.  ``NodeId``s are plain frozen records
(``records.Record``).  The ``NodeId`` views ``nodes``, ``attacks``,
``supports`` and ``joint_attacks`` are ``cached_attribute``s, built on
first read, for callers and tests.  The public constructors check that
every endpoint is a node, and number supports and joint attacks, both sets
of nodes to a node, by one helper; the flattenings and the builders make
frameworks whose ints are right by construction, and skip that check.

Every framework the pipeline builds numbers its nodes in label order too:
its labels are made of argument ids ``A<n>`` (sorted as text),
``bar(...)`` and ``e(...,...)``, and for these text order equals key order,
since ")" and "," sort below the digits and "A" < "b" < "e".  So reports
write its nodes, rows, extensions and supports unsorted.  (Other labels
need not keep this: ``bar(a)`` sorts as text before ``c``.)

A JSBAF's nodes are arguments (``BaseNode``s); bars and e-nodes arise only
in flattening.  Arguments sort before every meta-argument, so the nodes of
a JSBAF keep their numbers 0 .. m-1 in each of its flattenings.  Each
flattening reads the shield (see ``JSBAF``) from the JSBAF it flattens.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Union

from .records import Record, cached_attribute


class BaseNode(Record):
    """An original argument, identified by its label."""

    label_text: str

    def key(self):
        return (0, self.label_text)

    @property
    def label(self) -> str:
        return self.label_text

    def __str__(self) -> str:
        return self.label


class BarNode(Record):
    """Meta-argument standing for the rejection of ``base``.

    Generated during flattening, never parsed from user input.  Bars nest:
    the bar of a bar arises when a bar participates in a joint attack.
    """

    base: NodeId

    def key(self):
        return (1, self.base.key())

    @property
    def label(self) -> str:
        return f"bar({self.base.label})"

    def __str__(self) -> str:
        return self.label


class ENode(Record):
    """Meta-argument carrying a joint attack; identified by the attacker set
    alone, so two joint attacks with the same source share one e-node."""

    members: tuple[NodeId, ...]

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


def _target_rows(size: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    rows: list[set[int]] = [set() for _ in range(size)]
    for src, dst in pairs:
        rows[src].add(dst)
    return [sorted(row) for row in rows]


def _set_relation(index, pairs, what: str) -> list[tuple[tuple[int, ...], int]]:
    """The set -> node relation ``pairs`` over the nodes numbered by
    ``index``: each pair once, as (ascending source numbers, target), sorted."""
    numbered = set()
    for source, target in pairs:
        try:
            numbered.add((tuple(sorted({index[a] for a in source})), index[target]))
        except KeyError:
            raise ValueError(f"{what} has an endpoint outside the node set") from None
    return sorted(numbered)


class _Framework:
    """Nodes numbered in canonical order: ``labels[i]`` is node i's label,
    ``node_table[i]`` its ``NodeId``; the first ``argument_count`` are the
    arguments.  ``target_ids[i]`` lists, in ascending order, the nodes that
    node i attacks (in a ``HigherLevelAF``, on its own).  Rows are never
    changed once built; the AF of an argument store shares one tuple among
    the attackers with the same conclusion.

    A framework made by ``_make`` builds its node table on first read, from
    plain data: ``BaseNode``s of its labels, or the table of ``parent``,
    whose nodes are its arguments, then per entry of ``meta`` a ``BarNode``
    of the node an int numbers or an ``ENode`` of those a tuple numbers."""

    labels: list[str]
    argument_count: int
    target_ids: list[Sequence[int]]
    parent: _Framework | None = None
    meta: Sequence[int | tuple[int, ...]] = ()

    def _value(self) -> tuple:
        return self.node_table, tuple(map(tuple, self.target_ids))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    @classmethod
    def _make(cls, **fields):
        """A framework whose relations are already ints over its nodes."""
        self = cls.__new__(cls)
        self.__dict__.update(fields)
        return self

    def _number(self, nodes: Iterable[NodeId]) -> dict[NodeId, int]:
        """Set the node table, labels and argument count of the distinct
        ``nodes`` in canonical order, and return the number of each."""
        table = tuple(n for _, n in sorted((n.key(), n) for n in set(nodes)))
        self.node_table, self.labels = table, [n.label for n in table]
        self.argument_count = sum(isinstance(n, BaseNode) for n in table)
        return {n: i for i, n in enumerate(table)}

    @cached_attribute
    def node_table(self) -> tuple[NodeId, ...]:
        if self.parent is None:  # every node is an argument
            return tuple(map(BaseNode, self.labels))
        if not self.meta:
            return self.parent.node_table
        table = list(self.parent.node_table)
        for part in self.meta:
            if part.__class__ is int:
                table.append(BarNode(table[part]))
            else:
                table.append(ENode(tuple(map(table.__getitem__, part))))
        return tuple(table)

    @cached_attribute
    def nodes(self) -> frozenset[NodeId]:
        return frozenset(self.node_table)

    def _pairs(self) -> Iterator[tuple[NodeId, NodeId]]:
        table = self.node_table
        return ((table[s], table[d]) for s, row in enumerate(self.target_ids) for d in row)

    def _sets(self, pairs) -> Iterator[tuple[frozenset[NodeId], NodeId]]:
        table = self.node_table
        return ((frozenset(table[i] for i in src), table[d]) for src, d in pairs)


class AF(_Framework):
    """A plain argumentation framework: nodes and a directed attack relation."""

    def __init__(self, nodes: Iterable[NodeId], attacks: Iterable[tuple[NodeId, NodeId]]):
        index = self._number(nodes)
        attacks = frozenset(attacks)
        for s, d in attacks:
            if s not in index or d not in index:
                raise ValueError(f"attack ({s}, {d}) has an endpoint outside the node set")
        self.target_ids = _target_rows(len(index), ((index[s], index[d]) for s, d in attacks))

    @cached_attribute
    def attacks(self) -> frozenset[tuple[NodeId, NodeId]]:
        return frozenset(self._pairs())

    @cached_attribute
    def attacker_ids(self) -> list[list[int]]:
        """The attackers of each node, by number, in ascending order."""
        attackers: list[list[int]] = [[] for _ in self.target_ids]
        for src, row in enumerate(self.target_ids):
            for dst in row:
                attackers[dst].append(src)
        return attackers

    @cached_attribute
    def attackers(self) -> dict[NodeId, frozenset[NodeId]]:
        table = self.node_table
        rows = self.attacker_ids
        return {table[i]: frozenset(table[a] for a in row) for i, row in enumerate(rows)}

    @cached_attribute
    def targets(self) -> dict[NodeId, frozenset[NodeId]]:
        table = self.node_table
        rows = self.target_ids
        return {table[i]: frozenset(table[t] for t in row) for i, row in enumerate(rows)}


class HigherLevelAF(_Framework):
    """Nodes and a joint attack relation from nonempty node sets to nodes.

    Numbered as a JSBAF's supports are: ``target_ids`` holds the joint
    attacks from a single node; ``joint_attack_ids`` the others, as
    (ascending source numbers, target), sorted.
    """

    joint_attack_ids: list[tuple[tuple[int, ...], int]]

    def __init__(
        self,
        nodes: Iterable[NodeId],
        joint_attacks: Iterable[tuple[Iterable[NodeId], NodeId]],
    ):
        index = self._number(nodes)
        joint_attacks = [(frozenset(x), b) for x, b in joint_attacks]
        if not all(x for x, _ in joint_attacks):
            raise ValueError("joint attacks must have a nonempty attacker set")
        numbered = _set_relation(index, joint_attacks, "joint attack")
        self.target_ids = _target_rows(len(index), ((x[0], b) for x, b in numbered if len(x) == 1))
        self.joint_attack_ids = [(x, b) for x, b in numbered if len(x) > 1]

    def _value(self) -> tuple:
        return super()._value() + (frozenset(self.joint_attack_ids),)

    @cached_attribute
    def joint_attacks(self) -> frozenset[tuple[frozenset[NodeId], NodeId]]:
        singles = ((frozenset({s}), d) for s, d in self._pairs())
        return frozenset((*singles, *self._sets(self.joint_attack_ids)))


class JSBAF(AF):
    """An ``AF`` plus a joint support relation and a shield; it never
    equals the AF of its nodes and attacks.

    Every node is an argument, a ``BaseNode``.  Support sources range over
    *all* subsets of the nodes, including the empty set; an empty-source
    support just asserts its target outright.  ``support_ids`` holds each
    support once, as (ascending source numbers, target), sorted.

    ``shielded`` numbers the nodes that can never be rejected, the strict
    arguments of a JSBAF built from rules (``build_da_jsbaf``): every
    flattening omits the support arm that would attack one, since "reject
    this supporter" is not an option for it.  A plain JSBAF shields none.
    """

    support_ids: list[tuple[tuple[int, ...], int]]
    shielded: frozenset[int]

    def __init__(
        self,
        nodes: Iterable[BaseNode],
        attacks: Iterable[tuple[BaseNode, BaseNode]],
        supports: Iterable[tuple[Iterable[BaseNode], BaseNode]],
        shielded: Iterable[BaseNode] = (),
    ):
        nodes = frozenset(nodes)
        for node in nodes:
            if not isinstance(node, BaseNode):
                raise ValueError(f"JSBAF node {node} is not an argument")
        super().__init__(nodes, attacks)
        index = {n: i for i, n in enumerate(self.node_table)}
        self.support_ids = _set_relation(index, supports, "support")
        shielded = frozenset(shielded)
        if not shielded <= nodes:
            raise ValueError("shield has a node outside the node set")
        self.shielded = frozenset(index[a] for a in shielded)

    def _value(self) -> tuple:
        return super()._value() + (frozenset(self.support_ids), self.shielded)

    @cached_attribute
    def supports(self) -> frozenset[tuple[frozenset[NodeId], NodeId]]:
        return frozenset(self._sets(self.support_ids))


def _support_arms(
    j: JSBAF,
) -> tuple[set[int], set[int], dict[int, list[int]], list[tuple[tuple[int, ...], int, int]]]:
    """The supports of ``j`` as every flattening reads them, in one pass:
    the supported nodes, each of which gets bar(b); those of them with a
    joint support (X, b), |X| > 1; ``direct``, each b mapped to its
    unshielded singleton supporters, ascending, which bar(b) attacks; and
    ``arms``, in support order, the (Y, b, a) of each supporter a of a joint
    support (X, b) that ``j`` does not shield, with Y = X - {a}: the arm
    that rejects a.  A shielded supporter can never be rejected, so it gets
    neither; a node whose joint supporters are all shielded has no arm."""
    supported, multi = set(), set()
    direct: dict[int, list[int]] = {}
    arms: list[tuple[tuple[int, ...], int, int]] = []
    for source, b in j.support_ids:
        supported.add(b)
        if len(source) > 1:
            multi.add(b)
            arms += (
                (source[:k] + source[k + 1:], b, a)
                for k, a in enumerate(source) if a not in j.shielded
            )
        elif source and source[0] not in j.shielded:
            direct.setdefault(b, []).append(source[0])
    return supported, multi, direct, arms


def flatten_one_step(j: JSBAF) -> HigherLevelAF:
    """Replace joint supports by joint attacks through bar meta-arguments.

    Each supported node b gets a fresh node bar(b), attacked by b; bar(b)
    attacks each supporter in ``direct[b]``, and each arm (Y, b, a) of
    ``_support_arms`` is the joint attack Y | {bar(b)} against a.  Attacks
    become singleton joint attacks.

    The nodes are numbered by construction: the arguments keep their
    numbers 0 .. m-1, and bar(b) is m plus the rank of b among the supported
    nodes, since bars sort after the arguments and in the order of their
    bases.  An argument that gains no bar target keeps its row of ``j``.
    """
    labels = j.labels
    m = len(labels)
    supported, _, direct, arms = _support_arms(j)
    barred = sorted(supported)
    bar_number = {b: m + p for p, b in enumerate(barred)}
    joints = sorted((rest + (bar_number[b],), a) for rest, b, a in arms)
    rows = [(*r, bar_number[b]) if b in bar_number else r for b, r in enumerate(j.target_ids)]
    return HigherLevelAF._make(
        labels=[*labels, *[f"bar({labels[b]})" for b in barred]], argument_count=m,
        target_ids=rows + [direct.get(b, []) for b in barred],
        joint_attack_ids=joints, parent=j, meta=barred,
    )


def flatten_two_step(j: JSBAF) -> AF:
    """The composition of ``flatten_one_step`` with the step that turns
    joint attacks into plain attacks, built by ``_flatten`` without the
    one-step framework.

    A joint attack from a single node is a direct edge.  One from a set Z
    of size > 1 is carried by e(Z) -> its target, with z -> bar(z) -> e(Z)
    for every z in Z; every joint attack from Z shares e(Z).  So every
    supported node and every co-supporter has a bar, and the bar(b) that
    joins the arms of a joint support of b has its own bar, bar(bar(b)).
    """
    return _flatten(j, two_step=True)


def flatten_simplified(j: JSBAF) -> AF:
    """The two-step flattening without its redundant double-negation bars,
    built by ``_flatten``.

    In the two-step flattening, a node b supported by a set of size > 1
    ("multi") relays its status to each e-node of its support arms through
    b -> bar(b) -> bar(bar(b)) -> e, and bar(bar(b)) tracks b exactly.  So
    b attacks those e-nodes itself, and bar(bar(b)) is never built.  bar(b)
    is left out too when that relay was its sole role: b is multi, has no
    singleton support {a} with a unshielded, and co-supports no node in any
    arm.  Otherwise bar(b) is kept, as ``flatten_one_step`` builds it, also
    when it attacks nothing: when b has no joint support, no unshielded
    single supporter, and co-supports nothing.  No two e-nodes collide: b
    is a member of an e-node only in place of its bar, and then b
    co-supports no node.
    """
    return _flatten(j, two_step=False)


def _flatten(j: JSBAF, two_step: bool) -> AF:
    """The two-step flattening of ``j``, or its simplified form, from the
    supports as ``_support_arms`` reads them:

    * b -> bar(b), when bar(b) exists, and bar(b) -> a for each a in
      ``direct[b]``;
    * for each arm (Y, b, a): the e-node e over Y plus bar(b) (or b, when
      bar(b) is left out), with e -> a, y -> bar(y) -> e for every y in Y,
      and bar(b) -> bar(bar(b)) -> e in the two-step flattening, b -> e in
      the simplified one.

    The arguments keep their numbers 0 .. m-1, and an argument that attacks
    no meta-argument keeps its row of ``j``.  The meta-arguments are
    numbered once, in canonical order: the bars of arguments, in the order
    of their bases, then the double bars, then the e-nodes.
    """
    labels = j.labels
    m = len(labels)
    supported, multi, direct, arms = _support_arms(j)
    co_supporters = {y for rest, _, _ in arms for y in rest}
    if two_step:
        barred = sorted(supported | co_supporters)
        relayed = sorted({b for _, b, _ in arms})  # the bases of the double bars
    else:
        barred = sorted(supported - multi | direct.keys() | co_supporters)
        relayed = []
    bar_number = {b: p for p, b in enumerate(barred, m)}
    bar_labels = [f"bar({labels[b]})" for b in barred]
    flat_labels = [*labels, *bar_labels]
    double_bar_number = {b: p for p, b in enumerate(relayed, len(flat_labels))}
    flat_labels += [f"bar({bar_labels[bar_number[b] - m]})" for b in relayed]

    # The attacks that flattening adds, by source number.  An argument gains
    # only meta-argument targets, which follow the targets of its row in j.
    added: dict[int, set[int]] = {b: {p} for b, p in bar_number.items()}
    for b, supporters in direct.items():
        added[bar_number[b]] = set(supporters)
    for b, p in double_bar_number.items():
        added.setdefault(bar_number[b], set()).add(p)
    # E-node members are numbered as nodes, which sort as their keys do, so
    # e-nodes over them sort in canonical order.
    arm_members = [
        rest + (bar_number[b],) if b in bar_number else tuple(sorted(rest + (b,)))
        for rest, b, _ in arms
    ]
    e_members = sorted(set(arm_members))
    e_number = {members: p for p, members in enumerate(e_members, len(flat_labels))}
    flat_labels += ["e(" + ",".join(map(flat_labels.__getitem__, e)) + ")" for e in e_members]
    meta = [*barred, *map(bar_number.__getitem__, relayed), *e_members]
    for (rest, b, a), members in zip(arms, arm_members):
        e = e_number[members]
        added.setdefault(double_bar_number.get(b, b), set()).add(e)
        added.setdefault(e, set()).add(a)
        for y in rest:
            added.setdefault(bar_number[y], set()).add(e)

    rows: list[Sequence[int]] = list(j.target_ids)
    for i, targets in added.items():
        if i < m:
            rows[i] = (*rows[i], *sorted(targets))
    rows += [tuple(sorted(added.get(p, ()))) for p in range(m, len(flat_labels))]
    return AF._make(labels=flat_labels, argument_count=m, target_ids=rows, parent=j, meta=meta)
