"""Argument enumeration and the attack / joint-support relations.

An argument is a tree of rule applications: its top rule's body formulas are
concluded, in order, by its immediate sub-arguments.  Enumeration follows the
recursive definition, restricted so that no root-to-leaf branch repeats a
conclusion; that keeps the store finite on cyclic rule sets while preserving
every non-redundant argument (anything pruned has a shorter argument with the
same conclusion, obtained by grafting the deeper duplicate's subtree in place
of the shallower one).  It does drop the joint support ``subs => r(subs)`` of
each pruned strict application, so deductive closure can fail on a pruned
store (ROADMAP item 7), as with the strict rules ``p -> q``, ``p -> ~q`` and
``q -> p`` and the defeasible ``=> p``.

Arguments are interned: within one store, structural equality (same top
rule, pointwise-equal subs) coincides with object identity.  Canonical ids
A1, A2, ... follow generation order: enumeration round (an argument's
derivation depth), then rule id, then sub ordinals, so two runs over the
same system label every argument identically.  Later stages name an
argument by its ordinal alone; only the AF's labels and the report writers
turn ordinals into ids.  An argument's tree is two ints: its conclusions
as bits of the system's ``literal_table``, so the branch test is one AND
with the rule's head bit, and its sub-arguments as bits of their ordinals.

Attacks are found through two indexes, not by testing every pair of
arguments: one from each attacking literal ``(atom, n)`` to the defeasible
sub-arguments it rebuts (those concluding ``(atom, n ± 1)``) and undercuts
(those whose top rule is named ``(atom, n ± 1)``), and one from each
defeasible sub-argument to the ordinals of the arguments containing it,
read off each argument's sub-argument bits.  An attacker's conclusion is
looked up once, so the work grows with the number of attack witnesses.

The store is a plain frozen record (``records.Record``), and its node
order and node numbers are ``cached_attribute``s, built on the first read.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from typing import NamedTuple

from .core import ArgumentationSystem, DefeasibleRule, Formula, Rule, StrictRule
from .errors import LimitExceededError
from .frameworks import AF, JSBAF
from .records import Record, cached_attribute

DEFAULT_MAX_ARGUMENTS = 5000  # largest store ``construct_arguments`` builds by default


class Argument:
    """A rule application over sub-arguments; immutable after creation.

    ``form`` (e.g. ``A7: A5,A6 -> ~ht``, or ``A1: -> hw`` for an empty body)
    and ``structure``, the fully expanded tree (e.g. ``((-> hw) => ht)``),
    are built here, once, from the subs' strings and ``tail``, the top
    rule's arrow and head as text (e.g. ``-> ~ht``).

    Two ints describe the tree: ``branch_mask``, its conclusions as bits of
    the system's ``literal_table`` (given, since the store tests it before
    it creates an argument), and ``sub_mask``, its sub-arguments, itself
    included, as bits ``1 << ordinal``, ORed from the subs'.  No argument
    refers to itself, so dropping a store frees its arguments at once."""

    __slots__ = (
        "rule",
        "subs",
        "ordinal",
        "canonical_id",
        "conclusion",
        "defeasible",
        "branch_mask",
        "sub_mask",
        "form",
        "structure",
    )

    def __init__(
        self,
        rule: Rule,
        subs: tuple["Argument", ...],
        ordinal: int,
        tail: str,
        branch_mask: int,
    ):
        self.rule = rule
        self.subs = subs
        self.ordinal = ordinal
        self.canonical_id = f"A{ordinal + 1}"
        self.conclusion: Formula = rule.head
        self.branch_mask = branch_mask
        defeasible = isinstance(rule, DefeasibleRule)
        sub_mask = 1 << ordinal
        for sub in subs:
            sub_mask |= sub.sub_mask
            defeasible |= sub.defeasible
        self.defeasible = defeasible
        self.sub_mask = sub_mask
        if subs:
            self.form = f"{self.canonical_id}: {','.join([s.canonical_id for s in subs])} {tail}"
            self.structure = f"({','.join([s.structure for s in subs])} {tail})"
        else:
            self.form, self.structure = f"{self.canonical_id}: {tail}", f"({tail})"

    @property
    def top_rule_strict(self) -> bool:
        return isinstance(self.rule, StrictRule)

    @property
    def compact(self) -> str:
        """E.g. ``r5(A5,A6)``."""
        return f"{self.rule.id}({','.join(s.canonical_id for s in self.subs)})"

    def __repr__(self) -> str:
        return f"<{self.form}>"


class ArgumentStore(Record):
    """Every argument constructible on the basis of a system, deduplicated
    and closed under sub-arguments, enumerated under the cap
    ``max_arguments``."""

    system: ArgumentationSystem
    arguments: tuple[Argument, ...]
    acyclicity_pruned: bool
    max_arguments: int

    @cached_attribute
    def node_order(self) -> tuple[int, ...]:
        """Argument ordinals in canonical node order, which sorts the ids
        as text (A1, A10, A11, ..., A2): node p of a framework built from
        this store is argument ``node_order[p]``."""
        ids = [arg.canonical_id for arg in self.arguments]
        return tuple(sorted(range(len(ids)), key=ids.__getitem__))

    @cached_attribute
    def node_number(self) -> list[int]:
        """The node number of each argument, by ordinal."""
        number = [0] * len(self.arguments)
        for p, o in enumerate(self.node_order):
            number[o] = p
        return number

    def __len__(self) -> int:
        return len(self.arguments)


def construct_arguments(
    system: ArgumentationSystem, max_arguments: int = DEFAULT_MAX_ARGUMENTS
) -> ArgumentStore:
    """Enumerate the argument store of ``system``.

    Enumeration runs in rounds, and pools grow only between them.  The
    first round applies the rules with an empty body; each later one
    combines each rule's pools, the arguments of earlier rounds, and keeps
    a candidate iff one of its sub-arguments is of the last round, so every
    (rule, subs) pair comes up once and needs no duplicate check.  Rules
    are visited in id order and pools in ordinal order, so arguments are
    created as found, in (round, rule id, sub ordinals) order.  A round
    skips, on conclusion masks, each rule with no body formula concluded in
    the last round or with one that no argument concludes: none of its
    candidates would be kept.  A rule's pools drop each argument whose
    branch holds its head, so no candidate is formed to be pruned; only a
    pool whose branches' union holds it is scanned.

    Raises LimitExceededError when the store would exceed ``max_arguments``,
    which signals a combinatorially explosive system rather than a
    recoverable condition.
    """
    bits = system.literal_table.bits
    empty = 1 << len(bits)  # the empty body's bit: only the first round's ``last`` holds it
    # Each rule as (id, rule, arrow), in id order: ids are unique, so the
    # sort compares ids alone.
    rules = [(r.id, r, "-> ") for r in system.strict_rules]
    rules += [(r.id, r, "=> ") for r in system.defeasible_rules]
    rules.sort()
    entries = []  # (rule, arrow, body mask, head bit) of each rule
    for _, rule, arrow in rules:
        body = 0
        for phi in rule.body:
            body |= bits[phi]
        entries.append((rule, arrow, body or empty, bits[rule.head]))

    arguments: list[Argument] = []
    by_conclusion: dict[Formula, list[Argument]] = {}
    branches: dict[Formula, int] = {}  # the union of the branch masks of each pool

    def create(rule: Rule, subs: tuple[Argument, ...], tail: str, branch_mask: int):
        if len(arguments) >= max_arguments:
            raise LimitExceededError(max_arguments)
        arguments.append(Argument(rule, subs, len(arguments), tail, branch_mask))

    pruned = False
    concluded = last = empty  # the conclusions of the arguments of all rounds, and of the last
    start = 0  # the first ordinal of the last round
    while last:
        first = len(arguments)  # the first ordinal of this round
        for rule, arrow, body, head in entries:
            if not body & last or body & ~concluded:
                continue
            tail = f"{arrow}{rule.head}"
            if body == empty:  # the rule's one argument, made in the first round
                create(rule, (), tail, head)
                continue
            pools = []
            for phi in rule.body:
                pool = by_conclusion[phi]
                if branches[phi] & head:  # drop the members whose branch holds the head
                    pool = [s for s in pool if not s.branch_mask & head]
                    pruned = True
                pools.append(pool)
            for subs in itertools.product(*pools):
                below, recent = 0, False
                for s in subs:
                    below |= s.branch_mask
                    if s.ordinal >= start:
                        recent = True
                if recent:
                    create(rule, subs, tail, below | head)
        # Between rounds, this round's arguments join their pools.
        last = 0
        for arg in arguments[first:]:
            phi = arg.conclusion
            by_conclusion.setdefault(phi, []).append(arg)
            branches[phi] = branches.get(phi, 0) | arg.branch_mask
            last |= bits[phi]
        concluded |= last
        start = first

    return ArgumentStore(system, tuple(arguments), pruned, max_arguments)


class AttackWitness(NamedTuple):
    """One attack occurrence: attacker, target, kind, and the sub-argument
    of the target it lands on."""

    attacker: str
    target: str
    kind: str  # "undercut" | "rebut"
    on: str


KINDS = ("undercut", "rebut")  # the attack kinds, by kind index
Hits = tuple[tuple[int, int, int], ...]  # (target, kind index, on) per witness of one attacker


class AttackWitnesses:
    """The attack witnesses of a store, grouped by attacker: ``groups`` holds
    (attacker ordinal, hits) for each argument that attacks, in ordinal
    order.  Hits depend only on the attacker's conclusion, so the attackers
    with the same conclusion share one hits tuple.  A large system has
    hundreds of thousands of witnesses (213,360 for tandem(10, 3)) but few
    conclusions, so every later stage reads each hits tuple once, not each
    witness.

    ``len`` is the number of witnesses; iteration yields each as an
    ``AttackWitness`` of the ids in ``arguments``, the store's, in the order
    of ``attack_witnesses``."""

    __slots__ = ("arguments", "groups", "_count")

    def __init__(self, arguments: tuple[Argument, ...], groups: tuple[tuple[int, Hits], ...]):
        self.arguments = arguments
        self.groups = groups
        self._count = sum(len(hits) for _, hits in groups)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[AttackWitness]:
        ids = [arg.canonical_id for arg in self.arguments]
        for attacker, hits in self.groups:
            for target, kind, on in hits:
                yield AttackWitness(ids[attacker], ids[target], KINDS[kind], ids[on])


def attack_witnesses(store: ArgumentStore) -> AttackWitnesses:
    """All undercut and rebuttal occurrences between stored arguments, in the
    order of a double loop over the pairwise definitions (``undercuts`` and
    ``rebuts_unrestricted`` in ``tests/reference.py``): by attacker, target,
    kind (undercuts first), then attacked sub-argument.
    Several witnesses may share an (attacker, target) pair; the attack edge
    counts once.

    Two indexes replace the pairwise test.  ``attacked`` maps each attacking
    literal ``(atom, n)`` to the (kind index, ordinal) of every sub-argument
    it attacks: a defeasible argument concluding ``(atom, n ± 1)`` (rebut),
    and an undercuttable one whose top rule is named ``(atom, n ± 1)``
    (undercut).  ``supers`` lists the ordinals of each defeasible
    sub-argument's super-arguments, itself included.  Hits depend only on the attacker's
    conclusion; each conclusion's hits are looked up, sorted, and stored,
    once.
    """
    args, names = store.arguments, store.system.undercut_names
    attacked: dict[tuple[str, int], list[tuple[int, int]]] = {}
    attackable = 0  # the defeasible arguments, as bits of their ordinals
    supers: list[list[int]] = [[] for _ in args]  # by ordinal, of the defeasible ones
    for arg in args:
        if not arg.defeasible:  # a strict argument is neither rebutted nor undercut
            continue
        ordinal = arg.ordinal
        attackable |= 1 << ordinal
        # Only defeasible rules are named, and rule ids are unique.
        for kind, phi in ((0, names.get(arg.rule.id)), (1, arg.conclusion)):
            if phi is not None:
                atom, n = phi.atom, phi.negations
                attacked.setdefault((atom, n + 1), []).append((kind, ordinal))
                if n:
                    attacked.setdefault((atom, n - 1), []).append((kind, ordinal))
        below = arg.sub_mask & attackable
        while below:
            sub = below.bit_length() - 1
            below ^= 1 << sub
            supers[sub].append(ordinal)

    hits_by_conclusion: dict[Formula, Hits] = {}
    groups: list[tuple[int, Hits]] = []
    for a in args:
        conclusion = a.conclusion
        hits = hits_by_conclusion.get(conclusion)
        if hits is None:
            found = []
            for kind, sub in attacked.get((conclusion.atom, conclusion.negations), ()):
                for b in supers[sub]:
                    found.append((b, kind, sub))
            found.sort()
            hits = hits_by_conclusion[conclusion] = tuple(found)
        if hits:
            groups.append((a.ordinal, hits))
    return AttackWitnesses(args, tuple(groups))


def _attack_edges(store: ArgumentStore, witnesses: AttackWitnesses) -> list[tuple[int, ...]]:
    """The attack relation over the node numbers of ``store`` (see
    ``ArgumentStore.node_order``): the targets of each node, in ascending
    order.  Each hits tuple's row is computed once and shared, as a tuple,
    by every attacker that holds it."""
    number = store.node_number
    rows: list[tuple[int, ...]] = [()] * len(number)
    row_of: dict[int, tuple[int, ...]] = {}
    for attacker, hits in witnesses.groups:
        row = row_of.get(id(hits))
        if row is None:
            row = row_of[id(hits)] = tuple(sorted({number[target] for target, _, _ in hits}))
        rows[number[attacker]] = row
    return rows


def build_aspic_minus_af(store: ArgumentStore, witnesses: AttackWitnesses) -> AF:
    """The AF whose nodes are all arguments of ``store`` and whose edges are
    exactly the undercut and unrestricted-rebuttal pairs of ``witnesses``,
    the attack witnesses of ``store``.  Its labels are the argument ids."""
    args = store.arguments
    labels = [args[o].canonical_id for o in store.node_order]
    edges = _attack_edges(store, witnesses)
    return AF._make(labels=labels, argument_count=len(labels), target_ids=edges)


def support_pairs(store: ArgumentStore) -> list[tuple[tuple[int, ...], int]]:
    """One support per strict-top argument: its set of immediate
    sub-arguments (possibly empty) supports it.  Node numbers as in
    ``ArgumentStore.node_order``, each source in ascending order, the
    supports sorted, as ``JSBAF(...)`` sorts them."""
    number, pairs = store.node_number, []
    for arg in store.arguments:
        if arg.top_rule_strict:
            source = sorted({number[s.ordinal] for s in arg.subs})
            pairs.append((tuple(source), number[arg.ordinal]))
    pairs.sort()
    return pairs


def build_da_jsbaf(store: ArgumentStore, af: AF) -> JSBAF:
    """The nodes and attacks of ``af``, the ``build_aspic_minus_af`` of
    ``store``, plus the joint support of every strict-top argument by its
    immediate sub-arguments, shielding the strict arguments.  The JSBAF
    shares the labels, attack relation and node table of ``af``."""
    return JSBAF._make(
        labels=af.labels, argument_count=af.argument_count, target_ids=af.target_ids,
        support_ids=support_pairs(store), shielded=strict_argument_nodes(store), parent=af,
    )


def strict_argument_nodes(store: ArgumentStore) -> frozenset[int]:
    """Node numbers of the arguments with no defeasible rule anywhere in
    their tree.  Nothing can attack them, so ``build_da_jsbaf`` shields them
    (see ``JSBAF``); that keeps the projected extensions deductive for every
    support, including the empty-source supports of axiom arguments."""
    number = store.node_number
    return frozenset([number[arg.ordinal] for arg in store.arguments if not arg.defeasible])
