"""Argument enumeration and the attack / joint-support relations.

An argument is a tree of rule applications: its top rule's body formulas are
concluded, in order, by its immediate sub-arguments.  Enumeration follows
the recursive definition, restricted so that no root-to-leaf branch repeats
a conclusion; that keeps the store finite on cyclic rule sets while
preserving every non-redundant argument (anything pruned has a shorter
argument with the same conclusion, obtained by grafting the deeper
duplicate's subtree in place of the shallower one).

Arguments are interned: within one store, structural equality (same top
rule, pointwise-equal subs) coincides with object identity.  Canonical ids
A1, A2, ... are assigned breadth-first by derivation depth, then
lexicographically by rule id and sub ids, so two runs over the same system
label every argument identically.

Attacks are found through indexes, not by testing every pair of arguments:
defeasible sub-arguments by conclusion, undercuttable ones by the name of
their top rule, and sub-arguments by the arguments containing them.  An
attacker concluding ``(atom, n)`` looks up only ``(atom, n ± 1)``, so the work
grows with the number of attack witnesses.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .core import ArgumentationSystem, DefeasibleRule, Formula, Rule, StrictRule
from .errors import LimitExceededError
from .frameworks import AF, JSBAF, BaseNode

DEFAULT_MAX_ARGUMENTS = 5000  # largest store ``construct_arguments`` builds by default


class Argument:
    """A rule application over sub-arguments; immutable after creation.

    ``form`` (e.g. ``A7: A5,A6 -> ~ht``, or ``A1: -> hw`` for an empty body)
    and ``structure``, the fully expanded tree (e.g. ``((-> hw) => ht)``),
    are built here, once, from the subs' strings and ``tail``, the top
    rule's arrow and head as text (e.g. ``-> ~ht``)."""

    __slots__ = (
        "rule",
        "subs",
        "ordinal",
        "canonical_id",
        "conclusion",
        "defeasible",
        "depth",
        "branch_conclusions",
        "sub_arguments",
        "form",
        "structure",
    )

    def __init__(self, rule: Rule, subs: tuple["Argument", ...], ordinal: int, tail: str):
        self.rule = rule
        self.subs = subs
        self.ordinal = ordinal
        self.canonical_id = f"A{ordinal + 1}"
        self.conclusion: Formula = rule.head
        self.defeasible = isinstance(rule, DefeasibleRule) or any(s.defeasible for s in subs)
        self.depth = 1 + max((sub.depth for sub in subs), default=0)
        concs: set[Formula] = {rule.head}
        sub_args: set[Argument] = {self}
        for sub in subs:
            concs |= sub.branch_conclusions
            sub_args |= sub.sub_arguments
        self.branch_conclusions = frozenset(concs)
        self.sub_arguments = frozenset(sub_args)
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


@dataclass(frozen=True)
class ArgumentStore:
    """Every argument constructible on the basis of a system, deduplicated
    and closed under sub-arguments."""

    system: ArgumentationSystem
    arguments: tuple[Argument, ...]
    acyclicity_pruned: bool

    @cached_property
    def node_order(self) -> tuple[int, ...]:
        """Argument ordinals in canonical node order, which sorts the ids
        as text (A1, A10, A11, ..., A2): node p of a framework built from
        this store is argument ``node_order[p]``."""
        ids = [arg.canonical_id for arg in self.arguments]
        return tuple(sorted(range(len(ids)), key=ids.__getitem__))

    @cached_property
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

    Round d combines each rule only with sub-arguments whose deepest has
    depth d - 1, so every (rule, subs) pair comes up in one round, once, and
    needs no duplicate check.

    Raises LimitExceededError when the store would exceed ``max_arguments``,
    which signals a combinatorially explosive system rather than a
    recoverable condition.
    """
    rules: list[Rule] = sorted(
        system.strict_rules + system.defeasible_rules, key=lambda r: r.id
    )
    arguments: list[Argument] = []
    by_conclusion: dict[Formula, list[Argument]] = {}
    pruned = False
    tails = {r.id: ("-> " if isinstance(r, StrictRule) else "=> ") + str(r.head) for r in rules}

    def create(rule: Rule, subs: tuple[Argument, ...]):
        if len(arguments) >= max_arguments:
            raise LimitExceededError(max_arguments)
        arg = Argument(rule, subs, len(arguments), tails[rule.id])
        arguments.append(arg)
        by_conclusion.setdefault(arg.conclusion, []).append(arg)

    for rule in rules:
        if not rule.body:
            create(rule, ())

    depth = 2
    while True:
        candidates: list[tuple[str, tuple[int, ...], Rule, tuple[Argument, ...]]] = []
        for rule in rules:
            if not rule.body:
                continue
            pools = [by_conclusion.get(b, []) for b in rule.body]
            if any(not pool for pool in pools):
                continue
            for subs in itertools.product(*pools):
                if max(s.depth for s in subs) != depth - 1:
                    continue
                if any(rule.head in s.branch_conclusions for s in subs):
                    pruned = True
                    continue
                candidates.append((rule.id, tuple(s.ordinal for s in subs), rule, subs))
                if len(arguments) + len(candidates) > max_arguments:
                    raise LimitExceededError(max_arguments)
        if not candidates:
            break
        for _, _, rule, subs in sorted(candidates, key=lambda c: (c[0], c[1])):
            create(rule, subs)
        depth += 1

    return ArgumentStore(system, tuple(arguments), pruned)


class AttackWitness(NamedTuple):
    """One attack occurrence: attacker, target, kind, and the sub-argument
    of the target it lands on."""

    attacker: str
    target: str
    kind: str  # "undercut" | "rebut"
    on: str


Hits = tuple[tuple[str, str, str], ...]  # (target, kind, on) per witness of one attacker


class AttackWitnesses:
    """The attack witnesses of a store, grouped by attacker: ``groups`` holds
    (attacker id, hits) for each argument that attacks, in ordinal order.
    Hits depend only on the attacker's conclusion, so the attackers with the
    same conclusion share one hits tuple.  A large system has hundreds of
    thousands of witnesses (213,360 for tandem(10, 3)) but few conclusions,
    so every later stage reads each hits tuple once, not each witness.

    ``len`` is the number of witnesses; iteration yields each as an
    ``AttackWitness``, in the order of ``attack_witnesses``."""

    __slots__ = ("groups", "_count")

    def __init__(self, groups: tuple[tuple[str, Hits], ...]):
        self.groups = groups
        self._count = sum(len(hits) for _, hits in groups)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[AttackWitness]:
        for attacker, hits in self.groups:
            for target, kind, on in hits:
                yield AttackWitness(attacker, target, kind, on)


def attack_witnesses(store: ArgumentStore) -> AttackWitnesses:
    """All undercut and rebuttal occurrences between stored arguments, in the
    order of a double loop over the pairwise definitions (``undercuts`` and
    ``rebuts_unrestricted`` in ``tests/reference.py``): by attacker, target,
    kind (undercuts first), then attacked sub-argument.
    Several witnesses may share an (attacker, target) pair; the attack edge
    counts once.

    Three indexes replace the pairwise test: defeasible sub-arguments by
    conclusion ``(atom, negations)``, undercuttable sub-arguments by their
    name formula, and each sub-argument's super-arguments (itself included).
    Hits depend only on the attacker's conclusion; each conclusion's hits
    are looked up, and stored, once.
    """
    args, names = store.arguments, store.system.undercut_names
    rebuttable: dict[tuple[str, int], list[Argument]] = {}
    undercuttable: dict[tuple[str, int], list[Argument]] = {}
    supers: dict[Argument, list[Argument]] = {}
    for arg in args:
        if arg.defeasible:
            key = (arg.conclusion.atom, arg.conclusion.negations)
            rebuttable.setdefault(key, []).append(arg)
        if isinstance(arg.rule, DefeasibleRule) and arg.rule.id in names:
            name = names[arg.rule.id]
            undercuttable.setdefault((name.atom, name.negations), []).append(arg)
        for sub in arg.sub_arguments:
            supers.setdefault(sub, []).append(arg)

    hits_by_conclusion: dict[Formula, Hits] = {}
    groups: list[tuple[str, Hits]] = []
    for a in args:
        hits = hits_by_conclusion.get(a.conclusion)
        if hits is None:
            atom, n = a.conclusion.atom, a.conclusion.negations
            found = sorted(
                (b.ordinal, rank, sub.ordinal)
                for rank, index in enumerate((undercuttable, rebuttable))
                for key in ((atom, n - 1), (atom, n + 1))
                for sub in index.get(key, ())
                for b in supers[sub]
            )
            hits = hits_by_conclusion[a.conclusion] = tuple(
                (args[b].canonical_id, ("undercut", "rebut")[rank], args[on].canonical_id)
                for b, rank, on in found
            )
        if hits:
            groups.append((a.canonical_id, hits))
    return AttackWitnesses(tuple(groups))


def _attack_edges(store: ArgumentStore, witnesses: AttackWitnesses) -> list[tuple[int, ...]]:
    """The attack relation over the node numbers of ``store`` (see
    ``ArgumentStore.node_order``): the targets of each node, in ascending
    order.  Each hits tuple's row is computed once and shared, as a tuple,
    by every attacker that holds it."""
    number = {store.arguments[o].canonical_id: p for p, o in enumerate(store.node_order)}
    rows: list[tuple[int, ...]] = [()] * len(number)
    row_of: dict[int, tuple[int, ...]] = {}
    for attacker, hits in witnesses.groups:
        row = row_of.get(id(hits))
        if row is None:
            row = row_of[id(hits)] = tuple(sorted({number[target] for target, _, _ in hits}))
        rows[number[attacker]] = row
    return rows


def _argument_nodes(store: ArgumentStore) -> tuple[tuple[BaseNode, ...], tuple]:
    """The node table of the arguments and its keys."""
    ids = [store.arguments[o].canonical_id for o in store.node_order]
    return tuple(map(BaseNode, ids)), tuple((0, i) for i in ids)


def build_aspic_minus_af(store: ArgumentStore, witnesses: AttackWitnesses) -> AF:
    """The AF whose nodes are all arguments of ``store`` and whose edges are
    exactly the undercut and unrestricted-rebuttal pairs of ``witnesses``,
    the attack witnesses of ``store``."""
    return AF._make(*_argument_nodes(store), target_ids=_attack_edges(store, witnesses))


def support_pairs(store: ArgumentStore) -> list[tuple[tuple[int, ...], int]]:
    """One support per strict-top argument: its set of immediate
    sub-arguments (possibly empty) supports it.  Node numbers as in
    ``ArgumentStore.node_order``, each source in ascending order, the
    supports sorted, as ``JSBAF(...)`` sorts them."""
    number = store.node_number
    return sorted(
        (tuple(sorted({number[s.ordinal] for s in arg.subs})), number[arg.ordinal])
        for arg in store.arguments
        if arg.top_rule_strict
    )


def build_da_jsbaf(store: ArgumentStore, af: AF) -> JSBAF:
    """The nodes and attacks of ``af``, the ``build_aspic_minus_af`` of
    ``store``, plus the joint support of every strict-top argument by its
    immediate sub-arguments.  The JSBAF shares the node table and attack
    relation of ``af``."""
    return JSBAF._make(
        af.node_table, af.node_keys, target_ids=af.target_ids, support_ids=support_pairs(store)
    )


def strict_argument_nodes(store: ArgumentStore) -> frozenset[int]:
    """Node numbers of the arguments with no defeasible rule anywhere in
    their tree.  Nothing can attack them, so the flattening shields them
    from contrapositive support arms (see ``flatten_one_step``); that keeps
    the projected extensions deductive for every support, including the
    empty-source supports of axiom arguments."""
    number = store.node_number
    return frozenset(number[arg.ordinal] for arg in store.arguments if not arg.defeasible)
