"""Logical substrate: formulas, rules, argumentation systems, strict closure.

The language is the closure of a finite atom vocabulary under negation, so
every formula is some number of negations applied to an atom.  No
normalisation is ever performed: ``~~a`` and ``a`` are different formulas,
and the complement relation below is purely syntactic.

Formulas are interned, one object per (atom, negations) pair, so they hash
and compare by identity.  Strict closure and the least complementary pair
are the ``closure`` and ``least_pair`` methods of a ``LiteralTable``, which
numbers the literals once, in formula order, and holds each strict rule as
a body mask and a head bit and each complementary pair as a pair mask.  A
system builds its table once and keeps it, so the closure of a set of its
literals and its least pair are a few int operations per rule and per pair.

Rules and systems are plain frozen records (``records.Record``), each set
up by one update of its ``__dict__``; a system's literal table and atoms
are ``cached_attribute``s, built on the first read and kept.
"""

from __future__ import annotations

from functools import total_ordering
from operator import attrgetter
from typing import Iterable, Mapping, Union

from .errors import ValidationError
from .records import Record, cached_attribute


# Every formula built so far, by (atom, negations).  One entry per distinct
# pair the process builds, kept for its lifetime.
_INTERNED: dict[tuple[str, int], "Formula"] = {}


@total_ordering
class Formula:
    """``negations`` applications of ``~`` to an atom.

    ``Formula("tt", 1)`` is ``~tt``; ``Formula("tt", 0)`` is ``tt``.  Atoms,
    like rule ids, are ASCII identifiers (``[A-Za-z_][A-Za-z0-9_]*``), the
    names the rule language can spell.

    Formulas are interned: ``Formula(atom, negations)`` returns the one
    object for that pair, validated when it is first built, so equality and
    hashing are ``object``'s, by identity.  The intern table grows by one
    entry per distinct (atom, negations) pair the process builds and never
    shrinks.  Formulas are immutable, ordered by (atom, negations), and
    pickle and copy to the interned object.
    """

    __slots__ = ("atom", "negations")

    def __new__(cls, atom: str, negations: int = 0) -> "Formula":
        try:
            formula = _INTERNED.get((atom, negations))
        except TypeError:  # an unhashable atom or depth, refused below
            formula = None
        if formula is None:
            if atom.__class__ is not str or not (atom.isascii() and atom.isidentifier()):
                raise ValidationError(f"atom name {atom!r} is not an identifier")
            if negations.__class__ is not int:
                raise ValidationError(f"negation depth must be an int, got {negations!r}")
            if negations < 0:
                raise ValidationError("negation depth must be non-negative")
            formula = object.__new__(cls)
            object.__setattr__(formula, "atom", atom)
            object.__setattr__(formula, "negations", negations)
            # Of two threads that build the same pair, both return the first published.
            formula = _INTERNED.setdefault((atom, negations), formula)
        return formula

    __setattr__ = Record.__setattr__  # FrozenInstanceError, as a record's
    __delattr__ = Record.__delattr__

    def __reduce__(self):
        return Formula, (self.atom, self.negations)

    def __lt__(self, other):
        if other.__class__ is not Formula:
            return NotImplemented
        return (self.atom, self.negations) < (other.atom, other.negations)

    def __repr__(self) -> str:
        return f"Formula(atom={self.atom!r}, negations={self.negations!r})"

    def negation(self) -> "Formula":
        """The formula ``~self``."""
        return Formula(self.atom, self.negations + 1)

    def __str__(self) -> str:
        return "~" * self.negations + self.atom


def atom(name: str) -> Formula:
    return Formula(name, 0)


def neg(phi: Union[str, Formula]) -> Formula:
    if isinstance(phi, str):
        phi = atom(phi)
    return phi.negation()


def complement(phi: Formula, psi: Formula) -> bool:
    """True iff one formula is the syntactic negation of the other.

    Symmetric and irreflexive.  ``~~a`` is *not* the complement of ``~~~~a``
    or of ``a``: only a single negation step counts.
    """
    return phi.atom == psi.atom and abs(phi.negations - psi.negations) == 1


class StrictRule(Record):
    """A rule whose conclusion cannot be questioned once its body holds.

    The body may be empty, which makes the rule behave like an axiom.
    """

    id: str
    body: tuple[Formula, ...]
    head: Formula


class DefeasibleRule(Record):
    """A rule that creates presumptive, attackable conclusions."""

    id: str
    body: tuple[Formula, ...]
    head: Formula


Rule = Union[StrictRule, DefeasibleRule]


def strict_rule(id: str, body: Iterable[Formula], head: Formula) -> StrictRule:
    return StrictRule(id, tuple(body), head)


def defeasible_rule(id: str, body: Iterable[Formula], head: Formula) -> DefeasibleRule:
    return DefeasibleRule(id, tuple(body), head)


class ArgumentationSystem(Record):
    """Strict rules, defeasible rules, and a partial naming of defeasible
    rules that makes them undercuttable.

    Validated on construction: rule ids are identifiers, unique across both
    lists, no two rules of the same kind share body and head, and
    ``undercut_names`` is only defined on defeasible-rule ids.
    """

    strict_rules: tuple[StrictRule, ...]
    defeasible_rules: tuple[DefeasibleRule, ...]
    undercut_names: dict[str, Formula]

    def __init__(
        self,
        strict_rules: Iterable[StrictRule],
        defeasible_rules: Iterable[DefeasibleRule],
        undercut_names: Mapping[str, Formula] = {},  # copied, so never changed
    ):
        self.__dict__.update(
            strict_rules=tuple(strict_rules), defeasible_rules=tuple(defeasible_rules),
            undercut_names=dict(undercut_names),
        )
        seen_ids: set[str] = set()
        for rule in self.strict_rules + self.defeasible_rules:
            if not (rule.id.isascii() and rule.id.isidentifier()):
                raise ValidationError(f"rule id {rule.id!r} is not an identifier")
            if rule.id in seen_ids:
                raise ValidationError(f"duplicate rule id {rule.id!r}")
            seen_ids.add(rule.id)
        for rules in (self.strict_rules, self.defeasible_rules):
            seen_shapes = set()
            for rule in rules:
                size = len(seen_shapes)
                seen_shapes.add((rule.body, rule.head))  # hashes the shape once
                if len(seen_shapes) == size:
                    raise ValidationError(
                        f"rule {rule.id!r} duplicates another rule of the same kind"
                    )
        defeasible_ids = {r.id for r in self.defeasible_rules}
        for rule_id in self.undercut_names:
            if rule_id not in defeasible_ids:
                raise ValidationError(
                    f"undercut name defined on {rule_id!r}, which is not a defeasible rule"
                )

    @classmethod
    def _make(cls, strict_rules, defeasible_rules, undercut_names) -> ArgumentationSystem:
        """A system from parts that already pass the checks above, as
        ``dsl.parse_system`` builds them, without checking them again."""
        self = cls.__new__(cls)
        self.__dict__.update(zip(cls._fields, (strict_rules, defeasible_rules, undercut_names)))
        return self

    @cached_attribute
    def literal_table(self) -> "LiteralTable":
        """Every formula the system mentions, and its strict rules, numbered
        on first read and kept."""
        formulas = [*self.undercut_names.values()]
        for rule in self.defeasible_rules:
            formulas.append(rule.head)
            formulas += rule.body
        return LiteralTable(self.strict_rules, formulas)

    @cached_attribute
    def atoms(self) -> frozenset[str]:
        """Atom vocabulary actually mentioned by the rules, collected on
        first read and kept."""
        return frozenset([f.atom for f in self.literal_table.literals])


_BY_ID = attrgetter("id")  # the sort key of rules
_FORMULA_ORDER = attrgetter("atom", "negations")  # the sort key of formulas


class LiteralTable:
    """Formulas and strict rules as bits of ints.

    ``literals`` holds the given formulas and those of the rules in formula
    order, and literal i is the bit ``1 << i`` of a mask (``bits`` maps each
    literal to its bit).  ``rules`` holds each strict rule, in id order, as
    (body mask, head bit, rule); ``pairs`` holds each complementary pair
    (phi, ~phi) of the literals, in the formula order of phi, as (pair
    mask, phi, ~phi).  A pair's two literals are adjacent in formula order,
    so the pairs are found without building a formula.
    """

    def __init__(self, rules: Iterable[StrictRule], formulas: Iterable[Formula]):
        rules = sorted(rules, key=_BY_ID)
        mentioned = set(formulas)
        for rule in rules:
            mentioned.add(rule.head)
            mentioned.update(rule.body)
        self.literals = literals = tuple(sorted(mentioned, key=_FORMULA_ORDER))
        self.bits = bits = {phi: 1 << i for i, phi in enumerate(literals)}
        numbered = []
        for rule in rules:
            body = 0
            for phi in rule.body:
                body |= bits[phi]
            numbered.append((body, bits[rule.head], rule))
        self.rules = tuple(numbered)
        pairs = []
        for phi, psi in zip(literals, literals[1:]):
            if psi.atom == phi.atom and psi.negations == phi.negations + 1:
                pairs.append((bits[phi] | bits[psi], phi, psi))
        self.pairs = tuple(pairs)

    def mask(self, formulas: Iterable[Formula]) -> int:
        """The bits of ``formulas``; KeyError on one the table lacks."""
        bits, mask = self.bits, 0
        for phi in formulas:
            mask |= bits[phi]
        return mask

    def closure(self, mask: int) -> tuple[int, StrictRule | None]:
        """The least superset of ``mask`` closed under the strict rules, by
        saturation (empty-body rules always fire), and the first rule by id
        that fires on ``mask`` itself: one whose body it holds and whose
        head it lacks.  That rule is None iff ``mask`` is closed."""
        first = None
        grown = True
        while grown:
            grown = False
            for body, head, rule in self.rules:
                if not mask & head and body & mask == body:
                    mask |= head
                    grown = True
                    if first is None:  # the first rule to fire saw ``mask`` unchanged
                        first = rule
        return mask, first

    def least_pair(self, mask: int) -> tuple[Formula, Formula] | None:
        """The complementary pair inside ``mask`` least in formula order, or None."""
        for pair, phi, psi in self.pairs:
            if mask & pair == pair:
                return phi, psi
        return None


def strict_conflict(system: ArgumentationSystem) -> tuple[Formula, Formula] | None:
    """The least complementary pair among the conclusions of strict
    arguments, or None.

    Those conclusions are exactly the strict closure of the empty set
    (strict arguments bottom out in empty-body strict rules), so the pair
    is read off that closure, on the system's literal table.
    """
    table = system.literal_table
    return table.least_pair(table.closure(0)[0])
