"""Logical substrate: formulas, rules, argumentation systems, strict closure.

The language is the closure of a finite atom vocabulary under negation, so
every formula is some number of negations applied to an atom.  No
normalisation is ever performed: ``~~a`` and ``a`` are different formulas,
and the complement relation below is purely syntactic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Union

from .errors import ValidationError


@dataclass(frozen=True, order=True)
class Formula:
    """``negations`` applications of ``~`` to an atom.

    ``Formula("tt", 1)`` is ``~tt``; ``Formula("tt", 0)`` is ``tt``.  Atoms,
    like rule ids, are ASCII identifiers (``[A-Za-z_][A-Za-z0-9_]*``), the
    names the rule language can spell.
    """

    atom: str
    negations: int = 0

    def __post_init__(self):
        if not (self.atom.isascii() and self.atom.isidentifier()):
            raise ValidationError(f"atom name {self.atom!r} is not an identifier")
        if self.negations < 0:
            raise ValidationError("negation depth must be non-negative")

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


@dataclass(frozen=True)
class StrictRule:
    """A rule whose conclusion cannot be questioned once its body holds.

    The body may be empty, which makes the rule behave like an axiom.
    """

    id: str
    body: tuple[Formula, ...]
    head: Formula


@dataclass(frozen=True)
class DefeasibleRule:
    """A rule that creates presumptive, attackable conclusions."""

    id: str
    body: tuple[Formula, ...]
    head: Formula


Rule = Union[StrictRule, DefeasibleRule]


def strict_rule(id: str, body: Iterable[Formula], head: Formula) -> StrictRule:
    return StrictRule(id, tuple(body), head)


def defeasible_rule(id: str, body: Iterable[Formula], head: Formula) -> DefeasibleRule:
    return DefeasibleRule(id, tuple(body), head)


@dataclass(frozen=True)
class ArgumentationSystem:
    """Strict rules, defeasible rules, and a partial naming of defeasible
    rules that makes them undercuttable.

    Validated on construction: rule ids are identifiers, unique across both
    lists, no two rules of the same kind share body and head, and
    ``undercut_names`` is only defined on defeasible-rule ids.
    """

    strict_rules: tuple[StrictRule, ...]
    defeasible_rules: tuple[DefeasibleRule, ...]
    undercut_names: Mapping[str, Formula] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "strict_rules", tuple(self.strict_rules))
        object.__setattr__(self, "defeasible_rules", tuple(self.defeasible_rules))
        object.__setattr__(self, "undercut_names", dict(self.undercut_names))
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

    @cached_property
    def atoms(self) -> frozenset[str]:
        """Atom vocabulary actually mentioned by the rules, collected on
        first read and kept."""
        formulas = [*self.undercut_names.values()]
        for rule in self.strict_rules + self.defeasible_rules:
            formulas.append(rule.head)
            formulas += rule.body
        return frozenset([f.atom for f in formulas])


def strict_closure(seed: Iterable[Formula], rules: Iterable[StrictRule]) -> frozenset[Formula]:
    """Least superset of ``seed`` closed under the strict rules.

    Computed by naive saturation; rule sets are small by construction, so no
    indexing is needed.  Empty-body rules always fire.
    """
    closed = set(seed)
    rules = tuple(rules)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            if rule.head not in closed and all(b in closed for b in rule.body):
                closed.add(rule.head)
                changed = True
    return frozenset(closed)


def find_complement_pair(formulas: Iterable[Formula]) -> tuple[Formula, Formula] | None:
    """Some pair (phi, ~phi) inside the set, or None.

    Deterministic: the returned pair is minimal in formula order.  The
    negation depths are grouped by atom, so that only the pair returned is
    built as formulas.
    """
    depths: dict[str, set[int]] = {}
    for phi in formulas:
        depths.setdefault(phi.atom, set()).add(phi.negations)
    pairs = [(name, n) for name, ns in depths.items() for n in ns if n + 1 in ns]
    if not pairs:
        return None
    name, n = min(pairs)
    return Formula(name, n), Formula(name, n + 1)


def is_consistent(system: ArgumentationSystem) -> bool:
    """True iff no two strict arguments have complementary conclusions.

    The conclusions of strict arguments are exactly the strict closure of
    the empty set (strict arguments bottom out in empty-body strict rules),
    so the check runs on that closure.  The equivalence with brute-force
    strict-argument enumeration is asserted by the test suite.
    """
    return find_complement_pair(strict_closure((), system.strict_rules)) is None
