"""The evaluation pipeline, conclusion sets, rationality postulates, mode
comparison, generators.

``prepare`` runs the stages that depend on the system alone and builds each
framework the first time it is read; ``evaluate`` searches a prepared system
under one semantics and mode.  Reports, mode comparisons and every command
read these two stages.  ``evaluate`` is also the one place that checks the
node-count bound on the exponential searches.

A conclusion set collects the conclusions of one extension's arguments.  The
three postulates are properties of such sets: closure under the strict
rules, no complementary pair (direct consistency), and no complementary
pair in the strict closure (indirect consistency).

The postulate definitions quantify over consistent systems only, so the
checkers refuse inconsistent input by default; callers may override, in
which case verdicts are labelled out of scope by the reporting layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .arguments import (
    DEFAULT_MAX_ARGUMENTS,
    ArgumentStore,
    AttackWitnesses,
    attack_witnesses,
    build_aspic_minus_af,
    build_da_jsbaf,
    construct_arguments,
    strict_argument_nodes,
)
from .core import (
    ArgumentationSystem,
    DefeasibleRule,
    Formula,
    StrictRule,
    find_complement_pair,
    is_consistent,
    strict_closure,
)
from .errors import (
    GenerationFailedError, InconsistentSystemError, SearchLimitExceededError, ValidationError,
)
from .frameworks import AF, JSBAF, base
from .semantics import SEMANTICS, extension_ids, flattened_af, project_ids

MODES = ("aspic-minus", "deductive")
POSTULATES = ("closure", "direct_consistency", "indirect_consistency")
DEFAULT_NODE_BOUND = 24  # largest framework ``evaluate`` searches by default


@dataclass(frozen=True)
class ConclusionSet:
    """Conclusions of the arguments of one extension."""

    formulas: frozenset[Formula]
    extension: tuple[str, ...]  # canonical argument ids, sorted


@dataclass(frozen=True)
class Verdict:
    satisfied: bool
    witness: object = None


@dataclass(frozen=True)
class PostulateReport:
    closure: Verdict
    direct_consistency: Verdict
    indirect_consistency: Verdict

    @property
    def all_satisfied(self) -> bool:
        return (
            self.closure.satisfied
            and self.direct_consistency.satisfied
            and self.indirect_consistency.satisfied
        )


def check_closure(
    system: ArgumentationSystem,
    formulas: Iterable[Formula],
    closure: frozenset[Formula] | None = None,
) -> Verdict:
    """Satisfied iff the set equals its own strict closure (``closure``,
    when the caller has it already).

    The witness is a fireable strict rule whose head is missing from the
    set; one exists whenever the closure grows at all.
    """
    pool = frozenset(formulas)
    if closure is None:
        closure = strict_closure(pool, system.strict_rules)
    if closure == pool:
        return Verdict(True)
    witness = next(
        rule
        for rule in sorted(system.strict_rules, key=lambda r: r.id)
        if all(b in pool for b in rule.body) and rule.head not in pool
    )
    return Verdict(False, witness)


def check_direct_consistency(formulas: Iterable[Formula]) -> Verdict:
    pair = find_complement_pair(formulas)
    return Verdict(pair is None, pair)


def check_indirect_consistency(
    system: ArgumentationSystem,
    formulas: Iterable[Formula],
    closure: frozenset[Formula] | None = None,
) -> Verdict:
    """Satisfied iff the strict closure of the set (``closure``, when the
    caller has it already) holds no complementary pair."""
    if closure is None:
        closure = strict_closure(formulas, system.strict_rules)
    pair = find_complement_pair(closure)
    return Verdict(pair is None, pair)


def evaluate_postulates(
    system: ArgumentationSystem, formulas: Iterable[Formula]
) -> PostulateReport:
    """The three verdicts, from one strict closure of the set."""
    pool = frozenset(formulas)
    closure = strict_closure(pool, system.strict_rules)
    return PostulateReport(
        closure=check_closure(system, pool, closure),
        direct_consistency=check_direct_consistency(pool),
        indirect_consistency=check_indirect_consistency(system, pool, closure),
    )


@dataclass(frozen=True)
class Prepared:
    """What depends on the system alone, shared by each of its evaluations.
    Each framework is built the first time it is read."""

    consistent: bool
    store: ArgumentStore
    witnesses: AttackWitnesses
    flatten_mode: str

    @cached_property
    def af(self) -> AF:
        return build_aspic_minus_af(self.store, self.witnesses)

    @cached_property
    def jsbaf(self) -> JSBAF:
        """The JSBAF, sharing the node table and attack relation of ``af``."""
        return build_da_jsbaf(self.store, self.af)

    @cached_property
    def shielded(self) -> frozenset[int]:
        """The node numbers of the strict arguments, which the flattening
        shields."""
        return strict_argument_nodes(self.store)

    @cached_property
    def flat(self) -> AF:
        return flattened_af(self.jsbaf, self.flatten_mode, self.shielded)

    def searched(self, mode: str) -> AF:
        """The AF that ``evaluate`` searches in ``mode``."""
        return self.af if mode == "aspic-minus" else self.flat


def prepare(
    system: ArgumentationSystem,
    max_arguments: int = DEFAULT_MAX_ARGUMENTS,
    flatten_mode: str = "literal",
    require_consistent: bool = True,
) -> Prepared:
    """Check consistency, enumerate at most ``max_arguments`` arguments and
    find the attack witnesses of ``system``."""
    consistent = is_consistent(system)
    if require_consistent and not consistent:
        pair = find_complement_pair(strict_closure((), system.strict_rules))
        raise InconsistentSystemError(pair)
    store = construct_arguments(system, max_arguments)
    return Prepared(consistent, store, attack_witnesses(store), flatten_mode)


@dataclass(frozen=True)
class Evaluation:
    """The result of every stage of one run.  Extensions are ascending node
    numbers; ``framework.node_table`` (``flat.node_table`` for the raw ones
    in deductive mode) names them."""

    consistent: bool
    store: ArgumentStore
    witnesses: AttackWitnesses
    framework: AF | JSBAF  # the AF in aspic-minus mode, the JSBAF in deductive mode
    flat: AF | None  # the flattened JSBAF, in deductive mode
    raw_extensions: tuple[tuple[int, ...], ...]  # of ``flat``, else of ``framework``
    extensions: tuple[tuple[int, ...], ...]  # projected onto the arguments
    conclusion_sets: tuple[ConclusionSet, ...]
    postulates: tuple[PostulateReport, ...]  # one per conclusion set
    holds: tuple[bool, ...]  # per entry of POSTULATES: satisfied on every conclusion set


def evaluate(
    prepared: Prepared, semantics: str, mode: str, max_nodes: int = DEFAULT_NODE_BOUND
) -> Evaluation:
    """Search ``prepared`` under the requested semantics and mode, then
    collect the conclusion sets and their postulate verdicts.

    ``aspic-minus`` runs the semantics on the plain attack framework;
    ``deductive`` runs it on the flattened joint-support framework and
    projects the extensions back onto the arguments.

    Complete, stable and preferred search is exponential, so it is refused
    with SearchLimitExceededError on a framework of more than ``max_nodes``
    nodes; grounded is a polynomial fixpoint and is never refused.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")
    searched = prepared.searched(mode)
    if semantics != "grounded" and len(searched.node_table) > max_nodes:
        raise SearchLimitExceededError(len(searched.node_table), max_nodes)
    raw = exts = extension_ids(searched, semantics)
    if mode == "aspic-minus":
        framework, flat = searched, None
    else:
        framework, flat = prepared.jsbaf, searched
        exts = project_ids(raw, len(framework.node_table))
    args, order = prepared.store.arguments, prepared.store.node_order
    sets = []
    for ext in exts:
        members = [args[o] for o in sorted(order[p] for p in ext)]
        ids = tuple(arg.canonical_id for arg in members)
        formulas = frozenset(arg.conclusion for arg in members)
        sets.append(ConclusionSet(formulas, ids))
    verdicts = tuple(evaluate_postulates(prepared.store.system, cs.formulas) for cs in sets)
    holds = tuple(all(getattr(v, name).satisfied for v in verdicts) for name in POSTULATES)
    return Evaluation(
        prepared.consistent, prepared.store, prepared.witnesses, framework, flat,
        tuple(raw), tuple(exts), tuple(sets), verdicts, holds,
    )


@dataclass(frozen=True)
class ModeComparison:
    """Both modes evaluated side by side for one semantics."""

    semantics: str
    summary: dict[str, dict[str, bool]]  # postulate -> mode -> holds for all sets
    differing: tuple[str, ...]


def compare_modes(
    prepared: Prepared, semantics: str, max_nodes: int = DEFAULT_NODE_BOUND
) -> ModeComparison:
    holds = {mode: evaluate(prepared, semantics, mode, max_nodes).holds for mode in MODES}
    summary = {
        postulate: {mode: holds[mode][i] for mode in MODES}
        for i, postulate in enumerate(POSTULATES)
    }
    differing = tuple(
        p for p in POSTULATES if summary[p]["aspic-minus"] != summary[p]["deductive"]
    )
    return ModeComparison(semantics, summary, differing)


@dataclass(frozen=True)
class SystemParams:
    """Shape of randomly generated argumentation systems.

    Heads and bodies are drawn uniformly over the literals (atoms and their
    single negations) so that complementary pairs stay reachable.
    """

    n_atoms: int = 4
    n_strict: int = 3
    n_defeasible: int = 3
    max_body: int = 2
    undercut_density: float = 0.2
    retries: int = 200

    def __post_init__(self):
        for field in SHAPE_RANGES:
            check_shape(field, getattr(self, field), field)


# The range of each ``SystemParams`` field: (lowest, highest or None).
SHAPE_RANGES = {
    "n_atoms": (1, None),
    "n_strict": (0, None),
    "n_defeasible": (0, None),
    "max_body": (0, None),
    "retries": (1, None),
    "undercut_density": (0, 1),
}


def check_shape(field: str, value: float, name: str) -> None:
    """Raise ValidationError, calling ``value`` ``name``, unless it lies in
    the range of the ``SystemParams`` field ``field``."""
    low, high = SHAPE_RANGES[field]
    if high is None and value < low:
        raise ValidationError(f"{name} must be at least {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ValidationError(f"{name} must lie in [{low}, {high}], got {value}")


@dataclass(frozen=True)
class GeneratedSystem:
    system: ArgumentationSystem
    seed: int
    attempts: int


def random_system(params: SystemParams, seed: int) -> GeneratedSystem:
    """Deterministic consistent system for ``seed``.

    Rejection-samples until the strict rules alone derive no complementary
    pair; raises GenerationFailedError when the retry budget runs out.
    """
    rng = random.Random(seed)
    literals = [Formula(f"p{i}") for i in range(1, params.n_atoms + 1)]
    literals += [lit.negation() for lit in literals[: params.n_atoms]]

    def draw_rules(count: int, prefix: str, factory):
        rules = []
        shapes = set()
        for i in range(count):
            for _ in range(50):
                body = tuple(
                    rng.choice(literals) for _ in range(rng.randint(0, params.max_body))
                )
                head = rng.choice(literals)
                if (body, head) not in shapes:
                    shapes.add((body, head))
                    rules.append(factory(f"{prefix}{i + 1}", body, head))
                    break
            else:
                return None
        return tuple(rules)

    for attempt in range(1, params.retries + 1):
        strict = draw_rules(params.n_strict, "s", StrictRule)
        defeasible = draw_rules(params.n_defeasible, "d", DefeasibleRule)
        if strict is None or defeasible is None:
            continue
        names = {
            rule.id: rng.choice(literals)
            for rule in defeasible
            if rng.random() < params.undercut_density
        }
        system = ArgumentationSystem(strict, defeasible, names)
        if is_consistent(system):
            return GeneratedSystem(system, seed, attempt)
    raise GenerationFailedError(seed, params.retries)


@dataclass(frozen=True)
class JsbafParams:
    """Shape of randomly generated joint-support frameworks.

    ``min_support_size`` defaults to 0, so empty-source supports occur; the
    deductiveness property suite raises it to 1, because an attacked node
    with an empty-source support falsifies deductiveness under any
    conflict-free semantics (no flattening can force it in).
    """

    max_nodes: int = 10
    attack_prob: float = 0.15
    max_supports: int = 4
    max_support_size: int = 3
    min_support_size: int = 0


def random_jsbaf(params: JsbafParams, seed: int) -> JSBAF:
    """Deterministic JSBAF for ``seed``; support sources may be empty,
    singleton, or larger, and may overlap with their target."""
    rng = random.Random(seed)
    n = rng.randint(1, params.max_nodes)
    labels = [f"n{i}" for i in range(1, n + 1)]
    nodes = [base(label) for label in labels]
    attacks = {
        (a, b) for a in nodes for b in nodes if rng.random() < params.attack_prob
    }
    supports = set()
    for _ in range(rng.randint(0, params.max_supports)):
        size = rng.randint(min(params.min_support_size, n), min(params.max_support_size, n))
        source = frozenset(rng.sample(nodes, size))
        supports.add((source, rng.choice(nodes)))
    return JSBAF(frozenset(nodes), frozenset(attacks), frozenset(supports))
