"""The evaluation pass, conclusion sets, rationality postulates, mode
comparison, generators.

``evaluate`` runs each stage of the pipeline once; reports, conclusion sets
and mode comparisons all read the ``Evaluation`` it returns.  It is also the
one place that checks the node-count bound on the exponential searches.

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
from typing import Iterable

from .arguments import (
    ArgumentStore,
    AttackWitness,
    EnumerationLimits,
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
from .errors import GenerationFailedError, InconsistentSystemError, SearchLimitExceededError
from .frameworks import AF, JSBAF, NodeId, base, project
from .semantics import SEMANTICS, canonical_extension_order, extensions, flattened_af

MODES = ("aspic-minus", "deductive")
POSTULATES = ("closure", "direct_consistency", "indirect_consistency")
DEFAULT_NODE_BOUND = 24  # largest framework ``evaluate`` searches by default


@dataclass(frozen=True)
class ConclusionSet:
    """Conclusions of the arguments of one extension."""

    formulas: frozenset[Formula]
    extension: tuple[str, ...]  # canonical argument ids, sorted
    mode: str
    semantics: str


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


def check_closure(system: ArgumentationSystem, formulas: Iterable[Formula]) -> Verdict:
    """Satisfied iff the set equals its own strict closure.

    The witness is a fireable strict rule whose head is missing from the
    set; one exists whenever the closure grows at all.
    """
    pool = frozenset(formulas)
    if strict_closure(pool, system.strict_rules) == pool:
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
    system: ArgumentationSystem, formulas: Iterable[Formula]
) -> Verdict:
    pair = find_complement_pair(strict_closure(formulas, system.strict_rules))
    return Verdict(pair is None, pair)


def evaluate_postulates(
    system: ArgumentationSystem, formulas: Iterable[Formula]
) -> PostulateReport:
    pool = frozenset(formulas)
    return PostulateReport(
        closure=check_closure(system, pool),
        direct_consistency=check_direct_consistency(pool),
        indirect_consistency=check_indirect_consistency(system, pool),
    )


@dataclass(frozen=True)
class Evaluation:
    """The result of every stage of one run, each computed once."""

    consistent: bool
    store: ArgumentStore
    witnesses: tuple[AttackWitness, ...]
    framework: AF | JSBAF  # the AF in aspic-minus mode, the JSBAF in deductive mode
    shielded: frozenset[NodeId]  # strict arguments, in deductive mode
    flat: AF | None  # the flattened JSBAF, in deductive mode
    raw_extensions: tuple[frozenset[NodeId], ...]  # of ``flat``, else of ``framework``
    extensions: tuple[frozenset[NodeId], ...]  # projected onto the arguments
    conclusion_sets: tuple[ConclusionSet, ...]
    postulates: tuple[PostulateReport, ...]  # one per conclusion set


def evaluate(
    system: ArgumentationSystem,
    semantics: str | None,
    mode: str,
    limits: EnumerationLimits = EnumerationLimits(),
    flatten_mode: str = "literal",
    max_nodes: int = DEFAULT_NODE_BOUND,
    require_consistent: bool = True,
) -> Evaluation:
    """Run each stage once under the requested mode.

    ``aspic-minus`` runs the semantics on the plain attack framework;
    ``deductive`` runs it on the flattened joint-support framework and
    projects the extensions back onto the arguments.  With ``semantics``
    None the run stops after building the framework: nothing is flattened
    or searched, and every later field is empty.

    Complete, stable and preferred search is exponential, so it is refused
    with SearchLimitExceededError on a framework of more than ``max_nodes``
    nodes; grounded is a polynomial fixpoint and is never refused.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if semantics not in (None, *SEMANTICS):
        raise ValueError(f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")
    consistent = is_consistent(system)
    if require_consistent and not consistent:
        raise InconsistentSystemError(
            find_complement_pair(strict_closure((), system.strict_rules))
        )
    store = construct_arguments(system, limits)
    witnesses = tuple(attack_witnesses(store))
    shielded: frozenset[NodeId] = frozenset()
    if mode == "aspic-minus":
        framework = build_aspic_minus_af(system, limits, store, witnesses)
    else:
        framework = build_da_jsbaf(system, limits, store, witnesses)
        shielded = strict_argument_nodes(store)
    flat, raw, exts = None, [], []
    if semantics is not None:
        if mode == "deductive":
            flat = flattened_af(framework, flatten_mode, shielded)
        searched = framework if flat is None else flat
        if semantics != "grounded" and len(searched.nodes) > max_nodes:
            raise SearchLimitExceededError(len(searched.nodes), max_nodes)
        raw = exts = extensions(searched, semantics)
        if flat is not None:
            exts = canonical_extension_order(project(ext, framework.nodes) for ext in raw)
    sets = []
    for ext in exts:
        ids = tuple(sorted((n.label for n in ext), key=lambda i: int(i[1:])))
        formulas = frozenset(store.by_id(i).conclusion for i in ids)
        sets.append(ConclusionSet(formulas, ids, mode, semantics))
    verdicts = tuple(evaluate_postulates(system, cs.formulas) for cs in sets)
    return Evaluation(
        consistent, store, witnesses, framework, shielded, flat, tuple(raw), tuple(exts),
        tuple(sets), verdicts,
    )


@dataclass(frozen=True)
class ModeComparison:
    """Both modes evaluated side by side for one semantics."""

    semantics: str
    evaluated: dict[str, tuple[tuple[ConclusionSet, PostulateReport], ...]]
    summary: dict[str, dict[str, bool]]  # postulate -> mode -> holds for all sets
    differing: tuple[str, ...]


def compare_modes(
    system: ArgumentationSystem,
    semantics: str,
    limits: EnumerationLimits = EnumerationLimits(),
    flatten_mode: str = "literal",
    max_nodes: int = DEFAULT_NODE_BOUND,
    require_consistent: bool = True,
) -> ModeComparison:
    evaluated = {}
    for mode in MODES:
        ev = evaluate(
            system, semantics, mode, limits, flatten_mode, max_nodes, require_consistent
        )
        evaluated[mode] = tuple(zip(ev.conclusion_sets, ev.postulates))
    summary = {
        postulate: {
            mode: all(getattr(report, postulate).satisfied for _, report in evaluated[mode])
            for mode in MODES
        }
        for postulate in POSTULATES
    }
    differing = tuple(
        p for p in POSTULATES if summary[p]["aspic-minus"] != summary[p]["deductive"]
    )
    return ModeComparison(semantics, evaluated, summary, differing)


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
