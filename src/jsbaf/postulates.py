"""The evaluation pipeline, conclusion sets, rationality postulates,
generators.

``prepare`` runs the stages that depend on the system alone and builds each
framework the first time it is read; ``evaluate`` searches a prepared system
under one semantics and mode.  Reports and every command read these two
stages.  ``evaluate`` is also the one place that checks the
node-count bound on the exponential searches.

A conclusion set collects the conclusions of one extension's arguments,
and holds the verdicts of the three postulates on them: closure under the
strict rules, no complementary pair (direct consistency), and no
complementary pair in the strict closure (indirect consistency).
A verdict is its witness, a strict rule or a complementary pair, or None
when the postulate holds.  ``_verdicts`` is the one checker, on a set
given as a mask of the system's ``LiteralTable``, built once per system:
one saturation gives its closure and the closure witness, and the least
pair of the set and of its closure are a scan of the table's pair masks.
Every set on which all three postulates hold gets one shared report,
``ALL_HOLD``, which the JSON writer recognises by identity.  ``evaluate``
ORs each extension's conclusion bits into that mask and sums the verdicts
up per postulate as it goes.

The results, parameters and generated systems are plain frozen records
(``records.Record``), each set up by one update of its ``__dict__``, and
``Prepared`` builds each framework on the first read of its
``cached_attribute``.

The postulate definitions quantify over consistent systems only, so
``prepare`` refuses inconsistent input by default; callers may override, in
which case verdicts are labelled out of scope by the reporting layer.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple

from .arguments import (
    DEFAULT_MAX_ARGUMENTS,
    ArgumentStore,
    AttackWitnesses,
    attack_witnesses,
    build_aspic_minus_af,
    build_da_jsbaf,
    construct_arguments,
)
from .core import (
    ArgumentationSystem,
    DefeasibleRule,
    Formula,
    LiteralTable,
    StrictRule,
    strict_conflict,
)
from .errors import (
    GenerationFailedError, InconsistentSystemError, SearchLimitExceededError, ValidationError,
)
from .frameworks import AF, JSBAF, base, flatten_simplified
from .records import Record, cached_attribute
from .semantics import SEMANTICS, extension_ids, project_ids

MODES = ("aspic-minus", "deductive")
DEFAULT_NODE_BOUND = 24  # largest framework ``evaluate`` searches by default
GENERATION_RETRIES = 200  # systems ``random_system`` draws before it gives up


class PostulateReport(NamedTuple):
    """The verdict of each postulate, in the order of ``POSTULATES``: the
    witness of its violation, or None when it holds."""

    closure: StrictRule | None  # the strict rule that fires on the set and adds a head
    direct_consistency: tuple[Formula, Formula] | None  # a complementary pair of the set
    indirect_consistency: tuple[Formula, Formula] | None  # one of its strict closure

    @property
    def all_satisfied(self) -> bool:
        return all(witness is None for witness in self)


POSTULATES = PostulateReport._fields
# The one report of every set on which all three postulates hold.
ALL_HOLD = PostulateReport(None, None, None)


def _verdicts(table: LiteralTable, mask: int) -> PostulateReport:
    """The three verdicts on the set of literals ``mask``, from one strict
    closure of it.

    Closure is violated iff the closure grows the set; its witness is the
    first strict rule, by id, that fires on the set and whose head is
    missing from it, and one exists whenever the closure grows.  The
    consistency witnesses are the least complementary pair of the set
    (direct) and of its closure (indirect).  A closed set is its closure,
    so when neither closure nor direct consistency is violated, nothing
    is, and the report is the shared ``ALL_HOLD``.
    """
    closure, missing = table.closure(mask)
    direct = table.least_pair(mask)
    if missing is None and direct is None:
        return ALL_HOLD
    indirect = direct if missing is None else table.least_pair(closure)
    return PostulateReport(missing, direct, indirect)


class ConclusionSet(Record):
    """Conclusions of the arguments of one extension, and the verdict of
    each postulate on them."""

    formulas: frozenset[Formula]
    extension: tuple[int, ...]  # argument ordinals, ascending
    postulates: PostulateReport


class Prepared(Record):
    """What depends on the system alone, shared by each of its evaluations.
    Each framework is built the first time it is read."""

    consistent: bool
    store: ArgumentStore
    witnesses: AttackWitnesses

    @cached_attribute
    def af(self) -> AF:
        return build_aspic_minus_af(self.store, self.witnesses)

    @cached_attribute
    def jsbaf(self) -> JSBAF:
        """The JSBAF, sharing the nodes and attacks of ``af``, its strict arguments shielded."""
        return build_da_jsbaf(self.store, self.af)

    @cached_attribute
    def flat(self) -> AF:
        return flatten_simplified(self.jsbaf)

    def searched(self, mode: str) -> AF:
        """The AF that ``evaluate`` searches in ``mode``."""
        return self.af if mode == "aspic-minus" else self.flat


def prepare(
    system: ArgumentationSystem,
    max_arguments: int = DEFAULT_MAX_ARGUMENTS,
    require_consistent: bool = True,
) -> Prepared:
    """Check consistency, enumerate at most ``max_arguments`` arguments and
    find the attack witnesses of ``system``."""
    conflict = strict_conflict(system)
    if require_consistent and conflict is not None:
        raise InconsistentSystemError(conflict)
    store = construct_arguments(system, max_arguments)
    return Prepared(conflict is None, store, attack_witnesses(store))


class Evaluation(Record):
    """The result of every stage of one run, and the ``semantics``, ``mode``
    and ``max_nodes`` it ran under (``store.max_arguments`` is its argument
    cap), which its report states.  Extensions are ascending node numbers;
    ``framework.labels`` (``flat.labels`` for the raw ones in deductive
    mode) names them.  Each conclusion set holds its verdicts, and
    ``holds`` sums them up per postulate."""

    semantics: str
    mode: str
    max_nodes: int
    consistent: bool
    store: ArgumentStore
    witnesses: AttackWitnesses
    framework: AF  # the AF in aspic-minus mode, the JSBAF in deductive mode
    flat: AF | None  # the flattened JSBAF, in deductive mode
    raw_extensions: tuple[tuple[int, ...], ...]  # of ``flat``, else of ``framework``
    extensions: tuple[tuple[int, ...], ...]  # projected onto the arguments
    conclusion_sets: tuple[ConclusionSet, ...]  # each with its postulate verdicts
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
    if semantics != "grounded" and len(searched.target_ids) > max_nodes:
        raise SearchLimitExceededError(len(searched.target_ids), max_nodes)
    raw = exts = extension_ids(searched, semantics)
    if mode == "aspic-minus":
        framework, flat = searched, None
    else:
        framework, flat = prepared.jsbaf, searched
        exts = project_ids(raw, len(framework.target_ids))
    store = prepared.store
    args, order, table = store.arguments, store.node_order, store.system.literal_table
    sets = []
    holds = (True,) * len(POSTULATES)
    for ext in exts:
        ordinals = tuple(sorted([order[p] for p in ext]))
        conclusions = [args[o].conclusion for o in ordinals]
        verdicts = _verdicts(table, table.mask(conclusions))
        if verdicts is not ALL_HOLD:
            holds = tuple([h and w is None for h, w in zip(holds, verdicts)])
        sets.append(ConclusionSet(frozenset(conclusions), ordinals, verdicts))
    return Evaluation(
        semantics, mode, max_nodes, prepared.consistent, store, prepared.witnesses,
        framework, flat, tuple(raw), tuple(exts), tuple(sets), holds,
    )


class SystemParams(Record):
    """Shape of randomly generated argumentation systems.

    Heads and bodies are drawn uniformly over the literals (atoms and their
    single negations) so that complementary pairs stay reachable.
    """

    n_atoms: int
    n_strict: int
    n_defeasible: int
    max_body: int
    undercut_density: float

    def __init__(
        self,
        n_atoms: int = 4,
        n_strict: int = 3,
        n_defeasible: int = 3,
        max_body: int = 2,
        undercut_density: float = 0.2,
    ):
        self.__dict__.update(
            n_atoms=n_atoms, n_strict=n_strict, n_defeasible=n_defeasible, max_body=max_body,
            undercut_density=undercut_density,
        )
        _check_fields(self)
        check_rule_counts(self.__dict__)


# The range of each ``SystemParams`` and ``JsbafParams`` field: (lowest, highest or None).
# A field with no highest value is a count, and must be an int.
SHAPE_RANGES = {
    "n_atoms": (1, None),
    "n_strict": (0, None),
    "n_defeasible": (0, None),
    "max_body": (0, None),
    "undercut_density": (0, 1),
    "max_nodes": (1, None),
    "attack_prob": (0, 1),
    "max_supports": (0, None),
    "max_support_size": (0, None),
    "min_support_size": (0, None),
}


def check_shape(field: str, value: float, name: str) -> None:
    """Raise ValidationError, calling ``value`` ``name``, unless it lies in
    the range of the ``SystemParams`` or ``JsbafParams`` field ``field``
    and is an int, or for a fraction an int or a float."""
    low, high = SHAPE_RANGES[field]
    if high is None:
        if value.__class__ is not int:
            raise ValidationError(f"{name} must be an int, got {value!r}")
        if value < low:
            raise ValidationError(f"{name} must be at least {low}, got {value}")
    elif value.__class__ not in (int, float):
        raise ValidationError(f"{name} must be an int or a float, got {value!r}")
    elif not low <= value <= high:
        raise ValidationError(f"{name} must lie in [{low}, {high}], got {value}")


def _check_fields(params) -> None:
    for field in params._fields:
        check_shape(field, getattr(params, field), field)


def check_rule_counts(shape: dict, name: Callable[[str], str] = str) -> None:
    """Raise ValidationError, calling each field ``name(field)``, unless the
    ``SystemParams`` fields in ``shape`` ask for bodies of at most the ``L
    = 2 * n_atoms`` literals, since a longer one only repeats them and the
    draw takes time and space in ``max_body``, and for at most as many
    strict and as many defeasible rules as there are distinct rules: ``L *
    (1 + L + ... + L**max_body)``.  The sum stops once it reaches the
    larger count."""
    literals = term = 2 * shape["n_atoms"]
    if shape["max_body"] > literals:
        raise ValidationError(
            f"{name('max_body')} must be at most {literals}, twice {name('n_atoms')} "
            f"{shape['n_atoms']}, got {shape['max_body']}"
        )
    most = max(shape["n_strict"], shape["n_defeasible"])
    shapes = 0
    for _ in range(shape["max_body"] + 1):
        shapes += term
        if shapes >= most:
            return
        term *= literals
    field = "n_strict" if shape["n_strict"] > shapes else "n_defeasible"
    raise ValidationError(
        f"{name(field)} must be at most {shapes}, the distinct rules of {name('n_atoms')} "
        f"{shape['n_atoms']} and {name('max_body')} {shape['max_body']}, got {shape[field]}"
    )


class GeneratedSystem(Record):
    system: ArgumentationSystem
    seed: int
    attempts: int


def random_system(params: SystemParams, seed: int) -> GeneratedSystem:
    """Deterministic consistent system for ``seed``.

    Rejection-samples until the strict rules alone derive no complementary
    pair; raises GenerationFailedError after ``GENERATION_RETRIES`` draws.
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

    for attempt in range(1, GENERATION_RETRIES + 1):
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
        if strict_conflict(system) is None:
            return GeneratedSystem(system, seed, attempt)
    raise GenerationFailedError(seed, GENERATION_RETRIES)


class JsbafParams(Record):
    """Shape of randomly generated joint-support frameworks.

    ``min_support_size`` defaults to 0, so empty-source supports occur; the
    deductiveness property suite raises it to 1, because an attacked node
    with an empty-source support falsifies deductiveness under any
    conflict-free semantics (no flattening can force it in).  A framework
    has at least ``min_support_size`` nodes, so every support source has at
    least that many.
    """

    max_nodes: int
    attack_prob: float
    max_supports: int
    max_support_size: int
    min_support_size: int

    def __init__(
        self,
        max_nodes: int = 10,
        attack_prob: float = 0.15,
        max_supports: int = 4,
        max_support_size: int = 3,
        min_support_size: int = 0,
    ):
        self.__dict__.update(
            max_nodes=max_nodes, attack_prob=attack_prob, max_supports=max_supports,
            max_support_size=max_support_size, min_support_size=min_support_size,
        )
        _check_fields(self)
        low = self.min_support_size
        for name in ("max_support_size", "max_nodes"):
            high = getattr(self, name)
            if low > high:
                raise ValidationError(f"min_support_size must be at most {name} ({high}), got {low}")


def random_jsbaf(params: JsbafParams, seed: int) -> JSBAF:
    """Deterministic JSBAF for ``seed``; support sources may be empty,
    singleton, or larger, and may overlap with their target."""
    rng = random.Random(seed)
    n = rng.randint(max(1, params.min_support_size), params.max_nodes)
    labels = [f"n{i}" for i in range(1, n + 1)]
    nodes = [base(label) for label in labels]
    attacks = {
        (a, b) for a in nodes for b in nodes if rng.random() < params.attack_prob
    }
    supports = set()
    for _ in range(rng.randint(0, params.max_supports)):
        size = rng.randint(params.min_support_size, min(params.max_support_size, n))
        source = frozenset(rng.sample(nodes, size))
        supports.add((source, rng.choice(nodes)))
    return JSBAF(frozenset(nodes), frozenset(attacks), frozenset(supports))
