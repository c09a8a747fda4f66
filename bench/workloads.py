"""Input generators and the operation lists of the three workloads.

The benchmark owns its generators, so a change to ``jsbaf.postulates`` or
``jsbaf.dsl`` cannot silently change a workload: ``jsbaf eval`` only ever
receives the rule files written here.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from pathlib import Path

SEMANTICS = ("grounded", "complete", "stable", "preferred")
MODES = ("deductive", "aspic-minus")

# Passed explicitly on every operation, high enough that jsbaf's
# DEFAULT_NODE_BOUND=24 refuses nothing: the deadline alone decides failures.
MAX_NODES = 1_000_000
MAX_ARGUMENTS = 1_000_000

# Per-operation wall-clock deadlines.  Every operation has one so nothing can
# hang; the two ROADMAP regression instances get a short one, which turns
# their exponential search into a counted failure.
DEADLINE_S = 20.0
REGRESSION_DEADLINE_S = 3.0

# random-sweep evaluates the systems of generator seeds 0 .. RANDOM_SYSTEMS-1.
# The range is fixed rather than picked by the benchmark seed: windows of a
# larger pool differ in total work by more than the bounds allow.
RANDOM_SYSTEMS = 200

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = Path(".bench_work")  # relative to the checkout root, the cwd


@dataclass(frozen=True)
class Instance:
    workload: str
    name: str
    text: str
    tandem: tuple[int, int] | None = None  # (n, k) of a tandem instance

    @property
    def path(self) -> str:
        """Relative path of the rule file.  It appears in the report, so it
        is part of every reference digest."""
        return str(WORK_DIR / self.workload / f"{self.name}.rules")


@dataclass(frozen=True)
class Operation:
    """One ``jsbaf eval`` invocation."""

    instance: Instance
    mode: str
    semantics: str
    deadline_s: float = DEADLINE_S

    @property
    def key(self) -> str:
        return f"{self.instance.workload}/{self.instance.name}/{self.mode}/{self.semantics}"

    def argv(self) -> list[str]:
        return [
            "eval", "--file", self.instance.path,
            "--semantics", self.semantics, "--mode", self.mode,
            "--max-nodes", str(MAX_NODES), "--max-arguments", str(MAX_ARGUMENTS),
        ]


def tandem_rules(n: int, k: int) -> str:
    """The paper's tandem example generalised to n riders and k seats.

    Rider i wants to ride (axiom ``w_i``) and so presumably rides
    (``w_i => r_i``); whenever a k-subset S of riders rides, every rider x
    outside S does not (``S -> ~r_x``).  tandem(3, 2) is
    ``demos/tandem.rules`` up to renaming.
    """
    riders = range(1, n + 1)
    lines = [
        f"# tandem({n}, {k}): {n} riders, one {k}-seat tandem",
        "atoms " + " ".join([f"w{i}" for i in riders] + [f"r{i}" for i in riders]),
    ]
    lines += [f"strict a{i}: -> w{i}" for i in riders]
    count = 0
    for seated in itertools.combinations(riders, k):
        for x in riders:
            if x not in seated:
                count += 1
                body = ", ".join(f"r{i}" for i in seated)
                lines.append(f"strict c{count}: {body} -> ~r{x}")
    lines += [f"defeasible d{i}: w{i} => r{i}" for i in riders]
    return "\n".join(lines) + "\n"


def random_rules(seed: int, atoms: int = 6, strict: int = 6, defeasible: int = 6) -> str:
    """A small random rule system whose strict rules are consistent.

    Bodies hold 0-2 distinct literals, the head is not in the body, no two
    rules of one kind share a shape, and each defeasible rule gets an
    undercut name with probability 0.2.  Draws are rejected until the strict
    closure of the empty set holds no complementary pair, because
    ``jsbaf eval`` refuses inconsistent systems.
    """
    rng = random.Random(seed)
    literals = [(f"p{i}", neg) for neg in (0, 1) for i in range(1, atoms + 1)]

    def draw(count: int) -> list[tuple[tuple, tuple]]:
        rules: list[tuple[tuple, tuple]] = []
        while len(rules) < count:
            body = tuple(rng.sample(literals, rng.randint(0, 2)))
            head = rng.choice(literals)
            if head not in body and (body, head) not in rules:
                rules.append((body, head))
        return rules

    while True:
        strict_rules, defeasible_rules = draw(strict), draw(defeasible)
        names = {i: rng.choice(literals) for i in range(defeasible) if rng.random() < 0.2}
        closed: set[tuple] = set()
        grew = True
        while grew:
            grew = False
            for body, head in strict_rules:
                if head not in closed and all(b in closed for b in body):
                    closed.add(head)
                    grew = True
        if not any((atom, 1 - neg) in closed for atom, neg in closed):
            break

    def lit(literal: tuple) -> str:
        return "~" * literal[1] + literal[0]

    def rule(kind: str, rule_id: str, arrow: str, body: tuple, head: tuple) -> str:
        lhs = ", ".join(map(lit, body))
        return f"{kind} {rule_id}: {lhs}{' ' if lhs else ''}{arrow} {lit(head)}"

    lines = [f"# random system, generator seed {seed}", "atoms " + " ".join(f"p{i}" for i in range(1, atoms + 1))]
    lines += [rule("strict", f"s{i + 1}", "->", *r) for i, r in enumerate(strict_rules)]
    lines += [rule("defeasible", f"d{i + 1}", "=>", *r) for i, r in enumerate(defeasible_rules)]
    lines += [f"name d{i + 1} = {lit(names[i])}" for i in sorted(names)]
    return "\n".join(lines) + "\n"


def _tandem(workload: str, n: int, k: int) -> Instance:
    return Instance(workload, f"tandem-{n}-{k}", tandem_rules(n, k), (n, k))


def tandem_search_operations() -> list[Operation]:
    w = "tandem-search"
    ops = [
        Operation(_tandem(w, n, k), mode, semantics)
        for n, k in [(n, n - 1) for n in range(3, 9)] + [(4, 2)]
        for mode in MODES
        for semantics in ("complete", "stable", "preferred")
    ]
    ops += [
        Operation(instance, "deductive", "preferred", REGRESSION_DEADLINE_S)
        for instance in _regression_instances()
    ]
    return ops


def _regression_instances() -> list[Instance]:
    """The ROADMAP's two search regression instances: tandem(5, 3), and
    ``jsbaf random --seed 38 --atoms 12 --strict 14 --defeasible 14`` as
    generated once at the seed commit."""
    seed38 = (BENCH_DIR / "seed38.rules").read_text(encoding="utf-8")
    return [_tandem("tandem-search", 5, 3), Instance("tandem-search", "seed38", seed38)]


def check_operations(workload: str) -> list[Operation]:
    """Untimed operations that only feed the correctness checks.

    The regression instances fail their timed operation at the seed, so a
    grounded run of each still checks their sizes against the ROADMAP.
    """
    if workload != "tandem-search":
        return []
    return [Operation(instance, "deductive", "grounded") for instance in _regression_instances()]


def tandem_build_operations() -> list[Operation]:
    w = "tandem-build"
    return [Operation(_tandem(w, n, 3), mode, "grounded") for n in (7, 8) for mode in MODES]


def random_sweep_operations() -> list[Operation]:
    w = "random-sweep"
    return [
        Operation(Instance(w, f"random-{i}", random_rules(i)), mode, semantics)
        for i in range(RANDOM_SYSTEMS)
        for mode in MODES
        for semantics in SEMANTICS
    ]


_OPERATIONS = {
    "tandem-search": tandem_search_operations,
    "tandem-build": tandem_build_operations,
    "random-sweep": random_sweep_operations,
}
WORKLOADS = tuple(_OPERATIONS)


def operations(workload: str, seed: int) -> list[Operation]:
    """The workload's operations for ``seed``, in the order they run.

    The seed shuffles the order; the same seed always gives the same list.
    """
    ops = _OPERATIONS[workload]()
    random.Random(seed).shuffle(ops)
    return ops


def write_inputs(ops: list[Operation]) -> str:
    """Write every distinct rule file; return a SHA-256 over the input set
    (file paths and contents, sorted), printed with the results."""
    instances = {op.instance.path: op.instance.text for op in ops}
    digest = hashlib.sha256()
    for path in sorted(instances):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(instances[path], encoding="utf-8")
        digest.update(path.encode() + b"\0" + instances[path].encode() + b"\0")
    return digest.hexdigest()
