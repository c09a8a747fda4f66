import functools
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from jsbaf import (
    AF,
    JSBAF,
    base,
    construct_arguments,
    extensions,
    parse_system,
)

TANDEM_PATH = Path(__file__).resolve().parents[1] / "demos" / "tandem.rules"

# Every run draws the same examples, and none is stored between runs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def tandem_system():
    return parse_system(TANDEM_PATH.read_text())


@pytest.fixture(scope="session")
def tandem_store(tandem_system):
    return construct_arguments(tandem_system)


def node_labels(extension):
    return sorted(n.label for n in extension)


def labelled_extensions(extensions_list):
    return [node_labels(e) for e in extensions_list]


@pytest.fixture
def j1():
    """a and b jointly support c; d attacks c."""
    a, b, c, d = base("a"), base("b"), base("c"), base("d")
    return JSBAF({a, b, c, d}, {(d, c)}, {(frozenset({a, b}), c)})


@pytest.fixture
def j2():
    """a supports b, nothing else."""
    a, b = base("a"), base("b")
    return JSBAF({a, b}, set(), {(frozenset({a}), b)})


@pytest.fixture
def j3():
    """a, b, c jointly support d."""
    a, b, c, d = base("a"), base("b"), base("c"), base("d")
    return JSBAF({a, b, c, d}, set(), {(frozenset({a, b, c}), d)})


@functools.cache
def bench_workloads():
    """The benchmark's ``bench/workloads.py``, loaded once."""
    path = TANDEM_PATH.parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # where its dataclasses look up their types
    spec.loader.exec_module(workloads)
    return workloads


def bench_operations():
    """Every operation of the benchmark's workloads, timed or not."""
    workloads = bench_workloads()
    for workload in workloads.WORKLOADS:
        yield from workloads.operations(workload, 0)
        yield from workloads.check_operations(workload)


def random_af(seed: int, max_nodes: int, attack_prob: float) -> AF:
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    nodes = [base(f"n{i}") for i in range(1, n + 1)]
    attacks = {(a, b) for a in nodes for b in nodes if rng.random() < attack_prob}
    return AF(frozenset(nodes), frozenset(attacks))


def tandem_rules(n: int, k: int) -> str:
    """The paper's tandem example generalised to n riders and k seats.

    Rider i wants to ride (``w_i``) and so presumably rides (``w_i => r_i``);
    whenever a k-subset of riders rides, every other rider does not.
    tandem(3, 2) is ``demos/tandem.rules`` up to renaming.
    """
    riders = range(1, n + 1)
    lines = ["atoms " + " ".join([f"w{i}" for i in riders] + [f"r{i}" for i in riders])]
    lines += [f"strict a{i}: -> w{i}" for i in riders]
    count = 0
    for seated in itertools.combinations(riders, k):
        body = ", ".join(f"r{i}" for i in seated)
        for x in riders:
            if x not in seated:
                count += 1
                lines.append(f"strict c{count}: {body} -> ~r{x}")
    lines += [f"defeasible d{i}: w{i} => r{i}" for i in riders]
    return "\n".join(lines) + "\n"


def wide_join_rules(width: int = 30) -> str:
    """A strict rule ``x, y, z, u -> w`` over four literals with ``width``
    arguments each, so the next enumeration depth has ``width ** 4``
    candidates (810k at the default width)."""
    lines = [f"strict a{i}: -> a{i}" for i in range(1, width + 1)]
    lines += [f"strict {v}{i}: a{i} -> {v}" for v in "xyzu" for i in range(1, width + 1)]
    lines.append("strict join: x, y, z, u -> w")
    return "\n".join(lines) + "\n"


def pruned_join_rules(repeats: int) -> str:
    """28 arguments for ``p``, each with ``q`` on its branch, and a strict
    rule ``p, ..., p -> q`` with ``repeats`` body formulas: each of its
    ``28 ** repeats`` candidates would repeat ``q`` on a branch, so none is
    an argument."""
    lines = ["strict s0: -> q", "defeasible d0: => q"]
    for i in range(1, 4):
        body = ", ".join(["q"] * i)
        lines += [f"strict s{i}: {body} -> p", f"defeasible d{i}: {body} => p"]
    lines.append(f"strict s4: {', '.join(['p'] * repeats)} -> q")
    return "\n".join(lines) + "\n"


def assert_sound_extensions(af: AF, semantics: str, extensions_list) -> None:
    """Polynomial self-check of extensions returned by the engine.

    Complete (and grounded, preferred, stable) extensions must be
    conflict-free, defend each member and contain every node they defend;
    stable ones must attack every outsider; preferred ones must have no
    strict superset among the complete extensions.
    """
    complete = None
    for ext in extensions_list:
        attacked = set()
        for m in ext:
            attacked |= af.targets[m]
        defended = {x for x in af.nodes if af.attackers[x] <= attacked}
        assert not ext & attacked, f"{semantics}: not conflict-free"
        assert ext == defended, f"{semantics}: defends {sorted(map(str, defended ^ ext))} wrongly"
        if semantics == "stable":
            assert af.nodes - ext <= attacked, "stable: an outsider is not attacked"
        if semantics == "preferred":
            if complete is None:
                complete = extensions(af, "complete")
            assert not any(ext < other for other in complete), "preferred: not maximal"
