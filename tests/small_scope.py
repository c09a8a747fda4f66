"""Every argumentation system within a small scope (ROADMAP item 14).

A scope (S, D, B) holds every system over the atoms p and q, at negation
depth at most 1, with 0 to S strict rules and 1 to D defeasible rules, each
body at most B distinct literals and never the rule's own head, and no
undercut names.  Swapping the atoms and flipping either atom's polarity
are 8 symmetries; at depth at most 1 they map complements to complements,
so every verdict is the same on all systems of an orbit, and the scope
keeps one system per orbit, its least.  Inconsistent systems are skipped.

A rule is numbered by its place among the sorted (body, head) shapes, so a
system is two ascending tuples of shape numbers, compared as the sorted
rules they stand for.  Its rules are named ``s0``, ``s1``, ... and ``d0``,
``d1``, ... in that order.

Run as a script, ``PYTHONPATH=src python tests/small_scope.py S D B``
prints how many systems of the scope violate some postulate, per mode and
semantics.
"""

import functools
import itertools
import sys

from jsbaf import (
    MODES,
    SEMANTICS,
    ArgumentationSystem,
    DefeasibleRule,
    Formula,
    StrictRule,
    evaluate,
    prepare,
)
from jsbaf.core import strict_conflict

LITERALS = (Formula("p"), Formula("p", 1), Formula("q"), Formula("q", 1))  # in formula order

# Each symmetry as the image of each literal's number 2 * atom + negations:
# swap the atoms or not, and flip each atom's polarity or not.
SYMMETRIES = tuple(
    tuple(2 * ((i >> 1) ^ swap) + ((i & 1) ^ flips[i >> 1]) for i in range(4))
    for swap in (0, 1) for flips in itertools.product((0, 1), repeat=2)
)


@functools.cache
def shapes(max_body: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The (body, head) shapes of a rule, as literal numbers, sorted."""
    return tuple(sorted(
        (body, head)
        for size in range(max_body + 1)
        for body in itertools.combinations(range(4), size)
        for head in range(4) if head not in body
    ))


@functools.cache
def _shape_maps(max_body: int) -> tuple[tuple[int, ...], ...]:
    """Each symmetry as the image of each shape's number."""
    table = shapes(max_body)
    number = {shape: i for i, shape in enumerate(table)}
    return tuple(
        tuple(number[tuple(sorted(m[b] for b in body)), m[head]] for body, head in table)
        for m in SYMMETRIES
    )


def orbit(key, max_body: int) -> list:
    """The distinct images of the system ``key`` (strict, defeasible shape
    numbers) under the symmetries, least first."""
    strict, defeasible = key
    return sorted({
        (tuple(sorted(m[i] for i in strict)), tuple(sorted(m[i] for i in defeasible)))
        for m in _shape_maps(max_body)
    })


def build(key, max_body: int) -> ArgumentationSystem:
    """The system of ``key``."""
    table = shapes(max_body)

    def rules(numbers, cls, prefix):
        return tuple(
            cls(f"{prefix}{i}", tuple(LITERALS[b] for b in table[n][0]), LITERALS[table[n][1]])
            for i, n in enumerate(numbers)
        )

    strict, defeasible = key
    return ArgumentationSystem(rules(strict, StrictRule, "s"), rules(defeasible, DefeasibleRule, "d"))


def keys(max_strict: int, max_defeasible: int, max_body: int) -> list:
    """The least system of each orbit of consistent systems in the scope."""
    n = len(shapes(max_body))
    found = []
    for s in range(max_strict + 1):
        for strict in itertools.combinations(range(n), s):
            for d in range(1, max_defeasible + 1):
                for defeasible in itertools.combinations(range(n), d):
                    key = (strict, defeasible)
                    if orbit(key, max_body)[0] != key:
                        continue
                    if strict_conflict(build(key, max_body)) is None:
                        found.append(key)
    return found


def evaluations(system: ArgumentationSystem) -> dict:
    """Every evaluation of ``system``, by (mode, semantics), with no node
    bound."""
    prepared = prepare(system)
    return {
        (mode, semantics): evaluate(prepared, semantics, mode, max_nodes=10**6)
        for mode in MODES for semantics in SEMANTICS
    }


def violations(runs) -> dict:
    """The systems on which some postulate fails, by (mode, semantics), of
    (system, its ``evaluations``) pairs."""
    failing = {(mode, semantics): [] for mode in MODES for semantics in SEMANTICS}
    for system, evs in runs:
        for run, ev in evs.items():
            if not all(ev.holds):
                failing[run].append(system)
    return failing


def main(argv: list[str]) -> None:
    scope = tuple(map(int, argv))
    systems = [build(key, scope[2]) for key in keys(*scope)]
    failing = violations((system, evaluations(system)) for system in systems)
    print(f"scope (S, D, B) = {scope}: {len(systems)} consistent systems")
    print(f"{'mode':<12}" + "".join(f"{semantics:>10}" for semantics in SEMANTICS))
    for mode in MODES:
        print(f"{mode:<12}" + "".join(f"{len(failing[mode, s]):>10}" for s in SEMANTICS))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: python tests/small_scope.py S D B")
    main(sys.argv[1:])
