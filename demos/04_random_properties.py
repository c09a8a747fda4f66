#!/usr/bin/env python3
"""Seeded random sweeps of the engine's guarantees.

Reproducible mini versions of the property suites: extension computation
against the brute-force oracle, deductiveness and conflict-freeness of
projected extensions, and the three postulates in deductive mode.
"""

import random

from jsbaf import (
    AF,
    SEMANTICS,
    base,
    brute_force_extensions,
    evaluate,
    extensions,
    is_conflict_free_jsbaf,
    is_deductive_extension,
    jsbaf_extensions,
    prepare,
    print_system,
    random_jsbaf,
    random_system,
)
from jsbaf.postulates import JsbafParams, SystemParams


def random_af(seed, max_nodes=8, prob=0.25):
    rng = random.Random(seed)
    n = rng.randint(1, max_nodes)
    nodes = [base(f"n{i}") for i in range(1, n + 1)]
    return AF(
        frozenset(nodes),
        frozenset((x, y) for x in nodes for y in nodes if rng.random() < prob),
    )


def main():
    print("1. engine vs brute-force oracle on 200 random frameworks")
    for seed in range(200):
        af = random_af(seed)
        for semantics in SEMANTICS:
            assert extensions(af, semantics) == brute_force_extensions(af, semantics)
    print("   zero discrepancies")

    print("2. deductiveness and conflict-freeness on 100 random support frameworks")
    params = JsbafParams(max_nodes=8, max_supports=3, min_support_size=1)
    for seed in range(100):
        j = random_jsbaf(params, seed)
        for semantics in SEMANTICS:
            for ext in jsbaf_extensions(j, semantics):
                assert is_deductive_extension(j, ext)[0]
                assert is_conflict_free_jsbaf(j, ext)[0]
    print("   zero violations")

    print("3. rationality postulates on 100 random consistent systems")
    sys_params = SystemParams(n_atoms=5, n_strict=4, n_defeasible=3)
    for seed in range(100):
        generated = random_system(sys_params, seed)
        prepared = prepare(generated.system)
        for semantics in SEMANTICS:
            ev = evaluate(prepared, semantics, "deductive", max_nodes=200)
            for cs in ev.conclusion_sets:
                assert cs.postulates.all_satisfied
    print("   zero violations")

    shown = random_system(sys_params, 7).system
    print("\nSample generated system (seed 7):\n")
    print(print_system(shown))


if __name__ == "__main__":
    main()
