"""Propagation calls and extensions of the label search on tandem(n, k).

For each mode and each searched semantics, the framework that ``evaluate``
searches (the attack framework in aspic-minus mode, the simplified
flattening in deductive mode) is searched once, and the table gives the
calls of ``_DomainSearch._propagate`` and the number of extensions that
search returns.  Both counts are fixed by the search tree alone, so a
change to the split rule or to propagation shows in them, and no time is
printed.

Run as a script, ``PYTHONPATH=src python tests/search_counts.py N K``
prints the table for tandem(N, K).
"""

import sys

from conftest import tandem_rules
from jsbaf import MODES, Prepared, parse_system, prepare
from jsbaf import semantics as semantics_module

SEARCHED = ("complete", "stable", "preferred")


def counts(prepared: Prepared) -> dict[tuple[str, str], tuple[int, int]]:
    """(propagation calls, extensions) by (mode, semantics) of a prepared
    system."""
    search = semantics_module._DomainSearch
    propagate = search._propagate
    calls = 0

    def counted(self, *state):
        nonlocal calls
        calls += 1
        return propagate(self, *state)

    table = {}
    search._propagate = counted
    try:
        for mode in MODES:
            af = prepared.searched(mode)
            for semantics in SEARCHED:
                calls = 0
                found = semantics_module.extension_ids(af, semantics)
                table[mode, semantics] = calls, len(found)
    finally:
        search._propagate = propagate
    return table


def main(argv: list[str]) -> None:
    n, k = map(int, argv)
    prepared = prepare(parse_system(tandem_rules(n, k)))
    print(f"tandem({n},{k}): {len(prepared.store.arguments)} arguments")
    print(f"{'mode':<12}{'semantics':<11}{'nodes':>7}{'calls':>9}{'extensions':>12}")
    for (mode, semantics), (calls, found) in counts(prepared).items():
        nodes = len(prepared.searched(mode).target_ids)
        print(f"{mode:<12}{semantics:<11}{nodes:>7}{calls:>9}{found:>12}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/search_counts.py N K")
    main(sys.argv[1:])
