#!/usr/bin/env python3
"""Postulate scoreboard: plain attacks versus deductive joint support.

Runs the tandem system under all four semantics in both modes and prints
which rationality postulates hold.  Closure and indirect consistency fail
for the attacks-only reading everywhere except grounded semantics; tracking
deductive joint support repairs both.
"""

from pathlib import Path

from jsbaf import SEMANTICS, compare_modes, parse_system, prepare
from jsbaf.postulates import MODES, POSTULATES

RULES = Path(__file__).with_name("tandem.rules")


def main():
    prepared = prepare(parse_system(RULES.read_text()))
    width = max(len(p) for p in POSTULATES)
    for semantics in SEMANTICS:
        comparison = compare_modes(prepared, semantics)
        print(f"\n{semantics} semantics")
        for postulate in POSTULATES:
            cells = []
            for mode in MODES:
                held = comparison.summary[postulate][mode]
                cells.append(f"{mode}: {'ok' if held else 'VIOLATED'}")
            print(f"   {postulate:<{width}}   " + "   ".join(cells))
        if comparison.differing:
            print(f"   -> joint support changes: {', '.join(comparison.differing)}")


if __name__ == "__main__":
    main()
