#!/usr/bin/env python3
"""Postulate scoreboard: plain attacks versus deductive joint support.

Runs the tandem system under all four semantics in both modes and prints
which rationality postulates hold.  Closure and indirect consistency fail
for the attacks-only reading everywhere except grounded semantics; tracking
deductive joint support repairs both.
"""

from pathlib import Path

from jsbaf import SEMANTICS, evaluate, parse_system, prepare
from jsbaf.postulates import MODES, POSTULATES

RULES = Path(__file__).with_name("tandem.rules")


def main():
    prepared = prepare(parse_system(RULES.read_text()))
    width = max(len(p) for p in POSTULATES)
    for semantics in SEMANTICS:
        holds = {mode: evaluate(prepared, semantics, mode).holds for mode in MODES}
        print(f"\n{semantics} semantics")
        for i, postulate in enumerate(POSTULATES):
            cells = [f"{mode}: {'ok' if holds[mode][i] else 'VIOLATED'}" for mode in MODES]
            print(f"   {postulate:<{width}}   " + "   ".join(cells))
        differing = [
            p for p, a, d in zip(POSTULATES, holds["aspic-minus"], holds["deductive"]) if a != d
        ]
        if differing:
            print(f"   -> joint support changes: {', '.join(differing)}")


if __name__ == "__main__":
    main()
