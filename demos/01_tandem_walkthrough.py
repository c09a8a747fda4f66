#!/usr/bin/env python3
"""Walk the tandem scenario through the whole pipeline.

Three riders each want a seat on a two-seat tandem.  Wanting a seat
defeasibly yields getting one, and strict rules encode that any two riders
exclude the third.  Classic unrestricted rebuttal then lets every pair of
riders argue the third off the tandem.

The walkthrough shows why the plain attack framework accepts the impossible
"all three ride" outcome under preferred semantics, and how tracking the
joint support carried by strict rule applications removes it.
"""

from pathlib import Path

from jsbaf import (
    POSTULATES,
    evaluate,
    extensions,
    parse_system,
    prepare,
)

RULES = Path(__file__).with_name("tandem.rules")


def show_extensions(title, exts):
    print(f"\n{title}")
    for ext in exts:
        print("   {" + ", ".join(sorted(n.label for n in ext)) + "}")


def main():
    system = parse_system(RULES.read_text())
    prepared = prepare(system)

    print("Arguments on the basis of the tandem system:")
    for arg in prepared.store.arguments:
        kind = "defeasible" if arg.defeasible else "strict"
        print(f"   {arg.form:<22} ({kind})")

    af = prepared.af
    print(f"\nAttack framework: {len(af.nodes)} arguments, {len(af.attacks)} attacks")
    print("Every ~x argument trades blows with the rides it excludes.")

    show_extensions("Preferred extensions, attacks only:", extensions(af, "preferred"))
    print("The first one accepts A4, A5 and A6 together: everyone rides.")
    aspic = evaluate(prepared, "preferred", "aspic-minus")
    for cs in aspic.conclusion_sets:
        conclusions = "{" + ", ".join(sorted(map(str, cs.formulas))) + "}"
        closed = cs.postulates.closure is None
        verdict = "closed" if closed else "NOT closed under the strict rules"
        print(f"   {conclusions:<42} {verdict}")

    j = prepared.jsbaf
    print(f"\nWith joint support tracked: {len(j.supports)} supports, e.g.")
    for src, dst in sorted(j.supports, key=lambda p: p[1].key()):
        names = ",".join(sorted(n.label for n in src)) or "(none)"
        print(f"   {{{names}}} => {dst.label}")

    flat = prepared.flat
    print(f"\nFlattened to a plain framework: {len(flat.nodes)} nodes, {len(flat.attacks)} attacks")
    joint = evaluate(prepared, "preferred", "deductive")
    show_extensions(
        "Preferred extensions after flattening, projected onto the arguments:",
        [{j.node_table[i] for i in ext} for ext in joint.extensions],
    )

    print("\nConclusion sets with deductive joint support (preferred):")
    for cs in joint.conclusion_sets:
        conclusions = "{" + ", ".join(sorted(map(str, cs.formulas))) + "}"
        assert cs.postulates.all_satisfied
        print(f"   {conclusions:<42} all postulates satisfied")

    differing = [p for p, a, d in zip(POSTULATES, aspic.holds, joint.holds) if a != d]
    print("\nPostulates that differ between the modes:", ", ".join(differing))


if __name__ == "__main__":
    main()
