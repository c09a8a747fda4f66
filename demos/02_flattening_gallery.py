#!/usr/bin/env python3
"""Gallery of the three flattening stages on small frameworks.

Shows how a joint support turns into joint attacks through a bar
meta-argument, how joint attacks turn into plain attacks through e-nodes,
and what the simplified flattening removes.
"""

from jsbaf import (
    JSBAF,
    base,
    emit_dot,
    flatten_one_step,
    flatten_simplified,
    flatten_two_step,
    sort_nodes,
)


def describe(title, framework):
    print(f"\n== {title} ==")
    print("nodes:", ", ".join(n.label for n in sort_nodes(framework.nodes)))
    if hasattr(framework, "joint_attacks"):
        for attackers, target in sorted(
            framework.joint_attacks,
            key=lambda p: (tuple(n.key() for n in sort_nodes(p[0])), p[1].key()),
        ):
            names = ",".join(n.label for n in sort_nodes(attackers))
            print(f"   {{{names}}} --> {target.label}")
    else:
        for src, dst in sorted(framework.attacks, key=lambda p: (p[0].key(), p[1].key())):
            print(f"   {src.label} --> {dst.label}")


def main():
    a, b, c, d = base("a"), base("b"), base("c"), base("d")

    single = JSBAF({a, b}, set(), {(frozenset({a}), b)})
    describe("a supports b | one-step", flatten_one_step(single))
    print("If b is rejected, bar(b) revives and strikes back at a.")

    pair = JSBAF({a, b, c, d}, {(d, c)}, {(frozenset({a, b}), c)})
    describe("a,b jointly support c; d attacks c | one-step", flatten_one_step(pair))
    describe("same, two-step", flatten_two_step(pair))
    describe("same, simplified", flatten_simplified(pair))
    print("bar(c) and bar(bar(c)) vanish; c itself feeds the e-nodes.")

    triple = JSBAF({a, b, c, d}, set(), {(frozenset({a, b, c}), d)})
    describe("a,b,c jointly support d | one-step", flatten_one_step(triple))

    print("\nDOT rendering of the simplified pair example:\n")
    print(emit_dot(flatten_simplified(pair)))


if __name__ == "__main__":
    main()
