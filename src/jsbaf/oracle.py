"""Brute-force semantics oracle.

Checks every one of the 2^n subsets of a small AF directly against the
textbook definitions (conflict-freeness, defence, admissibility), with no
shared machinery with the labelling engine in ``semantics.py``.  Subsets are
bitmasks, so the oracle stays usable up to ``ORACLE_NODE_CAP`` nodes; it
exists to cross-validate the engine, not to scale.
"""

from __future__ import annotations

from .frameworks import AF, NodeId
from .semantics import SEMANTICS

ORACLE_NODE_CAP = 21  # the flattening of the paper's tandem example has 21 nodes


def brute_force_extensions(af: AF, semantics: str) -> list[frozenset[NodeId]]:
    """All extensions under ``semantics``, by exhaustive subset enumeration,
    in canonical order."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    n = len(af.node_table)
    if n > ORACLE_NODE_CAP:
        raise ValueError(f"oracle is capped at {ORACLE_NODE_CAP} nodes, got {n}")
    attack_mask = [0] * n
    attacker_mask = [0] * n
    for src, row in enumerate(af.target_ids):
        for dst in row:
            attack_mask[src] |= 1 << dst
            attacker_mask[dst] |= 1 << src
    full = (1 << n) - 1

    complete: list[int] = []
    stable: list[int] = []
    for subset in range(1 << n):
        attacked = 0
        conflict = False
        for i in range(n):
            if subset >> i & 1:
                if attack_mask[i] & subset:
                    conflict = True
                    break
                attacked |= attack_mask[i]
        if conflict:
            continue
        defended = 0
        for i in range(n):
            if attacker_mask[i] & ~attacked == 0:
                defended |= 1 << i
        if subset & ~defended:  # not admissible
            continue
        if defended == subset:
            complete.append(subset)
        if (full & ~subset) & ~attacked == 0:
            stable.append(subset)

    if semantics == "complete":
        chosen = complete
    elif semantics == "grounded":
        chosen = [s for s in complete if not any(o != s and o & s == o for o in complete)]
        assert len(chosen) == 1, "grounded extension must be unique"
    elif semantics == "preferred":
        chosen = [s for s in complete if not any(o != s and o & s == s for o in complete)]
    else:
        chosen = stable

    table = af.node_table
    members = sorted(tuple(i for i in range(n) if s >> i & 1) for s in chosen)
    return [frozenset(table[i] for i in ext) for ext in members]
