"""Brute-force semantics oracle.

Checks every conflict-free set of a small AF, the only sets that can be
extensions, directly against the textbook definitions (defence,
admissibility), with no shared machinery with the labelling engine in
``semantics.py``.  Sets are bitmasks, so the oracle stays usable up to
``ORACLE_NODE_CAP`` nodes; it exists to cross-validate the engine, not to scale.
"""

from __future__ import annotations

from .errors import ValidationError
from .frameworks import AF, NodeId
from .semantics import SEMANTICS

ORACLE_NODE_CAP = 21  # the flattening of the paper's tandem example has 21 nodes


def brute_force_extensions(af: AF, semantics: str) -> list[frozenset[NodeId]]:
    """All extensions under ``semantics``, by exhaustive enumeration of the
    conflict-free sets, in canonical order.  A framework of more than
    ``ORACLE_NODE_CAP`` nodes is refused with ValidationError."""
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}")
    n = len(af.target_ids)  # a refused framework builds no node table
    if n > ORACLE_NODE_CAP:
        raise ValidationError(f"framework has {n} nodes, above the oracle cap {ORACLE_NODE_CAP}")
    attack_mask = [0] * n
    attacker_mask = [0] * n
    for src, row in enumerate(af.target_ids):
        for dst in row:
            attack_mask[src] |= 1 << dst
            attacker_mask[dst] |= 1 << src
    full = (1 << n) - 1
    # A node with no attacker is defended by every set; only the others are
    # tested per set, as (bit, attackers).
    unattacked = sum(1 << i for i, mask in enumerate(attacker_mask) if not mask)
    attacked_nodes = [(1 << i, mask) for i, mask in enumerate(attacker_mask) if mask]

    complete: list[int] = []
    stable: list[int] = []
    # Depth first; each entry is a conflict-free set, the nodes it attacks,
    # and the lowest node that may still join it.  A node joins only if it
    # attacks nothing in the set, itself included, and nothing in it attacks it.
    stack = [(0, 0, 0)]
    while stack:
        subset, attacked, start = stack.pop()
        for i in range(start, n):
            bit = 1 << i
            if not (attack_mask[i] & (subset | bit) or attacked & bit):
                stack.append((subset | bit, attacked | attack_mask[i], i + 1))
        defended = unattacked
        for bit, attackers in attacked_nodes:
            if attackers & ~attacked == 0:
                defended |= bit
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
