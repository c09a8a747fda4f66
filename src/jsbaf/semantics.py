"""Extension computation for AFs and, through flattening, for JSBAFs.

The engine enumerates complete labellings (in / out / undecided) by a search
over label domains: each node keeps the set of labels still possible for it,
propagation narrows a node and its attackers until every domain agrees with
its attackers' domains (in iff all attackers are out, out iff some attacker
is in, undecided otherwise), and the search splits the first domain in
canonical order that still holds more than one label.  The domains are a
list of small ints, one per node, mirrored by three int bitsets over the
node numbers: the nodes that can still be in, out and undecided.  A node's
own rule reads its domain; the tests on its attackers are mask operations
on its attacker mask.  The four admissibility-based semantics are:

* grounded  — least fixpoint of the characteristic function, computed
              directly in time linear in the attacks (no search needed),
* complete  — in-sets of all complete labellings,
* stable    — the same search with every domain starting as {in, out}, so
              it finds the complete labellings with no undecided node,
* preferred — subset-maximal complete extensions, from the complete search
              with every branch dropped whose possible in-set lies inside
              an extension already found.

The engine works on the framework's node numbers and int adjacency lists,
as given: canonical order is ascending node number.  ``extension_ids``
returns extensions as sorted number tuples, which is what the evaluation
pass reads; ``extensions`` turns them into sets of ``NodeId``s for library
callers.  ``project_ids`` restricts the extensions of a flattened JSBAF to
its arguments, for ``postulates.evaluate`` and ``jsbaf_extensions`` alike.
The functions here search whatever framework they are given; the
node-count bound on the exponential searches is checked once, by
``postulates.evaluate``.
``oracle.py`` provides the independent brute-force cross-check used by the
test suite.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Collection, Iterable, Optional

from .frameworks import AF, JSBAF, NodeId, flatten_simplified, prune_inert

SEMANTICS = ("grounded", "complete", "stable", "preferred")
FLATTEN_MODES = ("literal", "prune-inert")

_IN, _OUT, _UNDEC = 1, 2, 4  # label bits of a domain


def _grounded(af: AF) -> tuple[int, ...]:
    """The grounded extension, in time linear in the attacks: a node is in
    once every attacker is out, and out once some attacker is in.  Each node
    counts its attackers not yet out; the unattacked nodes start the queue."""
    targets = af.target_ids
    in_degree = Counter(chain.from_iterable(targets))
    pending = [in_degree[i] for i in range(len(targets))]
    queue = [i for i, count in enumerate(pending) if not count]
    accepted, out = [], [False] * len(pending)
    while queue:
        x = queue.pop()
        accepted.append(x)
        for y in targets[x]:
            if not out[y]:
                out[y] = True
                for z in targets[y]:
                    pending[z] -= 1
                    if not pending[z]:
                        queue.append(z)
    return tuple(sorted(accepted))


class _DomainSearch:
    """Enumerates the complete labellings of a finite AF within given domains.

    Each node keeps a bitmask of the labels still possible for it in a
    list, which its own rule reads.  Three ints over the node numbers
    mirror the list: the nodes that can still be in (``can_in``), out
    (``can_out``) and undecided (``can_undec``).  With each node's attacker
    mask, built once per search, they test a node's attackers with a few
    mask operations: every attacker can be out when ``atk & can_out ==
    atk``, some attacker can be in when ``atk & can_in``.  The dirty nodes
    are an int too, and a branch state is the list and four ints.
    Propagation narrows a node and its attackers until every domain agrees
    with its attackers' domains under the complete-labelling rule; the
    search then splits the first non-singleton node in canonical order (the
    lowest node number) into its lowest label against the rest.  Every full
    labelling is re-verified, so propagation only needs to be sound.
    """

    def __init__(self, af: AF):
        self.n = len(af.node_table)
        self.attackers = [0] * self.n  # the attackers of each node, as a mask
        self.reach: list[int] = []  # each node and its targets, as a mask
        for x, row in enumerate(af.target_ids):
            bit = mask = 1 << x
            for y in row:
                self.attackers[y] |= bit
                mask |= 1 << y
            self.reach.append(mask)

    def run(self, domain: int, maximal: bool = False) -> list[tuple[int, ...]]:
        """In-sets of all complete labellings whose labels lie in ``domain``,
        in canonical order.  With ``maximal``, a branch is dropped once the
        nodes that can still be in lie inside an in-set already found: none
        of its labellings has a larger in-set.  Those found may still be
        non-maximal, so the caller filters them."""
        every = (1 << self.n) - 1
        masks = (every if domain & label else 0 for label in (_IN, _OUT, _UNDEC))
        results = []
        found: list[int] = []  # the nodes outside each in-set
        stack = [([domain] * self.n, *masks, every)]
        while stack:
            state = self._propagate(*stack.pop())
            if state is None:
                continue
            doms, can_in, can_out, can_undec = state
            if found and not all(can_in & outside for outside in found):
                continue
            split = (can_in & can_out) | (can_undec & (can_in | can_out))
            if not split:
                if self._verify(doms):
                    results.append(tuple(i for i, d in enumerate(doms) if d == _IN))
                    if maximal:
                        found.append(every ^ can_in)
                continue
            bit = split & -split
            pivot = bit.bit_length() - 1
            low = doms[pivot] & -doms[pivot]
            rest = doms.copy()
            rest[pivot] ^= low
            doms[pivot] = low
            dirty = self.reach[pivot]
            stack.append((rest, *_drop(bit, low, can_in, can_out, can_undec), dirty))
            stack.append((doms, *_drop(bit, rest[pivot], can_in, can_out, can_undec), dirty))
        return sorted(set(results))

    def _propagate(
        self, doms: list[int], can_in: int, can_out: int, can_undec: int, dirty: int
    ) -> Optional[tuple[list[int], int, int, int]]:
        """Narrow domains until quiescent: the narrowed domains and masks,
        or None once a domain becomes empty.  Dirty nodes are popped in
        ascending order, wrapping round, as a set of small ints pops them:
        popping the lowest one each time revisits low nodes and pops half
        as many again on the deductive tandem flattenings.  The order
        changes the pops, not the fixpoint."""
        attackers, reach = self.attackers, self.reach
        finger = 1  # the lowest node the next pop looks at first
        while dirty:
            bit = dirty & -finger or dirty
            bit &= -bit
            dirty ^= bit
            finger = bit << 1
            y = bit.bit_length() - 1
            atk = attackers[y]
            every_out = atk & can_out == atk
            some_in = atk & can_in
            allowed = 0
            if every_out:
                allowed |= _IN
            if some_in:
                allowed |= _OUT
            if atk & can_undec and not some_in & ~(can_out | can_undec):
                allowed |= _UNDEC  # none is in, some can be undecided
            d = doms[y]
            dy = d & allowed
            if dy != d:
                if not dy:
                    return None
                doms[y] = dy
                gone = d ^ dy
                if gone & _IN:
                    can_in ^= bit
                if gone & _OUT:
                    can_out ^= bit
                if gone & _UNDEC:
                    can_undec ^= bit
                dirty |= reach[y]
            # Narrow the attackers, skipping rules that the masks show to hold.
            if dy == _IN:  # every attacker out
                hit = atk & (can_in | can_undec)
                if hit & ~can_out:
                    return None
                can_in &= ~hit
                can_undec &= ~hit
                while hit:
                    low = hit & -hit
                    hit ^= low
                    x = low.bit_length() - 1
                    doms[x] = _OUT
                    dirty |= reach[x]
            elif dy == _OUT:  # some attacker in
                hit = atk & can_in
                if hit and not hit & (hit - 1) and hit & (can_out | can_undec):
                    x = hit.bit_length() - 1  # the one attacker that can be in
                    doms[x] = _IN
                    can_out &= ~hit
                    can_undec &= ~hit
                    dirty |= reach[x]
            else:
                if not dy & _OUT:  # no attacker in
                    hit = atk & can_in
                    if hit & ~(can_out | can_undec):
                        return None
                    can_in &= ~hit
                    while hit:
                        low = hit & -hit
                        hit ^= low
                        x = low.bit_length() - 1
                        doms[x] ^= _IN
                        dirty |= reach[x]
                if not dy & _IN and every_out:  # some attacker not out
                    hit = atk & (can_in | can_undec)
                    if hit and not hit & (hit - 1) and hit & can_out:
                        x = hit.bit_length() - 1  # the one attacker that can be not out
                        doms[x] ^= _OUT
                        can_out ^= hit
                        dirty |= reach[x]
        return doms, can_in, can_out, can_undec

    def _verify(self, doms: list[int]) -> bool:
        """Check a full labelling against the complete-labelling rule,
        reading the labels from ``doms`` alone."""
        is_in = sum(1 << i for i, d in enumerate(doms) if d == _IN)
        is_undec = sum(1 << i for i, d in enumerate(doms) if d == _UNDEC)
        for d, atk in zip(doms, self.attackers):
            if d == _IN and atk & (is_in | is_undec):
                return False
            if d == _OUT and not atk & is_in:
                return False
            if d == _UNDEC and (atk & is_in or not atk & is_undec):
                return False
        return True


def _drop(bit: int, labels: int, can_in: int, can_out: int, can_undec: int) -> tuple[int, int, int]:
    """The three masks with node ``bit`` taken out of those of ``labels``."""
    if labels & _IN:
        can_in ^= bit
    if labels & _OUT:
        can_out ^= bit
    if labels & _UNDEC:
        can_undec ^= bit
    return can_in, can_out, can_undec


def extension_ids(af: AF, semantics: str) -> list[tuple[int, ...]]:
    """The extensions of ``af`` under ``semantics``, each as its ascending
    node numbers, in canonical order; grounded yields a one-element list."""
    if semantics == "grounded":
        return [_grounded(af)]
    if semantics == "complete":
        return _DomainSearch(af).run(_IN | _OUT | _UNDEC)
    if semantics == "stable":
        return _DomainSearch(af).run(_IN | _OUT)
    if semantics == "preferred":
        complete = _DomainSearch(af).run(_IN | _OUT | _UNDEC, maximal=True)
        sets = [frozenset(ext) for ext in complete]
        return [ext for ext, s in zip(complete, sets) if not any(s < other for other in sets)]
    raise ValueError(f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")


def extensions(af: AF, semantics: str) -> list[frozenset[NodeId]]:
    """``extension_ids`` as sets of ``NodeId``s."""
    table = af.node_table
    return [frozenset(table[i] for i in ext) for ext in extension_ids(af, semantics)]


def flattened_af(
    j: JSBAF, flatten_mode: str = "literal", shielded: Collection[int] = frozenset()
) -> AF:
    """The simplified flattening of ``j``, optionally with inert
    meta-arguments pruned away; ``shielded`` numbers nodes of ``j`` (see
    ``flatten_one_step``)."""
    if flatten_mode not in FLATTEN_MODES:
        raise ValueError(f"unknown flatten mode {flatten_mode!r}; expected one of {FLATTEN_MODES}")
    af = flatten_simplified(j, shielded)
    if flatten_mode == "prune-inert":
        af = prune_inert(af)
    return af


def project_ids(raw: Iterable[tuple[int, ...]], size: int) -> list[tuple[int, ...]]:
    """Extensions of a flattening restricted to its nodes 0 .. ``size`` - 1,
    the arguments of the JSBAF it flattens, without repeats, in canonical
    order."""
    return sorted({tuple(i for i in ext if i < size) for ext in raw})


def jsbaf_extensions(
    j: JSBAF,
    semantics: str,
    flatten_mode: str = "literal",
    shielded: Collection[int] = frozenset(),
) -> list[frozenset[NodeId]]:
    """Extensions of a JSBAF: flatten, run the semantics, project each
    extension onto the original nodes, deduplicate."""
    raw = extension_ids(flattened_af(j, flatten_mode, shielded), semantics)
    table = j.node_table
    return [frozenset(table[i] for i in ext) for ext in project_ids(raw, len(table))]


def is_deductive_extension(
    j: JSBAF, extension: Iterable[NodeId]
) -> tuple[bool, Optional[tuple[frozenset[NodeId], NodeId]]]:
    """Check that every support whose whole source lies inside the extension
    has its target inside as well; on failure, return the violating support."""
    table, members = j.node_table, frozenset(extension)
    inside = [n in members for n in table]
    for source, target in j.support_ids:
        if all(inside[a] for a in source) and not inside[target]:
            return False, (frozenset(table[a] for a in source), table[target])
    return True, None


def is_conflict_free_jsbaf(
    j: JSBAF, extension: Iterable[NodeId]
) -> tuple[bool, Optional[tuple[NodeId, NodeId]]]:
    """Check that no attack holds inside the extension; on failure, return
    the violating attack."""
    table, members = j.node_table, frozenset(extension)
    inside = [n in members for n in table]
    for src, row in enumerate(j.target_ids):
        for dst in row:
            if inside[src] and inside[dst]:
                return False, (table[src], table[dst])
    return True, None
