"""Extension computation for AFs and, through flattening, for JSBAFs.

The engine enumerates complete labellings (in / out / undecided) by a search
over label domains: each node keeps the set of labels still possible for it,
propagation narrows a node and its attackers until every domain agrees with
its attackers' domains (in iff all attackers are out, out iff some attacker
is in, undecided otherwise), and the search splits the first domain in
canonical order that still holds more than one label.  The four
admissibility-based semantics are:

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

from .frameworks import AF, JSBAF, NodeId, flatten_simplified, prune_inert, sort_nodes

SEMANTICS = ("grounded", "complete", "stable", "preferred")
FLATTEN_MODES = ("literal", "prune-inert")

_IN, _OUT, _UNDEC = 1, 2, 4  # label bits of a domain
# Byte maps over domains: 1 where the domain holds in, and where it is not in.
_CAN_IN = bytes(d & _IN for d in range(256))
_NOT_IN = bytes(int(d != _IN) for d in range(256))


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

    Each node holds a bitmask of the labels still possible for it.
    Propagation narrows a node and its attackers until every domain agrees
    with its attackers' domains under the complete-labelling rule; the search
    then splits the first non-singleton node in canonical order (the lowest
    node number) into its lowest label against the rest.  Every full
    labelling is re-verified, so propagation only needs to be sound.
    """

    def __init__(self, af: AF):
        self.n = len(af.node_table)
        self.attackers = af.attacker_ids
        self.targets = af.target_ids

    def run(self, domain: int, maximal: bool = False) -> list[tuple[int, ...]]:
        """In-sets of all complete labellings whose labels lie in ``domain``,
        in canonical order.  With ``maximal``, a branch is dropped once the
        nodes that can still be in lie inside an in-set already found: none
        of its labellings has a larger in-set.  Those found may still be
        non-maximal, so the caller filters them."""
        results = []
        found: list[int] = []  # the nodes outside each in-set, one byte per node
        stack = [([domain] * self.n, set(range(self.n)))]
        while stack:
            doms, dirty = stack.pop()
            if not self._propagate(doms, dirty):
                continue
            if found:
                can_in = int.from_bytes(bytes(doms).translate(_CAN_IN), "little")
                if not all(can_in & outside for outside in found):
                    continue
            pivot = next((i for i, d in enumerate(doms) if d & (d - 1)), None)
            if pivot is None:
                if self._verify(doms):
                    results.append(tuple(i for i, d in enumerate(doms) if d == _IN))
                    if maximal:
                        found.append(int.from_bytes(bytes(doms).translate(_NOT_IN), "little"))
                continue
            rest = doms.copy()
            low = doms[pivot] & -doms[pivot]
            rest[pivot] ^= low
            doms[pivot] = low
            stack.append((rest, {pivot, *self.targets[pivot]}))
            stack.append((doms, {pivot, *self.targets[pivot]}))
        return sorted(set(results))

    def _propagate(self, doms: list[int], dirty: set[int]) -> bool:
        """Narrow domains until quiescent; False once one becomes empty."""

        def narrow(x: int, mask: int) -> bool:
            new = doms[x] & mask
            if new != doms[x]:
                doms[x] = new
                dirty.add(x)
                dirty.update(self.targets[x])
            return new != 0

        while dirty:
            y = dirty.pop()
            atk = self.attackers[y]
            seen = {doms[a] for a in atk}  # the distinct attacker domains
            union, common = 0, _IN | _OUT | _UNDEC
            for d in seen:
                union |= d
                common &= d
            allowed = 0
            if common & _OUT:  # every attacker can be out
                allowed |= _IN
            if union & _IN:  # some attacker can be in
                allowed |= _OUT
            if _IN not in seen and union & _UNDEC:  # none is in, some can be undecided
                allowed |= _UNDEC
            if not narrow(y, allowed):
                return False
            dy = doms[y]
            # Narrow the attackers, skipping rules that ``seen`` shows to hold.
            if dy == _IN:  # every attacker out
                if union != _OUT and not all(narrow(a, _OUT) for a in atk):
                    return False
            elif dy == _OUT:  # some attacker in
                if _IN not in seen:
                    can_in = [a for a in atk if doms[a] & _IN]
                    if len(can_in) == 1 and not narrow(can_in[0], _IN):
                        return False
            else:
                if not dy & _OUT:  # no attacker in
                    if union & _IN and not all(narrow(a, _OUT | _UNDEC) for a in atk):
                        return False
                if not dy & _IN and common & _OUT:  # some attacker not out
                    not_out = [a for a in atk if doms[a] != _OUT]
                    if len(not_out) == 1 and not narrow(not_out[0], _IN | _UNDEC):
                        return False
        return True

    def _verify(self, doms: list[int]) -> bool:
        for y in range(self.n):
            atk = [doms[a] for a in self.attackers[y]]
            ly = doms[y]
            if ly == _IN and not all(la == _OUT for la in atk):
                return False
            if ly == _OUT and not any(la == _IN for la in atk):
                return False
            if ly == _UNDEC and (any(la == _IN for la in atk) or _UNDEC not in atk):
                return False
        return True


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
    members = frozenset(extension)
    for source, target in sorted(
        j.supports, key=lambda s: (tuple(n.key() for n in sort_nodes(s[0])), s[1].key())
    ):
        if source <= members and target not in members:
            return False, (source, target)
    return True, None


def is_conflict_free_jsbaf(
    j: JSBAF, extension: Iterable[NodeId]
) -> tuple[bool, Optional[tuple[NodeId, NodeId]]]:
    """Check that no attack holds inside the extension; on failure, return
    the violating attack."""
    members = frozenset(extension)
    for src, dst in sorted(j.attacks, key=lambda p: (p[0].key(), p[1].key())):
        if src in members and dst in members:
            return False, (src, dst)
    return True, None
