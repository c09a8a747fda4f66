"""Extension computation for AFs and, through flattening, for JSBAFs.

The engine enumerates complete labellings (in / out / undecided) by a search
over label domains: each node keeps the set of labels still possible for it,
propagation narrows a node and its attackers until every domain agrees with
its attackers' domains (in iff all attackers are out, out iff some attacker
is in, undecided otherwise), and the search splits domains in a static
order: arguments before meta-arguments, then the nodes with most targets,
then the lowest node number.  It first splits the first node that can
still be in, out and undecided, into in against not-in, since a complete
labelling is fixed by its in-set; only once no such node is left does it
split the first domain that still holds two labels.  In a flattening a
meta-argument's label follows from the arguments' labels, so this order
leaves far fewer branches to fail.  The domains are three int bitsets over
the ranks in that order: the nodes that can still be in, out and
undecided; a node's domain is its bit in each.
The tests on a node's attackers are mask operations on its attacker mask.
A node that narrows its own domain marks its targets dirty, and itself
only if it attacks itself, since its pop has just applied all its rules.
A node whose one label its attackers entail is settled, and no mark
reaches it unless a narrowing empties it; a node that becomes in makes
its targets out and settled in one mask step.
The four admissibility-based semantics are:

* grounded  — least fixpoint of the characteristic function, computed
              directly in time linear in the attacks (no search needed),
* complete  — in-sets of all complete labellings,
* stable    — the same search with every domain starting as {in, out}, so
              it finds the complete labellings with no undecided node,
* preferred — subset-maximal complete extensions, from the complete search
              with every branch dropped whose possible in-set lies inside
              an extension already found.

The engine reads the framework's node numbers and int adjacency lists and
maps each extension back from ranks to node numbers: canonical order is
ascending node number.  ``extension_ids`` returns extensions as sorted
number tuples, which is what the evaluation pass reads; ``extensions``
turns them into sets of ``NodeId``s for library callers and ``jsbaf
oracle``.  A JSBAF is searched through its one flattening,
``frameworks.flatten_simplified``; ``project_ids`` restricts the extensions
of that flattening to its arguments, for ``postulates.evaluate`` and
``jsbaf_extensions`` alike.  The functions here search whatever framework
they are given; the node-count bound on the exponential searches is checked
once, by ``postulates.evaluate``.  ``oracle.py`` provides the independent
brute-force cross-check used by the test suite and ``jsbaf oracle``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .frameworks import AF, JSBAF, NodeId, flatten_simplified

SEMANTICS = ("grounded", "complete", "stable", "preferred")

_IN, _OUT, _UNDEC = 1, 2, 4  # label bits of a domain


def _grounded(af: AF) -> tuple[int, ...]:
    """The grounded extension, in time linear in the attacks: a node is in
    once every attacker is out, and out once some attacker is in.  Each node
    counts its attackers not yet out; the unattacked nodes start the queue."""
    targets = af.target_ids
    pending = [0] * len(targets)
    for row in targets:
        for y in row:
            pending[y] += 1
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

    The nodes are renumbered once per search: ``order[r]`` is the node of
    rank r, arguments, the first ``af.argument_count`` nodes, before
    meta-arguments, then most targets, then lowest node number.  A node's
    domain is its bits in three ints over the ranks: the nodes that can
    still be in (``can_in``), out (``can_out``) and undecided
    (``can_undec``).  With each node's attacker mask, built once per
    search, they test a node's attackers with a few mask operations: every
    attacker can be out when ``atk & can_out == atk``, some attacker can be
    in when ``atk & can_in``.  The dirty nodes and the settled nodes, whose
    label is entailed, are ints too, so a branch state is five ints.
    Propagation narrows a node and its attackers until every domain agrees
    with its attackers' domains under the complete-labelling rule; the
    search then splits the node of lowest rank, ``split & -split``, among
    those that still hold all three labels, into in against out or
    undecided, as the preferred-semantics algorithms of Nofal, Atkinson &
    Dunne (AIJ 2014) branch each argument on in or not-in.  Only once every
    domain holds one or two labels does it split the non-singleton node of
    lowest rank into its lowest label against the other.  On one
    ``tandem-search`` pass this makes 2,008 propagation calls, not 2,266.
    Every full labelling is re-verified, so propagation only needs to be
    sound.
    """

    def __init__(self, af: AF):
        rows, m = af.target_ids, af.argument_count
        self.n = len(rows)
        # order[r] is the node of rank r: arguments, the first m nodes,
        # before meta-arguments, then most targets, then lowest number; the
        # sort is stable, so ties stay in number order.
        most_targets_first = [-len(row) for row in rows].__getitem__
        self.order = [
            *sorted(range(m), key=most_targets_first),
            *sorted(range(m, self.n), key=most_targets_first),
        ]
        rank = [0] * self.n
        for r, x in enumerate(self.order):
            rank[x] = r
        self.attackers = [0] * self.n  # the attackers of each rank, as a mask
        self.targets: list[int] = []  # the targets of each rank, as a mask
        for x in self.order:
            bit, mask = 1 << rank[x], 0
            for y in rows[x]:
                self.attackers[rank[y]] |= bit
                mask |= 1 << rank[y]
            self.targets.append(mask)

    def run(self, domain: int, maximal: bool = False) -> list[tuple[int, ...]]:
        """In-sets of all complete labellings whose labels lie in ``domain``,
        as node numbers in canonical order.  With ``maximal``, only the
        subset-maximal ones: a branch is dropped once the nodes that can
        still be in lie inside an in-set already found, since none of its
        labellings has a larger in-set, and those found that lie inside
        another are left out."""
        every = (1 << self.n) - 1
        found: list[int] = []  # the in-set of each complete labelling
        stack = [(
            every if domain & _IN else 0, every if domain & _OUT else 0,
            every if domain & _UNDEC else 0, every, 0,
        )]
        while stack:
            state = self._propagate(*stack.pop())
            if state is None:
                continue
            can_in, can_out, can_undec, settled = state
            if maximal and not all(can_in | ext != ext for ext in found):
                continue
            # in against not-in first, on the nodes that still hold all three
            split = can_in & can_out & can_undec or (
                (can_in & can_out) | (can_undec & (can_in | can_out))
            )
            if not split:
                if self._verify(can_in, can_undec):
                    found.append(can_in)
                continue
            bit = split & -split
            dirty = bit | self.targets[bit.bit_length() - 1] & ~settled
            if can_in & bit:  # in against out or undecided
                stack.append((can_in ^ bit, can_out, can_undec, dirty, settled))
                stack.append((can_in, can_out & ~bit, can_undec & ~bit, dirty, settled))
            else:  # out against undecided
                stack.append((can_in, can_out ^ bit, can_undec, dirty, settled))
                stack.append((can_in, can_out, can_undec ^ bit, dirty, settled))
        if maximal:
            found = [s for s in found if not any(s | t == t != s for t in found)]
        order, exts = self.order, []
        for s in found:  # from ranks back to node numbers
            ext = []
            while s:
                low = s & -s
                ext.append(order[low.bit_length() - 1])
                s ^= low
            ext.sort()
            exts.append(tuple(ext))
        exts.sort()
        return exts

    def _propagate(
        self, can_in: int, can_out: int, can_undec: int, dirty: int, settled: int
    ) -> Optional[tuple[int, int, int, int]]:
        """Narrow domains until quiescent: the narrowed masks and the
        settled nodes, or None once a domain becomes empty.  Dirty nodes are
        popped in ascending rank, wrapping round, as a set of small ints pops
        them: popping the lowest one each time revisits low nodes and pops
        half as many again on the deductive tandem flattenings.  The order
        changes the pops, not the fixpoint.

        A node that narrows its own domain marks its ``targets`` dirty, not
        itself (unless it is its own target): its pop then applies every
        rule to the final domain, and a later narrowing of one of its
        attackers marks it again as one of that attacker's targets.  A node
        narrowed as an attacker, or split, marks itself and its targets.

        A node is settled once its one label is entailed: in with every
        attacker out, out with an attacker that is only in, or undecided
        with no attacker that can be in and one that is only undecided.
        Its rules then hold until a domain becomes empty, so marks skip it;
        only a narrowing as an attacker, which empties it, marks it again.
        A node that becomes in makes its targets out and settled in one
        step, rather than in one pop each.  On one ``tandem-search`` pass
        this pops 25,787 nodes."""
        attackers, targets = self.attackers, self.targets
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
            # Narrow the node to the labels its attackers allow; each rule
            # reads the masks from before the node's own bits change.
            dy = 0
            if can_undec & bit:
                if atk & can_undec and not some_in & ~(can_out | can_undec):
                    dy = _UNDEC  # none is in, some can be undecided
                else:
                    can_undec ^= bit
                    dirty |= targets[y] & ~settled
            if can_in & bit:
                if every_out:
                    dy |= _IN
                else:
                    can_in ^= bit
                    dirty |= targets[y] & ~settled
            if can_out & bit:
                if some_in:
                    dy |= _OUT
                else:
                    can_out ^= bit
                    dirty |= targets[y] & ~settled
            if not dy:
                return None
            # Narrow the attackers, skipping rules that the masks show to hold.
            if dy == _IN:  # every attacker out, then every target out
                hit = atk & (can_in | can_undec)
                can_in &= ~hit
                can_undec &= ~hit
                while hit:
                    low = hit & -hit
                    hit ^= low
                    dirty |= low | targets[low.bit_length() - 1] & ~settled
                out = targets[y]
                if out & ~can_out:  # a target that cannot be out
                    return None
                hit = out & (can_in | can_undec)
                can_in &= ~out
                can_undec &= ~out
                settled |= bit | out
                dirty &= ~out
                while hit:
                    low = hit & -hit
                    hit ^= low
                    dirty |= targets[low.bit_length() - 1] & ~settled
            elif dy == _OUT:  # some attacker in
                hit = atk & can_in
                if hit and not hit & (hit - 1) and hit & (can_out | can_undec):
                    # the one attacker that can be in
                    can_out &= ~hit
                    can_undec &= ~hit
                    dirty |= hit | targets[hit.bit_length() - 1] & ~settled
                if atk & can_in & ~(can_out | can_undec):  # an attacker only in
                    settled |= bit
            else:
                if not dy & _OUT:  # no attacker in
                    hit = atk & can_in
                    can_in &= ~hit
                    while hit:
                        low = hit & -hit
                        hit ^= low
                        dirty |= low | targets[low.bit_length() - 1] & ~settled
                if not dy & _IN and every_out:  # some attacker not out
                    hit = atk & (can_in | can_undec)
                    if hit and not hit & (hit - 1) and hit & can_out:
                        # the one attacker that can be not out
                        can_out ^= hit
                        dirty |= hit | targets[hit.bit_length() - 1] & ~settled
                if dy == _UNDEC and atk & can_undec & ~can_out:  # one only undecided, none in
                    settled |= bit
        return can_in, can_out, can_undec, settled

    def _verify(self, is_in: int, is_undec: int) -> bool:
        """Check a full labelling, given by its in and undecided nodes,
        against the complete-labelling rule, through the union of the
        targets of the in nodes and that of the undecided nodes."""
        targets = self.targets
        hit_in = hit_undec = 0  # the targets of the in and of the undecided nodes
        labelled = is_in | is_undec
        while labelled:
            low = labelled & -labelled
            labelled ^= low
            if low & is_in:
                hit_in |= targets[low.bit_length() - 1]
            else:
                hit_undec |= targets[low.bit_length() - 1]
        is_out = (1 << self.n) - 1 & ~(is_in | is_undec)
        return not (
            (hit_in | hit_undec) & is_in  # an in node with an in or undecided attacker
            or is_out & ~hit_in  # an out node with no in attacker
            or hit_in & is_undec  # an undecided node with an in attacker
            or is_undec & ~hit_undec  # an undecided node with no undecided attacker
        )


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
        return _DomainSearch(af).run(_IN | _OUT | _UNDEC, maximal=True)
    raise ValueError(f"unknown semantics {semantics!r}; expected one of {SEMANTICS}")


def extensions(af: AF, semantics: str) -> list[frozenset[NodeId]]:
    """``extension_ids`` as sets of ``NodeId``s."""
    table = af.node_table
    return [frozenset(table[i] for i in ext) for ext in extension_ids(af, semantics)]


def project_ids(raw: Iterable[tuple[int, ...]], size: int) -> list[tuple[int, ...]]:
    """Extensions of a flattening restricted to its nodes 0 .. ``size`` - 1,
    the arguments of the JSBAF it flattens, without repeats, in canonical
    order."""
    return sorted({tuple(i for i in ext if i < size) for ext in raw})


def jsbaf_extensions(j: JSBAF, semantics: str) -> list[frozenset[NodeId]]:
    """Extensions of a JSBAF: flatten it under its shield, run the semantics,
    project each extension onto the original nodes, deduplicate."""
    raw = extension_ids(flatten_simplified(j), semantics)
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
