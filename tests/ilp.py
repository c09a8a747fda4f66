"""A second solver for the extensions of an AF, by 0/1 programs.

``brute_force_extensions`` stops at ``ORACLE_NODE_CAP`` nodes; this solver
has no cap, so it checks that ``extension_ids`` loses no extension of a
larger framework.  It shares nothing with the label search: HiGHS
(``scipy.optimize.milp``) solves each program.  Test code only; ``jsbaf``
never imports it.

Node i has three 0/1 variables, in_i, out_i and undec_i, with
in_i + out_i + undec_i = 1, and the labelling is complete: i is in iff
every attacker of i is out, and out iff some attacker of i is in.  A
stable labelling also has every undec_i = 0.  A complete labelling is
fixed by its in nodes, so

* complete and stable enumerate, adding after each solution one no-good
  cut on the in-vector;
* grounded is the complete labelling with the fewest in nodes, the least
  complete extension;
* preferred maximises the in-count, adding after each extension P found
  the cut "some node outside P is in".  Each optimum is preferred: a
  complete superset of it would meet every cut with a larger in-count.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


class _Program:
    """The complete labellings of an AF of n nodes, over the variables
    (in_0 .. in_n-1, out_0 .., undec_0 ..), plus the cuts added so far."""

    def __init__(self, af, stable: bool):
        self.n = n = len(af.target_ids)
        self.rows, self.lower, self.upper = [], [], []
        for i, attackers in enumerate(af.attacker_ids):
            self.add([(i, 1), (n + i, 1), (2 * n + i, 1)], 1, 1)
            # every attacker out -> in; out -> some attacker in
            self.add([(i, 1), *((n + a, -1) for a in attackers)], 1 - len(attackers), np.inf)
            self.add([(n + i, 1), *((a, -1) for a in attackers)], -np.inf, 0)
            for a in attackers:
                self.add([(i, 1), (n + a, -1)], -np.inf, 0)  # in -> a is out
                self.add([(n + i, 1), (a, -1)], 0, np.inf)  # a is in -> out
        self.bounds = Bounds(0, [1] * 2 * n + [0 if stable else 1] * n)

    def add(self, terms, lower: float, upper: float) -> None:
        row = np.zeros(3 * self.n)
        for j, coefficient in terms:
            row[j] += coefficient
        self.rows.append(row)
        self.lower.append(lower)
        self.upper.append(upper)

    def solve(self, in_weight: int) -> tuple[int, ...] | None:
        """The in nodes of a labelling that minimises ``in_weight`` times
        the in-count, or None when no labelling meets the constraints."""
        objective = np.zeros(3 * self.n)
        objective[: self.n] = in_weight
        result = milp(
            objective, integrality=np.ones(3 * self.n), bounds=self.bounds,
            constraints=LinearConstraint(np.array(self.rows), self.lower, self.upper),
        )
        if result.status == 2:  # infeasible
            return None
        assert result.status == 0, result.message
        return tuple(i for i in range(self.n) if result.x[i] > 0.5)


def ilp_extension_ids(af, semantics: str) -> list[tuple[int, ...]]:
    """The extensions of ``af`` under ``semantics``, each as its ascending
    node numbers, sorted."""
    program = _Program(af, stable=semantics == "stable")
    if semantics == "grounded":
        return [program.solve(in_weight=1)]
    found = []
    while (ext := program.solve(in_weight=-1 if semantics == "preferred" else 0)) is not None:
        found.append(ext)
        inside = set(ext)
        if semantics == "preferred":  # some node outside ext is in
            program.add([(i, 1) for i in range(program.n) if i not in inside], 1, np.inf)
        else:  # the in-vector differs from ext's
            cut = [(i, 1 if i in inside else -1) for i in range(program.n)]
            program.add(cut, -np.inf, len(ext) - 1)
    return sorted(found)
