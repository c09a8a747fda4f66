"""The exhaustive small-scope suite of ROADMAP item 14, at the scopes
(S, D, B) = (2, 1, 1), (3, 1, 1), (2, 1, 2) and (2, 2, 1) of
``small_scope``: the number of systems on which some postulate fails is
pinned per mode and semantics, and every evaluation agrees with the
brute-force oracle and with the postulate definitions."""

import functools

import pytest

import reference
import small_scope
from jsbaf import MODES, SEMANTICS, brute_force_extensions, construct_arguments, print_system

# Per scope: the consistent systems, and per mode the systems on which some
# postulate fails, by semantics in the order of SEMANTICS.
PINNED = {
    (2, 1, 1): (275, {"aspic-minus": (4, 14, 14, 14), "deductive": (0, 0, 0, 0)}),
    (3, 1, 1): (1197, {"aspic-minus": (28, 94, 94, 94), "deductive": (0, 1, 1, 1)}),
    # The first scope with two-body rules, so with two-source supports.
    (2, 1, 2): (1447, {"aspic-minus": (7, 27, 27, 27), "deductive": (0, 0, 0, 0)}),
    # The first scope with two defeasible rules.
    (2, 2, 1): (2304, {"aspic-minus": (65, 242, 234, 234), "deductive": (0, 1, 1, 1)}),
}
SCOPES = pytest.mark.parametrize("scope", PINNED, ids="{0[0]}-{0[1]}-{0[2]}".format)

# ROADMAP item 7's smallest system: ``s2(A2)`` is pruned, and with it the
# joint support of A2 = ``A1 -> q``, so deductive complete, stable and
# preferred accept {A2} without A1 = ``=> p``.
ITEM_7 = """\
atoms p q
strict s0: p -> q
strict s1: p -> ~q
strict s2: q -> p
defeasible d0: => p
"""

# The one deductive failure of scope (2, 2, 1), of item 7's class:
# ``s0(A2)``, with A2 = ``A1 => p``, is pruned, since its conclusion q is
# that of A1.
ITEM_7_TWO_DEFEASIBLE = """\
atoms p q
strict s0: p -> q
strict s1: q -> ~p
defeasible d0: => q
defeasible d1: q => p
"""


@functools.cache
def runs(scope):
    """Each system of ``scope`` with its evaluations."""
    return [
        (system, small_scope.evaluations(system))
        for system in (small_scope.build(key, scope[2]) for key in small_scope.keys(*scope))
    ]


@SCOPES
def test_failures_per_mode_and_semantics_are_pinned(scope):
    systems, failing = PINNED[scope]
    assert len(runs(scope)) == systems
    counts = small_scope.violations(runs(scope))
    assert {
        mode: tuple(len(counts[mode, semantics]) for semantics in SEMANTICS) for mode in MODES
    } == failing


def the_one_deductive_failure(scope, printed):
    """The one system of ``scope`` on which some postulate fails in
    deductive mode, the same under complete, stable and preferred, after
    checking that it prints as ``printed`` and that its store is pruned."""
    failing = small_scope.violations(runs(scope))
    (system,) = failing["deductive", "complete"]
    assert print_system(system) == printed
    assert construct_arguments(system).acyclicity_pruned
    assert failing["deductive", "stable"] == failing["deductive", "preferred"] == [system]
    return system


def test_the_one_deductive_failure_is_item_7():
    system = the_one_deductive_failure((3, 1, 1), ITEM_7)
    # closure under s2 and indirect consistency fail, on {q}
    evs = small_scope.evaluations(system)
    assert [evs["deductive", semantics].holds for semantics in SEMANTICS] == [
        (True, True, True), *[(False, True, False)] * 3,
    ]


def test_the_one_deductive_failure_with_two_defeasible_rules_is_of_item_7s_class():
    the_one_deductive_failure((2, 2, 1), ITEM_7_TWO_DEFEASIBLE)


@SCOPES
def test_the_engine_equals_the_oracle(scope):
    for _, evs in runs(scope):
        for (_, semantics), ev in evs.items():
            searched = ev.framework if ev.flat is None else ev.flat
            table = searched.node_table
            engine = [frozenset(table[i] for i in ext) for ext in ev.raw_extensions]
            assert engine == brute_force_extensions(searched, semantics)


@SCOPES
def test_verdicts_equal_their_definitions(scope):
    for system, evs in runs(scope):
        for ev in evs.values():
            for cs in ev.conclusion_sets:
                assert cs.postulates == reference.postulate_verdicts(system, cs.formulas)


def test_every_member_of_an_orbit_gives_the_same_verdicts():
    scope = (2, 1, 1)
    for key, (_, evs) in zip(small_scope.keys(*scope), runs(scope)):
        holds = {run: ev.holds for run, ev in evs.items()}
        members = small_scope.orbit(key, scope[2])
        assert members[0] == key
        for member in members[1:]:
            member_evs = small_scope.evaluations(small_scope.build(member, scope[2]))
            assert {run: ev.holds for run, ev in member_evs.items()} == holds, member
