"""Conclusion sets, the three postulates, the contrast of the modes, generators."""

import pytest
from hypothesis import given, strategies as st

import reference
from test_dsl import formula_st, systems
from jsbaf import (
    MODES,
    POSTULATES,
    ArgumentationSystem,
    GenerationFailedError,
    InconsistentSystemError,
    JsbafParams,
    PostulateReport,
    SystemParams,
    ValidationError,
    atom,
    construct_arguments,
    defeasible_rule,
    evaluate,
    neg,
    parse_system,
    prepare,
    random_jsbaf,
    random_system,
    strict_rule,
)
from jsbaf.core import LiteralTable, strict_conflict
from jsbaf.postulates import ALL_HOLD, GENERATION_RETRIES, _verdicts


def formula_strings(formulas):
    return sorted(str(f) for f in formulas)


def verdicts(system, formulas):
    """``_verdicts`` on the set, as a mask of a literal table of the system's
    literals and the set's, after checking it against the definitions."""
    formulas = frozenset(formulas)
    table = LiteralTable(system.strict_rules, formulas.union(system.literal_table.literals))
    report = _verdicts(table, table.mask(formulas))
    assert report == reference.postulate_verdicts(system, formulas)
    return report


def conclusion_sets(system, semantics, mode):
    """The conclusion sets of one evaluation, each checked against the
    postulate definitions."""
    sets = evaluate(prepare(system), semantics, mode).conclusion_sets
    for cs in sets:
        assert cs.postulates == reference.postulate_verdicts(system, cs.formulas)
    return sets


DA_PREFERRED = [
    ["ht", "hw", "st", "sw", "tw", "~tt"],
    ["ht", "hw", "sw", "tt", "tw", "~st"],
    ["hw", "st", "sw", "tt", "tw", "~ht"],
]
ASPIC_VIOLATOR = ["ht", "hw", "st", "sw", "tt", "tw"]
NO_RULES = ArgumentationSystem((), ())


class TestConclusionSets:
    def test_tandem_deductive_preferred(self, tandem_system):
        sets = evaluate(prepare(tandem_system), "preferred", "deductive").conclusion_sets
        assert sorted(formula_strings(cs.formulas) for cs in sets) == DA_PREFERRED

    def test_tandem_aspic_grounded(self, tandem_system):
        ev = evaluate(prepare(tandem_system), "grounded", "aspic-minus")
        (only,) = ev.conclusion_sets
        assert formula_strings(only.formulas) == ["hw", "sw", "tw"]
        assert only.extension == (0, 1, 2)
        assert [ev.store.arguments[o].canonical_id for o in only.extension] == ["A1", "A2", "A3"]

    def test_empty_system_single_empty_set(self):
        for mode in ("aspic-minus", "deductive"):
            prepared = prepare(ArgumentationSystem((), ()))
            sets = evaluate(prepared, "preferred", mode).conclusion_sets
            assert [cs.formulas for cs in sets] == [frozenset()]

    def test_inconsistent_system_is_refused(self):
        bad = ArgumentationSystem(
            (strict_rule("s1", [], atom("a")), strict_rule("s2", [], neg("a"))), ()
        )
        with pytest.raises(InconsistentSystemError):
            evaluate(prepare(bad), "grounded", "deductive").conclusion_sets
        # explicit override still computes
        prepared = prepare(bad, require_consistent=False)
        sets = evaluate(prepared, "grounded", "deductive").conclusion_sets
        assert sets and formula_strings(sets[0].formulas) == ["a", "~a"]


class TestClosure:
    def test_tandem_deductive_sets_are_closed(self, tandem_system):
        for cs in conclusion_sets(tandem_system, "preferred", "deductive"):
            assert cs.postulates.closure is None

    def test_all_defeasibles_set_is_not_closed(self, tandem_system):
        pool = frozenset(
            {atom("hw"), atom("sw"), atom("tw"), atom("ht"), atom("st"), atom("tt")}
        )
        rule = verdicts(tandem_system, pool).closure
        assert rule is not None
        assert all(b in pool for b in rule.body) and rule.head not in pool

    def test_a_closure_is_closed(self, tandem_system):
        closed = reference.saturate((), tandem_system)
        assert verdicts(tandem_system, closed).closure is None


class TestDirectConsistency:
    def test_tandem_deductive_sets(self, tandem_system):
        for cs in conclusion_sets(tandem_system, "preferred", "deductive"):
            assert cs.postulates.direct_consistency is None

    def test_complementary_pair_is_witnessed(self):
        witness = verdicts(NO_RULES, {atom("a"), neg("a")}).direct_consistency
        assert witness == (atom("a"), neg("a"))

    def test_empty_set(self):
        assert verdicts(NO_RULES, frozenset()).direct_consistency is None


class TestIndirectConsistency:
    def test_tandem_deductive_sets(self, tandem_system):
        for cs in conclusion_sets(tandem_system, "preferred", "deductive"):
            assert cs.postulates.indirect_consistency is None

    def test_closure_smuggles_in_the_complement(self, tandem_system):
        pool = {atom("hw"), atom("sw"), atom("tw"), atom("ht"), atom("st"), atom("tt")}
        witness = verdicts(tandem_system, pool).indirect_consistency
        assert witness is not None
        phi, psi = witness
        assert psi == phi.negation()

    def test_without_strict_rules_it_reduces_to_direct(self):
        system = ArgumentationSystem((), (defeasible_rule("d1", [], atom("a")),))
        report = verdicts(system, {atom("a"), atom("b")})
        assert report.indirect_consistency is None

    def test_closure_and_direct_imply_indirect(self, tandem_system):
        for sem in ("grounded", "preferred", "stable", "complete"):
            for mode in ("aspic-minus", "deductive"):
                for cs in conclusion_sets(tandem_system, sem, mode):
                    report = cs.postulates
                    if report.closure is None and report.direct_consistency is None:
                        assert report.indirect_consistency is None


class TestWitnessRoundTrip:
    def test_witnesses_reproduce_their_violation(self, tandem_system):
        for cs in conclusion_sets(tandem_system, "preferred", "aspic-minus"):
            report = cs.postulates
            rule = report.closure
            if rule is not None:
                assert set(rule.body) <= cs.formulas and rule.head not in cs.formulas
            if report.indirect_consistency is not None:
                phi, psi = report.indirect_consistency
                closed = reference.saturate(cs.formulas, tandem_system)
                assert phi in closed and psi in closed


def holds_per_mode(prepared, semantics):
    """``evaluate(...).holds`` of each mode, by mode."""
    return {mode: evaluate(prepared, semantics, mode).holds for mode in MODES}


class TestModeContrast:
    def test_postulate_names_are_the_report_fields(self):
        assert POSTULATES == PostulateReport._fields == (
            "closure", "direct_consistency", "indirect_consistency",
        )

    def test_report_is_the_tuple_of_its_verdicts(self):
        witnesses = (None, "w", None)
        report = PostulateReport(*witnesses)
        assert report == witnesses and tuple(report) == witnesses
        assert report.direct_consistency == "w"
        assert not report.all_satisfied

    def test_tandem_preferred_contrast(self, tandem_system):
        holds = holds_per_mode(prepare(tandem_system), "preferred")
        assert holds == {"aspic-minus": (False, True, False), "deductive": (True, True, True)}
        differing = {
            p for p, a, d in zip(POSTULATES, holds["aspic-minus"], holds["deductive"]) if a != d
        }
        assert differing == {"closure", "indirect_consistency"}

    def test_tandem_grounded_modes_coincide(self, tandem_system):
        prepared = prepare(tandem_system)
        holds = holds_per_mode(prepared, "grounded")
        assert holds["aspic-minus"] == holds["deductive"]
        for mode in MODES:
            ev = evaluate(prepared, "grounded", mode)
            (cs,) = ev.conclusion_sets
            assert formula_strings(cs.formulas) == ["hw", "sw", "tw"]
            assert cs.postulates.all_satisfied

    def test_empty_system_trivially_satisfies_everything(self):
        holds = holds_per_mode(prepare(ArgumentationSystem((), ())), "stable")
        assert holds == {mode: (True, True, True) for mode in MODES}


class TestRandomSystem:
    def test_deterministic_for_a_seed(self):
        params = SystemParams(n_atoms=4, n_strict=3, n_defeasible=3)
        assert random_system(params, 1).system == random_system(params, 1).system

    def test_output_is_consistent_by_construction(self):
        params = SystemParams()
        for seed in range(50):
            assert strict_conflict(random_system(params, seed).system) is None

    def test_records_its_seed(self):
        generated = random_system(SystemParams(), 17)
        assert generated.seed == 17 and generated.attempts >= 1

    @pytest.mark.parametrize(
        "shape, message",
        [
            ({"n_atoms": 0}, "n_atoms must be at least 1, got 0"),
            ({"n_strict": -2}, "n_strict must be at least 0, got -2"),
            ({"undercut_density": 1.5}, "undercut_density must lie in [0, 1], got 1.5"),
        ],
    )
    def test_out_of_range_shape_names_the_field(self, shape, message):
        with pytest.raises(ValidationError) as error:
            SystemParams(**shape)
        assert str(error.value) == message

    def test_generation_failure_is_reported(self):
        # one atom and empty bodies admit only the strict rules ``-> p1``
        # and ``-> ~p1``, so every draw of two is inconsistent
        impossible = SystemParams(n_atoms=1, n_strict=2, n_defeasible=0, max_body=0)
        with pytest.raises(GenerationFailedError) as error:
            random_system(impossible, 0)
        assert error.value.attempts == GENERATION_RETRIES

    @pytest.mark.parametrize(
        "atoms, max_body, shapes", [(1, 0, 2), (1, 1, 6), (2, 0, 4), (1, 2, 14)],
    )
    def test_counts_up_to_the_distinct_rules_are_drawn(self, atoms, max_body, shapes):
        """``L * (1 + L + ... + L**max_body)`` distinct rules with ``L = 2 *
        atoms`` literals: as many are drawn, and one more is refused, before
        any draw, for either kind of rule."""
        shape = {"n_atoms": atoms, "max_body": max_body, "n_strict": 0}
        generated = random_system(SystemParams(**shape, n_defeasible=shapes), 1)
        assert len(generated.system.defeasible_rules) == shapes
        for field in ("n_strict", "n_defeasible"):
            counts = {"n_strict": 0, "n_defeasible": 0, field: shapes + 1}
            with pytest.raises(ValidationError) as error:
                SystemParams(n_atoms=atoms, max_body=max_body, **counts)
            assert str(error.value) == (
                f"{field} must be at most {shapes}, the distinct rules of n_atoms {atoms} "
                f"and max_body {max_body}, got {shapes + 1}"
            )

    def test_an_exhausted_rule_draw_starts_a_new_attempt(self):
        """The 14 distinct rules of one atom and ``max_body`` 2 can outlast
        a rule's 50 tries.  With no strict rule every system is consistent,
        so only such a draw makes a second attempt; seed 3 makes one."""
        shape = {"n_atoms": 1, "max_body": 2, "n_strict": 0, "undercut_density": 0}
        generated = random_system(SystemParams(**shape, n_defeasible=14), 3)
        assert generated.attempts == 2
        rules = generated.system.defeasible_rules
        assert len({(rule.body, rule.head) for rule in rules}) == len(rules) == 14

    def test_a_huge_max_body_is_checked_in_a_few_terms(self):
        # the sum stops after 4 of its 2 * 10**9 + 1 terms
        SystemParams(n_atoms=10**9, n_strict=10**30, n_defeasible=0, max_body=2 * 10**9)

    @pytest.mark.parametrize("atoms, max_body", [(1, 3), (1, 10**18), (4, 9)])
    def test_a_body_longer_than_the_literals_is_refused(self, atoms, max_body):
        """A body of more than the ``2 * n_atoms`` literals only repeats
        them, and drawing it takes time in ``max_body``: it is refused
        before any rule count is summed."""
        with pytest.raises(ValidationError) as error:
            SystemParams(n_atoms=atoms, max_body=max_body, n_strict=10**30)
        assert str(error.value) == (
            f"max_body must be at most {2 * atoms}, twice n_atoms {atoms}, got {max_body}"
        )

    def test_a_body_as_long_as_the_literals_is_drawn(self):
        generated = random_system(SystemParams(n_atoms=1, max_body=2, n_strict=1), 0)
        assert len(generated.system.strict_rules) == 1


class TestRandomJsbaf:
    def test_deterministic_for_a_seed(self):
        params = JsbafParams()
        assert random_jsbaf(params, 9) == random_jsbaf(params, 9)

    def test_respects_size_caps(self):
        params = JsbafParams(max_nodes=6, max_supports=2, max_support_size=2)
        for seed in range(30):
            j = random_jsbaf(params, seed)
            assert len(j.nodes) <= 6 and len(j.supports) <= 2
            assert all(len(src) <= 2 for src, _ in j.supports)

    @pytest.mark.parametrize(
        "shape, message",
        [
            ({"min_support_size": 4, "max_support_size": 3},
             "min_support_size must be at most max_support_size (3), got 4"),
            ({"max_nodes": 0}, "max_nodes must be at least 1, got 0"),
            ({"max_supports": -1}, "max_supports must be at least 0, got -1"),
            ({"max_support_size": -1}, "max_support_size must be at least 0, got -1"),
            ({"attack_prob": -0.5}, "attack_prob must lie in [0, 1], got -0.5"),
            ({"min_support_size": -2}, "min_support_size must be at least 0, got -2"),
            ({"min_support_size": 3, "max_nodes": 2},
             "min_support_size must be at most max_nodes (2), got 3"),
        ],
    )
    def test_out_of_range_shape_names_the_field(self, shape, message):
        with pytest.raises(ValidationError) as error:
            JsbafParams(**shape)
        assert str(error.value) == message

    def test_every_support_has_the_minimum_size(self):
        params = JsbafParams(min_support_size=3)
        for seed in range(200):
            j = random_jsbaf(params, seed)
            assert all(len(src) >= 3 for src, _ in j.support_ids), seed


class TestLiteralTableAgainstTheDefinitions:
    """Verdicts, closure and least pairs read off literal tables equal the
    definitions in ``tests/reference.py``, on random systems and random
    sets of their formulas and of formulas that no rule mentions."""

    @staticmethod
    def check(system, formulas):
        verdicts(system, formulas)
        table = LiteralTable(system.strict_rules, formulas.union(system.literal_table.literals))
        mask = table.mask(formulas)
        closure = reference.saturate(formulas, system)
        assert table.closure(mask)[0] == table.mask(closure)
        for subset in (formulas, closure):
            assert table.least_pair(table.mask(subset)) == reference.find_complement_pair(subset)

    @given(st.data(), systems())
    def test_the_shared_report_is_returned_when_all_hold(self, data, system):
        """``_verdicts`` returns ``ALL_HOLD`` exactly when all three
        verdicts hold, and otherwise a report of its own; both equal the
        definitions."""
        table = system.literal_table
        formulas = data.draw(st.frozensets(st.sampled_from(table.literals), max_size=6)
                             if table.literals else st.just(frozenset()))
        report = _verdicts(table, table.mask(formulas))
        assert report == reference.postulate_verdicts(system, formulas)
        all_hold = all(witness is None for witness in report)
        assert (report is ALL_HOLD) == all_hold

    def test_the_shared_report_equals_a_fresh_one(self):
        assert ALL_HOLD == PostulateReport(None, None, None)
        assert ALL_HOLD.all_satisfied and type(ALL_HOLD) is PostulateReport
        system = parse_system("strict s1: a -> b\nstrict s2: -> c\ndefeasible d1: a => ~c\n")
        table = system.literal_table
        assert _verdicts(table, table.mask([atom("b"), atom("c")])) is ALL_HOLD
        for violating in ([atom("a"), atom("c")], [atom("c"), neg("c")]):
            report = _verdicts(table, table.mask(violating))
            assert report is not ALL_HOLD and not report.all_satisfied

    @given(st.data(), systems())
    def test_random_sets(self, data, system):
        table = system.literal_table
        mentioned = table.literals
        pool = st.sampled_from(mentioned) | formula_st if mentioned else formula_st
        self.check(system, data.draw(st.frozensets(pool, max_size=6)))
        assert system.literal_table is table and table.literals == mentioned

    def test_formulas_no_rule_mentions(self):
        system = ArgumentationSystem((strict_rule("s1", [atom("a")], neg("b")),), ())
        for sys_, formulas in [
            (NO_RULES, {atom("a"), neg("a")}),
            (system, {atom("a"), atom("b"), atom("c"), neg("c")}),
            (system, {atom("a"), neg(neg("b"))}),
        ]:
            self.check(sys_, frozenset(formulas))


class TestOneClosurePerSet:
    """``evaluate`` computes the strict closure of each conclusion set once
    and derives both verdicts that read it from it."""

    def test_one_closure_per_conclusion_set(self, tandem_system, monkeypatch):
        import jsbaf.core as core

        tables, closures = [], []
        init, closure = core.LiteralTable.__init__, core.LiteralTable.closure

        def counted_init(self, *args):
            tables.append(1)
            init(self, *args)

        def counted_closure(self, mask):
            closures.append(1)
            return closure(self, mask)

        monkeypatch.setattr(core.LiteralTable, "__init__", counted_init)
        monkeypatch.setattr(core.LiteralTable, "closure", counted_closure)
        # A fresh system, so that no earlier test has built its table.
        system = ArgumentationSystem(
            tandem_system.strict_rules, tandem_system.defeasible_rules,
            tandem_system.undercut_names,
        )
        prepared = prepare(system)
        for semantics in ("complete", "preferred"):
            for mode in ("aspic-minus", "deductive"):
                closures.clear()
                ev = evaluate(prepared, semantics, mode)
                assert len(closures) == len(ev.conclusion_sets) > 1
        assert len(tables) == 1  # one table per system, from ``prepare`` on

    def test_verdicts_equal_their_definitions(self):
        params = SystemParams(n_atoms=4, n_strict=4, n_defeasible=4, undercut_density=0.3)
        violated = set()
        for seed in range(60):
            system = random_system(params, seed).system
            prepared = prepare(system)
            for mode in ("aspic-minus", "deductive"):
                ev = evaluate(prepared, "preferred", mode, max_nodes=200)
                for cs in ev.conclusion_sets:
                    report = cs.postulates
                    assert report == reference.postulate_verdicts(system, cs.formulas)
                    violated |= {
                        name for name in ("closure", "indirect_consistency")
                        if getattr(report, name) is not None
                    }
        assert violated == {"closure", "indirect_consistency"}


# ROADMAP item 7: the smallest system found, shrunk from a sweep.  The
# store prunes ``t7(A3)``, because ``~p5`` is on A3's branch, and with it the
# joint support ``{A3} => t7(A3)``.  Deductive complete, stable and preferred
# each return {A3}, whose conclusions {p4} are not closed under t7.
PRUNED_STRICT_APPLICATION = """\
atoms p4 p5
strict s2: p5 -> ~p4
strict s4: ~p5 -> p5
strict s5: ~p5 -> p4
strict t7: p4 -> ~p5
defeasible d1: => ~p5
"""


ADMISSIBLE = ("complete", "stable", "preferred")


def closure_per_semantics(system):
    """Whether deductive closure holds on every conclusion set, by semantics."""
    prepared = prepare(system)
    return {
        semantics: evaluate(prepared, semantics, "deductive", max_nodes=10**6).holds[0]
        for semantics in ADMISSIBLE
    }


PRUNED_STORE = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: a pruned strict application loses its joint support, "
    "so deductive closure fails on pruned argument stores",
)


class TestClosureOnPrunedStores:
    """The paper's closure theorem for deductive mode, on systems whose
    argument store is pruned.  They fail until item 7 is fixed."""

    @PRUNED_STORE
    def test_smallest_pruned_system(self):
        system = parse_system(PRUNED_STRICT_APPLICATION)
        assert construct_arguments(system).acyclicity_pruned
        assert closure_per_semantics(system) == dict.fromkeys(ADMISSIBLE, True)

    @PRUNED_STORE
    @pytest.mark.parametrize("seed", (40, 887))
    def test_random_pruned_systems(self, seed):
        system = random_system(SystemParams(6, 8, 8, undercut_density=0.3), seed).system
        assert construct_arguments(system).acyclicity_pruned
        assert closure_per_semantics(system) == dict.fromkeys(ADMISSIBLE, True)
