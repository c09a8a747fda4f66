"""Argument enumeration, attacks, and the two structured frameworks."""

import gc
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from jsbaf import (
    ArgumentationSystem,
    AttackWitness,
    LimitExceededError,
    SystemParams,
    atom,
    attack_witnesses,
    construct_arguments,
    defeasible_rule,
    neg,
    parse_system,
    prepare,
    print_system,
    random_system,
    strict_rule,
)
from jsbaf import arguments as arguments_module
from jsbaf.arguments import Argument
from jsbaf.cli import main

import reference
from conftest import pruned_join_rules, tandem_rules, wide_join_rules

TANDEM_FORMS = [
    "A1: -> hw",
    "A2: -> sw",
    "A3: -> tw",
    "A4: A1 => ht",
    "A5: A2 => st",
    "A6: A3 => tt",
    "A7: A5,A6 -> ~ht",
    "A8: A6,A4 -> ~st",
    "A9: A4,A5 -> ~tt",
]

TANDEM_ATTACKS = {
    ("A7", "A4"), ("A4", "A7"),
    ("A8", "A5"), ("A5", "A8"),
    ("A9", "A6"), ("A6", "A9"),
    ("A7", "A8"), ("A8", "A7"),
    ("A8", "A9"), ("A9", "A8"),
    ("A9", "A7"), ("A7", "A9"),
}

TANDEM_SUPPORTS = {
    (frozenset(), "A1"),
    (frozenset(), "A2"),
    (frozenset(), "A3"),
    (frozenset({"A5", "A6"}), "A7"),
    (frozenset({"A6", "A4"}), "A8"),
    (frozenset({"A4", "A5"}), "A9"),
}


class TestEnumeration:
    def test_tandem_yields_the_nine_arguments(self, tandem_store):
        assert [a.form for a in tandem_store.arguments] == TANDEM_FORMS
        assert [repr(a) for a in tandem_store.arguments] == [f"<{f}>" for f in TANDEM_FORMS]
        assert not tandem_store.acyclicity_pruned

    def test_empty_system_yields_nothing(self):
        store = construct_arguments(ArgumentationSystem((), ()))
        assert len(store) == 0

    def test_axiom_plus_defeasible_step(self):
        system = ArgumentationSystem(
            (strict_rule("r1", [], atom("a")),),
            (defeasible_rule("d1", [atom("a")], atom("b")),),
        )
        store = construct_arguments(system)
        assert [a.form for a in store.arguments] == ["A1: -> a", "A2: A1 => b"]
        assert store.arguments[1].structure == "((-> a) => b)"

    def test_store_closed_under_sub_arguments(self, tandem_store):
        stored = set(tandem_store.arguments)
        for arg in tandem_store.arguments:
            assert reference.sub_arguments(arg) <= stored

    def test_enumeration_is_deterministic(self, tandem_system):
        first = construct_arguments(tandem_system)
        second = construct_arguments(tandem_system)
        assert [a.form for a in first.arguments] == [a.form for a in second.arguments]
        assert [a.compact for a in first.arguments] == [a.compact for a in second.arguments]

    def test_cyclic_rules_stay_finite_and_flag_pruning(self):
        system = ArgumentationSystem(
            (strict_rule("r1", [], atom("a")), strict_rule("r2", [atom("a")], atom("a"))), ()
        )
        store = construct_arguments(system)
        # branch-repetition restriction blocks r2 over (-> a)
        assert [a.form for a in store.arguments] == ["A1: -> a"]
        assert store.acyclicity_pruned

    def test_limit_exceeded_on_explosive_system(self):
        rules = [strict_rule(f"s{i}", [], atom(f"a{i}")) for i in range(5)]
        with pytest.raises(LimitExceededError):
            construct_arguments(ArgumentationSystem(tuple(rules), ()), 3)

    def test_limit_stops_before_building_every_candidate(self):
        # 150 arguments, then 810k candidates at the next depth; the cap is
        # reached after the first 96 of them
        system = parse_system(wide_join_rules())
        with pytest.raises(LimitExceededError) as info:
            construct_arguments(system, 245)
        assert info.value.limit == 245

    def test_a_round_forms_no_candidate_of_its_own_arguments(self, monkeypatch):
        # round 2 makes 40 more arguments for p; had they joined p's pool in
        # that round, c would form 41 ** 4 = 2,825,761 candidates there and
        # keep one.  Round 3 forms 4,920, the last of which meets the cap.
        lines = ["strict a: -> p"]
        for i in range(1, 41):
            lines += [f"strict y{i}: -> q{i}", f"strict b{i}: q{i} -> p"]
        lines.append("strict c: p, p, p, p -> w")
        system = parse_system("\n".join(lines) + "\n")
        formed = 0

        def product(*pools):
            nonlocal formed
            for subs in itertools.product(*pools):
                formed += 1
                yield subs

        monkeypatch.setattr(arguments_module, "itertools", SimpleNamespace(product=product))
        with pytest.raises(LimitExceededError):
            construct_arguments(system)
        assert formed < 5000

    def test_pruned_candidates_are_never_built(self, tmp_path):
        # 28 ** 6 candidates of s4, each repeating q on a branch: pruning
        # them one by one takes minutes, dropping the pools' members that
        # hold q takes one filter per pool
        rules = tmp_path / "pruned.rules"
        rules.write_text(pruned_join_rules(6))
        env = {**os.environ, "PYTHONPATH": str(SEED38_PATH.parents[1] / "src")}
        result = subprocess.run(
            [sys.executable, "-m", "jsbaf.cli", "eval", "--file", str(rules),
             "--semantics", "grounded"],
            env=env, capture_output=True, text=True, timeout=20, check=True,
        )
        enumeration = json.loads(result.stdout)["enumeration"]
        assert (enumeration["count"], enumeration["acyclicity_pruned"]) == (30, True)

    def test_ordinals_follow_depth_rule_id_and_sub_ordinals(self):
        # round d creates the arguments of depth d in the order it finds
        # them, which must be the (depth, rule id, sub ordinals) order
        # without a sort
        wide = SystemParams(8, 10, 10, max_body=3, undercut_density=0.4)
        systems = [random_system(SystemParams(6, 6, 6), seed).system for seed in range(200)]
        systems += [random_system(wide, seed).system for seed in range(100)]
        systems += [parse_system(tandem_rules(n, k)) for n in range(2, 8) for k in range(1, n)]
        for system in systems:
            keys = [
                (reference.depth(a), a.rule.id, tuple(s.ordinal for s in a.subs))
                for a in construct_arguments(system).arguments
            ]
            assert all(a < b for a, b in zip(keys, keys[1:])), print_system(system)

    def test_store_equals_the_naive_fixpoint(self):
        """Every argument, once, and the pruning flag, as the naive fixpoint
        finds them, though each round skips the rules that can make nothing."""
        wide = SystemParams(8, 10, 10, max_body=3, undercut_density=0.4)
        systems = [random_system(SystemParams(6, 6, 6), seed).system for seed in range(200)]
        systems += [random_system(wide, seed).system for seed in range(40)]
        systems += [parse_system(tandem_rules(n, k)) for n in range(2, 6) for k in range(1, n)]
        systems.append(parse_system(SEED38_PATH.read_text()))
        systems.append(parse_system(pruned_join_rules(3)))
        for system in systems:
            store = construct_arguments(system)
            structures = [arg.structure for arg in store.arguments]
            assert len(set(structures)) == len(structures)
            got = (set(structures), store.acyclicity_pruned)
            assert got == reference.argument_structures(system), print_system(system)

    def test_defeasibility_is_inherited(self, tandem_store):
        by_id = {a.canonical_id: a for a in tandem_store.arguments}
        assert not by_id["A1"].defeasible
        assert by_id["A4"].defeasible
        # strict top rule over defeasible subs stays defeasible
        assert by_id["A7"].top_rule_strict and by_id["A7"].defeasible


SEED38_PATH = Path(__file__).resolve().parents[1] / "bench" / "seed38.rules"


class TestMasks:
    """Each argument's ``sub_mask`` and ``branch_mask`` are the masks of
    its sub-arguments and of their conclusions, read off the tree by
    ``reference.sub_arguments``."""

    @staticmethod
    def check(store):
        table = store.system.literal_table
        for arg in store.arguments:
            subs = reference.sub_arguments(arg)
            assert arg.sub_mask == sum(1 << sub.ordinal for sub in subs), arg
            assert arg.branch_mask == table.mask([sub.conclusion for sub in subs]), arg

    def test_tandem(self, tandem_store):
        self.check(tandem_store)

    def test_seed_38(self):
        self.check(construct_arguments(parse_system(SEED38_PATH.read_text())))

    def test_random_systems(self):
        for seed in range(200):
            self.check(construct_arguments(random_system(SystemParams(6, 6, 6), seed).system))

    def test_dropping_a_store_frees_its_arguments(self):
        """No argument refers to itself, so the arguments of a store go with
        its last reference, with the cycle collector off."""
        def count():
            return sum(isinstance(o, Argument) for o in gc.get_objects())

        gc.collect()
        gc.disable()
        try:
            before = count()
            store = construct_arguments(parse_system(tandem_rules(5, 3)))
            assert count() == before + len(store) == before + 30
            del store
            assert count() == before
        finally:
            gc.enable()


def test_defeasibility_follows_its_definition(tandem_store):
    """``defeasible``, gathered with the sub masks, equals its recursive
    definition."""
    stores = [tandem_store, construct_arguments(parse_system(SEED38_PATH.read_text()))]
    stores += [
        construct_arguments(random_system(SystemParams(6, 6, 6), seed).system) for seed in range(200)
    ]
    for store in stores:
        for arg in store.arguments:
            weak = not arg.top_rule_strict or any(sub.defeasible for sub in arg.subs)
            assert arg.defeasible == weak, arg


class TestStructure:
    """``Argument.form`` and ``Argument.structure`` are built once per
    argument, from its subs' strings; they equal the form and the tree
    rebuilt from every sub-argument."""

    @staticmethod
    def _systems():
        yield parse_system(tandem_rules(8, 3))
        for seed in range(50):
            yield random_system(SystemParams(6, 6, 6), seed).system

    def test_structure_is_the_expanded_tree(self):
        for system in self._systems():
            store = construct_arguments(system)
            # read from the deepest argument down, and again
            for arg in reversed(store.arguments):
                assert arg.form == reference.form(arg)
                assert arg.structure == reference.structure(arg)
                assert arg.structure is arg.structure

    def test_arguments_command_prints_the_expanded_tree(self, capsys, tmp_path):
        rules = tmp_path / "system.rules"
        for system in self._systems():
            rules.write_text(print_system(system))
            assert main(["arguments", "--file", str(rules)]) == 0
            store = construct_arguments(system)
            expected = [
                f"{a.canonical_id} = {a.compact}  |  {a.form}  |  {reference.structure(a)}"
                for a in store.arguments
            ]
            if store.acyclicity_pruned:
                expected.append("# note: enumeration pruned repeated-conclusion branches")
            assert capsys.readouterr().out.splitlines() == expected


class TestUndercut:
    def test_tandem_has_no_undercuts(self, tandem_system, tandem_store):
        # n is empty, so no undercut can exist
        for a in tandem_store.arguments:
            for b in tandem_store.arguments:
                assert reference.undercuts(a, b, tandem_system) == ()

    def test_named_rule_is_undercut(self):
        system = ArgumentationSystem(
            (strict_rule("r1", [], atom("a")), strict_rule("r2", [], neg("ok"))),
            (defeasible_rule("d1", [atom("a")], atom("b")),),
            {"d1": atom("ok")},
        )
        store = construct_arguments(system)
        by_conc = {str(a.conclusion): a for a in store.arguments}
        attacker, target = by_conc["~ok"], by_conc["b"]
        assert [s.canonical_id for s in reference.undercuts(attacker, target, system)] == [
            target.canonical_id
        ]

    def test_strict_argument_is_never_undercut(self):
        system = ArgumentationSystem(
            (strict_rule("r1", [], atom("a")),), (), {}
        )
        store = construct_arguments(system)
        (a,) = store.arguments
        assert reference.undercuts(a, a, system) == ()


class TestRebuttal:
    def test_tandem_mutual_rebuttal_on_the_conclusion(self, tandem_store):
        by_id = {a.canonical_id: a for a in tandem_store.arguments}
        rebuts = reference.rebuts_unrestricted
        assert [s.canonical_id for s in rebuts(by_id["A7"], by_id["A4"])] == ["A4"]
        assert [s.canonical_id for s in rebuts(by_id["A4"], by_id["A7"])] == ["A7"]

    def test_rebuttal_lands_on_a_sub_argument(self, tandem_store):
        by_id = {a.canonical_id: a for a in tandem_store.arguments}
        hits = reference.rebuts_unrestricted(by_id["A8"], by_id["A7"])
        assert [s.canonical_id for s in hits] == ["A5"]

    def test_strict_targets_cannot_be_rebutted(self):
        system = ArgumentationSystem(
            (strict_rule("r1", [], atom("hw")), strict_rule("r2", [], neg("hw"))), ()
        )
        store = construct_arguments(system)
        by_conc = {str(a.conclusion): a for a in store.arguments}
        assert reference.rebuts_unrestricted(by_conc["~hw"], by_conc["hw"]) == ()


def pairwise_witnesses(store):
    """The definition of ``attack_witnesses``: a double loop over every
    (attacker, target) pair."""
    out = []
    for a in store.arguments:
        for b in store.arguments:
            for sub in reference.undercuts(a, b, store.system):
                out.append(AttackWitness(a.canonical_id, b.canonical_id, "undercut", sub.canonical_id))
            for sub in reference.rebuts_unrestricted(a, b):
                out.append(AttackWitness(a.canonical_id, b.canonical_id, "rebut", sub.canonical_id))
    return out


NESTED_NEGATIONS = """
strict s1: -> p
strict s2: ~~q -> ~r
defeasible d1: p => ~q
defeasible d2: p => ~~q
defeasible d3: ~~q => ~~~q
defeasible d4: p => q
defeasible d5: p => r
defeasible d6: p => ~~~n
defeasible d7: q => ~n
defeasible d8: ~r => ~~n
name d2 = ~~n
name d5 = n
"""


class TestIndexedAttackWitnesses:
    """``attack_witnesses`` finds its witnesses through indexes; it must
    list exactly the pairwise definition's witnesses, in the same order."""

    def test_tandem(self, tandem_store):
        assert list(attack_witnesses(tandem_store)) == pairwise_witnesses(tandem_store)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, n)])
    def test_generalised_tandem(self, n, k):
        store = construct_arguments(parse_system(tandem_rules(n, k)))
        assert list(attack_witnesses(store)) == pairwise_witnesses(store)

    def test_nested_negations(self):
        store = construct_arguments(parse_system(NESTED_NEGATIONS))
        witnesses = list(attack_witnesses(store))
        assert witnesses == pairwise_witnesses(store)
        assert {w.kind for w in witnesses} == {"undercut", "rebut"}

    def test_undercut_names_at_depth_two(self):
        """A name ``~~a`` is attacked by ``~a`` and by ``~~~a``, not by ``a``
        or by ``~~a`` itself."""
        store = construct_arguments(parse_system(
            "strict s1: -> p\n"
            "defeasible d1: p => q\n"
            "defeasible d2: p => ~a\n"
            "defeasible d3: p => ~~~a\n"
            "defeasible d4: p => a\n"
            "defeasible d5: p => ~~a\n"
            "name d1 = ~~a\n"
        ))
        witnesses = list(attack_witnesses(store))
        assert witnesses == pairwise_witnesses(store)
        conclusion = {arg.canonical_id: str(arg.conclusion) for arg in store.arguments}
        undercutters = {conclusion[w.attacker] for w in witnesses if w.kind == "undercut"}
        assert undercutters == {"~a", "~~~a"}

    def test_a_name_that_is_the_complement_of_its_own_head(self):
        """An argument whose top rule is named ``~a`` and concludes ``a``
        undercuts itself, and every argument built on it."""
        store = construct_arguments(parse_system(
            "strict s1: -> p\n"
            "defeasible d1: p => a\n"
            "strict s2: a -> b\n"
            "name d1 = ~a\n"
        ))
        witnesses = list(attack_witnesses(store))
        assert witnesses == pairwise_witnesses(store)
        (own,) = [arg.canonical_id for arg in store.arguments if arg.rule.id == "d1"]
        (above,) = [arg.canonical_id for arg in store.arguments if arg.rule.id == "s2"]
        assert witnesses == [
            AttackWitness(own, own, "undercut", own), AttackWitness(own, above, "undercut", own),
        ]

    def test_arguments_both_rebuttable_and_undercuttable(self):
        """``~q`` both undercuts (the name ``~~q``) and rebuts the argument
        for ``q``, on the same sub-argument: the undercut comes first."""
        store = construct_arguments(parse_system(
            "strict s1: -> p\n"
            "defeasible d1: p => q\n"
            "defeasible d2: p => ~q\n"
            "defeasible d3: p => ~n\n"
            "strict s2: q -> r\n"
            "defeasible d4: r => n\n"
            "name d1 = ~~q\n"
            "name d4 = ~~n\n"
        ))
        witnesses = list(attack_witnesses(store))
        assert witnesses == pairwise_witnesses(store)
        by_rule = {arg.rule.id: arg.canonical_id for arg in store.arguments}
        on_q = [(w.kind, w.target) for w in witnesses
                if w.attacker == by_rule["d2"] and w.on == by_rule["d1"]]
        assert on_q[:2] == [("undercut", by_rule["d1"]), ("rebut", by_rule["d1"])]
        assert {w.kind for w in witnesses if w.target == by_rule["d4"]} == {"undercut", "rebut"}

    def test_random_systems_with_undercuts(self):
        params = SystemParams(n_atoms=4, n_strict=6, n_defeasible=8, undercut_density=0.6)
        kinds = set()
        for seed in range(100):
            store = construct_arguments(random_system(params, seed).system)
            witnesses = list(attack_witnesses(store))
            assert witnesses == pairwise_witnesses(store), f"seed {seed}"
            kinds |= {w.kind for w in witnesses}
        assert kinds == {"undercut", "rebut"}


class TestGroupedAttackWitnesses:
    """``attack_witnesses`` keeps one hits tuple per conclusion."""

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
    def test_same_conclusion_shares_one_hits_object(self, n, k):
        store = construct_arguments(parse_system(tandem_rules(n, k)))
        hits_of = {}
        for attacker, hits in attack_witnesses(store).groups:
            assert hits_of.setdefault(store.arguments[attacker].conclusion, hits) is hits
        assert len(hits_of) < len(attack_witnesses(store).groups)

    def test_len_is_the_witness_count(self):
        params = SystemParams(n_atoms=4, n_strict=6, n_defeasible=8, undercut_density=0.6)
        for seed in range(20):
            store = construct_arguments(random_system(params, seed).system)
            witnesses = attack_witnesses(store)
            assert len(witnesses) == len(list(witnesses)) == len(pairwise_witnesses(store))

    def test_attackers_with_the_same_hits_share_one_row(self):
        system = parse_system(tandem_rules(6, 3))
        prepared = prepare(system)
        rows = {}
        for attacker, hits in prepared.witnesses.groups:
            node = prepared.store.node_number[attacker]
            assert prepared.af.labels[node] == prepared.store.arguments[attacker].canonical_id
            row = prepared.af.target_ids[node]
            assert isinstance(row, tuple) and rows.setdefault(id(hits), row) is row

    @pytest.mark.parametrize("fmt", ("json", "text"))
    @pytest.mark.parametrize("mode", ("aspic-minus", "deductive"))
    def test_eval_builds_no_attack_witness(self, monkeypatch, capsys, tmp_path, mode, fmt):
        def refuse(*args):
            raise AssertionError("an AttackWitness was built")

        rules = tmp_path / "tandem.rules"
        rules.write_text(tandem_rules(5, 3))
        monkeypatch.setattr("jsbaf.arguments.AttackWitness", refuse)
        argv = ["eval", "--file", str(rules), "--semantics", "grounded", "--mode", mode]
        assert main([*argv, "--report", fmt]) in (0, 1)
        assert "attack" in capsys.readouterr().out
        with pytest.raises(AssertionError, match="an AttackWitness was built"):
            list(prepare(parse_system(rules.read_text())).witnesses)


class TestFrameworkConstruction:
    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, n)])
    def test_attacks_are_the_witness_pairs(self, n, k):
        system = parse_system(tandem_rules(n, k))
        prepared = prepare(system)
        store, af = prepared.store, prepared.af
        assert {(s.label, d.label) for s, d in af.attacks} == {
            (w.attacker, w.target) for w in attack_witnesses(store)
        }
        assert [n.label for n in af.node_table] == sorted(a.canonical_id for a in store.arguments)
        assert [store.arguments[o].canonical_id for o in store.node_order] == af.labels

    def test_jsbaf_shares_the_af_attack_relation(self, tandem_system):
        prepared = prepare(tandem_system)
        af, j = prepared.af, prepared.jsbaf
        assert j.node_table is af.node_table and j.target_ids is af.target_ids
        assert j == prepare(tandem_system).jsbaf

    def test_tandem_af_is_the_six_mutual_pairs(self, tandem_system):
        af = prepare(tandem_system).af
        assert {(s.label, d.label) for s, d in af.attacks} == TANDEM_ATTACKS
        assert len(af.nodes) == 9

    def test_empty_system_gives_empty_af(self):
        af = prepare(ArgumentationSystem((), ())).af
        assert not af.nodes and not af.attacks

    def test_axiom_rebuts_defeasible_conclusion(self):
        system = ArgumentationSystem(
            (strict_rule("r1", [], atom("a")), strict_rule("r2", [], neg("b"))),
            (defeasible_rule("d1", [atom("a")], atom("b")),),
        )
        af = prepare(system).af
        store = construct_arguments(system)
        by_conc = {str(a.conclusion): a.canonical_id for a in store.arguments}
        assert {(s.label, d.label) for s, d in af.attacks} == {
            (by_conc["~b"], by_conc["b"])
        }

    def test_tandem_jsbaf_supports(self, tandem_system):
        j = prepare(tandem_system).jsbaf
        got = {(frozenset(n.label for n in src), dst.label) for src, dst in j.supports}
        assert got == TANDEM_SUPPORTS

    def test_defeasible_only_system_has_no_supports(self):
        system = ArgumentationSystem((), (defeasible_rule("d1", [], atom("a")),))
        assert prepare(system).jsbaf.supports == frozenset()

    def test_strict_chain_supports(self):
        system = ArgumentationSystem(
            (strict_rule("r1", [], atom("a")), strict_rule("r2", [atom("a")], atom("b"))), ()
        )
        j = prepare(system).jsbaf
        got = {(frozenset(n.label for n in src), dst.label) for src, dst in j.supports}
        assert got == {(frozenset(), "A1"), (frozenset({"A1"}), "A2")}

    def test_modes_agree_on_nodes_and_attacks(self, tandem_system):
        af = prepare(tandem_system).af
        j = prepare(tandem_system).jsbaf
        assert af.nodes == j.nodes and af.attacks == j.attacks

    def test_support_sources_match_rule_bodies(self, tandem_system, tandem_store):
        j = prepare(tandem_system).jsbaf
        by_id = {a.canonical_id: a for a in tandem_store.arguments}
        for src, dst in j.supports:
            target = by_id[dst.label]
            assert target.top_rule_strict
            assert {by_id[n.label].conclusion for n in src} == set(target.rule.body)


def test_attack_targets_are_defeasible(tandem_system, tandem_store):
    af = prepare(tandem_system).af
    by_id = {a.canonical_id: a for a in tandem_store.arguments}
    for _, dst in af.attacks:
        assert by_id[dst.label].defeasible
