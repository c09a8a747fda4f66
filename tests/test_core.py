"""Formulas, complement, strict closure, system consistency."""

import copy
import pickle
import random
import sys
import threading
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

import reference

import jsbaf.core as core

from jsbaf import (
    ArgumentationSystem,
    DefeasibleRule,
    Formula,
    StrictRule,
    ValidationError,
    atom,
    complement,
    construct_arguments,
    neg,
    strict_rule,
)
from jsbaf.core import LiteralTable, strict_conflict

formulas = st.builds(Formula, st.sampled_from("abcd"), st.integers(0, 3))


class TestComplement:
    def test_atom_and_its_negation(self):
        assert complement(atom("a"), neg("a"))

    def test_negation_and_double_negation(self):
        assert complement(neg("a"), neg(neg("a")))

    def test_unrelated_atoms(self):
        assert not complement(atom("a"), atom("b"))

    def test_no_double_negation_elimination(self):
        # purely syntactic: ~~a is not the complement of a
        assert not complement(neg(neg("a")), atom("a"))

    @given(formulas, formulas)
    def test_symmetric(self, phi, psi):
        assert complement(phi, psi) == complement(psi, phi)

    @given(formulas)
    def test_irreflexive(self, phi):
        assert not complement(phi, phi)


rule_sets = st.lists(
    st.tuples(st.lists(formulas, max_size=2), formulas),
    max_size=6,
).map(
    lambda shapes: tuple(
        StrictRule(f"s{i}", tuple(body), head) for i, (body, head) in enumerate(shapes)
    )
)
formula_sets = st.frozensets(formulas, max_size=5)


def strict_closure(seed, rules) -> frozenset:
    """``LiteralTable.closure`` of ``seed``, on a table of the seed and the
    rules, after checking it against ``reference.saturate``."""
    table = LiteralTable(rules, seed)
    closed = table.closure(table.mask(seed))[0]
    expected = reference.saturate(seed, SimpleNamespace(strict_rules=rules))  # shapes may repeat
    assert closed == table.mask(expected)
    return expected


class TestStrictClosure:
    def test_tandem_two_rides_exclude_third(self, tandem_system):
        closed = strict_closure({atom("ht"), atom("st")}, tandem_system.strict_rules)
        assert neg("tt") in closed

    def test_tandem_empty_seed_fires_axioms_only(self, tandem_system):
        # by hand: only the three empty-body rules fire, then nothing else applies
        closed = strict_closure((), tandem_system.strict_rules)
        assert closed == {atom("hw"), atom("sw"), atom("tw")}

    def test_no_rules_is_identity(self):
        seed = {atom("a"), neg("b")}
        assert strict_closure(seed, ()) == seed

    @given(formula_sets, formula_sets, rule_sets)
    def test_monotone(self, small, extra, rules):
        big = small | extra
        assert strict_closure(small, rules) <= strict_closure(big, rules)

    @given(formula_sets, rule_sets)
    def test_idempotent(self, seed, rules):
        once = strict_closure(seed, rules)
        assert strict_closure(once, rules) == once

    @given(formula_sets, rule_sets)
    def test_extensive(self, seed, rules):
        assert seed <= strict_closure(seed, rules)


def _random_raw_system(seed: int) -> ArgumentationSystem:
    """Small system that may well be inconsistent; up to 8 rules."""
    rng = random.Random(seed)
    literals = [Formula(a, d) for a in "ab" for d in (0, 1)]
    shapes = set()
    strict, defeasible = [], []
    for i in range(rng.randint(0, 5)):
        body = tuple(rng.choice(literals) for _ in range(rng.randint(0, 2)))
        head = rng.choice(literals)
        if ("s", body, head) not in shapes:
            shapes.add(("s", body, head))
            strict.append(StrictRule(f"s{i}", body, head))
    for i in range(rng.randint(0, 3)):
        body = tuple(rng.choice(literals) for _ in range(rng.randint(0, 2)))
        head = rng.choice(literals)
        if ("d", body, head) not in shapes:
            shapes.add(("d", body, head))
            defeasible.append(DefeasibleRule(f"d{i}", body, head))
    return ArgumentationSystem(tuple(strict), tuple(defeasible))


class TestConsistency:
    def test_tandem_consistent(self, tandem_system):
        assert strict_conflict(tandem_system) is None

    def test_complementary_axioms_inconsistent(self):
        system = ArgumentationSystem(
            (strict_rule("s1", [], atom("a")), strict_rule("s2", [], neg("a"))), ()
        )
        assert strict_conflict(system) == (atom("a"), neg("a"))

    def test_no_strict_rules_always_consistent(self):
        system = ArgumentationSystem((), (DefeasibleRule("d1", (), atom("a")),))
        assert strict_conflict(system) is None

    @pytest.mark.parametrize("seed", range(200))
    def test_agrees_with_strict_argument_enumeration(self, seed):
        # oracle: enumerate all strict arguments, then pairwise complement checks
        system = _random_raw_system(seed)
        strict_only = ArgumentationSystem(system.strict_rules, ())
        conclusions = [a.conclusion for a in construct_arguments(strict_only).arguments]
        brute = not any(
            complement(x, y) for x in conclusions for y in conclusions
        )
        assert (strict_conflict(system) is None) == brute


def _f(text: str) -> Formula:
    """``~~a`` and the like as a formula."""
    atom_name = text.lstrip("~")
    return Formula(atom_name, len(text) - len(atom_name))


# Atoms that order differently as strings than by case, and negation depths
# up to 40.
deep_formulas = st.builds(
    Formula, st.sampled_from(["a", "b", "B", "a_1", "ab"]), st.integers(0, 40)
)


def least_pair(formulas) -> tuple | None:
    """``LiteralTable.least_pair`` of the set, on a table of the set alone."""
    return LiteralTable((), formulas).least_pair(-1)  # -1 holds every literal


class TestFindComplementPair:
    """The pair minimal in formula order, without sorting the set;
    ``reference.find_complement_pair`` sorts it."""

    @pytest.mark.parametrize(
        "texts, expected",
        [
            ([], None),
            (["a"], None),
            (["a", "~~a"], None),  # only one negation step counts
            (["a", "~a"], ("a", "~a")),
            (["~~a", "~a", "a"], ("a", "~a")),
            (["~~a", "~~~a", "~b", "b"], ("~~a", "~~~a")),  # atom first
            (["a", "~a", "B", "~B"], ("B", "~B")),  # "B" < "a"
            (["~~~~b", "~~~~~b", "~a", "~~~a"], ("~~~~b", "~~~~~b")),
            (["~" * 40 + "z", "~" * 39 + "z", "~" * 41 + "z"], ("~" * 39 + "z", "~" * 40 + "z")),
            (["a", "~a", "a", "~a"], ("a", "~a")),  # repeats
        ],
    )
    def test_table(self, texts, expected):
        formulas = [_f(t) for t in texts]
        pair = None if expected is None else (_f(expected[0]), _f(expected[1]))
        assert least_pair(formulas) == pair
        assert least_pair(iter(formulas)) == pair
        assert reference.find_complement_pair(formulas) == pair

    @given(st.lists(deep_formulas, max_size=30))
    def test_agrees_with_the_sorting_definition(self, formulas):
        expected = reference.find_complement_pair(formulas)
        assert least_pair(formulas) == expected
        assert least_pair(frozenset(formulas)) == expected

    def test_builds_only_the_pair_it_returns(self):
        # Atoms no other test builds, so that a formula built outside the
        # input (a negation of ~~~only_b, say) is a new intern entry.
        texts = ("~~only_c", "only_a", "~only_b", "~~only_b", "~~~only_b", "only_c")
        formulas = [_f(t) for t in texts]
        interned = len(core._INTERNED)
        pair = least_pair(formulas)
        assert pair == (_f("~only_b"), _f("~~only_b"))
        assert pair[0] is formulas[2] and pair[1] is formulas[3]
        assert len(core._INTERNED) == interned  # no formula outside the input
        assert least_pair(formulas[:2]) is None
        assert len(core._INTERNED) == interned

    @pytest.mark.parametrize("seed", range(200))
    def test_strict_conflict_is_the_least_pair_of_the_closure(self, seed):
        system = _random_raw_system(seed)
        closure = reference.saturate((), system)
        assert strict_conflict(system) == reference.find_complement_pair(closure)


class TestInterning:
    """One object per (atom, negations): equality and hashing by identity,
    order by (atom, negations), and the same object back from pickle and
    copy."""

    def test_equal_constructions_give_one_object(self):
        assert Formula("a", 1) is Formula("a", 1) is neg("a") is atom("a").negation()
        assert Formula("a") is Formula("a", 0) is atom("a")
        assert Formula("a") is not Formula("a", 1)
        assert len({Formula("a"), atom("a"), Formula("b")}) == 2

    def test_hash_and_equality_are_the_objects_own(self):
        phi = Formula("a", 2)
        assert type(phi).__hash__ is object.__hash__ and type(phi).__eq__ is object.__eq__
        assert hash(phi) == object.__hash__(phi)
        assert phi == Formula("a", 2) and phi != Formula("a", 1) and phi != Formula("b", 2)

    def test_a_formula_is_not_its_tuple(self):
        assert Formula("a") != ("a", 0)
        assert ("a", 0) != Formula("a")
        assert Formula("a") != "a"
        with pytest.raises(TypeError):
            Formula("a") < ("a", 0)

    @given(deep_formulas, deep_formulas)
    def test_order_is_atom_then_depth(self, phi, psi):
        key = (phi.atom, phi.negations), (psi.atom, psi.negations)
        assert (phi < psi) == (key[0] < key[1])
        assert (phi <= psi) == (key[0] <= key[1])
        assert (phi > psi) == (key[0] > key[1])
        assert (phi >= psi) == (key[0] >= key[1])
        assert (phi == psi) == (key[0] == key[1])

    def test_repr_and_str(self):
        assert repr(Formula("a")) == "Formula(atom='a', negations=0)"
        assert repr(Formula("tt", 2)) == "Formula(atom='tt', negations=2)"
        assert str(Formula("tt", 2)) == "~~tt"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_returns_the_interned_object(self, protocol):
        phi = Formula("a", 3)
        assert pickle.loads(pickle.dumps(phi, protocol)) is phi
        rule = strict_rule("s1", [phi, atom("b")], neg("c"))
        copy_of_rule = pickle.loads(pickle.dumps(rule, protocol))
        assert copy_of_rule == rule and copy_of_rule.body[0] is phi

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_system_pickles_with_its_literal_table(self, tandem_system, protocol):
        system = ArgumentationSystem(tandem_system.strict_rules, tandem_system.defeasible_rules)
        table = system.literal_table
        restored = pickle.loads(pickle.dumps(system, protocol))
        assert restored == system
        # The restored table holds the interned formulas, so it reads them.
        assert all(a is b for a, b in zip(restored.literal_table.literals, table.literals))
        assert restored.literal_table.mask(table.literals) == table.mask(table.literals)

    def test_copy_and_deepcopy_return_the_interned_object(self):
        phi = Formula("a", 3)
        assert copy.copy(phi) is phi and copy.deepcopy(phi) is phi
        assert copy.deepcopy([phi, {phi: phi}]) == [phi, {phi: phi}]
        assert copy.deepcopy([phi])[0] is phi

    def test_a_formula_is_immutable(self):
        phi = Formula("a")
        with pytest.raises(FrozenInstanceError):
            phi.atom = "b"
        with pytest.raises(FrozenInstanceError):
            phi.negations = 1
        with pytest.raises(FrozenInstanceError):
            del phi.atom
        assert phi is Formula("a") and phi.atom == "a" and phi.negations == 0

    def test_the_intern_table_grows_once_per_pair(self):
        Formula("grows_once", 0)
        size = len(core._INTERNED)
        for _ in range(3):
            assert Formula("grows_once", 0) is atom("grows_once")
        assert len(core._INTERNED) == size
        Formula("grows_once", 1)
        assert len(core._INTERNED) == size + 1

    def test_concurrent_construction_publishes_one_object(self):
        """Threads that build the same new formulas at once all get the
        object first published for each pair."""
        pairs = [(f"race_{i}", depth) for i in range(300) for depth in range(3)]
        workers = 8
        results = [None] * workers
        barrier = threading.Barrier(workers)

        def build(k):
            barrier.wait(timeout=30)
            results[k] = [Formula(name, depth) for name, depth in pairs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [Formula(name, depth) for name, depth in pairs] == results[0]
        for built in results:
            assert len(built) == len(pairs) and all(a is b for a, b in zip(built, results[0]))

    @pytest.mark.parametrize("name, negations", [("a-b", 0), ("refused", -1)])
    def test_a_refused_formula_is_not_interned(self, name, negations):
        size = len(core._INTERNED)
        for _ in range(2):  # refused again: nothing was kept
            with pytest.raises(ValidationError):
                Formula(name, negations)
        assert len(core._INTERNED) == size
        assert (name, negations) not in core._INTERNED

    @pytest.mark.parametrize(
        "name, negations", [("zz_float", 1.0), ("zz_bool", True), (5, 0), (b"a", 0)]
    )
    def test_a_formula_of_the_wrong_type_is_refused(self, name, negations):
        """A depth that only equals an int, or an atom that is no ``str``,
        is refused before it is interned: the pair built next with an int
        depth is built afresh."""
        size = len(core._INTERNED)
        with pytest.raises(ValidationError):
            Formula(name, negations)
        assert len(core._INTERNED) == size
        if name.__class__ is str:
            phi = Formula(name, 1)
            assert phi.negations.__class__ is int and str(phi) == "~" + name

    @pytest.mark.parametrize(
        "name, negations, message",
        [([1], 0, r"^atom name \[1\] is not an identifier$"),
         ("a", [1], r"^negation depth must be an int, got \[1\]$")],
    )
    def test_an_unhashable_atom_or_depth_is_refused(self, name, negations, message):
        size = len(core._INTERNED)
        with pytest.raises(ValidationError, match=message):
            Formula(name, negations)
        assert len(core._INTERNED) == size


class TestSystemValidation:
    def test_atoms_are_collected_once(self, monkeypatch):
        system = ArgumentationSystem(
            (strict_rule("s1", [atom("a")], neg("b")),),
            (DefeasibleRule("d1", (), atom("c")),),
            {"d1": neg(neg("n"))},
        )
        atoms = system.atoms
        assert atoms == frozenset({"a", "b", "c", "n"})
        # A later read walks no rule: it returns the set kept.
        monkeypatch.setattr(
            ArgumentationSystem, "strict_rules", property(lambda self: 1 / 0), raising=False
        )
        assert system.atoms is atoms

    def test_duplicate_rule_id_rejected(self):
        with pytest.raises(ValidationError):
            ArgumentationSystem(
                (strict_rule("r", [], atom("a")),),
                (DefeasibleRule("r", (), atom("b")),),
            )

    def test_duplicate_rule_shape_rejected(self):
        with pytest.raises(ValidationError, match="^rule 'r2' duplicates another rule of the same kind$"):
            ArgumentationSystem(
                (strict_rule("r1", [], atom("a")), strict_rule("r2", [], atom("a"))), ()
            )

    def test_each_rule_shape_is_hashed_once(self, monkeypatch):
        rules = (
            strict_rule("r1", [], atom("a")),
            strict_rule("r2", [atom("a"), neg("b")], atom("c")),
            DefeasibleRule("d1", (atom("c"),), neg("a")),
        )
        calls = []
        formula_hash = Formula.__hash__

        def counted(self):
            calls.append(self)
            return formula_hash(self)

        monkeypatch.setattr(Formula, "__hash__", counted)
        ArgumentationSystem(rules[:2], rules[2:])
        assert len(calls) == sum(len(rule.body) + 1 for rule in rules)

    def test_same_shape_in_both_kinds_allowed(self):
        ArgumentationSystem(
            (strict_rule("r1", [], atom("a")),), (DefeasibleRule("d1", (), atom("a")),)
        )

    def test_undercut_name_must_target_defeasible(self):
        with pytest.raises(ValidationError):
            ArgumentationSystem(
                (strict_rule("r1", [], atom("a")),), (), {"r1": atom("x")}
            )

    @pytest.mark.parametrize(
        "name, negations, message",
        [(name, 0, "is not an identifier") for name in ["é", "a-b", "a b", "1a", ""]]
        + [("a", -1, "negation depth must be non-negative")],
    )
    def test_invalid_formula_is_refused(self, name, negations, message):
        with pytest.raises(ValidationError, match=message):
            Formula(name, negations)

    @pytest.mark.parametrize("rule_id", ["r 1", "ré", "1r", ""])
    @pytest.mark.parametrize("kind", ["strict", "defeasible"])
    def test_rule_id_must_be_an_ascii_identifier(self, rule_id, kind):
        rule = (StrictRule if kind == "strict" else DefeasibleRule)(rule_id, (), atom("a"))
        rules = ((rule,), ()) if kind == "strict" else ((), (rule,))
        with pytest.raises(ValidationError, match="is not an identifier"):
            ArgumentationSystem(*rules)
