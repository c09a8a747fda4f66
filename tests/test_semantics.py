"""Extension engine: textbook cases, worked frameworks, oracle agreement."""

import collections
import json
import random
from pathlib import Path

import pytest

from jsbaf import (
    AF,
    SEMANTICS,
    JsbafParams,
    SearchLimitExceededError,
    SystemParams,
    ValidationError,
    bar,
    base,
    brute_force_extensions,
    construct_arguments,
    e_node,
    evaluate,
    extension_ids,
    extensions,
    flatten_simplified,
    is_conflict_free_jsbaf,
    is_deductive_extension,
    is_meta,
    jsbaf_extensions,
    parse_system,
    prepare,
    random_jsbaf,
    random_system,
)
import reference
from jsbaf import postulates as postulates_module
from jsbaf import semantics as semantics_module
from jsbaf.cli import main
from jsbaf.oracle import ORACLE_NODE_CAP
from conftest import (
    TANDEM_PATH,
    assert_sound_extensions,
    labelled_extensions,
    node_labels,
    random_af,
    tandem_rules,
)
from ilp import ilp_extension_ids


def chain(*labels):
    """a -> b -> c ... attack chain."""
    nodes = [base(l) for l in labels]
    return AF(frozenset(nodes), frozenset(zip(nodes, nodes[1:])))


def two_cycle():
    a, b = base("a"), base("b")
    return AF(frozenset({a, b}), frozenset({(a, b), (b, a)}))


@pytest.fixture
def tandem_flat(tandem_system):
    return flatten_simplified(prepare(tandem_system).jsbaf)


E1 = ["A1", "A2", "A3", "A4", "A5", "A9", "bar(A6)", "e(A4,A8)", "e(A5,A7)"]
E2 = ["A1", "A2", "A3", "A4", "A6", "A8", "bar(A5)", "e(A4,A9)", "e(A6,A7)"]
E3 = ["A1", "A2", "A3", "A5", "A6", "A7", "bar(A4)", "e(A5,A9)", "e(A6,A8)"]


class TestConflictFreeAndDefence:
    def test_internal_attack(self):
        af = chain("a", "b")
        assert not reference.is_conflict_free(af, {base("a"), base("b")})

    def test_empty_set_is_conflict_free(self):
        assert reference.is_conflict_free(chain("a", "b"), set())

    def test_preferred_extension_of_the_flattened_tandem(self, tandem_flat):
        assert reference.is_conflict_free(tandem_flat, _nodes(E1))

    def test_reinstatement(self):
        af = chain("a", "b", "c")
        assert reference.defends(af, {base("a")}, base("c"))

    def test_empty_set_defends_nothing_attacked(self):
        assert not reference.defends(chain("a", "b"), set(), base("b"))

    def test_e_node_defended_inside_extension(self, tandem_flat):
        members = _nodes(E1)
        target = next(n for n in members if n.label == "e(A5,A7)")
        assert reference.defends(tandem_flat, members, target)


def _nodes(labels):
    """Rebuild NodeIds from their printed labels (tandem vocabulary only)."""
    from jsbaf import bar, e_node

    out = []
    for text in labels:
        if text.startswith("bar("):
            out.append(bar(base(text[4:-1])))
        elif text.startswith("e("):
            out.append(e_node(base(m) for m in text[2:-1].split(",")))
        else:
            out.append(base(text))
    return frozenset(out)


class TestGrounded:
    def test_chain_reinstates(self):
        assert node_labels(extensions(chain("a", "b", "c"), "grounded")[0]) == ["a", "c"]

    def test_two_cycle_grounds_to_nothing(self):
        assert extensions(two_cycle(), "grounded")[0] == frozenset()

    def test_tandem_attack_framework(self, tandem_system):
        af = prepare(tandem_system).af
        got = extensions(af, "grounded")[0]
        assert node_labels(got) == ["A1", "A2", "A3"]
        assert [got] == brute_force_extensions(af, "grounded")


class TestComplete:
    def test_two_cycle(self):
        assert labelled_extensions(extensions(two_cycle(), "complete")) == [[], ["a"], ["b"]]

    def test_empty_framework(self):
        assert extensions(AF(frozenset(), frozenset()), "complete") == [frozenset()]

    def test_chain_has_a_single_complete_extension(self):
        af = chain("a", "b", "c")
        got = extensions(af, "complete")
        assert labelled_extensions(got) == [["a", "c"]]
        assert got == brute_force_extensions(af, "complete")


class TestStable:
    def test_odd_cycle_has_no_stable_extension(self):
        a, b, c = base("a"), base("b"), base("c")
        af = AF(frozenset({a, b, c}), frozenset({(a, b), (b, c), (c, a)}))
        assert extensions(af, "stable") == []

    def test_two_cycle(self):
        assert labelled_extensions(extensions(two_cycle(), "stable")) == [["a"], ["b"]]

    def test_flattened_tandem(self, tandem_flat):
        assert labelled_extensions(extensions(tandem_flat, "stable")) == [E1, E2, E3]


class TestPreferred:
    def test_flattened_tandem(self, tandem_flat):
        assert labelled_extensions(extensions(tandem_flat, "preferred")) == [E1, E2, E3]

    def test_two_cycle(self):
        assert labelled_extensions(extensions(two_cycle(), "preferred")) == [["a"], ["b"]]

    def test_tandem_attack_framework_accepts_all_defeasibles(self, tandem_system):
        af = prepare(tandem_system).af
        got = extensions(af, "preferred")
        assert ["A1", "A2", "A3", "A4", "A5", "A6"] in labelled_extensions(got)
        assert got == brute_force_extensions(af, "preferred")


class TestSearchLimit:
    """``evaluate`` checks the node bound right before the search; grounded
    is a polynomial fixpoint and is never refused."""

    def test_node_bound_is_enforced(self, tandem_system, capsys):
        for mode, nodes in (("aspic-minus", 9), ("deductive", 21)):
            argv = ["eval", "--file", str(TANDEM_PATH), "--mode", mode, "--max-nodes", "5"]
            for sem in ("complete", "stable", "preferred"):
                with pytest.raises(SearchLimitExceededError) as err:
                    evaluate(prepare(tandem_system), sem, mode, max_nodes=5)
                assert str(err.value) == f"framework has {nodes} nodes, above the search bound 5"
                assert main([*argv, "--semantics", sem]) == 3
                error = json.loads(capsys.readouterr().out)["error"]
                assert (error["type"], error["nodes"], error["bound"]) == (
                    "SearchLimitExceededError", nodes, 5
                )
            ev = evaluate(prepare(tandem_system), "grounded", mode, max_nodes=5)
            assert (len(ev.extensions), ev.search_calls) == (1, 0)
            assert main([*argv, "--semantics", "grounded"]) in (0, 1)
            assert json.loads(capsys.readouterr().out)["status"] == "ok"

    @pytest.mark.parametrize(
        "semantics, mode, message",
        [
            ("semi-stable", "deductive", "unknown semantics 'semi-stable'"),
            ("preferred", "bipolar", "unknown mode 'bipolar'"),
        ],
    )
    def test_evaluate_rejects_unknown_names_before_any_search(
        self, tandem_system, monkeypatch, semantics, mode, message
    ):
        def no_search(*args):
            raise AssertionError("searched under an unknown name")

        monkeypatch.setattr(postulates_module, "extension_search", no_search)
        with pytest.raises(ValueError, match=message):
            evaluate(prepare(tandem_system), semantics, mode, max_nodes=5)

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ValueError):
            extensions(AF(frozenset(), frozenset()), "semi-stable")
        with pytest.raises(ValueError, match="unknown semantics 'semi-stable'"):
            brute_force_extensions(AF(frozenset(), frozenset()), "semi-stable")


class TestJsbafExtensions:
    def test_tandem_preferred_projections(self, tandem_system):
        j = prepare(tandem_system).jsbaf
        assert labelled_extensions(jsbaf_extensions(j, "preferred")) == [
            ["A1", "A2", "A3", "A4", "A5", "A9"],
            ["A1", "A2", "A3", "A4", "A6", "A8"],
            ["A1", "A2", "A3", "A5", "A6", "A7"],
        ]

    def test_supported_node_joins_its_supporter(self, j2):
        assert labelled_extensions(jsbaf_extensions(j2, "grounded")) == [["a", "b"]]

    def test_attacked_support_target_drags_its_supporters(self, j1):
        # by hand: d is unattacked; c falls to d; a and b fall to the e-nodes,
        # which stay undecided because the co-supporter bars are undecided
        assert labelled_extensions(jsbaf_extensions(j1, "grounded")) == [["d"]]

    @pytest.mark.parametrize("sem", SEMANTICS)
    @pytest.mark.parametrize(
        "text",
        [TANDEM_PATH.read_text(), tandem_rules(3, 1)],
        ids=["tandem", "tandem(3,1)"],
    )
    def test_jsbaf_extensions_agree_with_the_evaluation(self, text, sem):
        prepared = prepare(parse_system(text))
        j = prepared.jsbaf
        projected = evaluate(prepared, sem, "deductive").extensions
        expected = [frozenset(j.node_table[i] for i in ext) for ext in projected]
        assert expected
        assert jsbaf_extensions(j, sem) == expected


class TestJsbafProperties:
    def test_deductiveness_violation_is_witnessed(self, j2):
        ok, witness = is_deductive_extension(j2, {base("a")})
        assert not ok
        assert witness == (frozenset({base("a")}), base("b"))

    def test_deductiveness_holds_with_target(self, j2):
        assert is_deductive_extension(j2, {base("a"), base("b")}) == (True, None)

    def test_tandem_preferred_projection_is_deductive(self, tandem_system):
        j = prepare(tandem_system).jsbaf
        ext = _nodes(["A1", "A2", "A3", "A9", "A4", "A5"])
        assert is_deductive_extension(j, ext) == (True, None)

    def test_conflict_free_check_mirrors_attacks(self, j1):
        ok, witness = is_conflict_free_jsbaf(j1, {base("d"), base("c")})
        assert not ok and witness == (base("d"), base("c"))
        assert is_conflict_free_jsbaf(j1, {base("a"), base("b")}) == (True, None)
        assert is_conflict_free_jsbaf(j1, set()) == (True, None)


class TestOracleAgreementAndInclusions:
    @pytest.mark.parametrize("seed", range(120))
    def test_engine_matches_brute_force(self, seed):
        af = random_af(seed, 8, 0.25)
        for sem in SEMANTICS:
            assert extensions(af, sem) == brute_force_extensions(af, sem), sem

    @pytest.mark.parametrize("density", [0.1, 0.25, 0.4])
    @pytest.mark.parametrize("seed", range(25))
    def test_engine_matches_brute_force_up_to_12_nodes(self, seed, density):
        # random_af draws self-attacks too, at the same density
        af = random_af(2000 + seed, 12, density)
        for sem in SEMANTICS:
            assert extensions(af, sem) == brute_force_extensions(af, sem), sem

    def test_engine_matches_brute_force_on_flattenings(self):
        """Frameworks with meta-arguments, which the search splits after
        the arguments: the deductive flattenings of the small random systems,
        as built and with their meta-arguments that attack nothing pruned by
        ``reference.prune_inert``, with at most 16 nodes and some
        meta-argument, and of tandem(2, 1)."""
        flats = []
        for seed in range(200):
            flat = prepare(random_system(SystemParams(6, 6, 6), seed).system).flat
            for af in (flat, reference.prune_inert(flat)):
                if len(af.node_table) <= 16 and any(map(is_meta, af.node_table)):
                    flats.append(af)
        flats.append(_deductive_flattening(parse_system(tandem_rules(2, 1))))
        assert (len(flats), len(flats[-1].node_table)) == (248, 10)
        for af in flats:
            for sem in SEMANTICS:
                assert extensions(af, sem) == brute_force_extensions(af, sem), sem

    @pytest.mark.parametrize("seed", range(40))
    def test_semantics_inclusions(self, seed):
        af = random_af(1000 + seed, 9, 0.25)
        complete = extensions(af, "complete")
        grounded = extensions(af, "grounded")[0]
        preferred = extensions(af, "preferred")
        stable = extensions(af, "stable")
        assert all(grounded <= ext for ext in complete)
        assert grounded in complete
        assert set(preferred) <= set(complete)
        assert set(stable) <= set(preferred)


def _deductive_flattening(system):
    return prepare(system).flat


def _stable_by_filter(af, complete):
    out = []
    for ext in complete:
        attacked = set()
        for m in ext:
            attacked |= af.targets[m]
        if af.nodes - ext <= attacked:
            out.append(ext)
    return out


class TestBeyondOracleCap:
    """Frameworks too large for ``brute_force_extensions``: every returned
    extension passes the polynomial self-check, and the stable search agrees
    with filtering the complete extensions."""

    def test_random_system_flattenings(self):
        checked = 0
        for seed in range(40):
            system = random_system(SystemParams(10, 12, 12), seed).system
            flat = _deductive_flattening(system)
            if len(flat.nodes) <= ORACLE_NODE_CAP:
                continue
            checked += 1
            bound = len(flat.nodes)
            for sem in SEMANTICS:
                exts = extensions(flat, sem)
                assert_sound_extensions(flat, sem, exts)
            complete = extensions(flat, "complete")
            assert extensions(flat, "stable") == _stable_by_filter(flat, complete), seed
        assert checked == 24

    def test_a_second_solver_finds_the_same_extensions(self):
        # completeness above the cap: the 0/1 programs of ``ilp`` find
        # exactly the extensions of the search, on the 24 flattenings above
        # and on seed 38 in both modes
        afs = []
        for seed in range(40):
            flat = _deductive_flattening(random_system(SystemParams(10, 12, 12), seed).system)
            if len(flat.target_ids) > ORACLE_NODE_CAP:
                afs.append(flat)
        prepared = prepare(parse_system(SEED38_PATH.read_text()))
        afs += [prepared.af, prepared.flat]
        assert (len(afs), len(prepared.af.target_ids), len(prepared.flat.target_ids)) == (26, 61, 143)
        for af in afs:
            for sem in SEMANTICS:
                assert ilp_extension_ids(af, sem) == sorted(extension_ids(af, sem)), sem

    def test_the_oracle_refuses_a_framework_above_its_cap(self):
        # Self-attacking nodes leave only the empty set conflict-free, so the
        # oracle answers at its cap at once.
        nodes = [base(f"n{i}") for i in range(ORACLE_NODE_CAP + 1)]
        at_cap = AF(frozenset(nodes[:-1]), frozenset((n, n) for n in nodes[:-1]))
        assert brute_force_extensions(at_cap, "preferred") == [frozenset()]
        above = AF(frozenset(nodes), frozenset((n, n) for n in nodes))
        with pytest.raises(ValidationError) as error:
            brute_force_extensions(above, "preferred")
        assert str(error.value) == "framework has 22 nodes, above the oracle cap 21"

    def test_a_refused_framework_builds_no_node_table(self):
        # the cap is checked on the rows, so seed 38's 143-node flattening
        # is refused before a single ``NodeId`` is built
        prepared = prepare(parse_system(SEED38_PATH.read_text()))
        with pytest.raises(ValidationError) as error:
            brute_force_extensions(prepared.flat, "grounded")
        assert str(error.value) == "framework has 143 nodes, above the oracle cap 21"
        assert "node_table" not in prepared.flat.__dict__


class TestRegressionInstances:
    """The two search regression instances: deductive tandem(5, 3) and the
    seed-38 random system, both far beyond the oracle cap."""

    @staticmethod
    def _check(system, expected):
        flat = _deductive_flattening(system)
        bound = len(flat.nodes)
        prepared = prepare(system)
        for sem, count in expected.items():
            exts = extensions(flat, sem)
            assert_sound_extensions(flat, sem, exts)
            sets = evaluate(prepared, sem, "deductive", max_nodes=bound).conclusion_sets
            assert (len(exts), len(sets)) == (count, count), sem
            for cs in sets:
                assert cs.postulates == reference.postulate_verdicts(system, cs.formulas)
                assert cs.postulates.all_satisfied, sem
        return flat

    def test_tandem_5_3(self):
        """One stable extension per seating of 3 of the 5 riders, C(5, 3) =
        10, and the grounded one besides for complete.  The preferred report
        also matches the benchmark's reference digest for this instance,
        recorded with the earlier three-way labelling search."""
        system = parse_system(tandem_rules(5, 3))
        flat = self._check(system, {"complete": 11, "stable": 10, "preferred": 10})
        assert len(flat.nodes) == 100

    def test_seed_38(self):
        """The counts were first produced by the domain search.  The earlier
        three-way labelling search did not finish complete search on this
        system within 25 minutes, so no independent check of them exists;
        grounded, which does not search, is the exception."""
        system = random_system(SystemParams(12, 14, 14), 38).system
        flat = self._check(system, {"grounded": 1, "complete": 6, "stable": 0, "preferred": 2})
        assert (len(construct_arguments(system).arguments), len(flat.nodes)) == (61, 143)


class TestLinearGrounded:
    """``grounded_extension`` counts each node's attackers not yet out;
    ``reference.grounded_extension`` is the fixpoint that re-scans every
    node each round."""

    def test_criterion_06_frameworks(self):
        small = [random_af(seed, 5, 0.3) for seed in range(10000)]
        mid = [random_af(100000 + seed, 12, 0.2) for seed in range(500)]
        for af in small + mid:
            assert extensions(af, "grounded")[0] == reference.grounded_extension(af)

    @pytest.mark.parametrize("mode", ("aspic-minus", "deductive"))
    def test_tandem_and_random_systems(self, mode):
        systems = [
            parse_system(tandem_rules(n, k))
            for n in range(2, 7)
            for k in range(1, n)
        ]
        systems += [random_system(SystemParams(6, 6, 6), seed).system for seed in range(100)]
        for system in systems:
            af = prepare(system).searched(mode)
            assert extensions(af, "grounded")[0] == reference.grounded_extension(af)


def _propagation_calls(system, mode, semantics):
    return evaluate(prepare(system), semantics, mode, max_nodes=1500).search_calls


SEED38_PATH = Path(__file__).resolve().parents[1] / "bench" / "seed38.rules"


class _CountedReads(list):
    """An attacker-mask list that counts its reads by index.  ``_propagate``
    reads the mask of each node it pops once, and nothing else reads them
    by index, so the count is the pops."""

    reads = 0

    def __getitem__(self, index):
        _CountedReads.reads += 1
        return list.__getitem__(self, index)


@pytest.mark.parametrize(
    "n, k, semantics, pops",
    [
        # 5,660 when each node was split fully before the next, 8,436 when
        # settled nodes were also marked and popped, 9,344 when a node also
        # re-marked itself
        (5, 3, "preferred", 3430),
        (3, 2, "complete", 127),  # 139, 191, 235
    ],
)
def test_propagation_pops(monkeypatch, n, k, semantics, pops):
    """Pops of deductive searches on tandem(n, k).  A node that narrows
    itself in its own pop marks its targets dirty, and itself only if it
    attacks itself: that pop has applied all its rules to its final domain,
    and a later narrowing of an attacker marks it again.  No mark reaches a
    settled node, whose label is entailed, unless it is narrowed as an
    attacker; and a node that becomes in makes its targets out and settled
    without a pop of each."""
    init = semantics_module._DomainSearch.__init__

    def counted(self, af):
        init(self, af)
        self.attackers = _CountedReads(self.attackers)

    monkeypatch.setattr(_CountedReads, "reads", 0)
    monkeypatch.setattr(semantics_module._DomainSearch, "__init__", counted)
    evaluate(prepare(parse_system(tandem_rules(n, k))), semantics, "deductive", max_nodes=1000)
    assert _CountedReads.reads == pops


class TestPropagationReachesAFixpoint:
    """Each state ``_propagate`` returns in a search is a fixpoint: run
    again from its masks with every node dirty and none settled, it returns
    the same masks."""

    @pytest.fixture
    def check(self, monkeypatch):
        propagate = semantics_module._DomainSearch._propagate
        states = []

        def checked(self, *state):
            narrowed = propagate(self, *state)
            if narrowed is not None:
                states.append(narrowed)
                masks = narrowed[:3]
                assert propagate(self, *masks, (1 << self.n) - 1, 0)[:3] == masks
            return narrowed

        monkeypatch.setattr(semantics_module._DomainSearch, "_propagate", checked)

        def check(frameworks):
            """Search each framework in every semantics; the states checked."""
            for af in frameworks:
                for sem in ("complete", "stable", "preferred"):
                    extension_ids(af, sem)
            return len(states)

        return check

    # The inputs are wide enough that each guard checks at least as many
    # states as it did when the search split each node fully before the
    # next: 10,717 and 2,749, 1,096 and 1,035, and 1,248.
    @pytest.mark.parametrize("mode, states", [("aspic-minus", 12184), ("deductive", 2785)])
    def test_tandem(self, check, mode, states):
        shapes = [(n, k) for n in range(2, 7) for k in range(1, n)] + [(7, 4), (7, 5), (7, 6)]
        systems = (parse_system(tandem_rules(n, k)) for n, k in shapes)
        assert check(prepare(system).searched(mode) for system in systems) == states

    @pytest.mark.parametrize("mode, states", [("aspic-minus", 1219), ("deductive", 1151)])
    def test_random_systems(self, check, mode, states):
        systems = (random_system(SystemParams(6, 6, 6), seed).system for seed in range(220))
        assert check(prepare(system).searched(mode) for system in systems) == states

    def test_random_frameworks(self, check):
        frameworks = (random_af(3000 + seed, 12, (0.1, 0.25, 0.4)[seed % 3]) for seed in range(160))
        assert check(frameworks) == 1264  # self-attacks too


class TestSettledNodesAreEntailed:
    """In each state ``_propagate`` returns in a search, every settled node
    has one label, and its attackers' domains entail it: in with every
    attacker only out, out with an attacker only in, undecided with no
    attacker that can be in and one only undecided."""

    @pytest.fixture
    def check(self, monkeypatch):
        propagate = semantics_module._DomainSearch._propagate
        counts = collections.Counter()

        def checked(self, *state):
            narrowed = propagate(self, *state)
            if narrowed is None:
                return None
            can_in, can_out, can_undec, settled = narrowed
            only_in = can_in & ~(can_out | can_undec)
            only_out = can_out & ~(can_in | can_undec)
            only_undec = can_undec & ~(can_in | can_out)
            for y, atk in enumerate(self.attackers):
                bit = 1 << y
                if not settled & bit:
                    continue
                if only_in & bit:
                    assert atk & only_out == atk
                    counts["in"] += 1
                elif only_out & bit:
                    assert atk & only_in
                    counts["out"] += 1
                else:
                    assert only_undec & bit
                    assert atk & only_undec and not atk & can_in
                    counts["undec"] += 1
            return narrowed

        monkeypatch.setattr(semantics_module._DomainSearch, "_propagate", checked)

        def check(frameworks):
            """Search each framework in every semantics; the settled nodes
            checked, by label."""
            for af in frameworks:
                for sem in ("complete", "stable", "preferred"):
                    extension_ids(af, sem)
            return counts

        return check

    @pytest.mark.parametrize("mode", ("aspic-minus", "deductive"))
    def test_tandem_and_seed_38(self, check, mode):
        systems = [parse_system(tandem_rules(n, k)) for n in range(2, 7) for k in range(1, n)]
        systems.append(parse_system(SEED38_PATH.read_text()))
        counts = check(prepare(system).searched(mode) for system in systems)
        assert counts["in"] and counts["out"]

    def test_random_frameworks(self, check):
        frameworks = (random_af(3000 + seed, 12, (0.1, 0.25, 0.4)[seed % 3]) for seed in range(150))
        counts = check(frameworks)  # self-attacks too
        assert counts["in"] and counts["out"] and counts["undec"]


@pytest.mark.parametrize(
    "path, mode, nodes",
    [(TANDEM_PATH, "deductive", 21), (SEED38_PATH, "aspic-minus", 61)],
    ids=["tandem-deductive", "seed-38-aspic-minus"],
)
def test_start_masks_narrow_the_complete_search(path, mode, nodes):
    """``labellings`` from narrowed start masks yields exactly the in-sets
    of the unnarrowed complete search that the narrowing admits: with an
    argument forced in, its out and undecided bits cleared, those that hold
    it; with no node that can be undecided, those that attack every node
    outside them, the stable ones."""
    af = prepare(parse_system(path.read_text())).searched(mode)
    search = semantics_module._DomainSearch(af)
    assert search.n == nodes
    every = (1 << nodes) - 1
    complete = sorted(search.labellings(every, every, every))
    for x in range(af.argument_count):
        bit = 1 << search.order.index(x)
        forced = sorted(search.labellings(every, every & ~bit, every & ~bit))
        assert forced == [s for s in complete if s & bit], af.labels[x]

    def attacked(s):
        hit = 0
        for r in range(nodes):
            if s >> r & 1:
                hit |= search.targets[r]
        return hit

    stable = [s for s in complete if s | attacked(s) == every]
    assert stable and sorted(search.labellings(every, every, 0)) == stable


def test_a_node_that_becomes_in_fails_on_a_target_that_cannot_be_out():
    """a attacks b, and only a is dirty.  Once a's pop leaves a in, the call
    fails when b cannot be out; when b can be, b is made out, and both are
    settled."""
    search = semantics_module._DomainSearch(_attacks("ab"))
    assert search.order == [0, 1]  # a is rank 0, b rank 1
    assert search._propagate(0b01, 0b01, 0b10, 0b01, 0) is None
    assert search._propagate(0b01, 0b11, 0b10, 0b01, 0) == (0b01, 0b10, 0, 0b11)


@pytest.mark.parametrize(
    "mode, semantics, calls",
    [
        # splitting each node fully before the next: 121, 43, 209, 43;
        # splitting the lowest node number: 199, 65, 273, 61
        ("deductive", "complete", 73),
        ("deductive", "stable", 43),
        ("aspic-minus", "complete", 133),
        ("aspic-minus", "stable", 43),
    ],
)
def test_search_splits_arguments_with_most_targets_first(mode, semantics, calls):
    """Propagation calls on tandem(5, 3): the search splits arguments
    before meta-arguments, then the nodes with most targets, then the
    lowest node number.  It splits in against not-in on the first node
    that can still be in, out and undecided, and only once there is none
    the first node that still holds two labels.  Stable search holds no
    undecided label, so the first rule never applies to it.  The comments
    give the calls when the search split each node fully, in against out
    or undecided and then out against undecided, before the next, and
    when it split the lowest node number first."""
    system = parse_system(tandem_rules(5, 3))
    assert _propagation_calls(system, mode, semantics) == calls


def test_split_order_of_the_tandem_flattening():
    """On the deductive flattening of tandem(3, 2) the 9 arguments rank
    first, by descending target count (5, 2, 1), ties broken by number;
    then the meta-arguments in the same way."""
    flat = _deductive_flattening(parse_system(TANDEM_PATH.read_text()))
    order = semantics_module._DomainSearch(flat).order
    assert [flat.labels[x] for x in order[:9]] == [
        "A7", "A8", "A9", "A4", "A5", "A6", "A1", "A2", "A3"
    ]
    assert order == [6, 7, 8, 3, 4, 5, 0, 1, 2, 12, 13, 14, 15, 16, 17, 18, 19, 20, 9, 10, 11]
    assert [len(flat.target_ids[x]) for x in order[:9]] == [5, 5, 5, 2, 2, 2, 1, 1, 1]


def test_split_order_equals_the_keyed_sort():
    """The split order, found from the length of the argument prefix of the
    node numbers, equals the sort by (is meta-argument, most targets,
    lowest number) on random AFs, with and without meta-arguments of their
    own, and on the flattenings of random JSBAFs and systems."""
    def keyed(af):
        table, rows = af.node_table, af.target_ids
        return sorted(range(len(table)), key=lambda x: (is_meta(table[x]), -len(rows[x]), x))

    frameworks = [AF(frozenset(), frozenset())]
    for seed in range(100):
        af = random_af(5000 + seed, 10, (0.1, 0.25, 0.4)[seed % 3])
        nodes = sorted(af.nodes, key=lambda n: n.key())
        meta = {bar(n) for n in nodes[: seed % 3]} | ({e_node(nodes[:2])} if seed % 2 else set())
        rng = random.Random(seed)
        everything = list(af.nodes | meta)
        extra = {(a, b) for a in everything for b in everything if rng.random() < 0.15}
        frameworks += [af, AF(af.nodes | meta, af.attacks | extra)]
        frameworks.append(flatten_simplified(random_jsbaf(JsbafParams(), seed)))
        prepared = prepare(random_system(SystemParams(5, 5, 5), seed).system)
        frameworks += [prepared.af, prepared.flat]
    for af in frameworks:
        assert semantics_module._DomainSearch(af).order == keyed(af)


@pytest.mark.parametrize(
    "mode, n, k, calls",
    [
        ("aspic-minus", 8, 7, 33),  # complete 527; was 33; before 33
        ("aspic-minus", 5, 3, 81),  # complete 133; was 91; before 175
        ("deductive", 5, 3, 73),  # complete 73; was 121; before 199
        ("deductive", 8, 7, 29),  # complete 29; was 31; before 943
        ("aspic-minus", 6, 3, 371),  # complete 743; was 521; before 3777
        ("deductive", 6, 3, 237),  # complete 237; was 641; before 3089
    ],
)
def test_preferred_search_drops_branches_inside_an_extension_found(mode, n, k, calls):
    """Once an extension is found, preferred search drops every branch
    whose nodes that can still be in lie inside one already found.  The
    comments give the calls of complete search, which lists every complete
    labelling, and of preferred search when it split each node fully before
    the next (was) and when it split the lowest node number first
    (before)."""
    system = parse_system(tandem_rules(n, k))
    assert _propagation_calls(system, mode, "preferred") == calls


@pytest.mark.parametrize(
    "n, mode, calls, count",
    [
        # 2,693, 1,283 and 14,359 calls splitting each node fully before
        # the next; 24,205 and 23,975 splitting the lowest node number
        (7, "deductive", 491, 35),
        (7, "aspic-minus", 681, 64),
        (8, "deductive", 1275, 70),
    ],
)
def test_tandem_n_4_preferred(n, mode, calls, count):
    """Search regression instances: preferred search on tandem(7, 4), 119
    arguments and, in deductive mode, 553 flattened nodes, and on deductive
    tandem(8, 4), 296 arguments and 1,432 flattened nodes."""
    prepared = prepare(parse_system(tandem_rules(n, 4)))
    evaluation = evaluate(prepared, "preferred", mode, max_nodes=1500)
    assert (evaluation.search_calls, len(evaluation.raw_extensions)) == (calls, count)
    af = prepared.searched(mode)
    table = af.node_table
    exts = [frozenset(table[i] for i in ext) for ext in evaluation.raw_extensions]
    assert_sound_extensions(af, "preferred", exts)


class TestPreferredBoundAgreesWithTheOracle:
    """The bound on preferred search drops branches, never extensions."""

    @staticmethod
    def _mutual_af(seed):
        """Mostly mutual attacks, so there are many preferred extensions
        (662 over the 80 seeds) and the bound saves a quarter of the
        propagation calls of complete search; some one-way attacks and
        self-attacks besides."""
        rng = random.Random(seed)
        nodes = [base(f"n{i}") for i in range(rng.randint(6, 14))]
        attacks = set()
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                roll = rng.random()
                if roll < 0.25:
                    attacks |= {(a, b), (b, a)}
                elif roll < 0.3:
                    attacks.add((a, b))
            if rng.random() < 0.05:
                attacks.add((a, a))
        return AF(frozenset(nodes), frozenset(attacks))

    @staticmethod
    def _tandem_afs():
        for n, k in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 4), (6, 5)):
            yield prepare(parse_system(tandem_rules(n, k))).af

    @pytest.mark.parametrize("seed", range(80))
    def test_mutual_attack_frameworks(self, seed):
        af = self._mutual_af(seed)
        assert extensions(af, "preferred") == brute_force_extensions(af, "preferred")

    def test_tandem_attack_frameworks(self):
        for af in self._tandem_afs():
            assert len(af.node_table) <= ORACLE_NODE_CAP
            assert extensions(af, "preferred") == brute_force_extensions(af, "preferred")

    def test_no_in_set_holds_one_found_before_it(self):
        """The search pops the in branch first, and the out branch before
        undecided, so no in-set of complete search holds one it found
        before, though many lie inside an earlier one, as the bound finds.
        So preferred search yields exactly the maximal complete in-sets, in
        the order complete search finds them, with no filter after it."""
        inside_earlier = 0
        for af in [*map(self._mutual_af, range(80)), *self._tandem_afs()]:
            search = semantics_module._DomainSearch(af)
            every = (1 << search.n) - 1
            complete = list(search.labellings(every, every, every))
            for i, s in enumerate(complete):
                assert not any(s | t == s for t in complete[:i])
                inside_earlier += any(s | t == t for t in complete[:i])
            maximal = [s for s in complete if not any(s | t == t != s for t in complete)]
            assert list(search.labellings(every, every, every, maximal=True)) == maximal
        assert inside_earlier


class TestReferenceKernel:
    """``_DomainSearch`` against ``reference.DomainSearch``, the same rules
    on a list of domains and a set of dirty nodes: the same extensions from
    the same number of propagation calls, that is the same search tree.
    The engine counts its own calls; the reference's are counted here.
    The tandem systems are every tandem(n, k) with n <= 6, and (7, 6); the
    others with n = 7 would take the reference about 40 s in all."""

    @pytest.fixture
    def check(self, monkeypatch):
        calls = []
        propagate = reference.DomainSearch._propagate

        def counted(self, *state):
            calls.append(1)
            return propagate(self, *state)

        monkeypatch.setattr(reference.DomainSearch, "_propagate", counted)

        def check(af):
            for sem in ("complete", "stable", "preferred"):
                calls.clear()
                got, made = semantics_module.extension_search(af, sem)
                assert got == reference.search_extension_ids(af, sem), sem
                assert made == len(calls), sem
                table = af.node_table
                assert_sound_extensions(af, sem, [frozenset(table[i] for i in e) for e in got])

        return check

    @pytest.mark.parametrize("mode", ("aspic-minus", "deductive"))
    @pytest.mark.parametrize(
        "n, k",
        [(n, k) for n in range(2, 7) for k in range(1, n)] + [(7, 6)],
    )
    def test_tandem(self, check, n, k, mode):
        check(prepare(parse_system(tandem_rules(n, k))).searched(mode))

    @pytest.mark.parametrize("mode", ("aspic-minus", "deductive"))
    def test_seed_38(self, check, mode):
        system = parse_system(SEED38_PATH.read_text())
        check(prepare(system).searched(mode))

    def test_random_systems(self, check):
        for seed in range(200):
            prepared = prepare(random_system(SystemParams(6, 6, 6), seed).system)
            check(prepared.af)
            check(prepared.flat)

    def test_random_frameworks(self, check):
        check(AF(frozenset(), frozenset()))
        check(AF(frozenset({base("a")}), frozenset({(base("a"), base("a"))})))
        for seed in range(150):
            af = random_af(3000 + seed, 12, (0.1, 0.25, 0.4)[seed % 3])  # self-attacks too
            isolated = {base(f"z{i}") for i in range(seed % 4)}
            check(af)
            check(AF(af.nodes | isolated, af.attacks))


def _attacks(*pairs):
    """The AF of the attacks ``"ab"``, ``"bc"``, ...: a attacks b, and so on."""
    edges = {(base(s), base(t)) for s, t in pairs}
    return AF(frozenset(n for edge in edges for n in edge), frozenset(edges))


_LABEL_BITS = {
    "in": semantics_module._IN, "out": semantics_module._OUT, "undec": semantics_module._UNDEC
}


@pytest.mark.parametrize(
    "attacks, labels, complete",
    [
        (("ab",), {"a": "in", "b": "in"}, False),  # in, with an in attacker
        (("aa", "ab"), {"a": "undec", "b": "in"}, False),  # in, with an undecided attacker
        (("ab", "bc"), {"a": "in", "b": "out", "c": "out"}, False),  # out, no in attacker
        (("ab",), {"a": "out", "b": "out"}, False),  # out, unattacked
        # undecided, with an in attacker and an undecided one
        (("ab", "cb", "cc"), {"a": "in", "b": "undec", "c": "undec"}, False),
        (("ab", "bc"), {"a": "in", "b": "out", "c": "undec"}, False),  # undecided, none undecided
        (("ab",), {"a": "undec", "b": "undec"}, False),  # undecided, unattacked
        (("ab", "bc"), {"a": "in", "b": "out", "c": "in"}, True),
        (("ab", "ba"), {"a": "undec", "b": "undec"}, True),
        (("ab", "ba"), {"a": "out", "b": "in"}, True),
        (("aa", "ab", "bc"), {"a": "undec", "b": "undec", "c": "undec"}, True),
    ],
)
def test_verify_checks_every_node_against_its_attackers(attacks, labels, complete):
    """Each full labelling that breaks the complete-labelling rule at one
    node is rejected, each complete one is accepted, as by the reference."""
    af = _attacks(*attacks)
    search = semantics_module._DomainSearch(af)
    names = [labels[af.node_table[x].label] for x in search.order]  # by rank
    is_in = sum(1 << r for r, name in enumerate(names) if name == "in")
    is_undec = sum(1 << r for r, name in enumerate(names) if name == "undec")
    assert search._verify(is_in, is_undec) is complete
    doms = [_LABEL_BITS[name] for name in names]
    ref = reference.DomainSearch(af)
    assert ref.order == search.order
    assert ref._verify(doms) is complete


def test_verify_agrees_with_the_reference_on_random_labellings():
    """``_verify`` by unions of target masks gives the verdict of the
    reference's per-node check on random full labellings of random AFs,
    with isolated nodes and self-attacks, and on their grounded labellings,
    which are complete."""
    in_, out, undec = semantics_module._IN, semantics_module._OUT, semantics_module._UNDEC
    rng = random.Random(38)
    verdicts = collections.Counter()
    for seed in range(300):
        af = random_af(7000 + seed, 10, (0.1, 0.25, 0.4)[seed % 3])  # self-attacks too
        af = AF(af.nodes | {base(f"z{i}") for i in range(seed % 3)}, af.attacks)
        search, ref = semantics_module._DomainSearch(af), reference.DomainSearch(af)
        grounded = set(extension_ids(af, "grounded")[0])
        attacked = {y for x in grounded for y in af.target_ids[x]}
        labellings = [[rng.choice((in_, out, undec)) for _ in search.order] for _ in range(20)]
        labellings.append(
            [in_ if x in grounded else out if x in attacked else undec for x in search.order]
        )
        for doms in labellings:  # by rank
            is_in = sum(1 << r for r, d in enumerate(doms) if d == in_)
            is_undec = sum(1 << r for r, d in enumerate(doms) if d == undec)
            verdict = ref._verify(doms)
            assert search._verify(is_in, is_undec) is verdict
            verdicts[verdict] += 1
        assert verdict  # the grounded labelling
    assert verdicts[False] > verdicts[True] > 300
