"""The flattening pipeline on the worked micro-frameworks.

Expected node/edge sets for J1, J2, J3 were derived by hand from the
flattening definitions (one-step: supports become joint attacks through a
bar per supported node; two-step: joint attacks become plain attacks
through participant bars and a shared e-node per attacker set; simplified:
the bar / double-bar relay chain of each multiply-supported node is
removed, with the double bar's attacks re-sourced to the node itself).
The stages run on node numbers; ``TestIntFlatteningMatchesReference``
compares them with the definitions over NodeId sets in ``reference.py``.
"""

import copy
import io
import pickle
import random
import re
from pathlib import Path

import pytest

import reference
import small_scope
from jsbaf import (
    AF,
    JSBAF,
    HigherLevelAF,
    JsbafParams,
    SystemParams,
    bar,
    base,
    e_node,
    emit_dot,
    evaluate,
    flatten_one_step,
    flatten_simplified,
    flatten_two_step,
    is_meta,
    jsbaf_extensions,
    parse_system,
    prepare,
    print_system,
    project_ids,
    random_jsbaf,
    random_system,
    sort_nodes,
    write_report,
)
from jsbaf.cli import main
from jsbaf.frameworks import BarNode, BaseNode, ENode
from jsbaf.semantics import SEMANTICS, extension_ids

from conftest import TANDEM_PATH, node_labels, tandem_rules

SEED38_PATH = Path(__file__).resolve().parents[1] / "bench" / "seed38.rules"


def edge_labels(af):
    return {(s.label, d.label) for s, d in af.attacks}


def joint_labels(h):
    return {(frozenset(n.label for n in x), b.label) for x, b in h.joint_attacks}


def shielding(j, shielded=()):
    """``j`` rebuilt through the public constructor, with the nodes
    numbered ``shielded`` as its shield."""
    return JSBAF(j.nodes, j.attacks, j.supports, (j.node_table[i] for i in shielded))


class TestNodeIds:
    def test_canonical_order_is_base_bar_e(self):
        a, b = base("a"), base("b")
        nodes = [e_node({a, b}), bar(a), b, a]
        assert [n.label for n in sort_nodes(nodes)] == ["a", "b", "bar(a)", "e(a,b)"]

    def test_e_node_members_are_sorted_and_deduplicated(self):
        a, b = base("a"), base("b")
        assert e_node([b, a, b]) == e_node([a, b])
        assert e_node([b, a]).label == "e(a,b)"

    def test_endpoints_must_be_nodes(self):
        a, b = base("a"), base("b")
        with pytest.raises(ValueError):
            AF(frozenset({a}), frozenset({(a, b)}))
        with pytest.raises(ValueError):
            JSBAF(frozenset({a}), frozenset(), frozenset({(frozenset({b}), a)}))


class TestOneStepFlattening:
    def test_single_supporter(self, j2):
        h = flatten_one_step(j2)
        assert node_labels(h.nodes) == ["a", "b", "bar(b)"]
        assert joint_labels(h) == {
            (frozenset({"b"}), "bar(b)"),
            (frozenset({"bar(b)"}), "a"),
        }

    def test_two_supporters_plus_attack(self, j1):
        h = flatten_one_step(j1)
        assert joint_labels(h) == {
            (frozenset({"d"}), "c"),
            (frozenset({"c"}), "bar(c)"),
            (frozenset({"b", "bar(c)"}), "a"),
            (frozenset({"a", "bar(c)"}), "b"),
        }

    def test_three_supporters_make_three_ternary_attacks(self, j3):
        h = flatten_one_step(j3)
        ternary = [x for x, _ in h.joint_attacks if len(x) == 3]
        assert len(ternary) == 3
        assert all("bar(d)" in {n.label for n in x} for x in ternary)

    def test_empty_source_support_only_adds_the_bar(self):
        a = base("a")
        j = JSBAF({a}, set(), {(frozenset(), a)})
        h = flatten_one_step(j)
        assert node_labels(h.nodes) == ["a", "bar(a)"]
        assert joint_labels(h) == {(frozenset({"a"}), "bar(a)")}


class TestJointAttackFlattening:
    """The two-step flattening: the joint attacks of the one-step stage
    become plain attacks through participant bars and e-nodes."""

    def test_two_step_pipeline_on_j1(self, j1):
        af = flatten_two_step(j1)
        assert node_labels(af.nodes) == sorted([
            "a", "b", "c", "d",
            "bar(a)", "bar(b)", "bar(bar(c))", "bar(c)",
            "e(a,bar(c))", "e(b,bar(c))",
        ])
        assert edge_labels(af) == {
            ("d", "c"),
            ("c", "bar(c)"),
            ("bar(c)", "bar(bar(c))"),
            ("bar(bar(c))", "e(b,bar(c))"),
            ("bar(bar(c))", "e(a,bar(c))"),
            ("b", "bar(b)"),
            ("bar(b)", "e(b,bar(c))"),
            ("e(b,bar(c))", "a"),
            ("a", "bar(a)"),
            ("bar(a)", "e(a,bar(c))"),
            ("e(a,bar(c))", "b"),
        }

    def test_singleton_arm_is_a_direct_edge(self):
        # the arm of {a} -> b is the joint attack {bar(b)} -> a, which is
        # an edge, as the attack a -> b stays one
        a, b = base("a"), base("b")
        af = flatten_two_step(JSBAF({a, b}, {(a, b)}, {(frozenset({a}), b)}))
        assert af.nodes == frozenset({a, b, bar(b)})
        assert edge_labels(af) == {("a", "b"), ("b", "bar(b)"), ("bar(b)", "a")}

    def test_one_binary_joint_attack(self):
        # y is shielded, so {x, y} -> z has the one arm {y, bar(z)} -> x
        x, y, z = base("x"), base("y"), base("z")
        af = flatten_two_step(JSBAF({x, y, z}, set(), {(frozenset({x, y}), z)}, {y}))
        assert len(af.nodes) == 7
        assert edge_labels(af) == {
            ("z", "bar(z)"),
            ("bar(z)", "bar(bar(z))"),
            ("bar(bar(z))", "e(y,bar(z))"),
            ("y", "bar(y)"),
            ("bar(y)", "e(y,bar(z))"),
            ("e(y,bar(z))", "x"),
        }

    def test_shared_attacker_set_shares_one_e_node(self):
        # p is shielded, so both supports of d have the arm {p, bar(d)},
        # against q and against r
        p, q, r, d = base("p"), base("q"), base("r"), base("d")
        af = flatten_two_step(JSBAF(
            {p, q, r, d}, set(), {(frozenset({p, q}), d), (frozenset({p, r}), d)}, {p},
        ))
        e_nodes = [n for n in af.nodes if n.label.startswith("e(")]
        assert len(e_nodes) == 1
        assert {("e(p,bar(d))", "q"), ("e(p,bar(d))", "r")} <= edge_labels(af)


class TestSimplifiedFlattening:
    def test_j1_matches_the_reduced_graph(self, j1):
        af = flatten_simplified(j1)
        assert node_labels(af.nodes) == sorted([
            "a", "b", "c", "d", "bar(a)", "bar(b)", "e(a,c)", "e(b,c)",
        ])
        assert edge_labels(af) == {
            ("d", "c"),
            ("c", "e(b,c)"),
            ("c", "e(a,c)"),
            ("bar(b)", "e(b,c)"),
            ("bar(a)", "e(a,c)"),
            ("e(b,c)", "a"),
            ("e(a,c)", "b"),
            ("a", "bar(a)"),
            ("b", "bar(b)"),
        }

    def test_no_supports_means_no_change(self):
        a, b = base("a"), base("b")
        j = JSBAF({a, b}, {(a, b)}, set())
        af = flatten_simplified(j)
        assert af.nodes == j.nodes and edge_labels(af) == {("a", "b")}

    def test_singleton_support_keeps_its_bar(self, j2):
        af = flatten_simplified(j2)
        assert node_labels(af.nodes) == ["a", "b", "bar(b)"]
        assert edge_labels(af) == {("b", "bar(b)"), ("bar(b)", "a")}

    TANDEM_CORE = [
        "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9",
        "bar(A4)", "bar(A5)", "bar(A6)",
        "e(A4,A8)", "e(A4,A9)", "e(A5,A7)", "e(A5,A9)", "e(A6,A7)", "e(A6,A8)",
    ]
    TANDEM_IDLE_BARS = ["bar(A1)", "bar(A2)", "bar(A3)"]

    @pytest.mark.parametrize(
        "rules, shield, expected_core, idle_bars, attacks",
        (
            (TANDEM_PATH.read_text(), False, TANDEM_CORE, TANDEM_IDLE_BARS, 36),
            (TANDEM_PATH.read_text(), True, TANDEM_CORE, TANDEM_IDLE_BARS, 36),
            # bar(A2) is idle too, although its support {A1} is not empty:
            # A1 is strict, so it is shielded and no arm attacks it
            (
                "strict s1: -> a\nstrict s2: a -> b\ndefeasible d1: b => c\n",
                True, ["A1", "A2", "A3"], ["bar(A1)", "bar(A2)"], 2,
            ),
        ),
        ids=("tandem", "tandem-shielded", "strict-chain-shielded"),
    )
    def test_literal_node_sets_keep_the_idle_bars(
        self, rules, shield, expected_core, idle_bars, attacks
    ):
        """The flattening keeps the bar of each supported argument, also
        when that bar attacks nothing: the idle bars are exactly the
        meta-arguments without targets."""
        j = prepare(parse_system(rules)).jsbaf
        af = flatten_simplified(j if shield else shielding(j))
        assert node_labels(af.nodes) == sorted(expected_core + idle_bars)
        assert len(af.attacks) == attacks
        idle = {n.label for n, targets in af.targets.items() if is_meta(n) and not targets}
        assert idle == set(idle_bars)

    def test_mixed_singleton_and_joint_support_keeps_the_direct_bar(self):
        # d is supported both by {w} alone and by {y, z} jointly; the bar of d
        # still carries its direct attack on w, only the double bar is folded.
        w, d, y, z, q = (base(n) for n in "wdyzq")
        j = JSBAF(
            {w, d, y, z, q},
            {(q, d)},
            {(frozenset({w}), d), (frozenset({y, z}), d)},
        )
        af = flatten_simplified(j)
        assert ("bar(d)", "w") in edge_labels(af)
        assert "bar(bar(d))" not in {n.label for n in af.nodes}
        two = flatten_two_step(j)
        for sem in SEMANTICS:
            lhs = project_ids(extension_ids(af, sem), len(j.node_table))
            rhs = project_ids(extension_ids(two, sem), len(j.node_table))
            assert lhs == rhs

    def test_mutual_supports_keep_both_bars_and_labels(self):
        # a and b each support the other; both bars keep e-node duties, so
        # nothing is removed or relabelled and no e-label collision can arise
        a, b, x, y = base("a"), base("b"), base("x"), base("y")
        j = JSBAF(
            {a, b, x, y},
            set(),
            {(frozenset({x, b}), a), (frozenset({a, y}), b)},
        )
        af = flatten_simplified(j)
        labels = {n.label for n in af.nodes}
        assert {"bar(a)", "bar(b)"} <= labels
        assert "e(a,bar(b))" in labels and "e(b,bar(a))" in labels
        two = flatten_two_step(j)
        for sem in SEMANTICS:
            lhs = project_ids(extension_ids(af, sem), len(j.node_table))
            rhs = project_ids(extension_ids(two, sem), len(j.node_table))
            assert lhs == rhs

    def test_fully_shielded_joint_support_has_no_arm(self):
        # c is jointly supported by {a, b}, but both supporters are shielded:
        # c has a joint support and no arm, so bar(c) joins no e-node and the
        # simplified flattening drops it; d's empty support keeps its bar
        a, b, c, d, q = (base(n) for n in "abcdq")
        j = JSBAF(
            {a, b, c, d, q}, {(q, c)},
            {(frozenset({a, b}), c), (frozenset(), d)}, shielded={a, b},
        )
        edges = {("q", "c"), ("c", "bar(c)"), ("d", "bar(d)")}
        one, two = flatten_one_step(j), flatten_two_step(j)
        assert one.joint_attack_ids == []
        assert {(next(iter(x)).label, t.label) for x, t in one.joint_attacks} == edges
        assert edge_labels(two) == edges
        for plain in (one, two):
            assert node_labels(plain.nodes) == ["a", "b", "bar(c)", "bar(d)", "c", "d", "q"]
        af = flatten_simplified(j)
        assert node_labels(af.nodes) == ["a", "b", "bar(d)", "c", "d", "q"]
        assert edge_labels(af) == {("q", "c"), ("d", "bar(d)")}
        accepted = [numbers(j, {"a", "b", "d", "q"})]
        for sem in SEMANTICS:
            assert project_ids(extension_ids(af, sem), len(j.node_table)) == accepted, sem
            assert project_ids(extension_ids(two, sem), len(j.node_table)) == accepted, sem


class TestFlatteningInvariants:
    def test_original_nodes_survive(self, j1, j2, j3):
        for j in (j1, j2, j3):
            assert j.nodes <= flatten_simplified(j).nodes
            assert j.nodes <= flatten_two_step(j).nodes

    def test_bars_have_exactly_their_base_as_attacker(self, tandem_system):
        j = prepare(tandem_system).jsbaf
        af = flatten_simplified(j)
        for node in af.nodes:
            if node.label.startswith("bar("):
                assert {n.label for n in af.attackers[node]} == {node.label[4:-1]}

    def test_e_node_attackers_are_supported_plus_cobars(self, tandem_system):
        j = prepare(tandem_system).jsbaf
        af = flatten_simplified(j)
        by_support = {dst.label: {n.label for n in src} for src, dst in j.supports if src}
        for node in sort_nodes(af.nodes):
            if not node.label.startswith("e("):
                continue
            members = {m.label for m in node.members}
            supported = next(iter(members & set(by_support)))
            cobars = {f"bar({m})" for m in members - {supported}}
            assert {n.label for n in af.attackers[node]} == {supported} | cobars

    def test_flattening_is_deterministic(self, j1, tandem_system):
        j = prepare(tandem_system).jsbaf
        for framework in (j1, j):
            first = flatten_simplified(framework)
            second = flatten_simplified(framework)
            assert first.nodes == second.nodes and first.attacks == second.attacks


def numbers(framework, labels):
    """The node numbers of ``labels`` in ``framework``, ascending."""
    return tuple(i for i, label in enumerate(framework.labels) if label in labels)


class TestProjection:
    """``project_ids`` keeps the nodes 0 .. m-1 of a flattening of a JSBAF
    of m arguments: the arguments sort before every meta-argument."""

    def test_discards_meta_arguments(self, j1):
        flat = flatten_simplified(j1)
        ext = numbers(flat, {"a", "bar(b)", "e(a,c)"})
        assert project_ids([ext], len(j1.node_table)) == [numbers(j1, {"a"})]

    def test_empty_extension(self):
        assert project_ids([()], 1) == [()]

    def test_paper_style_preferred_extension(self, tandem_system):
        prepared = prepare(tandem_system)
        j, flat = prepared.jsbaf, prepared.flat
        ext = numbers(flat, {
            "A1", "A2", "A3", "A9", "bar(A6)", "A4", "A5", "e(A5,A7)", "e(A4,A8)",
        })
        (projected,) = project_ids([ext], len(j.node_table))
        assert [j.labels[i] for i in projected] == ["A1", "A2", "A3", "A4", "A5", "A9"]


def assert_canonical(framework):
    """Node numbers follow the canonical order, and every target row is
    strictly ascending."""
    assert list(framework.node_table) == sort_nodes(framework.node_table)
    assert len(framework.target_ids) == len(framework.node_table)
    for row in framework.target_ids:
        assert all(a < b for a, b in zip(row, row[1:]))
        assert all(0 <= t < len(framework.node_table) for t in row)


def assert_flattenings_match(j):
    """Each int flattening stage of ``j``, under its shield, has the nodes
    and edges of the object-level reference and is canonical, and the rows
    of ``j`` are left as they were."""
    rows = [tuple(row) for row in j.target_ids]
    one, one_ref = flatten_one_step(j), reference.flatten_one_step(j)
    assert (one.nodes, one.joint_attacks) == (one_ref.nodes, one_ref.joint_attacks)
    two, two_ref = flatten_two_step(j), reference.flatten_joint_attacks(one_ref)
    assert (two.nodes, two.attacks) == (two_ref.nodes, two_ref.attacks)
    flat, flat_ref = flatten_simplified(j), reference.simplify(j, two_ref)
    assert (flat.nodes, flat.attacks) == (flat_ref.nodes, flat_ref.attacks)
    for framework in (one, two, flat):
        assert_canonical(framework)
    assert [tuple(row) for row in j.target_ids] == rows
    # the simplified flattening shares the row of each argument that
    # attacks no meta-argument with ``j``, and builds the others anew
    m = len(rows)
    for mine, theirs in zip(flat.target_ids, j.target_ids):
        assert (mine is theirs) == (max(mine, default=-1) < m)


class TestIntFlatteningMatchesReference:
    """The flattening stages run on node numbers; ``tests/reference.py``
    holds them as first written over NodeId sets."""

    def test_random_jsbafs_shielded_and_not(self):
        # criterion 09's frameworks, each flattened plain and with a
        # seeded random subset of its nodes shielded
        small = JsbafParams(max_nodes=5, attack_prob=0.25, max_supports=3, max_support_size=3)
        larger = JsbafParams(max_nodes=10, attack_prob=0.15, max_supports=4, max_support_size=3)
        # dense, overlapping supports, where two e-nodes would collide first
        dense = JsbafParams(max_nodes=6, attack_prob=0.2, max_supports=8, max_support_size=5)
        cases = [(small, seed) for seed in range(300)]
        cases += [(larger, 50000 + seed) for seed in range(200)]
        cases += [(dense, 70000 + seed) for seed in range(300)]
        for params, seed in cases:
            j = random_jsbaf(params, seed)
            assert_canonical(j)
            rng = random.Random(seed)
            shielded = [i for i in range(len(j.node_table)) if rng.random() < 0.5]
            for chosen in (j, shielding(j, shielded)):
                assert_flattenings_match(chosen)

    def test_handcrafted_mutual_and_mixed_supports(self, j1, j2, j3):
        a, b, c, d, w, x, y, z = (base(n) for n in "abcdwxyz")
        mutual = JSBAF({a, b, x, y}, set(), {(frozenset({x, b}), a), (frozenset({a, y}), b)})
        mixed = JSBAF(
            {w, d, y, z, a}, {(a, d)}, {(frozenset({w}), d), (frozenset({y, z}), d)}
        )
        for j in (j1, j2, j3, mutual, mixed):
            for chosen in (j, shielding(j, {0})):
                assert_flattenings_match(chosen)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_generalised_tandem(self, n):
        for k in range(1, n):
            j = prepare(parse_system(tandem_rules(n, k))).jsbaf
            assert_canonical(j)
            for chosen in (shielding(j), j):
                assert_flattenings_match(chosen)

    def test_tandem_7_3_shielded_and_not(self):
        j = prepare(parse_system(tandem_rules(7, 3))).jsbaf
        assert (len(j.node_table), sum(map(len, j.target_ids))) == (154, 8680)
        assert j.shielded
        for chosen in (shielding(j), j):
            assert_flattenings_match(chosen)

    def test_random_systems(self):
        for seed in range(100):
            system = random_system(SystemParams(6, 6, 6), seed).system
            prepared = prepare(system)
            j, flat = prepared.jsbaf, prepared.flat
            expected = reference.flatten_simplified(j)
            assert (flat.nodes, flat.attacks) == (expected.nodes, expected.attacks), seed

    def test_tandem_8_3_holds_one_object_per_node(self):
        """Every edge end, joint attack end, bar base and e-node member that
        is a node of a stage is that node's one object in the node table."""
        system = parse_system(tandem_rules(8, 3))
        prepared = prepare(system)
        one, two = flatten_one_step(prepared.jsbaf), flatten_two_step(prepared.jsbaf)
        for framework in (prepared.jsbaf, one, two, prepared.flat):
            table = framework.node_table
            by_key = {n.key(): n for n in table}
            assert len(by_key) == len(table)
            parts = [*table, *(n.base for n in table if isinstance(n, BarNode))]
            parts += [m for n in table if isinstance(n, ENode) for m in n.members]
            if isinstance(framework, HigherLevelAF):
                parts += [x for src, dst in framework.joint_attacks for x in (*src, dst)]
            else:
                parts += [x for pair in framework.attacks for x in pair]
            assert all(by_key.get(x.key(), x) is x for x in parts)
            assert {id(x) for x in parts if x.key() in by_key} == set(map(id, table))
        sizes = [len(f.node_table) for f in (prepared.jsbaf, one, two, prepared.flat)]
        assert sizes == [296, 584, 1712, 1152]


class TestShieldTravels:
    """The JSBAF of a rule system shields its strict arguments itself, so
    every flattening of it, by any caller, is the one ``eval`` searches."""

    def test_every_flattening_of_a_system_jsbaf_is_shielded(self, tmp_path, capsys):
        rules = tmp_path / "system.rules"
        shield_matters = 0
        for seed in range(300):
            system = random_system(SystemParams(6, 6, 6), seed).system
            prepared = prepare(system)
            j = prepared.jsbaf
            strict = {a.canonical_id for a in prepared.store.arguments if not a.defeasible}
            assert {j.labels[i] for i in j.shielded} == strict, seed
            assert flatten_simplified(j) == prepared.flat, seed
            shield_matters += flatten_simplified(shielding(j)) != prepared.flat
            rules.write_text(print_system(system))
            assert main(["flatten", "--file", str(rules), "--stage", "one-step"]) == 0
            assert capsys.readouterr().out == emit_dot(flatten_one_step(j)), seed
            for sem in SEMANTICS:
                ev = evaluate(prepared, sem, "deductive", len(prepared.flat.node_table))
                expected = [frozenset(j.node_table[i] for i in ext) for ext in ev.extensions]
                assert jsbaf_extensions(j, sem) == expected, (seed, sem)
        # the unshielded flattening differs on these many of the systems
        assert shield_matters == 83


def _label_order_systems():
    for seed in range(200):
        yield f"random {seed}", random_system(SystemParams(6, 6, 6), seed).system
    for n in range(2, 8):
        for k in range(1, n):
            yield f"tandem({n},{k})", parse_system(tandem_rules(n, k))
    yield "seed38", parse_system(SEED38_PATH.read_text())


class TestLabelOrder:
    """Every framework the pipeline builds numbers its nodes in label order,
    and its supports are sorted, so the report writes them as they are."""

    def test_pipeline_frameworks_are_numbered_in_label_order(self):
        for name, system in _label_order_systems():
            prepared = prepare(system)
            for framework in (prepared.af, prepared.jsbaf, prepared.flat):
                assert framework.labels == sorted(framework.labels), name
            support_ids = prepared.jsbaf.support_ids
            assert support_ids == sorted(support_ids), name


class TestBoundary:
    """The public constructors intern NodeId input; the views give it back."""

    def test_views_round_trip(self, j1):
        h = flatten_one_step(j1)
        assert JSBAF(j1.nodes, j1.attacks, j1.supports) == j1
        assert HigherLevelAF(h.nodes, h.joint_attacks) == h
        af = flatten_simplified(j1)
        assert AF(af.nodes, af.attacks) == af
        assert {n: af.attackers[n] for n in af.nodes} == {
            n: frozenset(s for s, d in af.attacks if d == n) for n in af.nodes
        }

    def test_a_shielded_jsbaf_round_trips(self, j1):
        j = shielding(j1, {0, 2})
        assert j.shielded == {0, 2}
        assert shielding(j, j.shielded) == j
        with pytest.raises(ValueError, match="shield has a node outside the node set"):
            JSBAF(j1.nodes, j1.attacks, j1.supports, {j1.node_table[0], base("z")})

    def test_equal_frameworks_hash_equal(self, j1):
        h, af = flatten_one_step(j1), flatten_simplified(j1)
        twins = (
            (JSBAF(j1.nodes, j1.attacks, j1.supports), j1),
            (HigherLevelAF(h.nodes, h.joint_attacks), h),
            (AF(af.nodes, af.attacks), af),
        )
        for twin, framework in twins:
            assert twin is not framework and twin == framework
            assert hash(twin) == hash(framework)
        shielded = shielding(j1, {0})
        assert (shielded.nodes, shielded.attacks, shielded.supports) == (
            j1.nodes, j1.attacks, j1.supports
        )
        assert shielded != j1
        assert len({j1, shielded, shielding(j1, {0})}) == 2

    def test_jsbaf_nodes_must_be_arguments(self):
        a, b = base("a"), base("b")
        for meta, label in ((bar(a), "bar(a)"), (e_node({a, b}), "e(a,b)")):
            with pytest.raises(ValueError, match=re.escape(f"JSBAF node {label} is not an")):
                JSBAF({a, b, meta}, set(), set())

    def test_joint_attack_endpoints_are_checked(self):
        a, b = base("a"), base("b")
        with pytest.raises(ValueError, match="nonempty attacker set"):
            HigherLevelAF({a}, {(frozenset(), a)})
        with pytest.raises(ValueError, match="nonempty attacker set"):
            HigherLevelAF({a}, {(frozenset(), b)})  # the empty set is refused first
        with pytest.raises(ValueError, match="joint attack has an endpoint outside"):
            HigherLevelAF({a}, {(frozenset({b}), a)})
        with pytest.raises(ValueError, match="joint attack has an endpoint outside"):
            HigherLevelAF({a}, {(frozenset({a}), b)})
        with pytest.raises(ValueError, match=re.escape("attack (a, b) has an endpoint outside")):
            JSBAF({a}, {(a, b)}, set())

    def test_support_endpoints_are_checked(self):
        a, b = base("a"), base("b")
        with pytest.raises(ValueError, match="support has an endpoint outside the node set"):
            JSBAF({a}, set(), {(frozenset({a, b}), a)})
        with pytest.raises(ValueError, match="support has an endpoint outside the node set"):
            JSBAF({a}, set(), {(frozenset({a}), b)})
        with pytest.raises(ValueError, match="support has an endpoint outside the node set"):
            JSBAF({a}, set(), {(frozenset(), b)})

    def test_a_relation_given_twice_is_held_once(self):
        a, b, c = base("a"), base("b"), base("c")
        twice = [((a, b), c), ([b, a, b], c), ((a,), c), ([a], c)]
        h = HigherLevelAF({a, b, c}, twice)
        assert (h.joint_attack_ids, h.target_ids) == ([((0, 1), 2)], [[2], [], []])
        j = JSBAF({a, b, c}, set(), [*twice, ((), b), ([], b)])
        assert j.support_ids == [((), 1), ((0,), 2), ((0, 1), 2)]
        assert j.supports == {
            (frozenset(), b), (frozenset({a}), c), (frozenset({a, b}), c),
        }

    def test_a_jsbaf_is_an_af_plus_supports(self, j1):
        for j in (j1, random_jsbaf(JsbafParams(max_nodes=8, attack_prob=0.3), 4)):
            af = AF(j.nodes, j.attacks)
            assert isinstance(j, AF) and j.attacks
            assert (j.attacks, j.attackers, j.targets) == (af.attacks, af.attackers, af.targets)
            assert (j.node_table, j.target_ids) == (af.node_table, af.target_ids)
            assert j != af and af != j
            assert JSBAF(j.nodes, j.attacks, ()) != af


def _lazy_table_systems():
    yield "tandem(3,2)", parse_system(tandem_rules(3, 2))
    yield "tandem(7,3)", parse_system(tandem_rules(7, 3))
    yield "seed38", parse_system(SEED38_PATH.read_text())


class TestNodeTableOnFirstRead:
    """The frameworks the pipeline builds hold their labels, ints and
    argument count, and build their node table only when it is read."""

    @pytest.mark.parametrize("mode", ("aspic-minus", "deductive"))
    @pytest.mark.parametrize("name", ("tandem(3,2)", "tandem(7,3)", "seed38"))
    def test_evaluate_and_a_json_report_build_no_node_table(self, name, mode):
        system = dict(_lazy_table_systems())[name]
        prepared = prepare(system)
        ev = evaluate(prepared, "grounded", mode)
        write_report(ev, name, "json", io.StringIO().write)
        for framework in (prepared.af, prepared.jsbaf, prepared.flat):
            assert "node_table" not in vars(framework), name

    @pytest.mark.parametrize("mode", ("aspic-minus", "deductive"))
    def test_a_json_eval_builds_no_node_id(self, monkeypatch, capsys, tmp_path, mode):
        def refuse(self, *args):
            raise AssertionError("a NodeId was built")

        for cls in (BaseNode, BarNode, ENode):
            monkeypatch.setattr(cls, "__init__", refuse)
        rules = tmp_path / "tandem.rules"
        rules.write_text(tandem_rules(5, 3))
        argv = ["eval", "--file", str(rules), "--semantics", "grounded", "--mode", mode]
        assert main(argv) in (0, 1)
        assert '"attacks"' in capsys.readouterr().out
        with pytest.raises(AssertionError, match="a NodeId was built"):
            prepare(parse_system(rules.read_text())).flat.node_table

    def test_a_table_built_on_first_read_equals_the_eager_reference(self):
        systems = [random_system(SystemParams(6, 6, 6), seed).system for seed in range(60)]
        systems += [parse_system(tandem_rules(n, k)) for n in range(2, 6) for k in range(1, n)]
        systems.append(parse_system(SEED38_PATH.read_text()))
        for system in systems:
            prepared = prepare(system)
            store, j = prepared.store, prepared.jsbaf
            args = sort_nodes(base(arg.canonical_id) for arg in store.arguments)
            assert list(prepared.af.node_table) == args
            assert j.node_table is prepared.af.node_table
            one_ref = reference.flatten_one_step(j)
            two_ref = reference.flatten_joint_attacks(one_ref)
            assert flatten_one_step(j).node_table == one_ref.node_table
            assert flatten_two_step(j).node_table == two_ref.node_table
            assert prepared.flat == reference.simplify(j, two_ref)

    def test_labels_and_argument_count_are_those_of_the_node_table(self):
        def check(framework, name):
            labels = [n.label for n in framework.node_table]
            assert framework.labels == labels, name
            assert framework.argument_count == sum(not is_meta(n) for n in framework.node_table)

        small = JsbafParams(max_nodes=5, attack_prob=0.25, max_supports=3, max_support_size=3)
        dense = JsbafParams(max_nodes=6, attack_prob=0.2, max_supports=8, max_support_size=5)
        cases = [(small, seed) for seed in range(200)]
        cases += [(dense, 70000 + seed) for seed in range(200)]
        for params, seed in cases:
            j = random_jsbaf(params, seed)
            rng = random.Random(seed)
            shielded = [i for i in range(len(j.node_table)) if rng.random() < 0.5]
            for chosen in (j, shielding(j, shielded)):
                for stage in (flatten_one_step, flatten_two_step, flatten_simplified):
                    check(stage(chosen), seed)
        for key in small_scope.keys(2, 1, 2):
            prepared = prepare(small_scope.build(key, 2))
            for framework in (prepared.af, prepared.jsbaf, prepared.flat):
                check(framework, key)

    def test_frameworks_pickle_and_copy_before_and_after_the_first_read(self):
        prepared = prepare(parse_system(tandem_rules(4, 2)))
        frameworks = [prepared.af, prepared.jsbaf, prepared.flat, flatten_one_step(prepared.jsbaf)]
        for framework in frameworks:
            copies = [pickle.loads(pickle.dumps(framework)), copy.deepcopy(framework)]
            assert all("node_table" not in vars(c) for c in copies)
            assert all(c.labels == framework.labels for c in copies)
            assert all(c == framework for c in copies)  # each table built on first read
            table = framework.node_table
            assert pickle.loads(pickle.dumps(framework)).node_table == table
            assert copy.deepcopy(framework).node_table == table
