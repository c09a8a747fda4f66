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

import random
import re
from pathlib import Path

import pytest

import reference
from jsbaf import (
    AF,
    JSBAF,
    HigherLevelAF,
    JsbafParams,
    SourceDocument,
    SystemParams,
    bar,
    base,
    e_node,
    flatten_joint_attacks,
    flatten_one_step,
    flatten_simplified,
    is_meta,
    parse_system,
    prepare,
    project_ids,
    prune_inert,
    random_jsbaf,
    random_system,
    sort_nodes,
)
from jsbaf.frameworks import BarNode, ENode
from jsbaf.semantics import FLATTEN_MODES, SEMANTICS, extension_ids

from conftest import node_labels, tandem_rules

SEED38_PATH = Path(__file__).resolve().parents[1] / "bench" / "seed38.rules"


def edge_labels(af):
    return {(s.label, d.label) for s, d in af.attacks}


def joint_labels(h):
    return {(frozenset(n.label for n in x), b.label) for x, b in h.joint_attacks}


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
    def test_two_step_pipeline_on_j1(self, j1):
        af = flatten_joint_attacks(flatten_one_step(j1))
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

    def test_singleton_attacks_flatten_to_the_same_af(self):
        a, b = base("a"), base("b")
        from jsbaf.frameworks import HigherLevelAF

        h = HigherLevelAF(frozenset({a, b}), frozenset({(frozenset({a}), b)}))
        af = flatten_joint_attacks(h)
        assert af.nodes == frozenset({a, b})
        assert edge_labels(af) == {("a", "b")}

    def test_one_binary_joint_attack(self):
        x, y, z = base("x"), base("y"), base("z")
        from jsbaf.frameworks import HigherLevelAF

        h = HigherLevelAF(frozenset({x, y, z}), frozenset({(frozenset({x, y}), z)}))
        af = flatten_joint_attacks(h)
        assert len(af.nodes) == 6
        assert edge_labels(af) == {
            ("x", "bar(x)"),
            ("y", "bar(y)"),
            ("bar(x)", "e(x,y)"),
            ("bar(y)", "e(x,y)"),
            ("e(x,y)", "z"),
        }

    def test_shared_attacker_set_shares_one_e_node(self):
        p, q, r, d = base("p"), base("q"), base("r"), base("d")
        from jsbaf.frameworks import HigherLevelAF

        h = HigherLevelAF(
            frozenset({p, q, r, d}),
            frozenset({(frozenset({p, d}), q), (frozenset({p, d}), r)}),
        )
        af = flatten_joint_attacks(h)
        e_nodes = [n for n in af.nodes if n.label.startswith("e(")]
        assert len(e_nodes) == 1
        assert {("e(d,p)", "q"), ("e(d,p)", "r")} <= edge_labels(af)


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

    def test_tandem_literal_and_pruned_node_sets(self, tandem_system):
        j = prepare(tandem_system).jsbaf
        af = flatten_simplified(j)
        expected_core = [
            "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9",
            "bar(A4)", "bar(A5)", "bar(A6)",
            "e(A4,A8)", "e(A4,A9)", "e(A5,A7)", "e(A5,A9)", "e(A6,A7)", "e(A6,A8)",
        ]
        assert node_labels(af.nodes) == sorted(
            expected_core + ["bar(A1)", "bar(A2)", "bar(A3)"]
        )
        pruned = prune_inert(af)
        assert node_labels(pruned.nodes) == sorted(expected_core)
        assert len(pruned.attacks) == 33

    def test_prune_inert_only_drops_outdegree_zero_meta_nodes(self, tandem_system):
        j = prepare(tandem_system).jsbaf
        af = flatten_simplified(j)
        pruned = prune_inert(af)
        dropped = af.nodes - pruned.nodes
        assert all(is_meta(n) for n in dropped)
        assert {n.label for n in dropped} == {"bar(A1)", "bar(A2)", "bar(A3)"}

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
        two = flatten_joint_attacks(flatten_one_step(j))
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
        two = flatten_joint_attacks(flatten_one_step(j))
        for sem in SEMANTICS:
            lhs = project_ids(extension_ids(af, sem), len(j.node_table))
            rhs = project_ids(extension_ids(two, sem), len(j.node_table))
            assert lhs == rhs


class TestFlatteningInvariants:
    def test_original_nodes_survive(self, j1, j2, j3):
        for j in (j1, j2, j3):
            assert j.nodes <= flatten_simplified(j).nodes
            assert j.nodes <= flatten_joint_attacks(flatten_one_step(j)).nodes

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
    assert list(framework.node_keys) == [n.key() for n in framework.node_table]
    assert len(framework.target_ids) == len(framework.node_table)
    for row in framework.target_ids:
        assert all(a < b for a, b in zip(row, row[1:]))
        assert all(0 <= t < len(framework.node_table) for t in row)


def assert_flattenings_match(j, shielded):
    """Each int flattening stage of ``j``, literal and pruned, has the nodes
    and edges of the object-level reference and is canonical, and the rows
    of ``j`` are left as they were; ``shielded`` numbers nodes of ``j``."""
    rows = [tuple(row) for row in j.target_ids]
    named = frozenset(j.node_table[i] for i in shielded)
    one, one_ref = flatten_one_step(j, shielded), reference.flatten_one_step(j, named)
    assert (one.nodes, one.joint_attacks) == (one_ref.nodes, one_ref.joint_attacks)
    two, two_ref = flatten_joint_attacks(one), reference.flatten_joint_attacks(one_ref)
    assert (two.nodes, two.attacks) == (two_ref.nodes, two_ref.attacks)
    flat, flat_ref = flatten_simplified(j, shielded), reference.simplify(j, two_ref)
    assert (flat.nodes, flat.attacks) == (flat_ref.nodes, flat_ref.attacks)
    pruned, pruned_ref = prune_inert(flat), reference.prune_inert(flat_ref)
    assert (pruned.nodes, pruned.attacks) == (pruned_ref.nodes, pruned_ref.attacks)
    for framework in (one, two, flat, pruned):
        assert_canonical(framework)
    assert [tuple(row) for row in j.target_ids] == rows
    # the simplified flattening shares the row of each argument that
    # attacks no meta-argument with ``j``, and builds the others anew
    m = len(rows)
    for mine, theirs in zip(flat.target_ids, j.target_ids):
        assert (mine is theirs) == (max(mine, default=-1) < m)


def _pipeline_jsbaf(system):
    prepared = prepare(system)
    return prepared.jsbaf, prepared.shielded


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
            shielded = frozenset(i for i in range(len(j.node_table)) if rng.random() < 0.5)
            for chosen in (frozenset(), shielded):
                assert_flattenings_match(j, chosen)

    def test_handcrafted_mutual_and_mixed_supports(self, j1, j2, j3):
        a, b, c, d, w, x, y, z = (base(n) for n in "abcdwxyz")
        mutual = JSBAF({a, b, x, y}, set(), {(frozenset({x, b}), a), (frozenset({a, y}), b)})
        mixed = JSBAF(
            {w, d, y, z, a}, {(a, d)}, {(frozenset({w}), d), (frozenset({y, z}), d)}
        )
        for j in (j1, j2, j3, mutual, mixed):
            for shielded in (frozenset(), frozenset({0})):
                assert_flattenings_match(j, shielded)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_generalised_tandem(self, n):
        for k in range(1, n):
            system = parse_system(SourceDocument(tandem_rules(n, k), "tandem"))
            j, shielded = _pipeline_jsbaf(system)
            assert_canonical(j)
            for chosen in (frozenset(), shielded):
                assert_flattenings_match(j, chosen)

    def test_tandem_7_3_shielded_and_not(self):
        system = parse_system(SourceDocument(tandem_rules(7, 3), "tandem"))
        j, shielded = _pipeline_jsbaf(system)
        assert (len(j.node_table), sum(map(len, j.target_ids))) == (154, 8680)
        for chosen in (frozenset(), shielded):
            assert_flattenings_match(j, chosen)

    def test_random_systems_in_both_flatten_modes(self):
        for seed in range(100):
            system = random_system(SystemParams(6, 6, 6), seed).system
            j, shielded = _pipeline_jsbaf(system)
            named = frozenset(j.node_table[i] for i in shielded)
            flat_ref = reference.flatten_simplified(j, named)
            expected_by_mode = {"literal": flat_ref, "prune-inert": reference.prune_inert(flat_ref)}
            for mode, expected in expected_by_mode.items():
                flat = prepare(system, flatten_mode=mode).flat
                assert (flat.nodes, flat.attacks) == (expected.nodes, expected.attacks), seed

    def test_tandem_8_3_holds_one_object_per_node(self):
        """Every edge end, bar base and e-node member that is a node of the
        flattening is that node's one object in the node table."""
        system = parse_system(SourceDocument(tandem_rules(8, 3), "tandem"))
        prepared = prepare(system)
        for framework in (prepared.jsbaf, prepared.flat):
            table = framework.node_table
            by_key = {n.key(): n for n in table}
            assert len(by_key) == len(table)
            parts = [*table, *(n.base for n in table if isinstance(n, BarNode))]
            parts += [m for n in table if isinstance(n, ENode) for m in n.members]
            parts += [x for pair in framework.attacks for x in pair]
            assert all(by_key.get(x.key(), x) is x for x in parts)
            assert {id(x) for x in parts if x.key() in by_key} == set(map(id, table))
        assert (len(prepared.jsbaf.node_table), len(prepared.flat.node_table)) == (296, 1152)


def _label_order_systems():
    for seed in range(200):
        yield f"random {seed}", random_system(SystemParams(6, 6, 6), seed).system
    for n in range(2, 8):
        for k in range(1, n):
            yield f"tandem({n},{k})", parse_system(SourceDocument(tandem_rules(n, k), "tandem"))
    yield "seed38", parse_system(SourceDocument(SEED38_PATH.read_text(), "seed38.rules"))


class TestLabelOrder:
    """Every framework the pipeline builds numbers its nodes in label order,
    and its supports are sorted, so the report writes them as they are."""

    @pytest.mark.parametrize("flatten_mode", FLATTEN_MODES)
    def test_pipeline_frameworks_are_numbered_in_label_order(self, flatten_mode):
        for name, system in _label_order_systems():
            prepared = prepare(system, flatten_mode=flatten_mode)
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

    def test_jsbaf_nodes_must_be_arguments(self):
        a, b = base("a"), base("b")
        for meta, label in ((bar(a), "bar(a)"), (e_node({a, b}), "e(a,b)")):
            with pytest.raises(ValueError, match=re.escape(f"JSBAF node {label} is not an")):
                JSBAF({a, b, meta}, set(), set())

    def test_joint_attack_endpoints_are_checked(self):
        a, b = base("a"), base("b")
        with pytest.raises(ValueError, match="nonempty attacker set"):
            HigherLevelAF({a}, {(frozenset(), a)})
        with pytest.raises(ValueError, match="endpoint outside"):
            HigherLevelAF({a}, {(frozenset({b}), a)})
        with pytest.raises(ValueError, match="endpoint outside"):
            JSBAF({a}, {(a, b)}, set())
