"""Acceptance suite: one test per exit criterion, one pass line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value here is either read off the tandem worked
example, computed inside the test by the independent brute-force oracle or
by the postulate definitions of ``tests/reference.py``, or derived by hand
(commented where so).
"""

import json
import os
import subprocess
import sys
import time

from jsbaf import (
    SEMANTICS,
    brute_force_extensions,
    construct_arguments,
    evaluate,
    extension_ids,
    extensions,
    flatten_simplified,
    flatten_two_step,
    is_conflict_free_jsbaf,
    is_deductive_extension,
    jsbaf_extensions,
    prepare,
    project_ids,
    random_jsbaf,
    random_system,
)
from jsbaf.postulates import JsbafParams, SystemParams

import reference
from conftest import TANDEM_PATH, labelled_extensions, random_af


def ok(number, message):
    print(f"[acceptance] criterion {number}: PASS - {message}")


def test_criterion_01_tandem_argument_construction(tandem_system):
    started = time.time()
    store = construct_arguments(tandem_system)
    elapsed = time.time() - started
    assert [a.form for a in store.arguments] == [
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
    assert elapsed < 1.0
    ok(1, f"9 arguments, canonical forms exact, {elapsed:.3f}s")


def test_criterion_02_tandem_jsbaf(tandem_system):
    j = prepare(tandem_system).jsbaf
    mutual_pairs = {("A7", "A8"), ("A8", "A9"), ("A9", "A7"),
                    ("A7", "A4"), ("A8", "A5"), ("A9", "A6")}
    expected_attacks = {(a, b) for a, b in mutual_pairs} | {
        (b, a) for a, b in mutual_pairs
    }
    assert {(s.label, d.label) for s, d in j.attacks} == expected_attacks
    expected_supports = {
        (frozenset({"A5", "A6"}), "A7"),
        (frozenset({"A6", "A4"}), "A8"),
        (frozenset({"A4", "A5"}), "A9"),
        (frozenset(), "A1"),
        (frozenset(), "A2"),
        (frozenset(), "A3"),
    }
    got = {(frozenset(n.label for n in src), dst.label) for src, dst in j.supports}
    assert got == expected_supports
    ok(2, "12 attack edges (six mutual pairs) and six supports, exact")


def test_criterion_03_tandem_flattening_preferred(tandem_system):
    j = prepare(tandem_system).jsbaf
    expected = [
        sorted(["A1", "A2", "A3", "A9", "bar(A6)", "A4", "A5", "e(A5,A7)", "e(A4,A8)"]),
        sorted(["A1", "A2", "A3", "A8", "bar(A5)", "A4", "A6", "e(A6,A7)", "e(A4,A9)"]),
        sorted(["A1", "A2", "A3", "A7", "bar(A4)", "A6", "A5", "e(A6,A8)", "e(A5,A9)"]),
    ]
    started = time.time()
    flat = flatten_simplified(j)
    assert sorted(labelled_extensions(extensions(flat, "preferred"))) == sorted(expected)
    elapsed = time.time() - started
    assert elapsed < 5.0
    ok(3, f"preferred extensions are exactly E1', E2', E3', {elapsed:.3f}s")


def test_criterion_04_tandem_conclusions(tandem_system):
    sets = evaluate(prepare(tandem_system), "preferred", "deductive").conclusion_sets
    got = sorted(sorted(str(f) for f in cs.formulas) for cs in sets)
    assert got == [
        sorted(["hw", "sw", "tw", "~tt", "ht", "st"]),
        sorted(["hw", "sw", "tw", "~st", "ht", "tt"]),
        sorted(["hw", "sw", "tw", "~ht", "tt", "st"]),
    ]
    for cs in sets:
        assert cs.postulates == reference.postulate_verdicts(tandem_system, cs.formulas)
        assert cs.postulates.all_satisfied
    ok(4, "three DA- conclusion sets exact, all postulates satisfied")


def test_criterion_05_aspic_minus_baseline_contrast(tandem_system):
    af = prepare(tandem_system).af
    store = construct_arguments(tandem_system)
    conclusion_of = {a.canonical_id: a.conclusion for a in store.arguments}

    # oracle first: brute force confirms the violating preferred extension
    oracle_preferred = brute_force_extensions(af, "preferred")
    violating = frozenset(
        n for n in af.nodes if n.label in {"A1", "A2", "A3", "A4", "A5", "A6"}
    )
    assert violating in oracle_preferred
    violating_conclusions = frozenset(conclusion_of[n.label] for n in violating)
    assert sorted(map(str, violating_conclusions)) == ["ht", "hw", "st", "sw", "tt", "tw"]
    report = reference.postulate_verdicts(tandem_system, violating_conclusions)
    assert report.closure is not None
    assert report.indirect_consistency is not None
    assert report.direct_consistency is None

    # then the engine must reproduce it
    engine_sets = evaluate(prepare(tandem_system), "preferred", "aspic-minus").conclusion_sets
    flagged = [cs for cs in engine_sets if cs.postulates.closure is not None]
    assert [cs.formulas for cs in flagged] == [violating_conclusions]
    assert flagged[0].postulates == report
    ok(5, "oracle and engine agree: {ht,hw,st,sw,tt,tw} violates closure and indirect consistency")


def test_criterion_06_semantics_oracle_equivalence():
    started = time.time()
    for seed in range(10000):
        af = random_af(seed, 5, 0.3)
        for semantics in SEMANTICS:
            assert extensions(af, semantics) == brute_force_extensions(af, semantics), (
                f"seed={seed} semantics={semantics}"
            )
    for seed in range(500):
        af = random_af(100000 + seed, 12, 0.2)
        for semantics in SEMANTICS:
            assert extensions(af, semantics) == brute_force_extensions(af, semantics), (
                f"seed={100000 + seed} semantics={semantics}"
            )
    elapsed = time.time() - started
    assert elapsed < 300.0
    ok(6, f"10,000 small + 500 mid AFs, zero discrepancies, {elapsed:.1f}s")


def test_criterion_07_lemma_property_suite():
    # nonempty sources: an attacked node with an empty-source support
    # falsifies deductiveness under any conflict-free semantics, so the
    # lemma quantifies over the sizes its proof covers
    params = JsbafParams(
        max_nodes=10, attack_prob=0.15, max_supports=4,
        max_support_size=3, min_support_size=1,
    )
    for seed in range(500):
        j = random_jsbaf(params, seed)
        for semantics in SEMANTICS:
            for ext in jsbaf_extensions(j, semantics):
                deductive, witness = is_deductive_extension(j, ext)
                assert deductive, f"seed={seed} semantics={semantics} witness={witness}"
                conflict_free, witness = is_conflict_free_jsbaf(j, ext)
                assert conflict_free, f"seed={seed} semantics={semantics} witness={witness}"
    ok(7, "500 random JSBAFs: every sup(semantics)-extension deductive and conflict-free")


def test_criterion_08_theorem_property_suite():
    params = SystemParams(
        n_atoms=6, n_strict=4, n_defeasible=4, max_body=2, undercut_density=0.25
    )
    for seed in range(500):
        generated = random_system(params, seed)
        prepared = prepare(generated.system, 2000)
        for semantics in SEMANTICS:
            for cs in evaluate(prepared, semantics, "deductive", max_nodes=200).conclusion_sets:
                report = reference.postulate_verdicts(generated.system, cs.formulas)
                assert cs.postulates == report
                assert report.all_satisfied, (
                    f"seed={seed} semantics={semantics} "
                    f"conclusions={sorted(map(str, cs.formulas))} "
                    f"closure={report.closure} direct={report.direct_consistency} "
                    f"indirect={report.indirect_consistency}"
                )
    ok(8, "500 random consistent systems: closure, direct and indirect consistency hold")


def test_criterion_09_simplified_flattening_equivalence():
    small = JsbafParams(max_nodes=5, attack_prob=0.25, max_supports=3, max_support_size=3)
    larger = JsbafParams(max_nodes=10, attack_prob=0.15, max_supports=4, max_support_size=3)
    cases = [(small, seed) for seed in range(300)] + [
        (larger, 50000 + seed) for seed in range(200)
    ]
    for params, seed in cases:
        j = random_jsbaf(params, seed)
        simplified = flatten_simplified(j)
        two_step = flatten_two_step(j)
        for semantics in SEMANTICS:
            lhs = project_ids(extension_ids(simplified, semantics), len(j.node_table))
            rhs = project_ids(extension_ids(two_step, semantics), len(j.node_table))
            assert lhs == rhs, f"seed={seed} semantics={semantics}"
    ok(9, "500 JSBAFs: projected extensions of the simplified and two-step flattenings agree")


def test_criterion_10_eval_determinism():
    command = [
        sys.executable, "-W", "error", "-m", "jsbaf.cli", "eval",
        "--file", str(TANDEM_PATH), "--semantics", "preferred",
        "--mode", "deductive", "--report", "json",
    ]
    env = {**os.environ, "PYTHONPATH": str(TANDEM_PATH.parents[1] / "src")}
    first = subprocess.run(command, capture_output=True, check=True, env=env)
    second = subprocess.run(command, capture_output=True, check=True, env=env)
    assert first.stdout == second.stdout
    assert first.stdout.strip()
    report = json.loads(first.stdout)
    assert report["status"] == "ok"
    ok(10, "repeated eval runs produce byte-identical JSON reports")
