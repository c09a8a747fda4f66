"""Report assembly, DOT, and APX emission."""

import collections
import importlib
import json
import sys

import pytest

from jsbaf import (
    AF,
    DEFAULT_NODE_BOUND,
    MODES,
    SEMANTICS,
    EnumerationLimits,
    LimitExceededError,
    base,
    build_da_jsbaf,
    build_report,
    emit_apx,
    emit_dot,
    emit_report,
    evaluate,
    flatten_simplified,
    prepare,
)
from jsbaf.cli import main
from jsbaf.reporting import limit_error_report, report_settings

from conftest import TANDEM_PATH


class TestApx:
    def test_single_attack(self):
        a, b = base("a"), base("b")
        af = AF(frozenset({a, b}), frozenset({(a, b)}))
        assert emit_apx(af) == "arg(a).\narg(b).\natt(a,b).\n"

    def test_flattened_single_support(self, j2):
        text = emit_apx(flatten_simplified(j2))
        lines = text.splitlines()
        assert lines[:3] == ["arg(a).", "arg(b).", "arg(bar_b)."]
        assert lines[3:5] == ["att(b,bar_b).", "att(bar_b,a)."]
        assert lines[5] == "% bar_b := bar(b)"

    def test_empty_framework_is_an_empty_file(self):
        assert emit_apx(AF(frozenset(), frozenset())) == ""

    def test_sanitisation_is_collision_safe(self):
        af = AF(frozenset({base("A_1"), base("a.1")}), frozenset())
        text = emit_apx(af)
        assert "arg(a_1)." in text and "arg(a_1_2)." in text
        assert "% a_1_2 :=" in text

    def test_idempotent_output(self, tandem_system):
        af = flatten_simplified(build_da_jsbaf(tandem_system))
        assert emit_apx(af) == emit_apx(af)


class TestDot:
    def test_tandem_jsbaf_shape(self, tandem_system):
        j = build_da_jsbaf(tandem_system)
        dot = emit_dot(j)
        assert dot.startswith("digraph framework {")
        declarations = [
            line for line in dot.splitlines()
            if line.startswith('  "A') and " -> " not in line
        ]
        assert len(declarations) == 9
        assert dot.count(" -> ") == 12 + 6 + 6  # attacks + supporter legs + support heads
        assert dot.count("shape=point") == 6

    def test_empty_framework(self):
        assert emit_dot(AF(frozenset(), frozenset())) == "digraph framework {\n}\n"

    def test_flattened_j1_marks_meta_arguments(self, j1):
        dot = emit_dot(flatten_simplified(j1))
        declarations = [
            line for line in dot.splitlines()
            if line.endswith(";") and " -> " not in line
        ]
        assert len(declarations) == 8
        assert dot.count("shape=box, style=dashed") == 4  # two bars, two e-nodes
        assert '"e(b,c)" -> "a";' in dot

    def test_higher_level_joint_attacks_use_junctions(self, j1):
        from jsbaf import flatten_one_step

        dot = emit_dot(flatten_one_step(j1))
        assert dot.count("shape=point") == 2  # the two binary joint attacks


def preferred_report(system, mode, flatten_mode="literal"):
    """The report of one preferred evaluation under the default limits."""
    ev = evaluate(prepare(system, flatten_mode=flatten_mode), "preferred", mode)
    settings = report_settings(
        "preferred", mode, flatten_mode, EnumerationLimits().max_arguments, DEFAULT_NODE_BOUND
    )
    return build_report(ev, "tandem", settings)


class TestReports:
    def test_json_report_is_deterministic(self, tandem_system):
        runs = [
            emit_report(
                preferred_report(tandem_system, "deductive"), "json"
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_deductive_report_carries_the_paper_conclusions(self, tandem_system):
        report = preferred_report(tandem_system, "deductive")
        conclusions = sorted(e["conclusions"] for e in report["conclusion_sets"])
        assert conclusions == [
            ["ht", "hw", "st", "sw", "tw", "~tt"],
            ["ht", "hw", "sw", "tt", "tw", "~st"],
            ["hw", "st", "sw", "tt", "tw", "~ht"],
        ]
        assert report["postulate_summary"] == {
            "closure": "satisfied",
            "direct_consistency": "satisfied",
            "indirect_consistency": "satisfied",
        }

    def test_aspic_report_flags_the_violation_with_witness(self, tandem_system):
        report = preferred_report(tandem_system, "aspic-minus")
        assert report["postulate_summary"]["closure"] == "violated"
        violating = [
            e for e in report["conclusion_sets"]
            if not e["postulates"]["closure"]["satisfied"]
        ]
        assert len(violating) == 1
        witness = violating[0]["postulates"]["closure"]["witness"]
        assert witness["missing_head"].startswith("~")
        assert "supports" not in report["framework"]

    def test_text_report_renders_the_same_content(self, tandem_system):
        report = preferred_report(tandem_system, "deductive")
        text = emit_report(report, "text")
        assert "A7: A5,A6 -> ~ht" in text
        assert "{A1,A2,A3,A4,A5,A9}" in text
        assert "summary: closure=satisfied" in text

    def test_limit_report_names_the_limit(self):
        report = limit_error_report("f.rules", {"semantics": "preferred"}, LimitExceededError(3))
        assert report["status"] == "limit-exceeded"
        assert report["error"]["limit"] == 3
        rendered = emit_report(report, "json")
        assert json.loads(rendered)["error"]["type"] == "LimitExceededError"

    def test_flattened_section_lists_extensions(self, tandem_system):
        report = preferred_report(tandem_system, "deductive", "prune-inert")
        flat = report["flattened"]
        assert len(flat["nodes"]) == 18
        assert len(flat["extensions"]) == 3
        assert report["enumeration"] == {"count": 9, "acyclicity_pruned": False}


STAGES = {
    "core": ("is_consistent",),
    "arguments": ("construct_arguments", "attack_witnesses"),
    "semantics": ("flattened_af", "extensions"),
}


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts the calls of each stage function, through every name a
    ``jsbaf`` module binds it to."""
    counts = collections.Counter()
    holders = [m for n, m in sys.modules.items() if n == "jsbaf" or n.startswith("jsbaf.")]
    for module_name, names in STAGES.items():
        module = importlib.import_module(f"jsbaf.{module_name}")
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        monkeypatch.setattr(holder, attr, counted)
    return counts


class TestOneEvaluationPass:
    @pytest.mark.parametrize("mode", MODES)
    def test_eval_runs_each_stage_once(self, stage_calls, capsys, mode):
        code = main(["eval", "--file", str(TANDEM_PATH), "--mode", mode])
        assert code in (0, 1) and json.loads(capsys.readouterr().out)["status"] == "ok"
        assert stage_calls == {
            "is_consistent": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "extensions": 1,
            **({"flattened_af": 1} if mode == "deductive" else {}),
        }

    def test_check_postulates_prepares_once(self, stage_calls, capsys):
        assert main(["check-postulates", "--file", str(TANDEM_PATH)]) == 1
        assert len(capsys.readouterr().out.splitlines()) == 24
        assert stage_calls == {
            "is_consistent": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "flattened_af": 1,
            "extensions": 8,  # 4 semantics x 2 modes
        }

    @pytest.mark.parametrize("stage", ("one-step", "two-step", "simplified"))
    def test_flatten_flattens_at_most_once(self, stage_calls, capsys, stage):
        assert main(["flatten", "--file", str(TANDEM_PATH), "--stage", stage]) == 0
        assert capsys.readouterr().out.startswith("digraph framework {")
        assert stage_calls == {
            "is_consistent": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            **({"flattened_af": 1} if stage == "simplified" else {}),
        }

    @pytest.mark.parametrize("mode", MODES)
    def test_oracle_runs_each_stage_once(self, stage_calls, capsys, mode):
        argv = ["oracle", "--file", str(TANDEM_PATH), "--mode", mode, "--semantics", "stable"]
        assert main([*argv, "--flatten", "prune-inert", "--oracle-cap", "18"]) == 0
        assert capsys.readouterr().out.startswith("stable: OK")
        assert stage_calls == {
            "is_consistent": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "extensions": 1,
            **({"flattened_af": 1} if mode == "deductive" else {}),
        }

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("mode", MODES)
    def test_report_agrees_with_conclusion_sets(self, tandem_system, capsys, mode, semantics):
        main(["eval", "--file", str(TANDEM_PATH), "--mode", mode, "--semantics", semantics])
        report = json.loads(capsys.readouterr().out)
        expected = [
            {"extension": list(cs.extension), "conclusions": sorted(map(str, cs.formulas))}
            for cs in evaluate(prepare(tandem_system), semantics, mode).conclusion_sets
        ]
        got = [
            {"extension": e["extension"], "conclusions": e["conclusions"]}
            for e in report["conclusion_sets"]
        ]
        assert got == expected
