"""Report assembly, DOT, and APX emission."""

import collections
import importlib
import json
import sys
from pathlib import Path

import pytest

from jsbaf import (
    AF,
    DEFAULT_NODE_BOUND,
    MODES,
    SEMANTICS,
    LimitExceededError,
    SearchLimitExceededError,
    SourceDocument,
    SystemParams,
    base,
    emit_apx,
    emit_dot,
    evaluate,
    flatten_simplified,
    parse_system,
    prepare,
    random_system,
    write_report,
)
from jsbaf.arguments import DEFAULT_MAX_ARGUMENTS
from jsbaf.cli import main
from jsbaf.reporting import REPORT_FORMATS, report_settings, write_limit_report
from jsbaf.semantics import FLATTEN_MODES

import reference
from conftest import TANDEM_PATH, tandem_rules

DATA = Path(__file__).resolve().parent / "data"
SEED38_PATH = Path(__file__).resolve().parents[1] / "bench" / "seed38.rules"


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
        af = flatten_simplified(prepare(tandem_system).jsbaf)
        assert emit_apx(af) == emit_apx(af)


class TestDot:
    def test_tandem_jsbaf_shape(self, tandem_system):
        j = prepare(tandem_system).jsbaf
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


def written(writer, *args):
    """What ``writer(*args, write)`` writes, and its number of ``write`` calls."""
    chunks = []
    writer(*args, chunks.append)
    return "".join(chunks), len(chunks)


def preferred_text(system, mode, fmt="json", flatten_mode="literal"):
    """The report of one preferred evaluation under the default limits."""
    ev = evaluate(prepare(system, flatten_mode=flatten_mode), "preferred", mode)
    settings = report_settings(
        "preferred", mode, flatten_mode, DEFAULT_MAX_ARGUMENTS, DEFAULT_NODE_BOUND
    )
    return written(write_report, ev, "tandem", settings, fmt)[0]


def preferred_report(system, mode, flatten_mode="literal"):
    return json.loads(preferred_text(system, mode, "json", flatten_mode))


def sorted_pairs(framework):
    """The attacks of ``framework`` as label pairs, sorted."""
    return sorted([s.label, d.label] for s, d in framework.attacks)


def assert_canonical(out):
    """``out`` is a JSON report exactly as ``json.dumps`` would write it."""
    assert json.dumps(json.loads(out), indent=2, sort_keys=True, ensure_ascii=False) + "\n" == out


class TestReports:
    def test_json_report_is_deterministic(self, tandem_system):
        runs = [preferred_text(tandem_system, "deductive") for _ in range(2)]
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
        text = preferred_text(tandem_system, "deductive", "text")
        assert "A7: A5,A6 -> ~ht" in text
        assert "{A1,A2,A3,A4,A5,A9}" in text
        assert "summary: closure=satisfied" in text

    def test_limit_report_names_the_limit(self, tandem_system):
        """Both limit errors, the second raised by the library; their detail
        keys differ, and are written sorted."""
        with pytest.raises(SearchLimitExceededError) as info:
            evaluate(prepare(tandem_system), "preferred", "deductive", 5)
        cases = ((LimitExceededError(3), {"limit": 3}), (info.value, {"bound": 5, "nodes": 21}))
        for exc, detail in cases:
            rendered, calls = written(
                write_limit_report, "f.rules", {"semantics": "preferred"}, exc, "json"
            )
            report = json.loads(rendered)
            assert report["status"] == "limit-exceeded"
            assert report["error"] == {"type": type(exc).__name__, "message": str(exc), **detail}
            assert_canonical(rendered)
            assert calls == 1

    def test_flattened_section_lists_extensions(self, tandem_system):
        report = preferred_report(tandem_system, "deductive", "prune-inert")
        flat = report["flattened"]
        assert len(flat["nodes"]) == 18
        assert len(flat["extensions"]) == 3
        assert report["enumeration"] == {"count": 9, "acyclicity_pruned": False}

    def test_unknown_format_is_refused(self, tandem_system):
        ev = evaluate(prepare(tandem_system), "grounded", "deductive")
        settings = report_settings("grounded", "deductive", "literal", 5000, DEFAULT_NODE_BOUND)
        with pytest.raises(ValueError, match="unknown report format 'yaml'"):
            write_report(ev, "tandem", settings, "yaml", print)
        with pytest.raises(ValueError, match="unknown report format 'yaml'"):
            write_limit_report("tandem", settings, LimitExceededError(3), "yaml", print)


# Reports of `jsbaf eval --file tandem.rules`, run from demos/ and recorded
# before the report writer replaced the dict-and-json.dumps path.
GOLDEN = [
    ("tandem-preferred-deductive.json", ["--mode", "deductive"], 0),
    ("tandem-preferred-deductive.txt", ["--mode", "deductive", "--report", "text"], 0),
    ("tandem-preferred-aspic-minus.json", ["--mode", "aspic-minus"], 1),
    ("tandem-preferred-aspic-minus.txt", ["--mode", "aspic-minus", "--report", "text"], 1),
    ("tandem-preferred-prune-inert.json", ["--flatten", "prune-inert"], 0),
    ("tandem-max-nodes-5.json", ["--max-nodes", "5"], 3),
    ("tandem-max-nodes-5.txt", ["--max-nodes", "5", "--report", "text"], 3),
]


class TestReportBytes:
    @pytest.mark.parametrize("name, argv, code", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_golden_report(self, capsys, monkeypatch, name, argv, code):
        monkeypatch.chdir(TANDEM_PATH.parent)
        assert main(["eval", "--file", TANDEM_PATH.name, *argv]) == code
        assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("mode", MODES)
    def test_tandem_reports_are_canonical(self, capsys, mode, semantics):
        argv = ["eval", "--file", str(TANDEM_PATH), "--mode", mode, "--semantics", semantics]
        main(argv)
        assert_canonical(capsys.readouterr().out)

    def test_random_reports_are_canonical(self):
        params = SystemParams(4, 4, 4, undercut_density=0.4)
        for seed in range(40):
            prepared = prepare(random_system(params, seed).system)
            for semantics in SEMANTICS:
                for mode in MODES:
                    settings = report_settings(semantics, mode, "literal", 5000, DEFAULT_NODE_BOUND)
                    try:
                        ev = evaluate(prepared, semantics, mode)
                    except SearchLimitExceededError as exc:
                        out = written(write_limit_report, str(seed), settings, exc, "json")[0]
                    else:
                        out = written(write_report, ev, str(seed), settings, "json")[0]
                    assert_canonical(out)

    def test_inconsistent_and_limit_reports_are_canonical(self, capsys, tmp_path):
        rules = tmp_path / "inconsistent.rules"
        rules.write_text("strict s1: -> p\nstrict s2: -> ~p\ndefeasible d1: => q\n")
        assert main(["eval", "--file", str(rules), "--allow-inconsistent"]) == 1
        out = capsys.readouterr().out
        assert json.loads(out)["postulates_in_scope"] is False
        assert_canonical(out)
        assert main(["eval", "--file", str(TANDEM_PATH), "--max-nodes", "5"]) == 3
        assert_canonical(capsys.readouterr().out)

    def test_source_path_is_escaped(self, capsys, tmp_path):
        rules = tmp_path / 'quote" back\\slash\ttab \u00fcber.rules'
        rules.write_text(TANDEM_PATH.read_text())
        assert main(["eval", "--file", str(rules)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["input"]["source"] == str(rules)
        assert_canonical(out)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,k", [(6, 3), (7, 3)])
    def test_large_tandem_reports_are_canonical(self, n, k, mode):
        """Reports with thousands of witnesses and attacks, where attackers
        share hits tuples and target rows."""
        system = parse_system(SourceDocument(tandem_rules(n, k), f"tandem({n},{k})"))
        ev = evaluate(prepare(system), "grounded", mode)
        settings = report_settings("grounded", mode, "literal", 5000, DEFAULT_NODE_BOUND)
        out = written(write_report, ev, "tandem", settings, "json")[0]
        assert_canonical(out)
        report = json.loads(out)
        assert report["framework"]["attacks"] == sorted_pairs(ev.framework)
        assert report["framework"]["attack_witnesses"] == [w._asdict() for w in ev.witnesses]
        if ev.flat is not None:
            assert report["flattened"]["attacks"] == sorted_pairs(ev.flat)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,k", [(3, 2), (6, 3)])
    def test_text_attack_lines_are_the_sorted_label_pairs(self, n, k, mode):
        system = parse_system(SourceDocument(tandem_rules(n, k), f"tandem({n},{k})"))
        prepared = prepare(system)
        ev = evaluate(prepared, "grounded", mode)
        settings = report_settings("grounded", mode, "literal", 5000, DEFAULT_NODE_BOUND)
        lines = written(write_report, ev, "tandem", settings, "text")[0].splitlines()
        start = lines.index("attacks:") + 1
        end = start + len(prepared.af.attacks)
        assert lines[start:end] == [f"  {s} -> {d}" for s, d in sorted_pairs(prepared.af)]
        assert not lines[end].startswith("  ")

    @pytest.mark.parametrize("fmt", ("json", "text"))
    def test_write_calls_do_not_grow_with_the_report(self, fmt):
        """One count per mode, whatever the report holds: small and large
        reports, violated postulates, no extension at all."""
        # Each rule undercuts the next, round a cycle of three: no stable extension.
        odd_cycle = "".join(
            f"defeasible d{i}: => ~x{j}\nname d{j} = x{j}\n" for i, j in ((1, 2), (2, 3), (3, 1))
        )
        cases = [
            (tandem_rules(3, 2), "grounded"),
            (tandem_rules(7, 3), "grounded"),
            (tandem_rules(3, 2), "preferred"),
            (odd_cycle, "stable"),
        ]
        calls = collections.defaultdict(set)
        verdicts, empty = set(), set()
        for text, semantics in cases:
            prepared = prepare(parse_system(SourceDocument(text, "f.rules")))
            for mode in MODES:
                ev = evaluate(prepared, semantics, mode)
                settings = report_settings(semantics, mode, "literal", 5000, DEFAULT_NODE_BOUND)
                chunks = []
                verdicts.add(write_report(ev, "f.rules", settings, fmt, chunks.append))
                calls[mode].add(len(chunks))
                empty.add(not ev.extensions)
        assert verdicts == {True, False} and empty == {True, False}
        assert set(calls) == set(MODES)
        assert all(len(counts) == 1 for counts in calls.values())


def output(writer, *args):
    """What ``writer(*args, write)`` returns, and what it writes."""
    chunks = []
    return writer(*args, chunks.append), "".join(chunks)


def assert_as_reference(
    system, source="f.rules", semantics=SEMANTICS, flatten_mode="literal",
    max_arguments=DEFAULT_MAX_ARGUMENTS, max_nodes=DEFAULT_NODE_BOUND,
):
    """Every report of ``system``, in both modes and formats, is byte for
    byte the reference writer's, and so is the limit report of a run that
    goes over a limit."""
    try:
        prepared, error = prepare(system, max_arguments, flatten_mode, False), None
    except LimitExceededError as exc:
        prepared, error = None, exc
    for mode in MODES:
        for name in semantics:
            settings = report_settings(name, mode, flatten_mode, max_arguments, max_nodes)
            if prepared is not None:
                try:
                    ev, error = evaluate(prepared, name, mode, max_nodes), None
                except SearchLimitExceededError as exc:
                    error = exc
            for fmt in REPORT_FORMATS:
                if error is None:
                    args = (ev, source, settings, fmt)
                    assert output(write_report, *args) == output(reference.write_report, *args)
                else:
                    args = (source, settings, error, fmt)
                    expected = output(reference.write_limit_report, *args)
                    assert output(write_limit_report, *args) == expected


def tandem(n, k):
    return parse_system(SourceDocument(tandem_rules(n, k), f"tandem({n},{k})"))


class TestReferenceWriter:
    """The report writer against ``reference.write_report``, which builds
    the report as a dict and encodes it with a generic encoder."""

    def test_random_systems(self):
        params = SystemParams(6, 6, 6)
        for seed in range(200):
            assert_as_reference(random_system(params, seed).system, f"random-{seed}.rules")

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(1, n)])
    def test_tandem_grounded(self, n, k):
        assert_as_reference(tandem(n, k), semantics=("grounded",))

    @pytest.mark.parametrize("flatten_mode", FLATTEN_MODES)
    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
    def test_tandem_every_semantics(self, n, k, flatten_mode):
        assert_as_reference(tandem(n, k), flatten_mode=flatten_mode)

    def test_seed38_grounded(self):
        text = SEED38_PATH.read_text(encoding="utf-8")
        system = parse_system(SourceDocument(text, "seed38.rules"))
        assert_as_reference(system, semantics=("grounded",))

    @pytest.mark.parametrize("text", ("", "# comments only\n\n# and a blank line\n"))
    def test_empty_systems(self, text):
        assert_as_reference(parse_system(SourceDocument(text, "empty.rules")))

    def test_inconsistent_system(self):
        text = "strict s1: -> p\nstrict s2: -> ~p\ndefeasible d1: => q\nstrict s3: q -> r\n"
        assert_as_reference(parse_system(SourceDocument(text, "inconsistent.rules")))

    def test_escaped_source(self, tandem_system):
        assert_as_reference(tandem_system, 'quote" back\\slash\ttab \u00fcber.rules')

    def test_limit_reports(self, tandem_system):
        assert_as_reference(tandem_system, max_arguments=3)
        assert_as_reference(tandem_system, semantics=("preferred",), max_nodes=5)


# ``_attack_edges`` builds the int attack relation that the AF and the JSBAF
# share.  ``extension_ids`` is the search on node numbers; ``extensions``,
# which turns its results into NodeId sets for library callers, is counted
# to show that no command calls it.  The one-step and two-step frameworks
# are counted to show that only ``flatten --stage one-step|two-step``
# builds them: the simplified flattening is built without them.
STAGES = {
    "core": ("is_consistent",),
    "arguments": ("construct_arguments", "attack_witnesses", "_attack_edges"),
    "frameworks": ("flatten_one_step", "flatten_joint_attacks"),
    "semantics": ("flattened_af", "extension_ids", "extensions"),
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
            "_attack_edges": 1,
            "extension_ids": 1,
            **({"flattened_af": 1} if mode == "deductive" else {}),
        }

    def test_check_postulates_prepares_once(self, stage_calls, capsys):
        assert main(["check-postulates", "--file", str(TANDEM_PATH)]) == 1
        assert len(capsys.readouterr().out.splitlines()) == 24
        assert stage_calls == {
            "is_consistent": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "_attack_edges": 1,  # the AF and the JSBAF share one attack relation
            "flattened_af": 1,
            "extension_ids": 8,  # 4 semantics x 2 modes
        }

    @pytest.mark.parametrize(
        "stage, flattening",
        (
            ("one-step", {"flatten_one_step": 1}),
            ("two-step", {"flatten_one_step": 1, "flatten_joint_attacks": 1}),
            ("simplified", {"flattened_af": 1}),
        ),
    )
    def test_flatten_flattens_at_most_once(self, stage_calls, capsys, stage, flattening):
        assert main(["flatten", "--file", str(TANDEM_PATH), "--stage", stage]) == 0
        assert capsys.readouterr().out.startswith("digraph framework {")
        assert stage_calls == {
            "is_consistent": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "_attack_edges": 1,
            **flattening,
        }

    def test_flatten_refuses_apx_of_one_step_before_any_stage(self, stage_calls, capsys):
        argv = ["flatten", "--file", str(TANDEM_PATH), "--stage", "one-step", "--emit", "apx"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: APX cannot represent joint attacks; use --emit dot\n"
        )
        assert stage_calls == {}

    @pytest.mark.parametrize("stage", ("one-step", "two-step"))
    def test_flatten_refuses_prune_inert_of_unpruned_stages_before_any_stage(
        self, stage_calls, capsys, stage
    ):
        argv = ["flatten", "--file", str(TANDEM_PATH), "--stage", stage, "--flatten", "prune-inert"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "",
            f"error: --flatten prune-inert applies only to --stage simplified, "
            f"not --stage {stage}\n",
        )
        assert stage_calls == {}

    @pytest.mark.parametrize("command", ("eval", "oracle"))
    def test_aspic_minus_refuses_prune_inert_before_any_stage(self, stage_calls, capsys, command):
        argv = [command, "--file", str(TANDEM_PATH), "--mode", "aspic-minus"]
        assert main([*argv, "--flatten", "prune-inert"]) == 2
        assert capsys.readouterr() == (
            "",
            "error: --flatten prune-inert applies only to --mode deductive, "
            "not --mode aspic-minus\n",
        )
        assert stage_calls == {}

    def test_check_postulates_accepts_prune_inert(self, stage_calls, capsys):
        """It evaluates both modes, and prunes the deductive flattening."""
        assert main(["check-postulates", "--file", str(TANDEM_PATH), "--flatten", "prune-inert"]) == 1
        assert len(capsys.readouterr().out.splitlines()) == 24
        assert stage_calls["flattened_af"] == 1

    @pytest.mark.parametrize("mode", MODES)
    def test_oracle_runs_each_stage_once(self, stage_calls, capsys, mode):
        argv = ["oracle", "--file", str(TANDEM_PATH), "--mode", mode, "--semantics", "stable"]
        flatten = ["--flatten", "prune-inert"] if mode == "deductive" else []
        assert main([*argv, *flatten, "--oracle-cap", "18"]) == 0
        assert capsys.readouterr().out.startswith("stable: OK")
        assert stage_calls == {
            "is_consistent": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "_attack_edges": 1,
            "extension_ids": 1,
            **({"flattened_af": 1} if mode == "deductive" else {}),
        }

    @pytest.mark.parametrize("fmt", ("json", "text"))
    @pytest.mark.parametrize("mode", MODES)
    def test_report_reads_node_numbers_only(self, tandem_system, mode, fmt):
        """Evaluating and writing a report builds none of the NodeId views
        of the frameworks it reads."""
        prepared = prepare(tandem_system)
        ev = evaluate(prepared, "preferred", mode)
        settings = report_settings("preferred", mode, "literal", 5000, DEFAULT_NODE_BOUND)
        written(write_report, ev, "tandem", settings, fmt)
        views = {"nodes", "attacks", "supports", "attackers", "targets", "joint_attacks"}
        for framework in (prepared.af, prepared.jsbaf, prepared.flat):
            assert not views & set(vars(framework))

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
