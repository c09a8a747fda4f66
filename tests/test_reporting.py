"""Report assembly, DOT, and APX emission."""

import bisect
import collections
import importlib
import inspect
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from jsbaf import (
    AF,
    DEFAULT_NODE_BOUND,
    MODES,
    SEMANTICS,
    LimitExceededError,
    SearchLimitExceededError,
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
from jsbaf import reporting
from jsbaf.arguments import DEFAULT_MAX_ARGUMENTS
from jsbaf.cli import main
from jsbaf.reporting import PIECE, REPORT_FORMATS, report_settings, write_limit_report

import reference
from conftest import TANDEM_PATH, tandem_rules

# Each rule undercuts the next, round a cycle of three: no stable extension.
ODD_CYCLE = "".join(
    f"defeasible d{i}: => ~x{j}\nname d{j} = x{j}\n" for i, j in ((1, 2), (2, 3), (3, 1))
)

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

    def test_tandem_jsbaf_is_the_golden(self, tandem_system):
        dot = emit_dot(prepare(tandem_system).jsbaf)
        assert dot == (DATA / "tandem-jsbaf.dot").read_text(encoding="utf-8")

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


def preferred_text(system, mode, fmt="json"):
    """The report of one preferred evaluation under the default limits."""
    ev = evaluate(prepare(system), "preferred", mode)
    return written(write_report, ev, "tandem", fmt)[0]


def preferred_report(system, mode):
    return json.loads(preferred_text(system, mode, "json"))


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
        report = preferred_report(tandem_system, "deductive")
        flat = report["flattened"]
        assert (flat["mode"], report["settings"]["flatten"]) == ("literal", "literal")
        assert len(flat["nodes"]) == 21
        assert len(flat["extensions"]) == 3
        assert report["enumeration"] == {"count": 9, "acyclicity_pruned": False}

    def test_unknown_format_is_refused(self, tandem_system):
        ev = evaluate(prepare(tandem_system), "grounded", "deductive")
        with pytest.raises(ValueError, match="unknown report format 'yaml'"):
            write_report(ev, "tandem", "yaml", print)
        settings = report_settings("grounded", "deductive", 5000, DEFAULT_NODE_BOUND)
        with pytest.raises(ValueError, match="unknown report format 'yaml'"):
            write_limit_report("tandem", settings, LimitExceededError(3), "yaml", print)


class TestReportStatesItsRun:
    """A report's settings are the parameters its run was given, read from
    the ``Evaluation``: the writer takes no settings from its caller."""

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("mode", MODES)
    def test_settings_are_the_run_arguments(self, tandem_system, mode, semantics):
        """Caps of 9 arguments (the tandem has 9) and 21 nodes (its
        flattening has 21), neither of them a default."""
        ev = evaluate(prepare(tandem_system, 9), semantics, mode, 21)
        flatten = "literal" if mode == "deductive" else None
        report = json.loads(written(write_report, ev, "tandem", "json")[0])
        assert report["settings"] == {
            "semantics": semantics, "mode": mode, "flatten": flatten,
            "max_arguments": 9, "max_nodes": 21,
        }
        assert report.get("flattened", {}).get("mode") == flatten
        lines = written(write_report, ev, "tandem", "text")[0].splitlines()
        suffix = ", flatten=literal" if flatten else ""
        assert lines[2] == f"run: semantics={semantics}, mode={mode}{suffix}"
        assert f"extensions ({semantics}):" in lines
        flattened = [line for line in lines if line.startswith("flattened (")]
        assert flattened == (["flattened (literal): 21 nodes, 36 attacks"] if flatten else [])

    def test_defaults_are_stated(self, tandem_system):
        ev = evaluate(prepare(tandem_system), "grounded", "aspic-minus")
        settings = json.loads(written(write_report, ev, "tandem", "json")[0])["settings"]
        assert (settings["max_arguments"], settings["max_nodes"]) == (
            DEFAULT_MAX_ARGUMENTS, DEFAULT_NODE_BOUND,
        )

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    @pytest.mark.parametrize("mode", MODES)
    def test_eval_states_its_options(self, capsys, mode, fmt):
        argv = [
            "eval", "--file", str(TANDEM_PATH), "--semantics", "stable", "--mode", mode,
            "--report", fmt, "--max-arguments", "12", "--max-nodes", "30",
        ]
        assert main(argv) in (0, 1)
        out = capsys.readouterr().out
        if fmt == "json":
            settings = json.loads(out)["settings"]
            assert (settings["semantics"], settings["mode"]) == ("stable", mode)
            assert (settings["max_arguments"], settings["max_nodes"]) == (12, 30)
        else:
            suffix = ", flatten=literal" if mode == "deductive" else ""
            assert out.splitlines()[2] == f"run: semantics=stable, mode={mode}{suffix}"

    def test_the_writer_takes_no_settings(self):
        assert list(inspect.signature(write_report).parameters) == ["ev", "source", "fmt", "write"]


# Reports of `jsbaf eval --file tandem.rules`, run from demos/ and recorded
# before the report writer replaced the dict-and-json.dumps path.
GOLDEN = [
    ("tandem-preferred-deductive.json", ["--mode", "deductive"], 0),
    ("tandem-preferred-deductive.txt", ["--mode", "deductive", "--report", "text"], 0),
    ("tandem-preferred-aspic-minus.json", ["--mode", "aspic-minus"], 1),
    ("tandem-preferred-aspic-minus.txt", ["--mode", "aspic-minus", "--report", "text"], 1),
    ("tandem-max-nodes-5.json", ["--max-nodes", "5"], 3),
    ("tandem-max-nodes-5.txt", ["--max-nodes", "5", "--report", "text"], 3),
]

# Reports of `jsbaf eval --file atoms-p.rules`, a system of no rule and so of
# no argument, recorded at d3437a7.
NO_ARGUMENT = [
    (f"atoms-p-{mode}.{ext}", ["--mode", mode, "--report", fmt])
    for mode in MODES for fmt, ext in (("json", "json"), ("text", "txt"))
]


def record_text(value, depth):
    """``value`` as a JSON report writes it as an item of a list whose items
    start on lines at ``depth``, with the line break and indent before it."""
    indent = "\n" + "  " * depth
    text = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
    return indent + text.replace("\n", indent)


def assert_groups_whole(report, writes, start, groups, sep):
    """From ``start`` on, ``report`` holds the texts ``groups`` with ``sep``
    between them, and no group is split between two of ``writes``."""
    ends = list(itertools.accumulate(map(len, writes)))
    for text in groups:
        assert report.startswith(text, start)
        end = start + len(text)
        assert bisect.bisect_right(ends, start) == bisect.bisect_right(ends, end - 1)
        start = end + len(sep)


class TestReportBytes:
    @pytest.mark.parametrize("name, argv, code", GOLDEN, ids=[g[0] for g in GOLDEN])
    def test_golden_report(self, capsys, monkeypatch, name, argv, code):
        monkeypatch.chdir(TANDEM_PATH.parent)
        assert main(["eval", "--file", TANDEM_PATH.name, *argv]) == code
        assert capsys.readouterr().out == (DATA / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("name, argv", NO_ARGUMENT, ids=[g[0] for g in NO_ARGUMENT])
    def test_report_of_a_system_with_no_argument(self, capsys, monkeypatch, tmp_path, name, argv):
        """Every list of arguments, attacks and witnesses is empty, and the
        one extension and conclusion set are empty too."""
        (tmp_path / "atoms-p.rules").write_text("atoms p\n")
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--file", "atoms-p.rules", *argv]) == 0
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
                    try:
                        ev = evaluate(prepared, semantics, mode)
                    except SearchLimitExceededError as exc:
                        settings = report_settings(semantics, mode, 5000, DEFAULT_NODE_BOUND)
                        out = written(write_limit_report, str(seed), settings, exc, "json")[0]
                    else:
                        out = written(write_report, ev, str(seed), "json")[0]
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
        system = parse_system(tandem_rules(n, k))
        ev = evaluate(prepare(system), "grounded", mode)
        out = written(write_report, ev, "tandem", "json")[0]
        assert_canonical(out)
        report = json.loads(out)
        assert report["framework"]["attacks"] == sorted_pairs(ev.framework)
        assert report["framework"]["attack_witnesses"] == [w._asdict() for w in ev.witnesses]
        if ev.flat is not None:
            assert report["flattened"]["attacks"] == sorted_pairs(ev.flat)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,k", [(3, 2), (6, 3)])
    def test_text_attack_lines_are_the_sorted_label_pairs(self, n, k, mode):
        system = parse_system(tandem_rules(n, k))
        prepared = prepare(system)
        ev = evaluate(prepared, "grounded", mode)
        lines = written(write_report, ev, "tandem", "text")[0].splitlines()
        start = lines.index("attacks:") + 1
        end = start + len(prepared.af.attacks)
        assert lines[start:end] == [f"  {s} -> {d}" for s, d in sorted_pairs(prepared.af)]
        assert not lines[end].startswith("  ")

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_writes_are_bounded_pieces(self, monkeypatch, fmt):
        """Small and large reports, violated postulates, no extension at
        all: every write but the last holds a full piece, and none is longer
        than a piece and the longest part, a write made with pieces of one
        char.  So the writes grow with the bytes, and a report shorter than
        a piece is one write."""
        cases = [
            (tandem_rules(3, 2), "grounded"),
            (tandem_rules(7, 3), "grounded"),
            (tandem_rules(8, 3), "grounded"),
            (tandem_rules(3, 2), "preferred"),
            (ODD_CYCLE, "stable"),
        ]
        verdicts, empty, pieces = set(), set(), set()
        for text, semantics in cases:
            prepared = prepare(parse_system(text))
            for mode in MODES:
                ev = evaluate(prepared, semantics, mode)
                chunks = []
                verdicts.add(write_report(ev, "f.rules", fmt, chunks.append))
                report = "".join(chunks)
                monkeypatch.setattr(reporting, "PIECE", 1)
                parts = []
                write_report(ev, "f.rules", fmt, parts.append)
                monkeypatch.undo()
                longest = max(map(len, parts))
                assert all(len(chunk) >= PIECE for chunk in chunks[:-1])
                assert max(map(len, chunks)) <= PIECE + longest
                assert len(chunks) >= max(1, len(report) // (PIECE + longest))
                assert len(chunks) == 1 or len(report) >= PIECE
                pieces.add(len(chunks) > 1)
                empty.add(not ev.extensions)
        assert verdicts == {True, False} and empty == {True, False} and pieces == {True, False}

    @pytest.mark.parametrize("piece", (16, 256))
    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    def test_small_pieces_join_to_the_same_report(self, monkeypatch, fmt, piece):
        """With pieces of a few chars, ``add`` flushes after most parts:
        the writes join to the report written whole, every write but the
        last holds a full piece, and none exceeds the piece plus the longest
        write made with pieces of one char, each of which is one part (a
        group of records, a whole list, a fixed block)."""
        cases = [(tandem_rules(3, 2), "preferred"), (tandem_rules(5, 2), "grounded")]
        for text, semantics in cases:
            prepared = prepare(parse_system(text))
            for mode in MODES:
                ev = evaluate(prepared, semantics, mode)
                report = written(write_report, ev, "f.rules", fmt)[0]
                monkeypatch.setattr(reporting, "PIECE", 1)
                parts = []
                write_report(ev, "f.rules", fmt, parts.append)
                monkeypatch.setattr(reporting, "PIECE", piece)
                chunks = []
                write_report(ev, "f.rules", fmt, chunks.append)
                monkeypatch.undo()
                assert "".join(parts) == "".join(chunks) == report
                assert all(len(chunk) >= piece for chunk in chunks[:-1])
                assert max(map(len, chunks)) <= piece + max(map(len, parts))

    @pytest.mark.parametrize("mode", MODES)
    def test_a_report_whose_lists_fit_is_one_write_of_whole_lists(self, mode):
        """tandem(3,2) preferred, far below a piece (in aspic-minus mode
        with violated verdicts): the JSON report is one write."""
        ev = evaluate(prepare(tandem(3, 2)), "preferred", mode)
        report, writes = written(write_report, ev, "f.rules", "json")
        assert writes == 1 and len(report) < PIECE

    @pytest.mark.parametrize("mode", MODES)
    def test_a_text_report_whose_runs_fit_is_one_write_of_whole_runs(self, mode):
        """The text twin of the test above: the text report of tandem(3,2)
        preferred is one write."""
        ev = evaluate(prepare(tandem(3, 2)), "preferred", mode)
        report, writes = written(write_report, ev, "f.rules", "text")
        assert writes == 1 and len(report) < PIECE

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    @pytest.mark.parametrize("mode", MODES)
    def test_no_record_group_is_split_between_writes(self, monkeypatch, mode, fmt):
        """tandem(7,3) grounded, with pieces of one char: each source's
        attack row (in the AF and in the flattening) and each attacker's
        witness records arrive in one write."""
        ev = evaluate(prepare(tandem(7, 3)), "grounded", mode)
        monkeypatch.setattr(reporting, "PIECE", 1)
        writes = []
        write_report(ev, "f.rules", fmt, writes.append)
        report = "".join(writes)

        def after(marker, start=0):
            return report.index(marker, start) + len(marker)

        if fmt == "text":
            start = after("\nattacks:")
            lines = report[start:].split("\n\n")[0].splitlines()[1:]
            rows = itertools.groupby(lines, key=lambda line: line.split(" -> ")[0])
            groups = ["".join("\n" + line for line in row) for _, row in rows]
            assert len(groups) > 1 and sum(map(len, groups)) > 10_000
            return assert_groups_whole(report, writes, start, groups, "")
        parsed = json.loads(report)
        sections = [
            (after('"attack_witnesses": ['), parsed["framework"]["attack_witnesses"],
             lambda witness: witness["attacker"]),
            (after('"attacks": [', after('"framework": {')), parsed["framework"]["attacks"],
             lambda pair: pair[0]),
        ]
        if ev.flat is not None:
            sections.append((after('"attacks": [', after('"flattened": {')),
                             parsed["flattened"]["attacks"], lambda pair: pair[0]))
        for start, records, key in sections:
            groups = [",".join(record_text(record, 3) for record in group)
                      for _, group in itertools.groupby(records, key)]
            assert len(groups) > 1
            assert_groups_whole(report, writes, start, groups, ",")

    @pytest.mark.parametrize("mode", MODES)
    def test_writing_a_large_report_adds_little_memory(self, mode):
        """tandem(7,3): a report of 1.4 MiB (aspic-minus) or 1.9 MiB
        (deductive), which the writer never holds whole."""
        ev = evaluate(prepare(tandem(7, 3)), "grounded", mode)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_report(ev, "tandem", "json", len)
            rise = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert rise < 1 << 19

    def test_large_report_in_its_own_process_peaks_below_64_mb(self, tmp_path):
        """tandem(12,3) deductive grounded: a JSON report of about 204 MiB,
        written to /dev/null.  The child reads its own peak RSS.  On Linux a
        process's ``ru_maxrss`` starts at its parent's RSS when it was
        spawned, so a small launcher spawns the child, not this process."""
        rules = tmp_path / "tandem-12-3.rules"
        rules.write_text(tandem_rules(12, 3))
        child = (
            "import resource, sys\n"
            "from jsbaf.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "sys.stdout.flush()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        argv = ["eval", "--file", str(rules), "--semantics", "grounded", "--mode", "deductive"]
        env = {**os.environ, "PYTHONPATH": str(TANDEM_PATH.parents[1] / "src")}
        launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        result = subprocess.run(
            [sys.executable, "-c", launch, sys.executable, "-c", child, *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stderr) / 1024 < 64  # ru_maxrss is in KiB

    @pytest.mark.parametrize("mode", MODES)
    def test_no_conclusion_set_holds_every_postulate(self, mode):
        ev = evaluate(prepare(parse_system(ODD_CYCLE)), "stable", mode)
        assert ev.conclusion_sets == ()
        assert ev.holds == (True, True, True)


def output(writer, *args):
    """What ``writer(*args, write)`` returns, and what it writes."""
    chunks = []
    return writer(*args, chunks.append), "".join(chunks)


def assert_as_reference(
    system, source="f.rules", semantics=SEMANTICS,
    max_arguments=DEFAULT_MAX_ARGUMENTS, max_nodes=DEFAULT_NODE_BOUND,
):
    """Every report of ``system``, in both modes and formats, is byte for
    byte the reference writer's, and so is the limit report of a run that
    goes over a limit.  The reference writer is given the settings that the
    parameters passed to ``prepare`` and ``evaluate`` imply, so the writer's
    reading of them from the ``Evaluation`` is checked against them."""
    try:
        prepared, error = prepare(system, max_arguments, False), None
    except LimitExceededError as exc:
        prepared, error = None, exc
    for mode in MODES:
        for name in semantics:
            settings = reference.settings(name, mode, max_arguments, max_nodes)
            if prepared is not None:
                try:
                    ev, error = evaluate(prepared, name, mode, max_nodes), None
                except SearchLimitExceededError as exc:
                    error = exc
            for fmt in REPORT_FORMATS:
                if error is None:
                    expected = output(reference.write_report, ev, source, settings, fmt)
                    assert output(write_report, ev, source, fmt) == expected
                else:
                    expected = output(reference.write_limit_report, source, settings, error, fmt)
                    limit = report_settings(name, mode, max_arguments, max_nodes)
                    assert output(write_limit_report, source, limit, error, fmt) == expected


def tandem(n, k):
    return parse_system(tandem_rules(n, k))


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

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 6) for k in range(1, n)])
    def test_tandem_every_semantics(self, n, k):
        assert_as_reference(tandem(n, k))

    def test_seed38_grounded(self):
        text = SEED38_PATH.read_text(encoding="utf-8")
        system = parse_system(text)
        assert_as_reference(system, semantics=("grounded",))

    @pytest.mark.parametrize("text", ("", "# comments only\n\n# and a blank line\n"))
    def test_empty_systems(self, text):
        assert_as_reference(parse_system(text))

    def test_inconsistent_system(self):
        text = "strict s1: -> p\nstrict s2: -> ~p\ndefeasible d1: => q\nstrict s3: q -> r\n"
        assert_as_reference(parse_system(text))

    def test_escaped_source(self, tandem_system):
        assert_as_reference(tandem_system, 'quote" back\\slash\ttab \u00fcber.rules')

    def test_limit_reports(self, tandem_system):
        assert_as_reference(tandem_system, max_arguments=3)
        assert_as_reference(tandem_system, semantics=("preferred",), max_nodes=5)


# ``_attack_edges`` builds the int attack relation that the AF and the JSBAF
# share.  ``extension_ids`` is the search on node numbers; ``extensions``,
# which turns its results into NodeId sets for library callers, is counted
# to show that no command but ``oracle`` calls it.  The one-step and
# two-step frameworks are counted to show that only ``flatten --stage
# one-step|two-step`` builds them, each by its own function alone: the
# two-step and simplified flattenings build no one-step framework.
STAGES = {
    "core": ("strict_conflict",),
    "arguments": ("construct_arguments", "attack_witnesses", "_attack_edges"),
    "frameworks": ("flatten_one_step", "flatten_two_step", "flatten_simplified"),
    "semantics": ("extension_ids", "extensions"),
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
            "strict_conflict": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "_attack_edges": 1,
            "extension_ids": 1,
            **({"flatten_simplified": 1} if mode == "deductive" else {}),
        }

    def test_check_postulates_prepares_once(self, stage_calls, capsys):
        assert main(["check-postulates", "--file", str(TANDEM_PATH)]) == 1
        assert len(capsys.readouterr().out.splitlines()) == 24
        assert stage_calls == {
            "strict_conflict": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "_attack_edges": 1,  # the AF and the JSBAF share one attack relation
            "flatten_simplified": 1,
            "extension_ids": 8,  # 4 semantics x 2 modes
        }

    @pytest.mark.parametrize(
        "options, flattening",
        (
            (["--stage", "one-step"], {"flatten_one_step": 1}),
            (["--stage", "two-step"], {"flatten_two_step": 1}),
            (["--stage", "simplified"], {"flatten_simplified": 1}),
        ),
        ids=("one-step", "two-step", "simplified"),
    )
    def test_flatten_flattens_at_most_once(self, stage_calls, capsys, options, flattening):
        assert main(["flatten", "--file", str(TANDEM_PATH), *options]) == 0
        assert capsys.readouterr().out.startswith("digraph framework {")
        assert stage_calls == {
            "strict_conflict": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "_attack_edges": 1,
            **flattening,
        }

    @pytest.mark.parametrize("allow", (False, True), ids=("refused", "allowed"))
    def test_an_inconsistent_system_is_checked_once(self, stage_calls, capsys, tmp_path, allow):
        """``prepare`` reads the strict conflict once, for the check and
        for the error alike."""
        rules = tmp_path / "inconsistent.rules"
        rules.write_text("strict s1: -> p\nstrict s2: -> ~p\n")
        argv = ["eval", "--file", str(rules), *(["--allow-inconsistent"] if allow else [])]
        assert main(argv) == (1 if allow else 2)
        if not allow:
            assert capsys.readouterr().err == (
                "error: strict rules derive the complementary pair (p, ~p)\n"
            )
        assert stage_calls["strict_conflict"] == 1

    def test_flatten_refuses_apx_of_one_step_before_any_stage(self, stage_calls, capsys):
        argv = ["flatten", "--file", str(TANDEM_PATH), "--stage", "one-step", "--emit", "apx"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: APX cannot represent joint attacks; use --emit dot\n"
        )
        assert stage_calls == {}

    @pytest.mark.parametrize("mode", MODES)
    def test_oracle_runs_each_stage_once(self, stage_calls, capsys, mode):
        argv = ["oracle", "--file", str(TANDEM_PATH), "--mode", mode, "--semantics", "stable"]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("stable: OK")
        assert stage_calls == {
            "strict_conflict": 1,
            "construct_arguments": 1,
            "attack_witnesses": 1,
            "_attack_edges": 1,
            "extensions": 1,
            "extension_ids": 1,
            **({"flatten_simplified": 1} if mode == "deductive" else {}),
        }

    @pytest.mark.parametrize("fmt", ("json", "text"))
    @pytest.mark.parametrize("mode", MODES)
    def test_report_reads_node_numbers_only(self, tandem_system, mode, fmt):
        """Evaluating and writing a report builds none of the NodeId views
        of the frameworks it reads."""
        prepared = prepare(tandem_system)
        ev = evaluate(prepared, "preferred", mode)
        written(write_report, ev, "tandem", fmt)
        views = {"nodes", "attacks", "supports", "attackers", "targets", "joint_attacks"}
        for framework in (prepared.af, prepared.jsbaf, prepared.flat):
            assert not views & set(vars(framework))

    @pytest.mark.parametrize("semantics", SEMANTICS)
    @pytest.mark.parametrize("mode", MODES)
    def test_report_agrees_with_conclusion_sets(self, tandem_system, capsys, mode, semantics):
        main(["eval", "--file", str(TANDEM_PATH), "--mode", mode, "--semantics", semantics])
        report = json.loads(capsys.readouterr().out)
        ev = evaluate(prepare(tandem_system), semantics, mode)
        expected = [
            {
                "extension": [ev.store.arguments[o].canonical_id for o in cs.extension],
                "conclusions": sorted(map(str, cs.formulas)),
            }
            for cs in ev.conclusion_sets
        ]
        got = [
            {"extension": e["extension"], "conclusions": e["conclusions"]}
            for e in report["conclusion_sets"]
        ]
        assert got == expected


class TestNamedRows:
    """The report writers name each distinct target row once, and the
    flattened section's argument rows reuse the names of the JSBAF rows
    they extend."""

    @pytest.mark.parametrize("name", ["tandem(3,2)", "tandem(6,3)", "tandem(7,3)", "random 11"])
    def test_shared_rows_share_one_list_of_names(self, name):
        if name == "random 11":  # the flattening keeps 6 of its 11 attacking rows
            system = random_system(SystemParams(6, 6, 6), 11).system
        else:
            system = parse_system(tandem_rules(*map(int, name[7:-1].split(","))))
        prepared = prepare(system)
        af, flat = prepared.af, prepared.flat
        names = [f'"{label}"' for label in af.labels]
        flat_names = names + [f'"{label}"' for label in flat.labels[len(names):]]
        done = {}  # the flattened section comes first in a report
        flat_named = dict(reporting._named_rows(flat.target_ids, flat_names, done, af.target_ids))
        named = dict(reporting._named_rows(af.target_ids, names, done))
        for rows, by_number, got in (
            (af.target_ids, names, named), (flat.target_ids, flat_names, flat_named),
        ):
            assert got == {s: [by_number[t] for t in row] for s, row in enumerate(rows) if row}
            first = {}
            for s, row_names in got.items():
                assert first.setdefault(id(rows[s]), row_names) is row_names
        assert len({id(row) for row in af.target_ids}) < len(af.target_ids)
        kept = [s for s, row in enumerate(af.target_ids) if row and flat.target_ids[s] is row]
        assert all(flat_named[s] is named[s] for s in kept)  # a kept row keeps its names
        assert len(kept) == (6 if name == "random 11" else 0)

    @pytest.mark.parametrize("fmt", REPORT_FORMATS)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["tandem(3,2)", "tandem(6,3)", "random 11"])
    def test_each_target_is_named_once_per_distinct_row(self, monkeypatch, name, mode, fmt):
        if name == "random 11":
            system = random_system(SystemParams(6, 6, 6), 11).system
        else:
            system = parse_system(tandem_rules(*map(int, name[7:-1].split(","))))
        prepared = prepare(system)
        ev = evaluate(prepared, "grounded", mode)
        lookups = 0

        class Counting(list):
            def __getitem__(self, i):
                nonlocal lookups
                lookups += 1
                return super().__getitem__(i)

        def named_rows(rows, names, done, base=()):
            return named_rows_of(rows, Counting(names), done, base)

        named_rows_of = reporting._named_rows
        monkeypatch.setattr(reporting, "_named_rows", named_rows)
        written(write_report, ev, "tandem", fmt)
        af_rows = prepared.af.target_ids
        expected = sum(len(row) for row in {id(row): row for row in af_rows}.values())
        if fmt == "json" and mode == "deductive":
            flat_rows, m = prepared.flat.target_ids, len(af_rows)
            added = {id(row): len(row) - len(af_rows[s]) for s, row in enumerate(flat_rows[:m])}
            added.update((id(row), len(row)) for row in flat_rows[m:])
            expected += sum(added.values())
        assert lookups == expected
