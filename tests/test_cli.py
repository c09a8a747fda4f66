"""Command-line surface: commands, formats, exit codes."""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jsbaf import cli, errors
from jsbaf.cli import main

from conftest import TANDEM_PATH, bench_operations, tandem_rules, wide_join_rules

DATA = TANDEM_PATH.parents[1] / "tests" / "data"
README = TANDEM_PATH.parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_deductive_preferred_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--file", str(TANDEM_PATH),
            "--semantics", "preferred", "--mode", "deductive",
        )
        assert code == 0
        report = json.loads(out)
        assert sorted(e["conclusions"] for e in report["conclusion_sets"]) == [
            ["ht", "hw", "st", "sw", "tw", "~tt"],
            ["ht", "hw", "sw", "tt", "tw", "~st"],
            ["hw", "st", "sw", "tt", "tw", "~ht"],
        ]

    def test_postulate_violation_sets_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--file", str(TANDEM_PATH),
            "--semantics", "preferred", "--mode", "aspic-minus",
        )
        assert code == 1
        assert json.loads(out)["postulate_summary"]["closure"] == "violated"

    def test_text_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--file", str(TANDEM_PATH), "--report", "text",
        )
        assert code == 0 and "extensions (preferred):" in out

    def test_limit_exceeded_exit_code_and_status(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--file", str(TANDEM_PATH), "--max-arguments", "4",
        )
        assert code == 3
        assert json.loads(out)["status"] == "limit-exceeded"

    def test_argument_cap_refuses_a_wide_join(self, capsys, tmp_path):
        rules = tmp_path / "wide.rules"
        rules.write_text(wide_join_rules())
        code, out, _ = run_cli(
            capsys, "eval", "--file", str(rules), "--max-arguments", "245",
        )
        report = json.loads(out)
        assert code == 3 and report["status"] == "limit-exceeded"
        assert report["error"] == {
            "type": "LimitExceededError",
            "message": "argument store would exceed max_arguments=245",
            "limit": 245,
        }

    def test_search_bound_exceeded(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--file", str(TANDEM_PATH), "--max-nodes", "5",
        )
        assert code == 3
        assert json.loads(out)["error"]["type"] == "SearchLimitExceededError"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text("strict oops\n")
        code, _, err = run_cli(capsys, "eval", "--file", str(bad))
        assert code == 2 and "1:" in err

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        rules = tmp_path / "bom.rules"
        text = TANDEM_PATH.read_text(encoding="utf-8")
        rules.write_text(text, encoding="utf-8")
        plain = run_cli(capsys, "eval", "--file", str(rules))
        rules.write_text("\ufeff" + text, encoding="utf-8")
        assert rules.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run_cli(capsys, "eval", "--file", str(rules)) == plain
        assert plain[0] == 0

    @pytest.mark.parametrize(
        "argv, code",
        [([], 0), (["--report", "text"], 0), (["--max-nodes", "1"], 3)],
        ids=["json", "text", "limit"],
    )
    def test_file_name_that_is_not_utf8(self, monkeypatch, tmp_path, argv, code):
        """The report gives the path as typed, each byte of it that is not
        UTF-8 as \\xNN, so it can be written to a strict UTF-8 stdout."""
        path = tmp_path / os.fsdecode(b"\xff.rules")
        path.write_bytes(TANDEM_PATH.read_bytes())
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdout", stdout)
        assert main(["eval", "--file", str(path), *argv]) == code
        out = stdout.buffer.getvalue().decode("utf-8")
        shown = f"{tmp_path}/\\xff.rules"
        if "text" in argv:
            assert out.startswith(f"source: {shown}\n")
        else:
            assert json.loads(out)["input"]["source"] == shown

    def test_file_that_is_not_utf8_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "latin1.rules"
        bad.write_bytes(b"strict r1: -> caf\xe9\n")
        code, out, err = run_cli(capsys, "eval", "--file", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {bad}: not valid UTF-8 at byte 17\n"

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--file", "no-such-file.rules")
        assert code == 2 and "cannot read" in err

    def test_inconsistent_system_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "inconsistent.rules"
        bad.write_text("strict s1: -> a\nstrict s2: -> ~a\n")
        code, _, err = run_cli(capsys, "eval", "--file", str(bad))
        assert code == 2 and "complementary pair" in err

    def test_allow_inconsistent_override(self, capsys, tmp_path):
        bad = tmp_path / "inconsistent.rules"
        bad.write_text("strict s1: -> a\nstrict s2: -> ~a\n")
        code, out, _ = run_cli(
            capsys, "eval", "--file", str(bad), "--allow-inconsistent",
        )
        report = json.loads(out)
        assert report["postulates_in_scope"] is False
        assert code == 1  # the out-of-scope verdicts still report the violation


class TestFlatten:
    def test_simplified_dot(self, capsys):
        code, out, _ = run_cli(capsys, "flatten", "--file", str(TANDEM_PATH))
        assert code == 0 and out.startswith("digraph framework {")
        assert '"e(A5,A7)"' in out

    def test_simplified_apx(self, capsys):
        code, out, _ = run_cli(capsys, "flatten", "--file", str(TANDEM_PATH), "--emit", "apx")
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("arg(")) == 21

    def test_one_step_apx_is_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "flatten", "--file", str(TANDEM_PATH),
            "--stage", "one-step", "--emit", "apx",
        )
        assert code == 2 and "joint attacks" in err

    def test_two_step_keeps_double_bars(self, capsys):
        code, out, _ = run_cli(
            capsys, "flatten", "--file", str(TANDEM_PATH), "--stage", "two-step",
        )
        assert code == 0 and '"bar(bar(A7))"' in out

    # Every accepted combination of stage and emitter, as (stage, emit);
    # each output is pinned byte for byte.
    ACCEPTED = [
        ("simplified", "dot"),
        ("simplified", "apx"),
        ("one-step", "dot"),
        ("two-step", "dot"),
        ("two-step", "apx"),
    ]

    @pytest.mark.parametrize("stage, emit", ACCEPTED, ids=["-".join(c) for c in ACCEPTED])
    def test_golden_output(self, capsys, stage, emit):
        code, out, err = run_cli(
            capsys, "flatten", "--file", str(TANDEM_PATH), "--stage", stage, "--emit", emit,
        )
        assert (code, err) == (0, "")
        assert out == (DATA / f"flatten-{stage}.{emit}").read_text(encoding="utf-8")


class TestArguments:
    def test_lists_the_store(self, capsys):
        code, out, _ = run_cli(capsys, "arguments", "--file", str(TANDEM_PATH))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 9
        assert lines[6] == (
            "A7 = r4(A5,A6)  |  A7: A5,A6 -> ~ht  |  "
            "(((-> sw) => st),((-> tw) => tt) -> ~ht)"
        )

    def test_tandem_lines_are_the_golden(self, capsys):
        code, out, err = run_cli(capsys, "arguments", "--file", str(TANDEM_PATH))
        assert (code, err) == (0, "")
        assert out == (DATA / "arguments-tandem.txt").read_text(encoding="utf-8")


class TestCheckPostulates:
    def test_tandem_reports_the_aspic_violations(self, capsys):
        code, out, _ = run_cli(capsys, "check-postulates", "--file", str(TANDEM_PATH))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 24  # 4 semantics x 2 modes x 3 postulates
        assert any("aspic-minus" in l and "closure" in l and "VIOLATED" in l for l in lines)
        assert not any("deductive" in l and "VIOLATED" in l for l in lines)

    def test_axioms_only_system_passes_everywhere(self, capsys, tmp_path):
        rules = tmp_path / "axioms.rules"
        rules.write_text("strict s1: -> a\nstrict s2: a -> b\n")
        code, out, _ = run_cli(capsys, "check-postulates", "--file", str(rules))
        assert code == 0 and "VIOLATED" not in out

    def test_tandem_rows_are_the_golden(self, capsys):
        code, out, _ = run_cli(capsys, "check-postulates", "--file", str(TANDEM_PATH))
        assert code == 1
        assert out == (DATA / "check-postulates-tandem.txt").read_text(encoding="utf-8")

    # 5 refuses both modes' frameworks; 9 admits the aspic-minus one but
    # not the deductive one, and still no complete row may be printed.
    @pytest.mark.parametrize("bound", ["5", "9"])
    def test_search_bound_stops_after_grounded(self, capsys, bound):
        code, out, err = run_cli(
            capsys, "check-postulates", "--file", str(TANDEM_PATH), "--max-nodes", bound,
        )
        assert code == 3 and f"above the search bound {bound}" in err
        golden = (DATA / "check-postulates-tandem.txt").read_text(encoding="utf-8")
        assert out == "".join(golden.splitlines(keepends=True)[:6])  # the grounded rows

    def test_allow_inconsistent_reports_out_of_scope_verdicts(self, capsys, tmp_path):
        rules = tmp_path / "inconsistent.rules"
        rules.write_text("strict s1: -> a\nstrict s2: -> ~a\n")
        code, out, err = run_cli(capsys, "check-postulates", "--file", str(rules))
        assert code == 2 and out == "" and "complementary pair (a, ~a)" in err
        code, out, _ = run_cli(
            capsys, "check-postulates", "--file", str(rules), "--allow-inconsistent"
        )
        assert code == 1
        # every conclusion set holds both a and ~a, which is closed
        rows = [
            f"{semantics:<9} {mode:<12} {postulate:<21} {state}"
            for semantics in ("grounded", "complete", "stable", "preferred")
            for mode in ("aspic-minus", "deductive")
            for postulate, state in (
                ("closure", "satisfied"),
                ("direct_consistency", "VIOLATED"),
                ("indirect_consistency", "VIOLATED"),
            )
        ]
        note = "# note: system is inconsistent; verdicts are out of postulate scope"
        assert out.splitlines() == [*rows, note]


class TestRandom:
    def test_deterministic_and_parseable(self, capsys):
        code, first, _ = run_cli(capsys, "random", "--seed", "12")
        assert code == 0
        _, second, _ = run_cli(capsys, "random", "--seed", "12")
        assert first == second
        from jsbaf import parse_system
        from jsbaf.core import strict_conflict

        assert strict_conflict(parse_system(first)) is None

    def test_the_shape_defaults_are_those_of_system_params(self, capsys):
        from jsbaf import SystemParams, print_system, random_system

        generated = random_system(SystemParams(), 12)
        expected = f"# seed 12, attempt {generated.attempts}\n" + print_system(generated.system)
        assert run_cli(capsys, "random", "--seed", "12") == (0, expected, "")

    def test_generation_failure_exit_code(self, capsys):
        # ``-> p1`` and ``-> ~p1`` are the only strict rules, and both are drawn
        code, _, err = run_cli(
            capsys, "random", "--seed", "0", "--atoms", "1",
            "--strict", "2", "--defeasible", "0", "--max-body", "0",
        )
        assert code == 2 and "no consistent system" in err

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--atoms", "1", "--strict", "0", "--max-body", "0"),
             "--defeasible must be at most 2, the distinct rules of --atoms 1 and --max-body 0,"
             " got 3"),
            (("--atoms", "1", "--strict", "7", "--max-body", "1"),
             "--strict must be at most 6, the distinct rules of --atoms 1 and --max-body 1, got 7"),
        ],
    )
    def test_more_rules_than_shapes_is_an_input_error(self, capsys, options, message):
        code, out, err = run_cli(capsys, "random", "--seed", "0", *options)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("max_body", ["300000", "99999999999"])
    def test_a_body_longer_than_the_literals_is_an_input_error(self, capsys, max_body):
        """Refused before any draw, so a huge ``--max-body`` returns at once."""
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "random", "--seed", "1", "--atoms", "1", "--strict", "3", "--defeasible", "0",
            "--max-body", max_body,
        )
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (
            2, "", f"error: --max-body must be at most 2, twice --atoms 1, got {max_body}\n"
        )

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--atoms", "0", "--atoms must be at least 1, got 0"),
            ("--strict", "-2", "--strict must be at least 0, got -2"),
            ("--defeasible", "-1", "--defeasible must be at least 0, got -1"),
            ("--max-body", "-1", "--max-body must be at least 0, got -1"),
            ("--undercut-density", "7", "--undercut-density must lie in [0, 1], got 7.0"),
        ],
    )
    def test_out_of_range_shape_is_an_input_error(self, capsys, option, value, message):
        code, out, err = run_cli(capsys, "random", "--seed", "1", option, value)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestOracle:
    def test_aspic_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--file", str(TANDEM_PATH),
            "--mode", "aspic-minus", "--semantics", "preferred",
        )
        assert code == 0 and out.startswith("preferred: OK")

    def test_deductive_agreement_on_the_tandem(self, capsys):
        # the flattened tandem has 21 nodes, the oracle's cap
        code, out, _ = run_cli(
            capsys, "oracle", "--file", str(TANDEM_PATH), "--semantics", "stable",
        )
        assert code == 0 and out.startswith("stable: OK")

    def test_tandem_default_is_the_golden(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--file", str(TANDEM_PATH))
        assert (code, err) == (0, "")
        assert out == (DATA / "oracle-tandem.txt").read_text(encoding="utf-8")

    @pytest.mark.parametrize("semantics", cli.SEMANTICS)
    def test_framework_above_the_oracle_cap_is_refused_before_any_search(
        self, capsys, monkeypatch, tmp_path, semantics
    ):
        def no_search(*args):
            raise AssertionError("searched a framework above the oracle cap")

        # the oracle refuses the framework itself, before it enumerates a set
        monkeypatch.setattr(cli, "extensions", no_search)
        rules = tmp_path / "tandem-4-2.rules"  # flattens to 52 nodes
        rules.write_text(tandem_rules(4, 2))
        code, out, err = run_cli(
            capsys, "oracle", "--file", str(rules), "--semantics", semantics,
        )
        assert (code, out) == (2, "")
        assert err == "error: framework has 52 nodes, above the oracle cap 21\n"

    def test_mismatch_is_printed_with_exit_1(self, capsys, monkeypatch):
        engine = cli.extensions  # made to drop its last extension
        monkeypatch.setattr(cli, "extensions", lambda af, sem: engine(af, sem)[:-1])
        code, out, _ = run_cli(
            capsys, "oracle", "--file", str(TANDEM_PATH),
            "--mode", "aspic-minus", "--semantics", "preferred",
        )
        kept = [
            ["A1", "A2", "A3", "A4", "A5", "A6"],
            ["A1", "A2", "A3", "A4", "A5", "A9"],
            ["A1", "A2", "A3", "A4", "A6", "A8"],
        ]
        dropped = ["A1", "A2", "A3", "A5", "A6", "A7"]
        assert (code, out.splitlines()) == (1, [
            "preferred: MISMATCH",
            f"  engine: {kept}",
            f"  oracle: {kept + [dropped]}",
        ])


class TestOptions:
    """Each command takes only the options it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["flatten", "--max-nodes", "1"],
            ["arguments", "--max-nodes", "1"],
            ["oracle", "--max-nodes", "1"],
            ["arguments", "--flatten", "literal"],
            ["eval", "--flatten", "literal"],
            ["flatten", "--flatten", "literal"],
            ["check-postulates", "--flatten", "literal"],
            ["oracle", "--flatten", "literal"],
            ["oracle", "--oracle-cap", "12"],
        ],
    )
    def test_unread_option_is_an_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main([argv[0], "--file", str(TANDEM_PATH), *argv[1:]])
        assert exit_.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--max-arguments", "-1"],
            ["eval", "--max-nodes", "-1"],
            ["check-postulates", "--max-nodes", "-1"],
            ["arguments", "--max-arguments", "-1"],
        ],
    )
    def test_negative_limit_is_an_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            main([argv[0], "--file", str(TANDEM_PATH), *argv[1:]])
        assert exit_.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[1]}: must not be negative, got {argv[2]}" in captured.err

    def test_non_integer_limit_keeps_the_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "--file", str(TANDEM_PATH), "--max-nodes", "many"])
        assert exit_.value.code == 2
        assert "argument --max-nodes: invalid int value: 'many'" in capsys.readouterr().err

    def test_readme_table_lists_the_options_of_each_command(self):
        """README's "Options by command" table has a row for each command
        that reads rules, and each row names exactly the options the parser
        gives that command."""
        parsed = {}
        for name, parser in cli._command_parsers().items():
            options = {o for a in parser._actions for o in a.option_strings if o != "--help"}
            if "--file" in options:
                parsed[name] = options - {"-h"}
        assert readme_options_by_command() == parsed


def readme_options_by_command():
    """Each command of README's "Options by command" table, and the options
    its row gives it: ``--file`` and ``--max-arguments``, which the text
    above the table gives every command that reads rules, the option of
    each column the row marks "yes", and the options of its last column."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\nOptions by command", 1)[1].split("\n\n")[1]
    header, _, *rows = (
        [cell.strip() for cell in line.strip("|").split("|")] for line in table.splitlines()
    )
    table_options = {}
    for command, *cells, own in rows:
        options = {"--file", "--max-arguments", *re.findall(r"`(--[a-z-]+)`", own)}
        options |= {h.strip("`") for h, cell in zip(header[1:-1], cells) if cell.startswith("yes")}
        table_options[command.strip("`")] = options
    return table_options


# One instance of each JsbafError subclass, and the exit code of a command
# that raises it: 3 for a limit, 2 for every input error.
ERROR_EXITS = [
    (errors.ParseError("expected an atom", 3, 17), 2),
    (errors.ValidationError("duplicate rule id 'r1'"), 2),
    (errors.InconsistentSystemError(("a", "~a")), 2),
    (errors.GenerationFailedError(0, 200), 2),
    (errors.LimitExceededError(5), 3),
    (errors.SearchLimitExceededError(30, 24), 3),
]


def subclasses(cls) -> set:
    """Every class derived from ``cls``, at any depth."""
    return {sub for direct in cls.__subclasses__() for sub in (direct, *subclasses(direct))}


class TestExitCodes:
    def test_every_error_class_has_an_exit_code(self):
        assert {type(exc) for exc, _ in ERROR_EXITS} == subclasses(errors.JsbafError)

    def test_limit_errors_are_one_family(self):
        """One ``except LimitExceededError`` catches both limits; the search
        limit keeps its own attributes, so a limit report of it names no
        ``limit``."""
        search = errors.SearchLimitExceededError(30, 24)
        assert subclasses(errors.LimitExceededError) == {errors.SearchLimitExceededError}
        assert isinstance(search, errors.LimitExceededError)
        assert (search.nodes, search.bound, hasattr(search, "limit")) == (30, 24, False)
        assert str(search) == "framework has 30 nodes, above the search bound 24"

    @pytest.mark.parametrize(
        "exc,code", ERROR_EXITS, ids=[type(exc).__name__ for exc, _ in ERROR_EXITS]
    )
    def test_error_exit_code_and_message(self, capsys, monkeypatch, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "random", fail)
        assert run_cli(capsys, "random", "--seed", "0") == (code, "", f"error: {exc}\n")
        assert len(str(exc).splitlines()) == 1


class TestStdin:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("strict r1: -> a\n"))
        code, out, _ = run_cli(capsys, "arguments", "--file", "-")
        assert code == 0 and out == "A1 = r1()  |  A1: -> a  |  (-> a)\n"

    def test_stdin_bytes_that_are_not_utf8_are_an_input_error(self, capsys, monkeypatch):
        """Stdin is decoded from its byte buffer, whatever the locale's
        decoding of the text stream."""
        stdin = io.TextIOWrapper(io.BytesIO(b"strict r1: -> \xe9\n"), errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "eval", "--file", "-")
        assert (code, out) == (2, "")
        assert err == "error: cannot read <stdin>: not valid UTF-8 at byte 14\n"

    def test_stdin_bytes_are_read_with_universal_newlines(self, capsys, monkeypatch):
        text = TANDEM_PATH.read_text(encoding="utf-8")
        stdin = io.TextIOWrapper(io.BytesIO(text.replace("\n", "\r\n").encode()))
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, _ = run_cli(capsys, "arguments", "--file", "-")
        assert code == 0
        assert out == run_cli(capsys, "arguments", "--file", str(TANDEM_PATH))[1]

    def test_closed_stdin_is_an_input_error(self, capsys, monkeypatch):
        """With file descriptor 0 closed, Python sets ``sys.stdin`` to None."""
        monkeypatch.setattr("sys.stdin", None)
        code, out, err = run_cli(capsys, "arguments", "--file", "-")
        assert (code, out) == (2, "")
        assert err == "error: cannot read <stdin>: stdin is closed\n"

    def test_file_with_crlf_and_cr_line_ends_reads_as_lf(self, capsys, tmp_path):
        lines = TANDEM_PATH.read_text(encoding="utf-8").split("\n")
        rules = tmp_path / "mixed.rules"
        rules.write_bytes(("\r\n".join(lines[:4]) + "\r\n" + "\r".join(lines[4:])).encode())
        code, out, _ = run_cli(capsys, "arguments", "--file", str(rules))
        assert code == 0
        assert out == run_cli(capsys, "arguments", "--file", str(TANDEM_PATH))[1]


class TestClosedStdout:
    """A reader that closes stdout early, as ``| head -1`` does."""

    @pytest.mark.parametrize("command", ["eval", "arguments"])
    def test_exit_141_without_a_traceback(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(TANDEM_PATH.parents[1] / "src")}
        try:
            result = subprocess.run(
                [
                    sys.executable, "-W", "error", "-m", "jsbaf.cli",
                    command, "--file", str(TANDEM_PATH),
                ],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b"")

    def test_in_process_exit_141_leaves_no_descriptor_open(self, monkeypatch):
        """``main`` points stdout at /dev/null and closes the descriptor it
        opened for that."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = open(write_end, "w", encoding="utf-8")
        monkeypatch.setattr("sys.stdout", stdout)
        try:
            before = len(os.listdir("/proc/self/fd"))
            code = main(["eval", "--file", str(TANDEM_PATH)])
            after = len(os.listdir("/proc/self/fd"))
        finally:
            stdout.close()
        assert (code, after) == (141, before)


def parse_with_argparse(argv):
    """``vars`` of the namespace argparse makes of ``argv``, or None when
    it exits (on ``--help`` or an error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(cli._build_parser().parse_args(argv))
    except SystemExit:
        return None


def read_directly(argv):
    """``vars`` of the namespace read without argparse, or None when the
    reader declines ``argv``."""
    namespace = cli._read_canonical(argv)
    return None if namespace is None else vars(namespace)


# Values that pass some option's type or choices, and values that fail
# them: dash-led, negative, empty, not a number, a float where an int is due.
TEXTS = ["", "-", "0", "7", "-1", "-2.5", "0.5", "1e3", " 1", "many", "--file", "-x", "a=b", "x.rules"]


def option_items(draw, action, spellings, wild):
    """One use of ``action``.  At ``wild`` 0 a flag stands bare and an
    option takes one of its choices, or a number or file name; from 1 on,
    the value may be one of TEXTS too, and at 2 the item may also be
    ``--opt=value`` or miss its value."""
    spelling = draw(st.sampled_from(spellings))
    plain = st.sampled_from(list(action.choices or ["0", "1", "7", "24", "x.rules", "-"]))
    value = draw(plain | st.sampled_from(TEXTS) | st.integers(-3, 30).map(str) if wild else plain)
    form = draw(st.integers(0, 5)) if wild == 2 else 2
    if form == 0:
        return [f"{spelling}={value}"]
    if form == 1 or action.nargs == 0:
        return [spelling]
    return [spelling, value]


@st.composite
def command_lines(draw):
    """An argv drawn from one parser's own actions: its required options
    and a draw of the others, each once, exactly spelled (see option_items
    for their values).  At ``wild`` 2, a required option may be missing,
    and a few more items follow, which may repeat an option or spell it
    abbreviated or as ``--opt=value``, or be an unknown word or ``-h``."""
    noise = st.sampled_from(["--bogus", "word", "--", "-x", "-h", "--help"])
    commands = cli._command_parsers()
    name = draw(st.sampled_from([*commands, "bogus", "-h", "--help"]))
    if name not in commands:
        return draw(st.lists(noise, max_size=2)) + [name] * draw(st.booleans())
    actions = [a for a in commands[name]._actions if a.default != argparse.SUPPRESS]  # not -h
    wild = draw(st.integers(0, 2))
    argv = [name]
    required = [a for a in actions if a.required and not (wild == 2 and draw(st.booleans()))]
    others = draw(st.lists(st.sampled_from([a for a in actions if not a.required]), unique=True))
    for action in required + others:
        argv += option_items(draw, action, [action.option_strings[-1]], wild)
    for _ in range(draw(st.integers(0, 2)) if wild == 2 else 0):
        if draw(st.integers(0, 4)) == 0:
            argv += [draw(noise)]
        else:
            action = draw(st.sampled_from(actions))
            option = action.option_strings[-1]
            argv += option_items(draw, action, [option, option[: max(3, len(option) - 3)]], wild)
    return argv


class TestCanonicalReading:
    """``main`` reads a canonical command line from the parsers' option
    table, and gives every other one to argparse."""

    @settings(max_examples=600)
    @given(command_lines())
    def test_the_reader_declines_or_agrees_with_argparse(self, argv):
        """Where argparse exits, the reader has declined."""
        direct = read_directly(argv)
        if direct is not None:
            assert direct == parse_with_argparse(argv)

    @pytest.mark.parametrize("command", sorted(cli._command_parsers()))
    def test_every_option_of_each_command_is_read_directly(self, command):
        argv = [command]
        for action in cli._command_parsers()[command]._actions:
            if isinstance(action, argparse._StoreTrueAction):
                argv += [action.option_strings[0]]
            elif isinstance(action, argparse._StoreAction):
                value = sorted(action.choices)[-1] if action.choices else "5"
                argv += [action.option_strings[0], value]
        assert read_directly(argv) == parse_with_argparse(argv) is not None
        assert read_directly(argv[:1] + argv[3:]) is None  # --file or --seed is required

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "-h"],
            ["eval", "--file", "x.rules", "--help", "word"],
            ["eval", "--file", "x.rules", "--sem", "stable"],
            ["eval", "--file=x.rules"],
            ["eval", "--file", "x.rules", "--file", "x.rules"],
            ["eval", "--file", "x.rules", "--allow-inconsistent", "--allow-inconsistent"],
            ["eval", "--file", "-x.rules"],
            ["random", "--seed", "-1"],
            ["eval", "--file", "x.rules", "word"],
            ["eval", "--semantics", "stable"],
            ["eval", "--file", "x.rules", "--max-nodes", "many"],
            ["eval", "--file", "x.rules", "--mode", "bogus"],
            ["eval", "--file"],
            ["-h"],
            [],
        ],
    )
    def test_the_reader_declines_other_command_lines(self, argv):
        assert read_directly(argv) is None

    def test_every_benchmark_operation_is_read_directly(self):
        argvs = [op.argv() for op in bench_operations()]
        assert len(argvs) == 44 + 4 + 1600 + 2
        for argv in argvs:
            assert read_directly(argv) == parse_with_argparse(argv) is not None

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["--semantics", "stable", "--mode", "deductive", "--max-nodes", "24"], 0),
            (["--sem", "stable"], 1),
            (["--semantics=stable"], 1),
            (["--semantics", "stable", "--semantics", "stable"], 1),
        ],
        ids=["canonical", "abbreviated", "equals", "repeated"],
    )
    def test_argparse_parses_only_other_spellings(self, capsys, monkeypatch, argv, calls):
        parsed = []
        parse_args = argparse.ArgumentParser.parse_args

        def counted(self, *args, **kwargs):
            parsed.append(args)
            return parse_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counted)
        code, out, _ = run_cli(capsys, "eval", "--file", str(TANDEM_PATH), *argv)
        assert (code, len(parsed)) == (0, calls)
        assert json.loads(out)["settings"]["semantics"] == "stable"


@pytest.fixture
def frozen_heap():
    """The heap as it stands moved out of the collector's reach, so that a
    collection walks only what the test makes, and back afterwards."""
    gc.collect()
    gc.freeze()
    yield
    gc.unfreeze()


@pytest.fixture
def collector_state():
    """Restores the collector's state after the test."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def _random_sweep_files():
    """The first 50 rule files of the benchmark's random-sweep workload."""
    texts = {}
    for op in bench_operations():
        name = op.instance.name
        if op.instance.workload == "random-sweep" and int(name.split("-")[1]) < 50:
            texts[name] = op.instance.text
    return sorted(texts.items())


class TestCollectorPause:
    """``main`` pauses the cyclic collector for a command, which leaves no
    reference cycle behind, and restores its state afterwards."""

    def _assert_no_garbage(self, capsys, rules):
        for semantics in ("grounded", "complete", "stable", "preferred"):
            for mode in ("aspic-minus", "deductive"):
                gc.collect()
                argv = ["eval", "--file", str(rules), "--semantics", semantics, "--mode", mode]
                code = main(argv)
                assert gc.collect() == 0, (rules.name, semantics, mode, code)
                assert code in (0, 1, 3) and capsys.readouterr().out

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (7, 3)])
    def test_a_tandem_eval_leaves_no_garbage(self, capsys, tmp_path, frozen_heap, n, k):
        rules = tmp_path / f"tandem-{n}-{k}.rules"
        rules.write_text(tandem_rules(n, k))
        self._assert_no_garbage(capsys, rules)

    def test_a_random_sweep_eval_leaves_no_garbage(self, capsys, tmp_path, frozen_heap):
        files = _random_sweep_files()
        assert len(files) == 50
        for name, text in files:
            rules = tmp_path / f"{name}.rules"
            rules.write_text(text)
            self._assert_no_garbage(capsys, rules)

    @pytest.mark.parametrize("enabled", (True, False), ids=("enabled", "disabled"))
    @pytest.mark.parametrize("argv,code", [
        (["eval", "--file", str(TANDEM_PATH)], 0),
        (["eval", "--file", str(TANDEM_PATH), "--mode", "aspic-minus"], 1),
        (["eval", "--file", "no-such-file.rules"], 2),
        (["eval", "--file", str(TANDEM_PATH), "--max-arguments", "4"], 3),
        (["eval", "--help"], "SystemExit 0"),
        (["eval", "--file", str(TANDEM_PATH), "--no-such-option"], "SystemExit 2"),
    ], ids=("0", "1", "2", "3", "help", "unknown-option"))
    def test_main_leaves_the_collector_as_it_found_it(
        self, capsys, collector_state, enabled, argv, code
    ):
        (gc.enable if enabled else gc.disable)()
        seen = []  # whether the collector ran during each command
        commands = dict(cli._COMMANDS)

        def paused(command):
            return lambda args: seen.append(gc.isenabled()) or command(args)

        cli._COMMANDS.update((name, paused(command)) for name, command in commands.items())
        try:
            try:
                got = main(argv)
            except SystemExit as exc:
                got = f"SystemExit {exc.code}"
        finally:
            cli._COMMANDS.update(commands)
        assert got == code
        assert gc.isenabled() is enabled
        assert seen == ([] if isinstance(code, str) else [False])
        capsys.readouterr()
