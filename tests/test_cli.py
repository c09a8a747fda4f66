"""Command-line surface: commands, formats, exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

from jsbaf.cli import main

from conftest import TANDEM_PATH, wide_join_rules


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

    def test_simplified_apx_prune_inert(self, capsys):
        code, out, _ = run_cli(
            capsys, "flatten", "--file", str(TANDEM_PATH),
            "--emit", "apx", "--flatten", "prune-inert",
        )
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("arg(")) == 18

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

    def test_search_bound_stops_after_grounded(self, capsys):
        code, out, err = run_cli(
            capsys, "check-postulates", "--file", str(TANDEM_PATH), "--max-nodes", "5",
        )
        assert code == 3 and "above the search bound 5" in err
        lines = out.splitlines()
        assert len(lines) == 6 and all(l.startswith("grounded ") for l in lines)

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
        from jsbaf import parse_system, is_consistent

        assert is_consistent(parse_system(first))

    def test_generation_failure_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "random", "--seed", "0", "--atoms", "1",
            "--strict", "8", "--max-body", "0",
        )
        assert code == 2 and "no consistent system" in err

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

    def test_deductive_needs_a_bigger_cap(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--file", str(TANDEM_PATH), "--semantics", "stable",
        )
        assert code == 2 and "--oracle-cap" in err

    def test_deductive_agreement_with_raised_cap(self, capsys):
        # prune-inert keeps the flattened tandem at 18 nodes, inside the
        # oracle's hard 20-node cap
        code, out, _ = run_cli(
            capsys, "oracle", "--file", str(TANDEM_PATH),
            "--semantics", "stable", "--flatten", "prune-inert", "--oracle-cap", "18",
        )
        assert code == 0 and out.startswith("stable: OK")

    def test_grounded_is_held_to_the_oracle_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "--file", str(TANDEM_PATH), "--semantics", "grounded",
        )
        assert (code, out) == (2, "")
        assert err == "error: framework has 21 nodes, above --oracle-cap 12\n"

    def test_cap_above_the_hard_cap_is_an_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "oracle", "--file", str(TANDEM_PATH), "--oracle-cap", "25",
        )
        assert (code, out) == (2, "")
        assert err == "error: --oracle-cap 25 is above the hard cap 20\n"


class TestOptions:
    """Each command takes only the options it reads."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["flatten", "--max-nodes", "1"],
            ["arguments", "--max-nodes", "1"],
            ["oracle", "--max-nodes", "1"],
            ["arguments", "--flatten", "literal"],
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
            ["oracle", "--oracle-cap", "-3"],
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


class TestClosedStdout:
    """A reader that closes stdout early, as ``| head -1`` does."""

    @pytest.mark.parametrize("command", ["eval", "arguments"])
    def test_exit_141_without_a_traceback(self, command):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(TANDEM_PATH.parents[1] / "src")}
        try:
            result = subprocess.run(
                [sys.executable, "-m", "jsbaf.cli", command, "--file", str(TANDEM_PATH)],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (141, b"")
