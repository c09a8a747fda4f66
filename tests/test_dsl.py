"""Rule-language parser and printer."""

import itertools
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from jsbaf import (
    ArgumentationSystem,
    DefeasibleRule,
    Formula,
    ParseError,
    StrictRule,
    ValidationError,
    atom,
    neg,
    parse_system,
    print_system,
)
from jsbaf import dsl

import reference
from conftest import TANDEM_PATH, bench_operations


class TestParsing:
    def test_tandem_file(self, tandem_system):
        assert len(tandem_system.strict_rules) == 6
        assert len(tandem_system.defeasible_rules) == 3
        assert tandem_system.undercut_names == {}

    def test_empty_body_strict_rule(self):
        system = parse_system("strict r1: -> hw")
        assert system.strict_rules == (StrictRule("r1", (), atom("hw")),)

    def test_nested_negation_literal(self):
        system = parse_system("defeasible d1: ~~a => ~b")
        (rule,) = system.defeasible_rules
        assert rule.body == (Formula("a", 2),) and rule.head == neg("b")

    def test_name_line_defines_the_undercut_point(self):
        system = parse_system("defeasible d1: => a\nname d1 = ok")
        assert system.undercut_names == {"d1": atom("ok")}

    def test_comments_and_blank_lines_are_ignored(self):
        system = parse_system("# heading\n\nstrict r1: -> a  # trailing\n")
        assert len(system.strict_rules) == 1


class TestDiagnostics:
    def test_name_on_undefined_rule(self):
        with pytest.raises(ValidationError) as err:
            parse_system("strict r1: -> a\nname d9 = x")
        assert err.value.line == 2 and err.value.column == 6
        assert "d9" in str(err.value)

    def test_name_on_strict_rule(self):
        with pytest.raises(ValidationError) as err:
            parse_system("strict r4: -> a\nname r4 = x")
        assert str(err.value) == "2:6: name defined on strict rule 'r4'"
        assert (err.value.line, err.value.column) == (2, 6)

    def test_undeclared_atom_when_vocabulary_present(self):
        with pytest.raises(ValidationError) as err:
            parse_system("atoms a b\nstrict r1: a -> c")
        assert err.value.line == 2 and "'c'" in str(err.value)

    def test_duplicate_rule_id(self):
        with pytest.raises(ValidationError) as err:
            parse_system("strict r1: -> a\ndefeasible r1: => b")
        assert err.value.line == 2

    def test_duplicate_rule_shape(self):
        with pytest.raises(ValidationError):
            parse_system("strict r1: -> a\nstrict r2: -> a")

    def test_unknown_keyword_position(self):
        with pytest.raises(ParseError) as err:
            parse_system("rule r1: -> a")
        assert (err.value.line, err.value.column) == (1, 1)
        assert err.value.token == "rule"

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse_system("strict r1: -> a!")
        assert (err.value.line, err.value.column) == (1, 16)

    def test_missing_arrow(self):
        with pytest.raises(ParseError) as err:
            parse_system("strict r1: a, b")
        assert err.value.line == 1

    def test_wrong_arrow_for_kind(self):
        with pytest.raises(ParseError):
            parse_system("strict r1: a => b")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_system("name d1 = x y")


# Every diagnostic the parser can produce, pinned exactly: message, line,
# column and offending token (ValidationError carries no token).
DIAGNOSTICS = [
    ("strict r1: a, b", ParseError, "1:16: expected '->' at end of line", ""),
    ("strict r1: a => b", ParseError, "1:14: expected '->', found '=>'", "=>"),
    ("name d1 = x y", ParseError, "1:13: unexpected trailing 'y'", "y"),
    ("atoms", ParseError, "1:6: expected an atom name at end of line", ""),
    ("strict", ParseError, "1:7: expected a rule id at end of line", ""),
    ("strict r1", ParseError, "1:10: expected ':' at end of line", ""),
    ("strict r1: ~ -> a", ParseError, "1:14: expected an atom, found '->'", "->"),
    ("strict r1: -> a\nstrict r1: -> b", ValidationError, "2:8: duplicate rule id 'r1'", None),
    (
        "strict r1: -> a\ndefeasible r1: => b",
        ValidationError,
        "2:12: duplicate rule id 'r1'",
        None,
    ),
    (
        "strict r1: -> a\nstrict r2: -> a",
        ValidationError,
        "2:8: rule 'r2' duplicates an earlier strict rule",
        None,
    ),
    (
        "defeasible d1: => a\ndefeasible d2: => a",
        ValidationError,
        "2:12: rule 'd2' duplicates an earlier defeasible rule",
        None,
    ),
    (
        "atoms a\nstrict r1: -> b",
        ValidationError,
        "2:15: atom 'b' is not in the declared vocabulary",
        None,
    ),
    (
        "atoms a\nstrict b: -> b",
        ValidationError,
        "2:14: atom 'b' is not in the declared vocabulary",
        None,
    ),
    (
        "atoms a\ndefeasible d1: a, ~~c => a",
        ValidationError,
        "2:21: atom 'c' is not in the declared vocabulary",
        None,
    ),
    (
        "atoms a\ndefeasible d1: => a\nname d1 = zz",
        ValidationError,
        "3:11: atom 'zz' is not in the declared vocabulary",
        None,
    ),
    (
        "defeasible d1: => a\nname d1 = x\nname d1 = y",
        ValidationError,
        "3:6: name redefined for rule 'd1'",
        None,
    ),
    (
        "strict r1: -> a\nname r1 = x",
        ValidationError,
        "2:6: name defined on strict rule 'r1'",
        None,
    ),
    (
        "atoms a\ndefeasible d1: => zz\nname d2 = a",
        ValidationError,
        "3:6: name refers to undefined rule 'd2'",
        None,
    ),
    ("strict r1: -> a,", ParseError, "1:16: unexpected trailing ','", ","),
    ("strict r1: , -> a", ParseError, "1:12: expected an atom, found ','", ","),
    ("atoms a ~b", ParseError, "1:9: expected an atom name, found '~'", "~"),
    ("name = x", ParseError, "1:6: expected a defeasible rule id, found '='", "="),
    ("strict r1 -> a", ParseError, "1:11: expected ':', found '->'", "->"),
    ("defeasible d1: a -> b", ParseError, "1:18: expected '=>', found '->'", "->"),
    ("strict r1: -> \u00e9", ParseError, "1:15: unexpected character '\u00e9'", "\u00e9"),
    ("strict r1 -> a!", ParseError, "1:15: unexpected character '!'", "!"),
    ("strict r1: - > a", ParseError, "1:12: unexpected character '-'", "-"),
    ("strict 1r: -> a", ParseError, "1:8: unexpected character '1'", "1"),
    ("rule r1: -> a", ParseError, "1:1: unknown keyword 'rule'", "rule"),
    (
        ", a",
        ParseError,
        "1:1: expected a keyword (atoms, strict, defeasible, name), found ','",
        ",",
    ),
    ("name", ParseError, "1:5: expected a defeasible rule id at end of line", ""),
    ("defeasible d1: => a\nname d1", ParseError, "2:8: expected '=' at end of line", ""),
    ("defeasible d1: => a\nname d1 = ~", ParseError, "2:12: expected an atom at end of line", ""),
    ("strict r1: -> ~", ParseError, "1:16: expected an atom at end of line", ""),
    ("strict r1: a, b # c !", ParseError, "1:16: expected '->' at end of line", ""),
    ("strict r1: -> a\tb", ParseError, "1:17: unexpected trailing 'b'", "b"),
    ("strict r1: -> a\n\n# c\nstrict r2 -> b", ParseError, "4:11: expected ':', found '->'", "->"),
    # across lines, the first line's fault comes first; ``name`` lines are
    # checked after every line has been read, and the vocabulary last
    ("strict r1: -> a\nname r1 = b\nstrict r2 -> c", ParseError,
     "3:11: expected ':', found '->'", "->"),
    ("strict r1: -> a\nstrict r1: -> b\nstrict r2: -> !", ValidationError,
     "2:8: duplicate rule id 'r1'", None),
    ("atoms a\nname x = a\nstrict r1: -> zz", ValidationError,
     "2:6: name refers to undefined rule 'x'", None),
    ("atoms a\nname d1 = b\ndefeasible d1: => a", ValidationError,
     "2:11: atom 'b' is not in the declared vocabulary", None),
    ("defeasible d1: => a\ndefeasible d2: => a\nname d3 = a", ValidationError,
     "2:12: rule 'd2' duplicates an earlier defeasible rule", None),
    # a form feed is whitespace, not a line end
    ("strict r1: -> a\n\x0cstrict r2: -> b\nstrict r3: -> c x", ParseError,
     "3:17: unexpected trailing 'x'", "x"),
]


@pytest.mark.parametrize("text, kind, message, token", DIAGNOSTICS)
def test_diagnostic_is_pinned(text, kind, message, token):
    with pytest.raises(kind) as err:
        parse_system(text)
    line, column, _ = message.split(":", 2)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert (err.value.line, err.value.column) == (int(line), int(column))
    assert getattr(err.value, "token", None) == token


@pytest.mark.parametrize("first, second", [("\r\n", "\r\n"), ("\r", "\r"), ("\r\n", "\r")])
def test_crlf_and_cr_end_lines_as_lf_does(first, second):
    lines = ("strict r1: -> a", "\x0cstrict r2: -> b", "strict r3: -> c")
    text = lines[0] + first + lines[1] + second + lines[2]
    assert parse_system(text) == parse_system("\n".join(lines))
    with pytest.raises(ParseError) as err:
        parse_system(text + " x")
    assert str(err.value) == "3:17: unexpected trailing 'x'"
    assert (err.value.line, err.value.column) == (3, 17)


# Line ends for ``str.splitlines`` but whitespace for ``open()``.
LINE_BREAKS_IN_TEXT = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize(
    "text",
    [
        "strict r1: -> a\u00a0",
        "strict r1: -> a # \u00e9 !",
        "strict r1: -> a\n  strict\tr2 : a,~ ~b->c",
        # characters that ``str.splitlines`` breaks at, in a comment and between tokens
        *(f"strict r1: -> a  # note{c} more words" for c in LINE_BREAKS_IN_TEXT),
        *(f"strict r1:{c}->{c}a" for c in LINE_BREAKS_IN_TEXT),
    ],
)
def test_accepted_spacing_and_comments(text):
    assert parse_system(text).strict_rules[0] == StrictRule("r1", (), atom("a"))


atoms_st = st.sampled_from(["a", "b", "c", "longer_name"])
formula_st = st.builds(Formula, atoms_st, st.integers(0, 2))
shape_st = st.tuples(st.lists(formula_st, max_size=3).map(tuple), formula_st)


@st.composite
def systems(draw):
    strict_shapes = draw(st.lists(shape_st, max_size=4, unique=True))
    defeasible_shapes = draw(st.lists(shape_st, max_size=4, unique=True))
    strict = tuple(
        StrictRule(f"s{i}", body, head) for i, (body, head) in enumerate(strict_shapes)
    )
    defeasible = tuple(
        DefeasibleRule(f"d{i}", body, head)
        for i, (body, head) in enumerate(defeasible_shapes)
    )
    named = draw(st.sets(st.sampled_from([r.id for r in defeasible])) if defeasible else st.just(set()))
    names = {rule_id: draw(formula_st) for rule_id in sorted(named)}
    return ArgumentationSystem(strict, defeasible, names)


class TestRoundTrip:
    def test_tandem(self, tandem_system):
        assert parse_system(print_system(tandem_system)) == tandem_system

    @given(systems())
    def test_parse_inverts_print(self, system):
        assert parse_system(print_system(system)) == system

    @given(systems(), st.data())
    def test_whitespace_and_comments_do_not_matter(self, system, data):
        spacing = st.sampled_from([" ", "  ", "\t", "\u00a0", " \t\u00a0", "\u2028", "\x0c"])
        comment = st.sampled_from(["", " # note", "\t#!\u00e9 1 ->", "#", "# \u2028 x", "#\x0c"])
        lines = []
        for line in print_system(system).splitlines():
            tokens = re.findall(r"[A-Za-z0-9_]+|->|=>|\S", line)
            spaced = "".join(token + data.draw(spacing) for token in tokens)
            lines.append(data.draw(spacing) + spaced + data.draw(comment))
            lines.append(data.draw(st.sampled_from(["", "\t", "# between"])))
        assert parse_system("\n".join(lines)) == system


@st.composite
def rule_parts(draw):
    """Rules, names and the rule file stating them, with duplicate ids,
    duplicate shapes, and names on undefined, strict or already named rules
    mixed in."""
    ids = st.sampled_from(["r0", "r1", "r2", "r3", "r4"])
    shapes = st.lists(st.tuples(ids, shape_st), max_size=4)
    strict, defeasible = (
        [kind(rule_id, *shape) for rule_id, shape in draw(shapes)]
        for kind in (StrictRule, DefeasibleRule)
    )
    names = draw(st.lists(st.tuples(ids, formula_st), max_size=3))
    lines = []
    for keyword, arrow, rules in (("strict", "->", strict), ("defeasible", "=>", defeasible)):
        for rule in rules:
            body = ", ".join(map(str, rule.body))
            lines.append(f"{keyword} {rule.id}: {body} {arrow} {rule.head}")
    lines += [f"name {target} = {lit}" for target, lit in names]
    return strict, defeasible, names, "\n".join(lines)


_D1 = DefeasibleRule("r1", (atom("a"),), atom("b"))
_D2 = DefeasibleRule("r2", (atom("a"),), atom("b"))


@given(rule_parts())
@example(([], [_D1], [("r1", atom("c")), ("r1", atom("c"))], "defeasible r1: a => b\n"
          "name r1 = c\nname r1 = c"))
@example(([], [_D1, _D2], [], "defeasible r1: a => b\ndefeasible r2: a => b"))
def test_the_parser_checks_what_the_constructor_checks(parts):
    """``parse_system`` builds its system without the constructor's checks:
    it raises whenever ``ArgumentationSystem`` would, and otherwise returns
    the system the constructor builds from the same parts.  It also refuses
    a redefined name, which a mapping cannot state."""
    strict, defeasible, names, text = parts
    try:
        expected = ArgumentationSystem(tuple(strict), tuple(defeasible), dict(names))
    except ValidationError:
        expected = None
    try:
        parsed = parse_system(text)
    except ValidationError:
        parsed = None
    redefined = len({target for target, _ in names}) < len(names)
    assert (parsed is None) == (expected is None or redefined)
    if parsed is not None:
        assert parsed == expected


# Fragments of lines: whole rules, single tokens, separators, and characters
# that are no token.
FRAGMENTS = [
    "atoms a b", "strict r1: a -> b", "defeasible d1: ~ a => ~~b", "name d1 = c",
    "atoms", "strict", "defeasible", "name", "r1", "d1", "a", "b",
    "~", "~ ", "->", "=>", ",", ":", "=", "-", ">",
    " ", "\t", "\u00a0", "\u2028", "\x0c", "#", "!", "\u00e9", "1",
]


lines_st = st.lists(st.sampled_from(FRAGMENTS), max_size=10).map("".join)


@given(st.lists(lines_st, min_size=1, max_size=5))
@example(["\u2028!"])
@example(["\x0catoms", "1"])
def test_every_error_points_into_the_text(lines):
    try:
        parse_system("\n".join(lines))
    except (ParseError, ValidationError) as err:
        assert 1 <= err.line <= len(lines)
        assert 1 <= err.column <= len(lines[err.line - 1]) + 1


# ``parse_system`` against ``reference.walk``, the line walker as first
# written, which reads every line token by token.

SPACES = [" ", "\t", "\x0c", "\u2028", "\u00a0", " \t"]
LINE_ENDS = ["\n", "\r\n", "\r"]
STRAY = ["!", "\u00e9", "1", "-", ">", ",", ":", "=", "~", "#", "\ufeff", "x"]
KINDS = ["strict", "defeasible", "name", "atoms", "comment", "blank"]


@st.composite
def spelled_line(draw, kind, rule_id):
    """A line of ``kind`` about ``rule_id``, spelled with free whitespace."""

    def space(needed=False):
        return draw(st.sampled_from(SPACES if needed else ["", "", *SPACES]))

    def literal():
        tildes = "".join("~" + space() for _ in range(draw(st.integers(0, 2))))
        return tildes + draw(st.sampled_from(["a", "b", "c", "long_1"]))

    if kind in ("strict", "defeasible"):
        body = [literal() for _ in range(draw(st.integers(0, 3)))]
        arrow = "->" if kind == "strict" else "=>"
        line = (f"{space()}{kind}{space(needed=True)}{rule_id}{space()}:{space()}"
                + (space() + "," + space()).join(body) + f"{space()}{arrow}{space()}{literal()}")
    elif kind == "name":
        line = f"{space()}name{space(needed=True)}{rule_id}{space()}={space()}{literal()}"
    elif kind == "atoms":
        atoms = draw(st.sampled_from(["a b c long_1", "long_1 c b a", "a b", "c"])).split()
        line = space() + "atoms" + "".join(space(needed=True) + atom for atom in atoms)
    elif kind == "comment":
        return space() + "#" + draw(st.text(st.characters(blacklist_characters="\r\n"), max_size=4))
    else:
        return space()
    return line + space() + draw(st.sampled_from(["", "# note", "#"]))


@st.composite
def mutated(draw, line):
    """``line`` with one syntax fault, or unchanged: a dropped or wrong
    arrow, a stray character, a dropped character."""
    fault = draw(st.sampled_from(["none", "drop arrow", "wrong arrow", "stray", "drop"]))
    if fault == "drop arrow":
        return line.replace("->", "").replace("=>", "")
    if fault == "wrong arrow":
        return line.replace("->", "\0").replace("=>", "->").replace("\0", "=>")
    if not line or fault == "none":
        return line
    at = draw(st.integers(0, len(line) - 1))
    if fault == "stray":
        return line[:at] + draw(st.sampled_from(STRAY)) + line[at:]
    return line[:at] + line[at + 1:]


@st.composite
def rule_texts(draw):
    """Rule files whose lines may repeat an id or a shape, name an undefined
    or strict rule, use an undeclared atom, or have a syntax fault; a name
    line often comes with its defeasible rule."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(KINDS))
        rule_id = kind[0] + draw(st.sampled_from("0123"))
        if kind == "name":
            rule_id = draw(st.sampled_from(["d0", "d1", "s0", "x0"]))
            if draw(st.booleans()):
                lines.append(draw(spelled_line("defeasible", rule_id)))
        line = draw(spelled_line(kind, rule_id))
        lines.append(draw(mutated(line)) if draw(st.integers(0, 5)) == 0 else line)
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]
    return draw(st.sampled_from(["", "\ufeff"])) + text


def walked(text):
    """What the line walker makes of ``text``: a system, or the error it raises."""
    try:
        return reference.walk(text)
    except (ParseError, ValidationError) as err:
        return err


def error_fields(err):
    return type(err), str(err), err.line, err.column, getattr(err, "token", None)


@settings(max_examples=300)
@given(rule_texts())
@example("strict r1: a, ~ ~b -> c\r\ndefeasible d1: => a\rname d1 = ~c\n")
@example("\ufeffatoms a\x0cb\nstrict r1:\u2028a->b # c\r\n")
@example("strict r1: -> a\nstrict r1: -> b")
@example("strict r1: -> a\nstrict r2: -> a")
@example("atoms a\nstrict r1: -> b")
@example("strict r1: -> a\nname r1 = b")
@example("name d1 = b\ndefeasible d1: => a")
@example("strict\ufeffr1: -> a")
def test_the_reader_agrees_with_the_walker(text):
    """``parse_system`` returns the walker's system, and raises exactly
    where the walker raises, with the walker's error."""
    body = text[1:] if text.startswith("\ufeff") else text
    expected = walked(body)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            parse_system(text)
        assert error_fields(err.value) == error_fields(expected)
    else:
        read = parse_system(text)
        assert read == expected
        assert list(read.undercut_names.items()) == list(expected.undercut_names.items())


def rejected(line):
    """Whether ``_LINE_RE`` rejects ``line``, a text of one line, by its last group."""
    (row, *_) = dsl._LINE_RE.findall(line)
    return bool(row[-1])


one_line_st = st.one_of(
    lines_st,
    st.sampled_from(KINDS).flatmap(lambda kind: spelled_line(kind, kind[0] + "1")).flatmap(mutated),
)


@settings(max_examples=300)
@given(one_line_st)
@example("strict\ufeffr1: -> a")
@example("atoms a\u2028b # c !")
def test_the_line_pattern_rejects_exactly_what_the_walker_refuses(line):
    """``parse_system`` raises a syntax error only for a line that
    ``_LINE_RE`` rejects: on one line, the pattern rejects it exactly when
    the walker raises ParseError."""
    assert rejected(line) == isinstance(walked(line), ParseError)


def test_the_line_pattern_rejects_exactly_what_the_walker_refuses_on_fragment_runs():
    """The same, on every line of one, two or three ``FRAGMENTS``."""
    for size in (1, 2, 3):
        for parts in itertools.product(FRAGMENTS, repeat=size):
            line = "".join(parts)
            assert rejected(line) == isinstance(walked(line), ParseError), line


def readme_example():
    """The rule file shown under README's "Rule language" heading."""
    readme = (TANDEM_PATH.parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Rule language", 1)[1]
    return section.split("```\n", 2)[1]


def test_the_walker_reads_no_benchmark_demo_or_readme_file(monkeypatch):
    """Every rule file the benchmark writes, the demo files and README's
    example are read in one pass, to the walker's system; the grammar of
    one line, on the error path, is never called."""
    texts = {op.instance.text for op in bench_operations()}
    texts |= {path.read_text(encoding="utf-8") for path in TANDEM_PATH.parent.glob("*.rules")}
    texts.add(readme_example())
    expected = {text: reference.walk(text) for text in texts}
    calls = []
    monkeypatch.setattr(dsl, "_line_error", lambda *args: calls.append(args))
    for text in texts:
        assert parse_system(text) == expected[text]
    assert calls == [] and len(texts) > 200


LONG = 100_000

# Reads a rule file from stdin, and prints whether the line pattern rejects
# a line of it, the seconds to ``parse_system``'s error, and the error.
LONG_LINE_CHILD = """
import json, sys, time
from jsbaf import ParseError, dsl, parse_system
text = sys.stdin.read()
start = time.perf_counter()
try:
    parse_system(text)
except ParseError as err:
    seconds = time.perf_counter() - start
    rejected = any(row[-1] for row in dsl._LINE_RE.findall(text))
    print(json.dumps([rejected, seconds, str(err)]))
"""


@pytest.mark.parametrize(
    "line, message",
    [
        ("strict r1: " + "a, " * (LONG // 3) + "b", "expected '->' at end of line"),
        ("strict r1: " + "a, " * (LONG // 3) + "-> b", "expected an atom, found '->'"),
        ("strict r1: -> " + "~ " * (LONG // 2), "expected an atom at end of line"),
        ("atoms " + "a " * (LONG // 2) + "!", "unexpected character '!'"),
        ("strict r1:" + " " * LONG + "!", "unexpected character '!'"),
    ],
    ids=["no arrow", "trailing comma", "tilde run", "stray after atoms", "stray after spaces"],
)
def test_a_long_bad_line_fails_fast(line, message):
    """Lines of 100,000 characters that the line pattern rejects:
    ``parse_system`` raises its usual error in linear time.  The parse runs
    in a child process, so that a pattern that backtracks without end fails
    this test instead of hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(TANDEM_PATH.parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-c", LONG_LINE_CHILD], input="strict r0: -> a\n" + line,
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rejected, seconds, error = json.loads(done.stdout)
    assert rejected and seconds < 1.0
    assert error.startswith("2:") and error.endswith(": " + message)
