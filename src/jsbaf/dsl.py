"""Line-oriented rule language.

::

    # tandem scenario
    atoms hw sw tw ht st tt ok_d1    # optional vocabulary declaration
    strict r1: -> hw                 # empty body: axiom-like rule
    strict r4: ht, st -> ~tt
    defeasible d1: hw => ht
    name d1 = ok_d1                  # makes d1 undercuttable at ~ok_d1

Literals are ``~``-prefixed atoms, nestable (``~~a``, also written ``~ ~a``).
Atoms and rule ids are ASCII identifiers, ``[A-Za-z_][A-Za-z0-9_]*``.  ``#``
starts a comment, and one leading byte-order mark is ignored.  Lines end
at ``\n``, ``\r\n`` or ``\r``; any other whitespace, U+2028 and the form
feed included, stays inside its line.

``parse_system`` reads a text in one pass, by one ``finditer`` of
``_LINE_RE``, a pattern of the whole line grammar: each match is one line,
with its rule id, body, head, atoms or name as groups, and each literal's
text is resolved to its formula once per parse.  It raises, in file
order, on a line the pattern rejects or a duplicate rule id or rule as it
reads each line, then on a bad ``name`` line, and last on an undeclared
atom.

Positions are found only on the way to an error.  ``_line_error`` reads a
rejected line by the grammar of one line, token by token, and names the
token at fault.  A failed check takes its column from the match of the
line it names, where the group at fault starts; an undeclared atom is
looked for only inside the literal groups of each match.  Every diagnostic
carries a 1-based line and column.
"""

from __future__ import annotations

import re

from .core import ArgumentationSystem, DefeasibleRule, Formula, StrictRule
from .errors import ParseError, ValidationError

_ID = r"[A-Za-z_][A-Za-z0-9_]*"  # an atom, a rule id or a keyword
_ID_RE = re.compile(_ID)
# The last alternative takes any other single character, which no line may
# contain outside a comment.
_TOKEN_RE = re.compile(rf"->|=>|[,:=~]|{_ID}|#.*|\S")
# A token is an identifier iff its first character is one of these.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SINGLE_CHAR_TOKENS = _IDENT_START | frozenset(",:=~")
# Stands after the last token of a line, so the parser looks ahead without
# bounds checks; a newline is never a token.
_END = "\n"

# One line of the grammar, with its line end, as ``parse_system`` takes it.
# The groups: "strict" or empty, then the rule id, the body (literals and
# commas), the head, where a strict rule takes ``->`` and a defeasible one
# ``=>``; the atoms of an ``atoms`` line; the rule id and the literal of a
# ``name`` line.  A line that is none of these, nor blank or a comment, is
# the last group, whole.  Every repeat stops at a character the next part
# cannot start with, so a failing line costs linear time.
_WS = r"[^\S\r\n]"  # whitespace inside a line
_LIT = rf"(?:~{_WS}*)*{_ID}"
_LINE_RE = re.compile(
    rf"{_WS}*(?:"
    rf"(?:(strict)|defeasible){_WS}+({_ID}){_WS}*:{_WS}*"
    rf"({_LIT}(?:{_WS}*,{_WS}*{_LIT})*{_WS}*)?(?(1)->|=>){_WS}*({_LIT}){_WS}*"
    rf"|atoms((?:{_WS}+{_ID})+){_WS}*"
    rf"|name{_WS}+({_ID}){_WS}*={_WS}*({_LIT}){_WS}*"
    rf")?(?:#[^\r\n]*)?(?:\r\n?|\n|\Z)"
    rf"|([^\r\n]*)(?:\r\n?|\n|\Z)"
)


class _Unexpected(Exception):
    """Token ``index`` of a line is not what the grammar allows there.

    ``expected`` names what it allows; None means no token is allowed: an
    unknown keyword at index 0, a trailing token after a complete line.
    """

    def __init__(self, index: int, expected: str | None):
        self.index = index
        self.expected = expected


def _token_matches(line: str) -> list[re.Match]:
    """The tokens of one line before any comment, with their positions."""
    matches = []
    for m in _TOKEN_RE.finditer(line):
        if m.group()[0] == "#":
            break
        matches.append(m)
    return matches


def _literal_end(tokens: list[str], i: int) -> int:
    """The index after the literal starting at token ``i``."""
    while tokens[i] == "~":
        i += 1
    if tokens[i][0] not in _IDENT_START:
        raise _Unexpected(i, "an atom")
    return i + 1


def _check_line(tokens: list[str]) -> None:
    """Raise _Unexpected at the first of a line's ``tokens``, which end
    with ``_END``, that the grammar does not allow where it stands."""
    keyword, end = tokens[0], len(tokens) - 1
    if keyword == "strict" or keyword == "defeasible":
        if tokens[1][0] not in _IDENT_START:
            raise _Unexpected(1, "a rule id")
        if tokens[2] != ":":
            raise _Unexpected(2, "':'")
        arrow = "->" if keyword == "strict" else "=>"
        i = 3
        if tokens[i] != arrow:
            i = _literal_end(tokens, i)
            while tokens[i] == ",":
                i = _literal_end(tokens, i + 1)
            if tokens[i] != arrow:
                raise _Unexpected(i, repr(arrow))
        i = _literal_end(tokens, i + 1)
    elif keyword == "atoms":
        if end == 1:
            raise _Unexpected(1, "an atom name")
        for i in range(1, end):
            if tokens[i][0] not in _IDENT_START:
                raise _Unexpected(i, "an atom name")
        return
    elif keyword == "name":
        if tokens[1][0] not in _IDENT_START:
            raise _Unexpected(1, "a defeasible rule id")
        if tokens[2] != "=":
            raise _Unexpected(2, "'='")
        i = _literal_end(tokens, 3)
    elif keyword == _END:  # a blank or comment line
        return
    elif keyword[0] in _IDENT_START:
        raise _Unexpected(0, None)
    else:
        raise _Unexpected(0, "a keyword (atoms, strict, defeasible, name)")
    if i != end:
        raise _Unexpected(i, None)


def _line_error(line: str, line_no: int) -> ParseError:
    """The ParseError of ``line``, a line ``_LINE_RE`` rejects, at the
    first token the grammar does not allow.

    A line holding a character that is no token always fails.  That
    character is reported first, wherever it stands, since the line cannot
    be tokenized past it.
    """
    matches = _token_matches(line)
    try:
        _check_line([m.group() for m in matches] + [_END])
    except _Unexpected as err:
        index, expected = err.index, err.expected
    else:
        raise AssertionError(f"line {line_no} parses")
    for m in matches:
        text = m.group()
        if len(text) == 1 and text not in _SINGLE_CHAR_TOKENS:
            return ParseError(f"unexpected character {text!r}", line_no, m.start() + 1, text)
    if index == len(matches):
        return ParseError(f"expected {expected} at end of line", line_no, matches[-1].end() + 1)
    found = matches[index].group()
    if expected is not None:
        message = f"expected {expected}, found {found!r}"
    elif index == 0:
        message = f"unknown keyword {found!r}"
    else:
        message = f"unexpected trailing {found!r}"
    return ParseError(message, line_no, matches[index].start() + 1, found)


def _undeclared_atom_error(lines: list[re.Match], undeclared: set[str]) -> ValidationError:
    """The error for the first literal, in file order, whose atom is in
    ``undeclared``, among ``lines``, the ``_LINE_RE`` match of each line.
    A line's literals are its body, head and named literal, groups 3, 4
    and 7; a group that took no part spans (-1, -1), where none is found."""
    for line_no, line in enumerate(lines, start=1):
        for group in (3, 4, 7):
            for m in _ID_RE.finditer(line.string, *line.span(group)):
                if m.group() in undeclared:
                    return ValidationError(
                        f"atom {m.group()!r} is not in the declared vocabulary",
                        line_no,
                        m.start() - line.start() + 1,
                    )
    raise AssertionError("no literal has an undeclared atom")


class _Literals(dict):
    """Each literal's text, as ``_LINE_RE`` matched it, resolved to its
    formula on its first lookup."""

    def __missing__(self, text: str) -> Formula:
        atom = text[text.rfind("~") + 1:].strip()
        formula = self[text] = Formula(atom, text.count("~"))
        return formula


def parse_system(text: str) -> ArgumentationSystem:
    """Parse a rule file into an argumentation system.

    Raises ParseError on syntax errors and ValidationError on duplicate rule
    ids, duplicate rules, names on unknown or strict rules, redefined names,
    and (when an ``atoms`` declaration is present) undeclared atoms.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    strict: list[StrictRule] = []
    defeasible: list[DefeasibleRule] = []
    ids: set[str] = set()
    shapes: set[tuple] = set()  # (kind, body, head) of each rule
    declared: set[str] = set()  # empty iff there is no ``atoms`` line
    name_decls: list[tuple[int, re.Match, Formula]] = []
    lits = _Literals()
    get = lits.__getitem__
    lines = list(_LINE_RE.finditer(text))  # one match per line, so ``line_no`` counts lines
    for line_no, m in enumerate(lines, 1):
        kind, rule_id, body, head, atoms, target, lit, bad = m.groups()
        if rule_id:
            # A literal's spaces are dropped, so that its usual spellings share one entry.
            body = tuple(map(get, body.replace(" ", "").split(","))) if body else ()
            head = lits[head]
            shape = (kind, body, head)
            if rule_id in ids:
                problem = f"duplicate rule id {rule_id!r}"
                raise ValidationError(problem, line_no, m.start(2) - m.start() + 1)
            if shape in shapes:
                problem = f"rule {rule_id!r} duplicates an earlier {kind or 'defeasible'} rule"
                raise ValidationError(problem, line_no, m.start(2) - m.start() + 1)
            ids.add(rule_id)
            shapes.add(shape)
            if kind:
                strict.append(StrictRule(rule_id, body, head))
            else:
                defeasible.append(DefeasibleRule(rule_id, body, head))
        elif atoms:
            declared.update(atoms.split())
        elif target:
            name_decls.append((line_no, m, lits[lit]))
        elif bad:
            raise _line_error(bad, line_no)  # ``bad`` is the whole line

    defeasible_ids = {rule.id for rule in defeasible}
    names: dict[str, Formula] = {}
    for line_no, m, formula in name_decls:
        target = m[6]
        if target not in ids:
            problem = f"name refers to undefined rule {target!r}"
        elif target not in defeasible_ids:
            problem = f"name defined on strict rule {target!r}"
        elif target in names:
            problem = f"name redefined for rule {target!r}"
        else:
            names[target] = formula
            continue
        raise ValidationError(problem, line_no, m.start(6) - m.start() + 1)

    if declared:
        undeclared = {phi.atom for phi in lits.values()} - declared
        if undeclared:
            raise _undeclared_atom_error(lines, undeclared)

    # Every check of ``ArgumentationSystem`` has been made above, with a position.
    return ArgumentationSystem._make(tuple(strict), tuple(defeasible), names)


def print_system(system: ArgumentationSystem) -> str:
    """Render a system in the rule language; ``parse_system`` of the output
    yields an equal system."""
    lines = []
    if system.atoms:
        lines.append("atoms " + " ".join(sorted(system.atoms)))
    for rule in system.strict_rules:
        body = ", ".join(str(f) for f in rule.body)
        lines.append(f"strict {rule.id}: {body}{' ' if body else ''}-> {rule.head}")
    for rule in system.defeasible_rules:
        body = ", ".join(str(f) for f in rule.body)
        lines.append(f"defeasible {rule.id}: {body}{' ' if body else ''}=> {rule.head}")
    for rule in system.defeasible_rules:
        if rule.id in system.undercut_names:
            lines.append(f"name {rule.id} = {system.undercut_names[rule.id]}")
    return "\n".join(lines) + "\n"
