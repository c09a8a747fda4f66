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

``parse_system`` reads a text in one pass, by one ``findall`` of
``_LINE_RE``, a pattern of the whole line grammar: each match is one line,
with its rule id, body, head, atoms or name as groups, and each literal's
text is resolved to its formula once per parse.  A text that has a line
the pattern rejects, a duplicate rule id or rule, a bad ``name`` line or an
undeclared atom goes whole to the line walker, ``_walk``, which raises.

The walker splits each line into token strings by one ``findall`` of
``_TOKEN_RE``, and reads that list by index.  Token columns are not kept:
a diagnostic, or a later check that needs a position (an undeclared atom,
a ``name`` error, a duplicate rule), scans its one line again with
``finditer``.  Every diagnostic carries a 1-based line and column.
"""

from __future__ import annotations

import re

from .core import ArgumentationSystem, DefeasibleRule, Formula, StrictRule
from .errors import ParseError, ValidationError

_ID = r"[A-Za-z_][A-Za-z0-9_]*"  # an atom, a rule id or a keyword
# The last alternative takes any other single character, which no line may
# contain outside a comment.
_TOKEN_RE = re.compile(rf"->|=>|[,:=~]|{_ID}|#.*|\S")
# A token is an identifier iff its first character is one of these.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SINGLE_CHAR_TOKENS = _IDENT_START | frozenset(",:=~")
# Stands after the last token of a line, so the parser looks ahead without
# bounds checks; a newline is never a token.
_END = "\n"

# One line of the grammar, with its line end, as ``_read`` takes it.  The
# groups: "strict" or empty, then the rule id, the body (literals and
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


def _syntax_error(line: str, line_no: int, index: int, expected: str | None) -> ParseError:
    """The ParseError of a line that failed at token ``index``.

    The parser checks every token of a line, so a line holding a character
    that is no token always fails.  That character is reported first,
    wherever it stands, since the line cannot be tokenized past it.
    """
    matches = _token_matches(line)
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


def _column(line: str, index: int) -> int:
    return _token_matches(line)[index].start() + 1


def _undeclared_atom_error(lines: list[str], undeclared: set[str]) -> ValidationError:
    """The error for the first literal, in file order, whose atom is in
    ``undeclared``.  Every line has parsed, so on a ``strict``,
    ``defeasible`` or ``name`` line the literals start at token 3."""
    for line_no, line in enumerate(lines, start=1):
        matches = _token_matches(line)
        if matches and matches[0].group() != "atoms":
            for m in matches[3:]:
                if m.group() in undeclared:
                    return ValidationError(
                        f"atom {m.group()!r} is not in the declared vocabulary",
                        line_no,
                        m.start() + 1,
                    )
    raise AssertionError("no literal has an undeclared atom")


def _literal(tokens: list[str], i: int) -> tuple[Formula, int]:
    """The literal starting at token ``i`` and the index after it."""
    depth = 0
    while tokens[i] == "~":
        depth += 1
        i += 1
    atom = tokens[i]
    if atom[0] not in _IDENT_START:
        raise _Unexpected(i, "an atom")
    return Formula(atom, depth), i + 1


class _Literals(dict):
    """Each literal's text, as ``_LINE_RE`` matched it, resolved to its
    formula on its first lookup."""

    def __missing__(self, text: str) -> Formula:
        atom = text[text.rfind("~") + 1:].strip()
        formula = self[text] = Formula(atom, text.count("~"))
        return formula


def _read(text: str) -> ArgumentationSystem | None:
    """The system of ``text`` by one ``findall`` of ``_LINE_RE``, or None
    if a line does not match or a check fails; ``_walk`` then reads it."""
    strict: list[tuple] = []  # (id, body, head) of each rule, per kind
    defeasible: list[tuple] = []
    declared: set[str] = set()  # empty iff there is no ``atoms`` line
    name_decls: list[tuple[str, Formula]] = []
    lits = _Literals()
    get = lits.__getitem__
    for kind, rule_id, body, head, atoms, target, lit, bad in _LINE_RE.findall(text):
        if rule_id:
            # A literal's spaces are dropped, so that its usual spellings share one entry.
            body = tuple(map(get, body.replace(" ", "").split(","))) if body else ()
            (strict if kind else defeasible).append((rule_id, body, lits[head]))
        elif atoms:
            declared.update(atoms.split())
        elif target:
            name_decls.append((target, lits[lit]))
        elif bad:
            return None
    ids = [row[0] for row in strict] + [row[0] for row in defeasible]
    if len(set(ids)) < len(ids):
        return None
    for rows in (strict, defeasible):
        if len({row[1:] for row in rows}) < len(rows):
            return None
    defeasible_ids = set(ids[len(strict):])
    names: dict[str, Formula] = {}
    for target, formula in name_decls:
        if target not in defeasible_ids or target in names:
            return None
        names[target] = formula
    if declared and any(phi.atom not in declared for phi in lits.values()):
        return None
    return ArgumentationSystem._make(
        tuple([StrictRule(*row) for row in strict]),
        tuple([DefeasibleRule(*row) for row in defeasible]),
        names,
    )


def parse_system(text: str) -> ArgumentationSystem:
    """Parse a rule file into an argumentation system.

    Raises ParseError on syntax errors and ValidationError on duplicate rule
    ids, duplicate rules, names on unknown or strict rules, redefined names,
    and (when an ``atoms`` declaration is present) undeclared atoms.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    system = _read(text)
    return _walk(text) if system is None else system


def _walk(text: str) -> ArgumentationSystem:
    """``parse_system`` line by line, token by token: the reader of every
    text that ``_read`` leaves, and the one that raises."""
    # Lines end only where ``open()`` ends them; ``str.splitlines`` would
    # also break at form feeds, U+2028 and others, which are whitespace here.
    lines = re.split(r"\r\n|\r|\n", text)

    declared: set[str] = set()
    has_atoms_decl = False
    strict: list[StrictRule] = []
    defeasible: list[DefeasibleRule] = []
    rule_ids: set[str] = set()
    # Token text after the colon, per kind: equal iff body and head are.
    shapes: dict[str, set[str]] = {"strict": set(), "defeasible": set()}
    name_decls: list[tuple[str, Formula, int]] = []
    tokenize = _TOKEN_RE.findall

    for line_no, line in enumerate(lines, start=1):
        tokens = tokenize(line)
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[-1][0] == "#":
            tokens[-1] = _END
        else:
            tokens.append(_END)
        end = len(tokens) - 1
        keyword = tokens[0]
        try:
            if keyword == "strict" or keyword == "defeasible":
                rule_id = tokens[1]
                if rule_id[0] not in _IDENT_START:
                    raise _Unexpected(1, "a rule id")
                if tokens[2] != ":":
                    raise _Unexpected(2, "':'")
                arrow = "->" if keyword == "strict" else "=>"
                body: list[Formula] = []
                i = 3
                if tokens[i] != arrow:
                    lit, i = _literal(tokens, i)
                    body.append(lit)
                    while tokens[i] == ",":
                        lit, i = _literal(tokens, i + 1)
                        body.append(lit)
                    if tokens[i] != arrow:
                        raise _Unexpected(i, repr(arrow))
                head, i = _literal(tokens, i + 1)
                if i != end:
                    raise _Unexpected(i, None)
                if rule_id in rule_ids:
                    raise ValidationError(
                        f"duplicate rule id {rule_id!r}", line_no, _column(line, 1)
                    )
                rule_ids.add(rule_id)
                shape = " ".join(tokens[3:end])
                if shape in shapes[keyword]:
                    raise ValidationError(
                        f"rule {rule_id!r} duplicates an earlier {keyword} rule",
                        line_no,
                        _column(line, 1),
                    )
                shapes[keyword].add(shape)
                if keyword == "strict":
                    strict.append(StrictRule(rule_id, tuple(body), head))
                else:
                    defeasible.append(DefeasibleRule(rule_id, tuple(body), head))
            elif keyword == "atoms":
                if end == 1:
                    raise _Unexpected(1, "an atom name")
                for i in range(1, end):
                    if tokens[i][0] not in _IDENT_START:
                        raise _Unexpected(i, "an atom name")
                has_atoms_decl = True
                declared.update(tokens[1:end])
            elif keyword == "name":
                if tokens[1][0] not in _IDENT_START:
                    raise _Unexpected(1, "a defeasible rule id")
                if tokens[2] != "=":
                    raise _Unexpected(2, "'='")
                lit, i = _literal(tokens, 3)
                if i != end:
                    raise _Unexpected(i, None)
                name_decls.append((tokens[1], lit, line_no))
            elif keyword[0] in _IDENT_START:
                raise _Unexpected(0, None)
            else:
                raise _Unexpected(0, "a keyword (atoms, strict, defeasible, name)")
        except _Unexpected as err:
            raise _syntax_error(line, line_no, err.index, err.expected) from None

    defeasible_ids = {r.id for r in defeasible}
    names: dict[str, Formula] = {}
    for target, lit, line_no in name_decls:
        if target not in rule_ids:
            problem = f"name refers to undefined rule {target!r}"
        elif target not in defeasible_ids:
            problem = f"name defined on strict rule {target!r}"
        elif target in names:
            problem = f"name redefined for rule {target!r}"
        else:
            names[target] = lit
            continue
        raise ValidationError(problem, line_no, _column(lines[line_no - 1], 1))

    if has_atoms_decl:
        used = {lit.atom for rule in (*strict, *defeasible) for lit in (*rule.body, rule.head)}
        undeclared = used.union(lit.atom for lit in names.values()) - declared
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
