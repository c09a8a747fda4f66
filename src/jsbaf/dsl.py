"""Line-oriented rule language.

::

    # tandem scenario
    atoms hw sw tw ht st tt          # optional vocabulary declaration
    strict r1: -> hw                 # empty body: axiom-like rule
    strict r4: ht, st -> ~tt
    defeasible d1: hw => ht
    name d1 = ok_d1                  # makes d1 undercuttable at ~ok_d1

Literals are ``~``-prefixed atoms, nestable (``~~a``).  ``#`` starts a
comment.  Every diagnostic carries a 1-based line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core import ArgumentationSystem, DefeasibleRule, Formula, StrictRule
from .errors import ParseError, ValidationError

_TOKEN_RE = re.compile(r"->|=>|[,:=~]|[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class SourceDocument:
    text: str
    provenance: str = "<string>"


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(line: str, line_no: int) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(line, i)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", line_no, i + 1, ch)
        tokens.append(_Token(m.group(), line_no, i + 1))
        i = m.end()
    return tokens


class _LineParser:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.line_no = line_no
        self.pos = 0

    def _fail(self, expected: str):
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            raise ParseError(f"expected {expected}, found {tok.text!r}", tok.line, tok.column, tok.text)
        last = self.tokens[-1]
        raise ParseError(f"expected {expected} at end of line", self.line_no, last.column + len(last.text))

    def peek(self) -> str | None:
        return self.tokens[self.pos].text if self.pos < len(self.tokens) else None

    def take(self, expected_text: str) -> _Token:
        if self.peek() != expected_text:
            self._fail(f"{expected_text!r}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def ident(self, what: str) -> _Token:
        tok_text = self.peek()
        if tok_text is None or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok_text):
            self._fail(what)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def literal(self) -> tuple[Formula, _Token]:
        depth = 0
        while self.peek() == "~":
            self.take("~")
            depth += 1
        tok = self.ident("an atom")
        return Formula(tok.text, depth), tok

    def end(self):
        if self.pos != len(self.tokens):
            tok = self.tokens[self.pos]
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.column, tok.text)


def parse_system(source: SourceDocument | str) -> ArgumentationSystem:
    """Parse a rule file into an argumentation system.

    Raises ParseError on syntax errors and ValidationError on duplicate rule
    ids, duplicate rules, names on unknown or strict rules, redefined names,
    and (when an ``atoms`` declaration is present) undeclared atoms.
    """
    if isinstance(source, str):
        source = SourceDocument(source)

    declared: set[str] = set()
    has_atoms_decl = False
    strict: list[StrictRule] = []
    defeasible: list[DefeasibleRule] = []
    rule_positions: dict[str, _Token] = {}
    shapes: dict[tuple, set] = {"strict": set(), "defeasible": set()}
    name_decls: list[tuple[_Token, Formula]] = []
    literal_sites: list[tuple[Formula, _Token]] = []

    for line_no, line in enumerate(source.text.splitlines(), start=1):
        tokens = _tokenize(line, line_no)
        if not tokens:
            continue
        p = _LineParser(tokens, line_no)
        keyword = p.ident("a keyword (atoms, strict, defeasible, name)")
        if keyword.text == "atoms":
            has_atoms_decl = True
            declared.add(p.ident("an atom name").text)
            while p.peek() is not None:
                declared.add(p.ident("an atom name").text)
        elif keyword.text in ("strict", "defeasible"):
            rule_id = p.ident("a rule id")
            p.take(":")
            arrow = "->" if keyword.text == "strict" else "=>"
            body: list[Formula] = []
            if p.peek() != arrow:
                lit, tok = p.literal()
                body.append(lit)
                literal_sites.append((lit, tok))
                while p.peek() == ",":
                    p.take(",")
                    lit, tok = p.literal()
                    body.append(lit)
                    literal_sites.append((lit, tok))
            p.take(arrow)
            head, head_tok = p.literal()
            literal_sites.append((head, head_tok))
            p.end()
            if rule_id.text in rule_positions:
                raise ValidationError(
                    f"duplicate rule id {rule_id.text!r}", rule_id.line, rule_id.column
                )
            rule_positions[rule_id.text] = rule_id
            shape = (tuple(body), head)
            if shape in shapes[keyword.text]:
                raise ValidationError(
                    f"rule {rule_id.text!r} duplicates an earlier {keyword.text} rule",
                    rule_id.line,
                    rule_id.column,
                )
            shapes[keyword.text].add(shape)
            if keyword.text == "strict":
                strict.append(StrictRule(rule_id.text, tuple(body), head))
            else:
                defeasible.append(DefeasibleRule(rule_id.text, tuple(body), head))
        elif keyword.text == "name":
            target = p.ident("a defeasible rule id")
            p.take("=")
            lit, tok = p.literal()
            literal_sites.append((lit, tok))
            p.end()
            name_decls.append((target, lit))
        else:
            raise ParseError(
                f"unknown keyword {keyword.text!r}", keyword.line, keyword.column, keyword.text
            )

    defeasible_ids = {r.id for r in defeasible}
    strict_ids = {r.id for r in strict}
    names: dict[str, Formula] = {}
    for target, lit in name_decls:
        if target.text in strict_ids:
            raise ValidationError(
                f"name defined on strict rule {target.text!r}", target.line, target.column
            )
        if target.text not in defeasible_ids:
            raise ValidationError(
                f"name refers to undefined rule {target.text!r}", target.line, target.column
            )
        if target.text in names:
            raise ValidationError(
                f"name redefined for rule {target.text!r}", target.line, target.column
            )
        names[target.text] = lit

    if has_atoms_decl:
        for lit, tok in literal_sites:
            if lit.atom not in declared:
                raise ValidationError(
                    f"atom {lit.atom!r} is not in the declared vocabulary", tok.line, tok.column
                )

    return ArgumentationSystem(tuple(strict), tuple(defeasible), names)


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
