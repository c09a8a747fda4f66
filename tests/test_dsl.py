"""Rule-language parser and printer."""

import pytest
from hypothesis import given, strategies as st

from jsbaf import (
    ArgumentationSystem,
    DefeasibleRule,
    Formula,
    ParseError,
    SourceDocument,
    StrictRule,
    ValidationError,
    atom,
    neg,
    parse_system,
    print_system,
)


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

    def test_stdin_style_document(self):
        doc = SourceDocument("strict r1: -> a", "<stdin>")
        assert parse_system(doc).strict_rules[0].id == "r1"


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
