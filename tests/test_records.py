"""Records and the cached attribute: every record class behaves as the
frozen dataclass it replaces, and ``import jsbaf`` loads neither
``dataclasses`` nor ``inspect``."""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

import jsbaf
from jsbaf import (
    ArgumentationSystem,
    ArgumentStore,
    DefeasibleRule,
    Evaluation,
    GeneratedSystem,
    JsbafParams,
    Prepared,
    StrictRule,
    SystemParams,
    ValidationError,
    atom,
    construct_arguments,
    evaluate,
    neg,
    prepare,
    random_system,
    write_report,
)
from jsbaf.frameworks import BarNode, BaseNode, ENode
from jsbaf.postulates import SHAPE_RANGES, ConclusionSet
from jsbaf.records import Record, cached_attribute


def _system():
    return ArgumentationSystem(
        (StrictRule("s1", (), atom("p")), StrictRule("s2", (atom("q"),), atom("r"))),
        (DefeasibleRule("d1", (atom("p"),), atom("q")),
         DefeasibleRule("d2", (atom("p"),), neg("q"))),
        {"d1": atom("n")},
    )


def _evaluation():
    return evaluate(prepare(_system()), "preferred", "deductive")


# A fresh record of each class.
FACTORIES = {
    StrictRule: lambda: StrictRule("s1", (atom("a"),), neg("b")),
    DefeasibleRule: lambda: DefeasibleRule("d1", (atom("a"),), neg("b")),
    ArgumentationSystem: _system,
    ArgumentStore: lambda: construct_arguments(_system()),
    BaseNode: lambda: BaseNode("A1"),
    BarNode: lambda: BarNode(BaseNode("A1")),
    ENode: lambda: ENode((BaseNode("A1"), BarNode(BaseNode("A2")))),
    ConclusionSet: lambda: _evaluation().conclusion_sets[0],
    Prepared: lambda: prepare(_system()),
    Evaluation: _evaluation,
    SystemParams: lambda: SystemParams(n_atoms=5, undercut_density=0.5),
    GeneratedSystem: lambda: random_system(SystemParams(), 3),
    JsbafParams: lambda: JsbafParams(max_nodes=6, min_support_size=1),
}
RECORDS = list(FACTORIES)


def fields(record):
    return tuple(getattr(record, name) for name in type(record)._fields)


def test_every_record_class_is_covered():
    assert len(RECORDS) == 13 and all(issubclass(cls, Record) for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_its_attributes_are_its_fields(self, cls):
        record = FACTORIES[cls]()
        assert type(record) is cls
        assert list(vars(record)) == list(cls._fields)

    def test_equality_is_class_and_every_field(self, cls):
        record = FACTORIES[cls]()
        same = cls(*fields(record))
        assert record == same and not record != same
        for name in cls._fields:
            other = cls.__new__(cls)
            other.__dict__.update(vars(record), **{name: object()})
            assert record != other and not record == other, name
        assert record != fields(record)

    def test_equal_records_hash_equal(self, cls):
        record = FACTORIES[cls]()
        same = cls(*fields(record))
        try:
            expected = hash(fields(record))
        except TypeError:  # a field holds a dict, as a system's names do
            with pytest.raises(TypeError):
                hash(same)
        else:
            assert hash(record) == hash(same) == expected

    def test_it_is_frozen(self, cls):
        record = FACTORIES[cls]()
        before = fields(record)
        for name in (*cls._fields, "extra"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, None)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert fields(record) == before and not hasattr(record, "extra")

    def test_pickle_and_deepcopy_round_trip(self, cls):
        record = FACTORIES[cls]()
        for restored in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
            assert type(restored) is cls and list(vars(restored)) == list(cls._fields)
            if cls in (ArgumentStore, Prepared, Evaluation):
                assert stated(restored) == stated(record)
            else:
                assert restored == record


def stated(record):
    """What a record that holds arguments states: arguments compare by
    identity, so no copy of it equals it."""
    if isinstance(record, ArgumentStore):
        return [arg.form for arg in record.arguments]
    if isinstance(record, Prepared):
        record = evaluate(record, "preferred", "deductive")
    parts = []
    write_report(record, "x.rules", "json", parts.append)
    return "".join(parts)


def test_a_strict_rule_never_equals_a_defeasible_rule():
    strict, defeasible = StrictRule("r", (), atom("a")), DefeasibleRule("r", (), atom("a"))
    assert fields(strict) == fields(defeasible)
    assert strict != defeasible and not strict == defeasible
    assert len({strict, defeasible}) == 2


def test_repr_is_the_dataclass_text():
    assert repr(StrictRule("r1", (), atom("hw"))) == (
        "StrictRule(id='r1', body=(), head=Formula(atom='hw', negations=0))"
    )
    assert repr(SystemParams()) == (
        "SystemParams(n_atoms=4, n_strict=3, n_defeasible=3, max_body=2, undercut_density=0.2)"
    )
    assert repr(ENode((BaseNode("A1"), BarNode(BaseNode("A2"))))) == (
        "ENode(members=(BaseNode(label_text='A1'), BarNode(base=BaseNode(label_text='A2'))))"
    )


def test_defaults_are_unchanged():
    assert fields(SystemParams()) == (4, 3, 3, 2, 0.2)
    assert fields(JsbafParams()) == (10, 0.15, 4, 3, 0)
    first, second = ArgumentationSystem((), ()), ArgumentationSystem((), ())
    assert first.undercut_names == {} and first.undercut_names is not second.undercut_names


# An out-of-range value of every ``SHAPE_RANGES`` field, and the message it gets.
SHAPE_MESSAGES = [
    (SystemParams, "n_atoms", 0, "n_atoms must be at least 1, got 0"),
    (SystemParams, "n_strict", -1, "n_strict must be at least 0, got -1"),
    (SystemParams, "n_defeasible", -3, "n_defeasible must be at least 0, got -3"),
    (SystemParams, "max_body", -1, "max_body must be at least 0, got -1"),
    (SystemParams, "undercut_density", -0.1, "undercut_density must lie in [0, 1], got -0.1"),
    (SystemParams, "undercut_density", 2, "undercut_density must lie in [0, 1], got 2"),
    (JsbafParams, "max_nodes", 0, "max_nodes must be at least 1, got 0"),
    (JsbafParams, "attack_prob", 1.5, "attack_prob must lie in [0, 1], got 1.5"),
    (JsbafParams, "max_supports", -1, "max_supports must be at least 0, got -1"),
    (JsbafParams, "max_support_size", -2, "max_support_size must be at least 0, got -2"),
    (JsbafParams, "min_support_size", -1, "min_support_size must be at least 0, got -1"),
]


def test_every_shape_field_has_a_message():
    assert {field for _, field, _, _ in SHAPE_MESSAGES} == set(SHAPE_RANGES)


@pytest.mark.parametrize("cls, field, value, message", SHAPE_MESSAGES)
def test_check_shape_messages_are_unchanged(cls, field, value, message):
    with pytest.raises(ValidationError) as error:
        cls(**{field: value})
    assert str(error.value) == message


COUNT_FIELDS = [field for field, (_, high) in SHAPE_RANGES.items() if high is None]


@pytest.mark.parametrize("field", COUNT_FIELDS)
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_a_count_that_is_no_int_is_refused(field, value):
    cls = SystemParams if field in SystemParams._fields else JsbafParams
    with pytest.raises(ValidationError) as error:
        cls(**{field: value})
    assert str(error.value) == f"{field} must be an int, got {value!r}"


FRACTION_FIELDS = [field for field, (_, high) in SHAPE_RANGES.items() if high is not None]


@pytest.mark.parametrize("field", FRACTION_FIELDS)
@pytest.mark.parametrize("value", ["x", None, True, [0.5]])
def test_a_fraction_that_is_no_int_or_float_is_refused(field, value):
    cls = SystemParams if field in SystemParams._fields else JsbafParams
    with pytest.raises(ValidationError) as error:
        cls(**{field: value})
    assert str(error.value) == f"{field} must be an int or a float, got {value!r}"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = str(Path(jsbaf.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import jsbaf.cli; "
         "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert loaded == "[]\n"


class TestCachedAttribute:
    def test_it_runs_once_per_object(self):
        calls = []

        class Counted:
            @cached_attribute
            def value(self):
                """The object's id, counted."""
                calls.append(self)
                return id(self)

        first, second = Counted(), Counted()
        assert [first.value, first.value, second.value, first.value] == [
            id(first), id(first), id(second), id(first)]
        assert calls == [first, second]
        assert vars(first) == {"value": id(first)}

    def test_read_on_the_class_it_is_the_descriptor(self):
        descriptor = ArgumentationSystem.__dict__["literal_table"]
        assert isinstance(descriptor, cached_attribute)
        assert ArgumentationSystem.literal_table is descriptor
        assert descriptor.__doc__.startswith("Every formula the system mentions")

    def test_a_record_keeps_its_value(self):
        system = _system()
        table = system.literal_table
        assert system.literal_table is table and vars(system)["literal_table"] is table


class TestDeclaration:
    """A record's class annotations are its fields, and a class that
    defines no ``__init__`` gets one that takes them in order, with the
    class-body values as defaults, and calls ``__post_init__``."""

    class Point(Record):
        """Fields declared out of alphabetical order."""

        y: int
        x: int
        label: str  # a comment on the field

    class Single(Record):
        only: tuple

    class Checked(Record):
        size: int

        def __init__(self, size: int = 1):
            if size < 0:
                raise ValueError("size must be at least 0")
            self.__dict__["size"] = size

    def test_fields_follow_the_annotations(self):
        assert self.Point._fields == ("y", "x", "label")
        assert self.Single._fields == ("only",)
        assert self.Checked._fields == ("size",)
        assert Record._fields == ()

    def test_the_init_takes_the_fields_by_position_and_keyword(self):
        point = self.Point(1, 2, "p")
        assert vars(point) == {"y": 1, "x": 2, "label": "p"}
        assert list(vars(point)) == list(self.Point._fields)
        assert self.Point(label="p", x=2, y=1) == self.Point(1, x=2, label="p") == point
        assert repr(point) == "TestDeclaration.Point(y=1, x=2, label='p')"
        assert vars(self.Single(only=())) == {"only": ()}

    def test_the_init_is_named_after_its_class(self):
        assert self.Point.__init__.__qualname__ == "TestDeclaration.Point.__init__"
        assert StrictRule.__init__.__qualname__ == "StrictRule.__init__"

    def test_a_missing_or_extra_field_raises_a_type_error_naming_the_class(self):
        with pytest.raises(TypeError, match=r"Point\.__init__\(\) missing 1 required .*'label'"):
            self.Point(1, 2)
        with pytest.raises(TypeError, match=r"StrictRule\.__init__\(\) missing .*'head'"):
            StrictRule("s1", ())
        with pytest.raises(TypeError, match=r"Single\.__init__\(\) got an unexpected keyword"):
            self.Single(only=(), other=1)
        with pytest.raises(TypeError, match=r"Single\.__init__\(\) takes 2 positional"):
            self.Single((), ())

    def test_a_class_with_its_own_init_keeps_it(self):
        assert self.Checked().size == 1
        with pytest.raises(ValueError, match="size must be at least 0"):
            self.Checked(-1)

    class Defaulted(Record):
        size: int
        scale: float = 1.5
        tag: str = "t"

    def test_a_field_with_a_class_body_value_is_optional(self):
        cls = self.Defaulted
        assert vars(cls(2)) == {"size": 2, "scale": 1.5, "tag": "t"}
        assert cls(2, 3.0) == cls(2, scale=3.0) == cls(size=2, scale=3.0, tag="t")
        assert vars(cls(2, tag="u")) == {"size": 2, "scale": 1.5, "tag": "u"}
        assert vars(cls(2, 3.0, "u")) == {"size": 2, "scale": 3.0, "tag": "u"}
        with pytest.raises(TypeError, match=r"Defaulted\.__init__\(\) missing 1 required .*'size'"):
            cls(tag="u")
        with pytest.raises(TypeError, match=r"takes from 2 to 4 positional arguments but 5"):
            cls(1, 2, 3, 4)

    def test_post_init_runs_once_after_every_field_is_stored(self):
        seen = []

        class Seen(Record):
            low: int
            high: int = 9

            def __post_init__(self):
                seen.append(dict(vars(self)))
                if self.low > self.high:
                    raise ValueError("low above high")

        assert vars(Seen(1)) == {"low": 1, "high": 9}
        assert seen == [{"low": 1, "high": 9}]
        with pytest.raises(ValueError, match="low above high"):
            Seen(3, high=2)
        assert seen == [{"low": 1, "high": 9}, {"low": 3, "high": 2}]

    def test_every_jsbaf_record_class_has_the_compiled_init(self):
        for module in pkgutil.iter_modules(jsbaf.__path__):
            importlib.import_module(f"jsbaf.{module.name}")
        classes, todo = set(), [Record]
        while todo:
            for cls in todo.pop().__subclasses__():
                classes.add(cls)
                todo.append(cls)
        ours = {cls for cls in classes if cls.__module__.startswith("jsbaf.")}
        assert ours == set(RECORDS)
        for cls in ours:
            assert cls.__init__.__qualname__ == f"{cls.__name__}.__init__"
            assert cls.__init__.__code__.co_filename == "<string>", cls

    def test_a_subclass_adds_its_annotations_to_the_fields(self):
        class Labelled(self.Single):
            label: str

        assert Labelled._fields == ("only", "label")
        assert vars(Labelled((), "a")) == {"only": (), "label": "a"}
        assert Labelled((), "a") != self.Single(())
