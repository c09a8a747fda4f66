"""Plain frozen records and a lock-free cached attribute.

Every record of the pipeline (rules, systems, argument stores, framework
nodes, generator parameters, evaluation results) is a plain class on
``Record``.  Its class annotations, in order, are its fields and their only
declaration: ``Record`` reads them into ``_fields`` and gives a class that
defines no ``__init__`` one that stores them through the instance
``__dict__``.  A value given to a field in the class body is its default,
and a ``__post_init__``, run after the fields are stored, copies or checks
them.  ``Record`` gives what a frozen dataclass gives: equality of class and
fields, a hash of the fields, the dataclass's ``repr``, and
``FrozenInstanceError`` on every assignment or deletion of an attribute.  It
is not a dataclass, so ``dataclasses.fields``, ``replace`` and ``asdict`` do
not apply, and ``dataclasses`` is imported only to raise that error.
Records pickle and copy by their ``__dict__``, as a frozen dataclass does.

``cached_attribute`` is ``functools.cached_property`` without its lock:
the function runs on the first read and its value is stored in the
instance ``__dict__``, which every later read finds first.  Two threads
that read it first at once may both run the function; the value stored
last stays.
"""

from __future__ import annotations


def _refuse(verb: str, name: str):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


class Record:
    """An immutable record of the fields its subclasses annotate, in order.
    A subclass that defines no ``__init__`` gets one that takes every field,
    by position or keyword, compiled once, as ``collections.namedtuple``
    compiles its ``__new__``.  A field with a value in the class body takes
    it as its default, and the ``__init__`` ends by calling the class's
    ``__post_init__``, if it has one, as a dataclass's does."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__annotations__)
        if "__init__" in cls.__dict__:
            return
        if len(fields) == 1:
            store = f"self.__dict__[{fields[0]!r}] = {fields[0]}"
        else:
            store = f"self.__dict__.update({', '.join([f'{name}={name}' for name in fields])})"
        if hasattr(cls, "__post_init__"):
            store += "\n    self.__post_init__()"
        # A field with a value on the class, or on a base, takes it as its default.
        params = [f"{name}=cls.{name}" if hasattr(cls, name) else name for name in fields]
        namespace = {"cls": cls}
        exec(f"def __init__(self, {', '.join(params)}):\n    {store}\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        values = self.__dict__
        return tuple([values[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = self.__dict__
        fields = ", ".join([f"{name}={values[name]!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        _refuse("assign to", name)

    def __delattr__(self, name):
        _refuse("delete", name)


class cached_attribute:
    """A read-only attribute computed by ``func`` on its first read of each
    object and stored in that object's ``__dict__``."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value
