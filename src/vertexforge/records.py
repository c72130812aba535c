"""Value-class bases on `__slots__`: the equality, hash and repr that a
dataclass would have, without importing `dataclasses` (which loads
`inspect`, `ast`, `dis` and `tokenize`).

A class's fields are its `__slots__`, or its own `_fields` when a slot is
kept out of equality and repr.
"""

from __future__ import annotations


class Record:
    """Equal to an instance of the same class with equal fields, unhashable
    (defining `__eq__` sets `__hash__` to None), repr `Name(field=value, ...)`."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _astuple(self) -> tuple:
        return tuple(getattr(self, k) for k in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{k}={getattr(self, k)!r}" for k in self._fields) + ")"


class Frozen(Record):
    """An immutable, hashable `Record`.  `__init__` sets the fields through
    `object.__setattr__`; the constructor takes them in field order, so copy
    and pickle rebuild an instance through it."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        return type(self), self._astuple()
