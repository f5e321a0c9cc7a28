"""Base class for the package's small immutable value types.

A subclass lists its fields in __slots__, in constructor order, and its
__init__ hands the values to _assign.  Instances compare equal when they
have the same class and field values, hash like the tuple of those values,
and refuse assignment with AttributeError; they pickle and copy through
their constructor.  This gives what frozen dataclasses gave without
importing dataclasses (and with it inspect) on every start-up.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
