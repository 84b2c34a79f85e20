"""Immutable records for the decomposition and pruning results.

A frozen dataclass would serve, but `dataclasses` imports `inspect` and
compiles generated methods for every class it makes, which a cold start of
the command line pays in full.  `Record` gives the same behaviour by hand.
"""

from __future__ import annotations


class Record:
    """A value whose fields, named by `_fields`, are set once by `__init__`.

    Two records are equal when they are of the same class and their fields
    are equal; the hash is that of the tuple of fields, and the repr lists
    them by name, as for a frozen dataclass.  Any other attribute, such as a
    cached property, takes no part in these.  Assignment and deletion raise
    `AttributeError`.  A subclass keeps its fields in its instance dict, or
    in slots of the same names.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, not {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"
