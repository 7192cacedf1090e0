"""The base of pinkey's immutable value types.

Each value type lists its constructor's parameters, in order, as
``_fields``, and writes its own ``__init__``: that checks and normalizes
the arguments and stores them with ``_store``.  ``Value`` then gives
equality, hashing and a repr over ``_fields`` (a type may override any of
them), and refuses attribute assignment.  Attributes a constructor derives
from its fields, and caches a method builds on first use, live in the
instance ``__dict__`` beside the fields, outside equality and repr.

``replace(obj, **changes)`` rebuilds a value through its constructor, so
every check runs again on the new fields.  Plain classes keep ``import
pinkey.cli`` clear of ``dataclasses`` and the modules it imports.
"""

from __future__ import annotations

from typing import TypeVar

V = TypeVar("V", bound="Value")


class Value:
    """Immutable after ``__init__``; equal to another value of the same
    class with equal fields."""

    _fields: tuple[str, ...] = ()

    def _store(self, **fields: object) -> None:
        """Set attributes, bypassing the refusal in ``__setattr__``: for
        constructors and first-use caches only."""
        self.__dict__.update(fields)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(obj: V, /, **changes: object) -> V:
    """A new value of ``obj``'s class: its fields with ``changes`` applied,
    passed through the constructor and its checks."""
    return type(obj)(**{name: getattr(obj, name) for name in obj._fields} | changes)
