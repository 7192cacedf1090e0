"""The base of pinkey's immutable value types.

Each value type writes its own ``__init__``: that checks and normalizes
the arguments and stores them with ``_store``.  ``Value`` reads the
type's ``_fields`` off it when the class is made, its positional
parameters after ``self`` in order, gives equality, hashing and a repr
over them (a type may override any of them), and refuses attribute
assignment.  Fields are the facts nothing else fixes; what they
determine is a property, or an attribute the constructor derives or a
first-use cache, kept in the instance ``__dict__`` beside the fields,
outside equality and repr.

One rule makes every value read-only: ``_store`` keeps each dict or
mapping proxy it is handed, field or cache, as a ``MappingProxyType``
over its own copy, and a hash reads such a table by its items.  A
constructor hands over a caller's mapping as a plain dict.  Every
other field is stored as its constructor built it, a tuple in place of a
caller's list.

``replace(obj, **changes)`` rebuilds a value through its constructor, so
every check runs again on the new fields; unpickling and ``copy`` do the
same, since a value pickles as its class and its fields.  Plain classes
keep ``import pinkey.cli`` clear of ``dataclasses`` and the modules it
imports.  ``View`` is the one sequence whose items are built when read.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Sequence, TypeVar

V = TypeVar("V", bound="Value")
# the types whose values ``_store`` copies into read-only tables: exact
# types, looked up in a set so that a field costs no call
_TABLES = frozenset({dict, MappingProxyType})


class Value:
    """Immutable after ``__init__``; equal to another value of the same
    class with equal fields."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # the fields, stated once: the constructor's parameters after self
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _store(self, **fields: object) -> None:
        """Set attributes, bypassing the refusal in ``__setattr__``: for
        constructors and first-use caches only.  A table is kept as a
        read-only copy, so neither the caller nor a reader can edit it."""
        for name, value in fields.items():
            if type(value) in _TABLES:
                fields[name] = MappingProxyType(dict(value))
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
        return hash(tuple(frozenset(value.items()) if type(value) is MappingProxyType
                          else value for value in self._values()))

    def __reduce__(self) -> tuple:
        """Pickle as the class and its fields, tables as dicts: loading
        calls the constructor, which checks them again."""
        return type(self), tuple(dict(value) if type(value) is MappingProxyType
                                 else value for value in self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def replace(obj: V, /, **changes: object) -> V:
    """A new value of ``obj``'s class: its fields with ``changes`` applied,
    passed through the constructor and its checks."""
    return type(obj)(**{name: getattr(obj, name) for name in obj._fields} | changes)


class View(Sequence):
    """``length`` items, item k built by ``item(k)`` when read, so ``len``
    builds none; indices, slices and equality work as in a tuple.  A view
    equals a view or a tuple of equal items; unequal lengths build no
    item.  Like a list, it does not hash."""

    __slots__ = ("_length", "_item")
    __hash__ = None

    def __init__(self, length: int, item: Callable[[int], object]) -> None:
        self._length, self._item = length, item

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        position = range(self._length)[index]
        if isinstance(position, range):
            return tuple(map(self._item, position))
        return self._item(position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (View, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))
