"""Immutable records with ``__slots__`` fields.

Each record class lists its fields in ``__slots__``, in constructor order,
and its ``__init__`` stores them once with :meth:`Record._set`. Assignment
and deletion raise ``AttributeError`` afterwards. Every ndarray field is
made read-only, also when ``pickle`` or ``copy`` restores the record.
:class:`Record` compares and hashes by identity, :class:`ValueRecord` field
by field. Building these classes runs no generated code, unlike
``dataclasses``, whose decorator execs every ``__init__`` and ``__eq__`` at
import.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Record", "ValueRecord"]


class Record:
    """Immutable record, equal only to itself."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Store ``values`` into the fields, in ``__slots__`` order; ndarrays read-only."""
        for name, value in zip(self.__slots__, values, strict=True):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state) -> None:
        # pickle and copy hand back (None, {field: value})
        self._set(*(state[1][name] for name in self.__slots__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class ValueRecord(Record):
    """Immutable record, equal to a record of the same class with equal
    fields, and hashed by its fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())
