"""Flat columns for what a run keeps per processor, operation or event.

A footprint, an outcome, a fault or a retirement costs 50–220 bytes as
an object and 1–8 per field as a slot of an :class:`array.array`.
Nothing is sized when a session is built: a column grows as ids reach
it.  :class:`Rows` is the one read-only
sequence a log of records is kept as.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from typing import Any, Callable, ClassVar, Iterator


def reach(column: array, index: int) -> None:
    """Zero-extend *column* so that *index* is one of its positions
    (at least doubling it: amortised O(1) per index)."""
    size = len(column)
    if index >= size:
        grown = max(index + 1, 2 * size)
        column.frombytes(bytes(column.itemsize * (grown - size)))


class Values:
    """A column of any values: counter values unboxed in an
    ``array("q")`` until the first value that is not a 64-bit int (a
    :mod:`repro.datatypes` reply, say), then a ``list``, once."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: array | list = array("q")

    def append(self, value: Any) -> None:
        items = self._items
        if type(items) is not list:
            if type(value) is int:
                try:
                    items.append(value)
                    return
                except OverflowError:
                    pass
            items = self._items = list(items)
        items.append(value)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Any:
        return self._items[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)


class Interned:
    """A column of strings held as int codes, each distinct string once."""

    __slots__ = ("_codes", "_strings", "_code_of")

    def __init__(self) -> None:
        self._codes = array("i")
        self._strings: list[str] = []
        self._code_of: dict[str, int] = {}

    def append(self, value: str) -> None:
        try:
            code = self._code_of[value]
        except KeyError:
            code = self._code_of[value] = len(self._strings)
            self._strings.append(value)
        self._codes.append(code)

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index: int) -> str:
        return self._strings[self._codes[index]]

    def __iter__(self) -> Iterator[str]:
        return map(self._strings.__getitem__, self._codes)


class Rows(Sequence):
    """A read-only sequence of records kept as one column per field.

    A subclass declares :attr:`schema` — field name to an :mod:`array`
    typecode, ``"s"`` for a string :class:`Interned` to a code, or
    ``"O"`` for any value, kept as :class:`Values` — and :attr:`row`,
    which builds the record a reader sees from one value per field.
    :meth:`add` is the one way in; nothing takes a record out or
    changes one.
    """

    __slots__ = ("_columns",)

    schema: ClassVar[dict[str, str]]
    row: ClassVar[Callable[..., Any]]

    def __init__(self) -> None:
        self._columns: list[Any] = [
            Interned() if code == "s" else Values() if code == "O" else array(code)
            for code in self.schema.values()
        ]

    def add(self, *values: Any) -> None:
        """Append one record, a value per field in :attr:`schema` order."""
        for column, value in zip(self._columns, values):
            column.append(value)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[at] for at in range(len(self))[index]]
        return self.row(*[column[index] for column in self._columns])

    def __iter__(self) -> Iterator[Any]:
        return map(self.row, *self._columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"
