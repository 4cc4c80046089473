"""Flat columns for what a run keeps per processor or per operation.

A footprint, a result, an outcome or a leaf's belief costs 50–150 bytes
as an object and 4 or 8 as a slot of an :class:`array.array`.  Nothing
is sized when a session is built: a column grows as ids reach it.
"""

from __future__ import annotations

from array import array
from typing import Any


def reach(column: array, index: int) -> None:
    """Zero-extend *column* so that *index* is one of its positions
    (at least doubling it: amortised O(1) per index)."""
    size = len(column)
    if index >= size:
        grown = max(index + 1, 2 * size)
        column.frombytes(bytes(column.itemsize * (grown - size)))


def append_value(column: array | list, value: Any) -> array | list:
    """Append *value* to a value column; return the column to keep.

    A value column starts as ``array("q")``, counter values unboxed; the
    first value that is not a 64-bit int (a :mod:`repro.datatypes`
    reply, say) turns it into a ``list``, once.
    """
    if type(column) is not list:
        if type(value) is int:
            try:
                column.append(value)
                return column
            except OverflowError:
                pass
        column = list(column)
    column.append(value)
    return column
