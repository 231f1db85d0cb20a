"""Tile geometry, the board-to-tile index map, the triangle container, and
the names every engine shares: the two counting metrics and the refusal
error.

A board is a linear array of unit cells, numbered from 1. It is tiled
with squares (one cell each) and combs: a comb has t teeth, each one
cell wide, with consecutive teeth separated by a gap of width m - 1.
Two integers (m, t) therefore fix the tile family. Counting tilings
either by the number of tiles used or by the length of the board tiled
gives two lower-triangular integer tables related by an index shift.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable, Sequence
from enum import Enum

# native memoryview codes by item size, for reading packed slots one word each;
# slots are laid out lowest byte first, so only a little-endian host reads words
_WORDS = (
    {memoryview(bytes(8)).cast(code).itemsize: code for code in "BHIQ"}
    if sys.byteorder == "little"
    else {}
)


def _slot_bytes(bits: int) -> int:
    """Bytes per packed slot for entries below 2^bits.

    A slot that fits a machine word is rounded up to 1, 2, 4 or 8 bytes, so
    that :func:`_slot_reader` reads a whole band in one cast; a wider slot
    takes whole bytes. Rounding only widens a slot, so every entry that fits
    bits bits still fits.
    """
    size = -(-bits // 8)
    return size if size > 8 else 1 << (size - 1).bit_length()


def _slot_reader(size: int) -> Callable[[int, int], list[int]]:
    """A reader of packed slots of ``size`` bytes, chosen once per table.

    ``read(value, count)`` returns the lowest ``count`` slots of value >= 0,
    lowest first: from one memoryview cast when the slots are word-sized,
    from one ``int.from_bytes`` per slot when wider.
    """
    code = _WORDS.get(size)
    if code:
        def read(value: int, count: int) -> list[int]:
            return memoryview(value.to_bytes(count * size, "little")).cast(code).tolist()
    else:
        from_bytes = int.from_bytes

        def read(value: int, count: int) -> list[int]:
            raw = value.to_bytes(count * size, "little")
            return [from_bytes(raw[i : i + size], "little") for i in range(0, len(raw), size)]
    return read


class Frozen:
    """Immutable record whose fields are the names in ``_fields``.

    A subclass declares ``__slots__ = _fields = (...)`` and sets every slot
    once, in order, through ``_set`` in ``__init__``. Equality (within one
    class), hashing and ``repr`` go field by field. The methods are written
    out here, not generated at import: generating them, and importing the
    modules that do it, costs a cold process more time than most requests
    spend counting.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"


def check_int(name: str, value: object, least: int | None, most: int | None = None) -> None:
    """Refuse a size, count or index that is not an int in least..most (None: unbounded).

    An int, not a bool, float or str: the engines build shifts, ranges and
    packed slots from it, where a float answers as if rounded or fails late,
    and a bool reads as 0 or 1.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}")


class CombSpec(Frozen):
    """Parameters of the tile family: squares plus combs with t teeth m apart.

    A comb anchored at cell p occupies {p, p + m, ..., p + (t-1)m}, so it
    spans (t-1)m + 1 cells. With m = 1 the teeth touch and the comb is a
    plain t-omino; with t = 2 it is a two-tooth fence.
    """

    __slots__ = _fields = ("m", "t")

    def __init__(self, m: int, t: int) -> None:
        check_int("m", m, 1)
        check_int("t", t, 2)
        self._set(m, t)


SQUARE = "S"
COMB = "C"


def _comb_mask(spec: CombSpec, reach: int | None = None) -> int:
    """Bits 0, m, ..., (t-1)m, a comb anchored at cell 0, or its teeth up to ``reach``."""
    m, t = spec.m, spec.t
    if reach is not None and reach < (t - 1) * m:
        t = reach // m + 1
    # doubling takes linear time, a quotient by 2^m - 1 quadratic time past m = 30
    mask, teeth = 1, 1
    while 2 * teeth < t:
        mask, teeth = mask | mask << teeth * m, 2 * teeth
    return mask | mask << (t - teeth) * m  # the copies overlap unless t is a power of 2


def board_to_tile_index(spec: CombSpec, n_board: int, k: int) -> tuple[int, int]:
    """Map (board length, comb count) to (tile count, comb count).

    A tiling of an n-board with k combs uses n - kt squares, hence
    n - (t-1)k tiles in total. Negative results are allowed; they index
    implicit zeros of the triangles.
    """
    check_int("n_board", n_board, None)
    check_int("k", k, None)
    return (n_board - (spec.t - 1) * k, k)


def max_combs(spec: CombSpec, J: int, R: int) -> int:
    """Largest number of combs that fits in a board of length m*J + R.

    R selects the residue class of the board length mod m and must lie
    in 0..m-1.
    """
    check_int("J", J, 0)
    check_int("R", R, 0, spec.m - 1)
    t = spec.t
    if J % t < t - 1:
        return spec.m * (J - J % t) // t
    return spec.m * (J - t + 1) // t + R


class TriangleKind(Enum):
    """Which index the triangle rows run over.

    TILE: entry (n, k) counts tilings that use n tiles, k of them combs.
    BOARD: entry (n, k) counts tilings of an n-board that use k combs.
    """

    TILE = "tile"
    BOARD = "board"


class Metric(Enum):
    TILES = "tiles"
    CELLS = "cells"

    @property
    def kind(self) -> TriangleKind:
        """The triangle a walk weight indexes: tile counts or board cells."""
        return TriangleKind.TILE if self is Metric.TILES else TriangleKind.BOARD


class UnsupportedStructureError(RuntimeError):
    """The cycle taxonomy fits neither the common-node nor errant-loop pattern."""


class Triangle(Frozen):
    """Dense lower-triangular table of nonnegative big integers.

    Row n holds entries for k = 0..n, trailing zeros included. Entries
    outside the stored triangle (k < 0 or k > n) read as zero.
    """

    __slots__ = _fields = ("spec", "kind", "rows")

    def __init__(
        self, spec: CombSpec, kind: TriangleKind, rows: Iterable[Sequence[int]] = ()
    ) -> None:
        # from lists, not iterators: a tuple filled from an iterator is reallocated
        # as it grows, which over many requests fragments a long-lived process's heap;
        # entries are taken as given, and every engine yields Python ints
        frozen = tuple([tuple(row) for row in rows])
        self._set(spec, kind, frozen)
        for n, row in enumerate(frozen):
            if len(row) != n + 1:
                raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
            if min(row) < 0:
                raise ValueError(f"row {n} contains a negative entry")
        if frozen and frozen[0] != (1,):
            raise ValueError("entry (0,0) must be 1")

    def entry(self, n: int, k: int) -> int:
        """Entry (n, k), with implicit zeros for k < 0, k > n, or n < 0."""
        if n < 0 or k < 0 or k > n:
            return 0
        if n >= len(self.rows):
            raise IndexError(f"row {n} not materialized (have {len(self.rows)} rows)")
        return self.rows[n][k]

    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)
