"""Brute-force ground truth by exhaustive enumeration.

Each shape (the tilings of a board, the gapless tilings with a given tile
count, the restricted subsets of a universe) has one depth-first search
over int bitmasks, bit c standing for cell or member c. A leaf of a
search is one int whose set bits are a tiling's comb anchors or a
subset's members. The counting paths tally leaves by ``bit_count()`` as
the search yields them and build nothing; only the listings build and
validate :class:`Tiling` and :class:`RestrictedSubset` objects, from the
same masks. The searches are exponential and guarded by size limits, but
they are the reference the faster engines are judged against. The two
bijection witnesses (subsets to tilings, board splitting by residue
class) live here too, and build their tilings from anchor masks as well.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

from .core import COMB, SQUARE, CombSpec, Frozen, Triangle, TriangleKind, _comb_mask, check_int

# the enumeration caps: larger requests are refused, not truncated
MAX_BOARD = 26
MAX_TILES = 22
MAX_UNIVERSE = 24


class Tiling(Frozen):
    """A complete tiling of a board, as a list of (tile kind, anchor cell).

    The anchor of a square is its cell; the anchor of a comb is its leftmost
    tooth. Placements are kept in ascending anchor order. Construction
    validates that the tiles cover {1..board_len} exactly once.
    """

    __slots__ = _fields = ("spec", "board_len", "placements")

    def __init__(
        self, spec: CombSpec, board_len: int, placements: tuple[tuple[str, int], ...]
    ) -> None:
        check_int("board_len", board_len, 0)
        self._set(spec, board_len, placements)
        comb = _comb_mask(self.spec)
        covered = 0  # bit c is cell base + c
        base = 0
        prev_anchor = 0
        for kind, anchor in self.placements:
            if anchor <= prev_anchor:
                raise ValueError("placements must be in ascending anchor order")
            prev_anchor = anchor
            if kind == SQUARE:
                shape = 1
            elif kind == COMB:
                shape = comb
            else:
                raise ValueError(f"unknown tile kind {kind!r}")
            if anchor > self.board_len and anchor - base >= covered.bit_length():
                # past the board and past every covered cell: no later tile can
                # meet the cells below it, so drop them rather than shift that
                # far; bit 0, never a board cell, then fails the cover test
                covered, base = 0, anchor
            cells = shape << anchor - base
            if covered & cells:
                raise ValueError(f"tile at {anchor} overlaps occupied cells")
            covered |= cells
        if covered != (2 << self.board_len) - 2:
            raise ValueError("tiles do not cover the board exactly")

    @property
    def n_tiles(self) -> int:
        return len(self.placements)

    @property
    def n_combs(self) -> int:
        return sum(1 for kind, _ in self.placements if kind == COMB)


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of mask >= 0, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _tiling(spec: CombSpec, board_len: int, anchors: int) -> Tiling:
    """The tiling with combs at the set bits of anchors and squares elsewhere."""
    # combs that do not overlap add without a carry, so the product is their cells
    squares = ((2 << board_len) - 2) & ~(anchors * _comb_mask(spec))
    placements = [
        (COMB, c) if anchors >> c & 1 else (SQUARE, c) for c in _bits(anchors | squares)
    ]
    return Tiling(spec, board_len, tuple(placements))


def _histogram(masks: Iterable[int], size: int) -> list[int]:
    """Entry j counts the masks with j set bits (combs, or members)."""
    counts = [0] * size
    for mask in masks:
        counts[mask.bit_count()] += 1
    return counts


def _board_masks(spec: CombSpec, board_len: int) -> Iterator[int]:
    """Comb-anchor masks of all tilings of a board, square branch first.

    The search fills the leftmost empty cell with a square or with a comb
    anchored there. The cells past the board start out occupied, and a
    leaf is a fully occupied mask. The board is neither checked nor capped
    here: callers do both.
    """
    comb = _comb_mask(spec)
    full = (2 << (board_len + (spec.t - 1) * spec.m)) - 1
    stack = [(full ^ ((2 << board_len) - 2), 0)]  # (occupied, anchors); bit 0 is set
    pop, push = stack.pop, stack.append
    while stack:
        occupied, anchors = pop()
        if occupied == full:
            yield anchors
            continue
        cell = ~occupied & (occupied + 1)  # the leftmost empty cell
        teeth = comb * cell
        # a comb at the leftmost empty cell never meets an earlier tile (see
        # _tile_masks), so this refuses only a comb that runs off the board
        if not occupied & teeth:
            push((occupied | teeth, anchors | cell))
        push((occupied | cell, anchors))


def _tile_masks(spec: CombSpec, n_tiles: int) -> Iterator[int]:
    """Comb-anchor masks of all gapless tilings with n_tiles tiles, square first.

    The search fills the leftmost empty cell n_tiles times, with a square or
    a comb anchored there, and keeps a leaf when its occupied cells run from
    cell 1 with no gap. A leaf with k combs covers n_tiles + (t-1)k cells.
    No placement can overlap: a tooth of an earlier comb in the new comb's
    residue class would cover the leftmost empty cell, and earlier squares
    lie left of it. The tile count is neither checked nor capped here:
    callers do both.
    """
    comb = _comb_mask(spec)
    stack = [(1, 0, n_tiles)]  # (occupied, anchors, tiles left); bit 0 is set
    pop, push = stack.pop, stack.append
    while stack:
        occupied, anchors, left = pop()
        cell = ~occupied & (occupied + 1)  # the leftmost empty cell
        if not left:
            if occupied + 1 == cell:
                yield anchors
            continue
        left -= 1
        push((occupied | comb * cell, anchors | cell, left))
        push((occupied | cell, anchors, left))


def enumerate_tilings(spec: CombSpec, board_len: int) -> list[Tiling]:
    """All tilings of a board of the given length, each exactly once.

    Generation fills the leftmost empty cell with a square or with a comb
    anchored there (square branch first), so the output order is canonical
    and no tiling is produced twice. The empty board yields the empty tiling.
    """
    check_int("board_len", board_len, 0)
    if board_len > MAX_BOARD:
        raise ValueError(f"board_len {board_len} exceeds the enumeration limit {MAX_BOARD}")
    return [_tiling(spec, board_len, a) for a in _board_masks(spec, board_len)]


def enumerate_tile_tilings(spec: CombSpec, n_tiles: int) -> list[Tiling]:
    """All gapless tilings (of any board length) that use exactly n_tiles tiles.

    The tile multiset determines the board length, so the search is bounded
    by tile count: the leftmost empty cell is filled with a square or a comb
    until n_tiles tiles are down, and the result is kept when no gap remains.
    """
    check_int("n_tiles", n_tiles, 0)
    if n_tiles > MAX_TILES:
        raise ValueError(f"n_tiles {n_tiles} exceeds the enumeration limit {MAX_TILES}")
    pad = spec.t - 1
    return [
        _tiling(spec, n_tiles + pad * a.bit_count(), a)
        for a in _tile_masks(spec, n_tiles)
    ]


# holds every (spec, board) the full identity profile enumerates (248 keys)
@functools.lru_cache(maxsize=512)
def _board_comb_counts(spec: CombSpec, board_len: int) -> tuple[int, ...]:
    # counts by comb count k = 0..board_len; caller is responsible for limits
    return tuple(_histogram(_board_masks(spec, board_len), board_len + 1))


def build_triangle(spec: CombSpec, kind: TriangleKind, rows: int) -> Triangle:
    """Triangle of tiling counts, row by row, from raw enumeration.

    Board-indexed rows come from enumerating each board length. Tile-indexed
    rows come from the bounded tile-count search; every entry whose implied
    board length (n-k) + k*t is within MAX_BOARD is additionally recomputed
    from the board enumeration, and the two counts must agree.
    """
    check_int("rows", rows, 1)
    if kind is TriangleKind.BOARD:
        if rows - 1 > MAX_BOARD:
            raise ValueError(f"board of {rows - 1} cells exceeds the enumeration limit {MAX_BOARD}")
        table = [list(_board_comb_counts(spec, n)) for n in range(rows)]
        return Triangle(spec, kind, table)

    if rows - 1 > MAX_TILES:
        raise ValueError(f"{rows - 1} tiles exceeds the enumeration limit {MAX_TILES}")
    table = [_histogram(_tile_masks(spec, n), n + 1) for n in range(rows)]
    for n in range(rows):
        for k in range(n + 1):
            board = n + (spec.t - 1) * k
            if board <= MAX_BOARD:
                via_board = _board_comb_counts(spec, board)[k]
                if via_board != table[n][k]:
                    raise RuntimeError(
                        f"enumeration routes disagree at ({n},{k}): "
                        f"{table[n][k]} by tiles vs {via_board} by board"
                    )
    return Triangle(spec, kind, table)


class RestrictedSubset(Frozen):
    """A subset of {1..n} in which no two members differ by m, 2m, ..., (t-1)m."""

    __slots__ = _fields = ("spec", "n", "members")

    def __init__(self, spec: CombSpec, n: int, members: tuple[int, ...]) -> None:
        check_int("n", n, 0)
        self._set(spec, n, members)
        prev = 0
        for v in self.members:
            if v <= prev:
                raise ValueError("members must be strictly increasing")
            prev = v
        if self.members and not 1 <= self.members[0] <= self.members[-1] <= self.n:
            raise ValueError(f"members must lie in 1..{self.n}")
        # each member's banned offsets against one mask of all members, so the
        # pair named is the first in (a, b) order
        ban = _comb_mask(self.spec, self.n) ^ 1  # offsets m, 2m, ..., (t-1)m up to n
        mask = 0
        for v in self.members:
            mask |= 1 << v
        for a in self.members:
            clash = mask & ban << a
            if clash:
                b = (clash & -clash).bit_length() - 1
                raise ValueError(f"members {a} and {b} differ by a banned amount")

    @property
    def k(self) -> int:
        return len(self.members)


def _subset_masks(spec: CombSpec, n: int, most: int | None) -> Iterator[int]:
    """Member masks of the restricted subsets of {1..n}, lexicographic.

    Only subsets of at most ``most`` members are searched (all when None).
    A stack entry is a subset already yielded with the candidates it may
    still take. Taking the lowest candidate v yields the child and drops
    v + m, ..., v + (t-1)m, those up to n, from the child's candidates: a
    running banned mask in place of a test of every pair. v's later
    siblings stay below it on the stack.
    """
    check_int("n", n, 0)
    if n > MAX_UNIVERSE:
        raise ValueError(f"universe {n} exceeds the enumeration limit {MAX_UNIVERSE}")
    if most is not None:
        check_int("k", most, 0)
    ban = _comb_mask(spec, n) ^ 1  # offsets m, 2m, ..., (t-1)m up to n
    yield 0
    stack = [(0, (2 << n) - 2, n if most is None else most)]  # (members, candidates, room)
    pop, push = stack.pop, stack.append
    while stack:
        members, free, room = pop()
        if not free or not room:
            continue
        v = free & -free
        free ^= v
        push((members, free, room))
        members |= v
        yield members
        push((members, free & ~(ban * v), room - 1))


def subset_size_counts(spec: CombSpec, n: int, k: int | None = None) -> list[int]:
    """Entry j counts the restricted subsets of {1..n} with j members, j = 0..n.

    One search over member masks, with no subset built. With k given the
    search stops at k members, so the entries past k read 0. The checks and
    limit are those of :func:`enumerate_restricted_subsets`; a refused n sizes no table.
    """
    return _histogram(_subset_masks(spec, n, k), MAX_UNIVERSE + 1)[: n + 1]


def iter_restricted_subsets(
    spec: CombSpec, n: int, k: int | None = None
) -> Iterator[RestrictedSubset]:
    """The restricted subsets of {1..n} one at a time, in lexicographic order.

    With k given, only subsets of that size are produced. A request past the
    universe cap, or with k < 0, raises before the first subset.
    """
    for mask in _subset_masks(spec, n, k):
        if k is None or mask.bit_count() == k:
            yield RestrictedSubset(spec, n, tuple(_bits(mask)))


def enumerate_restricted_subsets(
    spec: CombSpec, n: int, k: int | None = None
) -> list[RestrictedSubset]:
    """All restricted subsets of {1..n}, in lexicographic member order.

    With k given, only subsets of that size are produced.
    """
    return list(iter_restricted_subsets(spec, n, k))


def subset_to_tiling(subset: RestrictedSubset) -> Tiling:
    """Map a restricted subset of {1..n} to a tiling of an (n + (t-1)m)-board.

    Each member i becomes a comb with leftmost tooth at cell i; the rest of
    the board is filled with squares. The banned differences are exactly the
    comb overlaps, and a subset is validated when it is built, so the
    construction never overlaps.
    """
    spec = subset.spec
    anchors = sum(1 << a for a in subset.members)
    return _tiling(spec, subset.n + (spec.t - 1) * spec.m, anchors)


def tiling_to_subset(tiling: Tiling) -> RestrictedSubset:
    """Inverse of :func:`subset_to_tiling`: read off the leftmost teeth."""
    spec = tiling.spec
    n = tiling.board_len - (spec.t - 1) * spec.m
    if n < 0:
        raise ValueError("board too short to carry a subset universe")
    members = tuple(a for kind, a in tiling.placements if kind == COMB)
    return RestrictedSubset(spec, n, members)


def split_board(tiling: Tiling) -> tuple[Tiling, ...]:
    """Split a tiling by residue class mod m into m square/t-omino tilings.

    Cells c, c+m, c+2m, ... of the original board become the cells of one
    sub-board, so a comb (whose teeth all share a residue) turns into a
    t-omino. For a board of length m*j + r the result is r sub-boards of
    length j+1 followed by m-r of length j.
    """
    spec = tiling.spec
    m = spec.m
    sub_spec = CombSpec(1, spec.t)
    j, r = divmod(tiling.board_len, m)
    anchors = [0] * m  # bit p of anchors[c] is cell (p-1)m + c + 1
    for kind, anchor in tiling.placements:
        if kind == COMB:
            q, c = divmod(anchor - 1, m)
            anchors[c] |= 2 << q
    return tuple(_tiling(sub_spec, j + (c < r), anchors[c]) for c in range(m))


def join_boards(spec: CombSpec, parts: tuple[Tiling, ...] | list[Tiling]) -> Tiling:
    """Inverse of :func:`split_board`: interleave m sub-boards back together."""
    m = spec.m
    if len(parts) != m:
        raise ValueError(f"need exactly {m} sub-boards, got {len(parts)}")
    sub_spec = CombSpec(1, spec.t)
    for part in parts:
        if part.spec != sub_spec:
            raise ValueError("sub-boards must be square/t-omino tilings")
    lengths = [part.board_len for part in parts]
    j = lengths[-1]
    r = sum(1 for ln in lengths if ln == j + 1)
    if r == m:  # all one length longer: same as r=0 with j+1
        j, r = j + 1, 0
    if lengths != [j + 1] * r + [j] * (m - r):
        raise ValueError(f"sub-board lengths {lengths} do not form a split pattern")
    anchors = 0
    for c, part in enumerate(parts):
        for kind, pos in part.placements:
            if kind == COMB:
                anchors |= 1 << (pos - 1) * m + c + 1
    return _tiling(spec, m * j + r, anchors)
