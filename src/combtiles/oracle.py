"""Brute-force ground truth by exhaustive enumeration.

Everything here works by explicitly constructing objects (tilings,
restricted subsets) one at a time, so it is exponential and guarded by
size limits, but it is the reference the faster engines are judged
against. The two bijection witnesses (subsets to tilings, board splitting
by residue class) live here too.
"""

from __future__ import annotations

import functools

from .core import (
    CombSpec,
    Frozen,
    Triangle,
    TriangleKind,
    comb_cells,
)

SQUARE = "S"
COMB = "C"

DEFAULT_MAX_BOARD = 26
DEFAULT_MAX_TILES = 22
DEFAULT_MAX_UNIVERSE = 24


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
        self._set(spec, board_len, placements)
        if self.board_len < 0:
            raise ValueError("board_len must be >= 0")
        covered: set[int] = set()
        prev_anchor = 0
        for kind, anchor in self.placements:
            if anchor <= prev_anchor:
                raise ValueError("placements must be in ascending anchor order")
            prev_anchor = anchor
            if kind == SQUARE:
                cells = {anchor}
            elif kind == COMB:
                cells = set(comb_cells(self.spec, anchor))
            else:
                raise ValueError(f"unknown tile kind {kind!r}")
            if covered & cells:
                raise ValueError(f"tile at {anchor} overlaps occupied cells")
            covered |= cells
        if covered != set(range(1, self.board_len + 1)):
            raise ValueError("tiles do not cover the board exactly")

    @property
    def n_tiles(self) -> int:
        return len(self.placements)

    @property
    def n_combs(self) -> int:
        return sum(1 for kind, _ in self.placements if kind == COMB)


def enumerate_tilings(
    spec: CombSpec, board_len: int, *, max_board: int = DEFAULT_MAX_BOARD
) -> list[Tiling]:
    """All tilings of a board of the given length, each exactly once.

    Generation fills the leftmost empty cell with a square or with a comb
    anchored there (square branch first), so the output order is canonical
    and no tiling is produced twice. The empty board yields the empty tiling.
    """
    if board_len < 0:
        raise ValueError("board_len must be >= 0")
    if board_len > max_board:
        raise ValueError(
            f"board_len {board_len} exceeds the enumeration limit {max_board}"
        )
    m, t = spec.m, spec.t
    occ = bytearray(board_len + 1)  # 1-based
    placements: list[tuple[str, int]] = []
    out: list[Tiling] = []

    def rec(scan: int) -> None:
        p = scan
        while p <= board_len and occ[p]:
            p += 1
        if p > board_len:
            out.append(Tiling(spec, board_len, tuple(placements)))
            return
        occ[p] = 1
        placements.append((SQUARE, p))
        rec(p + 1)
        placements.pop()
        occ[p] = 0
        teeth = [p + i * m for i in range(t)]
        if teeth[-1] <= board_len and not any(occ[c] for c in teeth):
            for c in teeth:
                occ[c] = 1
            placements.append((COMB, p))
            rec(p + 1)
            placements.pop()
            for c in teeth:
                occ[c] = 0

    rec(1)
    return out


def enumerate_tile_tilings(
    spec: CombSpec, n_tiles: int, *, max_tiles: int = DEFAULT_MAX_TILES
) -> list[Tiling]:
    """All gapless tilings (of any board length) that use exactly n_tiles tiles.

    The tile multiset determines the board length, so the search is bounded
    by tile count: the leftmost empty cell is filled with a square or a comb
    until n_tiles tiles are down, and the result is kept when no gap remains.
    """
    if n_tiles < 0:
        raise ValueError("n_tiles must be >= 0")
    if n_tiles > max_tiles:
        raise ValueError(f"n_tiles {n_tiles} exceeds the enumeration limit {max_tiles}")
    m, t = spec.m, spec.t
    occupied: set[int] = set()
    placements: list[tuple[str, int]] = []
    out: list[Tiling] = []

    def next_empty(after: int) -> int:
        p = after
        while p in occupied:
            p += 1
        return p

    def rec(frontier: int, last: int, used: int) -> None:
        if used == n_tiles:
            if frontier == last + 1:
                out.append(Tiling(spec, last, tuple(placements)))
            return
        occupied.add(frontier)
        placements.append((SQUARE, frontier))
        rec(next_empty(frontier + 1), max(last, frontier), used + 1)
        placements.pop()
        occupied.remove(frontier)
        teeth = [frontier + i * m for i in range(t)]
        if not any(c in occupied for c in teeth):
            occupied.update(teeth)
            placements.append((COMB, frontier))
            rec(next_empty(frontier + 1), max(last, teeth[-1]), used + 1)
            placements.pop()
            occupied.difference_update(teeth)

    rec(1, 0, 0)
    return out


# holds every (spec, board) the full identity profile enumerates (248 keys)
@functools.lru_cache(maxsize=512)
def _board_comb_counts(spec: CombSpec, board_len: int) -> tuple[int, ...]:
    # counts by comb count k = 0..board_len; caller is responsible for limits
    counts = [0] * (board_len + 1)
    for tl in enumerate_tilings(spec, board_len, max_board=board_len):
        counts[tl.n_combs] += 1
    return tuple(counts)


def build_triangle(
    spec: CombSpec,
    kind: TriangleKind,
    rows: int,
    *,
    max_board: int = DEFAULT_MAX_BOARD,
    max_tiles: int = DEFAULT_MAX_TILES,
) -> Triangle:
    """Triangle of tiling counts, row by row, from raw enumeration.

    Board-indexed rows come from enumerating each board length. Tile-indexed
    rows come from the bounded tile-count search; every entry whose implied
    board length (n-k) + k*t is within max_board is additionally recomputed
    from the board enumeration, and the two counts must agree.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if kind is TriangleKind.BOARD:
        if rows - 1 > max_board:
            raise ValueError(f"{rows} rows exceeds the board limit {max_board}")
        table = []
        for n in range(rows):
            counts = _board_comb_counts(spec, n)
            table.append([counts[k] if k < len(counts) else 0 for k in range(n + 1)])
        return Triangle.from_rows(spec, kind, table)

    if rows - 1 > max_tiles:
        raise ValueError(f"{rows} rows exceeds the tile limit {max_tiles}")
    table = []
    for n in range(rows):
        counts = [0] * (n + 1)
        for tl in enumerate_tile_tilings(spec, n, max_tiles=max_tiles):
            counts[tl.n_combs] += 1
        table.append(counts)
    for n in range(rows):
        for k in range(n + 1):
            board = n + (spec.t - 1) * k
            if board <= max_board:
                via_board = _board_comb_counts(spec, board)[k]
                if via_board != table[n][k]:
                    raise RuntimeError(
                        f"enumeration routes disagree at ({n},{k}): "
                        f"{table[n][k]} by tiles vs {via_board} by board"
                    )
    return Triangle.from_rows(spec, kind, table)


class RestrictedSubset(Frozen):
    """A subset of {1..n} in which no two members differ by m, 2m, ..., (t-1)m."""

    __slots__ = _fields = ("spec", "n", "members")

    def __init__(self, spec: CombSpec, n: int, members: tuple[int, ...]) -> None:
        self._set(spec, n, members)
        if self.n < 0:
            raise ValueError("universe size must be >= 0")
        banned = {q * self.spec.m for q in range(1, self.spec.t)}
        prev = 0
        for v in self.members:
            if v <= prev:
                raise ValueError("members must be strictly increasing")
            prev = v
        if self.members and not 1 <= self.members[0] <= self.members[-1] <= self.n:
            raise ValueError(f"members must lie in 1..{self.n}")
        for i, a in enumerate(self.members):
            for b in self.members[i + 1 :]:
                if b - a in banned:
                    raise ValueError(f"members {a} and {b} differ by a banned amount")

    @property
    def k(self) -> int:
        return len(self.members)


def enumerate_restricted_subsets(
    spec: CombSpec,
    n: int,
    k: int | None = None,
    *,
    max_universe: int = DEFAULT_MAX_UNIVERSE,
) -> list[RestrictedSubset]:
    """All restricted subsets of {1..n}, in lexicographic member order.

    With k given, only subsets of that size are produced.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > max_universe:
        raise ValueError(f"universe {n} exceeds the enumeration limit {max_universe}")
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    banned = {q * spec.m for q in range(1, spec.t)}
    chosen: list[int] = []
    out: list[RestrictedSubset] = []

    def rec(start: int) -> None:
        if k is None:
            out.append(RestrictedSubset(spec, n, tuple(chosen)))
        elif len(chosen) == k:
            out.append(RestrictedSubset(spec, n, tuple(chosen)))
            return
        for v in range(start, n + 1):
            if any(v - c in banned for c in chosen):
                continue
            chosen.append(v)
            rec(v + 1)
            chosen.pop()

    rec(1)
    return out


def subset_to_tiling(subset: RestrictedSubset) -> Tiling:
    """Map a restricted subset of {1..n} to a tiling of an (n + (t-1)m)-board.

    Each member i becomes a comb with leftmost tooth at cell i; the rest of
    the board is filled with squares. The difference restriction is exactly
    what makes the combs avoid each other, so the construction never overlaps.
    """
    spec = subset.spec
    board = subset.n + (spec.t - 1) * spec.m
    covered: set[int] = set()
    for a in subset.members:
        cells = comb_cells(spec, a)
        if covered & cells:
            raise ValueError(f"comb at {a} overlaps another comb (invalid subset)")
        covered |= cells
    placements = [(COMB, a) for a in subset.members]
    placements += [(SQUARE, c) for c in range(1, board + 1) if c not in covered]
    placements.sort(key=lambda pl: pl[1])
    return Tiling(spec, board, tuple(placements))


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
    lengths = [j + 1 if c <= r else j for c in range(1, m + 1)]
    parts: list[list[tuple[str, int]]] = [[] for _ in range(m)]
    for kind, anchor in tiling.placements:
        cls = (anchor - 1) % m
        pos = (anchor - 1) // m + 1
        parts[cls].append((kind, pos))
    subs = []
    for c in range(m):
        parts[c].sort(key=lambda pl: pl[1])
        subs.append(Tiling(sub_spec, lengths[c], tuple(parts[c])))
    return tuple(subs)


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
    placements = []
    for c, part in enumerate(parts):
        for kind, pos in part.placements:
            placements.append((kind, (pos - 1) * m + c + 1))
    placements.sort(key=lambda pl: pl[1])
    return Tiling(spec, m * j + r, tuple(placements))
