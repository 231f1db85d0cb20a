from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtiles.core import CombSpec, TriangleKind, board_to_tile_index
from combtiles.oracle import (
    COMB,
    SQUARE,
    RestrictedSubset,
    Tiling,
    _board_comb_counts,
    _board_masks,
    _histogram,
    _tile_masks,
    build_triangle,
    enumerate_restricted_subsets,
    enumerate_tile_tilings,
    enumerate_tilings,
    join_boards,
    split_board,
    subset_size_counts,
    subset_to_tiling,
    tiling_to_subset,
)

from golden import CELL_SUMS, TILE_SUMS, TRIANGLES

small_specs = st.builds(
    CombSpec, m=st.integers(min_value=1, max_value=4), t=st.integers(min_value=2, max_value=5)
)

GRID = [CombSpec(m, t) for m in range(1, 7) for t in range(2, 7)]


# The enumerators as they were before they searched over int masks, kept as
# references: they return (board length, placements) and member tuples in
# their own generation order, and build no object.


def _occupancy_board_tilings(spec, board_len):
    m, t = spec.m, spec.t
    occ = bytearray(board_len + 1)  # 1-based
    placements: list[tuple[str, int]] = []
    out = []

    def rec(scan: int) -> None:
        p = scan
        while p <= board_len and occ[p]:
            p += 1
        if p > board_len:
            out.append((board_len, tuple(placements)))
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


def _occupancy_tile_tilings(spec, n_tiles):
    m, t = spec.m, spec.t
    occupied: set[int] = set()
    placements: list[tuple[str, int]] = []
    out = []

    def next_empty(after: int) -> int:
        p = after
        while p in occupied:
            p += 1
        return p

    def rec(frontier: int, last: int, used: int) -> None:
        if used == n_tiles:
            if frontier == last + 1:
                out.append((last, tuple(placements)))
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


def _pairwise_subsets(spec, n, k=None):
    banned = {q * spec.m for q in range(1, spec.t)}
    chosen: list[int] = []
    out = []

    def rec(start: int) -> None:
        if k is None:
            out.append(tuple(chosen))
        elif len(chosen) == k:
            out.append(tuple(chosen))
            return
        for v in range(start, n + 1):
            if any(v - c in banned for c in chosen):
                continue
            chosen.append(v)
            rec(v + 1)
            chosen.pop()

    rec(1)
    return out


def test_tiling_validation():
    spec = CombSpec(2, 3)
    # comb at 1 covers {1,3,5}; square at 3 collides
    with pytest.raises(ValueError, match="overlaps"):
        Tiling(spec, 5, ((COMB, 1), (SQUARE, 3), (SQUARE, 4)))
    # comb at 2 would need cell 6 on a 5-board
    with pytest.raises(ValueError, match="cover"):
        Tiling(spec, 5, ((SQUARE, 1), (COMB, 2), (SQUARE, 3), (SQUARE, 5)))
    with pytest.raises(ValueError, match="ascending"):
        Tiling(spec, 2, ((SQUARE, 2), (SQUARE, 1)))
    # a tile past the board still reports a later collision with it
    with pytest.raises(ValueError, match="tile at 6 overlaps"):
        Tiling(spec, 5, ((COMB, 4), (SQUARE, 6)))
    huge = 10**18
    with pytest.raises(ValueError, match=f"tile at {huge + 2} overlaps"):
        Tiling(spec, 5, ((COMB, 1), (COMB, huge), (SQUARE, huge + 2)))
    with pytest.raises(ValueError, match="cover"):
        Tiling(spec, 5, ((SQUARE, 1), (SQUARE, huge), (COMB, 2 * huge)))
    ok = Tiling(spec, 5, ((COMB, 1), (SQUARE, 2), (SQUARE, 4)))
    assert ok.n_tiles == 3 and ok.n_combs == 1


def _set_tiling_error(spec, board_len, placements):
    # Tiling's checks as they were over sets of cells, in the same order
    covered: set[int] = set()
    prev = 0
    for kind, anchor in placements:
        if anchor <= prev:
            return "placements must be in ascending anchor order"
        prev = anchor
        cells = {anchor + i * spec.m for i in range(spec.t if kind == COMB else 1)}
        if covered & cells:
            return f"tile at {anchor} overlaps occupied cells"
        covered |= cells
    if covered != set(range(1, board_len + 1)):
        return "tiles do not cover the board exactly"
    return None


def test_tiling_errors_match_set_checks():
    # every list of up to three tiles anchored at 0..7, on boards short enough
    # that some tiles land past the end
    tiles = [(kind, a) for a in range(8) for kind in (SQUARE, COMB)]
    lists = [()] + [(x,) for x in tiles]
    lists += [(x, y) for x in tiles for y in tiles]
    lists += [(x, y, z) for x in tiles for y in tiles for z in tiles]
    for spec in (CombSpec(1, 2), CombSpec(2, 3)):
        for board_len in (0, 5):
            for placements in lists:
                try:
                    Tiling(spec, board_len, placements)
                    got = None
                except ValueError as exc:
                    got = str(exc)
                assert got == _set_tiling_error(spec, board_len, placements), (
                    spec,
                    board_len,
                    placements,
                )


def test_board_counts_match_published_sums():
    for (m, t), sums in CELL_SUMS.items():
        spec = CombSpec(m, t)
        for n, expected in enumerate(sums):
            assert len(enumerate_tilings(spec, n)) == expected, (m, t, n)


def test_tilings_are_distinct_and_canonically_ordered():
    spec = CombSpec(2, 3)
    tilings = enumerate_tilings(spec, 9)
    assert len(set(tilings)) == len(tilings)
    keys = [tl.placements for tl in tilings]
    # leftmost-cell generation with the square branch first is lexicographic
    # in (anchor, kind) with S before C
    order = {SQUARE: 0, COMB: 1}
    mapped = [tuple((a, order[k]) for k, a in pl) for pl in keys]
    assert mapped == sorted(mapped)


def _by_size(sizes, size):
    counts = [0] * size
    for j in sizes:
        counts[j] += 1
    return counts


# On boards <= 14, tile counts <= 9 and universes <= 14 for every m, t <= 6, each
# listing must equal the reference enumerator placement for placement and in
# order, and the leaf counts of the mask search, which build no object, must equal
# the counts of the listing's validated objects.


def test_board_search_on_the_grid():
    for spec in GRID:
        for board_len in range(15):
            tilings = enumerate_tilings(spec, board_len)
            got = [(tl.board_len, tl.placements) for tl in tilings]
            assert got == _occupancy_board_tilings(spec, board_len), (spec, board_len)
            assert _histogram(_board_masks(spec, board_len), board_len + 1) == _by_size(
                [tl.n_combs for tl in tilings], board_len + 1
            ), (spec, board_len)


def test_tile_search_on_the_grid():
    for spec in GRID:
        for n in range(10):
            tilings = enumerate_tile_tilings(spec, n)
            got = [(tl.board_len, tl.placements) for tl in tilings]
            assert got == _occupancy_tile_tilings(spec, n), (spec, n)
            assert all(tl.n_tiles == n for tl in tilings)
            assert _histogram(_tile_masks(spec, n), n + 1) == _by_size(
                [tl.n_combs for tl in tilings], n + 1
            ), (spec, n)


def test_subset_search_on_the_grid():
    for spec in GRID:
        for n in range(15):
            subsets = enumerate_restricted_subsets(spec, n)
            members = [sub.members for sub in subsets]
            assert members == _pairwise_subsets(spec, n), (spec, n)
            assert subset_size_counts(spec, n) == _by_size([sub.k for sub in subsets], n + 1)
            if n == 12:
                for k in range(5):
                    got = [sub.members for sub in enumerate_restricted_subsets(spec, n, k)]
                    assert got == _pairwise_subsets(spec, n, k), (spec, k)
        for n, k in ((0, 0), (5, 0), (9, 2), (12, 4), (6, 6), (4, 7)):
            counts = subset_size_counts(spec, n, k)
            assert counts[k + 1 :] == [0] * (n - k)
            assert sum(counts[k : k + 1]) == len(_pairwise_subsets(spec, n, k)), (spec, n, k)


def test_subset_sizes_count_combs_on_the_padded_board():
    # the paper's bijection: k-subsets of {1..n} <-> tilings of an
    # (n + (t-1)m)-board with k combs
    for spec in GRID:
        pad = (spec.t - 1) * spec.m
        for n in range(13):
            combs = _board_comb_counts(spec, n + pad)
            assert subset_size_counts(spec, n) == list(combs[: n + 1]), (spec, n)
            assert not any(combs[n + 1 :]), (spec, n)


def test_tile_indexed_enumeration_matches_board_route():
    for m, t in [(2, 3), (2, 4), (3, 3), (3, 2)]:
        spec = CombSpec(m, t)
        for n in range(9):
            by_tiles: dict[int, int] = {}
            for tl in enumerate_tile_tilings(spec, n):
                by_tiles[tl.n_combs] = by_tiles.get(tl.n_combs, 0) + 1
            for k in range(n + 1):
                board = n + (t - 1) * k
                if board > 20:
                    continue
                by_board = sum(
                    1 for tl in enumerate_tilings(spec, board) if tl.n_combs == k
                )
                assert by_tiles.get(k, 0) == by_board, (m, t, n, k)


def test_build_triangle_tile_matches_golden():
    for (m, t), rows in TRIANGLES.items():
        tri = build_triangle(CombSpec(m, t), TriangleKind.TILE, 9)
        for n in range(9):
            assert list(tri.rows[n]) == rows[n], (m, t, n)


def test_build_triangle_board_matches_reindexed_golden():
    for (m, t), rows in TRIANGLES.items():
        spec = CombSpec(m, t)
        tri = build_triangle(spec, TriangleKind.BOARD, 14)
        for n in range(14):
            for k in range(n + 1):
                tn, tk = board_to_tile_index(spec, n, k)
                expected = 0
                if 0 <= tk <= tn < len(rows):
                    expected = rows[tn][tk]
                assert tri.entry(n, k) == expected, (m, t, n, k)


def test_row_sums_match_published_tile_sums():
    for (m, t), sums in TILE_SUMS.items():
        tri = build_triangle(CombSpec(m, t), TriangleKind.TILE, len(sums))
        assert list(tri.row_sums()) == sums, (m, t)


def test_enumeration_limits_are_enforced():
    spec = CombSpec(2, 3)
    with pytest.raises(ValueError, match="limit"):
        enumerate_tilings(spec, 27)
    with pytest.raises(ValueError, match="limit"):
        enumerate_tile_tilings(spec, 23)
    with pytest.raises(ValueError, match="limit"):
        enumerate_restricted_subsets(spec, 25)
    with pytest.raises(ValueError, match="limit"):
        build_triangle(spec, TriangleKind.BOARD, 28)
    with pytest.raises(ValueError, match="limit"):
        build_triangle(spec, TriangleKind.TILE, 24)
    with pytest.raises(TypeError):  # the caps are constants, not arguments
        enumerate_tilings(spec, 27, max_board=27)


def test_route_disagreement_is_an_error(monkeypatch):
    import combtiles.oracle as oracle

    def corrupt(spec, board_len):
        counts = [0] * (board_len + 1)
        for tl in enumerate_tilings(spec, board_len):
            counts[tl.n_combs] += 1
        if board_len == 5:
            counts[1] += 1
        return tuple(counts)

    monkeypatch.setattr(oracle, "_board_comb_counts", corrupt)
    with pytest.raises(RuntimeError, match="disagree at \\(3,1\\)"):
        build_triangle(CombSpec(2, 3), TriangleKind.TILE, 6)


def test_restricted_subset_validation():
    spec = CombSpec(2, 3)
    RestrictedSubset(spec, 7, (1, 2, 7))  # differences 1, 5, 6: allowed
    with pytest.raises(ValueError, match="banned"):
        RestrictedSubset(spec, 6, (1, 3))  # differ by m = 2
    with pytest.raises(ValueError, match="banned"):
        RestrictedSubset(spec, 6, (1, 5))  # differ by 2m = 4
    with pytest.raises(ValueError, match="increasing"):
        RestrictedSubset(spec, 6, (3, 1))
    with pytest.raises(ValueError, match="lie in"):
        RestrictedSubset(spec, 6, (1, 7))


def test_subset_enumeration_matches_brute_force():
    for m in range(1, 4):
        for t in range(2, 5):
            spec = CombSpec(m, t)
            banned = {q * m for q in range(1, t)}
            for n in range(9):
                got = enumerate_restricted_subsets(spec, n)
                expected = [
                    c
                    for size in range(n + 1)
                    for c in combinations(range(1, n + 1), size)
                    if not any(b - a in banned for a, b in combinations(c, 2))
                ]
                assert sorted(s.members for s in got) == sorted(expected), (m, t, n)
                for k in range(n + 1):
                    got_k = enumerate_restricted_subsets(spec, n, k)
                    assert all(s.k == k for s in got_k)
                    assert len(got_k) == sum(1 for c in expected if len(c) == k)


def test_subsets_in_lexicographic_order():
    spec = CombSpec(2, 3)
    subs = enumerate_restricted_subsets(spec, 6, 2)
    assert [s.members for s in subs] == [
        (1, 2), (1, 4), (1, 6), (2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (5, 6),
    ]


def test_subset_tiling_bijection_example():
    spec = CombSpec(2, 3)
    sub = RestrictedSubset(spec, 5, (1, 4))
    tl = subset_to_tiling(sub)
    assert tl.board_len == 9
    assert tl.placements == ((COMB, 1), (SQUARE, 2), (COMB, 4), (SQUARE, 7), (SQUARE, 9))
    assert tiling_to_subset(tl) == sub


@settings(max_examples=40, deadline=None)
@given(small_specs, st.integers(min_value=0, max_value=10))
def test_subset_tiling_roundtrip(spec, n):
    for sub in enumerate_restricted_subsets(spec, n):
        tl = subset_to_tiling(sub)
        assert tl.board_len == n + (spec.t - 1) * spec.m
        assert tiling_to_subset(tl) == sub


def test_split_board_example():
    spec = CombSpec(2, 3)
    tl = Tiling(spec, 9, ((COMB, 1), (SQUARE, 2), (COMB, 4), (SQUARE, 7), (SQUARE, 9)))
    parts = split_board(tl)
    assert [p.board_len for p in parts] == [5, 4]
    assert parts[0].spec == CombSpec(1, 3)
    assert join_boards(spec, parts) == tl


@settings(max_examples=40, deadline=None)
@given(small_specs, st.integers(min_value=0, max_value=10))
def test_split_join_roundtrip(spec, board_len):
    for tl in enumerate_tilings(spec, board_len):
        parts = split_board(tl)
        assert len(parts) == spec.m
        j, r = divmod(board_len, spec.m)
        assert [p.board_len for p in parts] == [j + 1] * r + [j] * (spec.m - r)
        assert sum(p.n_combs for p in parts) == tl.n_combs
        assert join_boards(spec, parts) == tl


def test_join_boards_rejects_bad_input():
    spec = CombSpec(2, 3)
    sub_spec = CombSpec(1, 3)
    with pytest.raises(ValueError, match="exactly 2"):
        join_boards(spec, (Tiling(sub_spec, 1, ((SQUARE, 1),)),))
    with pytest.raises(ValueError, match="split pattern"):
        join_boards(
            spec,
            (
                Tiling(sub_spec, 3, ((SQUARE, 1), (SQUARE, 2), (SQUARE, 3))),
                Tiling(sub_spec, 1, ((SQUARE, 1),)),
            ),
        )
    with pytest.raises(ValueError, match="t-omino"):
        join_boards(
            spec,
            (
                Tiling(CombSpec(1, 2), 2, ((SQUARE, 1), (SQUARE, 2))),
                Tiling(CombSpec(1, 2), 2, ((SQUARE, 1), (SQUARE, 2))),
            ),
        )
