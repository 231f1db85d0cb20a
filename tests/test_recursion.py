from __future__ import annotations

import contextlib
import json
import sys
import tracemalloc
from math import comb

import pytest

from combtiles import engines, recursion
from combtiles.core import CombSpec, TriangleKind
from combtiles.digraph import CycleStructure, UnsupportedStructureError, analyze_structure, build_digraph
from combtiles.recursion import (
    Metric,
    RecursionRelation,
    evaluate,
    project_row_sum,
    synthesize,
    walk_count,
    walk_sums,
)

from golden import (
    CELL_SUM_RELATIONS,
    CELL_SUMS,
    ENTRY_RELATIONS,
    STRUCTURE_DIGESTS,
    TILE_SUM_RELATIONS,
    TILE_SUMS,
    TRIANGLES,
)
from test_engines_agree import WIDER, explicit, explicit_test


# the 11 families with m, t <= 6 whose cycle structure classifies
CLASSIFIED = sorted(STRUCTURE_DIGESTS)


def structure(m: int, t: int):
    return analyze_structure(build_digraph(CombSpec(m, t)))


def entry_dicts(rel: RecursionRelation) -> tuple[dict, dict]:
    return (
        {(n, k): c for n, k, c in rel.delta_terms},
        {(n, k): c for n, k, c in rel.shift_terms},
    )


def sum_dicts(rel: RecursionRelation) -> tuple[dict, dict]:
    return (
        {n: c for n, _, c in rel.delta_terms},
        {n: c for n, _, c in rel.shift_terms},
    )


def test_relation_validation():
    spec = CombSpec(2, 3)
    with pytest.raises(ValueError):
        RecursionRelation(spec, Metric.TILES, True, ((0, 0, 1),), ((0, 0, 1),))
    with pytest.raises(ValueError):
        RecursionRelation(spec, Metric.TILES, True, ((0, 0, 0),), ())
    with pytest.raises(ValueError):
        RecursionRelation(spec, Metric.TILES, True, ((0, None, 1),), ())
    with pytest.raises(ValueError):
        RecursionRelation(spec, Metric.TILES, False, ((0, None, 1),), ((1, 0, 1),))
    with pytest.raises(ValueError):
        RecursionRelation(spec, Metric.TILES, True, (), ((1, -1, 1),))
    # a tracked k may not reach past its row: dk <= dn and k0 <= n0
    with pytest.raises(ValueError):
        RecursionRelation(spec, Metric.TILES, True, ((0, 0, 1),), ((1, 2, 1),))
    with pytest.raises(ValueError):
        RecursionRelation(spec, Metric.TILES, True, ((0, 1, 1),), ())
    # every synthesized relation, tracks-k or projected, meets both conditions
    for m, t in CLASSIFIED:
        for metric in Metric:
            project_row_sum(synthesize(structure(m, t), metric))


def test_synthesized_entry_relations_match_published():
    for (m, t), expected in ENTRY_RELATIONS.items():
        rel = synthesize(structure(m, t), Metric.TILES)
        assert rel.tracks_k and rel.metric is Metric.TILES
        deltas, shifts = entry_dicts(rel)
        assert deltas == expected[0], (m, t)
        assert shifts == expected[1], (m, t)


def test_synthesized_tile_sum_relations_match_published():
    for (m, t), expected in TILE_SUM_RELATIONS.items():
        rel = project_row_sum(synthesize(structure(m, t), Metric.TILES))
        assert sum_dicts(rel) == expected, (m, t)


def test_synthesized_cell_sum_relations_match_published():
    for (m, t), expected in CELL_SUM_RELATIONS.items():
        rel = project_row_sum(synthesize(structure(m, t), Metric.CELLS))
        assert sum_dicts(rel) == expected, (m, t)


def test_projection_agrees_with_direct_sum_synthesis():
    with pytest.raises(ValueError):
        project_row_sum(project_row_sum(synthesize(structure(2, 3), Metric.TILES)))


def test_degenerate_synthesis_is_pascal_for_m1():
    rel = synthesize(structure(1, 3), Metric.TILES)
    assert entry_dicts(rel) == ({(0, 0): 1}, {(1, 0): 1, (1, 1): 1})
    tri = evaluate(rel, 10)
    for n in range(11):
        for k in range(n + 1):
            assert tri.entry(n, k) == comb(n, k)


def test_degenerate_synthesis_2_2():
    rel = synthesize(structure(2, 2), Metric.TILES)
    assert entry_dicts(rel) == ({(0, 0): 1}, {(1, 0): 1, (2, 1): 1, (2, 2): 1})
    assert evaluate(rel, 12) == walk_count(build_digraph(CombSpec(2, 2)), Metric.TILES, 12)


def test_render_strings():
    rel = synthesize(structure(2, 3), Metric.TILES)
    assert rel.render() == (
        "B(n,k) = δ(0,0) - δ(1,1) + B(n-1,k) + B(n-1,k-1) "
        "- B(n-2,k-1) + B(n-2,k-2) + B(n-3,k-1) - B(n-3,k-3)"
    )
    assert project_row_sum(rel).render() == "B(n) = δ(0) - δ(1) + 2B(n-1)"


def test_relation_json_roundtrips_terms():
    rel = project_row_sum(synthesize(structure(2, 5), Metric.CELLS))
    payload = json.loads(rel.to_json())
    assert payload["metric"] == "cells" and payload["tracks_k"] is False
    assert {tuple(term[:2]) + (term[2],) for term in payload["shift_terms"]} == set(
        rel.shift_terms
    )


def test_evaluate_entry_relations_reproduce_triangles():
    for m, t in [(2, 3), (2, 4), (2, 5)]:
        rel = synthesize(structure(m, t), Metric.TILES)
        tri = evaluate(rel, 13)
        assert tri.kind is TriangleKind.TILE
        assert [list(row) for row in tri.rows] == TRIANGLES[(m, t)], (m, t)


def test_evaluate_sum_relations_reproduce_prefixes():
    for (m, t), seq in TILE_SUMS.items():
        rel = project_row_sum(synthesize(structure(m, t), Metric.TILES))
        assert evaluate(rel, len(seq) - 1) == tuple(seq), (m, t)
    for (m, t), seq in CELL_SUMS.items():
        rel = project_row_sum(synthesize(structure(m, t), Metric.CELLS))
        assert evaluate(rel, len(seq) - 1) == tuple(seq), (m, t)


def test_walk_count_matches_golden():
    for (m, t), rows in TRIANGLES.items():
        tri = walk_count(build_digraph(CombSpec(m, t)), Metric.TILES, 13)
        assert [list(row) for row in tri.rows] == rows, (m, t)
    for (m, t), seq in TILE_SUMS.items():
        got = walk_sums(build_digraph(CombSpec(m, t)), Metric.TILES, len(seq) - 1)
        assert got == tuple(seq), (m, t)
    for (m, t), seq in CELL_SUMS.items():
        got = walk_sums(build_digraph(CombSpec(m, t)), Metric.CELLS, len(seq) - 1)
        assert got == tuple(seq), (m, t)


def test_walk_count_works_where_synthesis_refuses():
    # (3, 3) has no classifiable cycle structure but counting still works
    dg = build_digraph(CombSpec(3, 3))
    with pytest.raises(UnsupportedStructureError):
        analyze_structure(dg)
    tri = walk_count(dg, Metric.TILES, 13)
    assert [list(row) for row in tri.rows] == TRIANGLES[(3, 3)]


def test_walk_triangle_releases_its_packed_rows():
    # each packed row is dropped once it is read, so the traced peak is the
    # larger of the packed rows and the table, plus a little; holding both,
    # as one list of packed rows beside the table does, costs their sum
    dg, n_max = build_digraph(CombSpec(2, 3)), 399
    width = recursion._slot_width(dg.spec, Metric.TILES, n_max)
    packed = recursion._walks_home(dg, Metric.TILES, n_max, 8 * width)
    held = sys.getsizeof(packed) + sum(map(sys.getsizeof, packed))
    del packed
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tri = walk_count(dg, Metric.TILES, n_max)
        table, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(tri.rows) == n_max + 1
    assert peak <= max(held, table) + min(held, table) / 2, (held, table, peak)


def test_walk_count_sizes_cell_slots_by_weight(monkeypatch):
    # on cells a C-arc weighs t = 3 cells, so c_n = c_(n-1) + c_(n-3) bounds the
    # walks of weight n, far below the d^n = 2^n of a plain out-degree count
    shifts = []
    walks_home = recursion._walks_home

    def spy(dg, metric, n_max, shift):
        shifts.append(shift)
        return walks_home(dg, metric, n_max, shift)

    monkeypatch.setattr(recursion, "_walks_home", spy)
    spec = CombSpec(3, 3)
    walk = walk_count(build_digraph(spec), Metric.CELLS, 149)
    assert walk == engines.triangle(spec, TriangleKind.BOARD, 150, "poly")
    # entries reach 78 bits; d^149 would have asked for 152-bit slots
    assert max(max(row) for row in walk.rows).bit_length() == 78
    assert shifts == [88]


def test_cell_relations_at_the_last_word_sized_slots(monkeypatch):
    # evaluate sizes cell slots by walk_count's bound c_n = c_(n-1) + c_(n-t),
    # which first passes 64 bits at 119 rows for t = 3 and 94 rows for t = 2:
    # rows 118 and 93 fill 8-byte words, and the next rows take 9-byte slots
    widths = []
    slot_width = recursion._slot_width

    def spy(spec, metric, n_max):
        widths.append(slot_width(spec, metric, n_max))
        return widths[-1]

    monkeypatch.setattr(recursion, "_slot_width", spy)
    for (m, t), sizes in {(2, 3): (118, 119), (4, 2): (93, 94)}.items():
        spec = CombSpec(m, t)
        dg = build_digraph(spec)
        rel = synthesize(analyze_structure(dg), Metric.CELLS)
        for rows in sizes:
            tri = evaluate(rel, rows - 1)
            assert tri == walk_count(dg, Metric.CELLS, rows - 1), (m, t, rows)
            assert tri == engines.triangle(spec, TriangleKind.BOARD, rows, "poly"), (m, t, rows)
    assert widths == [8, 8, 9, 9] * 2


def test_errant_synthesis_hypothesis_checks():
    st_25 = structure(2, 5)
    through_errant = [c for c in st_25.inner_cycles + st_25.circuits if not st_25.plain(c)]
    assert [c.label for c in through_errant] == ["CSS", "CSSSS"]
    # the errant loop adds a factor 1/(1 - e) to every cycle through its
    # node, which cancels on inner cycles and circuits but not on an outer
    # cycle: add the non-plain circuit, through "0" and the errant node, as an outer cycle
    broken = CycleStructure(
        st_25.digraph, st_25.inner_cycles, st_25.outer_cycles + (through_errant[1],),
        st_25.circuits, st_25.anchor, st_25.errant,
    )
    with pytest.raises(UnsupportedStructureError, match="outer cycle"):
        synthesize(broken, Metric.TILES)


# the relations against walk and poly: explicit cases of the agreement harness
test_evaluate_4_2_matches_walk = explicit_test("relation_4_2")
test_evaluate_slots_at_byte_boundaries = explicit_test("byte_boundaries")
test_walk_matches_poly_around_the_widest_word = explicit_test("widest_word")


def test_recursion_matches_walk_on_the_wider_grid():
    # every family with m <= 8, t <= 12 and at most 5000 digraph nodes
    grid = [(m, t) for m in range(1, 9) for t in range(2, 13) if t ** (m - 1) <= 5000]
    classified = []
    for m, t in grid:
        with contextlib.suppress(UnsupportedStructureError):
            structure(m, t)
            classified.append((m, t))
    assert classified == WIDER
    explicit("wider_grid")
