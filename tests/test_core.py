from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtiles.core import (
    CombSpec,
    Triangle,
    TriangleKind,
    _comb_mask,
    board_to_tile_index,
    max_combs,
)
from combtiles.digraph import Arc, Cycle, MetatileDigraph, analyze_structure, build_digraph
from combtiles.identities import CheckReport, GridProfile
from combtiles.oracle import RestrictedSubset, Tiling
from combtiles.polynomials import IntPolynomial
from combtiles.recursion import Metric, synthesize

specs = st.builds(
    CombSpec, m=st.integers(min_value=1, max_value=6), t=st.integers(min_value=2, max_value=6)
)


def test_spec_validation():
    with pytest.raises(ValueError):
        CombSpec(0, 3)
    with pytest.raises(ValueError):
        CombSpec(2, 1)


def test_comb_mask_grid():
    # the doubled teeth, for t a power of 2 and not, cut at every reach
    for m in range(1, 70):
        for t in range(2, 12):
            spec = CombSpec(m, t)
            assert _comb_mask(spec) == sum(1 << i * m for i in range(t)), (m, t)
            for reach in range(t * m + 2):
                expected = sum(1 << i * m for i in range(t) if i * m <= reach)
                assert _comb_mask(spec, reach) == expected, (m, t, reach)


def test_index_maps_examples():
    spec = CombSpec(2, 3)
    assert board_to_tile_index(spec, 9, 2) == (5, 2)


@settings(max_examples=50, deadline=None)
@given(specs, st.integers(min_value=-5, max_value=40), st.integers(min_value=0, max_value=20))
def test_index_maps_roundtrip(spec, n, k):
    # the inverse map: n tiles, k of them combs, cover n + (t-1)k cells
    def tile_to_board(n_tiles: int, k: int) -> tuple[int, int]:
        return (n_tiles + (spec.t - 1) * k, k)

    assert board_to_tile_index(spec, *tile_to_board(n, k)) == (n, k)
    assert tile_to_board(*board_to_tile_index(spec, n, k)) == (n, k)


def test_max_combs_examples():
    # boards of length 9 and 11 for m=2, t=3: 9 = 2*4+1, 11 = 2*5+1
    assert max_combs(CombSpec(2, 3), 4, 1) == 2
    assert max_combs(CombSpec(2, 3), 5, 1) == 3
    with pytest.raises(ValueError):
        max_combs(CombSpec(2, 3), 4, 2)
    with pytest.raises(ValueError):
        max_combs(CombSpec(2, 3), -1, 0)


@settings(max_examples=50, deadline=None)
@given(specs, st.integers(min_value=0, max_value=30))
def test_max_combs_monotone_in_j(spec, j):
    for r in range(spec.m):
        assert max_combs(spec, j, r) <= max_combs(spec, j + 1, r)
        assert max_combs(spec, j, r) >= 0


def test_triangle_entry_semantics():
    spec = CombSpec(2, 3)
    tri = Triangle(spec, TriangleKind.TILE, [[1], [1, 0], [1, 0, 1]])
    assert len(tri.rows) == 3
    assert tri.entry(2, 2) == 1
    assert tri.entry(2, 3) == 0
    assert tri.entry(2, -1) == 0
    assert tri.entry(-4, 0) == 0
    with pytest.raises(IndexError):
        tri.entry(3, 0)


def test_triangle_validation():
    spec = CombSpec(2, 3)
    with pytest.raises(ValueError):
        Triangle(spec, TriangleKind.TILE, [[1], [1]])
    with pytest.raises(ValueError):
        Triangle(spec, TriangleKind.TILE, [[2]])
    with pytest.raises(ValueError):
        Triangle(spec, TriangleKind.TILE, [[1], [1, -1]])


def test_triangle_row_sums():
    spec = CombSpec(2, 3)
    tri = Triangle(spec, TriangleKind.TILE, [[1], [1, 0], [1, 0, 1]])
    assert tri.row_sums() == (1, 1, 2)


def _arc() -> Arc:
    return Arc("0", "0", "S", 1, 0)


# two calls of each factory build equal values that are distinct objects
VALUE_FACTORIES = [
    lambda: CombSpec(2, 3),
    lambda: Triangle(CombSpec(2, 3), TriangleKind.TILE, ((1,), (1, 0))),
    _arc,
    lambda: build_digraph(CombSpec(2, 3)),
    lambda: Cycle("S", ("0",), 1),
    lambda: analyze_structure(build_digraph(CombSpec(2, 5))),
    lambda: Tiling(CombSpec(2, 3), 1, (("S", 1),)),
    lambda: RestrictedSubset(CombSpec(2, 3), 3, (1, 2)),
    lambda: IntPolynomial((1, 2)),
    lambda: synthesize(analyze_structure(build_digraph(CombSpec(2, 3))), Metric.TILES),
    lambda: GridProfile("quick", 3, 4, 14),
    lambda: CheckReport("col0", "m<=3", 1),
]


@pytest.mark.parametrize("make", VALUE_FACTORIES)
def test_value_semantics(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.__eq__(object()) is NotImplemented and a != a._values()
    assert not hasattr(a, "__dict__")
    first = a._fields[0]
    assert repr(a).startswith(f"{type(a).__name__}({first}=")
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(a, first))
    with pytest.raises(AttributeError):
        delattr(a, first)


def test_value_repr_replace_and_cache_keys():
    spec = CombSpec(2, 3)
    assert repr(spec) == "CombSpec(m=2, t=3)"
    # the circuit of (2,3): a comb at the empty state, then two squares
    cycle = Cycle("CSS", ("0", "0101", "01"), 5)
    assert (cycle.n_tiles, cycle.n_combs, cycle.visits("01"), cycle.visits("1")) == (
        3, 1, True, False
    )
    assert Cycle(cycle.label, cycle.nodes, 7) != cycle
    # plainness is read off a structure: (2,5) sets aside the C-loop at "0101", (2,3) has none
    st = analyze_structure(build_digraph(CombSpec(2, 5)))
    assert not st.plain(cycle) and analyze_structure(build_digraph(spec)).plain(cycle)
    calls = []

    @functools.lru_cache(maxsize=None)
    def cached(key: CombSpec) -> int:
        calls.append(key)
        return key.m

    assert cached(CombSpec(2, 3)) + cached(CombSpec(2, 3)) == 4 and calls == [spec]
    dg = build_digraph(spec)
    # dg.arcs lists each node's S-arc then its C-arc, by source node number,
    # and the digraph is its four fields and nothing else
    assert [(arc.src, arc.dst, arc.label) for arc in dg.arcs] == [
        (dg.nodes[u], dg.nodes[v], x)
        for u in range(len(dg.nodes))
        for v, x in ((dg.square[u], "S"), (dg.comb[u], "C"))
    ]
    assert not hasattr(dg, "out") and not hasattr(dg, "__dict__")
    number = {node: u for u, node in enumerate(dg.nodes)}
    succ = {(arc.src, arc.label): number[arc.dst] for arc in dg.arcs}
    square, comb = (tuple(succ[node, x] for node in dg.nodes) for x in "SC")
    assert (square, comb) == (dg.square, dg.comb)
    assert repr(dg).startswith("MetatileDigraph(spec=CombSpec(m=2, t=3), nodes=(")
    assert dg == MetatileDigraph(spec, dg.nodes, square, comb)
