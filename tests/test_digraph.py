from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import combtiles.digraph as digraph
from combtiles import engines
from combtiles.cli import main
from combtiles.core import CombSpec, Metric, TriangleKind
from combtiles.digraph import (
    Arc,
    Cycle,
    MetatileDigraph,
    UnsupportedStructureError,
    analyze_structure,
    build_digraph,
    compress_metatile,
    enumerate_metatiles,
    export_dot,
    metatile_to_tiling,
)
from combtiles.recursion import evaluate, project_row_sum, synthesize, walk_count, walk_sums

from golden import DOT_2_3


def arcs_of(dg):
    return [(a.src, a.label, a.dst) for a in dg.arcs]


def cycle_info(st, cycles):
    return [(c.label, c.n_tiles, c.n_combs, c.n_cells, st.plain(c)) for c in cycles]


def test_digraph_2_3():
    dg = build_digraph(CombSpec(2, 3))
    assert dg.nodes == ("0", "01", "0101")
    assert arcs_of(dg) == [
        ("0", "S", "0"),
        ("0", "C", "0101"),
        ("01", "S", "0"),
        ("01", "C", "01"),
        ("0101", "S", "01"),
        ("0101", "C", "0"),
    ]
    assert all(a.cell_weight == (3 if a.label == "C" else 1) for a in dg.arcs)
    assert all(a.comb_weight == (1 if a.label == "C" else 0) for a in dg.arcs)


def test_digraph_2_4():
    dg = build_digraph(CombSpec(2, 4))
    assert dg.nodes == ("0", "01", "0101", "010101")
    assert arcs_of(dg) == [
        ("0", "S", "0"),
        ("0", "C", "010101"),
        ("01", "S", "0"),
        ("01", "C", "0101"),
        ("0101", "S", "01"),
        ("0101", "C", "01"),
        ("010101", "S", "0101"),
        ("010101", "C", "0"),
    ]


def test_digraph_rejects_malformed_input():
    spec = CombSpec(2, 3)
    # walks are counted from node number 0, which must be the empty state
    for nodes in [("a", "0"), ()]:
        with pytest.raises(ValueError, match="first node"):
            MetatileDigraph(spec, nodes, (0,) * len(nodes), (0,) * len(nodes))
    with pytest.raises(ValueError, match="duplicate node"):
        MetatileDigraph(spec, ("0", "01", "01"), (0, 0, 0), (0, 0, 0))
    # every node has exactly one successor of each kind, a listed node
    wrong_length = [((0,), (0, 0)), ((0, 0), ()), ((0, 1, 0), (0, 0))]
    out_of_range = [((0, 2), (0, 0)), ((0, 0), (-1, 0))]
    for square, comb in wrong_length + out_of_range:
        with pytest.raises(ValueError, match="one successor of each kind"):
            MetatileDigraph(spec, ("0", "01"), square, comb)


def test_structure_2_3_common():
    st = analyze_structure(build_digraph(CombSpec(2, 3)))
    assert st.kind == "common"
    assert st.anchor == st.common_node == "01"
    assert st.errant is None and st.pseudo_common is None
    assert cycle_info(st, st.inner_cycles) == [("C", 1, 1, 3, True)]
    assert cycle_info(st, st.outer_cycles) == [("S", 1, 0, 1, True), ("CC", 2, 2, 6, True)]
    assert cycle_info(st, st.circuits) == [("CSS", 3, 1, 5, True)]


def test_structure_2_4_common():
    st = analyze_structure(build_digraph(CombSpec(2, 4)))
    assert st.kind == "common"
    assert st.anchor == "01"
    assert cycle_info(st, st.inner_cycles) == [
        ("CC", 2, 2, 8, True),
        ("CS", 2, 1, 5, True),
    ]
    assert cycle_info(st, st.outer_cycles) == [("S", 1, 0, 1, True), ("CC", 2, 2, 8, True)]
    assert cycle_info(st, st.circuits) == [
        ("CSCS", 4, 2, 10, True),
        ("CSSS", 4, 1, 7, True),
    ]


def test_structure_2_5_pseudo_common():
    st = analyze_structure(build_digraph(CombSpec(2, 5)))
    assert st.kind == "pseudo"
    assert st.common_node is None
    assert st.pseudo_common == "01" and st.anchor == "01"
    assert st.errant == Cycle("C", ("0101",), 5) and not st.plain(st.errant)
    # the errant loop itself is kept out of inner_cycles
    assert cycle_info(st, st.inner_cycles) == [
        ("CC", 2, 2, 10, True),
        ("CSS", 3, 1, 7, False),
    ]
    assert cycle_info(st, st.outer_cycles) == [("S", 1, 0, 1, True), ("CC", 2, 2, 10, True)]
    assert cycle_info(st, st.circuits) == [
        ("CSCS", 4, 2, 12, True),
        ("CSSSS", 5, 1, 9, False),
    ]


def test_structure_4_2_common():
    st = analyze_structure(build_digraph(CombSpec(4, 2)))
    assert st.kind == "common"
    assert st.anchor == "001"
    assert cycle_info(st, st.inner_cycles) == [
        ("CS", 2, 1, 3, True),
        ("CCS", 3, 2, 5, True),
        ("CCCC", 4, 4, 8, True),
    ]
    assert [(c.label, c.n_tiles, c.n_combs) for c in st.circuits] == [
        ("CSSS", 4, 1),
        ("CSCCS", 5, 3),
        ("CSCSS", 5, 2),
        ("CSCCCS", 6, 4),
        ("CCSCCSS", 7, 4),
        ("CCSCCCCS", 8, 6),
        ("CCSCCCSS", 8, 5),
        ("CCSCCCCCS", 9, 7),
    ]
    assert len(st.outer_cycles) == 5


def test_structure_degenerate():
    for m, t in [(1, 2), (1, 3), (1, 5), (2, 2)]:
        st = analyze_structure(build_digraph(CombSpec(m, t)))
        assert st.kind == "degenerate", (m, t)
        assert st.inner_cycles == () and st.circuits == ()
        assert st.anchor is None and st.errant is None


def test_structure_refusal_no_pattern():
    for m, t in [(3, 3), (3, 4), (4, 3)]:
        dg = build_digraph(CombSpec(m, t))
        with pytest.raises(UnsupportedStructureError, match="no common node"):
            analyze_structure(dg)


def test_structure_refusal_step_budget():
    # 64 nodes with more simple cycles than the step budget allows; the
    # structural test refuses it without listing them
    dg = build_digraph(CombSpec(4, 4))
    with pytest.raises(UnsupportedStructureError, match="no common node"):
        analyze_structure(dg)


# the families whose cycles outrun the step budget, all without an anchor
BUDGET_SIZED_REFUSALS = [
    (4, 4), (4, 5), (4, 6), (5, 3), (5, 4), (5, 5), (5, 6),
    (6, 3), (6, 4), (6, 5), (6, 6),
]


def test_refusals_decided_without_listing_cycles(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("_simple_cycles called")

    monkeypatch.setattr(digraph, "_simple_cycles", no_enumeration)
    for m, t in BUDGET_SIZED_REFUSALS:
        dg = build_digraph(CombSpec(m, t))
        with pytest.raises(UnsupportedStructureError, match="no common node"):
            analyze_structure(dg)


def _anchor_by_enumeration(dg: MetatileDigraph) -> tuple[str | None, Cycle | None] | None:
    """The anchor rule applied to the full list of inner cycles.

    (anchor label, errant loop), both None when there is no inner cycle, or
    None when no node fits.
    """
    cycles = digraph._simple_cycles(dg, digraph._Budget(10**9))
    inner = [c for c in cycles if not c.visits("0")]
    if not inner:
        return None, None
    common = set.intersection(*(set(c.nodes) for c in inner))
    if common:
        return min(common), None
    # the cycles come sorted by tile count, then label, so C-loops come first
    for loop in inner:
        if loop.n_tiles != 1:
            continue
        rest = [c for c in inner if c is not loop]
        shared = rest and set.intersection(*(set(c.nodes) for c in rest)) - {loop.nodes[0]}
        if shared:
            return min(shared), loop
    return None


@st.composite
def small_digraphs(draw):
    # labels in shuffled order, so a tie broken by node number shows
    n_nodes = draw(st.integers(1, 8))
    labels = draw(st.permutations([f"v{i}" for i in range(1, n_nodes)]))
    target = st.integers(0, n_nodes - 1)
    square, comb = (tuple(draw(target) for _ in range(n_nodes)) for _ in "SC")
    return MetatileDigraph(CombSpec(2, draw(st.integers(2, 4))), ("0", *labels), square, comb)


@settings(max_examples=300, deadline=None)
@given(small_digraphs())
def test_anchor_test_matches_cycle_enumeration(dg):
    expected = _anchor_by_enumeration(dg)
    if expected is None:
        with pytest.raises(UnsupportedStructureError, match="no common node"):
            digraph._anchor(dg)
        with pytest.raises(UnsupportedStructureError, match="no common node"):
            analyze_structure(dg)
        return
    anchor, errant = expected
    chosen = tuple(None if v is None else dg.nodes[v] for v in digraph._anchor(dg))
    assert chosen == (anchor, errant and errant.nodes[0])
    st = analyze_structure(dg)
    assert (st.anchor, st.errant) == expected
    assert errant is None or errant not in st.inner_cycles
    kind = "degenerate" if anchor is None else "common" if errant is None else "pseudo"
    assert (st.kind, st.common_node, st.pseudo_common) == (
        kind, anchor if kind == "common" else None, anchor if kind == "pseudo" else None
    )


@settings(max_examples=300, deadline=None)
@given(small_digraphs(), st.sampled_from(list(Metric)))
def test_synthesis_matches_walks_on_random_topologies(dg, metric):
    # one formula for both shapes; its one refusal is an outer cycle
    # through the errant loop's node
    try:
        structure = analyze_structure(dg)
    except UnsupportedStructureError:
        return
    if structure.errant is not None and not all(map(structure.plain, structure.outer_cycles)):
        with pytest.raises(UnsupportedStructureError, match="outer cycle"):
            synthesize(structure, metric)
        return
    rel = synthesize(structure, metric)
    assert evaluate(rel, 16) == walk_count(dg, metric, 16)
    assert evaluate(project_row_sum(rel), 30) == walk_sums(dg, metric, 30)


def _walks_by_labels(dg: MetatileDigraph, metric: Metric, n_max: int) -> list[list[int]]:
    """Walks 0 to 0 by weight and comb count, a dict per weight keyed by labels."""
    out: dict[str, list[Arc]] = {}
    for arc in dg.arcs:
        out.setdefault(arc.src, []).append(arc)
    layers: list[dict[tuple[str, int], int]] = [{} for _ in range(n_max + 1)]
    layers[0]["0", 0] = 1
    for n, layer in enumerate(layers):
        for (node, k), count in layer.items():
            for arc in out[node]:
                w = n + (arc.cell_weight if metric is Metric.CELLS else 1)
                if w <= n_max:
                    key = (arc.dst, k + arc.comb_weight)
                    layers[w][key] = layers[w].get(key, 0) + count
    return [[layer.get(("0", k), 0) for k in range(n + 1)] for n, layer in enumerate(layers)]


@settings(max_examples=200, deadline=None)
@given(small_digraphs(), st.sampled_from(list(Metric)), st.integers(0, 24))
def test_walks_match_a_label_keyed_count(dg, metric, n_max):
    # the array dynamic program and its slot bound, on topologies that
    # build_digraph never makes
    rows = _walks_by_labels(dg, metric, n_max)
    assert [list(row) for row in walk_count(dg, metric, n_max).rows] == rows
    assert walk_sums(dg, metric, n_max) == tuple(map(sum, rows))


def test_counting_and_output_build_no_arc(monkeypatch, capsys):
    # arcs are built only for dg.arcs: a structure lists its cycles by label
    def no_arc(*args):
        raise AssertionError("an Arc was built")

    monkeypatch.setattr(digraph, "Arc", no_arc)
    spec = CombSpec(6, 6)
    tiles = engines.triangle(spec, TriangleKind.TILE, 6, "auto")
    assert tiles == engines.triangle(spec, TriangleKind.TILE, 6, "poly")
    dg = build_digraph(spec)
    assert walk_sums(dg, Metric.CELLS, 20) == tuple(engines.sums(spec, Metric.CELLS, 21, "poly"))
    assert export_dot(dg).count(" -> ") == 2 * 6**5
    assert enumerate_metatiles(dg, 6)[:2] == ["S", "CCCCCC"]
    assert analyze_structure(build_digraph(CombSpec(2, 5))).errant.nodes == ("0101",)
    assert engines.relation(CombSpec(4, 2), Metric.CELLS).tracks_k
    capsys.readouterr()
    assert main(["digraph", "--m", "6", "--t", "6", "--format", "text"]) == 1
    assert capsys.readouterr().err.startswith("error: no common node")


def test_circuit_tails_listed_once(monkeypatch):
    listings = []
    simple_paths = digraph._simple_paths

    def counting(dg, src, dst, budget, what, floor=0):
        if what == "path":
            listings.append((src, dst))
        return simple_paths(dg, src, dst, budget, what, floor)

    monkeypatch.setattr(digraph, "_simple_paths", counting)
    for m, t in [(2, 4), (2, 5), (4, 2)]:
        listings.clear()
        analyze_structure(build_digraph(CombSpec(m, t)))
        # one listing of the heads (0 to anchor), one of the tails (back)
        assert len(listings) == 2, (m, t)


def test_step_budget_is_effective(monkeypatch):
    import combtiles.digraph as digraph

    monkeypatch.setattr(digraph, "_STEP_BUDGET", 3)
    with pytest.raises(UnsupportedStructureError, match="step budget"):
        analyze_structure(build_digraph(CombSpec(2, 3)))
    with pytest.raises(ValueError, match="step budget"):
        enumerate_metatiles(build_digraph(CombSpec(2, 3)), 6)


# steps spent per search, one per arc tried: a structure listing's cycles,
# heads and tails share one budget, and a metatile listing has its own
STRUCTURE_STEPS = {(2, 3): 16, (2, 5): 38, (4, 2): 82}


def test_search_steps_are_pinned(monkeypatch):
    budgets = []

    class Recorded(digraph._Budget):
        def __init__(self, steps: int) -> None:
            super().__init__(steps)
            budgets.append(self)

    monkeypatch.setattr(digraph, "_Budget", Recorded)
    for (m, t), steps in STRUCTURE_STEPS.items():
        budgets.clear()
        analyze_structure(build_digraph(CombSpec(m, t)))
        assert [digraph._STEP_BUDGET - b.left for b in budgets] == [steps], (m, t)
    budgets.clear()
    assert len(enumerate_metatiles(build_digraph(CombSpec(2, 3)), 3000)) == 3000
    assert [digraph._STEP_BUDGET - b.left for b in budgets] == [6000]
    # a budget of exactly the steps spent suffices, and one step fewer refuses
    monkeypatch.setattr(digraph, "_STEP_BUDGET", 16)
    analyze_structure(build_digraph(CombSpec(2, 3)))
    monkeypatch.setattr(digraph, "_STEP_BUDGET", 15)
    with pytest.raises(UnsupportedStructureError, match="step budget"):
        analyze_structure(build_digraph(CombSpec(2, 3)))
    monkeypatch.setattr(digraph, "_STEP_BUDGET", 6000)
    assert len(enumerate_metatiles(build_digraph(CombSpec(2, 3)), 3000)) == 3000
    monkeypatch.setattr(digraph, "_STEP_BUDGET", 5999)
    with pytest.raises(ValueError, match="step budget"):
        enumerate_metatiles(build_digraph(CombSpec(2, 3)), 3000)


def test_metatile_listing_bounds_its_characters(monkeypatch, capsys):
    # each listed label is charged to a fixed bound: on (2,3) the labels of
    # at most 5 tiles total 1 + 2 + 3 + 4 + 5 = 15 characters
    monkeypatch.setattr(digraph, "_LABEL_CHARS", 15)
    assert len(enumerate_metatiles(build_digraph(CombSpec(2, 3)), 5)) == 5
    monkeypatch.setattr(digraph, "_LABEL_CHARS", 14)
    capsys.readouterr()
    assert main(["metatiles", "--m", "2", "--t", "3", "--max-tiles", "5"]) == 2
    assert capsys.readouterr() == (
        "", "error: metatile listing exceeded its character bound; lower max_tiles\n"
    )


def test_structure_json_shape():
    st = analyze_structure(build_digraph(CombSpec(2, 5)))
    payload = json.loads(st.to_json())
    assert payload["m"] == 2 and payload["t"] == 5
    assert payload["kind"] == "pseudo"
    assert payload["errant"]["labels"] == "C"
    assert payload["errant"]["plain"] is False
    assert [c["labels"] for c in payload["inner_cycles"]] == ["CC", "CSS"]


def test_export_dot_golden():
    assert export_dot(build_digraph(CombSpec(2, 3))) == DOT_2_3


def test_enumerate_metatiles():
    dg = build_digraph(CombSpec(2, 3))
    assert enumerate_metatiles(dg, 6) == ["S", "CC", "CSS", "CSCS", "CSCCS", "CSCCCS"]
    assert enumerate_metatiles(build_digraph(CombSpec(1, 3)), 5) == ["C", "S"]
    got = enumerate_metatiles(build_digraph(CombSpec(4, 2)), 6)
    assert got == [
        "S", "CCCC", "CCCS", "CCSS", "CSSS",
        "CCSCS", "CSCCS", "CSCSS", "CSCCCS", "CSSCSS",
    ]
    with pytest.raises(ValueError):
        enumerate_metatiles(dg, 0)


def test_compress_metatile():
    assert compress_metatile("S") == "S"
    assert compress_metatile("CC") == "C²"
    assert compress_metatile("CSCCS") == "CSC²S"
    assert compress_metatile("C" * 11 + "S") == "C¹¹S"
    assert compress_metatile("SS") == "SS"  # only comb runs are shortened


def _compress_by_runs(label: str) -> str:
    # the character-by-character run walk compress_metatile replaced
    out = []
    i = 0
    while i < len(label):
        j = i
        while j < len(label) and label[j] == label[i]:
            j += 1
        run = j - i
        if label[i] == "C" and run > 1:
            out.append("C" + str(run).translate(digraph._SUPERSCRIPTS))
        else:
            out.append(label[i] * run)
        i = j
    return "".join(out)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="SC", max_size=60))
def test_compress_metatile_matches_the_run_walk(label):
    assert compress_metatile(label) == _compress_by_runs(label)


def test_metatiles_replay_to_valid_tilings():
    for m, t in [(2, 3), (2, 4), (4, 2), (3, 2)]:
        spec = CombSpec(m, t)
        dg = build_digraph(spec)
        for labels in enumerate_metatiles(dg, 6):
            tl = metatile_to_tiling(spec, labels)
            assert tl.n_tiles == len(labels)
            assert tl.n_combs == labels.count("C")
            assert tl.board_len == labels.count("S") + t * labels.count("C")


def test_metatile_replay_rejects_gappy_strings():
    with pytest.raises(ValueError, match="gap"):
        metatile_to_tiling(CombSpec(2, 3), "CS")
    with pytest.raises(ValueError, match="unknown tile kind 'X'"):
        metatile_to_tiling(CombSpec(2, 3), "SX")
