from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combtiles import cli, digraph, engines, identities, oracle
from combtiles.cli import _build_parser, main
from combtiles.core import CombSpec, TriangleKind
from combtiles.digraph import (
    analyze_structure,
    build_digraph,
    compress_metatile,
    enumerate_metatiles,
    export_dot,
)
from combtiles.recursion import Metric

from golden import (
    CELL_SUMS,
    DIGRAPH_DIGESTS,
    DOT_2_3,
    HELP_DIGESTS,
    STRUCTURE_DIGESTS,
    TILE_SUMS,
    TRIANGLES,
    VERIFY_DIGESTS,
)
from test_engines_agree import COUNTS, explicit, explicit_test


@pytest.fixture()
def run(capsys):
    def invoke(*argv: str) -> tuple[int, str, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def csv_of(rows) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in rows) + "\n"


def test_triangle_csv_matches_golden(run):
    for (m, t), rows in TRIANGLES.items():
        code, out, err = run(
            "triangle", "--m", str(m), "--t", str(t), "--rows", "14",
            "--format", "csv", "--method", "oracle",
        )
        assert code == 0 and err == ""
        assert out == csv_of(rows), (m, t)


# the engine cross-checks: each runs explicit cases of the agreement harness
test_triangle_methods_agree = explicit_test("methods_agree")
test_streamed_poly_triangle_matches_closed_form_and_oracle = explicit_test("streamed_poly")
test_poly_sums_match_walk_and_oracle = explicit_test("poly_sums")
test_poly_engine_with_wide_slots = explicit_test("poly_wide_slots")
test_poly_engine_edge_sizes = explicit_test("poly_edge_sizes")
test_long_cell_counts_match_walk = explicit_test("long_cell_counts")
test_poly_tile_slots_of_exactly_rows_bits = explicit_test("rows_bits")
test_cli_engines_agree_or_refuse = explicit_test("contract")


def test_walk_engine_with_wide_slots():
    for (m, t, shape, _), out in explicit("walk_wide_slots").items():
        # comb slots too narrow for entries past 2^64 would carry into the next slot
        assert shape in COUNTS or max(map(int, re.split("[,\n]", out.strip()))) >> 64, (m, t)


def test_engines_reject_sizes_below_one():
    spec = CombSpec(2, 3)
    for method in engines.METHODS:
        for size in [0, -3]:
            for kind in TriangleKind:
                with pytest.raises(ValueError, match="^rows must be >= 1$"):
                    engines.triangle(spec, kind, size, method)
            for metric in Metric:
                with pytest.raises(ValueError, match="^n_terms must be >= 1$"):
                    engines.sums(spec, metric, size, method)
        # past sys.maxsize no list, range or slot loop can hold the size: the
        # guard refuses it before any engine runs, where an OverflowError or
        # an endless slot-width loop would follow
        for kind in TriangleKind:
            with pytest.raises(ValueError, match=f"^rows must be <= {sys.maxsize}$"):
                engines.triangle(spec, kind, sys.maxsize + 1, method)
        for metric in Metric:
            for count in (engines.sums, engines.sums_text):
                with pytest.raises(ValueError, match=f"^n_terms must be <= {sys.maxsize}$"):
                    count(spec, metric, sys.maxsize + 1, method)
        # a size is an int, not a float or a bool, as CombSpec takes m and t
        for size in [2.5, 3.0, True, "3", None]:
            got = re.escape(repr(size))
            for kind in TriangleKind:
                with pytest.raises(ValueError, match=f"^rows must be an integer, got {got}$"):
                    engines.triangle(spec, kind, size, method)
            for metric in Metric:
                for count in (engines.sums, engines.sums_text):
                    with pytest.raises(ValueError, match=f"^n_terms must be an integer, got {got}$"):
                        count(spec, metric, size, method)


def test_parser_is_reused_across_calls(capsys):
    calls = [
        ["triangle", "--m", "2", "--t", "3", "--rows", "6", "--format", "json"],
        ["triangle", "--m", "2", "--t", "3", "--rows", "0"],
        ["triangle", "--m", "2", "--t", "4", "--rows", "5"],
        ["sums", "--m", "2", "--t", "3", "--format", "bogus"],
        ["sums", "--m", "4", "--t", "2", "--n", "9", "--metric", "cells"],
    ]

    def outcome(argv: list[str]) -> tuple[object, str, str]:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    separate = []
    for argv in calls:
        _build_parser.cache_clear()
        separate.append(outcome(argv))
    _build_parser.cache_clear()
    shared = [outcome(argv) for argv in calls]
    assert _build_parser() is _build_parser()
    assert shared == separate
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 0]


def test_triangle_auto_falls_back_to_walk():
    # (3,3) and (6,6), the largest digraph of the grid, classify no structure:
    # auto walks them with no structural test first
    assert explicit("auto_fallback")[3, 3, "tile", 12] == csv_of(TRIANGLES[(3, 3)][:12])


def test_auto_builds_the_digraph_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return build_digraph(spec)

    # engines imports build_digraph when a request needs it, so the module's
    # attribute is the one to patch
    monkeypatch.setattr("combtiles.digraph.build_digraph", counted)
    # (4,4) is refused and falls back to walk; (2,3) classifies. Board
    # triangles and cell counts take the closed form and build no digraph.
    for spec in [CombSpec(4, 4), CombSpec(2, 3)]:
        for kind in TriangleKind:
            calls.clear()
            engines.triangle(spec, kind, 6, "auto")
            assert calls == ([spec] if kind is TriangleKind.TILE else [])
        for metric in Metric:
            calls.clear()
            engines.sums(spec, metric, 6, "auto")
            assert calls == ([spec] if metric is Metric.TILES else [])


def test_auto_tile_triangles_are_walks(monkeypatch):
    # auto reads a tile triangle off walk counts alone, classified family or
    # not: it analyses no cycle structure and synthesizes no relation
    def refused(*args):
        raise AssertionError("auto tile triangles take no structure or synthesis")

    classified = [CombSpec(m, t) for m, t in STRUCTURE_DIGESTS]
    recursion = [engines.triangle(spec, TriangleKind.TILE, 60, "recursion") for spec in classified]
    monkeypatch.setattr("combtiles.digraph.analyze_structure", refused)
    monkeypatch.setattr("combtiles.recursion.synthesize", refused)
    for m, t in itertools.product(range(1, 7), range(2, 7)):
        spec = CombSpec(m, t)
        walk = engines.triangle(spec, TriangleKind.TILE, 8, "walk")
        assert engines.triangle(spec, TriangleKind.TILE, 8, "auto") == walk, (m, t)
    # on the classified families auto gives the relation's table
    for spec, expected in zip(classified, recursion):
        assert engines.triangle(spec, TriangleKind.TILE, 60, "auto") == expected, spec


def test_engines_reject_unknown_methods():
    spec = CombSpec(2, 3)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        engines.triangle(spec, TriangleKind.TILE, 4, "bogus")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        engines.sums(spec, Metric.TILES, 4, "bogus")


def test_triangle_board_kind(run):
    code, out, _ = run(
        "triangle", "--m", "2", "--t", "3", "--rows", "6", "--kind", "board",
        "--method", "oracle",
    )
    assert code == 0
    # a comb spans 5 cells here, so boards shorter than 5 are squares only
    assert out == "1\n1,0\n1,0,0\n1,0,0,0\n1,0,0,0,0\n1,1,0,0,0,0\n"


def test_triangle_json_and_text_formats(run):
    code, out, _ = run(
        "triangle", "--m", "2", "--t", "3", "--rows", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 2 and payload["t"] == 3 and payload["kind"] == "tile"
    assert payload["rows"] == [["1"], ["1", "0"], ["1", "0", "1"], ["1", "1", "2", "0"]]
    code, out, _ = run(
        "triangle", "--m", "2", "--t", "3", "--rows", "4", "--format", "text"
    )
    assert out == "1\n1 0\n1 0 1\n1 1 2 0\n"


def test_sums_bfile_cells(run):
    code, out, _ = run(
        "sums", "--m", "2", "--t", "5", "--metric", "cells", "--n", "21",
        "--format", "bfile",
    )
    assert code == 0
    expected = "".join(f"{i} {v}\n" for i, v in enumerate(CELL_SUMS[(2, 5)]))
    assert out == expected
    assert out.startswith("0 1\n1 1\n")
    assert out.endswith("20 64\n")


def test_sums_formats_and_methods(run):
    seq = TILE_SUMS[(4, 2)]
    base = ["sums", "--m", "4", "--t", "2", "--n", str(len(seq))]
    code, out, _ = run(*base)
    assert code == 0 and out == " ".join(str(v) for v in seq) + "\n"
    code, out, _ = run(*base, "--format", "csv")
    assert out == ",".join(str(v) for v in seq) + "\n"
    code, out, _ = run(*base, "--format", "json")
    assert json.loads(out) == seq
    for method in ["oracle", "poly", "recursion", "walk"]:
        code, out, _ = run(*base, "--format", "json", "--method", method)
        assert code == 0 and json.loads(out) == seq, method


def test_subsets_listing(run):
    code, out, _ = run("subsets", "--m", "2", "--t", "3", "--n", "6", "--k", "2")
    assert code == 0
    assert out == "{1,2}\n{1,4}\n{1,6}\n{2,3}\n{2,5}\n{3,4}\n{3,6}\n{4,5}\n{5,6}\n"
    code, out, _ = run(
        "subsets", "--m", "2", "--t", "3", "--n", "6", "--k", "2", "--count"
    )
    assert out == "9\n"
    code, out, _ = run(
        "subsets", "--m", "2", "--t", "3", "--n", "4", "--format", "json"
    )
    # written without the json module, as the bytes json.dumps writes
    assert out == json.dumps([[], [1], [1, 2], [1, 4], [2], [2, 3], [3], [3, 4], [4]]) + "\n"
    code, out, _ = run(
        "subsets", "--m", "2", "--t", "3", "--n", "1", "--k", "2", "--format", "json"
    )
    assert (code, out) == (0, "[]\n")


def test_subsets_cost_follows_the_universe(run):
    # no difference inside {1..5} is a multiple of 10^7, so all 2^5 subsets
    # count; the ban masks reach only to n, not across the 9 * 10^7 bits of a comb
    tracemalloc.start()
    try:
        code, out, err = run("subsets", "--m", "10000000", "--t", "10", "--n", "5", "--count")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "32\n", "")
    assert peak < 1_000_000, peak
    code, out, _ = run("subsets", "--m", "10000000", "--t", "10", "--n", "2")
    assert (code, out) == (0, "{}\n{1}\n{1,2}\n{2}\n")


class _DigestOut:
    """A stdout that keeps only a running SHA-256 of the text written to it, and its writes."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.writes = 0

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        self.writes += 1
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_subsets_listing_streams(fmt):
    # m >= n bans no difference, so all 2^14 subsets of {1..14} are listed;
    # the listing holds one subset at a time, not all of them or their text
    members = [list(s.members) for s in oracle.enumerate_restricted_subsets(CombSpec(24, 2), 14)]
    if fmt == "json":
        expected = json.dumps(members) + "\n"
    else:
        expected = "".join("{" + ",".join(map(str, m)) + "}\n" for m in members)
    del members
    sink = _DigestOut()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["subsets", "--m", "24", "--t", "2", "--n", "14", "--format", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.sha.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
    assert peak < 1_000_000, peak


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("ab", max_size=4)), st.sampled_from(["", ", ", "\n"]), st.integers(1, 6))
def test_emit_listing_writes_the_join_in_chunks(items, sep, chunk_chars):
    # whatever the chunk size, and wherever a chunk ends, the writes add up to
    # one join, each separator written once and none after the last item
    writes: list[str] = []
    with mock.patch.object(cli, "_CHUNK_CHARS", chunk_chars):
        with mock.patch.object(cli, "_emit", writes.append):
            cli._emit_listing(iter(items), "<", sep, ">")
    assert "".join(writes) == "<" + sep.join(items) + ">"


def test_triangle_serialization_roundtrip(run):
    # (2,4) fits no comb in a board of 3 cells
    argv = ["triangle", "--m", "2", "--t", "4", "--kind", "board", "--rows", "4"]
    assert run(*argv, "--format", "csv") == (0, "1\n1,0\n1,0,0\n1,0,0,0\n", "")
    code, out, err = run(*argv, "--format", "json")
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["kind"] == "board" and (obj["m"], obj["t"]) == (2, 4)
    assert obj["rows"] == [["1"], ["1", "0"], ["1", "0", "0"], ["1", "0", "0", "0"]]
    assert out == json.dumps(obj) + "\n"


@pytest.mark.parametrize(
    "command, fmt",
    [("sums", fmt) for fmt in ("bfile", "csv", "json", "text")]
    + [("triangle", fmt) for fmt in ("csv", "json", "text")],
)
@pytest.mark.parametrize("metric", list(Metric))
def test_table_output_streams(command, fmt, metric, capsys):
    # sums and triangles are written a chunk at a time, as listings are: the
    # sums hold their values and about one chunk of text, not all of it (at
    # 5000 terms the text of (1,2) is 2.6-3.8 MB, against 1.3-1.8 MB of values)
    spec = CombSpec(1, 2)
    if command == "sums":
        size = 5000
        values = engines.sums(spec, metric, size, "auto")
        held = sys.getsizeof(values) + sum(map(sys.getsizeof, values))
        if fmt == "bfile":
            expected = "".join(f"{i} {v}\n" for i, v in enumerate(values))
        elif fmt == "json":
            expected = json.dumps(values) + "\n"
        else:
            expected = ("," if fmt == "csv" else " ").join(map(str, values)) + "\n"
        argv = ["sums", "--n", str(size), "--metric", metric.value]
    else:
        size = 300
        rows = engines.triangle(spec, metric.kind, size, "auto").rows
        if fmt == "json":
            table = [list(map(str, r)) for r in rows]
            expected = json.dumps({"m": 1, "t": 2, "kind": metric.kind.value, "rows": table}) + "\n"
        else:
            expected = "".join(("," if fmt == "csv" else " ").join(map(str, r)) + "\n" for r in rows)
        argv = ["triangle", "--rows", str(size), "--kind", metric.kind.value]
    argv += ["--format", fmt]
    assert len(expected) > 4 * cli._CHUNK_CHARS
    sink = _DigestOut()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main([*argv, "--m", "1", "--t", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.writes > 1
    assert sink.sha.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
    if command == "sums":
        assert peak < held + 1_000_000, (peak, held)
    # a refused table writes nothing but one error line
    capsys.readouterr()
    assert main([*argv, "--m", "3", "--t", "3", "--method", "recursion"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_digraph_dot_golden(run):
    code, out, _ = run("digraph", "--m", "2", "--t", "3")
    assert code == 0 and out == DOT_2_3


def test_digraph_text_and_json(run):
    code, out, _ = run("digraph", "--m", "2", "--t", "5", "--format", "text")
    assert code == 0
    assert out == (
        "nodes: 5\narcs: 10\nkind: pseudo\nanchor: 01\n"
        "inner cycles: 2\nouter cycles: 2\ncircuits: 2\n"
    )
    code, out, _ = run("digraph", "--m", "2", "--t", "5", "--format", "json")
    payload = json.loads(out)
    assert payload["kind"] == "pseudo" and payload["pseudo_common"] == "01"


def test_digraphs_match_pinned_digests(run):
    def sha(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()

    assert len(DIGRAPH_DIGESTS) == 30 and len(STRUCTURE_DIGESTS) == 11
    for (m, t), (dot, text) in DIGRAPH_DIGESTS.items():
        dg = build_digraph(CombSpec(m, t))
        assert sha(export_dot(dg)) == dot, (m, t)
        code, out, err = run("digraph", "--m", str(m), "--t", str(t), "--format", "text")
        assert sha(f"{code}\n{out}{err}") == text, (m, t)
        if (m, t) in STRUCTURE_DIGESTS:
            assert sha(analyze_structure(dg).to_json()) == STRUCTURE_DIGESTS[(m, t)], (m, t)


def test_digraph_refusal_exit_code(run):
    code, out, err = run("digraph", "--m", "3", "--t", "3", "--format", "text")
    assert code == 1 and out == ""
    assert err.startswith("error: no common node")
    # refused by the structural test before any cycle is listed; dot still works
    code, _, err = run("digraph", "--m", "4", "--t", "4", "--format", "text")
    assert code == 1 and "no common node" in err
    code, out, _ = run("digraph", "--m", "4", "--t", "4", "--format", "dot")
    assert code == 0 and out.startswith("digraph metatiles {")
    # refused the same way on the largest digraph of the grid (7776 nodes)
    code, out, err = run("digraph", "--m", "6", "--t", "6", "--format", "text")
    assert code == 1 and out == ""
    assert err == "error: no common node and no errant loop restores one\n"


def test_metatiles_output(run):
    code, out, _ = run("metatiles", "--m", "2", "--t", "3", "--max-tiles", "5")
    assert code == 0
    assert out == "S\nC²\nCSS\nCSCS\nCSC²S\n"
    code, out, _ = run(
        "metatiles", "--m", "2", "--t", "3", "--max-tiles", "5", "--format", "json"
    )
    assert out == json.dumps(["S", "CC", "CSS", "CSCS", "CSCCS"]) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("m, t, max_tiles", [(2, 3, 3000), (4, 2, 12), (1, 3, 5)])
def test_metatile_listing_streams(m, t, max_tiles, fmt, monkeypatch, capsys):
    # the listing writes the bytes of json.dumps or of one compressed label a
    # line, holding the labels and one chunk of their text, not all of it
    # (at 3000 tiles the labels take 4.5 MB, and one string of their JSON as much)
    labels = enumerate_metatiles(build_digraph(CombSpec(m, t)), max_tiles)
    if fmt == "json":
        expected = json.dumps(labels) + "\n"
    else:
        expected = "".join(compress_metatile(label) + "\n" for label in labels)
    argv = ["metatiles", "--m", str(m), "--t", str(t), "--max-tiles", str(max_tiles), "--format", fmt]
    sink = _DigestOut()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.sha.hexdigest() == hashlib.sha256(expected.encode()).hexdigest()
    assert peak < sum(map(len, labels)) + 1_000_000, peak
    # a listing its character bound refuses writes nothing but one error line
    monkeypatch.setattr(digraph, "_LABEL_CHARS", sum(map(len, labels)) - 1)
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_metatiles_deeper_than_the_recursion_limit(run):
    code, out, err = run(
        "metatiles", "--m", "2", "--t", "3", "--max-tiles", "3000", "--format", "json"
    )
    assert code == 0 and err == ""
    assert len(out.encode()) == 4_513_501
    tiles = json.loads(out)
    assert len(tiles) == 3000
    assert tiles[:5] == ["S", "CC", "CSS", "CSCS", "CSCCS"]
    assert len(tiles[-1]) == 3000


def test_recursion_output(run):
    code, out, _ = run("recursion", "--m", "2", "--t", "5")
    assert code == 0
    assert out == (
        "B(n,k) = δ(0,0) - δ(1,1) - δ(2,2) - δ(3,1) + δ(3,3)"
        " + B(n-1,k) + B(n-1,k-1) - B(n-2,k-1) + 2B(n-2,k-2) + B(n-3,k-1)"
        " - B(n-3,k-2) - 2B(n-3,k-3) - B(n-4,k-1) + B(n-4,k-2) + B(n-4,k-3)"
        " - B(n-4,k-4) + B(n-5,k-1) - 2B(n-5,k-3) + B(n-5,k-5)\n"
    )
    code, out, _ = run("recursion", "--m", "2", "--t", "3", "--sums", "--metric", "cells")
    assert out == (
        "B(n) = δ(0) - δ(3) + B(n-1) + B(n-3) - B(n-4)"
        " + B(n-5) + B(n-6) - B(n-9)\n"
    )
    code, out, _ = run("recursion", "--m", "2", "--t", "4", "--format", "json")
    payload = json.loads(out)
    assert payload["metric"] == "tiles" and payload["tracks_k"] is True


def test_recursion_refusal_exit_code(run):
    code, out, err = run("recursion", "--m", "3", "--t", "3")
    assert code == 1 and out == ""
    assert "no common node" in err
    code, _, err = run("recursion", "--m", "4", "--t", "5")
    assert code == 1 and "no common node" in err


def test_verify_quick(run):
    code, out, _ = run("verify")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1] == "all checks passed"
    assert len(lines) == 22  # 21 checks plus the summary
    assert all(line.startswith("PASS ") for line in lines[:-1])
    code, out, _ = run("verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 21 and all(p["passed"] for p in payload)


@pytest.mark.parametrize(("profile", "fmt"), sorted(VERIFY_DIGESTS))
def test_verify_stdout_digest(run, profile, fmt):
    code, out, _ = run("verify", "--profile", profile, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[profile, fmt]


def test_usage_errors_exit_2(run):
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--m", "0", "--t", "3"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--m", "2", "--t", "3", "--format", "yaml"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no_such_command"])
    assert exc.value.code == 2
    # well-formed argument values beyond desk scale are ValueErrors: exit 2
    for fmt in ("text", "json"):
        code, out, err = run("subsets", "--m", "2", "--t", "3", "--n", "30", "--format", fmt)
        assert code == 2 and out == "" and "limit" in err
    # a count is refused before its table of n + 1 sizes is allocated
    code, out, err = run("subsets", "--m", "2", "--t", "3", "--n", str(10**20), "--count")
    assert (code, out) == (2, "") and err == f"error: universe {10**20} exceeds the enumeration limit 24\n"


def test_oracle_caps_name_the_capped_quantity(run):
    # a refusal names what the cap counts: 23 tiles, or a board of 27 cells
    tiles = (2, "", "error: 23 tiles exceeds the enumeration limit 22\n")
    cells = (2, "", "error: board of 27 cells exceeds the enumeration limit 26\n")
    capped = ["--m", "2", "--t", "3", "--method", "oracle"]
    assert run("triangle", "--rows", "24", *capped) == run("sums", "--n", "24", *capped) == tiles
    assert run("triangle", "--rows", "28", "--kind", "board", *capped) == cells
    assert run("sums", "--n", "28", "--metric", "cells", *capped) == cells


@pytest.mark.parametrize(
    ("argv", "line"),
    [
        (["triangle", "--m", "2", "--t", "3", "--rows", "abc"],
         "combtiles triangle: error: argument --rows: expected a positive integer, got abc"),
        (["sums", "--m", "1", "--t", "2", "--n", "2.5"],
         "combtiles sums: error: argument --n: expected a positive integer, got 2.5"),
        (["subsets", "--m", "1", "--t", "2", "--n", "2.5"],
         "combtiles subsets: error: argument --n: expected a non-negative integer, got 2.5"),
        (["subsets", "--m", "1", "--t", "2", "--n", "-1"],
         "combtiles subsets: error: argument --n: expected a non-negative integer, got -1"),
    ],
)
def test_bad_integer_values_name_the_expected_value(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[-1] == line


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse's help layout changed in 3.13")
@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_is_pinned(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == HELP_DIGESTS[command]


def test_profile_choices_are_the_suite_profiles():
    profile = next(o for o in cli._COMMANDS["verify"][2] if o[0] == "--profile")
    assert profile[1] == tuple(sorted(identities.PROFILES))


_BAD_VALUES = ("-1", "abc", "2.5", "", "bogus", "-h", "--m")


def _good_value(kind) -> st.SearchStrategy[str]:
    return st.sampled_from(kind if isinstance(kind, tuple) else ("1", "2", "3"))


def _bad_value(kind) -> st.SearchStrategy[str]:
    return st.sampled_from(_BAD_VALUES + (("0",) if kind is cli._positive else ()))


def _noise(options) -> st.SearchStrategy[list[str]]:
    """Words that make a request one the direct reader must decline."""
    option = st.sampled_from(options)
    return st.one_of(
        option.flatmap(lambda o: _good_value(o[1]).map(lambda v: [o[0][:-1] or "-", v])),
        option.flatmap(lambda o: _good_value(o[1]).map(lambda v: [f"{o[0]}={v}"])),
        option.map(lambda o: [o[0]] if o[1] is not bool else [o[0], "1"]),
        st.sampled_from([["-h"], ["--help"], ["--"], ["--bogus", "1"], ["extra"]]),
    )


def _outcome_of_main(argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_direct_reader_agrees_with_argparse(data):
    command = data.draw(st.sampled_from([*cli._COMMANDS, "bogus", "-h"]))
    options = cli._COMMANDS.get(command, cli._COMMANDS["subsets"])[2]
    # a well-formed request: every required option and some others, each
    # once, in any order; then at most one fault
    chunks = {}
    for flag, kind, default, _ in options:
        if default is cli._REQUIRED or data.draw(st.booleans()):
            chunks[flag] = [flag] if kind is bool else [flag, data.draw(_good_value(kind))]
    required = [flag for flag, _, default, _ in options if default is cli._REQUIRED]
    valued = [(flag, kind) for flag, kind, _, _ in options if kind is not bool]
    fault = data.draw(st.sampled_from(["none", "bad value", "missing", "repeat", "noise"]))
    extra = []
    if fault == "bad value":
        flag, kind = data.draw(st.sampled_from(valued))
        chunks[flag] = [flag, data.draw(_bad_value(kind))]
    elif fault == "missing" and required:
        del chunks[data.draw(st.sampled_from(required))]
    elif fault == "repeat" and chunks:
        extra = [data.draw(st.sampled_from(list(chunks.values())))]
    elif fault == "noise":
        extra = data.draw(st.lists(_noise(options), min_size=1, max_size=2))
    else:
        fault = "none"
    words = data.draw(st.permutations([*chunks.values(), *extra]))
    argv = [command, *itertools.chain.from_iterable(words)]

    read = cli._read(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            parsed = vars(_build_parser().parse_args(argv))
        except SystemExit:
            parsed = None
    if command in cli._COMMANDS:
        assert (read is not None) == (fault == "none"), argv
    if read is not None:
        assert vars(read) == parsed, argv
        outcome = _outcome_of_main(argv)
        with mock.patch.object(cli, "_read", return_value=None):
            assert _outcome_of_main(argv) == outcome, argv


def test_output_is_deterministic(run):
    first = run("triangle", "--m", "2", "--t", "4", "--rows", "13")
    second = run("triangle", "--m", "2", "--t", "4", "--rows", "13")
    assert first == second
    assert run("digraph", "--m", "4", "--t", "2") == run("digraph", "--m", "4", "--t", "2")
    assert run("verify") == run("verify")


def test_printed_counts_have_no_digit_cap(run):
    # the last of 3100 Fibonacci board counts has 648 digits, past a cap of 640
    fib = [1, 1]
    while len(fib) < 3100:
        fib.append(fib[-1] + fib[-2])
    expected = " ".join(map(str, fib)) + "\n"
    assert len(str(fib[-1])) == 648
    capped = hasattr(sys, "set_int_max_str_digits")
    if capped:
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
    try:
        result = run("sums", "--m", "1", "--t", "2", "--n", "3100", "--metric", "cells")
        # the closed form prints these counts from decimal; walk prints ints
        walked = run("sums", "--m", "1", "--t", "2", "--n", "3100", "--metric", "cells",
                     "--method", "walk")
        after = sys.get_int_max_str_digits() if capped else None
    finally:
        if capped:
            sys.set_int_max_str_digits(before)
    assert result == walked == (0, expected, "")
    if capped:
        assert after == 640


def test_cold_start_avoids_heavy_stdlib_modules():
    # without site only the package's own imports count. Each request, in a
    # fresh process, prints its exit code, the package modules that importing
    # the cli loads, those the request adds, and the heavy modules loaded:
    # only engines it runs, argparse only for help and usage errors, json for
    # none of these requests, and decimal only for cell counts past DECIMAL_BITS
    code = """
import contextlib, io, sys
from combtiles.cli import main
def package():
    return {n[10:] for n in sys.modules if n.startswith("combtiles.")}
before = package()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        status = main(sys.argv[1:])
    except SystemExit as exc:
        status = exc.code
heavy = {"argparse", "json", "dataclasses", "inspect", "typing", "decimal"} & set(sys.modules)
print(status, *sorted(before), "|", *sorted(package() - before), "|", *sorted(heavy))
"""
    cases = {
        "triangle --m 2 --t 3 --rows 8": "0 cli core engines | digraph recursion |",
        "triangle --m 2 --t 3 --kind board": "0 cli core engines | polynomials |",
        "sums --m 2 --t 3 --metric cells": "0 cli core engines | polynomials |",
        "sums --m 2 --t 3 --metric cells --format json": "0 cli core engines | polynomials |",
        "triangle --m 2 --t 3 --kind board --format json": "0 cli core engines | polynomials |",
        "sums --m 5 --t 3 --n 5000 --metric cells": "0 cli core engines | polynomials | decimal",
        "subsets --m 2 --t 3 --n 8 --count": "0 cli core engines | oracle |",
        "subsets --m 2 --t 3 --n 4 --format json": "0 cli core engines | oracle |",
        "digraph --m 2 --t 3": "0 cli core engines | digraph |",
        "metatiles --m 2 --t 3": "0 cli core engines | digraph |",
        "metatiles --m 2 --t 3 --format json": "0 cli core engines | digraph |",
        "recursion --m 2 --t 3": "0 cli core engines | digraph recursion |",
        "recursion --m 2 --t 3 --sums --format json": "0 cli core engines | digraph recursion | json",
        "recursion --m 6 --t 6": "1 cli core engines | digraph recursion |",
        "sums --m 2 --t 3 --method oracle": "0 cli core engines | oracle |",
        "verify --profile quick":
            "0 cli core engines | digraph identities oracle polynomials recursion |",
        "triangle --m 2 --t 3 --rows 0": "2 cli core engines | | argparse",
    }
    src = str(Path(__file__).resolve().parent.parent / "src")
    for request, expected in cases.items():
        done = subprocess.run(
            [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}",
             *request.split()],
            capture_output=True, text=True, timeout=120,
        )
        assert done.stdout == expected + "\n", (request, done.stderr)
