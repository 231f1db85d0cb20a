"""Command line front end.

Subcommands expose the triangle builders, restricted subsets, the metatile
digraph, recursion synthesis, and the verification suite. Output goes to
stdout, diagnostics to stderr; identical invocations produce byte-identical
output. Exit codes: 0 success, 1 verification failure or refused structure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Iterator

from . import oracle
from .core import CombSpec, Triangle, TriangleKind
from .digraph import (
    UnsupportedStructureError,
    analyze_structure,
    build_digraph,
    compress_metatile,
    enumerate_metatiles,
    export_dot,
)
from .identities import PROFILES, reports_to_json, run_suite
from .polynomials import board_counts, board_products
from .recursion import (
    Metric,
    evaluate,
    project_row_sum,
    synthesize,
    walk_count,
)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonneg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return value


def _spec(args: argparse.Namespace) -> CombSpec:
    return CombSpec(args.m, args.t)


def _metric_for_kind(kind: TriangleKind) -> Metric:
    return Metric.TILES if kind is TriangleKind.TILE else Metric.CELLS


def _poly_tile_cells(spec: CombSpec, rows: int) -> Iterator[tuple[int, int, int]]:
    """(n, k, entry) of the tile triangle's rows n < rows, one product per board.

    Cell (b - (t-1)k, k) is [x^k] P_b; deg P_b <= b/t keeps every cell in k <= n.
    """
    shift = spec.t - 1
    for b, prod in enumerate(board_products(spec, spec.t * (rows - 1))):
        for k, c in enumerate(prod.coeffs):
            n = b - shift * k
            if n < rows:
                yield n, k, c


def _poly_triangle(spec: CombSpec, kind: TriangleKind, rows: int) -> Triangle:
    if kind is TriangleKind.BOARD:
        table = [
            [prod.coefficient(k) for k in range(n + 1)]
            for n, prod in enumerate(board_products(spec, rows - 1))
        ]
    else:
        table = [[0] * (n + 1) for n in range(rows)]
        for n, k, c in _poly_tile_cells(spec, rows):
            table[n][k] = c
    return Triangle.from_rows(spec, kind, table)


def _triangle_by_method(
    spec: CombSpec, kind: TriangleKind, rows: int, method: str
) -> Triangle:
    if method == "oracle":
        return oracle.build_triangle(spec, kind, rows)
    if method == "poly":
        return _poly_triangle(spec, kind, rows)
    metric = _metric_for_kind(kind)
    if method == "recursion":
        rel = synthesize(analyze_structure(build_digraph(spec)), metric)
        tri = evaluate(rel, rows - 1)
        assert isinstance(tri, Triangle)
        return tri
    if method == "walk":
        tri = walk_count(build_digraph(spec), metric, rows - 1)
        assert isinstance(tri, Triangle)
        return tri
    # auto: synthesized recursion when the structure supports it, else walk DP
    try:
        return _triangle_by_method(spec, kind, rows, "recursion")
    except UnsupportedStructureError:
        return _triangle_by_method(spec, kind, rows, "walk")


def _sums_by_method(
    spec: CombSpec, metric: Metric, n_terms: int, method: str
) -> list[int]:
    if method == "oracle":
        kind = TriangleKind.TILE if metric is Metric.TILES else TriangleKind.BOARD
        return list(oracle.build_triangle(spec, kind, n_terms).row_sums())
    if method == "poly":
        if metric is Metric.CELLS:
            return board_counts(spec, n_terms)
        out = [0] * n_terms
        for n, _, c in _poly_tile_cells(spec, n_terms):
            out[n] += c
        return out
    if method == "recursion":
        rel = project_row_sum(synthesize(analyze_structure(build_digraph(spec)), metric))
        seq = evaluate(rel, n_terms - 1)
        assert isinstance(seq, tuple)
        return list(seq)
    if method == "walk":
        seq = walk_count(build_digraph(spec), metric, n_terms - 1, tracks_k=False)
        assert isinstance(seq, tuple)
        return list(seq)
    try:
        return _sums_by_method(spec, metric, n_terms, "recursion")
    except UnsupportedStructureError:
        return _sums_by_method(spec, metric, n_terms, "walk")


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _cmd_triangle(args: argparse.Namespace) -> int:
    spec = _spec(args)
    kind = TriangleKind(args.kind)
    tri = _triangle_by_method(spec, kind, args.rows, args.method)
    if args.format == "csv":
        _emit(tri.to_csv())
    elif args.format == "json":
        _emit(tri.to_json() + "\n")
    else:
        lines = [" ".join(str(v) for v in row) for row in tri.rows]
        _emit("\n".join(lines) + "\n")
    return 0


def _cmd_sums(args: argparse.Namespace) -> int:
    spec = _spec(args)
    seq = _sums_by_method(spec, Metric(args.metric), args.n, args.method)
    if args.format == "bfile":
        _emit("".join(f"{i} {v}\n" for i, v in enumerate(seq)))
    elif args.format == "csv":
        _emit(",".join(str(v) for v in seq) + "\n")
    elif args.format == "json":
        _emit(json.dumps(seq) + "\n")
    else:
        _emit(" ".join(str(v) for v in seq) + "\n")
    return 0


def _cmd_subsets(args: argparse.Namespace) -> int:
    spec = _spec(args)
    subsets = oracle.enumerate_restricted_subsets(spec, args.n, args.k)
    if args.count:
        _emit(f"{len(subsets)}\n")
        return 0
    if args.format == "json":
        _emit(json.dumps([list(s.members) for s in subsets]) + "\n")
    elif args.format == "csv":
        _emit("".join(",".join(str(v) for v in s.members) + "\n" for s in subsets))
    else:
        _emit("".join("{" + ",".join(str(v) for v in s.members) + "}\n" for s in subsets))
    return 0


def _cmd_digraph(args: argparse.Namespace) -> int:
    spec = _spec(args)
    dg = build_digraph(spec)
    if args.format == "dot":
        _emit(export_dot(dg))
        return 0
    structure = analyze_structure(dg)
    if args.format == "json":
        _emit(structure.to_json() + "\n")
        return 0
    lines = [
        f"nodes: {len(dg.nodes)}",
        f"arcs: {len(dg.arcs)}",
        f"kind: {structure.kind}",
        f"anchor: {structure.anchor or '-'}",
        f"inner cycles: {len(structure.inner_cycles)}",
        f"outer cycles: {len(structure.outer_cycles)}",
        f"circuits: {len(structure.circuits)}",
    ]
    _emit("\n".join(lines) + "\n")
    return 0


def _cmd_metatiles(args: argparse.Namespace) -> int:
    spec = _spec(args)
    tiles = enumerate_metatiles(build_digraph(spec), args.max_tiles)
    if args.format == "json":
        _emit(json.dumps(tiles) + "\n")
    else:
        _emit("".join(compress_metatile(label) + "\n" for label in tiles))
    return 0


def _cmd_recursion(args: argparse.Namespace) -> int:
    spec = _spec(args)
    rel = synthesize(analyze_structure(build_digraph(spec)), Metric(args.metric))
    if args.sums:
        rel = project_row_sum(rel)
    if args.format == "json":
        _emit(rel.to_json() + "\n")
    else:
        _emit(rel.render() + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_suite(args.profile)
    if args.format == "json":
        _emit(reports_to_json(reports) + "\n")
    else:
        for report in reports:
            status = "PASS" if report.passed else "FAIL"
            line = f"{status} {report.check_name} ({report.cases_run} cases)"
            if report.failures:
                line += f" [{len(report.failures)} failures]"
            _emit(line + "\n")
            for params, expected, actual in report.failures[:3]:
                _emit(f"  at {params}: expected {expected}, got {actual}\n")
        failed = sum(1 for r in reports if not r.passed)
        _emit(
            "all checks passed\n" if failed == 0 else f"{failed} check(s) failed\n"
        )
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combtiles",
        description="Counts of board tilings by squares and combs, with "
        "triangles, recursions, digraphs, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p: argparse.ArgumentParser) -> None:
        p.add_argument("--m", type=_positive, required=True, help="comb gap modulus")
        p.add_argument("--t", type=_positive, required=True, help="teeth per comb")

    p = sub.add_parser("triangle", help="print a triangle of tiling counts")
    add_spec(p)
    p.add_argument("--rows", type=_positive, default=10)
    p.add_argument("--kind", choices=["tile", "board"], default="tile")
    p.add_argument("--format", choices=["csv", "json", "text"], default="csv")
    p.add_argument(
        "--method",
        choices=["auto", "oracle", "poly", "recursion", "walk"],
        default="auto",
    )
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("sums", help="print row sums (tiles) or board counts (cells)")
    add_spec(p)
    p.add_argument("--n", type=_positive, default=16, help="number of terms")
    p.add_argument("--metric", choices=["tiles", "cells"], default="tiles")
    p.add_argument("--format", choices=["bfile", "csv", "json", "text"], default="text")
    p.add_argument(
        "--method",
        choices=["auto", "oracle", "poly", "recursion", "walk"],
        default="auto",
    )
    p.set_defaults(func=_cmd_sums)

    p = sub.add_parser("subsets", help="list or count restricted subsets")
    add_spec(p)
    p.add_argument("--n", type=_nonneg, required=True, help="universe size")
    p.add_argument("--k", type=_nonneg, default=None, help="subset size")
    p.add_argument("--count", action="store_true", help="print only the count")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.set_defaults(func=_cmd_subsets)

    p = sub.add_parser("digraph", help="emit the metatile digraph or its structure")
    add_spec(p)
    p.add_argument("--format", choices=["dot", "json", "text"], default="dot")
    p.set_defaults(func=_cmd_digraph)

    p = sub.add_parser("metatiles", help="list metatiles up to a tile bound")
    add_spec(p)
    p.add_argument("--max-tiles", type=_positive, default=8, dest="max_tiles")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_metatiles)

    p = sub.add_parser("recursion", help="print the synthesized recursion relation")
    add_spec(p)
    p.add_argument("--metric", choices=["tiles", "cells"], default="tiles")
    p.add_argument("--sums", action="store_true", help="project the relation over k")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_recursion)

    p = sub.add_parser("verify", help="run the identity verification suite")
    p.add_argument("--profile", choices=sorted(PROFILES), default="quick")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedStructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
