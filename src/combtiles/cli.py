"""Command line front end.

Subcommands expose the triangle builders, restricted subsets, the metatile
digraph, recursion synthesis, and the verification suite. Output goes to
stdout, diagnostics to stderr; identical invocations produce byte-identical
output. Exit codes: 0 success, 1 verification failure or refused structure,
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Iterator

from . import engines, oracle
from .core import CombSpec, TriangleKind
from .digraph import (
    UnsupportedStructureError,
    analyze_structure,
    build_digraph,
    compress_metatile,
    enumerate_metatiles,
    export_dot,
)
from .identities import PROFILES, reports_to_json, run_suite
from .recursion import Metric, project_row_sum, synthesize


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


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _cmd_triangle(args: argparse.Namespace) -> int:
    spec = _spec(args)
    kind = TriangleKind(args.kind)
    tri = engines.triangle(spec, kind, args.rows, args.method)
    if args.format == "csv":
        _emit(tri.to_csv())
    elif args.format == "json":
        _emit(tri.to_json() + "\n")
    else:
        lines = [" ".join(map(str, row)) for row in tri.rows]
        _emit("\n".join(lines) + "\n")
    return 0


def _cmd_sums(args: argparse.Namespace) -> int:
    spec = _spec(args)
    seq = engines.sums(spec, Metric(args.metric), args.n, args.method)
    if args.format == "bfile":
        _emit("".join(f"{i} {v}\n" for i, v in enumerate(seq)))
    elif args.format == "csv":
        _emit(",".join(map(str, seq)) + "\n")
    elif args.format == "json":
        _emit(json.dumps(seq) + "\n")
    else:
        _emit(" ".join(map(str, seq)) + "\n")
    return 0


def _cmd_subsets(args: argparse.Namespace) -> int:
    spec = _spec(args)
    if args.count:
        counts = oracle.subset_size_counts(spec, args.n, args.k)
        if args.k is not None:
            counts = counts[args.k : args.k + 1]
        _emit(f"{sum(counts)}\n")
        return 0
    # the listing is written as the search yields it, so it holds a few
    # thousand subsets at a time; a write per subset would cost a system call
    # per subset on an unbuffered stdout. A refused request raises before the
    # first subset and writes nothing.
    pieces = _subset_pieces(oracle.iter_restricted_subsets(spec, args.n, args.k), args.format)
    while chunk := "".join(itertools.islice(pieces, 4096)):
        _emit(chunk)
    return 0


def _subset_pieces(subsets: Iterator[oracle.RestrictedSubset], fmt: str) -> Iterator[str]:
    if fmt != "json":
        line = "{}\n" if fmt == "csv" else "{{{}}}\n"
        for s in subsets:
            yield line.format(",".join(map(str, s.members)))
        return
    sep = "["
    for s in subsets:
        yield sep + json.dumps(s.members)
        sep = ", "
    yield "[]\n" if sep == "[" else "]\n"


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


# parse_args leaves the parser unchanged, so one parser serves every main() call
@functools.cache
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
    p.add_argument("--method", choices=engines.METHODS, default="auto")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("sums", help="print row sums (tiles) or board counts (cells)")
    add_spec(p)
    p.add_argument("--n", type=_positive, default=16, help="number of terms")
    p.add_argument("--metric", choices=["tiles", "cells"], default="tiles")
    p.add_argument("--format", choices=["bfile", "csv", "json", "text"], default="text")
    p.add_argument("--method", choices=engines.METHODS, default="auto")
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
    # counts are printed in full: lift the interpreter's cap on the digits of an
    # int-to-str conversion (3.10.7 and later) while a command runs
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except UnsupportedStructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
