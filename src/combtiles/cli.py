"""Command line front end.

Subcommands expose the triangle builders, restricted subsets, the metatile
digraph, recursion synthesis, and the verification suite. Output goes to
stdout, diagnostics to stderr; identical invocations produce byte-identical
output. Exit codes: 0 success, 1 verification failure or refused structure,
2 usage error.

Each subcommand and its options are declared once, in ``_COMMANDS``. A
well-formed request is read straight from argv; argparse, built from the same
table, is imported only for help, usage errors and the forms the direct
reader leaves to it. Each engine module is imported by the handler, or the
``engines`` branch, that runs it, as ``identities`` is by ``verify``;
annotations naming its types are never evaluated.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterable
from types import SimpleNamespace

from . import engines
from .core import CombSpec, Metric, TriangleKind, UnsupportedStructureError


def _positive(text: str) -> int:
    return _integer(text, 1, "positive")


def _nonneg(text: str) -> int:
    return _integer(text, 0, "non-negative")


def _integer(text: str, least: int, word: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < least:
        raise ValueError(f"expected a {word} integer, got {text}")
    return value


def _spec(args: SimpleNamespace) -> CombSpec:
    return CombSpec(args.m, args.t)


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _cmd_triangle(args: SimpleNamespace) -> int:
    spec, kind = _spec(args), TriangleKind(args.kind)
    rows = engines.triangle(spec, kind, args.rows, args.method).rows
    if args.format == "json":
        # the bytes json.dumps writes, entries as decimal strings: nothing needs
        # escaping, and row 0 is always there to open the first row's brackets
        head = f'{{"m": {spec.m}, "t": {spec.t}, "kind": "{kind.value}", "rows": [["'
        _emit_listing(('", "'.join(map(str, row)) for row in rows), head, '"], ["', '"]]}\n')
    else:
        delimiter = "," if args.format == "csv" else " "
        _emit_listing((delimiter.join(map(str, row)) for row in rows), sep="\n", tail="\n")
    return 0


def _cmd_sums(args: SimpleNamespace) -> int:
    seq = engines.sums_text(_spec(args), Metric(args.metric), args.n, args.method)
    if args.format == "bfile":
        _emit_listing(f"{i} {v}\n" for i, v in enumerate(seq))
    elif args.format == "json":
        _emit_listing(seq, "[", ", ", "]\n")
    else:
        _emit_listing(seq, sep="," if args.format == "csv" else " ", tail="\n")
    return 0


def _cmd_subsets(args: SimpleNamespace) -> int:
    from .oracle import iter_restricted_subsets, subset_size_counts

    spec = _spec(args)
    if args.count:
        counts = subset_size_counts(spec, args.n, args.k)
        if args.k is not None:
            counts = counts[args.k : args.k + 1]
        _emit(f"{sum(counts)}\n")
        return 0
    subsets = iter_restricted_subsets(spec, args.n, args.k)
    if args.format == "json":
        items = ("[" + ", ".join(map(str, s.members)) + "]" for s in subsets)
        _emit_listing(items, "[", ", ", "]\n")
    else:
        line = "{}\n" if args.format == "csv" else "{{{}}}\n"
        _emit_listing(line.format(",".join(map(str, s.members))) for s in subsets)
    return 0


# output is written as it is produced, about this many characters at a time:
# one string of all of it would hold the text twice over, and a write per item
# would cost a system call each on an unbuffered stdout
_CHUNK_CHARS = 1 << 16


def _emit_listing(items: Iterable[str], head: str = "", sep: str = "", tail: str = "") -> None:
    """Write head, the items joined by sep, and tail, a chunk at a time.

    A chunk is written only once another item follows it, so its trailing sep is due.
    A refused request raises before the first item and writes nothing.
    """
    lead, chunk, size = head, [], 0
    for item in items:
        if size >= _CHUNK_CHARS:
            _emit(lead + sep.join(chunk) + sep)
            lead, chunk, size = "", [], 0
        chunk.append(item)
        size += len(item)
    _emit(lead + sep.join(chunk) + tail)


def _cmd_digraph(args: SimpleNamespace) -> int:
    from .digraph import analyze_structure, build_digraph, export_dot

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
        f"arcs: {len(dg.square) + len(dg.comb)}",
        f"kind: {structure.kind}",
        f"anchor: {structure.anchor or '-'}",
        f"inner cycles: {len(structure.inner_cycles)}",
        f"outer cycles: {len(structure.outer_cycles)}",
        f"circuits: {len(structure.circuits)}",
    ]
    _emit("\n".join(lines) + "\n")
    return 0


def _cmd_metatiles(args: SimpleNamespace) -> int:
    from .digraph import build_digraph, compress_metatile, enumerate_metatiles

    spec = _spec(args)
    tiles = enumerate_metatiles(build_digraph(spec), args.max_tiles)
    if args.format == "json":
        # labels are S and C, so json.dumps escapes nothing
        _emit_listing((f'"{label}"' for label in tiles), "[", ", ", "]\n")
    else:
        _emit_listing(compress_metatile(label) + "\n" for label in tiles)
    return 0


def _cmd_recursion(args: SimpleNamespace) -> int:
    from .recursion import project_row_sum

    rel = engines.relation(_spec(args), Metric(args.metric))
    if args.sums:
        rel = project_row_sum(rel)
    if args.format == "json":
        _emit(rel.to_json() + "\n")
    else:
        _emit(rel.render() + "\n")
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    from .identities import reports_to_json, run_suite

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


_REQUIRED = object()
_SPEC_OPTIONS = (
    ("--m", _positive, _REQUIRED, "comb gap modulus"),
    ("--t", _positive, _REQUIRED, "teeth per comb"),
)

# Every subcommand once: its handler, its help line and its options as
# (flag, kind, default, help). A kind is a converter, a tuple of choices or
# bool for a bare flag. argparse and _read are both built from this table.
# The profile names are identities.PROFILES, sorted; they are spelled here so
# that only verify imports identities.
_COMMANDS = {
    "triangle": (_cmd_triangle, "print a triangle of tiling counts", (
        *_SPEC_OPTIONS,
        ("--rows", _positive, 10, None),
        ("--kind", ("tile", "board"), "tile", None),
        ("--format", ("csv", "json", "text"), "csv", None),
        ("--method", engines.METHODS, "auto", None),
    )),
    "sums": (_cmd_sums, "print row sums (tiles) or board counts (cells)", (
        *_SPEC_OPTIONS,
        ("--n", _positive, 16, "number of terms"),
        ("--metric", ("tiles", "cells"), "tiles", None),
        ("--format", ("bfile", "csv", "json", "text"), "text", None),
        ("--method", engines.METHODS, "auto", None),
    )),
    "subsets": (_cmd_subsets, "list or count restricted subsets", (
        *_SPEC_OPTIONS,
        ("--n", _nonneg, _REQUIRED, "universe size"),
        ("--k", _nonneg, None, "subset size"),
        ("--count", bool, False, "print only the count"),
        ("--format", ("text", "csv", "json"), "text", None),
    )),
    "digraph": (_cmd_digraph, "emit the metatile digraph or its structure", (
        *_SPEC_OPTIONS,
        ("--format", ("dot", "json", "text"), "dot", None),
    )),
    "metatiles": (_cmd_metatiles, "list metatiles up to a tile bound", (
        *_SPEC_OPTIONS,
        ("--max-tiles", _positive, 8, None),
        ("--format", ("text", "json"), "text", None),
    )),
    "recursion": (_cmd_recursion, "print the synthesized recursion relation", (
        *_SPEC_OPTIONS,
        ("--metric", ("tiles", "cells"), "tiles", None),
        ("--sums", bool, False, "project the relation over k"),
        ("--format", ("text", "json"), "text", None),
    )),
    "verify": (_cmd_verify, "run the identity verification suite", (
        ("--profile", ("full", "quick"), "quick", None),
        ("--format", ("text", "json"), "text", None),
    )),
}


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed request, or None to leave it to argparse.

    Reads only a command, then options of its table entry, each at most once
    and each value as ``--flag value`` that passes its converter or choices.
    Help, abbreviations, ``--flag=value`` and every usage error are argparse's.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    func, _, options = _COMMANDS[argv[0]]
    kinds = {flag: kind for flag, kind, _, _ in options}
    given: dict[str, object] = {}
    words = iter(argv[1:])
    for flag in words:
        kind = kinds.get(flag)
        if kind is None or flag in given:
            return None
        if kind is bool:
            given[flag] = True
        # a flag at the end, with no value, reads as a "-" value
        elif (text := next(words, "-")).startswith("-"):
            return None
        elif isinstance(kind, tuple):
            if text not in kind:
                return None
            given[flag] = text
        else:
            try:
                given[flag] = kind(text)
            except ValueError:
                return None
    values = {
        flag[2:].replace("-", "_"): given.get(flag, default) for flag, _, default, _ in options
    }
    if _REQUIRED in values.values():
        return None
    return SimpleNamespace(command=argv[0], **values, func=func)


# parse_args leaves the parser unchanged, so one parser serves every main() call
@functools.cache
def _build_parser():
    import argparse

    # the converters raise ValueError, which _read catches without argparse;
    # argparse prints a converter's own message only for ArgumentTypeError
    def checked(convert):
        def check(text: str) -> int:
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None

        return check

    parser = argparse.ArgumentParser(
        prog="combtiles",
        description="Counts of board tilings by squares and combs, with "
        "triangles, recursions, digraphs, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, kind, default, help_text in options:
            if kind is bool:
                p.add_argument(flag, action="store_true", help=help_text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, default=default, help=help_text)
            elif default is _REQUIRED:
                p.add_argument(flag, type=checked(kind), required=True, help=help_text)
            else:
                p.add_argument(flag, type=checked(kind), default=default, help=help_text)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv)
    if args is None:
        # help, a usage error (exit 2), or a well-formed request that the
        # reader does not take, such as an abbreviated flag
        args = SimpleNamespace(**vars(_build_parser().parse_args(argv)))
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
