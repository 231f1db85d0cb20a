"""Engine dispatch: one function per table shape, whichever engine computes it.

``auto`` routes by shape: board triangles and cell counts come from the
product closed form (``poly``), tile triangles from walk counting, and tile
sums from ``relation``, the synthesized recursion, or walks if it is refused.

Each engine module is imported by the branch that runs it, so a request
loads only the engine it uses; the annotations that name their types are
never evaluated.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator

from .core import CombSpec, Metric, Triangle, TriangleKind, UnsupportedStructureError, check_int

METHODS = ("auto", "oracle", "poly", "recursion", "walk")


def _check(method: str, name: str, size: int) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    check_int(name, size, 1, sys.maxsize)


def _closed_form(kind: TriangleKind, method: str) -> bool:
    """Whether a table of this kind comes from the product closed form."""
    return method == "poly" or (method == "auto" and kind is TriangleKind.BOARD)


def _digraph(
    spec: CombSpec, metric: Metric, method: str
) -> tuple[MetatileDigraph, RecursionRelation | None]:
    """spec's digraph and its synthesized relation: None under ``walk`` or a refused ``auto``."""
    from .digraph import analyze_structure, build_digraph
    from .recursion import synthesize

    dg = build_digraph(spec)
    try:
        return dg, (None if method == "walk" else synthesize(analyze_structure(dg), metric))
    except UnsupportedStructureError:
        if method == "recursion":
            raise
        return dg, None


def relation(spec: CombSpec, metric: Metric) -> RecursionRelation:
    """The synthesized recursion; UnsupportedStructureError if the structure is refused."""
    return _digraph(spec, metric, "recursion")[1]


def triangle(spec: CombSpec, kind: TriangleKind, rows: int, method: str) -> Triangle:
    """Rows 0..rows-1 of the tile- or board-indexed triangle."""
    _check(method, "rows", rows)
    if method == "oracle":
        from .oracle import build_triangle

        return build_triangle(spec, kind, rows)
    if _closed_form(kind, method):
        from .polynomials import triangle_rows

        return Triangle(spec, kind, triangle_rows(spec, kind, rows))
    from .digraph import build_digraph
    from .recursion import evaluate, walk_count

    metric = Metric.TILES if kind is TriangleKind.TILE else Metric.CELLS
    if method == "recursion":
        tri = evaluate(relation(spec, metric), rows - 1)
        assert isinstance(tri, Triangle)
        return tri
    return walk_count(build_digraph(spec), metric, rows - 1)


def sums_text(spec: CombSpec, metric: Metric, n_terms: int, method: str) -> Iterator[str]:
    """``sums`` as decimal strings, each made as it is read; the terms are computed before
    this returns, and long closed-form cell counts never pass through int."""
    if metric is Metric.CELLS and _closed_form(metric.kind, method):
        _check(method, "n_terms", n_terms)
        from .polynomials import board_count_text

        return board_count_text(spec, n_terms)
    return map(str, sums(spec, metric, n_terms, method))


def sums(spec: CombSpec, metric: Metric, n_terms: int, method: str) -> list[int]:
    """Terms 0..n_terms-1: row sums by tile count, or board counts by cells."""
    _check(method, "n_terms", n_terms)
    if method == "oracle":
        from .oracle import build_triangle

        return list(build_triangle(spec, metric.kind, n_terms).row_sums())
    if _closed_form(metric.kind, method):
        from .polynomials import board_counts, triangle_rows

        if metric is Metric.CELLS:
            return board_counts(spec, n_terms)
        return [sum(row) for row in triangle_rows(spec, TriangleKind.TILE, n_terms)]
    from .recursion import evaluate, project_row_sum, walk_sums

    dg, rel = _digraph(spec, metric, method)
    if rel is None:
        return list(walk_sums(dg, metric, n_terms - 1))
    seq = evaluate(project_row_sum(rel), n_terms - 1)
    assert isinstance(seq, tuple)
    return list(seq)
