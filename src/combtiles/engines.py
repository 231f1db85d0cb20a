"""Engine dispatch: one function per table shape, whichever engine computes it.

``auto`` routes by shape. Board triangles and cell counts come from the
product closed form (``poly``). Tile triangles and tile sums use the
recursion synthesized from the digraph's cycle structure when the
structure classifies and fall back to walk counting otherwise.

Each engine module is imported by the branch that runs it, so a request
loads only the engine it uses; the annotations that name their types are
never evaluated.
"""

from __future__ import annotations

from .core import CombSpec, Metric, Triangle, TriangleKind, UnsupportedStructureError

METHODS = ("auto", "oracle", "poly", "recursion", "walk")


def _check_method(method: str) -> None:
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")


def _check_size(name: str, size: int) -> None:
    if size < 1:
        raise ValueError(f"{name} must be >= 1")


def _relation(dg: MetatileDigraph, metric: Metric, method: str) -> RecursionRelation | None:
    """The relation synthesized from dg, or None under ``walk`` or a refused ``auto``."""
    from .digraph import analyze_structure
    from .recursion import synthesize

    try:
        return None if method == "walk" else synthesize(analyze_structure(dg), metric)
    except UnsupportedStructureError:
        if method == "recursion":
            raise
        return None


def triangle(spec: CombSpec, kind: TriangleKind, rows: int, method: str) -> Triangle:
    """Rows 0..rows-1 of the tile- or board-indexed triangle."""
    _check_method(method)
    _check_size("rows", rows)
    if method == "oracle":
        from .oracle import build_triangle

        return build_triangle(spec, kind, rows)
    if method == "poly" or (method == "auto" and kind is TriangleKind.BOARD):
        from .polynomials import triangle_rows

        return Triangle.from_rows(spec, kind, triangle_rows(spec, kind, rows))
    from .digraph import build_digraph
    from .recursion import evaluate, walk_count

    metric = Metric.TILES if kind is TriangleKind.TILE else Metric.CELLS
    dg = build_digraph(spec)
    if (rel := _relation(dg, metric, method)) is None:
        return walk_count(dg, metric, rows - 1)
    tri = evaluate(rel, rows - 1)
    assert isinstance(tri, Triangle)
    return tri


def _closed_form(metric: Metric, method: str) -> bool:
    """Whether ``sums`` takes its terms from the product closed form."""
    return method == "poly" or (method == "auto" and metric is Metric.CELLS)


def sums_text(spec: CombSpec, metric: Metric, n_terms: int, method: str) -> list[str]:
    """``sums`` as decimal strings; long closed-form cell counts never pass through int."""
    if metric is Metric.CELLS and _closed_form(metric, method):
        _check_size("n_terms", n_terms)
        from .polynomials import board_count_text

        return board_count_text(spec, n_terms)
    return list(map(str, sums(spec, metric, n_terms, method)))


def sums(spec: CombSpec, metric: Metric, n_terms: int, method: str) -> list[int]:
    """Terms 0..n_terms-1: row sums by tile count, or board counts by cells."""
    _check_method(method)
    _check_size("n_terms", n_terms)
    if method == "oracle":
        from .oracle import build_triangle

        return list(build_triangle(spec, metric.kind, n_terms).row_sums())
    if _closed_form(metric, method):
        from .polynomials import board_counts, triangle_rows

        if metric is Metric.CELLS:
            return board_counts(spec, n_terms)
        return [sum(row) for row in triangle_rows(spec, TriangleKind.TILE, n_terms)]
    from .digraph import build_digraph
    from .recursion import evaluate, project_row_sum, walk_sums

    dg = build_digraph(spec)
    if (rel := _relation(dg, metric, method)) is None:
        return list(walk_sums(dg, metric, n_terms - 1))
    seq = evaluate(project_row_sum(rel), n_terms - 1)
    assert isinstance(seq, tuple)
    return list(seq)
