"""Spans and counts around the public functions of each ``combtiles`` layer.

The tracer wraps a fixed list of functions from outside the package.
``combtiles.cli`` (like the other modules) imports functions by name, so a
function is replaced in every ``combtiles`` module that binds it, not only
where it is defined. Each call records a span (name, start, end, parent)
into flat in-memory arrays; counts are read from the call's arguments, its
result or, for ``bonacci_poly``, from ``cache_info()``. ``dump`` writes the
spans and a summary at the end of the process or of a session pass.

Span file layout (``<tag>.spans``): four arrays written back to back with
``array.tofile`` in native byte order, each ``count`` long: name index
(``H``), start (``d``), end (``d``) and parent span index (``i``, -1 for a
root). ``<tag>.json`` holds the names, the count and the summary.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _mul(c, fn, args, kwargs, result, exc, dur) -> None:
    c["polynomials.mul.coeff_products"] += len(args[0].coeffs) * len(args[1].coeffs)


def _walk_count(c, fn, args, kwargs, result, exc, dur) -> None:
    a = _bound(fn, args, kwargs)
    c["recursion.walk_count.states"] += len(a["dg"].nodes) * (a["n_max"] + 1)


def _analyze(c, fn, args, kwargs, result, exc, dur) -> None:
    if exc is None:
        c["digraph.analyze_structure.ok"] += 1
    elif type(exc).__name__ == "UnsupportedStructureError":
        c["digraph.analyze_structure.refused"] += 1


def _build_digraph(c, fn, args, kwargs, result, exc, dur) -> None:
    if exc is None:
        c["digraph.build_digraph.nodes"] += len(result.nodes)
        c["digraph.build_digraph.arcs"] += len(result.arcs)


def _evaluate(c, fn, args, kwargs, result, exc, dur) -> None:
    if exc is None:
        rows = getattr(result, "rows", None)
        c["recursion.evaluate.values"] += sum(map(len, rows)) if rows is not None else len(result)


def _tilings(c, fn, args, kwargs, result, exc, dur) -> None:
    if exc is None:
        c["oracle.tilings"] += len(result)


def _subsets(c, fn, args, kwargs, result, exc, dur) -> None:
    if exc is None:
        c["oracle.subsets"] += len(result)


def _run_check(c, fn, args, kwargs, result, exc, dur) -> None:
    c[f"identities.run_check.{_bound(fn, args, kwargs)['name']}.s"] += dur
    if exc is None:
        c["identities.cases"] += result.cases_run


# (module, attribute path, span name, count hook)
TARGETS = [
    ("combtiles.cli", "main", "cli.main", None),
    ("combtiles.core", "Triangle.from_rows", "core.Triangle.from_rows", None),
    ("combtiles.core", "Triangle.to_csv", "core.Triangle.to_csv", None),
    ("combtiles.oracle", "build_triangle", "oracle.build_triangle", None),
    ("combtiles.oracle", "enumerate_tilings", "oracle.enumerate_tilings", _tilings),
    ("combtiles.oracle", "enumerate_tile_tilings", "oracle.enumerate_tile_tilings", _tilings),
    ("combtiles.oracle", "enumerate_restricted_subsets", "oracle.enumerate_restricted_subsets", _subsets),
    ("combtiles.polynomials", "IntPolynomial.__mul__", "polynomials.mul", _mul),
    ("combtiles.polynomials", "IntPolynomial.__pow__", "polynomials.pow", None),
    ("combtiles.polynomials", "entry_via_poly", "polynomials.entry_via_poly", None),
    ("combtiles.polynomials", "antidiagonal_sum_closed", "polynomials.antidiagonal_sum_closed", None),
    ("combtiles.digraph", "build_digraph", "digraph.build_digraph", _build_digraph),
    ("combtiles.digraph", "analyze_structure", "digraph.analyze_structure", _analyze),
    ("combtiles.digraph", "enumerate_metatiles", "digraph.enumerate_metatiles", None),
    ("combtiles.digraph", "export_dot", "digraph.export_dot", None),
    ("combtiles.recursion", "synthesize", "recursion.synthesize", None),
    ("combtiles.recursion", "project_row_sum", "recursion.project_row_sum", None),
    ("combtiles.recursion", "evaluate", "recursion.evaluate", _evaluate),
    ("combtiles.recursion", "walk_count", "recursion.walk_count", _walk_count),
    ("combtiles.identities", "run_check", "identities.run_check", _run_check),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        self.depth.append(0)
        calls_key, time_key = f"{name}.calls", f"{name}.s"
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack, depth, counts = self.stack, self.depth, self.counts

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            outer = depth[nid] == 0
            depth[nid] += 1
            result = exc = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                depth[nid] -= 1
                starts[idx] = t0
                ends[idx] = t1
                counts[calls_key] += 1
                if outer:
                    # nested calls of the same function are inside this span
                    counts[time_key] += t1 - t0
                if hook is not None:
                    hook(counts, fn, args, kwargs, result, exc, t1 - t0)

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every target wherever a ``combtiles`` module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "combtiles" or n.startswith("combtiles.")]
        for module_name, path, name, hook in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, hook)))
                continue
            wrapped = self.wrap(name, raw, hook)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)

    def summary(self) -> dict:
        count = len(self.span_start)
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * count
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += durations[i]
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            self_s[nid] += durations[i] - child[i]
        counts = dict(self.counts)
        for nid, name in enumerate(self.names):
            counts[f"{name}.self_s"] = self_s[nid]
        bonacci = getattr(sys.modules.get("combtiles.polynomials"), "bonacci_poly", None)
        info = bonacci.cache_info() if hasattr(bonacci, "cache_info") else None
        if info is not None:
            counts["polynomials.bonacci_poly.hits"] = info.hits
            counts["polynomials.bonacci_poly.misses"] = info.misses
            counts["polynomials.bonacci_poly.cache_size"] = info.currsize
        return {"spans": count, "missing": self.missing, "counts": counts}

    def dump(self, directory: Path, tag: str, extra: dict) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{tag}.spans", "wb") as fh:
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)
        summary = self.summary()
        summary["names"] = self.names
        summary.update(extra)
        (directory / f"{tag}.json").write_text(json.dumps(summary))
