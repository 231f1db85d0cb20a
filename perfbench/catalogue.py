"""Operation catalogue of the benchmark, grouped into slots.

An operation is the argument list of one ``combtiles`` invocation. Each
workload is a list of slots; a slot holds variants of one computation
whose costs are close (same engine path and size class, different
family, output format or parameter), and says how many of them one pass
of the workload runs. A seed draws the variants for every slot and the
order of the pass, so every seed gives a different operation list with
the same amount of work. That keeps the spread between seeds a property
of the program, not of the draw.

Every operation here has a stored reference in ``references.json``
(written by ``make_refs.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

# Families over m 1..6, t 2..6, by what `--method auto` does with them
# at this catalogue's commit: the synthesizer classifies some, refuses
# others at once, refuses the rest only after spending its whole step
# budget, and (6,6) overflows the interpreter's recursion limit.
CLASSIFIED = [(1, t) for t in range(2, 7)] + [(2, t) for t in range(2, 6)] + [(3, 2), (4, 2)]
FAST_REFUSED = [(2, 6), (3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (5, 2), (6, 2)]
ALL_FAMILIES = [(m, t) for m in range(1, 7) for t in range(2, 7)]

TRIANGLE_FORMATS = ("csv", "json", "text")
SUMS_FORMATS = ("bfile", "csv", "json", "text")

Op = tuple[str, ...]


@dataclass(frozen=True)
class Slot:
    name: str
    count: int
    variants: tuple[Op, ...]


def _spec(m: int, t: int) -> list[str]:
    return ["--m", str(m), "--t", str(t)]


def _triangle(m: int, t: int, rows: int, kind: str, fmt: str, method: str | None = None) -> Op:
    argv = ["triangle", *_spec(m, t), "--rows", str(rows), "--kind", kind, "--format", fmt]
    if method:
        argv += ["--method", method]
    return tuple(argv)


def _sums(m: int, t: int, n: int, metric: str, fmt: str, method: str | None = None) -> Op:
    argv = ["sums", *_spec(m, t), "--n", str(n), "--metric", metric, "--format", fmt]
    if method:
        argv += ["--method", method]
    return tuple(argv)


def _slot(name: str, count: int, variants) -> Slot:
    ops = tuple(dict.fromkeys(tuple(v) for v in variants))
    if not ops:
        raise ValueError(f"slot {name} has no variants")
    return Slot(name, count, ops)


def _cold_cli() -> list[Slot]:
    # Four operations (the heavy group) cost at least 1.4 times walk-p90,
    # two come close to it (family-66 and verify-quick) and every other
    # operation costs under 0.75 of it. So the 90th latency percentile, the
    # 11th largest of 100, falls inside the 11 copies of walk-p90 whatever
    # the seed draws, and reads the walk fallback's cost, not the draw.
    oracle = "oracle"
    light_tile = [(m, t) for m in range(1, 7) for t in range(4, 7)]
    return [
        # --- the default `--method auto` path, what users run
        _slot("classified-triangle", 15, (
            _triangle(m, t, rows, kind, fmt)
            for (m, t), kind, rows, fmt in product(
                CLASSIFIED, ("tile", "board"), (20, 80, 150), TRIANGLE_FORMATS)
        )),
        _slot("classified-sums", 15, (
            _sums(m, t, n, metric, fmt)
            for (m, t), metric, n, fmt in product(
                CLASSIFIED, ("tiles", "cells"), (100, 500, 1500), SUMS_FORMATS)
        )),
        _slot("walk-light", 4, [
            *(_triangle(m, t, 30, "tile", fmt) for (m, t), fmt in product(FAST_REFUSED, TRIANGLE_FORMATS)),
            *(_triangle(m, t, 40, "board", fmt) for (m, t), fmt in product(FAST_REFUSED, TRIANGLE_FORMATS)),
            *(_sums(m, t, 100, "cells", fmt) for (m, t), fmt in product(FAST_REFUSED, SUMS_FORMATS)),
        ]),
        # the walk fallback over the other refused families
        _slot("walk-sums", 2, (
            _sums(m, t, n, "tiles", fmt)
            for (m, t, n), fmt in product(
                [(2, 6, 150), (3, 3, 110), (3, 4, 90), (3, 5, 80), (3, 6, 60), (5, 2, 90), (6, 2, 70)],
                SUMS_FORMATS)
        )),
        _slot("walk-triangle", 1, (
            _triangle(m, t, rows, "tile", fmt)
            for (m, t, rows), fmt in product([(3, 3, 90), (3, 4, 90), (5, 2, 90), (6, 2, 70)], TRIANGLE_FORMATS)
        )),
        # the p90 group: one walk-fallback tile sum, the output format drawn
        _slot("walk-p90", 11, (_sums(4, 3, 105, "tiles", f) for f in SUMS_FORMATS)),
        # the structure analysis spends its whole step budget before refusing
        # (heavy group)
        _slot("budget-44", 1, (_triangle(4, 4, 10, "tile", f) for f in TRIANGLE_FORMATS)),
        # small (6,6) requests: the answer is a few numbers
        _slot("family-66", 1, [
            *(_triangle(6, 6, rows, kind, "csv") for rows, kind in product(range(2, 7), ("tile", "board"))),
            *(_sums(6, 6, n, metric, "text") for n, metric in product(range(2, 9), ("tiles", "cells"))),
        ]),
        # --- ground truth: enumeration, identities and exhaustive digraph search
        # heavy group: the largest identity run, board enumeration and subset count
        _slot("verify-full", 1, [("verify", "--profile", "full", "--format", f) for f in ("text", "json")]),
        _slot("oracle-board-22", 1, (_triangle(2, 2, 21, "board", f, oracle) for f in TRIANGLE_FORMATS)),
        _slot("subsets-62", 1, [("subsets", *_spec(6, 2), "--n", "21", "--count")]),
        _slot("verify-quick", 1, [("verify", "--profile", "quick", "--format", f) for f in ("text", "json")]),
        *(
            _slot(f"oracle-tile-{m}{t}", 1, (_triangle(m, t, rows, "tile", f, oracle) for f in TRIANGLE_FORMATS))
            for m, t, rows in [(4, 3, 9), (6, 3, 10)]
        ),
        _slot("oracle-tile", 5, (
            _triangle(m, t, rows, "tile", fmt, oracle)
            for (m, t), rows, fmt in product(light_tile, (7, 8), TRIANGLE_FORMATS)
        )),
        _slot("oracle-board", 4, (
            _triangle(m, t, rows, "board", fmt, oracle)
            for (m, t), rows, fmt in product(ALL_FAMILIES, (12, 16), TRIANGLE_FORMATS)
        )),
        _slot("oracle-sums", 3, [
            *(_sums(m, t, 16, "cells", "text", oracle) for m, t in ALL_FAMILIES if m > 1),
            *(_sums(m, t, 8, "tiles", "text", oracle) for m, t in ALL_FAMILIES if m > 1),
        ]),
        _slot("subsets-count", 7, (
            ("subsets", *_spec(m, t), "--n", str(n), *(("--k", str(k)) if k is not None else ()), "--count")
            for (m, t), n, k in product(
                [(m, t) for m in range(2, 7) for t in range(2, 7)], (10, 14, 18), (None, 2, 4))
        )),
        # (6,6) is left out: its digraph alone costs nearly as much as walk-p90
        _slot("metatiles", 7, (
            ("metatiles", *_spec(m, t), "--max-tiles", str(mt), "--format", fmt)
            for (m, t), mt, fmt in product([f for f in ALL_FAMILIES if f != (6, 6)], (4, 6, 8), ("text", "json"))
        )),
        _slot("digraph-dot", 5, (
            ("digraph", *_spec(m, t), "--format", "dot")
            for m, t in ALL_FAMILIES if m <= 5
        )),
        _slot("recursion", 5, (
            ("recursion", *_spec(m, t), "--metric", metric, *(("--sums",) if sums else ()), "--format", fmt)
            for (m, t), metric, sums, fmt in product(
                CLASSIFIED, ("tiles", "cells"), (False, True), ("text", "json"))
        )),
        # a structure that fits no supported shape: documented exit 1
        _slot("refused", 3, [
            *(("recursion", *_spec(m, t)) for m, t in FAST_REFUSED),
            *(("digraph", *_spec(m, t), "--format", fmt) for (m, t), fmt in product(FAST_REFUSED, ("text", "json"))),
        ]),
        # inputs over the README's enumeration caps: documented exit 2
        _slot("over-cap", 4, [
            *(_triangle(m, t, rows, "tile", "csv", oracle) for (m, t), rows in product(ALL_FAMILIES, (24, 30))),
            *(_triangle(m, t, rows, "board", "csv", oracle) for (m, t), rows in product(ALL_FAMILIES, (28, 40))),
            *(("subsets", *_spec(m, t), "--n", str(n)) for (m, t), n in product(ALL_FAMILIES, (25, 30))),
            *(_sums(m, t, 28, "cells", "text", oracle) for m, t in ALL_FAMILIES),
        ]),
        # a deep metatile listing on a small digraph
        _slot("metatiles-deep", 1, [
            ("metatiles", "--m", "2", "--t", "3", "--max-tiles", "3000", "--format", fmt) for fmt in ("text", "json")
        ]),
    ]


def _poly_session() -> list[Slot]:
    # Five operations cost more than tile-50 and the rest less, so the 90th
    # latency percentile falls mid-way into the pinned tile-50 group; the
    # median falls inside the tile-40 group.
    poly = "poly"
    mid = [(m, t) for m in range(3, 7) for t in range(4, 7)]
    return [
        _slot("tile-90", 1, [_triangle(6, 6, 90, "tile", "csv", poly)]),
        _slot("tile-70", 3, (_triangle(3, 4, 70, "tile", fmt, poly) for fmt in TRIANGLE_FORMATS)),
        _slot("cells-5000", 1, [_sums(5, 3, 5000, "cells", "text", poly)]),
        _slot("tile-50", 12, (_triangle(6, 6, 50, "tile", fmt, poly) for fmt in TRIANGLE_FORMATS)),
        _slot("board-65", 2, (_triangle(3, 4, 65, "board", fmt, poly) for fmt in TRIANGLE_FORMATS)),
        _slot("tiles-40", 2, (
            _sums(m, t, 40, "tiles", fmt, poly)
            for (m, t), fmt in product([(1, 4), (1, 6), (3, 2), (3, 4), (3, 6), (6, 2)], SUMS_FORMATS)
        )),
        _slot("tile-40", 45, (
            _triangle(m, t, 40, "tile", fmt, poly) for (m, t), fmt in product(mid, TRIANGLE_FORMATS)
        )),
        _slot("cells-1000", 18, (
            _sums(m, t, n, "cells", fmt, poly)
            for (m, t), n, fmt in product(
                [(m, t) for m in range(4, 7) for t in range(2, 7)], (500, 1000), SUMS_FORMATS)
        )),
        _slot("tiles-30", 16, (
            _sums(m, t, n, "tiles", fmt, poly)
            for (m, t), n, fmt in product(ALL_FAMILIES, (20, 30), SUMS_FORMATS)
        )),
    ]


WORKLOADS: dict[str, list[Slot]] = {
    "cold-cli": _cold_cli(),
    "poly-session": _poly_session(),
}

# cold workloads start one `combtiles` process per operation; the session
# workload sends every operation to one long-lived process
SESSION_WORKLOADS = frozenset({"poly-session"})


def all_ops() -> list[Op]:
    """Every catalogued operation once, in catalogue order."""
    seen: dict[Op, None] = {}
    for slots in WORKLOADS.values():
        for slot in slots:
            seen.update(dict.fromkeys(slot.variants))
    return list(seen)


def draw(workload: str, seed: int) -> list[Op]:
    """The operation list of one pass: seeded variants per slot, seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops: list[Op] = []
    for slot in WORKLOADS[workload]:
        ops.extend(rng.choice(slot.variants) for _ in range(slot.count))
    rng.shuffle(ops)
    return ops
