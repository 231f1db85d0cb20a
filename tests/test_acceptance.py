"""Acceptance gate: seven criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines. Every
comparison is exact integer equality; the two timed criteria assert
wall-clock bounds.
"""

from __future__ import annotations

import time
from itertools import product
from math import comb

from combtiles import engines
from combtiles.core import CombSpec, TriangleKind, board_to_tile_index
from combtiles.digraph import analyze_structure, build_digraph
from combtiles.identities import run_suite
from combtiles.oracle import (
    build_triangle,
    enumerate_restricted_subsets,
    enumerate_tilings,
    join_boards,
    split_board,
    subset_to_tiling,
    tiling_to_subset,
)
from combtiles.polynomials import IntPolynomial, board_poly, power_series_div
from combtiles.recursion import (
    Metric,
    evaluate,
    project_row_sum,
    synthesize,
    walk_count,
    walk_sums,
)

from golden import (
    CELL_SUM_RELATIONS,
    CELL_SUMS,
    ENTRY_RELATIONS,
    GF_4_2,
    TILE_SUM_RELATIONS,
    TILE_SUMS,
    TRIANGLES,
)


def report(n: int, label: str, failures: list, extra: str = "") -> None:
    status = "PASS" if not failures else f"FAIL ({len(failures)}x)"
    tail = f" {extra}" if extra else ""
    print(f"criterion {n}: {status}  {label}{tail}")
    assert not failures, failures[:5]


def test_criterion_1_triangle_reproduction():
    t0 = time.perf_counter()
    failures = []
    for (m, t), rows in TRIANGLES.items():
        spec = CombSpec(m, t)
        # (3, 3) has no classifiable cycle structure, so no recursion
        methods = ["oracle", "walk"] + ([] if (m, t) == (3, 3) else ["recursion"])
        tris = {
            name: engines.triangle(spec, TriangleKind.TILE, 14, name) for name in methods
        }
        for n in range(14):
            for k in range(n + 1):
                expected = rows[n][k]
                board = n + (t - 1) * k
                j, r = divmod(board, m)
                if board_poly(spec, j, r).coefficient(k) != expected:
                    failures.append(("poly", m, t, n, k))
                for name, tri in tris.items():
                    if tri.entry(n, k) != expected:
                        failures.append((name, m, t, n, k))
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    report(1, "four triangles, rows 0-13, all engines", failures, f"[{elapsed:.1f}s]")


def test_criterion_2_recursion_synthesis_exactness():
    failures = []
    for (m, t), (deltas, shifts) in ENTRY_RELATIONS.items():
        st = analyze_structure(build_digraph(CombSpec(m, t)))
        rel = synthesize(st, Metric.TILES)
        if {(n, k): c for n, k, c in rel.delta_terms} != deltas:
            failures.append(("entry deltas", m, t))
        if {(n, k): c for n, k, c in rel.shift_terms} != shifts:
            failures.append(("entry shifts", m, t))
    for metric, table in [
        (Metric.TILES, TILE_SUM_RELATIONS),
        (Metric.CELLS, CELL_SUM_RELATIONS),
    ]:
        for (m, t), (deltas, shifts) in table.items():
            st = analyze_structure(build_digraph(CombSpec(m, t)))
            rel = project_row_sum(synthesize(st, metric))
            if {n: c for n, _, c in rel.delta_terms} != deltas:
                failures.append((metric.value, "deltas", m, t))
            if {n: c for n, _, c in rel.shift_terms} != shifts:
                failures.append((metric.value, "shifts", m, t))
    report(2, "12 synthesized relations match the published term lists", failures)


def test_criterion_3_sequence_prefixes():
    failures = []
    for metric, table in [(Metric.TILES, TILE_SUMS), (Metric.CELLS, CELL_SUMS)]:
        for (m, t), seq in table.items():
            dg = build_digraph(CombSpec(m, t))
            rel = project_row_sum(synthesize(analyze_structure(dg), metric))
            if evaluate(rel, len(seq) - 1) != tuple(seq):
                failures.append(("recursion", metric.value, m, t))
            if walk_sums(dg, metric, len(seq) - 1) != tuple(seq):
                failures.append(("walk", metric.value, m, t))
    report(3, "eight published sequence prefixes, two engines", failures)


def test_criterion_4_generating_function():
    num, den_factors = GF_4_2
    den = IntPolynomial((1,))
    for factor in den_factors:
        den = den * IntPolynomial(factor)
    got = power_series_div(num, den.coeffs, 12)
    failures = [] if got == TILE_SUMS[(4, 2)][:12] else [("gf", got)]
    report(4, "series expansion matches the 12-term tile-sum prefix", failures)


def test_criterion_5_bijection_suites():
    failures = []
    for m, t in product(range(1, 5), range(2, 6)):
        spec = CombSpec(m, t)
        pad = (t - 1) * m
        board_tri = walk_count(build_digraph(spec), Metric.CELLS, 14 + pad)
        for n in range(15):
            # subset <-> tiling: round trip and count equality by k
            by_k: dict[int, int] = {}
            seen = set()
            for sub in enumerate_restricted_subsets(spec, n):
                tl = subset_to_tiling(sub)
                if tiling_to_subset(tl) != sub:
                    failures.append(("roundtrip", m, t, n, sub.members))
                seen.add(tl)
                by_k[sub.k] = by_k.get(sub.k, 0) + 1
            if len(seen) != sum(by_k.values()):
                failures.append(("injectivity", m, t, n))
            for k in range(n + 1):
                if by_k.get(k, 0) != board_tri.entry(n + pad, k):
                    failures.append(("count", m, t, n, k))
        sub_spec = CombSpec(1, t)
        sub_counts = [
            [sum(1 for tl in enumerate_tilings(sub_spec, ln) if tl.n_combs == k)
             for k in range(ln + 1)]
            for ln in range(16)
        ]
        for n in range(15):
            # split/join: round trip and the convolution count identity
            tilings = enumerate_tilings(spec, n)
            by_k = {}
            for tl in tilings:
                parts = split_board(tl)
                if join_boards(spec, parts) != tl:
                    failures.append(("split", m, t, n, tl.placements))
                by_k[tl.n_combs] = by_k.get(tl.n_combs, 0) + 1
            j, r = divmod(n, m)
            lengths = [j + 1] * r + [j] * (m - r)
            for k in range(n + 1):
                conv = 0
                for split_ks in product(*(range(ln + 1) for ln in lengths)):
                    if sum(split_ks) != k:
                        continue
                    term = 1
                    for ln, sk in zip(lengths, split_ks):
                        term *= sub_counts[ln][sk]
                    conv += term
                if by_k.get(k, 0) != conv:
                    failures.append(("convolution", m, t, n, k))
    report(5, "bijection suites on the m<=4, t<=5, n<=14 grid", failures)


def test_criterion_6_identity_suite_full():
    t0 = time.perf_counter()
    reports = run_suite("full")
    elapsed = time.perf_counter() - t0
    failures = [
        (r.check_name, r.failures[:2]) for r in reports if not r.passed
    ]
    if elapsed >= 120.0:
        failures.append(("runtime", elapsed))
    cases = sum(r.cases_run for r in reports)
    report(
        6,
        f"full identity suite, {len(reports)} checks, {cases} cases",
        failures,
        f"[{elapsed:.1f}s]",
    )


def test_criterion_7_pascal_degeneration():
    failures = []
    for t in range(2, 6):
        spec = CombSpec(1, t)
        tri = walk_count(build_digraph(spec), Metric.TILES, 16)
        oracle_tri = build_triangle(spec, TriangleKind.TILE, 10)
        for n in range(17):
            for k in range(n + 1):
                if tri.entry(n, k) != comb(n, k):
                    failures.append(("walk", t, n, k))
                if n < 10 and oracle_tri.entry(n, k) != comb(n, k):
                    failures.append(("oracle", t, n, k))
    report(7, "m=1 triangles degenerate to binomial coefficients", failures)
