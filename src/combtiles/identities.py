"""Named verification checks over the triangle family, run on parameter grids.

Each check evaluates both sides of one identity with exact integers over a
bounded parameter grid and records every mismatch. Triangle entries come from the
walk counter over the metatile digraph (itself validated against the
enumeration oracle elsewhere), so each identity is probed independently of
the recursion synthesizer it may also be compared with.

A check is a function ``(profile, recorder) -> grid description``,
registered by ``@_check`` under its name without the ``_check_`` prefix;
``run_check`` builds the report from the recorder. A check of single
tile-triangle entries against a formula is stated as a point list instead:
``@_entry_check`` registers a generator of ``(label, n, k, expected)`` for
one family, and ``_record_entries`` runs it on every family of the grid.
Closed-form products come from ``polynomials.board_poly``: schoolbook
``IntPolynomial`` products of the family built from its binomial
coefficients, independent of the recurrence the packed engine runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Iterator, Sequence

from . import engines
from .core import CombSpec, Frozen, Metric, Triangle, TriangleKind, board_to_tile_index, max_combs
from .oracle import _board_comb_counts, subset_size_counts
from .polynomials import (
    IntPolynomial,
    antidiagonal_sum_closed,
    board_poly,
    bonacci_numbers,
    bonacci_poly,
    power_series_div,
)
from .recursion import RecursionRelation, project_row_sum


class GridProfile(Frozen):
    __slots__ = _fields = ("name", "max_m", "max_t", "max_n")

    def __init__(self, name: str, max_m: int, max_t: int, max_n: int) -> None:
        self._set(name, max_m, max_t, max_n)


PROFILES = {
    "quick": GridProfile("quick", 3, 4, 14),
    "full": GridProfile("full", 4, 5, 20),
}


class CheckReport(Frozen):
    __slots__ = _fields = ("check_name", "grid", "cases_run", "failures", "notes")

    def __init__(
        self, check_name: str, grid: str, cases_run: int,
        failures: tuple[tuple[str, str, str], ...] = (), notes: str = "",
    ) -> None:
        self._set(check_name, grid, cases_run, failures, notes)

    @property
    def passed(self) -> bool:
        return self.cases_run > 0 and not self.failures

    def as_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "grid": self.grid,
            "cases_run": self.cases_run,
            "passed": self.passed,
            "failures": [list(f) for f in self.failures],
            "notes": self.notes,
        }


def reports_to_json(reports: list[CheckReport]) -> str:
    import json

    return json.dumps([r.as_dict() for r in reports], indent=2)


class _Recorder:
    """Accumulates cases, mismatches and notes for one check."""

    def __init__(self) -> None:
        self.cases = 0
        self.failures: list[tuple[str, str, str]] = []
        self.notes = ""

    def record(self, params: str, expected: object, actual: object) -> None:
        self.cases += 1
        if expected != actual:
            self.failures.append((params, str(expected), str(actual)))


def _binom(a: int, b: int) -> int:
    # convention: 0 whenever b < 0 or a < b
    if b < 0 or a < b or a < 0:
        return 0
    return math.comb(a, b)


# cache sizes hold every key the full profile asks for, so a suite run
# recomputes nothing and a long-lived process keeps a bounded cache
@functools.lru_cache(maxsize=128)
def _triangle(spec: CombSpec, kind: TriangleKind, n_max: int) -> Triangle:
    return engines.triangle(spec, kind, n_max + 1, "walk")


def _specs(p: GridProfile) -> list[CombSpec]:
    return [
        CombSpec(m, t)
        for m in range(1, p.max_m + 1)
        for t in range(2, p.max_t + 1)
    ]


def _grid_desc(p: GridProfile, extra: str = "") -> str:
    base = f"m<={p.max_m} t<={p.max_t} n<={p.max_n}"
    return f"{base}, {extra}" if extra else base


# checks by name, in the order the suite runs them
_REGISTRY: dict[str, Callable[[GridProfile, _Recorder], str]] = {}


def _check(
    check: Callable[[GridProfile, _Recorder], str],
) -> Callable[[GridProfile, _Recorder], str]:
    _REGISTRY[check.__name__.removeprefix("_check_")] = check
    return check


# (label, n, k, expected): one tile-triangle entry and the value a formula gives it
_Point = tuple[str, int, int, int]
# the points of one family (spec, max_n), in the order they are recorded
_Points = Callable[[CombSpec, int], Iterable[_Point]]


def _record_entries(p: GridProfile, rec: _Recorder, points: _Points) -> None:
    """Records each point of each family that lies in the grid, 0 <= k <= n <= max_n."""
    for spec in _specs(p):
        tile = _triangle(spec, TriangleKind.TILE, p.max_n)
        for label, n, k, expected in points(spec, p.max_n):
            if 0 <= k <= n <= p.max_n:
                rec.record(f"m={spec.m} t={spec.t} {label}", expected, tile.entry(n, k))


def _entry_check(extra: str = "") -> Callable[[_Points], _Points]:
    """Registers a point list as a check; ``extra`` is added to the grid description."""

    def register(points: _Points) -> _Points:
        @_check
        @functools.wraps(points)
        def check(p: GridProfile, rec: _Recorder) -> str:
            _record_entries(p, rec, points)
            return _grid_desc(p, extra)

        return points

    return register


# Recurrence term lists for four sample specs, transcribed independently
# as (delta terms, shift terms) keyed by (n, k) or by n for the summed
# forms. These pin the synthesizer's exact output, not just its values.
_KNOWN_ENTRY_RELATIONS: dict[tuple[int, int], tuple[dict, dict]] = {
    (2, 3): (
        {(0, 0): 1, (1, 1): -1},
        {(1, 0): 1, (1, 1): 1, (2, 1): -1, (2, 2): 1, (3, 1): 1, (3, 3): -1},
    ),
    (2, 4): (
        {(0, 0): 1, (2, 1): -1, (2, 2): -1},
        {
            (1, 0): 1,
            (2, 1): 1,
            (2, 2): 2,
            (3, 1): -1,
            (3, 2): -1,
            (4, 1): 1,
            (4, 2): 1,
            (4, 3): -1,
            (4, 4): -1,
        },
    ),
    (4, 2): (
        {(0, 0): 1, (2, 1): -1, (3, 2): -1, (4, 4): -1},
        {
            (1, 0): 1,
            (2, 1): 1,
            (3, 1): -1,
            (3, 2): 1,
            (4, 1): 1,
            (4, 3): 1,
            (4, 4): 2,
            (5, 2): 1,
            (5, 3): 2,
            (5, 4): -1,
            (6, 3): -1,
            (6, 5): -1,
            (7, 4): -1,
            (7, 5): -1,
            (7, 6): -1,
            (8, 7): -1,
            (8, 8): -1,
        },
    ),
    (2, 5): (
        {(0, 0): 1, (1, 1): -1, (2, 2): -1, (3, 1): -1, (3, 3): 1},
        {
            (1, 0): 1,
            (1, 1): 1,
            (2, 1): -1,
            (2, 2): 2,
            (3, 1): 1,
            (3, 2): -1,
            (3, 3): -2,
            (4, 1): -1,
            (4, 2): 1,
            (4, 3): 1,
            (4, 4): -1,
            (5, 1): 1,
            (5, 3): -2,
            (5, 5): 1,
        },
    ),
}

_KNOWN_TILE_SUM_RELATIONS: dict[tuple[int, int], tuple[dict, dict]] = {
    (2, 3): ({0: 1, 1: -1}, {1: 2}),
    (2, 4): ({0: 1, 2: -2}, {1: 1, 2: 3, 3: -2}),
    (4, 2): (
        {0: 1, 2: -1, 3: -1, 4: -1},
        {1: 1, 2: 1, 4: 4, 5: 2, 6: -2, 7: -3, 8: -2},
    ),
    (2, 5): ({0: 1, 1: -1, 2: -1}, {1: 2, 2: 1, 3: -2}),
}

_KNOWN_CELL_SUM_RELATIONS: dict[tuple[int, int], tuple[dict, dict]] = {
    (2, 3): ({0: 1, 3: -1}, {1: 1, 3: 1, 4: -1, 5: 1, 6: 1, 9: -1}),
    (2, 4): (
        {0: 1, 5: -1, 8: -1},
        {1: 1, 5: 1, 6: -1, 7: 1, 8: 2, 9: -1, 10: 1, 13: -1, 16: -1},
    ),
    (4, 2): (
        {0: 1, 3: -1, 5: -1, 8: -1},
        {
            1: 1,
            3: 1,
            4: -1,
            5: 2,
            7: 2,
            8: 4,
            9: -2,
            11: -2,
            12: -1,
            13: -1,
            15: -1,
            16: -1,
        },
    ),
    (2, 5): (
        {0: 1, 5: -1, 7: -1, 10: -1, 15: 1},
        {
            1: 1,
            5: 1,
            6: -1,
            7: 1,
            8: -1,
            9: 1,
            10: 2,
            11: -1,
            12: 1,
            15: -2,
            16: 1,
            17: -2,
            20: -1,
            25: 1,
        },
    ),
}


def _relation_terms(rel: RecursionRelation) -> tuple[dict, dict]:
    if rel.tracks_k:
        deltas = {(n, k): c for n, k, c in rel.delta_terms}
        shifts = {(dn, dk): c for dn, dk, c in rel.shift_terms}
    else:
        deltas = {n: c for n, _, c in rel.delta_terms}
        shifts = {dn: c for dn, _, c in rel.shift_terms}
    return deltas, shifts


@_check
def _check_ch_eq_chb(p: GridProfile, rec: _Recorder) -> str:
    for spec in _specs(p):
        board = _triangle(spec, TriangleKind.BOARD, p.max_n)
        tile = _triangle(spec, TriangleKind.TILE, p.max_n)
        for n in range(p.max_n + 1):
            for k in range(n + 1):
                tn, tk = board_to_tile_index(spec, n, k)
                expected = tile.entry(tn, tk)
                rec.record(
                    f"m={spec.m} t={spec.t} board={n} k={k}",
                    expected,
                    board.entry(n, k),
                )
    return _grid_desc(p, "all k")


@_check
def _check_adiag_sum(p: GridProfile, rec: _Recorder) -> str:
    for spec in _specs(p):
        tile = _triangle(spec, TriangleKind.TILE, p.max_n)
        for n in range(p.max_n + 1):
            total = 0
            for k in range(n // spec.t + 1):
                tn, tk = board_to_tile_index(spec, n, k)
                total += tile.entry(tn, tk)
            j, r = divmod(n, spec.m)
            rec.record(
                f"m={spec.m} t={spec.t} board={n}",
                antidiagonal_sum_closed(spec, j, r),
                total,
            )
    return _grid_desc(p)


@_entry_check("k=0")
def _check_col0(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    for n in range(max_n + 1):
        yield f"n={n}", n, 0, 1


@_entry_check("k=n")
def _check_diag(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    for n in range(max_n + 1):
        yield f"n={n}", n, n, 1 if n % spec.m == 0 else 0


@_entry_check("k=1")
def _check_col1(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    gap = (spec.m - 1) * (spec.t - 1)
    for n in range(1, max_n + 1):
        yield f"n={n}", n, 1, 0 if n < gap + 1 else n - gap


def _zero_points(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    m, t = spec.m, spec.t
    for j in range(1, max_n // m + 2):
        for pp in range(1, m):
            for r in range(1 - (t - 2) * pp, pp + 1):
                n, k = m * j - r, m * j - pp
                yield f"j={j} p={pp} r={r} (n={n},k={k})", n, k, 0


@_check
def _check_zeros(p: GridProfile, rec: _Recorder) -> str:
    _record_entries(p, rec, _zero_points)
    # the zero region's edge: the largest k with a nonzero count on each
    # board must agree with the closed-form comb capacity
    for spec in _specs(p):
        board = _triangle(spec, TriangleKind.BOARD, p.max_n)
        for b in range(p.max_n + 1):
            largest = max(k for k in range(b + 1) if board.entry(b, k) > 0 or k == 0)
            j, r = divmod(b, spec.m)
            rec.record(
                f"m={spec.m} t={spec.t} board={b} capacity",
                max_combs(spec, j, r),
                largest,
            )
    return _grid_desc(p)


@_entry_check()
def _check_vert_boundary(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    m, t = spec.m, spec.t
    for j in range(1, max_n // m + 2):
        for s in range(t - 1):
            for r in range(m + 1):
                n, k = m * (j + s - 1) + r, m * (j - 1)
                expected = _binom(j + s - 1, s) ** (m - r) * _binom(j + s, s + 1) ** r
                yield f"j={j} s={s} r={r} (n={n},k={k})", n, k, expected


@_entry_check()
def _check_ray_boundary(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    m, t = spec.m, spec.t
    for j in range(1, max_n // m + 2):
        for pp in range(m + 1):
            n, k = m * j + (t - 2) * pp, m * j - pp
            yield f"j={j} p={pp} (n={n},k={k})", n, k, _binom(j + t - 2, t - 1) ** pp


@_entry_check()
def _check_one_square_block(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    m, t = spec.m, spec.t
    for j in range(1, max_n // m + 2):
        n, k = m * j + t - 1, m * j - 1
        yield f"j={j} (n={n},k={k})", n, k, m * _binom(j + t - 1, t)


@_entry_check()
def _check_two_square_block(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    # one formula for every (m, j): at j = 1 its first binomial is C(2t-1, 2t) = 0,
    # leaving C(m, 2), and at m = 1 its second term has C(1, 2) = 0
    m, t = spec.m, spec.t
    for j in range(1, max_n // m + 2):
        n, k = m * j + 2 * (t - 1), m * j - 2
        expected = m * _binom(j + 2 * (t - 1), 2 * t) + _binom(m, 2) * _binom(j + t - 1, t) ** 2
        yield f"j={j} (n={n},k={k})", n, k, expected


def _compositions(s: int) -> list[tuple[int, ...]]:
    if s == 0:
        return [()]
    out = []
    for first in range(1, s + 1):
        for rest in _compositions(s - first):
            out.append((first,) + rest)
    return out


@_entry_check("s<=5")
def _check_composition(spec: CombSpec, max_n: int) -> Iterator[_Point]:
    m, t = spec.m, spec.t
    for s in range(1, 6):
        compositions = _compositions(s)
        # j stops where n passes max_n, so no sum is formed for a point off the grid
        for j in range(1, (max_n - s * (t - 1)) // m + 1):
            n, k = m * j + s * (t - 1), m * j - s
            expected = 0
            for parts in compositions:
                term = _binom(m, len(parts))
                for r_i in parts:
                    term *= _binom(j + r_i * (t - 1), r_i * t)
                expected += term
            yield f"s={s} j={j} (n={n},k={k})", n, k, expected


@_check
def _check_pascal_region(p: GridProfile, rec: _Recorder) -> str:
    held = 0
    probed = 0
    for spec in _specs(p):
        tile = _triangle(spec, TriangleKind.TILE, p.max_n)
        edge = (spec.m - 1) * (spec.t - 1)
        for n in range(1, p.max_n + 1):
            for k in range(n + 1):
                pascal = tile.entry(n - 1, k) + tile.entry(n - 1, k - 1)
                if n > edge * k:
                    rec.record(
                        f"m={spec.m} t={spec.t} n={n} k={k}",
                        pascal,
                        tile.entry(n, k),
                    )
                elif n == edge * k:
                    probed += 1
                    if tile.entry(n, k) == pascal:
                        held += 1
    rec.notes = (
        f"boundary n=(m-1)(t-1)k probed, not asserted: recurrence held at "
        f"{held} of {probed} boundary points"
    )
    return _grid_desc(p, "n>(m-1)(t-1)k")


@_check
def _check_subset_recurrence(p: GridProfile, rec: _Recorder) -> str:
    for spec in _specs(p):
        m, t = spec.m, spec.t
        pad = (t - 1) * m
        board = _triangle(spec, TriangleKind.BOARD, p.max_n + pad)

        def s_val(n: int, k: int) -> int:
            return board.entry(n + pad, k) if n + pad >= 0 and k >= 0 else 0

        for k in range(1, (p.max_n + pad) // t + 1):
            for n in range(m * (t - 1) * (k - 1) + 1, p.max_n + 1):
                rec.record(
                    f"m={m} t={t} n={n} k={k}",
                    s_val(n - 1, k) + s_val(n - t, k - 1),
                    s_val(n, k),
                )
    return _grid_desc(p, "n>m(t-1)(k-1)")


@_check
def _check_rr_exact(p: GridProfile, rec: _Recorder) -> str:
    for (m, t), expected in sorted(_KNOWN_ENTRY_RELATIONS.items()):
        rel = engines.relation(CombSpec(m, t), Metric.TILES)
        rec.record(f"m={m} t={t} tiles by k", expected, _relation_terms(rel))
    return "specs (2,3),(2,4),(4,2),(2,5)"


@_check
def _check_sums_exact(p: GridProfile, rec: _Recorder) -> str:
    for (m, t), expected in sorted(_KNOWN_TILE_SUM_RELATIONS.items()):
        rel = project_row_sum(engines.relation(CombSpec(m, t), Metric.TILES))
        rec.record(f"m={m} t={t} tile sums", expected, _relation_terms(rel))
    for (m, t), expected in sorted(_KNOWN_CELL_SUM_RELATIONS.items()):
        rel = project_row_sum(engines.relation(CombSpec(m, t), Metric.CELLS))
        rec.record(f"m={m} t={t} cell sums", expected, _relation_terms(rel))
    return "specs (2,3),(2,4),(4,2),(2,5)"


@_check
def _check_gf_42(p: GridProfile, rec: _Recorder) -> str:
    denominator = (
        IntPolynomial((1, -2))
        * IntPolynomial((1, 0, -1))
        * IntPolynomial((1, 0, 2, 1, 1))
    )
    series = power_series_div((1, -1, 0, -1), denominator.coeffs, 12)
    sums = engines.sums(CombSpec(4, 2), Metric.TILES, 12, "recursion")
    for n in range(12):
        rec.record(f"m=4 t=2 n={n}", series[n], sums[n])
    return "12 series terms"


def _multinomial(parts: Sequence[int]) -> int:
    remaining = sum(parts)
    out = 1
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def multinomial_check(j_values: Sequence[int]) -> bool:
    """Exact two-sided evaluation of the block-counting multinomial identity.

    j_values is (j_0, j_1, ..., j_N) with N >= 2 and every entry a positive int.
    """
    js = list(j_values)
    if len(js) < 3:
        raise ValueError("need j_0 through j_N with N >= 2")
    if any(type(v) is not int or v <= 0 for v in js):
        raise ValueError(f"all j values must be positive integers, got {js!r}")
    j0 = js[0]
    rest = js[1:]
    j_last = rest[-1]
    lhs = _multinomial(rest) * math.comb(j0 + j_last - 1, j0)
    factor = math.comb(j0 + j_last - 1, j0) - math.comb(j0 + j_last - 2, j0 - 1)
    rhs = 0
    for r in range(len(rest) - 1):
        reduced = rest.copy()
        reduced[r] -= 1
        rhs += _multinomial(reduced) * factor
    rhs += _multinomial(rest) * math.comb(j0 + j_last - 2, j0 - 1)
    last = rest.copy()
    last[-1] -= 1
    rhs += _multinomial(last) * math.comb(j0 + j_last - 2, j0)
    return lhs == rhs


@_check
def _check_multinom(p: GridProfile, rec: _Recorder) -> str:
    top = 4 if p.name == "quick" else 5
    for count in (3, 4):
        for js in itertools.product(range(1, top + 1), repeat=count):
            rec.record(f"j={js}", True, multinomial_check(js))
    return f"N in 2..3, j<={top}"


@_check
def _check_sumcoeff(p: GridProfile, rec: _Recorder) -> str:
    # the integer recurrence against the binomial sum
    for t in range(2, p.max_t + 1):
        values = bonacci_numbers(t, p.max_n)
        for n in range(p.max_n + 1):
            rec.record(f"t={t} n={n}", values[n], bonacci_poly(t, n).evaluate(1))
    return f"t<={p.max_t} n<={p.max_n}"


@_check
def _check_poly_coeff(p: GridProfile, rec: _Recorder) -> str:
    cap = min(p.max_n, 16)
    for t in range(2, p.max_t + 1):
        omino = CombSpec(1, t)
        for n in range(cap + 1):
            counts = _board_comb_counts(omino, n)
            poly = bonacci_poly(t, n)
            for k in range(n + 1):
                rec.record(f"t={t} n={n} k={k}", counts[k], poly.coefficient(k))
    return f"t<={p.max_t} n<={cap} (enumerated)"


@_check
def _check_tpoly(p: GridProfile, rec: _Recorder) -> str:
    j_max = 5 if p.name == "quick" else 7
    oracle_cap = 14
    for spec in _specs(p):
        m, t = spec.m, spec.t
        board = _triangle(spec, TriangleKind.BOARD, m * j_max + m - 1)
        for j in range(j_max + 1):
            for r in range(m):
                n_board = m * j + r
                poly = board_poly(spec, j, r)
                for k in range(n_board // t + 1):
                    expected = poly.coefficient(k)
                    rec.record(
                        f"m={m} t={t} j={j} r={r} k={k}",
                        expected,
                        board.entry(n_board, k),
                    )
                    if n_board <= oracle_cap:
                        rec.record(
                            f"m={m} t={t} j={j} r={r} k={k} enumerated",
                            expected,
                            _board_comb_counts(spec, n_board)[k],
                        )
    return f"m<={p.max_m} t<={p.max_t} j<={j_max}, enumeration cross-check to board 14"


@_check
def _check_s_corollaries(p: GridProfile, rec: _Recorder) -> str:
    cap = min(p.max_n, 14)
    for spec in _specs(p):
        m, t = spec.m, spec.t
        pad = (t - 1) * m
        board = _triangle(spec, TriangleKind.BOARD, cap + pad)
        for n in range(cap + 1):
            by_k = subset_size_counts(spec, n)
            j, r = divmod(n, m)
            # the universe {1..n} is in bijection with the board n + pad = m*(j+t-1) + r
            poly = board_poly(spec, j + t - 1, r)
            k_top = max(k for k, count in enumerate(by_k) if count)
            for k in range(max(k_top, poly.degree) + 1):
                count = by_k[k] if k < len(by_k) else 0
                rec.record(
                    f"m={m} t={t} n={n} k={k} coefficient",
                    poly.coefficient(k),
                    count,
                )
                rec.record(
                    f"m={m} t={t} n={n} k={k} board form",
                    board.entry(n + pad, k),
                    count,
                )
            rec.record(
                f"m={m} t={t} n={n} total",
                antidiagonal_sum_closed(spec, j + t - 1, r),
                sum(by_k),
            )
    return f"m<={p.max_m} t<={p.max_t} universe<={cap}"


def check_names() -> list[str]:
    return list(_REGISTRY)


def run_check(name: str, profile: str = "quick") -> CheckReport:
    try:
        p = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}") from None
    try:
        check = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown check {name!r}") from None
    rec = _Recorder()
    grid = check(p, rec)
    return CheckReport(name, grid, rec.cases, tuple(rec.failures), rec.notes)


def run_suite(profile: str = "quick") -> list[CheckReport]:
    return [run_check(name, profile) for name in _REGISTRY]
