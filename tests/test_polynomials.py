from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combtiles import engines, polynomials
from combtiles.core import CombSpec, Metric, TriangleKind, board_to_tile_index, max_combs
from combtiles.digraph import build_digraph, enumerate_metatiles
from combtiles.oracle import (
    RestrictedSubset,
    Tiling,
    build_triangle,
    enumerate_restricted_subsets,
    enumerate_tile_tilings,
    enumerate_tilings,
    iter_restricted_subsets,
    subset_size_counts,
)
from combtiles.polynomials import (
    IntPolynomial,
    antidiagonal_sum_closed,
    board_count_text,
    board_counts,
    board_poly,
    bonacci_numbers,
    bonacci_poly,
    power_series_div,
    triangle_rows,
)
from combtiles.recursion import evaluate, walk_count, walk_sums

from golden import CELL_SUMS, GF_4_2, TILE_SUMS, TRIANGLES
from test_engines_agree import closed_form

polys = st.builds(
    IntPolynomial,
    st.lists(st.integers(min_value=-50, max_value=50), max_size=6).map(tuple),
)


def test_polynomial_normalization():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial((0,)).coeffs == ()
    assert IntPolynomial((1, 0, 3)).degree == 2
    assert IntPolynomial((1, 0, 3)).coefficient(1) == 0
    assert IntPolynomial((1, 0, 3)).coefficient(9) == 0


def test_coefficients_must_be_ints():
    # int() would truncate 1.5 and read True and "3": each is refused
    for bad in ([1.5, 2], [1, True], ["3", 1], [1, 2.0]):
        for make in (IntPolynomial, lambda c: power_series_div(c, [1, -1], 3),
                     lambda c: power_series_div([1], [1, *c], 3)):
            with pytest.raises(ValueError, match="^coefficients must be integers"):
                make(bad)


def _add(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    # the library multiplies polynomials but never adds them
    n = max(len(a.coeffs), len(b.coeffs))
    return IntPolynomial([a.coefficient(i) + b.coefficient(i) for i in range(n)])


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_polynomial_ring_laws(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * _add(b, c) == _add(a * b, a * c)


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.integers(min_value=-9, max_value=9))
def test_evaluate_is_a_homomorphism(a, b, x):
    assert _add(a, b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
    assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)


def test_bonacci_base_cases():
    assert bonacci_poly(2, -3) == IntPolynomial(())
    assert bonacci_poly(2, 0) == IntPolynomial((1,))
    assert bonacci_poly(2, 1) == IntPolynomial((1,))
    assert bonacci_poly(2, 2) == IntPolynomial((1, 1))
    # 4-board with trominoes: all squares, or one tromino at cell 1 or 2
    assert bonacci_poly(3, 4).coeffs == (1, 2)
    with pytest.raises(ValueError):
        bonacci_poly(1, 3)


def test_bonacci_numbers_known_prefixes():
    fib = bonacci_numbers(2, 11)
    assert fib == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144]  # A000045 shifted
    pad = bonacci_numbers(3, 11)
    assert pad == [1, 1, 1, 2, 3, 4, 6, 9, 13, 19, 28, 41]  # A000930


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=-3, max_value=80))
def test_bonacci_poly_satisfies_its_recurrence(t, n):
    # the binomial form against f_n = f_(n-1) + x*f_(n-t), f_0 = 1, f_(n<0) = 0
    if n < 0:
        assert bonacci_poly(t, n) == IntPolynomial(())
    elif n == 0:
        assert bonacci_poly(t, n) == IntPolynomial((1,))
    else:
        step = _add(bonacci_poly(t, n - 1), IntPolynomial((0, 1)) * bonacci_poly(t, n - t))
        assert bonacci_poly(t, n) == step


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=-4, max_value=24))
@example(3, 3000)
def test_bonacci_poly_at_one_is_the_number(t, n):
    # the binomial sum against the integer recurrence; a negative n reads 0
    values = bonacci_numbers(t, n)
    assert bonacci_poly(t, n).evaluate(1) == (values[n] if n >= 0 else 0)


def test_bonacci_coefficients_count_omino_tilings():
    # [x^k] f_n counts tilings of an n-board with k t-ominoes, rest squares
    for t in range(2, 6):
        spec = CombSpec(1, t)
        for n in range(11):
            poly = bonacci_poly(t, n)
            counts: dict[int, int] = {}
            for tl in enumerate_tilings(spec, n):
                counts[tl.n_combs] = counts.get(tl.n_combs, 0) + 1
            for k in range(n + 1):
                assert poly.coefficient(k) == counts.get(k, 0), (t, n, k)


def test_board_poly_matches_golden_triangles():
    for (m, t), rows in TRIANGLES.items():
        spec = CombSpec(m, t)
        for n in range(len(rows)):
            for k in range(n + 1):
                board = n + (t - 1) * k
                j, r = divmod(board, m)
                assert board_poly(spec, j, r).coefficient(k) == rows[n][k], (m, t, n, k)


SPEC = CombSpec(2, 3)
DIGRAPH = build_digraph(SPEC)
NOT_INTS = (2.5, 3.0, True, "3", None)
K_NOT_INTS = NOT_INTS[:-1]  # k = None asks for subsets of every size


def _first_subset(spec, n, k):
    return next(iter_restricted_subsets(spec, n, k))


# (function, valid args, position of the size, its name, its least value or
# None, and optionally the non-ints to try); the engines' sizes are covered by
# test_cli.test_engines_reject_sizes_below_one
SIZES = [
    (CombSpec, (2, 3), 0, "m", 1),
    (CombSpec, (2, 3), 1, "t", 2),
    (max_combs, (SPEC, 4, 1), 1, "J", 0),
    (max_combs, (SPEC, 4, 1), 2, "R", 0),
    (board_to_tile_index, (SPEC, 9, 2), 1, "n_board", None),
    (board_to_tile_index, (SPEC, 9, 2), 2, "k", None),
    (bonacci_poly, (3, 4), 0, "t", 2),
    (bonacci_poly, (3, 4), 1, "n", None),
    (bonacci_numbers, (3, 4), 0, "t", 2),
    (bonacci_numbers, (3, 4), 1, "n", None),
    (board_counts, (SPEC, 4), 1, "n", 0),
    (board_count_text, (SPEC, 4), 1, "n", 0),
    (triangle_rows, (SPEC, TriangleKind.TILE, 4), 2, "rows", 1),
    (board_poly, (SPEC, 2, 1), 1, "j", 0),
    (board_poly, (SPEC, 2, 1), 2, "r", 0),
    (antidiagonal_sum_closed, (SPEC, 2, 1), 1, "j", 0),
    (antidiagonal_sum_closed, (SPEC, 2, 1), 2, "r", 0),
    (power_series_div, ([1], [1, -1], 3), 2, "n_terms", 0),
    (Tiling, (SPEC, 1, (("S", 1),)), 1, "board_len", 0),
    (RestrictedSubset, (SPEC, 3, (1,)), 1, "n", 0),
    (enumerate_tilings, (SPEC, 4), 1, "board_len", 0),
    (enumerate_tile_tilings, (SPEC, 4), 1, "n_tiles", 0),
    (build_triangle, (SPEC, TriangleKind.TILE, 4), 2, "rows", 1),
    (subset_size_counts, (SPEC, 4, 2), 1, "n", 0),
    (subset_size_counts, (SPEC, 4, 2), 2, "k", 0, K_NOT_INTS),
    (enumerate_restricted_subsets, (SPEC, 4, 2), 1, "n", 0),
    (enumerate_restricted_subsets, (SPEC, 4, 2), 2, "k", 0, K_NOT_INTS),
    (_first_subset, (SPEC, 4, 2), 1, "n", 0),
    (_first_subset, (SPEC, 4, 2), 2, "k", 0, K_NOT_INTS),
    (evaluate, (engines.relation(SPEC, Metric.TILES), 4), 1, "n_max", 0),
    (walk_count, (DIGRAPH, Metric.TILES, 4), 2, "n_max", 0),
    (walk_sums, (DIGRAPH, Metric.CELLS, 4), 2, "n_max", 0),
    (enumerate_metatiles, (DIGRAPH, 4), 1, "max_tiles", 1),
]


def _refusals(function, args, at, name, least, not_ints=NOT_INTS):
    # each non-int in place of args[at], then the int below its least value
    def put(value):
        return (*args[:at], value, *args[at + 1 :])

    rows = [
        (function, put(value), f"{name} must be an integer, got {value!r}") for value in not_ints
    ]
    if least is not None:
        rows.append((function, put(least - 1), f"{name} must be >= {least}"))
    return rows


@pytest.mark.parametrize(
    "function, args, error",
    [
        (power_series_div, ([1], [1, -1], 2.5), "n_terms must be an integer, got 2.5"),
        (power_series_div, ([1], [1, -1], True), "n_terms must be an integer, got True"),
        (board_poly, (CombSpec(2, 3), 2.0, 0), "j must be an integer, got 2.0"),
        (board_poly, (CombSpec(2, 3), True, 0), "j must be an integer, got True"),
        (bonacci_poly, (3, 4.0), "n must be an integer, got 4.0"),
        (bonacci_numbers, (3, 4.5), "n must be an integer, got 4.5"),
        (antidiagonal_sum_closed, (CombSpec(2, 3), 2.0, 0), "j must be an integer, got 2.0"),
        *[row for size in SIZES for row in _refusals(*size)],
        (max_combs, (SPEC, 4, 2), "R must be <= 1"),
        (board_poly, (SPEC, 2, 2), "r must be <= 1"),
    ],
)
def test_sizes_and_indices_must_be_ints(function, args, error):
    # a float answered as if rounded or ended in a traceback, True read as 1,
    # and a size below its least value answered [] or crashed: each is
    # refused by the one argument rule in core
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$") as refusal:
        function(*args)
    assert refusal.traceback[-1].name == "check_int"


def test_antidiagonal_sum_closed_matches_board_counts():
    for (m, t), sums in CELL_SUMS.items():
        spec = CombSpec(m, t)
        for board, expected in enumerate(sums):
            j, r = divmod(board, m)
            assert antidiagonal_sum_closed(spec, j, r) == expected, (m, t, board)
        assert board_counts(spec, len(sums)) == list(sums), (m, t)


def test_board_count_text_at_the_decimal_threshold(monkeypatch):
    # each family's first count of DECIMAL_BITS bits: one term fewer prints
    # from ints, that term from decimal, and both match the int counts
    units = []
    values = polynomials._board_values
    monkeypatch.setattr(
        polynomials, "_board_values", lambda spec, n, one: units.append(one) or values(spec, n, one)
    )
    for m in range(1, 7):
        for t in range(2, 7):
            spec = CombSpec(m, t)
            counts = board_counts(spec, 6000)
            n = next(b for b, c in enumerate(counts) if c.bit_length() >= polynomials.DECIMAL_BITS) + 1
            for size in (n - 1, n):
                units.clear()
                assert list(board_count_text(spec, size)) == list(map(str, counts[:size])), (m, t, size)
                assert [type(one).__name__ for one in units] == [
                    "int" if size < n else "Decimal"
                ], (m, t, size)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=60),
)
def test_board_products_unpack_the_closed_form_products(m, t, max_board):
    # row b holds every coefficient of P_b (deg P_b <= b), padded with zeros
    spec = CombSpec(m, t)
    rows = max_board + 1
    assert triangle_rows(spec, TriangleKind.BOARD, rows) == closed_form(spec, TriangleKind.BOARD, rows)


def _counted(monkeypatch, name):
    # record every family value the generator ``name`` hands out
    drawn = []
    values = getattr(polynomials, name)

    def counted(*args):
        for value in values(*args):
            drawn.append(value)
            yield value

    monkeypatch.setattr(polynomials, name, counted)
    return drawn


@pytest.mark.parametrize("m", range(1, 7))
def test_board_products_end_on_a_multiple_of_m(m, monkeypatch):
    # a board table ending on board m*j ends on f_j^m: F~_(j+1) and its
    # powers are never built
    drawn = _counted(monkeypatch, "_reversed_values")
    for t in (2, 3, 5):
        for j in (0, 1, 4):
            drawn.clear()
            *_, row = triangle_rows(CombSpec(m, t), TriangleKind.BOARD, m * j + 1)
            expected = board_poly(CombSpec(m, t), j, 0).coeffs  # f_j^m
            assert tuple(row[: len(expected)]) == expected
            assert len(drawn) == j + 1


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=64),
)
def test_tile_rows_read_the_top_band_of_the_closed_form_products(m, t, rows):
    spec = CombSpec(m, t)
    assert triangle_rows(spec, TriangleKind.TILE, rows) == closed_form(spec, TriangleKind.TILE, rows)


def test_tile_rows_skip_boards_with_an_empty_band():
    # (3,2) at 2 rows: board 2 = 3*0 + 2 has degree 0 but its cells start at
    # k0 = 1, so cell (1,1) comes from no product and stays 0
    assert triangle_rows(CombSpec(3, 2), TriangleKind.TILE, 2) == [[1], [1, 0]]
    # t = 2 shifts each board's cells one row per comb: the widest band
    for spec in (CombSpec(m, 2) for m in range(1, 7)):
        assert triangle_rows(spec, TriangleKind.TILE, 30) == closed_form(spec, TriangleKind.TILE, 30)


@pytest.mark.parametrize("m", range(1, 7))
def test_tile_rows_draw_no_value_past_the_last_band(m, monkeypatch):
    # boards past the last one with cells are never built; when that one is
    # m*j, F~_(j+1) is never drawn either (129 of these 342 tables end in
    # boards with no cells that would draw one more value)
    drawn = _counted(monkeypatch, "_reversed_values")
    for t in (2, 3, 6):
        for rows in range(1, 20):
            last = max(
                b
                for b in range(t * (rows - 1) + 1)
                if bonacci_poly(t, b // m).degree * (m - b % m)
                + bonacci_poly(t, b // m + 1).degree * (b % m)
                >= max(0, -(-(b - rows + 1) // (t - 1)))
            )
            drawn.clear()
            triangle_rows(CombSpec(m, t), TriangleKind.TILE, rows)
            assert len(drawn) == last // m + 1 + (last % m > 0), (t, rows)


def test_triangle_rows_at_slot_boundaries():
    # R-bit slots on either side of a word size: rows 8|9, 16|17 and 32|33 on
    # every family, and 64|65 (the last word and the first wide slot) on a few;
    # the first rows of a table do not depend on how many rows it has
    for m in range(1, 7):
        for t in range(2, 7):
            spec = CombSpec(m, t)
            for kind in TriangleKind:
                table = closed_form(spec, kind, 33)
                for rows in (8, 9, 16, 17, 32, 33):
                    assert triangle_rows(spec, kind, rows) == table[:rows], (m, t, kind, rows)
    for m, t in [(1, 2), (2, 3), (3, 4), (6, 6)]:
        spec = CombSpec(m, t)
        for kind in TriangleKind:
            table = closed_form(spec, kind, 65)
            for rows in (64, 65):
                assert triangle_rows(spec, kind, rows) == table[:rows], (m, t, kind, rows)


@pytest.mark.parametrize(
    "m, t, kind, rows, bits",
    [
        # the board-count bound, as the board triangle always had
        (6, 6, TriangleKind.BOARD, 300, 104),
        # the board-count bound: P_last(1) has at most 8 bits, under R = 10
        (6, 6, TriangleKind.TILE, 10, 8),
        # the row bound: 2^R with R = 50, under P_last(1); 56 bits round up to a word
        (6, 6, TriangleKind.TILE, 50, 64),
        # the row bound with R = 20: 24 bits round up to a 32-bit word
        (6, 6, TriangleKind.TILE, 20, 32),
    ],
)
def test_triangle_rows_slot_width_is_the_smaller_bound(m, t, kind, rows, bits, monkeypatch):
    shifts = []
    values = polynomials._reversed_values

    def recorded(t, shift, mask):
        shifts.append(shift)
        return values(t, shift, mask)

    monkeypatch.setattr(polynomials, "_reversed_values", recorded)
    triangle_rows(CombSpec(m, t), kind, rows)
    assert shifts == [bits]


def test_power_series_div_generates_tile_sums():
    num, den_factors = GF_4_2
    den = IntPolynomial((1,))
    for factor in den_factors:
        den = den * IntPolynomial(factor)
    got = power_series_div(num, den.coeffs, 12)
    assert got == TILE_SUMS[(4, 2)][:12]


def test_power_series_div_validation_and_exactness():
    with pytest.raises(ValueError):
        power_series_div((1,), (2, 1), 4)
    # multiply back: series * denominator must reproduce the numerator
    num, den = (1, -1, 0, -1), (1, -2, -1, 0, 3)
    series = power_series_div(num, den, 30)
    for k in range(20):
        conv = sum(den[i] * series[k - i] for i in range(len(den)) if k - i >= 0)
        expected = num[k] if k < len(num) else 0
        assert conv == expected, k
