"""Every engine of ``engines.METHODS`` on one request: the same bytes, or a documented refusal."""

from __future__ import annotations

import contextlib
import functools
import io
import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from combtiles import engines, oracle
from combtiles.cli import main
from combtiles.core import CombSpec, TriangleKind
from combtiles.polynomials import board_poly

from golden import STRUCTURE_DIGESTS

TABLES, COUNTS = ("tile", "board"), ("tiles", "cells")
SHAPES, ALL = TABLES + COUNTS, " ".join(engines.METHODS)
GRID = [(m, t) for m in range(1, 7) for t in range(2, 7)]
# the classified families with m <= 8, t <= 12 and at most 5000 digraph nodes
WIDER = [(1, t) for t in range(2, 13)] + [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (4, 2)]
# R tile rows pack into slots of R bits rounded up to a word or whole bytes: 1 byte
# through row 7, 2 from row 8, 4 from 16, 8 from 32, 9 from 64; cell slots are narrower
BYTE_ROWS = (1, 8, 9, 16, 17, 32, 33, 63, 64, 65, 150)

# (families, shapes, sizes, methods that all answer), by name; ``board_poly``
# is the triangle read off the schoolbook closed-form products, and None is
# every method, answering or refusing as ``contract`` says
EXPLICIT = {
    # (7,7) has 117,649 digraph nodes; the CI step adds auto and recursion
    "largest_digraph": [([(7, 7)], ["tile"], [3], "poly oracle walk board_poly")],
    "methods_agree": [([(2, 3), (2, 4), (2, 5), (4, 2)], ["tile"], [12], ALL)],
    # common, pseudo-common, degenerate and refused structures, and t = 1
    "contract": [([(1, 2), (2, 3), (2, 5), (3, 3), (4, 4), (3, 1)], SHAPES, [6], None)],
    "auto_fallback": [
        ([(3, 3)], ["tile"], [12], "auto walk"),
        ([(6, 6)], ["tile"], [5], "auto walk board_poly"),
    ],
    # up to 9 rows stay inside the oracle's tile and board caps
    "streamed_poly": [(GRID, TABLES, [1, 9], "poly oracle board_poly")],
    "poly_sums": [(GRID, COUNTS, [1, 12], "poly walk oracle")],
    # P_b(1) for (2,3) at board 597 has 328 bits, so each slot is 328 bits wide
    "poly_wide_slots": [
        ([(2, 3)], SHAPES, [200], "poly recursion"),
        ([(6, 6)], ["tile"], [90], "poly board_poly"),
    ],
    "walk_wide_slots": [
        ([(3, 3)], SHAPES, [150], "walk poly"),
        ([(6, 6)], ["tile", *COUNTS], [80], "walk poly"),
        ([(2, 3)], ["board", *COUNTS], [200], "walk poly"),
    ],
    # rows = 1 unpacks one board; t = 2 makes the band's divisor t - 1 = 1
    "poly_edge_sizes": [
        ([(m, 2) for m in range(1, 7)], SHAPES, [1, 2, 9], "poly oracle"),
        ([(m, 5) for m in range(1, 7)], SHAPES, [1], "poly oracle"),
    ],
    # 5000 counts, the last of 829 digits: poly prints them from decimal, walk from ints
    "long_cell_counts": [([(5, 3)], ["cells"], [5000], "poly walk")],
    # (1,2) has T(n,k) = C(n,k), the slot bound itself: 64-bit slots at 64 rows, 72 at 65
    "rows_bits": [
        ([(1, 2)], ["tile"], [64, 65], "poly recursion board_poly"),
        ([(1, 2)], ["tiles"], [64, 65], "poly recursion walk"),
    ],
    "wider_grid": [(WIDER, TABLES, [40], "recursion walk"), (WIDER, COUNTS, [80], "recursion walk")],
    # on tiles (2,3) has at most 2^n walks of weight n: rows 63 and 64 fill
    # 8-byte words, and row 65 takes the first 9-byte slots
    "widest_word": [([(2, 3)], TABLES, [63, 64, 65], "walk poly")],
    "relation_4_2": [([(4, 2)], TABLES, [17], "recursion walk")],
    "byte_boundaries": [
        (sorted(STRUCTURE_DIGESTS), TABLES, BYTE_ROWS, "recursion poly"),
        (sorted(STRUCTURE_DIGESTS), COUNTS, BYTE_ROWS, "recursion walk"),
    ],
    # CI only: pseudo-common, deepest relation, reversed bands, last word-sized slots
    "ci": [
        ([(2, 5), (4, 2)], TABLES, [150], "poly recursion"),
        ([(6, 6)], SHAPES, [100], "poly walk"),
        ([(6, 2)], SHAPES, [150], "poly walk"),
        ([(6, 6)], ["board"], [100], "auto walk"),
        ([(3, 4)], TABLES, [64, 65], "poly walk"),
    ],
}


def outcome(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout; a refusal prints nothing but one error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "" and out != "", argv
    else:
        assert code in (1, 2) and out == "" and err.startswith("error: ") and err.count("\n") == 1
    return code, out


def closed_form(spec: CombSpec, kind: TriangleKind, rows: int) -> list[list[int]]:
    """The triangle read off ``board_poly``'s schoolbook products, one product per board."""
    shift = spec.t - 1 if kind is TriangleKind.TILE else 0
    product = functools.cache(lambda board: board_poly(spec, *divmod(board, spec.m)))
    return [[product(n + shift * k).coefficient(k) for k in range(n + 1)] for n in range(rows)]


def agree(m: int, t: int, shape: str, size: int, methods: str, fmt: str | None = None) -> dict:
    """The stdout of each of the methods that answers; all of them are the same bytes."""
    table = shape in TABLES
    argv = ["triangle" if table else "sums", "--m", str(m), "--t", str(t)]
    argv += ["--rows" if table else "--n", str(size), "--kind" if table else "--metric", shape]
    argv += ["--format", fmt] if fmt else []
    answers = {}
    for method in methods.split():
        if method == "board_poly":
            rows = closed_form(CombSpec(m, t), TriangleKind(shape), size)
            answers[method] = "".join(",".join(map(str, row)) + "\n" for row in rows)
        elif (result := outcome([*argv, "--method", method]))[0] == 0:
            answers[method] = result[1]
    assert len(set(answers.values())) <= 1, (argv, {x: hash(out) for x, out in answers.items()})
    return answers


def explicit(name: str) -> dict[tuple, str]:
    """Run the named explicit cases; the stdout of each (m, t, shape, size), if any."""
    outputs = {}
    for families, shapes, sizes, methods in EXPLICIT[name]:
        for (m, t), shape, size in itertools.product(families, shapes, sizes):
            answers = agree(m, t, shape, size, methods or ALL)
            if methods is None:
                contract(m, t, shape, ALL, answers)
            else:
                assert sorted(answers) == sorted(methods.split()), (m, t, shape, size, sorted(answers))
            outputs[m, t, shape, size] = next(iter(answers.values()), "")
    return outputs


def explicit_test(name: str):
    """A test that runs the named explicit cases."""
    def test() -> None:
        explicit(name)
    return test


def contract(m: int, t: int, shape: str, methods: str, answers: dict) -> None:
    """Which of the methods answer, against the commands that show a structure."""
    # t = 1 is a usage error; otherwise auto and poly always answer
    for method in {"auto", "poly"} & set(methods.split()):
        assert (method in answers) == (t > 1), (m, t, shape, method)
    if "recursion" in methods.split():
        # the recursion engine answers exactly when its relation can be shown,
        # and never for a structure that digraph refuses
        family = ["--m", str(m), "--t", str(t)]
        metric = {"tile": "tiles", "board": "cells"}.get(shape, shape)
        shown, _ = outcome(["recursion", *family, "--metric", metric])
        structure, _ = outcome(["digraph", *family, "--format", "text"])
        assert ("recursion" in answers) == (shown == 0), (m, t, shape)
        assert structure == 0 or shown == structure, (m, t)


def _fits(m: int, t: int, shape: str, size: int, method: str) -> bool:
    """Whether a method's cost on a drawn request suits tier-1, by closed forms alone."""
    # ROADMAP item 1's engine price, once the library has one, replaces this rule
    if method == "oracle":
        # quick up to 12 rows or terms, and refused at once past its cap
        cap = oracle.MAX_BOARD if shape in ("board", "cells") else oracle.MAX_TILES
        return size <= 12 or size > cap + 1
    if method == "poly" or (method == "auto" and shape in ("board", "cells")):
        return size <= 300
    # walk, recursion, and auto on tile shapes: t^(m-1) digraph nodes, times the size
    return t ** (m - 1) * size <= 40_000


DRAWS = (
    st.integers(1, 9),
    st.integers(1, 9),
    st.sampled_from(
        [(s, f) for s in TABLES for f in ("csv", "json", "text")]
        + [(s, f) for s in COUNTS for f in ("bfile", "csv", "json", "text")]
    ),
    # log-uniform: an octave 2^e .. 2^(e+1) - 1, then a size in it
    st.integers(0, 7).flatmap(lambda e: st.integers(2**e, 2 ** (e + 1) - 1)),
)


@settings(max_examples=100, deadline=None)
@given(*DRAWS)
@example(9, 9, ("tile", "csv"), 12)
@example(6, 6, ("tiles", "bfile"), 5)
def test_engines_agree(m, t, shape_format, size):
    shape, fmt = shape_format
    methods = " ".join(x for x in engines.METHODS if _fits(m, t, shape, size, x))
    if t > 1 and shape in TABLES and fmt == "csv" and size <= 12:
        methods += " board_poly"
    contract(m, t, shape, methods, agree(m, t, shape, size, methods, fmt))


test_engines_agree_on_the_largest_digraph = explicit_test("largest_digraph")
