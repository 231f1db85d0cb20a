"""Integer polynomials and the square/t-omino counting family.

The family f_0, f_1, ... for a tooth count t satisfies

    f_n(x) = f_{n-1}(x) + x * f_{n-t}(x),   f_0 = 1,   f_{n<0} = 0,

so [x^k] f_n counts tilings of an n-board by squares and t-ominoes with k
t-ominoes. Products of these polynomials give closed forms for triangle
entries and antidiagonal sums.
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import count, islice

from .core import CombSpec, Frozen, TriangleKind


class IntPolynomial(Frozen):
    """Polynomial with integer coefficients, stored low degree first."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()) -> None:
        cleaned = [int(c) for c in coeffs]
        while cleaned and cleaned[-1] == 0:
            cleaned.pop()
        self._set(tuple(cleaned))

    @property
    def degree(self) -> int:
        # degree of the zero polynomial is reported as -1
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        if k < 0 or k >= len(self.coeffs):
            return 0
        return self.coeffs[k]

    def evaluate(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __mul__(self, other: IntPolynomial) -> IntPolynomial:
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __pow__(self, n: int) -> IntPolynomial:
        if n < 0:
            raise ValueError("exponent must be >= 0")
        result = IntPolynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "x" if k == 1 else f"x^{k}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _bonacci_polys(t: int) -> Iterator[IntPolynomial]:
    """f_0, f_1, f_2, ... for tooth count t, one recurrence step each."""
    # the last t members, f_{n-t} first; those before f_0 are zero
    window: deque[tuple[int, ...]] = deque([()] * (t - 1) + [(1,)], maxlen=t)
    yield IntPolynomial((1,))
    while True:
        prev, older = window[-1], window[0]
        out = list(prev) + [0] * (len(older) + 1 - len(prev))
        for i, c in enumerate(older, 1):
            out[i] += c
        window.append(tuple(out))
        yield IntPolynomial(window[-1])


@functools.lru_cache(maxsize=256)
def bonacci_poly(t: int, n: int) -> IntPolynomial:
    """The n-th member of the square/t-omino family for tooth count t."""
    if t < 2:
        raise ValueError("t must be at least 2")
    if n < 0:
        return IntPolynomial(())
    return next(islice(_bonacci_polys(t), n, None))


def bonacci_numbers(t: int, n: int) -> list[int]:
    """Values f_0(1), ..., f_n(1) of the family, by its integer recurrence."""
    if t < 2:
        raise ValueError("t must be at least 2")
    vals = [1] * (n + 1)
    for i in range(t, n + 1):
        vals[i] = vals[i - 1] + vals[i - t]
    return vals


def bonacci_number(t: int, n: int) -> int:
    """Value of the family at x = 1, computed by its own integer recurrence."""
    vals = bonacci_numbers(t, n)
    return vals[-1] if vals else 0


def _reversed_values(t: int, shift: int, mask: int) -> Iterator[int]:
    """F~_n = f~_n(2^shift) & mask for n = 0, 1, 2, ..., where f~_n(y) = y^(n//t) f_n(1/y).

    Multiplying f_n = f_{n-1} + x*f_{n-t} by y^(n//t) at x = 1/y gives
    f~_n = y^e * f~_{n-1} + f~_{n-t}, with e = 1 if t divides n and 0
    otherwise: the degree n//t rises by one exactly there, and
    (n-t)//t = n//t - 1. So f~_n lists the coefficients of f_n top first.
    """
    window: deque[int] = deque([0] * (t - 1) + [1], maxlen=t)
    yield 1
    for n in count(1):
        window.append(((window[-1] << shift if n % t == 0 else window[-1]) + window[0]) & mask)
        yield window[-1]


def _factor_pairs(
    m: int, family: Iterator[int], max_board: int, mask: int
) -> Iterator[tuple[int, int]]:
    """(F~_j^(m-r) & mask, F~_{j+1}^r & mask) for boards b = m*j + r = 0..max_board.

    ``family`` yields F~_0, F~_1, ... (``_reversed_values``); the product of
    a pair is P~_b at the family's point, mod mask. Only the powers F~_j^e
    and F~_{j+1}^e (e <= m) are kept, and the powers of a new F~_{j+1} are
    built only as far as a board up to max_board uses them, so the last
    board builds none it does not use.
    """

    def powers(f: int, top: int) -> list[int]:
        out = [1, f]
        for _ in range(top - 1):
            out.append(out[-1] * f & mask)
        return out

    high = powers(next(family), m)
    for b in range(max_board + 1):
        r = b % m
        if r == 0:
            low = high
            if b < max_board:
                high = powers(next(family), min(m, max_board - b))
        yield low[m - r], high[r]


def triangle_rows(spec: CombSpec, kind: TriangleKind, rows: int) -> list[list[int]]:
    """Rows 0..rows-1 of the tile or board triangle, from the top band of each board product.

    Cell (n, k) is [x^k] P_b, which counts tilings of a b-board with k
    combs, for P_b = f_j^(m-r) * f_{j+1}^r and the board b = m*j + r =
    n + s*k, where s = t-1 for the tile triangle and s = 0 for the board
    triangle. Board b holds cells of rows below R = rows only in the
    degrees k0..d. Here d = (m-r)(j//t) + r((j+1)//t) is the degree of P_b
    (f_n has degree n//t and leading coefficient 1), k0 = 0 for b < R and
    k0 = ceil((b - R + 1) / s) after that. Boards with d < k0 hold none and
    are skipped. The boards run to b = (s+1)(R-1), the board of cell
    (R-1, R-1); so the board triangle takes every coefficient of P_0..P_(R-1).

    The band is read from the reversed product P~_b(y) = y^d P_b(1/y) =
    f~_j^(m-r) * f~_{j+1}^r (``_reversed_values``), whose degree-i
    coefficient is [x^(d-i)] P_b: degrees k0..d of P_b are the lowest
    L_b = d - k0 + 1 coefficients of P~_b. They are read as w-bit slots of
    P~_b(2^w) mod 2^(L_b*w). Every family value and power is kept
    mod 2^(B*w), B the largest L_b, and the two factors of each product
    mod 2^(L_b*w). That is exact, for these reasons:

    - Every needed entry is below 2^w, where w is the smaller of R and the
      bit length of P_last(1), rounded up to whole bytes, and last is the
      last board with cells. An entry of row n < R counts tilings of at
      most n tiles (n in the tile triangle, n - (t-1)k in the board
      triangle), and a tiling is fixed by its sequence of tile types, since
      each tile covers the leftmost cell still empty; so it is at most
      2^n < 2^R. It is also at most P_b(1), the sum of the coefficients of
      P_b, which are all >= 0. P_b(1) counts all tilings of a b-board,
      which never falls as b grows: going from b to b + 1 replaces one
      factor f_j(1) by f_{j+1}(1) >= f_j(1). So it is at most P_last(1).
    - Reduction mod 2^L commutes with sums, products and shifts, so the
      truncated family, powers and factors give P~_b(2^w) mod 2^(L_b*w) as
      an exact integer identity.
    - P~_b(2^w) = sum_i c_i 2^(i*w) with every c_i >= 0. Carries only move
      up: the terms with i >= L_b are multiples of 2^(L_b*w), and the terms
      with i < L_b sum to less than 2^(L_b*w) since each c_i < 2^w. So the
      low L_b slots are exactly c_0..c_(L_b - 1).
    - So slots above the band, in the products and in every intermediate
      value, may overflow without harm: only the final product's low L_b
      slots must stay below 2^w.
    """
    m, t = spec.m, spec.t
    s = t - 1 if kind is TriangleKind.TILE else 0
    boards = range((s + 1) * (rows - 1) + 1)
    degree = [(m - r) * (j // t) + r * ((j + 1) // t) for j, r in (divmod(b, m) for b in boards)]
    # k0 = 0 below board R, and the board triangle (s = 0) ends at R - 1
    first = [0] * rows + [(b - rows) // s + 1 for b in boards[rows:]]
    last = max(b for b in boards if degree[b] >= first[b])
    top = antidiagonal_sum_closed(spec, *divmod(last, m))
    width = -(-min(rows, top.bit_length()) // 8)
    # masks[L] keeps the lowest L slots; the last one the widest band, B slots
    masks = [(1 << 8 * width * L) - 1 for L in range(max(map(int.__sub__, degree, first)) + 2)]
    family = _reversed_values(t, 8 * width, masks[-1])
    table = [[0] * (n + 1) for n in range(rows)]
    from_bytes = int.from_bytes
    for b, (low, high) in enumerate(_factor_pairs(m, family, last, masks[-1])):
        d, k0 = degree[b], first[b]
        if d < k0:
            continue
        band = masks[d - k0 + 1]
        size = width * (d - k0 + 1)
        raw = ((low & band) * (high & band) & band).to_bytes(size, "little")
        # slot i is degree k = d - i, in row n = b - s*k
        k, n = d, b - s * d
        for i in range(0, size, width):
            table[n][k] = from_bytes(raw[i : i + width], "little")
            n += s
            k -= 1
    return table


def board_counts(spec: CombSpec, n: int) -> list[int]:
    """Tiling counts of the boards of length 0..n-1, P_b(1) for each b."""
    m = spec.m
    vals = bonacci_numbers(spec.t, (n - 1) // m + 1)
    return [
        vals[j] ** (m - r) * vals[j + 1] ** r
        for j, r in (divmod(b, m) for b in range(n))
    ]


def _check_j_r(spec: CombSpec, j: int, r: int) -> None:
    if j < 0:
        raise ValueError("j must be >= 0")
    if not 0 <= r < spec.m:
        raise ValueError(f"r must be in 0..{spec.m - 1}")


def entry_via_poly(spec: CombSpec, j: int, r: int, k: int) -> int:
    """Tile-indexed entry at (m*j + r - (t-1)*k, k) as a product coefficient.

    The value is [x^k] of f_j^(m-r) * f_{j+1}^r at tooth count t.
    """
    _check_j_r(spec, j, r)
    if k < 0:
        raise ValueError("k must be >= 0")
    prod = bonacci_poly(spec.t, j) ** (spec.m - r) * bonacci_poly(spec.t, j + 1) ** r
    return prod.coefficient(k)


def antidiagonal_sum_closed(spec: CombSpec, j: int, r: int) -> int:
    """Count of all tilings of an (m*j + r)-board, in product closed form."""
    _check_j_r(spec, j, r)
    vals = bonacci_numbers(spec.t, j + 1)
    return vals[j] ** (spec.m - r) * vals[j + 1] ** r


def power_series_div(
    numerator: Sequence[int], denominator: Sequence[int], n_terms: int
) -> list[int]:
    """First n_terms coefficients of numerator/denominator as a power series.

    Exact integer arithmetic; the denominator must have constant term 1.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    den = list(denominator)
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    num = list(numerator)
    out: list[int] = []
    for k in range(n_terms):
        c = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            c -= den[i] * out[k - i]
        out.append(c)
    return out
