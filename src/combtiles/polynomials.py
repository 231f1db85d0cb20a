"""Integer polynomials and the square/t-omino counting family.

The family f_0, f_1, ... for a tooth count t satisfies

    f_n(x) = f_{n-1}(x) + x * f_{n-t}(x),   f_0 = 1,   f_{n<0} = 0,

so [x^k] f_n counts tilings of an n-board by squares and t-ominoes with k
t-ominoes. Products of these polynomials give closed forms for triangle
entries and antidiagonal sums.

The packed engines run this recurrence; the reference side does not:
``bonacci_poly`` builds f_n from its coefficients C(n - (t-1)k, k), and
``board_poly`` multiplies those polynomials by schoolbook products.
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Iterator, Sequence
from itertools import count
from math import comb
from operator import mul

from .core import CombSpec, Frozen, TriangleKind, _slot_bytes, _slot_reader, check_int


class IntPolynomial(Frozen):
    """Polynomial with integer coefficients, stored low degree first."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()) -> None:
        cleaned = list(coeffs)
        # ints only, as CombSpec takes m and t: int() would truncate 1.5 and read True or "3"
        if any(type(c) is not int for c in cleaned):
            raise ValueError(f"coefficients must be integers, got {cleaned!r}")
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


def bonacci_poly(t: int, n: int) -> IntPolynomial:
    """The n-th member of the square/t-omino family for tooth count t, from its binomials.

    A tiling of an n-board with k t-ominoes has n - (t-1)k tiles and is fixed
    by which k of them are t-ominoes, so [x^k] f_n = C(n - (t-1)k, k).
    Any int n is taken: f_n = 0 for n < 0.
    """
    check_int("t", t, 2)
    check_int("n", n, None)
    return IntPolynomial([comb(n - (t - 1) * k, k) for k in range(n // t + 1)])


def bonacci_numbers(t: int, n: int) -> list[int]:
    """Values f_0(1), ..., f_n(1) of the family, by its integer recurrence; none for n < 0."""
    check_int("t", t, 2)
    check_int("n", n, None)
    vals = [1] * (n + 1)
    for i in range(t, n + 1):
        vals[i] = vals[i - 1] + vals[i - t]
    return vals


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


def triangle_rows(spec: CombSpec, kind: TriangleKind, rows: int) -> list[list[int]]:
    """Rows 0..rows-1 of the tile or board triangle, from the top band of each board product.

    Cell (n, k) is [x^k] P_b, which counts tilings of a b-board with k
    combs, for P_b = f_j^(m-r) * f_{j+1}^r and the board b = m*j + r =
    n + s*k, where s = t-1 for the tile triangle and s = 0 for the board
    triangle. Board b holds cells of rows below R = rows only in the
    degrees k0..d. Here d = (m-r)(j//t) + r((j+1)//t) is the degree of P_b:
    f_n has degree n//t, with leading coefficient C(q + rho, q) > 0 for
    n = tq + rho (f_3 = 1 + 2x at t = 2), and the band uses only the
    degree. k0 = 0 for b < R and k0 = ceil((b - R + 1) / s) after that.
    Boards with d < k0 hold none and are skipped. The boards run to
    b = (s+1)(R-1), the board of cell (R-1, R-1); so the board triangle
    takes every coefficient of P_0..P_(R-1).

    The band is read from the reversed product P~_b(y) = y^d P_b(1/y) =
    f~_j^(m-r) * f~_{j+1}^r (``_reversed_values``), whose degree-i
    coefficient is [x^(d-i)] P_b: degrees k0..d of P_b are the lowest
    L_b = d - k0 + 1 coefficients of P~_b. They are read as w-bit slots of
    P~_b(2^w) mod 2^(L_b*w). Every family value is kept mod 2^(B*w), B the
    largest L_b; the powers of F~_j mod 2^(M_j*w), M_j the largest L_b
    among the boards m(j-1)+1 .. m(j+1)-1 that use them (as f~_j^r or
    f~_j^(m-r)); and the two factors of each product mod 2^(L_b*w). That is
    exact, for these reasons:

    - Every needed entry is below 2^w, where w is the smaller of R and the
      bit length of P_last(1), rounded up to a slot size
      (``core._slot_bytes``: a word of 8, 16, 32 or 64 bits when one fits),
      and last is the last board with cells. An entry of row n < R counts
      tilings of at most n tiles (n in the tile triangle, n - (t-1)k in the
      board triangle), and a tiling is fixed by its sequence of tile types,
      since each tile covers the leftmost cell still empty; so it is at
      most 2^n < 2^R. It is also at most P_b(1), the sum of the
      coefficients of P_b, which are all >= 0. P_b(1) counts all tilings of
      a b-board, which never falls as b grows: going from b to b + 1
      replaces one factor f_j(1) by f_{j+1}(1) >= f_j(1). So it is at most
      P_last(1). Rounding only widens the slots, so this still holds.
    - Reduction mod 2^L commutes with sums, products and shifts, and
      L_b <= M_j <= B for every board that uses a power of F~_j, so the
      truncated family, powers and factors give P~_b(2^w) mod 2^(L_b*w) as
      an exact integer identity.
    - P~_b(2^w) = sum_i c_i 2^(i*w) with every c_i >= 0. Carries only move
      up: the terms with i >= L_b are multiples of 2^(L_b*w), and the terms
      with i < L_b sum to less than 2^(L_b*w) since each c_i < 2^w. So the
      low L_b slots are exactly c_0..c_(L_b - 1).
    - So slots above the band, in the products and in every intermediate
      value, may overflow without harm: only the final product's low L_b
      slots must stay below 2^w.

    Boards run strand by strand, j outer and r inner. Within strand j the
    degree d rises by one per board when t divides j + 1 (a rising strand)
    and stays otherwise (a flat one), while k0 rises by at most one per
    board. So L_b never falls along a rising strand and never rises along a
    flat one, and M_j is the larger of the widest band of strand j (at its
    first board if flat, its last if rising) and the widest of strand j - 1
    past its first board (at its second board if flat, its last if rising).

    Cell (n, k) sits at R + n + k*(R+s) = R + b + k*R of one column-major
    list, so the band of board b, slot i at degree d - i, fills one slice
    of stride -R; row n is the slice of stride R+s from R + n. A one-slot
    band is the product mod 2^w itself and needs no read.
    """
    check_int("rows", rows, 1)
    m, t = spec.m, spec.t
    s = t - 1 if kind is TriangleKind.TILE else 0
    boards = (s + 1) * (rows - 1) + 1
    first = [0] * rows + [(b - rows) // s + 1 for b in range(rows, boards)]  # k0 by board

    def band(b: int) -> int:
        # L_b = d - k0 + 1, at most 0 for a board with no cells
        j, r = divmod(b, m)
        return (m - r) * (j // t) + r * ((j + 1) // t) + 1 - first[b]

    last = next(b for b in range(boards - 1, -1, -1) if band(b) > 0)
    strands = last // m + 1
    # slots[j] = M_j, the widest band of strand j with that of strand j - 1
    # past its first board; F~_strands serves only boards of the last strand
    slots = [0] * (strands + 1)
    for j in range(strands):
        b, top, d = m * j, min(m - 1, last - m * j), m * (j // t)
        if (j + 1) % t:
            # a flat strand is widest at its first board, and past it at the next
            widest, after = d + 1 - first[b], top and d + 1 - first[b + 1]
        else:
            # a rising strand is widest at its last board
            widest = after = d + top + 1 - first[b + top]
        slots[j] = max(slots[j], widest)
        slots[j + 1] = max(after, 0) if top else 0

    size = _slot_bytes(min(rows, antidiagonal_sum_closed(spec, *divmod(last, m)).bit_length()))
    w = 8 * size
    # masks[L] keeps the lowest L slots
    masks = [(1 << w * L) - 1 for L in range(max(slots) + 1)]
    family = _reversed_values(t, w, masks[-1])

    def powers(f: int, top: int, mask: int) -> list[int]:
        out = [1, f & mask]
        for _ in range(top - 1):
            out.append(out[-1] * out[1] & mask)
        return out

    read = _slot_reader(size)
    cells = [0] * (rows * (rows + s + 1))
    high = powers(next(family), m, masks[slots[0]])
    for j in range(strands):
        # F~_(j+1) and its powers only as far as a board up to last uses them
        low, start = high, m * j
        if start < last:
            high = powers(next(family), min(m, last - start), masks[slots[j + 1]])
        d, rise = m * (j // t), (j + 1) // t - j // t
        # board start + r multiplies F~_j^(m-r) by F~_(j+1)^r
        for b, f, g in zip(range(start, last + 1), low[:0:-1], high):
            k0 = first[b]
            if d == k0:
                # a one-slot band is the product's lowest slot itself
                cells[b + (d + 1) * rows] = f * g & masks[1]
            elif d > k0:
                count = d - k0 + 1
                mask = masks[count]
                product = (f & mask) * (g & mask) & mask
                cells[b + (d + 1) * rows : b + k0 * rows : -rows] = read(product, count)
            d += rise
    stride = rows + s
    return [cells[rows + n : rows + n + n * stride + 1 : stride] for n in range(rows)]


def _board_values(spec: CombSpec, n: int, one):
    """P_b(1) = f_j(1)^(m-r) * f_{j+1}(1)^r for b = m*j + r = 0..n-1, over the unit ``one``.

    ``one`` is the int 1 or a Decimal 1; every value is built from it by
    additions and multiplications alone. The strand values f_j(1) come from
    their recurrence, and powers[k][j] = f_j(1)^k from one product each.
    The powers of f_{j+1}(1) serve strand j as its high factors and strand
    j + 1 as its low ones, so a board of r > 0 costs one more product, and
    the boards of one residue r are filled at once, every m-th place.
    """
    m, t = spec.m, spec.t
    strands = (n - 1) // m + 1
    # f_0(1), ..., f_strands(1) by f_i = f_{i-1} + f_{i-t}, f_i = 1 for i < t
    vals = [one] * (strands + 1)
    for i in range(t, strands + 1):
        vals[i] = vals[i - 1] + vals[i - t]
    powers = [[one] * (strands + 1), vals]
    for _ in range(m - 1):
        powers.append(list(map(mul, powers[-1], vals)))
    out = [one] * (m * strands)
    out[::m] = powers[m][:strands]
    for r in range(1, m):
        out[r::m] = map(mul, powers[m - r][:strands], powers[r][1:])
    del out[n:]
    return out


def board_counts(spec: CombSpec, n: int) -> list[int]:
    """Tiling counts of the boards of length 0..n-1, P_b(1) for each b."""
    check_int("n", n, 0)
    return _board_values(spec, n, 1)


# Where the decimal path of board_count_text starts: a last count of 1660
# bits, about 500 digits. Timed in cold processes, `import decimal` counted,
# best of 9 at last counts of 380, 420, ..., 620 digits (2-vCPU x86-64
# guest, Python 3.11.7): the decimal path leads from 500 digits up on
# (1,2), from 540 on (5,3) and from 580 on (6,6); from 420 digits up to
# there the two paths are within 10% of each other, as close as the noise.
DECIMAL_BITS = 1660


def board_count_text(spec: CombSpec, n: int) -> Iterator[str]:
    """``board_counts(spec, n)`` as decimal strings, built in decimal when they are long.

    CPython converts an int to decimal text in time quadratic in its digits
    (3.10 and 3.11), so printing n counts of O(n) digits costs O(n^3). From
    a last count of ``DECIMAL_BITS`` bits on, the counts are computed as
    ``decimal.Decimal`` values instead, whose text costs linear time. They
    are exact: the unit 1 is an integer with exponent 0, sums and products
    of integers with exponent 0 are integers with exponent 0, and no result
    is rounded, since the context carries ``MAX_PREC`` digits and traps
    ``Inexact`` and ``Rounded``, so a rounding would raise, not print a wrong
    count. An integer with exponent 0 prints as its plain digits, as str of
    the int does.

    Every count is computed before this returns, and each string as it is
    read, outside the exact context: str rounds nothing, and reads a context
    only for the case of an exponent letter, which these integers lack.
    """
    check_int("n", n, 0)
    if n < 1 or antidiagonal_sum_closed(spec, *divmod(n - 1, spec.m)).bit_length() < DECIMAL_BITS:
        return map(str, board_counts(spec, n))
    import decimal

    exact = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.InvalidOperation, decimal.Overflow, decimal.Inexact, decimal.Rounded],
    )
    with decimal.localcontext(exact):
        return map(str, _board_values(spec, n, decimal.Decimal(1)))


def board_poly(spec: CombSpec, j: int, r: int) -> IntPolynomial:
    """P_b = f_j^(m-r) * f_{j+1}^r for the board b = m*j + r, by schoolbook products.

    [x^k] P_b counts tilings of the b-board with k combs: the tile-indexed
    entry at (b - (t-1)*k, k) and the board-indexed entry at (b, k).
    """
    check_int("j", j, 0)
    check_int("r", r, 0, spec.m - 1)
    factors = [bonacci_poly(spec.t, j)] * (spec.m - r) + [bonacci_poly(spec.t, j + 1)] * r
    return functools.reduce(mul, factors)


def antidiagonal_sum_closed(spec: CombSpec, j: int, r: int) -> int:
    """Count of all tilings of an (m*j + r)-board, in product closed form."""
    check_int("j", j, 0)
    check_int("r", r, 0, spec.m - 1)
    vals = bonacci_numbers(spec.t, j + 1)
    return vals[j] ** (spec.m - r) * vals[j + 1] ** r


def power_series_div(
    numerator: Sequence[int], denominator: Sequence[int], n_terms: int
) -> list[int]:
    """First n_terms coefficients of numerator/denominator as a power series.

    Exact integer arithmetic; the denominator must have constant term 1.
    """
    check_int("n_terms", n_terms, 0)
    den, num = IntPolynomial(denominator).coeffs, IntPolynomial(numerator).coeffs
    if not den or den[0] != 1:
        raise ValueError("denominator must have constant term 1")
    out: list[int] = []
    for k in range(n_terms):
        c = num[k] if k < len(num) else 0
        for i in range(1, min(k, len(den) - 1) + 1):
            c -= den[i] * out[k - i]
        out.append(c)
    return out
