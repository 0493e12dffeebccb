"""The benchmark's own exact arithmetic, written apart from normlds.

Input selection and the correctness checks use only these helpers (and sympy,
after the timed region), so a fault in the program cannot hide itself by
also corrupting the reference values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def times_t(a: list[int], f: tuple[int, ...]) -> list[int]:
    """a * t mod f for a monic integer f (ascending coefficients, leading 1)."""
    top = a[-1]
    out = [0] + a[:-1]
    if top:
        for j in range(len(out)):
            out[j] -= top * f[j]
    return out


def mulmod(a: list, b: list, f: tuple[int, ...]) -> list:
    """a * b mod f, for integer or Fraction coefficients."""
    n = len(f) - 1
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for i in range(2 * n - 2, n - 1, -1):
        c = prod[i]
        if c:
            for j in range(n):
                prod[i - n + j] -= c * f[j]
    return prod[:n]


def quartic(t_trace: int) -> tuple[int, ...]:
    """x^4 - T x^2 + 1, ascending."""
    return (1, 0, -t_trace, 0, 1)


def quartic_irreducible(t_trace: int) -> bool:
    """x^4 - T x^2 + 1 (T > 2) factors over Q exactly when T - 2 or T + 2 is a square."""
    return t_trace > 2 and not is_square(t_trace - 2) and not is_square(t_trace + 2)


def is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def power_rows(beta: list[int], f: tuple[int, ...], count: int) -> list[list[int]]:
    """Power coordinates of beta * t^i for i = 0..count-1."""
    rows = [list(beta)]
    for _ in range(count - 1):
        rows.append(times_t(rows[-1], f))
    return rows


def det(m: list[list]) -> Fraction:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    value = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            value = -value
        value *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                factor = a[i][k] / a[k][k]
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return value


def solve(m: list[list], rhs: list) -> list[Fraction]:
    """The x with m x = rhs for a nonsingular square m (Gauss-Jordan over Fraction)."""
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(m, rhs)]
    for k in range(n):
        piv = next(i for i in range(k, n) if a[i][k] != 0)
        a[k], a[piv] = a[piv], a[k]
        a[k] = [x / a[k][k] for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                factor = a[i][k]
                a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return [row[n] for row in a]


def coords_over(rows: list[list], target: list) -> list[Fraction]:
    """Coordinates c with sum c_i * rows[i] = target."""
    n = len(rows)
    transposed = [[rows[i][j] for i in range(n)] for j in range(n)]
    return solve(transposed, target)


def int_det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_ratio(b: list[list[int]]) -> int:
    """s_n / s_1 of the Smith invariants, from determinantal divisors D_1 and D_(n-1)."""
    n = len(b)
    d1 = math.gcd(*(x for row in b for x in row))
    minors = (
        int_det([[b[i][j] for j in cols] for i in rows])
        for rows in combinations(range(n), n - 1)
        for cols in combinations(range(n), n - 1)
    )
    d_prev = math.gcd(*minors)
    s_last = abs(int_det(b)) // d_prev
    return s_last // d1


def lds_criterion(b: list[list[int]], t_trace: int) -> tuple[bool, int]:
    """(satisfied, scale) of the full-module test, straight from its definition.

    A basis with x1 initial conditions a * (0, 1, 1, T+1) exists iff the least
    integral multiple z = L * b^-1 v of b^-1 v is primitive; a = L is then the
    least possible scale.
    """
    w = solve(b, [0, 1, 1, t_trace + 1])
    scale = math.lcm(*(x.denominator for x in w))
    z = [int(x * scale) for x in w]
    return math.gcd(*z) == 1, scale


def divides(a: int, b: int) -> bool:
    return b == 0 if a == 0 else b % a == 0


def first_lds_failure(col: list[int], nmax: int) -> tuple[int, int] | None:
    """Least (m, n) by m, then n, with n | m <= nmax and col[n] not dividing col[m]."""
    best = None
    for n in range(1, nmax // 2 + 1):
        bn = col[n]
        for m in range(2 * n, nmax + 1, n):
            if best is not None and m > best[0]:
                break
            if not divides(bn, col[m]):
                if best is None or (m, n) < best:
                    best = (m, n)
                break
    return None if best is None else (best[1], best[0])


def digits(x: int) -> int:
    """Decimal digits of |x| without int-to-str conversion."""
    x = abs(x)
    if x == 0:
        return 1
    guess = int((x.bit_length() - 1) * 0.30102999566398120) + 1
    if x >= 10**guess:
        return guess + 1
    if x < 10 ** (guess - 1):
        return guess - 1
    return guess
