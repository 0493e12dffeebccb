"""The Lucas oracle of tests/oracles.py against known terms and identities.

Three test files take lucas_terms as the truth for x1 of the quadratic and
quartic-power constructions; these tests pin it independently: prefixes,
the companion-matrix power, divisibility, and the explicit formula inside
the field Q[X]/(X^2 - PX + Q).
"""

import math
import random

from normlds.numberfield import NumberField
from oracles import lucas_terms


def companion_power(p: int, q: int, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """k-th power of [[P, -Q], [1, 0]], valid for k >= 1.

    Equals [[u_{k+1}, -Q u_k], [u_k, -Q u_{k-1}]], which is the identity the
    divisibility property rests on.
    """
    m = ((p, -q), (1, 0))
    result = ((1, 0), (0, 1))

    def mul(a, b):
        return (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
        )

    e = k
    while e:
        if e & 1:
            result = mul(result, m)
        m = mul(m, m)
        e >>= 1
    return result


def test_fibonacci_prefix():
    assert lucas_terms(1, -1, 10) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_p10_prefix():
    assert lucas_terms(10, 1, 5) == [0, 1, 10, 99, 980]


def test_u0_is_zero():
    for p, q in [(3, 2), (10, 1), (-7, 4)]:
        assert lucas_terms(p, q, 1) == [0]


def test_matrix_identity():
    for p, q in [(10, 1), (1, -1), (5, -3), (3, 2)]:
        terms = lucas_terms(p, q, 52)
        for k in range(1, 51):
            assert companion_power(p, q, k) == (
                (terms[k + 1], -q * terms[k]),
                (terms[k], -q * terms[k - 1]),
            )


def test_divisibility_up_to_200():
    rng = random.Random(99)
    tried = 0
    while tried < 6:
        p, q = rng.randint(-12, 12), rng.randint(-12, 12)
        if p == 0 or q == 0 or math.gcd(p, q) != 1:
            continue
        tried += 1
        terms = lucas_terms(p, q, 201)
        for m in range(1, 201):
            for mn in range(m, 201, m):
                assert terms[m] == 0 and terms[mn] == 0 or terms[mn] % terms[m] == 0


def square_identity(p: int, n: int) -> bool:
    """u_{2n+1} = u_{n+1}^2 - u_n^2, an identity of the Q = 1 case."""
    u = lucas_terms(p, 1, 2 * n + 2)
    return u[2 * n + 1] == u[n + 1] ** 2 - u[n] ** 2


class TestSquareIdentity:
    def test_base_case(self):
        assert square_identity(10, 0)

    def test_p10_n1(self):
        # u_3 = 99 = 10^2 - 1^2
        assert square_identity(10, 1)

    def test_p6_n2(self):
        # u_5 = 1189 = 35^2 - 6^2
        assert square_identity(6, 2)

    def test_range(self):
        for p in (3, 12):
            assert all(square_identity(p, n) for n in range(51))


def test_explicit_formula_symbolically():
    # u_k (theta - thetabar) = theta^k - thetabar^k inside Q[X]/(X^2 - PX + Q)
    for p, q in [(1, -1), (6, 1), (3, -2)]:
        field = NumberField((q, -p, 1))
        th = field.generator
        thbar = field.from_int(p) - th
        diff = th - thbar
        for k, u in enumerate(lucas_terms(p, q, 25)):
            assert diff.scale(u) == th**k - thbar**k
