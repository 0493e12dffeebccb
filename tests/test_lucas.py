import math
import random

import pytest

from normlds.lucas import LucasParams, lucas_u, odd_even_closed_form, odd_index_square_identity
from normlds.numberfield import NumberField


def iterate(params, count):
    """u_0 .. u_{count-1} by the recurrence, the oracle for the doubling in lucas_u."""
    terms = []
    a, b = 0, 1
    for _ in range(count):
        terms.append(a)
        a, b = b, params.p * b - params.q * a
    return tuple(terms)


def companion_power(params: LucasParams, k: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """k-th power of [[P, -Q], [1, 0]], valid for k >= 1.

    Equals [[u_{k+1}, -Q u_k], [u_k, -Q u_{k-1}]], which is the identity the
    divisibility property rests on.
    """
    if k < 1:
        raise ValueError("power identity needs k >= 1")
    m = ((params.p, -params.q), (1, 0))
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
    params = LucasParams(1, -1)
    assert [lucas_u(params, k) for k in range(10)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_p10_prefix():
    params = LucasParams(10, 1)
    assert [lucas_u(params, k) for k in range(5)] == [0, 1, 10, 99, 980]


def test_u0_is_zero():
    for p, q in [(3, 2), (10, 1), (-7, 4)]:
        assert lucas_u(LucasParams(p, q), 0) == 0


def test_doubling_agrees_with_iteration():
    params = LucasParams(4, -7)
    terms = iterate(params, 260)
    for k in (65, 100, 200, 259):
        assert lucas_u(params, k) == terms[k]


def test_parameter_validation():
    with pytest.raises(ValueError, match="coprime"):
        LucasParams(4, 2)
    with pytest.raises(ValueError, match="nonzero"):
        LucasParams(0, 1)


def test_matrix_identity():
    for p, q in [(10, 1), (1, -1), (5, -3), (3, 2)]:
        params = LucasParams(p, q)
        terms = iterate(params, 52)
        for k in range(1, 51):
            assert companion_power(params, k) == (
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
        terms = iterate(LucasParams(p, q), 201)
        for m in range(1, 201):
            for mn in range(m, 201, m):
                assert terms[m] == 0 and terms[mn] == 0 or terms[mn] % terms[m] == 0


class TestClosedForm:
    def test_k0(self):
        assert odd_even_closed_form(LucasParams(7, 1), 1, 0) == 0

    def test_k3_is_t_plus_one(self):
        assert odd_even_closed_form(LucasParams(10, 1), 1, 3) == 11

    def test_k7_scaled(self):
        assert odd_even_closed_form(LucasParams(10, 1), 2, 7) == 2 * (980 + 99)

    def test_requires_q_one(self):
        with pytest.raises(ValueError, match="Q = 1"):
            odd_even_closed_form(LucasParams(1, -1), 1, 4)


class TestSquareIdentity:
    def test_base_case(self):
        assert odd_index_square_identity(LucasParams(10, 1), 0)

    def test_p10_n1(self):
        # u_3 = 99 = 10^2 - 1^2
        assert odd_index_square_identity(LucasParams(10, 1), 1)

    def test_p6_n2(self):
        # u_5 = 1189 = 35^2 - 6^2
        assert odd_index_square_identity(LucasParams(6, 1), 2)

    def test_range(self):
        for params in (LucasParams(3, 1), LucasParams(12, 1)):
            assert all(odd_index_square_identity(params, n) for n in range(51))


def test_explicit_formula_symbolically():
    # u_k (theta - thetabar) = theta^k - thetabar^k inside Q[X]/(X^2 - PX + Q)
    for p, q in [(1, -1), (6, 1), (3, -2)]:
        field = NumberField((q, -p, 1))
        th = field.generator
        thbar = field.from_int(p) - th
        diff = th - thbar
        params = LucasParams(p, q)
        for k in range(25):
            assert diff.scale(lucas_u(params, k)) == th**k - thbar**k
