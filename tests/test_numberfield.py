import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlds.numberfield import (
    FieldElement,
    ModuleBasis,
    NumberField,
    ParseError,
    format_element,
    format_polynomial,
    is_positive_unit,
    min_poly,
    norm,
    parse_element,
    parse_polynomial,
    trace,
)
from normlds.numberfield import _is_irreducible, _poly_eval_int

SQRT2 = NumberField((-2, 0, 1))          # X^2 - 2
GOLDEN = NumberField((-1, -1, 1))        # X^2 - X - 1
BIQUAD = NumberField((1, 0, -10, 0, 1))  # min poly of sqrt2 + sqrt3


def surd_basis_m2():
    """{1, sqrt2, sqrt3, sqrt6} expressed in powers of eta = sqrt2 + sqrt3."""
    half = Fraction(1, 2)
    return ModuleBasis(
        BIQUAD,
        (
            BIQUAD.one,
            BIQUAD.element([0, -9 * half, 0, half]),
            BIQUAD.element([0, 11 * half, 0, -half]),
            BIQUAD.element([-5 * half, 0, half, 0]),
        ),
    )


class TestFieldValidation:
    def test_rejects_reducible_quadratic(self):
        with pytest.raises(ValueError, match="reducible"):
            NumberField((-4, 0, 1))  # X^2 - 4

    def test_rejects_reducible_cubic(self):
        with pytest.raises(ValueError, match="reducible"):
            NumberField((4, 0, 1, 1))  # root at -2

    def test_rejects_quartic_with_quadratic_factors(self):
        with pytest.raises(ValueError, match="reducible"):
            NumberField((1, 0, -6, 0, 1))  # (X^2-2X-1)(X^2+2X-1)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError, match="monic"):
            NumberField((-2, 0, 2))

    def test_accepts_known_irreducibles(self):
        NumberField((-1, 0, -2, 0, 1))  # X^4 - 2X^2 - 1
        NumberField((-2, 0, 0, 1))      # X^3 - 2
        NumberField((1, 0, -4, 0, 1))   # X^4 - 4X^2 + 1


def divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def trial_division_irreducible(coeffs) -> bool:
    """The divisor search _is_irreducible replaced, kept as its oracle.

    It tries every divisor of the constant term as a root, and for a quartic
    every factor pair of it as the constant terms of two quadratic factors, so
    it takes time exponential in the digit length.
    """
    n = len(coeffs) - 1
    c0 = coeffs[0]
    if c0 == 0:
        return False
    for d in divisors(c0):
        if _poly_eval_int(coeffs, d) == 0 or _poly_eval_int(coeffs, -d) == 0:
            return False
    if n == 4:
        _, c1, c2, c3, _ = coeffs
        for b in divisors(c0):
            for bb in (b, -b):
                d, rem = divmod(c0, bb)
                if rem != 0:
                    continue
                # (X^2+aX+bb)(X^2+cX+d): a+c = c3, ac = c2-bb-d, ad+bbc = c1
                s = c3
                p = c2 - bb - d
                disc = s * s - 4 * p
                if disc < 0:
                    continue
                root = _isqrt(disc)
                if root * root != disc or (s + root) % 2 != 0:
                    continue
                a = (s + root) // 2
                c = s - a
                if a * d + bb * c == c1:
                    return False
    return True


def _isqrt(n: int) -> int:
    import math

    return math.isqrt(n)


def poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def monic(degree, coeff):
    return st.tuples(*[coeff] * degree).map(lambda c: c + (1,))


def monic_polys(coeff):
    """Monic polynomials of degree 2..4 over `coeff`, and quartics and cubics
    built to be reducible: linear x cubic, quadratic x quadratic, a repeated
    root, and a zero constant term."""
    small = st.integers(-14, 14)
    return st.one_of(
        monic(2, coeff),
        monic(3, coeff),
        monic(4, coeff),
        st.builds(poly_mul, monic(1, coeff), monic(3, small)),
        st.builds(poly_mul, monic(1, coeff), monic(2, coeff)),
        st.builds(poly_mul, monic(2, coeff), monic(2, coeff)),
        st.builds(lambda r, g: poly_mul(poly_mul((r, 1), (r, 1)), g),
                  small, st.one_of(st.just((1,)), monic(1, small), monic(2, small))),
        st.builds(lambda g: poly_mul((0, 1), g), st.one_of(monic(1, coeff), monic(2, coeff), monic(3, coeff))),
    )


class TestIrreducibility:
    @given(monic_polys(st.integers(-200, 200)))
    @settings(max_examples=1500, deadline=None)
    def test_matches_trial_division(self, coeffs):
        assert _is_irreducible(coeffs) == trial_division_irreducible(coeffs)

    @given(monic_polys(st.integers(-10**12, 10**12)))
    @settings(max_examples=300, deadline=None)
    def test_matches_sympy_on_large_coefficients(self, coeffs):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        expected = sympy.Poly(list(reversed(coeffs)), x).is_irreducible
        assert _is_irreducible(coeffs) == expected

    @pytest.mark.parametrize(
        "coeffs, irreducible",
        [
            ((-(10**18 + 7), 0, 1), True),
            ((10**16 + 1, 0, -10, 0, 1), True),
            ((-(10**9 + 7) ** 2, 0, 1), False),
            (poly_mul((999_983, -1_000_003, 1), (1_000_033, 999_979, 1)), False),
            (poly_mul((10**6 + 3, 0, 1), (10**6 + 3, 0, 1)), False),
        ],
    )
    def test_digit_length_cases(self, coeffs, irreducible):
        assert _is_irreducible(coeffs) == irreducible


class TestArithmetic:
    def test_theta_squared(self):
        th = SQRT2.generator
        assert (th * th).coords == (Fraction(2), Fraction(0))

    def test_eta_squared_is_quadratic_unit(self):
        eta = BIQUAD.generator
        eps = eta * eta
        assert eps.coords == (0, 0, 1, 0)
        assert min_poly(eps) == (Fraction(1), Fraction(-10), Fraction(1))

    def test_difference_of_squares(self):
        th = SQRT2.generator
        assert ((SQRT2.one + th) * (SQRT2.one - th)).coords == (Fraction(-1), Fraction(0))

    def test_theta_inverse(self):
        assert SQRT2.generator.inverse().coords == (Fraction(0), Fraction(1, 2))

    def test_eta_inverse_multiplies_back(self):
        eta = BIQUAD.generator
        assert (eta * eta.inverse()).is_one()

    def test_one_inverse(self):
        assert BIQUAD.one.inverse() == BIQUAD.one

    def test_zero_inverse_rejected(self):
        with pytest.raises(ZeroDivisionError):
            BIQUAD.zero.inverse()

    def test_field_mismatch(self):
        with pytest.raises(ValueError, match="different fields"):
            SQRT2.one * BIQUAD.one

    def test_ring_axioms_random(self):
        rng = random.Random(17)
        for field in (SQRT2, BIQUAD):
            n = field.degree
            for _ in range(40):
                a = field.element([rng.randint(-9, 9) for _ in range(n)])
                b = field.element([rng.randint(-9, 9) for _ in range(n)])
                c = field.element([rng.randint(-9, 9) for _ in range(n)])
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert a * b == b * a


class TestNormTrace:
    def test_norm_of_pell_unit(self):
        assert norm(SQRT2.element([3, 2])) == 1

    def test_norm_one(self):
        assert norm(BIQUAD.one) == 1

    def test_norm_of_family_unit(self):
        assert norm(BIQUAD.generator) == 1

    def test_quartic_trace_of_eps(self):
        eta = BIQUAD.generator
        assert trace(eta * eta) == 20  # twice the quadratic-subfield trace

    def test_trace_of_one(self):
        assert trace(BIQUAD.one) == 4

    def test_trace_reads_linear_coefficient(self):
        k = NumberField((3, -7, 1))  # X^2 - 7X + 3
        assert trace(k.generator) == 7

    def test_multiplicativity_additivity(self):
        rng = random.Random(23)
        for _ in range(40):
            a = BIQUAD.element([rng.randint(-5, 5) for _ in range(4)])
            b = BIQUAD.element([rng.randint(-5, 5) for _ in range(4)])
            assert norm(a * b) == norm(a) * norm(b)
            assert trace(a + b) == trace(a) + trace(b)


class TestMinPoly:
    def test_generator(self):
        assert min_poly(BIQUAD.generator) == tuple(Fraction(c) for c in BIQUAD.coeffs)

    def test_rational_element(self):
        assert min_poly(BIQUAD.from_int(5)) == (Fraction(-5), Fraction(1))

    def test_vanishes_and_degree_divides(self):
        rng = random.Random(31)
        for _ in range(25):
            a = BIQUAD.element([rng.randint(-4, 4) for _ in range(4)])
            mp = min_poly(a)
            acc = BIQUAD.zero
            for i, c in enumerate(mp):
                acc = acc + (a**i).scale(c)
            assert acc.is_zero()
            assert 4 % (len(mp) - 1) == 0

    def test_square_root_structure(self):
        # eta with eta^2 = eps quadratic: min_poly(eta) = X^4 - Tr(eps) X^2 + N(eps)
        eta = BIQUAD.generator
        mp_eps = min_poly(eta * eta)
        t = -mp_eps[1]
        n = mp_eps[0]
        assert min_poly(eta) == (n, Fraction(0), -t, Fraction(0), Fraction(1))


class TestPositiveUnit:
    def test_family_unit_in_surd_ring(self):
        assert is_positive_unit(BIQUAD.generator, surd_basis_m2())

    def test_rational_two_is_not(self):
        assert not is_positive_unit(BIQUAD.from_int(2), surd_basis_m2())

    def test_pell_unit(self):
        assert is_positive_unit(SQRT2.element([3, 2]), SQRT2.power_basis())

    def test_ring_without_one_rejected(self):
        doubled = ModuleBasis(SQRT2, (SQRT2.from_int(2), SQRT2.generator))
        with pytest.raises(ValueError, match="contain 1"):
            is_positive_unit(SQRT2.element([3, 2]), doubled)

    def test_norm_one_but_unstable(self):
        # over Z + Z*(sqrt2/3) the unit 3+2sqrt2 has integral coordinates (3, 6)
        # but (3+2sqrt2)*(sqrt2/3) = 4/3 + sqrt2 leaves the module
        module = ModuleBasis(SQRT2, (SQRT2.one, SQRT2.element([0, Fraction(1, 3)])))
        assert not is_positive_unit(SQRT2.element([3, 2]), module)


class TestCoords:
    def test_first_vector(self):
        basis = surd_basis_m2()
        assert basis.coords(basis.vectors[0]) == (1, 0, 0, 0)

    def test_eta_over_remark_basis(self):
        surds = surd_basis_m2()
        one, s2, s3, s6 = surds.vectors
        remark = ModuleBasis(BIQUAD, (s6, s2 + s6.scale(2), one, s2 + s3 - s6.scale(2)))
        assert remark.coords(BIQUAD.generator) == (2, 0, 0, 1)
        assert remark.coords(BIQUAD.generator ** 2) == (2, 0, 5, 0)

    def test_round_trip(self):
        rng = random.Random(41)
        basis = surd_basis_m2()
        for _ in range(20):
            weights = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
            elem = basis.combine(weights)
            assert basis.coords(elem) == tuple(weights)

    def test_singular_basis_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            ModuleBasis(SQRT2, (SQRT2.one, SQRT2.from_int(3)))


class TestParsing:
    def test_polynomial_round_trip(self):
        for text, coeffs in [
            ("x^4-10x^2+1", (1, 0, -10, 0, 1)),
            ("x^2 - x - 1", (-1, -1, 1)),
            ("x^3-2", (-2, 0, 0, 1)),
            ("x^4 - 2*x^2 - 1", (-1, 0, -2, 0, 1)),
        ]:
            assert parse_polynomial(text) == coeffs
            assert parse_polynomial(format_polynomial(coeffs)) == coeffs

    def test_element_round_trip(self):
        for text in ["2 + 3*t - t^3", "-5/2 + 1/2*t^2", "t", "0", "1/3"]:
            e = parse_element(BIQUAD, text)
            assert parse_element(BIQUAD, format_element(e)) == e

    def test_whitespace_insensitive(self):
        assert parse_element(BIQUAD, "2+3*t-t^3") == parse_element(BIQUAD, " 2 + 3 * t - t ^ 3 ")

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_element(BIQUAD, "2 +* t")
        assert info.value.position == 3

    def test_power_beyond_degree_rejected(self):
        with pytest.raises(ParseError):
            parse_element(SQRT2, "t^2")

    def test_fractional_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^2 - 1/2")
