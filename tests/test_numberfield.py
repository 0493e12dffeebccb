import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normlds.numberfield import (
    FieldElement,
    ModuleBasis,
    NumberField,
    ParseError,
    format_element,
    format_polynomial,
    min_poly,
    norm,
    parse_element,
    parse_polynomial,
)
from normlds.exactlinalg import apply, fraction_free_inverse
from normlds.numberfield import (
    _is_irreducible,
    _matrix,
    _parse_terms,
    _poly_eval_int,
    _root_floors,
)
from oracles import faddeev_leverrier, reference_min_poly, solve_linear

SQRT2 = NumberField((-2, 0, 1))          # X^2 - 2
GOLDEN = NumberField((-1, -1, 1))        # X^2 - X - 1
BIQUAD = NumberField((1, 0, -10, 0, 1))  # min poly of sqrt2 + sqrt3
CUBIC = NumberField((-2, 0, 0, 1))       # X^3 - 2


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


def real_root_floors(coeffs) -> set[int]:
    """floor(r) for each real root r of a linear or quadratic integer polynomial.

    A quadratic's roots are r = (-c1 + sigma sqrt(D)) / (2 c2) with c2 > 0, and
    m <= r exactly when u = 2 c2 m + c1 <= sigma sqrt(D), which the signs of u
    and u^2 - D decide; each floor is the last m for which that holds, found by
    bisection over a range that holds every root.
    """
    if len(coeffs) == 2:
        return {math.floor(Fraction(-coeffs[0], coeffs[1]))}
    c0, c1, c2 = coeffs if coeffs[2] > 0 else [-c for c in coeffs]
    disc = c1 * c1 - 4 * c0 * c2
    if disc < 0:
        return set()

    def at_most(m, sigma):
        u = 2 * c2 * m + c1
        return (u <= 0 or u * u <= disc) if sigma > 0 else (u <= 0 and u * u >= disc)

    floors = set()
    for sigma in (1, -1):
        # every root has |r| <= 1 + max(|c0|, |c1|) / c2 < reach
        lo, hi = -(abs(c0) + abs(c1) + 2), abs(c0) + abs(c1) + 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if at_most(mid, sigma) else (lo, mid)
        floors.add(lo)
    return floors


@st.composite
def low_degree_and_bound(draw):
    """A linear or quadratic integer polynomial, either sign of its leading
    coefficient, and a bound that is often one of its integer roots."""
    nonzero = st.integers(-9, 9).filter(bool)
    k = draw(nonzero)
    kind = draw(st.sampled_from(["linear", "random", "large", "roots", "double", "no real root"]))
    roots = []
    if kind == "linear":
        coeffs = (draw(st.integers(-10**6, 10**6)), k * draw(st.integers(1, 40)))
    elif kind == "random":
        coeffs = (draw(st.integers(-500, 500)), draw(st.integers(-500, 500)), k)
    elif kind == "large":
        big = st.integers(-10**30, 10**30)
        coeffs = (draw(big), draw(big), k * draw(st.integers(1, 10**15)))
    elif kind in ("roots", "double"):
        # k (q X - p)(s X - r): a square discriminant, and a double root when p/q = r/s
        q, p = draw(st.integers(1, 3)), draw(st.integers(-60, 60))
        s, r = (q, p) if kind == "double" else (draw(st.integers(1, 3)), draw(st.integers(-60, 60)))
        coeffs = tuple(k * c for c in poly_mul((-p, q), (-r, s)))
        roots = [x for x, y in ((p, q), (r, s)) if y == 1]
    else:
        # k ((q X + a)^2 + b) with b > 0 has discriminant -4 q^2 b
        q, a, b = draw(st.integers(1, 5)), draw(st.integers(-60, 60)), draw(st.integers(1, 60))
        coeffs = tuple(k * c for c in (a * a + b, 2 * a * q, q * q))
    bound = draw(st.one_of(st.integers(0, 80), st.sampled_from([abs(x) for x in roots] or [0])))
    return coeffs, bound


class TestRootFloors:
    @given(low_degree_and_bound())
    @settings(max_examples=2000, deadline=None)
    def test_closed_forms_give_the_floor_of_each_root_in_range(self, case):
        coeffs, bound = case
        want = {m for m in real_root_floors(coeffs) if -bound <= m <= bound}
        assert _root_floors(coeffs, bound) == want

    @pytest.mark.parametrize(
        "coeffs, bound, floors",
        [
            ((-6, 3), 5, {2}),           # 3X - 6, root 2
            ((6, -3), 1, set()),         # root 2 outside [-1, 1]
            ((-7, 2), 3, {3}),           # root 7/2
            ((-4, 0, 1), 2, {-2, 2}),    # roots at -bound and bound
            ((4, 0, -1), 2, {-2, 2}),    # the same roots, leading coefficient negative
            ((-2, 0, 1), 5, {-2, 1}),    # +-sqrt 2: the lower floor is -2
            ((9, -6, 1), 9, {3}),        # (X - 3)^2, a double root
            ((1, 0, 1), 9, set()),       # X^2 + 1, negative discriminant
        ],
    )
    def test_closed_form_cases(self, coeffs, bound, floors):
        assert _root_floors(coeffs, bound) == floors


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

    @given(st.sampled_from([-1, 0, 1]), st.lists(st.integers(-30, 30), min_size=1, max_size=3))
    @settings(max_examples=500, deadline=None)
    def test_unit_and_zero_constant_terms_match_trial_division(self, c0, middle):
        # the divisor bound leaves the integer-root search the range [-1, 1]
        coeffs = (c0, *middle, 1)
        assert _is_irreducible(coeffs) == trial_division_irreducible(coeffs)

    @pytest.mark.parametrize(
        "coeffs, irreducible",
        [
            ((0, 3, 0, 1), False),         # X^3 + 3X, root 0
            ((0, -5, 2, 1, 1), False),     # root 0 of a quartic
            ((-1, -1, 1), True),           # X^2 - X - 1
            ((1, -2, 1), False),           # (X - 1)^2
            ((1, -1, -1, 1), False),       # (X - 1)^2 (X + 1)
            ((1, 0, -3, 0, 1), False),     # (X^2 - X - 1)(X^2 + X - 1), no integer root
            ((1, 0, -2, 0, 1), False),     # T = 2: (X^2 - 1)^2
            ((1, 0, 2, 0, 1), False),      # T = -2: (X^2 + 1)^2, no integer root
            ((1, 0, -4, 0, 1), True),      # T = 4
        ],
    )
    def test_unit_and_zero_constant_term_cases(self, coeffs, irreducible):
        assert _is_irreducible(coeffs) == irreducible == trial_division_irreducible(coeffs)


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
            BIQUAD.from_int(0).inverse()

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


def trace(a):
    """The field trace of a: the trace of its multiplication matrix, read off _matrix(a) over den.

    The library keeps no trace function.
    """
    m = _matrix(a)
    return Fraction(sum(m[i][i] for i in range(len(m))), a.den)


class TestNormTrace:
    def test_norm_of_pell_unit(self):
        assert norm(SQRT2.element([3, 2])) == 1

    def test_norm_one(self):
        assert norm(BIQUAD.one) == 1

    def test_norm_of_family_unit(self):
        assert norm(BIQUAD.generator) == 1

    def test_norm_of_a_fraction(self):
        # N(3/2 + sqrt 2) = 9/4 - 2, and N(a/4) = N(a)/4^4 in degree 4
        assert norm(SQRT2.element([Fraction(3, 2), 1])) == Fraction(1, 4)
        a = BIQUAD.element([1, -1, 0, 1])
        assert norm(a.scale(Fraction(1, 4))) == norm(a) / 256
        assert norm(BIQUAD.element([Fraction(1, 3), 0, Fraction(1, 2), 0])) == norm(
            BIQUAD.element([2, 0, 3, 0])
        ) / 6**4

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
            acc = BIQUAD.from_int(0)
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


# fields of degree 2, 3 and 4, with every coefficient of f in use in some of them
REPRESENTATION_FIELDS = [
    SQRT2, GOLDEN, CUBIC, NumberField((-1, -1, 0, 1)), BIQUAD,
    NumberField((1, -1, -3, -1, 1)), NumberField((1, 2, -7, 2, 1)),
]


def reference_mul(field, a, b):
    """The product of two Fraction coordinate vectors, reduced by f from the top down."""
    f, n = field.coeffs, field.degree
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        # t^k = t^(k-n) * t^n and t^n = -(f_0 + ... + f_(n-1) t^(n-1))
        c, prod[k] = prod[k], Fraction(0)
        for i in range(n):
            prod[k - n + i] -= c * f[i]
    return tuple(prod[:n])


def reference_inverse(field, a):
    """The coordinates x with a * x = 1, from a Fraction solve on the products a * t^j."""
    n = field.degree
    columns = [reference_mul(field, a, [Fraction(int(i == j)) for i in range(n)]) for j in range(n)]
    return solve_linear(columns, [Fraction(int(i == 0)) for i in range(n)])


def reference_pow(field, a, k):
    if k < 0:
        a, k = reference_inverse(field, a), -k
    out = tuple(Fraction(int(i == 0)) for i in range(field.degree))
    for _ in range(k):
        out = reference_mul(field, out, a)
    return out


def rational_coords(n):
    """n rational coordinates with denominators up to 12; some numerators have 30 digits."""
    num = st.one_of(st.integers(-9, 9), st.integers(-10**30, 10**30))
    return st.lists(st.builds(Fraction, num, st.integers(1, 12)), min_size=n, max_size=n)


@st.composite
def field_and_coords(draw, count):
    field = draw(st.sampled_from(REPRESENTATION_FIELDS))
    return field, [draw(rational_coords(field.degree)) for _ in range(count)]


def assert_lowest_terms(a):
    assert a.den > 0 and math.gcd(a.den, *a.num) == 1
    assert a.coords == tuple(Fraction(x, a.den) for x in a.num)


class TestIntegerForm:
    @settings(max_examples=200, deadline=None)
    @given(field_and_coords(2), st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)))
    def test_arithmetic_matches_fraction_reference(self, case, c):
        field, (x, y) = case
        a, b = field.element(x), field.element(y)
        results = {
            a * b: reference_mul(field, x, y),
            a + b: tuple(p + q for p, q in zip(x, y)),
            a - b: tuple(p - q for p, q in zip(x, y)),
            a.scale(c): tuple(c * p for p in x),
            a * c: tuple(c * p for p in x),
            -a: tuple(-p for p in x),
        }
        for got, want in results.items():
            assert got.coords == want
            assert got == field.element(want)
            assert_lowest_terms(got)

    @settings(max_examples=100, deadline=None)
    @given(field_and_coords(1), st.integers(-3, -1))
    def test_inverse_and_negative_powers(self, case, k):
        field, (x,) = case
        a = field.element(x)
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            return
        assert a.inverse().coords == reference_inverse(field, x)
        assert (a**k).coords == reference_pow(field, x, k)
        assert_lowest_terms(a**k)

    @settings(max_examples=100, deadline=None)
    @given(field_and_coords(1), st.integers(2, 30))
    def test_equal_values_compare_and_hash_alike(self, case, m):
        field, (x,) = case
        a = field.element(x)
        # the same value written over the denominator m * den, and reached by arithmetic
        over_m = field.element([Fraction(p * m, m) for p in x])
        via_sum = (a + field.one) - field.one
        via_scale = a.scale(m).scale(Fraction(1, m))
        for b in (over_m, via_sum, via_scale):
            assert b == a and hash(b) == hash(a)
            assert (b.num, b.den) == (a.num, a.den)

    def test_examples(self):
        half = SQRT2.element([Fraction(2, 4), 0])
        assert half == SQRT2.element([Fraction(1, 2), 0])
        assert hash(half) == hash(SQRT2.element([Fraction(1, 2), 0]))
        assert (half.num, half.den) == ((1, 0), 2)
        assert SQRT2.from_int(0).den == 1 and SQRT2.from_int(0) == SQRT2.element([Fraction(0, 7), 0])
        a = BIQUAD.element([Fraction(1, 6), Fraction(1, 4), 0, Fraction(-3, 2)])
        assert (a.num, a.den) == ((2, 3, 0, -18), 12)
        # a - a is zero, over the denominator 1
        assert (a - a) == BIQUAD.from_int(0) and (a - a).den == 1


def sympy_minimal_polynomial(sympy, a):
    """min_poly(a) from sympy.minimal_polynomial at a root of f, as monic Fractions."""
    x = sympy.Symbol("x")
    root = sympy.CRootOf(sympy.Poly(list(reversed(a.field.coeffs)), x), 0)
    value = sum(sympy.Rational(c.numerator, c.denominator) * root**i for i, c in enumerate(a.coords))
    mp = sympy.Poly(sympy.minimal_polynomial(value, x), x).monic()
    return tuple(Fraction(int(c.p), int(c.q)) for c in reversed(mp.all_coeffs()))


# for each quartic field, elements s whose Q(s) is a quadratic subfield
QUADRATIC_SUBFIELDS = [
    (BIQUAD, [[-5, 0, 1, 0], [0, -9, 0, 1], [0, 11, 0, -1]]),  # 2 sqrt6, 2 sqrt2, 2 sqrt3
    (NumberField((-2, 0, 0, 0, 1)), [[0, 0, 1, 0]]),  # sqrt2 in Q(2^(1/4))
    (NumberField((1, 0, -5, 0, 1)), [[0, 0, 1, 0]]),  # t^2 is a unit of Q(sqrt21)
]


class TestMinPolyAgainstSympy:
    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(QUADRATIC_SUBFIELDS).flatmap(
        lambda spec: st.tuples(st.just(spec[0]), st.sampled_from(spec[1]),
                               rational_coords(2).filter(lambda c: c[1] != 0))))
    def test_quadratic_subfield_elements(self, case):
        sympy = pytest.importorskip("sympy")
        field, s, (p, q) = case
        a = field.from_int(p) + field.element(s).scale(q)
        mp = min_poly(a)
        assert len(mp) == 3
        assert mp == sympy_minimal_polynomial(sympy, a)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(REPRESENTATION_FIELDS), rational_coords(1))
    def test_rational_elements(self, field, coords):
        sympy = pytest.importorskip("sympy")
        a = field.from_int(coords[0])
        assert min_poly(a) == (-coords[0], 1) == sympy_minimal_polynomial(sympy, a)

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(REPRESENTATION_FIELDS), st.integers(2, 12),
           st.lists(st.integers(-9, 9), min_size=4, max_size=4))
    def test_elements_with_a_denominator(self, field, den, nums):
        sympy = pytest.importorskip("sympy")
        # small numerators over one denominator, so that sympy's algebra stays quick
        a = field.element([Fraction(x, den) for x in nums[: field.degree]])
        assume(a.den > 1 and any(a.num[1:]))
        assert min_poly(a) == sympy_minimal_polynomial(sympy, a)


class TestMinPolyAgainstTheCharpoly:
    """min_poly against reference_min_poly: the Faddeev-LeVerrier charpoly and its square test."""

    @settings(max_examples=200, deadline=None)
    @given(field_and_coords(1))
    def test_representation_field_elements(self, case):
        field, (x,) = case
        a = field.element(x)
        assert min_poly(a) == reference_min_poly(_matrix(a), a.den)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(QUADRATIC_SUBFIELDS).flatmap(
        lambda spec: st.tuples(st.just(spec[0]), st.sampled_from(spec[1]), rational_coords(2))))
    def test_quadratic_subfield_elements(self, case):
        field, s, (p, q) = case
        a = field.from_int(p) + field.element(s).scale(q)
        mp = min_poly(a)
        assert len(mp) == (3 if q else 2)
        assert mp == reference_min_poly(_matrix(a), a.den)


def powers_of(a):
    """v_0 = e1, v_1 = num, ..., v_n: the coordinates of num^k, by the field product."""
    n = a.field.degree
    num = a.field.element(a.num)
    vs, power = [], a.field.one
    for _ in range(n + 1):
        vs.append(power.num)
        power = power * num
    return vs


class TestCharpolyDivisions:
    """The exact divisions the minimal polynomial relies on."""

    @settings(max_examples=150, deadline=None)
    @given(field_and_coords(1))
    def test_the_power_solve_divides_by_q_exactly(self, case):
        field, (x,) = case
        a = field.element(x)
        n = field.degree
        vs = powers_of(a)
        solved = fraction_free_inverse(list(zip(*vs[:n])))
        # the powers 1, num, ..., num^(n-1) are independent exactly when d = n
        assert (solved is None) == (len(reference_min_poly(_matrix(a), a.den)) - 1 < n)
        if solved is None:
            return
        inv, q = solved
        # N v_n = q c for the integer c with num^n = sum_k c_k num^k
        nv = apply(inv, vs[n])
        assert all(y % q == 0 for y in nv)
        charpoly = [-y // q for y in nv] + [1]
        assert charpoly == faddeev_leverrier(_matrix(a))
        assert min_poly(a) == tuple(Fraction(y, a.den ** (n - i)) for i, y in enumerate(charpoly))

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(QUADRATIC_SUBFIELDS).flatmap(
        lambda spec: st.tuples(st.just(spec[0]), st.sampled_from(spec[1]),
                               st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))))
    def test_squared_charpoly_halves_exactly(self, case):
        field, s, p, q = case
        assume(q != 0)
        a = field.from_int(p) + field.element(s).scale(q)
        c = faddeev_leverrier(_matrix(a))
        # (X^2 + hX + b)^2 = X^4 + 2h X^3 + (h^2 + 2b) X^2 + 2hb X + b^2
        h, b = c[3] // 2, (c[2] - (c[3] // 2) ** 2) // 2
        assert c[3] == 2 * h and c[2] - h * h == 2 * b
        assert tuple(c) == poly_mul((b, h, 1), (b, h, 1))
        assert min_poly(a) == (b, h, 1)

    @pytest.mark.parametrize("coeffs", [
        (1, 0, -10, 0, 1),  # both halvings exact (h = 0, b = -5), but c_0 = 1 != b^2
        (1, -1, -3, -1, 1),  # c_3 = -1 is odd
        (1, 0, -5, 0, 1),  # c_2 - h^2 = -5 is odd
    ])
    def test_charpoly_that_is_no_square_is_kept_whole(self, coeffs):
        assert min_poly(NumberField(coeffs).generator) == coeffs


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

    @given(
        st.lists(
            st.one_of(st.integers(-50, 50), st.fractions(-50, 50, max_denominator=12)),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_combine_is_the_sum_of_scaled_vectors(self, weights):
        basis = surd_basis_m2()
        want = BIQUAD.from_int(0)
        for w, v in zip(weights, basis.vectors):
            want = want + v.scale(w)
        assert basis.combine(weights) == want

    def test_singular_basis_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            ModuleBasis(SQRT2, (SQRT2.one, SQRT2.from_int(3)))

    def test_singular_rational_basis_rejected(self):
        half = Fraction(1, 2)
        v = BIQUAD.element([half, 0, Fraction(1, 4), -half])
        with pytest.raises(ValueError, match="dependent"):
            ModuleBasis(BIQUAD, (v, BIQUAD.generator, v.scale(Fraction(-2, 3)), BIQUAD.one))

    def test_maximal_order_coords(self):
        # the module-basis golden's ring: denominators 2 and 4
        ring = ModuleBasis(BIQUAD, tuple(
            parse_element(BIQUAD, text)
            for text in ("1", "-9/2t+1/2t^3", "11/2t-1/2t^3", "-5/4-9/4t+1/4t^2+1/4t^3")
        ))
        eta = BIQUAD.generator
        # eta = sqrt 2 + sqrt 3 and eta^2 = 5 + 2 sqrt 6 = 5 - 2 sqrt 2 + 4 (sqrt 2 + sqrt 6)/2
        assert ring.coords(eta) == (0, 1, 1, 0)
        assert ring.coords(eta * eta) == (5, -2, 0, 4)
        assert ring.coords(BIQUAD.element([0, Fraction(1, 3), 0, 0])) == tuple(
            Fraction(1, 3) * c for c in ring.coords(eta)
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4).flatmap(lambda n: st.lists(
            st.lists(st.fractions(-6, 6, max_denominator=4), min_size=n, max_size=n),
            min_size=n + 1, max_size=n + 1,
        ))
    )
    def test_coords_match_the_fraction_solves(self, rows):
        *vectors, target = rows
        field = {2: SQRT2, 3: CUBIC, 4: BIQUAD}[len(target)]
        # the coordinates of target solve sum_j x_j * vectors[j] = target
        want = solve_linear(vectors, target)
        try:
            basis = ModuleBasis(field, tuple(field.element(v) for v in vectors))
        except ValueError:
            # singular: some unit vector is outside the span
            n = len(target)
            assert any(solve_linear(vectors, [int(i == k) for i in range(n)]) is None
                       for k in range(n))
            return
        assert basis.coords(field.element(target)) == want

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 4).flatmap(lambda n: st.lists(
            st.lists(st.fractions(-6, 6, max_denominator=4), min_size=n, max_size=n),
            min_size=n + 1, max_size=n + 1,
        ))
    )
    def test_int_coords_are_the_solve_over_its_least_denominator(self, rows):
        *vectors, target = rows
        field = {2: SQRT2, 3: CUBIC, 4: BIQUAD}[len(target)]
        try:
            basis = ModuleBasis(field, tuple(field.element(v) for v in vectors))
        except ValueError:
            assume(False)
        num, den = basis.int_coords(field.element(target))
        assert den > 0 and math.gcd(den, *num) == 1
        assert tuple(Fraction(x, den) for x in num) == solve_linear(vectors, target)
        # den is 1 exactly when every coordinate is an integer
        assert (den == 1) is all(c.denominator == 1 for c in solve_linear(vectors, target))


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
        # a written power is refused even when its coefficient cancels
        with pytest.raises(ParseError, match="power 2 exceeds field degree 1"):
            parse_element(SQRT2, "t^2 - t^2 + 1")

    def test_a_cancelled_large_power_builds_no_coefficient_list(self):
        # the degree is the highest power with a nonzero coefficient
        tracemalloc.start()
        try:
            assert parse_polynomial("x^1000000-x^1000000+x^2-3") == (-3, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_coefficients_without_a_denominator_stay_int(self):
        powers = _parse_terms("2 + 3*t - t^3 + 12t - 7", "t")
        assert powers == {0: -5, 1: 15, 3: -1}
        assert all(type(c) is int for c in powers.values())

    def test_a_denominator_makes_a_fraction(self):
        powers = _parse_terms("1/2*t^2", "t")
        assert powers == {2: Fraction(1, 2)} and type(powers[2]) is Fraction
        e = parse_element(BIQUAD, "1/2*t^2")
        assert (e.num, e.den) == ((0, 0, 1, 0), 2)

    def test_an_integral_fraction_is_an_integer_coefficient(self):
        coeffs = parse_polynomial("x^2-4/2")
        assert coeffs == (-2, 0, 1) and all(type(c) is int for c in coeffs)

    def test_integral_coordinates_are_the_numerators(self):
        e = parse_element(BIQUAD, "2 + 3*t - t^3")
        assert e.coords is e.num and e.coords == (2, 3, 0, -1)
        assert format_element(e) == "2 + 3*t - t^3"
        assert BIQUAD.element([1, Fraction(1, 2), 0, 0]).coords == (1, Fraction(1, 2), 0, 0)

    def test_fractional_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^2 - 1/2")

    def test_a_large_degree_is_refused_before_any_coefficient_list(self):
        # the degree is refused in memory and time independent of the exponent's value
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"^defining polynomial must have degree 2, 3 or 4$"):
                parse_polynomial("x^1000000 - 3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
