"""Exact arithmetic in K = Q[X]/(f) for monic irreducible integer f, deg 2..4.

An element is a vector of integer numerators over one positive denominator,
num/den, on the power basis {1, t, ..., t^(n-1)} where t is the residue class
of X, kept in lowest terms: gcd(den, *num) = 1. Sums, products and scalings
work on the numerators and multiply or combine the denominators, so no
Fraction is built until a caller reads the coordinates of an element that has
a denominator.

Products, norm, minimal polynomial and inverse come from the integer matrix
M of y -> num*y, so no floating point or embeddings appear anywhere: a
product is M applied to the other factor's numerators, the norm is the
Bareiss determinant of M, the inverse is column 0 of its Bareiss inverse, and
the minimal polynomial is the first power of num that depends on the lower
ones, found by the Bareiss inverse of the matrix of those powers (Cohen,
GTM 138, sections 2.2 and 4.2).

A ModuleBasis clears its matrix of denominators once, A = D*B, and its
__new__ stores the integer inverse of A from one fraction-free Gauss-Jordan
pass (exactlinalg.fraction_free_inverse) as its field inverse = (D*N, q), so
that B^-1 = D*N/q; the same pass refuses a dependent basis.
Coordinates over the basis then take n integer dot products with the
numerators and one Fraction each.

NumberField, FieldElement and ModuleBasis are collections.namedtuple records,
as are the package's results: == and hash are tuple's, over their fields, and
assigning a field raises AttributeError. NumberField refuses bad coefficients
in __init__, and ModuleBasis refuses bad vectors in __new__; their _make, and
so _replace, build through those constructors.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .exactlinalg import InvariantViolation, apply, det, fraction_free_inverse

Rational = Union[int, Fraction]

class ParseError(ValueError):
    """Raised on malformed polynomial or element expressions; carries a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


def _poly_eval_int(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _root_floors(coeffs: Sequence[int], bound: int) -> set[int]:
    """Integers in [-bound, bound] that include floor(r) for each real root r there.

    coeffs is an integer polynomial of positive degree, ascending, with a
    nonzero leading coefficient; bound is a nonnegative integer. Degrees 1 and
    2 have closed forms, and a floor outside [-bound, bound] belongs to no root
    inside it:

    - c0 + c1 X has the one root -c0/c1, whose floor is (-c0) // c1.
    - c0 + c1 X + c2 X^2 with c2 > 0 (negate it first) and D = c1^2 - 4 c0 c2
      has no real root when D < 0, and otherwise the roots (-c1 ± sqrt D)/(2 c2).
      With s = isqrt(D), floor(y / k) = floor(floor(y) / k) for an integer
      k > 0, and floor(-c1 + sqrt D) = -c1 + s, while floor(-c1 - sqrt D) is
      -c1 - s when D = s^2 and -c1 - s - 1 when sqrt D is irrational.

    For degrees 3 and 4, the floors of the real roots of the derivative in
    [-bound, bound], each with its successor, cut that range into integer
    intervals. An interval longer than 1 holds no critical point, so the
    polynomial is strictly monotone on it and holds at most one root, found by
    bisection when the signs at its ends differ. A root inside a unit interval
    around a critical point has that critical point's floor, which is kept.
    The recursion ends at the quadratic derivative, which has a closed form.
    """
    if len(coeffs) == 2:
        return {m for m in [(-coeffs[0]) // coeffs[1]] if -bound <= m <= bound}
    if len(coeffs) == 3:
        c0, c1, c2 = coeffs if coeffs[2] > 0 else [-c for c in coeffs]
        disc = c1 * c1 - 4 * c0 * c2
        if disc < 0:
            return set()
        s = math.isqrt(disc)
        low = -c1 - s - (s * s != disc)
        return {m for m in (low // (2 * c2), (s - c1) // (2 * c2)) if -bound <= m <= bound}
    crit = _root_floors([i * c for i, c in enumerate(coeffs)][1:], bound)
    points = sorted({-bound, bound} | {m + 1 for m in crit if m < bound} | crit)
    floors = set(crit)
    for a, b in zip(points, points[1:]):
        fa, fb = _poly_eval_int(coeffs, a), _poly_eval_int(coeffs, b)
        if fa == 0:
            floors.add(a)
        if fb == 0:
            floors.add(b)
        if fa == 0 or fb == 0 or (fa < 0) == (fb < 0):
            continue
        while b - a > 1:
            mid = (a + b) // 2
            fm = _poly_eval_int(coeffs, mid)
            if fm == 0:
                a = mid
                break
            if (fm < 0) == (fa < 0):
                a = mid
            else:
                b = mid
        floors.add(a)
    return floors


def _integer_roots(coeffs: Sequence[int]) -> list[int]:
    """The integer roots of a monic integer polynomial of positive degree.

    They are searched for inside min(Cauchy bound, |c0|), or the Cauchy bound
    when c0 = 0. Every root r of a monic polynomial has |r| <= 1 + max |c_i|
    (i < n), and an integer root m of one with c0 != 0 is nonzero and divides
    c0 = -m (m^(n-1) + ... + c1), so |m| <= |c0|. For X^4 - T X^2 + 1 the
    range is [-1, 1].
    """
    bound = 1 + max(abs(c) for c in coeffs[:-1])
    if coeffs[0]:
        bound = min(bound, abs(coeffs[0]))
    return [m for m in _root_floors(coeffs, bound) if _poly_eval_int(coeffs, m) == 0]


def _is_irreducible(coeffs: Sequence[int]) -> bool:
    """Irreducibility over Q for a monic integer polynomial of degree 2..4.

    A monic integer polynomial has only integer rational roots, and by Gauss's
    lemma a factorization over Q into monic factors is one over Z. Degrees 2
    and 3 are reducible exactly when an integer root exists. _integer_roots
    finds them inside min(Cauchy bound, |c0|), since an integer root divides a
    nonzero c0, by the closed forms of degrees 1 and 2 and by exact bisection
    above them (see _root_floors). A quartic without one is reducible exactly
    when it is (X^2+aX+b)(X^2+cX+d) over Z. Then y = b+d is an integer root of
    the resolvent cubic, b and d are the roots of z^2 - yz + c0, a and c those
    of z^2 - c3 z + (c2 - y), and ad + bc = c1. The number of integer
    operations is polynomial in the digit length of the coefficients.
    """
    if _integer_roots(coeffs):
        return False
    if len(coeffs) == 5:
        c0, c1, c2, c3, _ = coeffs
        resolvent = (-(c1 * c1 + c0 * c3 * c3 - 4 * c0 * c2), c1 * c3 - 4 * c0, -c2, 1)
        for y in _integer_roots(resolvent):
            bd_disc, ac_disc = y * y - 4 * c0, c3 * c3 - 4 * (c2 - y)
            if bd_disc < 0 or ac_disc < 0:
                continue
            s, r = math.isqrt(bd_disc), math.isqrt(ac_disc)
            if s * s != bd_disc or r * r != ac_disc:
                continue
            # s = y and r = c3 mod 2, so the halves below are exact. A root y
            # of the resolvent gives (c1 - ad - bc)(c1 - ab - cd) = 0, so one
            # choice of a holds; testing it makes the verdict an exhibited
            # factorization.
            b, d = (y + s) // 2, (y - s) // 2
            for a in ((c3 + r) // 2, (c3 - r) // 2):
                if a * d + b * (c3 - a) == c1:
                    return False
    return True


class NumberField(namedtuple("NumberField", "coeffs")):
    """The field Q[X]/(f) for a monic irreducible integer polynomial f.

    coeffs holds f in ascending order including the leading 1, so
    f = coeffs[0] + coeffs[1] X + ... + X^n. Two fields are == exactly when
    their coeffs are. A field is the tuple (coeffs,): it iterates over that
    one field and is == to a plain tuple of it.
    """

    __slots__ = ()
    # namedtuple's _make, which _replace calls too, would skip __init__
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __init__(self, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) < 3 or len(coeffs) > 5:
            raise ValueError("defining polynomial must have degree 2, 3 or 4")
        if any(not isinstance(c, int) for c in coeffs):
            raise ValueError("defining polynomial must have integer coefficients")
        if coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if not _is_irreducible(coeffs):
            raise ValueError(
                f"{format_polynomial(coeffs)} is reducible over Q"
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def element(self, coords: Iterable[Rational]) -> "FieldElement":
        # ints and Fractions carry their lowest-terms numerator and denominator
        vec = list(coords)
        if len(vec) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(vec)}")
        # over the least common denominator, numerators and denominator are coprime
        den = math.lcm(*(c.denominator for c in vec))
        return FieldElement(self, tuple(c.numerator * (den // c.denominator) for c in vec), den)

    def from_int(self, value: Rational) -> "FieldElement":
        return self.element([value] + [0] * (self.degree - 1))

    @property
    def one(self) -> "FieldElement":
        return self.from_int(1)

    @property
    def generator(self) -> "FieldElement":
        return self.element([0, 1] + [0] * (self.degree - 2))

    def power_basis(self) -> "ModuleBasis":
        vecs = [self.one, self.generator]
        for _ in range(self.degree - 2):
            vecs.append(vecs[-1] * self.generator)
        return ModuleBasis(self, tuple(vecs))

    def __repr__(self) -> str:
        return f"NumberField({format_polynomial(self.coeffs)})"


class FieldElement(namedtuple("FieldElement", "field num den", defaults=(1,))):
    """An element of a NumberField as integer numerators over one denominator.

    The value is (num[0] + num[1] t + ... + num[n-1] t^(n-1)) / den with
    den > 0 and gcd(den, *num) = 1, so two elements compare == and hash alike
    exactly when their values are equal. NumberField.element and the
    arithmetic below keep that form; coords reads the value back as rational
    coordinates over 1, t, ..., t^(n-1). An element is the tuple
    (field, num, den): it iterates over those fields and is == to a plain tuple
    of them, while +, -, * and ** are field arithmetic, never tuple operations.
    """

    __slots__ = ()

    @property
    def coords(self) -> tuple[Rational, ...]:
        # the integer numerators themselves when den is 1, so no Fraction is built
        if self.den == 1:
            return self.num
        return tuple(Fraction(x, self.den) for x in self.num)

    def _check(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise ValueError("elements belong to different fields")

    def _combine(self, other: "FieldElement", sign: int) -> "FieldElement":
        # self + sign * other over the least common denominator
        self._check(other)
        den = math.lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return _reduced(self.field, [p * a + q * b for a, b in zip(self.num, other.num)], den)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return self._combine(other, 1)

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self._combine(other, -1)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def scale(self, c: Rational) -> "FieldElement":
        return _reduced(self.field, [c.numerator * a for a in self.num], c.denominator * self.den)

    def __mul__(self, other: Union["FieldElement", Rational]) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        num = other.num
        out = [sum(map(operator.mul, row, num)) for row in _matrix(self)]
        return _reduced(self.field, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FieldElement":
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse from the Bareiss inverse of the integer multiplication matrix.

        With M the matrix of num, the inverse of num has coordinates M^-1 e1,
        column 0 of exactlinalg.fraction_free_inverse(M) = (N, q), over q; the
        inverse of num/den is den times that.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        inverse = fraction_free_inverse(_matrix(self))
        if inverse is None:
            raise InvariantViolation("element is a zero divisor; field invariant broken")
        inv, q = inverse
        result = _reduced(self.field, [self.den * row[0] for row in inv], q)
        if not (result * self).is_one():
            raise InvariantViolation("inverse verification failed")
        return result

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


def _reduced(field: NumberField, num: Sequence[int], den: int) -> FieldElement:
    """The element num/den, for den > 0, with the common factor of den and num removed."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return FieldElement(field, tuple(num), den)


def _matrix(a: FieldElement) -> list[list[int]]:
    """Rows of the integer matrix of y -> num*y on the power basis, for a = num/den.

    Column j holds the coordinates of num * t^j; the matrix of a is this one
    divided by den.
    """
    f = a.field.coeffs
    col = list(a.num)
    cols = [col]
    for _ in range(len(col) - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            # top * t^n = -top * (f_0 + f_1 t + ... + f_(n-1) t^(n-1))
            col = [x - top * c for x, c in zip(col, f)]
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def norm(a: FieldElement) -> Fraction:
    return Fraction(det(_matrix(a)), a.den ** a.field.degree)


def min_poly(a: FieldElement) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of a, ascending coefficients with leading 1.

    For a = num/den, d = [Q(num) : Q] divides n, and the minimal polynomial
    of num is monic with integer coefficients, since num is integral. Let
    v_0 = e1 and v_(k+1) = M v_k with M = _matrix(a), so that v_k holds the
    coordinates of num^k, and let K = [v_0 ... v_(n-1)]:

    - d = 1 exactly when num[1:] vanishes.
    - K is nonsingular exactly when d = n, as its columns are independent
      exactly when no polynomial of degree below n vanishes at num. Then
      num^n = sum_k c_k num^k for the one c = K^-1 v_n, and with
      fraction_free_inverse(K) = (N, q), c = N v_n / q. The minimal
      polynomial is X^n - sum_k c_k X^k; its coefficients are integers, so
      each division by q is exact.
    - Otherwise 1 < d < n and d divides n, so n = 4 and d = 2:
      num^2 = s num + r for integers s and r. At a coordinate i >= 1 where
      num[i] != 0, e1 contributes nothing, so s = v_2[i] / num[i] exactly,
      and r = v_2[0] - s num[0]; the minimal polynomial is X^2 - sX - r. For
      n = 2 the same reading holds, and no inverse is taken.

    The coefficient of X^i is then divided by den^(d-i).
    """
    num, den = a.num, a.den
    if not any(num[1:]):
        return (Fraction(-num[0], den), Fraction(1))
    m = _matrix(a)
    n = len(num)
    powers = [(1,) + (0,) * (n - 1)]
    for _ in range(n):
        powers.append(apply(m, powers[-1]))
    solved = None if n == 2 else fraction_free_inverse(list(zip(*powers[:n])))
    if solved is None:
        i = next(i for i in range(1, n) if num[i])
        s = powers[2][i] // num[i]
        c = [s * num[0] - powers[2][0], -s, 1]
    else:
        inv, q = solved
        c = [-x // q for x in apply(inv, powers[n])] + [1]
    d = len(c) - 1
    return tuple(Fraction(x, den ** (d - i)) for i, x in enumerate(c))


class ModuleBasis(namedtuple("ModuleBasis", "field vectors inverse")):
    """A Q-basis of K given as n field elements (rows of a nonsingular matrix).

    ModuleBasis(field, vectors) computes inverse itself, and equal field and
    vectors give an equal inverse. A basis is the tuple (field, vectors,
    inverse): it iterates over those fields and is == to a plain tuple of them.
    """

    __slots__ = ()
    # namedtuple's _make, which _replace calls too, would skip __new__ and keep
    # a stale inverse; this one computes it from field and vectors
    _make = classmethod(lambda cls, fields: cls(*tuple(fields)[:2]))

    def __new__(cls, field: NumberField, vectors: tuple[FieldElement, ...]) -> "ModuleBasis":
        n = field.degree
        if len(vectors) != n:
            raise ValueError(f"basis needs {n} vectors, got {len(vectors)}")
        for v in vectors:
            if v.field != field:
                raise ValueError("basis vector from a different field")
        # (D*N, q) with N/q the inverse of A = D*B, where B has the basis vectors'
        # coordinates as its columns, so B^-1 = D*N/q
        d = math.lcm(*(v.den for v in vectors))
        # row i of A holds coordinate i of every basis vector
        result = fraction_free_inverse([[v.num[i] * (d // v.den) for v in vectors] for i in range(n)])
        if result is None:
            raise ValueError("basis vectors are linearly dependent")
        inv, q = result
        return super().__new__(cls, field, vectors, (tuple(tuple(d * x for x in row) for row in inv), q))

    def __repr__(self) -> str:
        return f"ModuleBasis(field={self.field!r}, vectors={self.vectors!r})"

    def int_coords(self, a: FieldElement) -> tuple[tuple[int, ...], int]:
        """Exact coordinates of a over this basis as (numerators, least common denominator).

        The denominator is positive, and 1 exactly when a lies in the module.
        """
        if a.field != self.field:
            raise ValueError("element from a different field")
        inv, q = self.inverse
        den = q * a.den  # positive: q and a.den are
        num = [sum(map(operator.mul, row, a.num)) for row in inv]
        g = math.gcd(den, *num)
        return tuple(x // g for x in num), den // g

    def coords(self, a: FieldElement) -> tuple[Fraction, ...]:
        """Exact coordinates of a over this basis."""
        num, den = self.int_coords(a)
        return tuple(Fraction(x, den) for x in num)

    def power_rows(
        self, beta: FieldElement, eps: FieldElement, count: int, error: Callable[[int], str]
    ) -> tuple[tuple[int, ...], ...]:
        """Integer coordinates of beta * eps^k over this basis for k < count, by field products.

        The first k whose coordinates are not all integers raises
        ValueError(error(k)); no power past it is computed.
        """
        rows = []
        power = beta
        for k in range(count):
            if k:
                power = power * eps
            num, den = self.int_coords(power)
            if den != 1:
                raise ValueError(error(k))
            rows.append(num)
        return tuple(rows)

    def combine(self, weights: Sequence[Rational]) -> FieldElement:
        """Linear combination sum_i weights[i] * vectors[i], in one pass over integers."""
        terms = list(zip(weights, self.vectors))
        den = math.lcm(*(w.denominator * v.den for w, v in terms))
        num = [0] * self.field.degree
        for w, v in terms:
            factor = w.numerator * (den // (w.denominator * v.den))
            if factor:
                num = [a + factor * b for a, b in zip(num, v.num)]
        return _reduced(self.field, num, den)


# text form: polynomial expressions in one generator symbol, integer or
# rational coefficients, whitespace-insensitive, exact round-trip


def _tokenize(text: str, var: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-^*/()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        # ASCII digits only: int() would also read other scripts' digits, or fail on '²'
        if "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if text[i : i + len(var)] == var:
            tokens.append(("var", var, i))
            i += len(var)
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def _parse_terms(text: str, var: str) -> dict[int, Rational]:
    """Parse a sum of terms like '2', '-3*t', 't^2', '5/2*t^3' into {power: coeff}.

    A coefficient stays an int unless a '/d' is read, which makes it a Fraction.
    """
    tokens = _tokenize(text, var)
    if not tokens:
        raise ParseError("empty expression", 0)
    powers: dict[int, Rational] = {}
    i = 0
    sign = 1
    while i < len(tokens):
        kind, val, pos = tokens[i]
        if kind in "+-":
            if i > 0 and tokens[i - 1][0] in "+-":
                raise ParseError("consecutive signs", pos)
            sign = 1 if kind == "+" else -1
            i += 1
            if i >= len(tokens):
                raise ParseError("dangling sign", pos)
            continue
        # term: [coef [/int]] ['*'] [var ['^' int]]; the '*' is optional
        coef: Rational = 1
        power = 0
        saw_any = False
        if tokens[i][0] == "int":
            coef = tokens[i][1]
            saw_any = True
            i += 1
            if i < len(tokens) and tokens[i][0] == "/":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int" or tokens[i][1] == 0:
                    raise ParseError("expected nonzero integer denominator", tokens[i - 1][2])
                coef = Fraction(coef, tokens[i][1])
                i += 1
            if i < len(tokens) and tokens[i][0] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "var":
                    raise ParseError(f"expected {var!r} after '*'", tokens[i - 1][2])
        if i < len(tokens) and tokens[i][0] == "var":
            power = 1
            saw_any = True
            i += 1
            if i < len(tokens) and tokens[i][0] == "^":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int":
                    raise ParseError("expected integer exponent", tokens[i - 1][2])
                power = tokens[i][1]
                i += 1
        if not saw_any:
            raise ParseError(f"expected a term, got {tokens[i][1]!r}", tokens[i][2])
        powers[power] = powers.get(power, 0) + sign * coef
        sign = 1
        if i < len(tokens) and tokens[i][0] not in "+-":
            raise ParseError(f"expected '+' or '-', got {tokens[i][1]!r}", tokens[i][2])
    return powers


def parse_polynomial(text: str) -> tuple[int, ...]:
    """Parse a monic integer polynomial like 'x^4-10*x^2+1' (the '*' is optional)."""
    powers = _parse_terms(text, "x")
    if any(c.denominator != 1 for c in powers.values()):
        raise ParseError("polynomial coefficients must be integers", 0)
    # the highest power with a nonzero coefficient, so 0*x^9 and x^3-x^3 add none
    deg = max((p for p, c in powers.items() if c), default=0)
    # NumberField takes no other degree; refused here, x^1000000 builds no list
    if deg > 4:
        raise ValueError("defining polynomial must have degree 2, 3 or 4")
    return tuple(int(powers.get(p, 0)) for p in range(deg + 1))


def parse_element(field: NumberField, text: str) -> FieldElement:
    """Parse an element expression like '2 + 3*t - t^3' or '1/2*t^2'."""
    powers = _parse_terms(text, "t")
    n = field.degree
    if powers and max(powers) >= n:
        raise ParseError(f"power {max(powers)} exceeds field degree {n - 1}", 0)
    coords = [powers.get(p, 0) for p in range(n)]
    return field.element(coords)


def _format_terms(terms: Iterable[tuple[int, Rational]], var: str) -> str:
    """Render (power, coefficient) pairs in the given order, as in '-1/2 + 3*t^2'."""
    parts = []
    for p, c in terms:
        if c == 0:
            continue
        mag = str(abs(c))
        if p == 0:
            body = mag
        else:
            tpow = var if p == 1 else f"{var}^{p}"
            body = tpow if mag == "1" else f"{mag}*{tpow}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    head = parts[0].replace("+ ", "", 1).replace("- ", "-", 1)
    return " ".join([head] + parts[1:])


def format_element(a: FieldElement) -> str:
    return _format_terms(enumerate(a.coords), "t")


def format_polynomial(coeffs: Sequence[int]) -> str:
    return _format_terms(reversed(list(enumerate(coeffs))), "x")
