"""Exact arithmetic in K = Q[X]/(f) for monic irreducible integer f, deg 2..4.

Elements are rational coordinate vectors over the power basis {1, t, ..., t^(n-1)}
where t is the residue class of X. Norm and trace are computed from the
multiplication matrix, so no floating point or embeddings appear anywhere; the
norm is the Bareiss determinant of that matrix cleared of its denominators.

A ModuleBasis clears its matrix of denominators once, A = D*B, and caches the
integer inverse of A from one fraction-free Gauss-Jordan pass
(exactlinalg.fraction_free_inverse) as (D*N, q), so that B^-1 = D*N/q.
Coordinates over the basis then take n integer dot products and one Fraction
each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .exactlinalg import IntMatrix, det, fraction_free_inverse

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

    coeffs is an integer polynomial, ascending, with a nonzero leading
    coefficient. The floors of the real roots of its derivative in
    [-bound, bound], each with its successor, cut that range into integer
    intervals. An interval longer than 1 holds no critical point, so the
    polynomial is strictly monotone on it and holds at most one root, found by
    bisection when the signs at its ends differ. A root inside a unit interval
    around a critical point has that critical point's floor, which is kept.
    """
    if len(coeffs) < 2:
        return set()
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
    """The integer roots of a monic integer polynomial of positive degree."""
    # every root of a monic polynomial lies within its Cauchy bound
    bound = 1 + max(abs(c) for c in coeffs[:-1])
    return [m for m in _root_floors(coeffs, bound) if _poly_eval_int(coeffs, m) == 0]


def _is_irreducible(coeffs: Sequence[int]) -> bool:
    """Irreducibility over Q for a monic integer polynomial of degree 2..4.

    A monic integer polynomial has only integer rational roots, and by Gauss's
    lemma a factorization over Q into monic factors is one over Z. Degrees 2
    and 3 are reducible exactly when an integer root exists; integer roots are
    found by exact bisection inside the Cauchy bound (see _root_floors). A
    quartic without one is reducible exactly when it is
    (X^2+aX+b)(X^2+cX+d) over Z. Then y = b+d is an integer root of the
    resolvent cubic, b and d are the roots of z^2 - yz + c0, a and c those of
    z^2 - c3 z + (c2 - y), and ad + bc = c1. The number of integer operations
    is polynomial in the digit length of the coefficients.
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


@dataclass(frozen=True)
class NumberField:
    """The field Q[X]/(f) for a monic irreducible integer polynomial f.

    coeffs holds f in ascending order including the leading 1, so
    f = coeffs[0] + coeffs[1] X + ... + X^n.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 3 or len(self.coeffs) > 5:
            raise ValueError("defining polynomial must have degree 2, 3 or 4")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("defining polynomial must have integer coefficients")
        if self.coeffs[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if not _is_irreducible(self.coeffs):
            raise ValueError(
                f"{format_polynomial(self.coeffs, 'x')} is reducible over Q"
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def element(self, coords: Iterable[Rational]) -> "FieldElement":
        vec = tuple(Fraction(c) for c in coords)
        if len(vec) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(vec)}")
        return FieldElement(self, vec)

    def from_int(self, value: Rational) -> "FieldElement":
        return self.element([value] + [0] * (self.degree - 1))

    @property
    def zero(self) -> "FieldElement":
        return self.from_int(0)

    @property
    def one(self) -> "FieldElement":
        return self.from_int(1)

    @property
    def generator(self) -> "FieldElement":
        return self.element([0, 1] + [0] * (self.degree - 2))

    @cached_property
    def _reduction_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        # t^(n+i) over the power basis, for i = 0..n-2, used to reduce products
        n = self.degree
        rows = []
        current = [Fraction(-c) for c in self.coeffs[:-1]]  # t^n
        rows.append(tuple(current))
        for _ in range(n - 2):
            shifted = [Fraction(0)] + current[:-1]
            overflow = current[-1]
            current = [s + overflow * r for s, r in zip(shifted, rows[0])]
            rows.append(tuple(current))
        return tuple(rows)

    def power_basis(self) -> "ModuleBasis":
        vecs = [self.one, self.generator]
        for _ in range(self.degree - 2):
            vecs.append(vecs[-1] * self.generator)
        return ModuleBasis(self, tuple(vecs))

    def __repr__(self) -> str:
        return f"NumberField({format_polynomial(self.coeffs, 'x')})"


@dataclass(frozen=True)
class FieldElement:
    """An element of a NumberField as exact rational coordinates over 1, t, ..."""

    field: NumberField
    coords: tuple[Fraction, ...]

    def _check(self, other: "FieldElement") -> None:
        if self.field != other.field:
            raise ValueError("elements belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def scale(self, c: Rational) -> "FieldElement":
        c = Fraction(c)
        return FieldElement(self.field, tuple(c * a for a in self.coords))

    def __mul__(self, other: Union["FieldElement", Rational]) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        n = self.field.degree
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(other.coords):
                    if b:
                        prod[i + j] += a * b
        out = list(prod[:n])
        reduction = self.field._reduction_rows
        for i in range(n, 2 * n - 1):
            c = prod[i]
            if c:
                row = reduction[i - n]
                out = [o + c * r for o, r in zip(out, row)]
        return FieldElement(self.field, tuple(out))

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
        """Multiplicative inverse via the extended Euclidean algorithm mod f."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        f = [Fraction(c) for c in self.field.coeffs]
        g = list(self.coords)
        # extended Euclid: track s with s*g = gcd mod f
        r0, r1 = f, _poly_trim(g)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _poly_deg(r1) > 0:
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        if _poly_deg(r1) != 0:
            raise ArithmeticError("element is a zero divisor; field invariant broken")
        inv_lead = 1 / r1[0]
        out = [c * inv_lead for c in s1]
        out = out[: self.field.degree] + [Fraction(0)] * (self.field.degree - len(out))
        result = FieldElement(self.field, tuple(out[: self.field.degree]))
        if not (result * self).is_one():
            raise AssertionError("inverse verification failed")
        return result

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_one(self) -> bool:
        return self.coords[0] == 1 and all(c == 0 for c in self.coords[1:])

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __repr__(self) -> str:
        return f"<{format_element(self)}>"


# polynomial helpers over Fraction, ascending coefficients


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _poly_deg(p: list[Fraction]) -> int:
    p = _poly_trim(list(p))
    if len(p) == 1 and p[0] == 0:
        return -1
    return len(p) - 1


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if _poly_deg(b) < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    while _poly_deg(r) >= _poly_deg(b):
        shift = _poly_deg(r) - _poly_deg(b)
        c = r[-1] / b[-1]
        q[shift] += c
        for i, y in enumerate(b):
            r[i + shift] -= c * y
        r = _poly_trim(r)
    return _poly_trim(q), r


def solve_linear(columns: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> tuple[Fraction, ...] | None:
    """Solve sum_j x_j * columns[j] = rhs exactly; None if inconsistent.

    Underdetermined free variables are set to zero, which keeps the result
    deterministic. All arithmetic is in Fraction.
    """
    nrows = len(rhs)
    ncols = len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(rhs[i])] for i in range(nrows)]
    pivots: list[tuple[int, int]] = []
    prow = 0
    for col in range(ncols):
        sel = None
        for i in range(prow, nrows):
            if aug[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        pv = aug[prow][col]
        aug[prow] = [x / pv for x in aug[prow]]
        for i in range(nrows):
            if i != prow and aug[i][col] != 0:
                factor = aug[i][col]
                aug[i] = [x - factor * y for x, y in zip(aug[i], aug[prow])]
        pivots.append((prow, col))
        prow += 1
        if prow == nrows:
            break
    for i in range(prow, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = aug[row][ncols]
    return tuple(x)


def multiplication_matrix(a: FieldElement) -> list[list[Fraction]]:
    """Matrix of y -> a*y on the power basis; column j holds a * t^j."""
    n = a.field.degree
    cols = []
    current = a
    gen = a.field.generator
    for _ in range(n):
        cols.append(current.coords)
        current = current * gen
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def trace(a: FieldElement) -> Fraction:
    m = multiplication_matrix(a)
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def _clear_denominators(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(D*values, D) for the least D > 0 that makes every value an integer."""
    d = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (d // x.denominator) for x in values], d


def norm(a: FieldElement) -> Fraction:
    m = multiplication_matrix(a)
    n = len(m)
    entries, d = _clear_denominators([x for row in m for x in row])
    cleared = IntMatrix.from_rows(entries[i * n : (i + 1) * n] for i in range(n))
    return Fraction(det(cleared), d**n)


def min_poly(a: FieldElement) -> tuple[Fraction, ...]:
    """Monic minimal polynomial of a, ascending coefficients with leading 1.

    Found as the least d with an exact linear dependency among 1, a, ..., a^d.
    """
    n = a.field.degree
    powers = [a.field.one]
    for _ in range(n):
        powers.append(powers[-1] * a)
    for d in range(1, n + 1):
        cols = [powers[i].coords for i in range(d)]
        sol = solve_linear(cols, powers[d].coords)
        if sol is not None:
            return tuple(-c for c in sol) + (Fraction(1),)
    raise AssertionError("no dependency up to the field degree; invariant broken")


@dataclass(frozen=True)
class ModuleBasis:
    """A Q-basis of K given as n field elements (rows of a nonsingular matrix)."""

    field: NumberField
    vectors: tuple[FieldElement, ...]

    def __post_init__(self) -> None:
        n = self.field.degree
        if len(self.vectors) != n:
            raise ValueError(f"basis needs {n} vectors, got {len(self.vectors)}")
        for v in self.vectors:
            if v.field != self.field:
                raise ValueError("basis vector from a different field")
        if self._inverse is None:
            raise ValueError("basis vectors are linearly dependent")

    @cached_property
    def _inverse(self) -> tuple[tuple[tuple[int, ...], ...], int] | None:
        # (D*N, q) with N/q the inverse of A = D*B, where B has the basis vectors'
        # coordinates as its columns, so B^-1 = D*N/q; None when B is singular
        n = self.field.degree
        entries, d = _clear_denominators([c for v in self.vectors for c in v.coords])
        # the rows of A are the columns of the vector-per-row list
        result = fraction_free_inverse([entries[i::n] for i in range(n)])
        if result is None:
            return None
        inv, q = result
        return tuple(tuple(d * x for x in row) for row in inv), q

    def coords(self, a: FieldElement) -> tuple[Fraction, ...]:
        """Exact coordinates of a over this basis."""
        if a.field != self.field:
            raise ValueError("element from a different field")
        inverse = self._inverse
        assert inverse is not None
        inv, q = inverse
        values, e = _clear_denominators(a.coords)
        q *= e
        return tuple(
            Fraction(sum(x * y for x, y in zip(row, values)), q) for row in inv
        )

    def combine(self, weights: Sequence[Rational]) -> FieldElement:
        """Linear combination sum_i weights[i] * vectors[i]."""
        acc = self.field.zero
        for w, v in zip(weights, self.vectors):
            acc = acc + v.scale(w)
        return acc


def is_positive_unit(a: FieldElement, ringbasis: ModuleBasis) -> bool:
    """Whether a has norm exactly 1 and multiplies the given ring into itself.

    ringbasis must span a ring containing 1 (checked); the verdict then requires
    integral coordinates for a and for a times every basis vector.
    """
    one_coords = ringbasis.coords(ringbasis.field.one)
    if any(c.denominator != 1 for c in one_coords):
        raise ValueError("ring basis does not contain 1")
    if norm(a) != 1:
        return False
    if any(c.denominator != 1 for c in ringbasis.coords(a)):
        return False
    for v in ringbasis.vectors:
        if any(c.denominator != 1 for c in ringbasis.coords(a * v)):
            return False
    return True


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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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


def _parse_terms(text: str, var: str) -> dict[int, Fraction]:
    """Parse a sum of terms like '2', '-3*t', 't^2', '5/2*t^3' into {power: coeff}."""
    tokens = _tokenize(text, var)
    if not tokens:
        raise ParseError("empty expression", 0)
    powers: dict[int, Fraction] = {}
    i = 0
    sign = 1
    first = True
    while i < len(tokens):
        kind, val, pos = tokens[i]
        if kind in "+-":
            if not first and i > 0 and tokens[i - 1][0] in "+-":
                raise ParseError("consecutive signs", pos)
            sign = 1 if kind == "+" else -1
            i += 1
            if i >= len(tokens):
                raise ParseError("dangling sign", pos)
            continue
        # term: [coef [/int]] ['*'] [var ['^' int]]; the '*' is optional
        coef = Fraction(1)
        power = 0
        saw_any = False
        if tokens[i][0] == "int":
            coef = Fraction(tokens[i][1])
            saw_any = True
            i += 1
            if i < len(tokens) and tokens[i][0] == "/":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int" or tokens[i][1] == 0:
                    raise ParseError("expected nonzero integer denominator", tokens[i - 1][2])
                coef /= tokens[i][1]
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
        powers[power] = powers.get(power, Fraction(0)) + sign * coef
        sign = 1
        first = False
        if i < len(tokens) and tokens[i][0] not in "+-":
            raise ParseError(f"expected '+' or '-', got {tokens[i][1]!r}", tokens[i][2])
    return powers


def parse_polynomial(text: str, var: str = "x") -> tuple[int, ...]:
    """Parse a monic integer polynomial like 'x^4-10*x^2+1' (the '*' is optional)."""
    powers = _parse_terms(text, var)
    deg = max(powers)
    coeffs = []
    for p in range(deg + 1):
        c = powers.get(p, Fraction(0))
        if c.denominator != 1:
            raise ParseError("polynomial coefficients must be integers", 0)
        coeffs.append(int(c))
    return tuple(coeffs)


def parse_element(field: NumberField, text: str, var: str = "t") -> FieldElement:
    """Parse an element expression like '2 + 3*t - t^3' or '1/2*t^2'."""
    powers = _parse_terms(text, var)
    n = field.degree
    if powers and max(powers) >= n:
        raise ParseError(f"power {max(powers)} exceeds field degree {n - 1}", 0)
    coords = [powers.get(p, Fraction(0)) for p in range(n)]
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


def format_element(a: FieldElement, var: str = "t") -> str:
    return _format_terms(enumerate(a.coords), var)


def format_polynomial(coeffs: Sequence[int], var: str = "x") -> str:
    return _format_terms(reversed(list(enumerate(coeffs))), var)
