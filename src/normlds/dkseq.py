"""The congruence sequence d_k(alpha) = max{d : alpha^k = 1 + d*beta, beta integral}.

Over a ring with basis {1, w2, ..., wn} the maximum is a gcd of shifted
coordinates: d_k = gcd(x1(k) - 1, x2(k), ..., xn(k)). dk_sequence and
sparse_minpoly_scan step those coordinates with the integer step-matrix kernel
of coordseq, one small integer matrix-vector product per k; dk() computes one
term from alpha**k in the field and serves as the independent check. The
module also hosts the order-4 recurrence check for quadratic norm-1 units, the
change of basis matching d_k/d_1 with a first coordinate sequence, the
vanishing scan for lacunary minimal polynomials, and power-basis
discriminants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .coordseq import coordinate_rows
from .exactlinalg import IntMatrix, complete_primitive, det, inverse_unimodular
from .numberfield import (
    FieldElement,
    ModuleBasis,
    NumberField,
    min_poly,
    norm,
)


class CheckRefused(Exception):
    """The requested check does not apply to this input (refused, not failed)."""


@dataclass
class DkSequence:
    """d_1, d_2, ... for a fixed alpha over a fixed ring basis.

    t_trace is filled when alpha is a quadratic unit of norm 1, the case whose
    d_k satisfies d_{k+4} = T d_{k+2} - d_k.
    """

    alpha: FieldElement
    ringbasis: ModuleBasis
    terms: list[int]  # terms[i] = d_{i+1}
    t_trace: int | None

    def dk(self, k: int) -> int:
        if not 1 <= k <= len(self.terms):
            raise IndexError(f"d_{k} not computed (have 1..{len(self.terms)})")
        return self.terms[k - 1]


def _non_integral(k: int) -> str:
    return f"alpha^{k} has non-integral coordinates over the ring basis"


def _check_ring_basis(ringbasis: ModuleBasis) -> None:
    if ringbasis.vectors[0] != ringbasis.field.one:
        raise ValueError("ring basis must start with 1")


def dk(alpha: FieldElement, ringbasis: ModuleBasis, k: int) -> int:
    """d_k as gcd(x1(k)-1, x2(k), ..., xn(k)) over the given ring basis.

    Returns 0 exactly when alpha^k = 1 (torsion convention).
    """
    if k < 0:
        raise ValueError("index must be nonnegative")
    _check_ring_basis(ringbasis)
    coords = ringbasis.coords(alpha**k)
    if any(c.denominator != 1 for c in coords):
        raise ValueError(_non_integral(k))
    return math.gcd(int(coords[0]) - 1, *map(int, coords[1:]))


def _power_rows(alpha: FieldElement, basis: ModuleBasis, kmax: int) -> Iterator[list[int]]:
    """Integer coordinates of alpha^k over basis for k = 1..kmax; basis must hold 1."""
    rows = coordinate_rows(basis.field.one, alpha, basis, _non_integral)
    return itertools.islice(rows, 1, max(kmax, 0) + 1)


def dk_sequence(alpha: FieldElement, ringbasis: ModuleBasis, kmax: int) -> DkSequence:
    """d_1 .. d_kmax with one integer step-matrix product per step."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    _check_ring_basis(ringbasis)
    terms = [math.gcd(x[0] - 1, *x[1:]) for x in _power_rows(alpha, ringbasis, kmax)]
    return DkSequence(alpha=alpha, ringbasis=ringbasis, terms=terms, t_trace=_quadratic_unit_trace(alpha))


def _quadratic_unit_trace(alpha: FieldElement) -> int | None:
    """T with alpha^2 = T*alpha - 1 when alpha is a quadratic norm-1 unit, else None."""
    mp = min_poly(alpha)
    if len(mp) - 1 != 2 or mp[0] != 1:
        return None
    t = -mp[1]
    return int(t) if t.denominator == 1 else None


def dk_recurrence_check(seq: DkSequence, kmax: int) -> bool:
    """Whether d_{k+4} = T d_{k+2} - d_k holds for 1 <= k <= kmax-4.

    Only meaningful for a nontorsion quadratic unit of norm 1; anything else is
    refused rather than failed.
    """
    if seq.t_trace is None:
        raise CheckRefused("alpha is not a quadratic unit of norm 1")
    if any(t == 0 for t in seq.terms):
        raise CheckRefused("alpha is torsion")
    if kmax > len(seq.terms):
        raise ValueError(f"sequence holds only {len(seq.terms)} terms")
    t = seq.t_trace
    for k in range(1, kmax - 3):
        if seq.dk(k + 4) != t * seq.dk(k + 2) - seq.dk(k):
            return False
    return True


@dataclass
class DkMatchReport:
    """Outcome of matching d_k/d_1 with a first coordinate sequence.

    The construction completes (0, d1, d2, d3)/d1 to a unimodular matrix and
    reads x1 off the rank-4 quotient ring Z[X]/(X^4 - T X^2 + 1); when that
    polynomial is irreducible the same basis is returned inside the honest
    quartic field.
    """

    quartic_poly: tuple[int, ...]
    poly_irreducible: bool
    d_head: tuple[int, int, int, int]
    normalized: tuple[int, int, int, int] | None
    applicable: bool
    completion: IntMatrix | None
    matched_through: int | None
    basis: ModuleBasis | None


def match_dk_basis(alpha: FieldElement, ringbasis: ModuleBasis, kmax: int = 30) -> DkMatchReport:
    """Basis whose first coordinate sequence reproduces d_k(alpha)/d_1(alpha).

    alpha must be a nontorsion quadratic unit of norm 1 in a real field. d_k is
    computed over ringbasis (the caller asserts this is the right congruence
    ring). Matching is verified termwise through kmax.
    """
    t = _quadratic_unit_trace(alpha)
    if t is None:
        raise CheckRefused("alpha is not a quadratic unit of norm 1")
    _, c1, _ = alpha.field.coeffs
    if c1 * c1 - 4 * alpha.field.coeffs[0] < 0:
        raise CheckRefused("alpha must live in a real quadratic field")
    poly = (1, 0, -t, 0, 1)
    seq = dk_sequence(alpha, ringbasis, max(kmax, 4))
    if any(x == 0 for x in seq.terms[:4]):
        raise CheckRefused("alpha is torsion")
    d_head = (0, seq.dk(1), seq.dk(2), seq.dk(3))
    d1 = d_head[1]
    if any(x % d1 != 0 for x in d_head):
        return DkMatchReport(
            quartic_poly=poly,
            poly_irreducible=_quartic_field(poly) is not None,
            d_head=d_head,
            normalized=None,
            applicable=False,
            completion=None,
            matched_through=None,
            basis=None,
        )
    normalized = tuple(x // d1 for x in d_head)
    # normalized[1] = 1, so the vector is primitive and the completion exists
    a = complete_primitive(normalized)
    # x(k) = A^T y(k) where y(k) are power coordinates of eta^k mod X^4 - T X^2 + 1
    col = a.column(0)
    y = (1, 0, 0, 0)
    matched = None
    for k in range(kmax + 1):
        x1 = sum(ci * yi for ci, yi in zip(col, y))
        d_k = 0 if k == 0 else seq.dk(k)
        if x1 * d1 != d_k:
            matched = k - 1
            break
        y = (-y[3], y[0], y[1] + t * y[3], y[2])
    else:
        matched = kmax
    basis = None
    k4 = _quartic_field(poly)
    if k4 is not None:
        eta = k4.generator
        a_inv = inverse_unimodular(a)
        vectors = []
        for row in a_inv.entries:
            acc = k4.zero
            for c, i in zip(row, range(4)):
                acc = acc + (eta**i).scale(c)
            vectors.append(acc)
        basis = ModuleBasis(k4, tuple(vectors))
    return DkMatchReport(
        quartic_poly=poly,
        poly_irreducible=k4 is not None,
        d_head=d_head,
        normalized=normalized,
        applicable=True,
        completion=a,
        matched_through=matched,
        basis=basis,
    )


def _quartic_field(coeffs: tuple[int, ...]) -> NumberField | None:
    """Q[X]/(coeffs), or None when coeffs is reducible."""
    try:
        return NumberField(coeffs)
    except ValueError:
        return None


@dataclass
class SparseScanRow:
    n: int
    y1: int
    d_tilde: int
    d: int | None  # equals d_tilde under the monogenic assertion, else unknown


@dataclass
class SparseScanReport:
    t: int
    disc: int
    monogenic_asserted: bool
    rows: list[SparseScanRow]

    def all_vanish(self) -> bool:
        return all(r.y1 == 0 for r in self.rows)


def sparse_minpoly_scan(
    field: NumberField, t: int, nmax: int, assert_monogenic: bool = False
) -> SparseScanReport:
    """Scan n in 1 + tZ up to nmax over Z[alpha] for a t-lacunary minimal polynomial.

    Requires f = X^deg - s_1 X^(deg-1) - ... with s_i = 0 for every i outside tZ.
    For such f the power coordinate y1(n) of alpha^n vanishes on 1 + tZ, which
    forces the relative d~_n = gcd(y1-1, y2, ...) to 1; under the monogenic
    assertion d_n itself is 1.
    """
    deg = field.degree
    if t <= 0 or deg % t != 0:
        raise ValueError("t must be a positive divisor of the degree")
    # s_i = -coeffs[deg - i] for i = 1..deg
    for i in range(1, deg + 1):
        if i % t != 0 and field.coeffs[deg - i] != 0:
            raise ValueError(
                f"coefficient pattern violated: s_{i} = {-field.coeffs[deg - i]} is nonzero"
            )
    disc = discriminant_power_basis(field)
    rows = []
    for n, coords in enumerate(_power_rows(field.generator, field.power_basis(), nmax), 1):
        if n % t == 1 or t == 1:
            d_tilde = math.gcd(coords[0] - 1, *coords[1:])
            rows.append(
                SparseScanRow(
                    n=n,
                    y1=coords[0],
                    d_tilde=d_tilde,
                    d=d_tilde if assert_monogenic else None,
                )
            )
    return SparseScanReport(t=t, disc=disc, monogenic_asserted=assert_monogenic, rows=rows)


@dataclass
class LevelScan:
    """Indices k <= kmax with d_k = d_1, and their density. Exploratory only."""

    d1: int
    hits: list[int]
    kmax: int

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.hits), self.kmax)


def dk_level_scan(seq: DkSequence) -> LevelScan:
    """Level set of d_1 over every term of an already computed sequence."""
    d1 = seq.dk(1)
    hits = [k for k, d in enumerate(seq.terms, 1) if d == d1]
    return LevelScan(d1=d1, hits=hits, kmax=len(seq.terms))


def _sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two integer polynomials (ascending coefficients)."""
    df = len(f) - 1
    dg = len(g) - 1
    size = df + dg
    rows = []
    frev = f[::-1]
    grev = g[::-1]
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (size - dg - 1 - i))
    return det(IntMatrix.from_rows(rows))


def discriminant_power_basis(field: NumberField) -> int:
    """disc(1, alpha, ..., alpha^(n-1)) = (-1)^(n(n-1)/2) Res(f, f') for monic f."""
    f = list(field.coeffs)
    n = field.degree
    fprime = [i * f[i] for i in range(1, n + 1)]
    res = _sylvester_resultant(f, fprime)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res


def dk_maximality_oracle(alpha: FieldElement, ringbasis: ModuleBasis, k: int) -> bool:
    """Brute-force check that dk is the maximum of the defining congruence.

    Confirms for every candidate d up to 2*d_k that (alpha^k - 1)/d has integral
    coordinates iff d divides d_k. Intended for small k only.
    """
    _check_ring_basis(ringbasis)
    value = dk(alpha, ringbasis, k)
    if value == 0:
        return True
    diff = alpha**k - ringbasis.field.one
    for d in range(1, 2 * value + 1):
        coords = ringbasis.coords(diff.scale(Fraction(1, d)))
        integral = all(c.denominator == 1 for c in coords)
        if integral != (value % d == 0):
            return False
    return True
