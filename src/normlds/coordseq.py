"""Coordinate sequences of beta * eps^k over a module basis, and their checks.

coordinate_rows() is the one sequence kernel of the package. It builds the
matrix of y -> eps*y over the basis once (step_matrix), cleared to an integer
matrix M with a common denominator D and stored by columns, and steps
x(k+1) = M x(k) / D in integers (step_rows): each nonzero x_j(k) adds its
multiple of column j of M, and every entry is checked for exact division by D.
generate() and the d_k sequences of dkseq all run on it. generate() returns
the rows together with the recurrence inherited from the minimal polynomial
of eps.

The checks are independent of the kernel. verify_recurrence tests the
characteristic recurrence column by column, one list pass per nonzero
coefficient; verify_lds finds the first failing divisor pair through prime
steps.

decimal_rows() renders the terms as decimal strings through the same
recurrence, column by column in exact decimal arithmetic: str() of a large int
is quadratic in its digit count, while each recurrence step and str() of a
Decimal are linear.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, Rounded
from typing import Callable, Iterator, NamedTuple, Sequence

from .numberfield import FieldElement, ModuleBasis, min_poly

# exact integer arithmetic in decimal: any rounding raises instead of happening;
# a private context, so the caller's decimal.getcontext() is never touched
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation]
)


@dataclass
class SequenceReport:
    """Integer coordinate rows x_i(k) (row k, column i) plus their recurrence."""

    terms: list[list[int]]
    charpoly: tuple[int, ...]  # ascending, monic; the recurrence all columns satisfy

    @property
    def kmax(self) -> int:
        return len(self.terms) - 1

    @property
    def ncols(self) -> int:
        return len(self.terms[0])

    def column(self, i: int) -> list[int]:
        """Column i, 1-indexed to match the x_i naming."""
        return [row[i - 1] for row in self.terms]


@dataclass(frozen=True)
class LdsVerdict:
    ok: bool
    witness: tuple[int, int] | None = None  # first (n, m) with n | m but b(n) does not divide b(m)


class StepMatrix(NamedTuple):
    """The matrix of y -> eps*y over a basis, cleared to integers: M = D * (that matrix)."""

    columns: list[list[tuple[int, int]]]  # per input coordinate j, the nonzero (i, M[i][j])
    denom: int  # D, the least common denominator


def step_matrix(eps: FieldElement, w: ModuleBasis) -> StepMatrix:
    """The integer step matrix of eps over w, by columns, and its common denominator."""
    if eps.field != w.field:
        raise ValueError("element from a different field")
    # column j of the step matrix holds the coordinates of eps * w_j
    step = [w.coords(eps * v) for v in w.vectors]
    denom = math.lcm(*(c.denominator for col in step for c in col))
    columns = [[(i, int(c * denom)) for i, c in enumerate(col) if c] for col in step]
    return StepMatrix(columns, denom)


def step_rows(x: list[int], step: StepMatrix, error: Callable[[int], str]) -> Iterator[list[int]]:
    """x, M x / D, (M/D)^2 x, ... without end, each entry checked for exact division.

    The first row k with a remainder raises ValueError(error(k)).
    """
    columns, denom = step
    n = len(columns)
    k = 0
    while True:
        yield x
        k += 1
        nxt = [0] * n
        for xj, column in zip(x, columns):
            if xj:
                for i, m in column:
                    nxt[i] += m * xj
        if denom != 1:
            for i, value in enumerate(nxt):
                q, r = divmod(value, denom)
                if r:
                    raise ValueError(error(k))
                nxt[i] = q
        x = nxt


def coordinate_rows(
    beta: FieldElement, eps: FieldElement, w: ModuleBasis, error: Callable[[int], str]
) -> Iterator[list[int]]:
    """Integer coordinates of beta * eps^k over w for k = 0, 1, 2, ... without end.

    The first row whose coordinates are not all integers raises
    ValueError(error(k)) for its index k. Rows are yielded one at a time, so a
    caller that keeps only a digest of each row holds one row in memory.
    """
    if beta.field != w.field:
        raise ValueError("element from a different field")
    step = step_matrix(eps, w)
    start = w.coords(beta)
    if any(c.denominator != 1 for c in start):
        raise ValueError(error(0))
    yield from step_rows([int(c) for c in start], step, error)


def generate(beta: FieldElement, eps: FieldElement, w: ModuleBasis, kmax: int) -> SequenceReport:
    """Exact coordinates of beta * eps^k over w for k = 0..kmax.

    Every row must come out integral; a fractional coordinate means beta is not
    in the module or eps does not stabilize it, and raises ValueError.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if beta.field != w.field or eps.field != w.field:
        raise ValueError("beta, eps and basis must share one field")
    mp = min_poly(eps)
    charpoly = []
    for c in mp:
        if c.denominator != 1:
            raise ValueError("eps must be an algebraic integer")
        charpoly.append(int(c))
    steps = coordinate_rows(
        beta, eps, w, lambda k: f"non-integral coordinate at k={k}: beta*eps^k is outside the module"
    )
    rows = list(itertools.islice(steps, kmax + 1))
    return SequenceReport(terms=rows, charpoly=tuple(charpoly))


def _recurrence_steps(charpoly: Sequence[int]) -> list[tuple[int, int]]:
    """Nonzero (j, s_j) of x(k+d) = sum_j s_j x(k+d-j) for a monic ascending charpoly."""
    # f = X^d - s_1 X^(d-1) - ... - s_d, so s_j = -charpoly[d - j]
    d = len(charpoly) - 1
    return [(j, -charpoly[d - j]) for j in range(1, d + 1) if charpoly[d - j]]


def verify_recurrence(report: SequenceReport) -> bool:
    """Whether every column satisfies the report's characteristic recurrence."""
    d = len(report.charpoly) - 1
    if report.kmax < d:
        raise ValueError("not enough terms to test the recurrence")
    steps = _recurrence_steps(report.charpoly)
    n = len(report.terms)
    for column in zip(*report.terms):
        # want[k - d] = sum_j s_j x(k - j) for k = d..n-1, one pass per nonzero s_j
        want = [0] * (n - d)
        for j, s in steps:
            want = list(map(operator.add, want, map(s.__mul__, column[d - j : n - j])))
        if want != list(column[d:]):
            return False
    return True


def decimal_rows(report: SequenceReport) -> list[list[str]]:
    """The terms as decimal strings, rendered in time linear in their digit count.

    Only the first d terms of each column (d the degree of the charpoly) are
    converted with str(); every later term is computed by the characteristic
    recurrence in exact decimal arithmetic, holding a window of d values of
    one column at a time. The strings equal str(x) for every term exactly when
    the report satisfies its recurrence, which verify_recurrence decides.
    """
    d = len(report.charpoly) - 1
    n = len(report.terms)
    steps = [(j, Decimal(s)) for j, s in _recurrence_steps(report.charpoly)]
    # each value starts from +0, and an exact sum that cancels is +0, so no term
    # prints as -0 (a bare product of 0 and a negative s_j would)
    fma, zero = _EXACT.fma, Decimal(0)
    columns = []
    for column in zip(*report.terms):
        head = column[:d]
        text = list(map(str, head))
        window = deque(map(Decimal, head), maxlen=d)
        for _ in range(d, n):
            value = zero
            for j, s in steps:
                value = fma(s, window[-j], value)
            window.append(value)
            text.append(str(value))
        columns.append(text)
    return list(map(list, zip(*columns)))


def divides(a: int, b: int) -> bool:
    """Divisibility over Z with the convention that 0 divides only 0."""
    if a == 0:
        return b == 0
    return b % a == 0


def _smallest_prime_factors(nmax: int) -> list[int]:
    """spf[m] is the least prime factor of m for 2 <= m <= nmax."""
    spf = list(range(nmax + 1))
    for p in range(2, math.isqrt(nmax) + 1):
        if spf[p] == p:
            for q in range(p * p, nmax + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return spf


def verify_lds(column: Sequence[int], nmax: int) -> LdsVerdict:
    """First failing pair n | m with 1 <= n < m <= nmax; the index is the position.

    column[k] is b(k); entries through index nmax must be present. The witness
    is the pair met first when m runs upward and, for each m, n runs upward
    over the divisors of m. Divisibility is transitive (0 divides only 0), so
    while every pair below m holds, m has a failing divisor exactly when some
    prime step (m/p, m) fails: only prime steps are tested until that m.
    """
    terms = list(column)
    if len(terms) <= nmax:
        raise ValueError(f"need terms through index {nmax}, got {len(terms)}")
    spf = _smallest_prime_factors(max(nmax, 1))
    for m in range(2, nmax + 1):
        rest = m
        while rest > 1:
            p = spf[rest]
            if not divides(terms[m // p], terms[m]):
                n = next(n for n in range(1, m) if m % n == 0 and not divides(terms[n], terms[m]))
                return LdsVerdict(False, (n, m))
            while rest % p == 0:
                rest //= p
    return LdsVerdict(True, None)

