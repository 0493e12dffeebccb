"""Coordinate sequences of beta * eps^k over a module basis, and their checks.

The package has one integer sequence kernel, here: linear_values(), the lazy
sum of s * v over (s, iterator) pairs, in which s = +1 or -1 is an add or a
subtract, not a multiply. Two drivers run on it. The step matrix:
coordinate_rows() builds the matrix of y -> eps*y over the basis once
(step_matrix), cleared to an integer matrix M with a common denominator D and
stored as the nonzero (j, M[i][j]) of each row, and steps x(k+1) = M x(k) / D
in integers (step_rows), one linear_values() per output coordinate, every
entry checked for exact division by D. generate() and the d_k sequences of
dkseq run on it. The recurrence: recurrence_values() yields sum_j s_j x(k - j)
for k = d, d+1, ..., linear_values() over iterators into x. verify_recurrence
compares it with each column. decimal_columns() and dkseq.match_dk_basis hand
it a list of the first d terms and append each value it yields, so it reads
its own output and computes every later term.

decimal_columns() and decimal_rows() render terms in exact decimal
arithmetic: str() of a large int is quadratic in its digit count, while each
recurrence step and str() of a Decimal are linear. A column that is +- an
earlier one shifted down a row copies that column's strings instead. They
return DecimalList rows and columns, whose items are vouched for as '-' and
digits by how they were made, so a writer may copy them without testing or
escaping each one.

In X^4 - T X^2 + 1 the coefficient s_4 is -1, and 5 of the 9 nonzero entries
of a quartic-power step matrix are +-1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext
)
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .numberfield import FieldElement, ModuleBasis, min_poly

# exact integer arithmetic in decimal: any rounding raises instead of happening;
# decimal_columns enters a copy of it with localcontext, which gives the caller's
# context back on exit
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

    rows: list[list[tuple[int, int]]]  # per output coordinate i, the (j, M[i][j]) with M[i][j] != 0
    denom: int  # D, the least common denominator


def linear_values(terms: Iterable[tuple[int, Iterator]]) -> Iterator:
    """The lazy termwise sum of s * v over the (s, values v) pairs of terms, each s a nonzero int.

    The s not +-1 come first, then s = 1, then s = -1, each group in its given
    order, so every +-1 after the first term is an add or a subtract. The
    values stop where the first iterator ends; all are 0 when terms is empty.
    """
    terms = sorted(terms, key=lambda term: {1: 1, -1: 2}.get(term[0], 0))
    values: Iterator = itertools.repeat(0)
    for i, (s, part) in enumerate(terms):
        # int.__mul__(Decimal) is NotImplemented, so s multiplies through operator.mul
        if i == 0:
            values = part if s == 1 else map(functools.partial(operator.mul, s), part)
        elif s == 1:
            values = map(operator.add, values, part)
        elif s == -1:
            values = map(operator.sub, values, part)
        else:
            values = map(operator.add, values, map(functools.partial(operator.mul, s), part))
    return values


def step_matrix(eps: FieldElement, w: ModuleBasis) -> StepMatrix:
    """The integer step matrix of eps over w, by rows, and its common denominator."""
    if eps.field != w.field:
        raise ValueError("element from a different field")
    # column j of the step matrix holds the coordinates of eps * w_j
    step = [w.int_coords(eps * v) for v in w.vectors]
    denom = math.lcm(*(den for _, den in step))
    columns = [[x * (denom // den) for x in num] for num, den in step]
    rows = [[(j, m) for j, m in enumerate(row) if m] for row in zip(*columns)]
    return StepMatrix(rows, denom)


def step_rows(x: list[int], step: StepMatrix, error: Callable[[int], str]) -> Iterator[list[int]]:
    """x, M x / D, (M/D)^2 x, ... without end, each entry checked for exact division.

    The first row k with a remainder raises ValueError(error(k)). Every row
    yielded is a new list, x included, and none is read again.
    """
    rows, denom = step
    current = list(x)
    # entry i of the next row, one lazy sum per output coordinate over current
    forms = [
        linear_values((m, map(operator.itemgetter(j), itertools.repeat(current))) for j, m in row)
        for row in rows
    ]
    nxt = list(current)
    for k in itertools.count(1):
        yield nxt
        nxt = list(map(next, forms))
        if denom != 1:
            for i, value in enumerate(nxt):
                q, r = divmod(value, denom)
                if r:
                    raise ValueError(error(k))
                nxt[i] = q
        current[:] = nxt


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
    start, den = w.int_coords(beta)
    if den != 1:
        raise ValueError(error(0))
    yield from step_rows(list(start), step, error)


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


def recurrence_values(charpoly: Sequence[int], x: Sequence) -> Iterator:
    """sum_j s_j x(k - j) for k = d, d+1, ..., of f = X^d - s_1 X^(d-1) - ... - s_d.

    charpoly is f, monic and ascending. x is read through one iterator per
    nonzero s_j, from x(d - j) on, so a list to which the caller appends each
    value before it asks for the next feeds itself. The values stop where the
    first of those iterators ends; all are 0 when no s_j is nonzero.
    """
    d = len(charpoly) - 1
    return linear_values(
        (-charpoly[d - j], itertools.islice(x, d - j, None))
        for j in range(1, d + 1)
        if charpoly[d - j]
    )


def verify_recurrence(report: SequenceReport) -> bool:
    """Whether every column satisfies the report's characteristic recurrence."""
    d = len(report.charpoly) - 1
    if report.kmax < d:
        raise ValueError("not enough terms to test the recurrence")
    for column in zip(*report.terms):
        if not all(map(operator.eq, recurrence_values(report.charpoly, column), column[d:])):
            return False
    return True


class DecimalList(list):
    """A list of str() of ints: every item is '-' and digits, by how it was made."""


def _shift_source(
    column: Sequence[int], earlier: Sequence[Sequence[int]]
) -> tuple[int, int] | None:
    """(j, s) for the first earlier[j] with column[k] = s * earlier[j][k - 1], k >= 1, s = +-1."""
    tail = column[1:]
    for j, source in enumerate(earlier):
        head = source[:-1]
        if tail == head:
            return j, 1
        if all(map(operator.eq, tail, map(operator.neg, head))):
            return j, -1
    return None


def _negated(text: str) -> str:
    """The decimal text of -x from that of x."""
    if text[0] == "-":
        return text[1:]
    return text if text == "0" else "-" + text


def decimal_columns(report: SequenceReport) -> list[DecimalList]:
    """The columns of terms as decimal strings, in time linear in their digit count.

    A column equal to +- an earlier column shifted down one row takes every
    term after its first from that column's strings, negated by a string edit
    where the sign is -1; x3(k) = -x2(k-1) and x4(k) = x3(k-1) over a
    quartic-power basis. In every other column only the first d terms (d the
    degree of the charpoly) are converted with str(), and every later term is
    computed by the characteristic recurrence in exact decimal arithmetic. The
    strings equal str(x) for every term when the report satisfies its
    recurrence, which verify_recurrence decides.
    """
    d = len(report.charpoly) - 1
    # a column may hold fewer than d terms
    count = max(len(report.terms) - d, 0)
    ints: list[tuple[int, ...]] = []
    columns: list[DecimalList] = []
    with localcontext(_EXACT):
        for column in zip(*report.terms):
            shift = _shift_source(column, ints)
            ints.append(column)
            if shift is not None:
                j, sign = shift
                text = DecimalList([str(column[0])])
                rest = columns[j][:-1]
                text.extend(rest if sign == 1 else map(_negated, rest))
                columns.append(text)
                continue
            values = list(map(Decimal, column[:d]))
            append = values.append
            for value in itertools.islice(recurrence_values(report.charpoly, values), count):
                append(value)
            text = DecimalList(map(str, values))
            # the product of 0 and a negative s_j is -0, the one decimal value
            # whose text is not str() of its int
            if "-0" in text:
                text = DecimalList("0" if x == "-0" else x for x in text)
            columns.append(text)
    return columns


def decimal_rows(report: SequenceReport) -> list[DecimalList]:
    """The rows of terms as decimal strings; see decimal_columns."""
    return list(map(DecimalList, zip(*decimal_columns(report))))


def divides(a: int, b: int) -> bool:
    """Divisibility over Z with the convention that 0 divides only 0."""
    if a == 0:
        return b == 0
    return b % a == 0


def smallest_prime_factors(nmax: int) -> tuple[int, ...]:
    """spf[m] is the least prime factor of m for 2 <= m <= nmax.

    The sieve of verify_lds: a caller that checks several columns to one bound
    builds it once and passes it to each call.
    """
    spf = list(range(nmax + 1))
    for p in range(2, math.isqrt(nmax) + 1):
        if spf[p] == p:
            for q in range(p * p, nmax + 1, p):
                if spf[q] == q:
                    spf[q] = p
    return tuple(spf)


def verify_lds(column: Sequence[int], nmax: int, spf: Sequence[int] | None = None) -> LdsVerdict:
    """First failing pair n | m with 1 <= n < m <= nmax; the index is the position.

    column[k] is b(k); entries through index nmax must be present. The witness
    is the pair met first when m runs upward and, for each m, n runs upward
    over the divisors of m. Divisibility is transitive (0 divides only 0), so
    while every pair below m holds, m has a failing divisor exactly when some
    prime step (m/p, m) fails: only prime steps are tested until that m.
    spf is smallest_prime_factors of nmax or more, built here when not given.
    """
    terms = list(column)
    if len(terms) <= nmax:
        raise ValueError(f"need terms through index {nmax}, got {len(terms)}")
    if spf is None:
        spf = smallest_prime_factors(max(nmax, 1))
    elif len(spf) <= nmax:
        raise ValueError(f"the prime sieve ends below {nmax}")
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
