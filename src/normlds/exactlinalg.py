"""Exact integer linear algebra on small dense matrices.

Everything here is fraction-free. One Bareiss pass (_bareiss) serves every
determinant, inverse and minimal polynomial: det, and through it the norms of
numberfield and the discriminants of dkseq; and fraction_free_inverse, behind
the unimodular inverses here, and the rational basis inverses, field element
inverses and minimal polynomials of numberfield. Besides it, the column
Hermite and Smith normal forms with their unimodular witnesses. Each form runs
on one augmented matrix whose border carries the witnesses (Cohen, GTM 138,
2.4): hnf_column on b stacked over I, with column operations only, and snf on
[[b, I], [I, 0]], whose first n rows carry x and first n columns carry y. So
each row or column operation is written once, and acts on the witness with the
matrix. hnf_column clears each row by one bottom-up extended-gcd sweep, and
that sweep also completes a primitive vector v to a basis of Z^n:
primitive_reducer(v) is hnf_column of the one row v, its witness transposed,
and complete_primitive(v) is its inverse. Intended for n <= 4 but written for
general n.

A failed internal check, here or in any module above, raises
InvariantViolation: a bug, never bad input. The command line reports it with
exit code 1.

A matrix is a sequence of integer rows: every function here takes lists or
tuples of rows, and every matrix one returns, or a decomposition holds, is a
tuple of row tuples, which compares and hashes by value. apply, matmul and
identity serve the witness checks. The decompositions are
collections.namedtuple records, as are the values of numberfield and the
results of coordseq, basisforge and dkseq: a typing.NamedTuple compiles each
field's annotation, a string under from __future__ import annotations, when
the module is imported.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from typing import Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def identity(n: int) -> tuple[tuple[int, ...], ...]:
    """The n x n identity matrix."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def apply(m: Sequence[Sequence[int]], vec: Sequence[int]) -> tuple[int, ...]:
    """Matrix-vector product m . vec."""
    return tuple(sum(map(operator.mul, row, vec)) for row in m)


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Matrix product a . b."""
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in cols) for row in a)


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class HnfDecomposition(namedtuple("HnfDecomposition", "h c")):
    """Column-style Hermite form: b . c = h with h lower triangular, c unimodular."""

    __slots__ = ()
    # h, c: tuple[tuple[int, ...], ...]


class SnfDecomposition(namedtuple("SnfDecomposition", "x d y")):
    """Smith form witnesses: x . b . y = diag(d), x and y unimodular, d[0] | d[1] | ..."""

    __slots__ = ()
    # x, y: tuple[tuple[int, ...], ...]
    # d: tuple[int, ...]


def _bareiss(a: list[list[int]]) -> int:
    """det of the leading n x n block of a: one fraction-free Gauss-Jordan pass, in place.

    After step k every entry is a (k+1)x(k+1) minor of the row-swapped a, so
    each division by the previous pivot is exact, above the pivot as below it.
    The last pivot a[n-1][n-1] is the determinant of the row-swapped block, and
    the columns right of the block end as that pivot times the block's inverse
    times them. Columns left of each pivot are settled and skipped. Returns 0
    when the block is singular, else the determinant with the sign of the swaps.
    """
    n = len(a)
    width = len(a[0])
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = a[k]
        pivot = pivot_row[k]
        for i in range(n):
            if i == k:
                continue
            row = a[i]
            factor = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
            row[k] = 0
        prev = pivot
    return sign * prev


def det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if len(m) != len(m[0]):
        raise ValueError("determinant requires a square matrix")
    return _bareiss([list(row) for row in m])


def fraction_free_inverse(
    rows: Sequence[Sequence[int]],
) -> tuple[tuple[tuple[int, ...], ...], int] | None:
    """Inverse of a square integer matrix as (N, q) with A^-1 = N/q, q = |det A| > 0.

    The Bareiss pass over [A | I]; None when A is singular. The right block
    ends as d*A^-1, d the last pivot: the determinant of the row-swapped A.
    """
    n = len(rows)
    a = [[int(x) for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if not _bareiss(a):
        return None
    d = a[n - 1][n - 1]
    sign = 1 if d > 0 else -1
    return tuple(tuple(sign * x for x in row[n:]) for row in a), abs(d)


def inverse_unimodular(m: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Exact integer inverse of a matrix with determinant +-1 (fraction_free_inverse)."""
    if len(m) != len(m[0]):
        raise ValueError("inverse requires a square matrix")
    result = fraction_free_inverse(m)
    if result is None or result[1] != 1:
        raise ValueError(f"matrix is not unimodular (det = {det(m)})")
    inv = result[0]
    if matmul(inv, m) != identity(len(m)):
        raise InvariantViolation("inverse verification failed")
    return inv


def _swap_columns(m: list[list[int]], j1: int, j2: int) -> None:
    for r in m:
        r[j1], r[j2] = r[j2], r[j1]


def _add_column(m: list[list[int]], dst: int, src: int, q: int) -> None:
    """Column dst of m += q * column src."""
    for r in m:
        r[dst] += q * r[src]


def hnf_column(b: Sequence[Sequence[int]]) -> HnfDecomposition:
    """Column Hermite normal form.

    Returns (h, c) with b . c = h lower triangular and c unimodular. Pivots are
    positive and entries left of each pivot are reduced into [0, pivot).
    Requires full row rank. Column operations on b stacked over I leave h on
    top and c below. Row i is cleared by a bottom-up extended-gcd sweep: for
    j from the last column down to i+1, columns j-1 and j take the
    determinant-1 step [[s, -e/g], [t, a/g]], where (a, e) are their entries
    in row i and s*a + t*e = g = gcd(a, e). primitive_reducer runs it on one
    row.
    """
    rows, cols = len(b), len(b[0])
    if rows > cols:
        raise ValueError("full row rank requires rows <= cols")
    m = [list(row) for row in b] + [[int(i == j) for j in range(cols)] for i in range(cols)]
    for i in range(rows):
        pivot_row = m[i]
        for j in range(cols - 1, i, -1):
            a, e = pivot_row[j - 1], pivot_row[j]
            if e == 0:
                continue
            g, s, t = xgcd(a, e)
            p, q = -e // g, a // g
            for r in m:
                r[j - 1], r[j] = s * r[j - 1] + t * r[j], p * r[j - 1] + q * r[j]
        if pivot_row[i] == 0:
            raise ValueError(f"rank-deficient input (row {i})")
        if pivot_row[i] < 0:
            for r in m:
                r[i] = -r[i]
        for j in range(i):
            q = pivot_row[j] // pivot_row[i]
            if q:
                _add_column(m, j, i, -q)

    hm = tuple(map(tuple, m[:rows]))
    cm = tuple(map(tuple, m[rows:]))
    if matmul(b, cm) != hm:
        raise InvariantViolation("Hermite witness verification failed")
    return HnfDecomposition(hm, cm)


def snf(b: Sequence[Sequence[int]]) -> SnfDecomposition:
    """Smith normal form with witnesses.

    Returns (x, d, y) with x . b . y = diag(d), x and y unimodular, and the
    diagonal nonnegative with d[i] | d[i+1] (trailing zeros allowed). The
    elimination runs on the block matrix [[b, I], [I, 0]], pivoting in its
    leading n x n block: row operations on the first n rows carry x to the
    top right, and column operations on the first n columns carry y to the
    bottom left.
    """
    n = len(b)
    if n != len(b[0]):
        raise ValueError("Smith form implemented for square matrices")
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(b)]
    a += [[int(i == j) for j in range(n)] + [0] * n for i in range(n)]
    for s in range(n):
        while True:
            # a nonzero entry of least magnitude in the trailing block, the first in row order
            nonzero = [(abs(a[i][j]), i, j) for i in range(s, n) for j in range(s, n) if a[i][j]]
            if not nonzero:
                break  # trailing block is zero; remaining diagonal stays 0
            _, i, j = min(nonzero)
            if i != s:
                a[s], a[i] = a[i], a[s]
            if j != s:
                _swap_columns(a, s, j)
            # clear column s and row s by Euclidean steps
            pivot_row = a[s]
            dirty = False
            for i in range(s + 1, n):
                if a[i][s] != 0:
                    q = a[i][s] // pivot_row[s]
                    a[i] = [p - q * r for p, r in zip(a[i], pivot_row)]
                    if a[i][s] != 0:
                        dirty = True
            for j in range(s + 1, n):
                if pivot_row[j] != 0:
                    _add_column(a, j, s, -(pivot_row[j] // pivot_row[s]))
                    if pivot_row[j] != 0:
                        dirty = True
            if dirty:
                continue
            # enforce the divisibility chain: pivot must divide the whole block
            offender = next(
                (i for i in range(s + 1, n) for j in range(s + 1, n) if a[i][j] % pivot_row[s]),
                None,
            )
            if offender is None:
                break
            a[s] = [p + r for p, r in zip(pivot_row, a[offender])]
        if a[s][s] < 0:
            a[s] = [-v for v in a[s]]

    diag = tuple(a[i][i] for i in range(n))
    xm = tuple(tuple(row[n:]) for row in a[:n])
    ym = tuple(tuple(row[:n]) for row in a[n:])
    diagonal = tuple(tuple(d * e for e in row) for d, row in zip(diag, identity(n)))
    if matmul(matmul(xm, b), ym) != diagonal:
        raise InvariantViolation("Smith witness verification failed")
    for i in range(n - 1):
        if diag[i] == 0:
            if diag[i + 1] != 0:
                raise InvariantViolation("zero before nonzero in Smith diagonal")
        elif diag[i + 1] % diag[i] != 0:
            raise InvariantViolation("Smith divisibility chain broken")
    return SnfDecomposition(xm, diag, ym)


def primitive_reducer(v: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """A matrix u with det(u) = 1 and u . v = e1, for a primitive integer vector v.

    u is the inverse of complete_primitive(v): the witness c of hnf_column([v]),
    transposed, so one extended-gcd sweep serves both. Raises ValueError
    unless gcd(v) = 1, and for v = (-1,), the one primitive vector whose only
    1x1 completion [-1] has determinant -1.
    """
    vec = [int(a) for a in v]
    if not vec:
        raise ValueError("empty vector")
    if math.gcd(*vec) != 1:
        raise ValueError(f"vector {tuple(vec)} is not primitive")
    if vec == [-1]:
        raise ValueError("(-1,) has no completion with determinant 1")
    u = list(zip(*hnf_column([vec]).c))
    if vec[0] == -1 and not any(vec[1:]):
        # the one v whose pivot the Hermite form negates; negating row 1 too keeps det(u) = 1
        u[1] = tuple(-x for x in u[1])
    return tuple(u)


def complete_primitive(v: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Complete a primitive integer vector to a unimodular matrix.

    Returns the inverse of primitive_reducer(v), the transposed hnf_column
    witness of the one row v: det = 1 and first column v. Raises ValueError as
    primitive_reducer does.
    """
    result = inverse_unimodular(primitive_reducer(v))
    if tuple(row[0] for row in result) != tuple(int(a) for a in v):
        raise InvariantViolation("completion does not start with the input vector")
    return result
