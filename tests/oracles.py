"""Exact solvers and sequences that serve the tests as independent oracles.

solve_linear is plain Gauss-Jordan elimination over Fraction, and
minimal_order fits the least-order recurrence of a sequence with it. The
library needs neither: every unit it emits has an irreducible minimal
polynomial, so a nonzero coordinate sequence has the unit's degree as its
minimal order. The tests check that fact and the library's fraction-free
routines against these. lucas_terms is the Lucas sequence u_k(P, Q) by its
recurrence: in the quadratic case x1 is a scaled Lucas sequence, and the
quartic-power x1 is built from one. fraction_rows is the coordinate sequence
of beta * eps^k by one field product and one Fraction coordinate solve per
term, the reference for every integer sequence the library builds;
fraction_columns is the same sequence as columns. scan_rows reads the
columns of a vanishing scan back as its rows, and dk_ints reads the d_k of
a dkseq record as ints, expanding the half-index lemma's head when the record
holds one. faddeev_leverrier is the characteristic polynomial of an integer
matrix, and reference_min_poly takes the minimal polynomial of a field
element from it: the reference for the library's min_poly, which solves for
the first dependent power instead.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import islice
from typing import Callable, NamedTuple, Sequence

from normlds.coordseq import column_terms

# the maximal order {1, sqrt 2, sqrt 3, (sqrt 2 + sqrt 6)/2} of Q(sqrt 2, sqrt 3), over
# the power basis of a root t of x^4 - 10x^2 + 1, as a --module-basis
MAXIMAL_ORDER = "1;-9/2t+1/2t^3;11/2t-1/2t^3;-5/4-9/4t+1/4t^2+1/4t^3"


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


class MinimalRecurrence(NamedTuple):
    order: int
    coeffs: tuple[Fraction, ...]  # x(k+d) = sum coeffs[j] * x(k+d-1-j)


def minimal_order(column: Sequence[int], max_order: int | None = None) -> MinimalRecurrence:
    """Least-order homogeneous linear recurrence fitting all given terms.

    Searches rational-coefficient recurrences by exact consistency of the shifted
    linear system, so minimality does not depend on integrality. The certifiable
    orders are bounded by (len(column) - 2) // 2; asking beyond that raises.
    """
    terms = [int(x) for x in column]
    certifiable = (len(terms) - 2) // 2
    if max_order is None:
        max_order = certifiable
    if max_order > certifiable:
        raise ValueError(
            f"{len(terms)} terms certify order at most {certifiable}, not {max_order}"
        )
    if all(x == 0 for x in terms):
        return MinimalRecurrence(0, ())
    for d in range(1, max_order + 1):
        # unknowns c_1..c_d with x(k+d) = sum_j c_j x(k+d-j) for every window
        cols = [
            [Fraction(terms[k + d - j]) for k in range(len(terms) - d)]
            for j in range(1, d + 1)
        ]
        rhs = [Fraction(terms[k + d]) for k in range(len(terms) - d)]
        sol = solve_linear(cols, rhs)
        if sol is not None:
            return MinimalRecurrence(d, tuple(sol))
    raise ValueError(f"no recurrence of order <= {max_order} fits the terms")


def companion_first_coordinates(column: Sequence[int], t: int, kmax: int) -> list[int]:
    """x1(0..kmax) = column . y(k), y(k) the power coordinates of eta^k mod X^4 - T X^2 + 1.

    y(k) is stepped by the companion matrix of X^4 - T X^2 + 1, one
    multiplication by X per k, and each x1(k) is a dot product with column.
    """
    y = (1, 0, 0, 0)
    x1 = []
    for _ in range(kmax + 1):
        x1.append(sum(c * v for c, v in zip(column, y)))
        y = (-y[3], y[0], y[1] + t * y[3], y[2])
    return x1


def lucas_terms(p: int, q: int, count: int) -> list[int]:
    """u_0 .. u_{count-1} of u_0 = 0, u_1 = 1, u_{k+2} = P u_{k+1} - Q u_k."""
    terms = []
    a, b = 0, 1
    for _ in range(count):
        terms.append(a)
        a, b = b, p * b - q * a
    return terms


def outside_module(k: int) -> str:
    return f"non-integral coordinate at k={k}: beta*eps^k is outside the module"


def fraction_rows(beta, eps, w, kmax: int, error: Callable[[int], str] = outside_module) -> list[list[int]]:
    """Coordinates of beta*eps^k over w for k = 0..kmax by field multiplication and solves.

    The first k whose coordinates are not all integers raises ValueError(error(k)).
    """
    rows = []
    current = beta
    for k in range(kmax + 1):
        coords = w.coords(current)
        if any(c.denominator != 1 for c in coords):
            raise ValueError(error(k))
        rows.append([int(c) for c in coords])
        current = current * eps
    return rows


def fraction_columns(beta, eps, w, kmax: int, error: Callable[[int], str] = outside_module) -> list[list[int]]:
    """fraction_rows as columns, one per coordinate, the shape of a SequenceReport's terms."""
    return [list(column) for column in zip(*fraction_rows(beta, eps, w, kmax, error))]


def scan_rows(scan) -> list[tuple]:
    """The (n, y1, d_tilde) rows of a sparse_minpoly_scan report, from its columns of one length."""
    assert len(scan.n) == len(scan.y1) == len(scan.d_tilde)
    return list(zip(scan.n, scan.y1, scan.d_tilde))


def dk_ints(seq) -> list[int]:
    """d_1 .. d_kmax of a dkseq.DkSequence as ints.

    The gcd path's terms as they are. From the half-index lemma's head
    (0, d_1, d_2, d_3) of beta = alpha^s, s the step, d_(s j) is term j of its
    column and every other d_k is 1. coordseq.column_terms reads rows 0..d of a
    head, d = 4, and the lemma gives row 4 as d_4 = U(2) d_2 = |T| d_2.
    """
    if seq.head is None:
        return seq.terms
    (column,) = seq.head.terms
    head = seq.head._replace(terms=[[*column, -seq.head.charpoly[2] * column[2]]])
    terms = [1] * seq.kmax
    terms[seq.step - 1 :: seq.step] = islice(column_terms(head, 1), 1, seq.kmax // seq.step + 1)
    return terms


def faddeev_leverrier(m: Sequence[Sequence[int]]) -> list[int]:
    """det(X*I - m), ascending and monic, for an integer matrix m, by Faddeev-LeVerrier.

    With m_1 = I, step k takes c_(n-k) = -tr(m m_k) / k and then
    m_(k+1) = m m_k + c_(n-k) I. Every c_i is an integer, so each division by k
    is exact (Newton's identities; Cohen, GTM 138, section 2.2).
    """
    n = len(m)
    coeffs = [0] * n + [1]
    m_k = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m_k))
        prod = [[sum(map(operator.mul, row, col)) for col in cols] for row in m]
        c = -sum(prod[i][i] for i in range(n)) // k
        coeffs[n - k] = c
        for i in range(n):
            prod[i][i] += c
        m_k = prod
    return coeffs


def reference_min_poly(m: Sequence[Sequence[int]], den: int) -> tuple[Fraction, ...]:
    """The minimal polynomial of num/den, for m the integer matrix of y -> num*y.

    f irreducible makes the charpoly of num equal to minpoly(num)^(n/d),
    d = [Q(num) : Q], and d divides n. So d = 1 exactly when num, column 0 of
    m, vanishes past its first coordinate; for n = 4, d = 2 exactly when the
    charpoly is the square of X^2 + hX + b, where h and b are read off its two
    top coefficients; and otherwise the minpoly is the charpoly. The
    coefficient of X^i is then divided by den^(d-i).
    """
    num = [row[0] for row in m]
    if not any(num[1:]):
        return (Fraction(-num[0], den), Fraction(1))
    c = faddeev_leverrier(m)
    if len(c) == 5:
        # (X^2 + hX + b)^2 = X^4 + 2h X^3 + (h^2 + 2b) X^2 + 2hb X + b^2
        h, odd = divmod(c[3], 2)
        b, odd2 = divmod(c[2] - h * h, 2)
        if not odd and not odd2 and c[1] == 2 * h * b and c[0] == b * b:
            c = [b, h, 1]
    d = len(c) - 1
    return tuple(Fraction(x, den ** (d - i)) for i, x in enumerate(c))
