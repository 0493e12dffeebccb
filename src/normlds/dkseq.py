"""The congruence sequence d_k(alpha) = max{d : alpha^k = 1 + d*beta, beta integral}.

Over a ring with basis {1, w2, ..., wn} the maximum is a gcd of shifted
coordinates: d_k = gcd(x1(k) - 1, x2(k), ..., xn(k)), the content of
x(k) - e1 where x(k) are the coordinates of alpha^k. Outside the cases of
the vanishing and half-index lemmas below, dk_sequence and
sparse_minpoly_scan take those coordinates, one column per coordinate, from
coordseq.generate, the routine of every whole sequence of the package: rows
0..d from field products and the certified recurrence after them. Every gcd is taken in a C-level stream
over whole columns, math.gcd mapped over map(operator.sub, ...), so no
Python code runs per term. dk() computes one term from alpha**k in the field:
it gives the two terms the half-index lemma starts from, and the tests check
every other term against it.

When M, the matrix of y -> alpha*y over the ring, is in GL_n(Z) (alpha keeps
the ring and N(alpha) = +-1), x(k) - e1 = M^j (x(k - j) - y(j)) with
y(j) = M^-j e1, the coordinates of alpha^-j. A matrix in GL_n(Z) keeps
content: the content of v divides that of M^j v, and the content of M^j v
divides that of M^-j M^j v = v. So d_k = content(x(k - j) - y(j));
dk_sequence takes j = k // 2 and works on coordinates of half the digits:
the odd k and the even k are two streams, interleaved into one list.

Vanishing lemma. Let mp(alpha) = g(X^t) for some t >= 2, of degree d = tq,
and x1(k) the first coordinate of alpha^k over any ring basis. x1 satisfies
the recurrence of mp, which links only indices congruent mod t, so for each
r the terms u(m) = x1(r + tm) satisfy the recurrence of g for m >= q. If
u(0), ..., u(q - 1) are 0, then u is 0 by induction on m: x1 vanishes on
r + tZ, and there x(k) - e1 has the entry -1, so d_k = 1. Over the power basis
of alpha the head is 0 for every r outside tZ, since reducing by g(X^t) keeps
each power of alpha on the powers congruent to it mod t. dk_sequence tests
the head of x1 at t = 2 and r = 1 over its ring basis once, from the powers
alpha, alpha^3, ..., alpha^(d-1), and sparse_minpoly_scan, at t >= 2, reads
it off with no power taken.

Strong divisibility. Let M be a lattice with 1 in M and alpha M in M, and d_k
the content of alpha^k - 1 over M, so d_k = 0 exactly when alpha^k = 1. Then
gcd(d_m, d_n) = d_gcd(m,n) for all m, n >= 1, where 0 divides only 0.
Proof. Fix d >= 1; d divides d_k exactly when alpha^k - 1 lies in dM. Let S
be the k >= 0 with alpha^k - 1 in dM, so 0 is in S. As 1 is in M, Z[alpha]
lies in M and keeps it. For a, b in S, alpha^(a+b) - 1 =
alpha^a (alpha^b - 1) + (alpha^a - 1) is in dM. For a >= b in S, let
y = alpha^(a-b) - 1, in Z[alpha]; alpha^a - 1 = alpha^b y + (alpha^b - 1) puts
alpha^b y in dM, and alpha^b y - y = y (alpha^b - 1) is y times an element of
dM, so y is in dM and a - b is in S. So S is r N for r its least positive
element, or r = 0 when S = {0}, and d | d_k exactly when r | k. Then d
divides both d_m and d_n exactly when r divides m and n, that is gcd(m, n),
that is when d | d_gcd(m,n); two nonnegative integers with the same divisors
are equal. In particular d_1 divides every d_k, the floor that
dk_level_scan's levels d_k = d_1 sit on.

Half-index lemma. Let beta^2 - T beta + 1 = 0 with |T| > 2, so beta is no
root of unity, and let M be a lattice with 1 in M and beta M = M, which is
dk_sequence's unimodular test; d_k is the content of beta^k - 1 over M. Let
U = (0, 1, |T|, ...) and m = (1, |T + 1|, ...), both under
s(j + 2) = |T| s(j + 1) - s(j). Then d_2j = U(j) d_2 and d_(2j+1) = m(j) d_1.
Proof. Let U'(j) and m'(j) follow s(j + 2) = T s(j + 1) - s(j) from (0, 1) and
(1, T + 1). beta and 1/beta are the roots of X^2 - T X + 1, so in j each of
beta^j - beta^-j and z(j) = beta^(j+1) - beta^-j follows that recurrence; they
agree with U'(j) (beta - 1/beta) and m'(j) (beta - 1) at j = 0 and 1, since
z(1) = beta^2 - 1/beta = (T beta - 1) - (T - beta) = (T + 1)(beta - 1), and so
at every j. Hence beta^2j - 1 = beta^(j-1) U'(j) (beta^2 - 1) and
beta^(2j+1) - 1 = beta^j m'(j) (beta - 1). Multiplying by beta^i keeps
content, since its matrix over M is in GL(M), and content(n y) = |n| content(y)
for an integer n. At T > 2, U' = U and m' = m. At T < -2, U'(j) = (-1)^(j+1) U(j)
and m'(j) = (-1)^j m(j), both sides following the same recurrence from the same
two terms. Every U(j) and m(j) is nonnegative: with |T| > 2 each sequence
increases from its first term. So the column (0, d_1, d_2, ...) follows
X^4 - |T| X^2 + 1 from the head (0, d_1, d_2, |T + 1| d_1), and T's own
recurrence d_(k+4) = T d_(k+2) - d_k holds through kmax exactly when T > 0 or
kmax <= 4: at T < 0 it gives d_5 = T d_3 - d_1 < 0.
dk_sequence applies it to beta = alpha when mp(alpha) = X^2 - T X + 1, and to
beta = alpha^2 when mp(alpha) = X^4 - T X^2 + 1 with x1(1) = x1(3) = 0: then
the odd d_k are 1 by the vanishing lemma, and d_2j(alpha) = d_j(alpha^2). Both
take two gcds and no coordinate stream.

The module also hosts the order-4 recurrence check of d_k that no lemma gave,
and the change of basis matching d_k/d_1 with a first coordinate sequence:
match_dk_basis reads the half-index lemma's head, d_1 times the
coordseq.lds_targets entry of X^4 - |T| X^2 + 1 at b = d_2/d_1, and the basis
comes from basisforge.lds_basis of that entry, so the lemma proves the match
at every k. The recurrence report of d_k is one column, the d_k list itself.
It hosts the vanishing scan for lacunary minimal polynomials too, and
power-basis discriminants, as +-N(f'(alpha)) for the defining polynomial f.
Their results, DkSequence, DkMatchReport and the sparse scan's report, are
collections.namedtuple records; the scan's report holds its rows as columns.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain, compress, count, islice, repeat, zip_longest
from operator import eq, sub
from typing import Iterable, Iterator, Sequence

from .basisforge import lds_basis
from .coordseq import SequenceReport, generate, recurrence_terms, verify_recurrence
from .numberfield import FieldElement, ModuleBasis, NumberField, min_poly, norm


class CheckRefused(Exception):
    """The requested check does not apply to this input (refused, not failed)."""


class DkSequence(namedtuple("DkSequence", "terms t_trace head step", defaults=(None, 1))):
    """d_1, d_2, ... for a fixed alpha over a fixed ring basis.

    t_trace is filled when alpha is a quadratic unit of norm 1, the case whose
    d_k satisfies d_{k+4} = T d_{k+2} - d_k at T > 0. head is filled when the
    half-index lemma gave the terms: its one column, from (0, d_s, d_2s, d_3s)
    for s = step, is d_(s j) under its charpoly X^4 - |T| X^2 + 1, and every
    other d_k is 1. At step 1 the column is d_1 times a coordseq.lds_targets
    entry of that charpoly, the head match_dk_basis reads.
    """

    __slots__ = ()
    # terms: list[int], terms[i] = d_{i+1}
    # t_trace: int | None
    # head: SequenceReport | None, four terms of one column
    # step: int, 1 or 2

    def dk(self, k: int) -> int:
        if not 1 <= k <= len(self.terms):
            raise IndexError(f"d_{k} not computed (have 1..{len(self.terms)})")
        return self.terms[k - 1]


def _norm_one_trace(mp: Sequence[Fraction]) -> int | None:
    """T when mp, a minimal polynomial, is X^2 - T X + 1 with T integral, else None."""
    return -int(mp[1]) if len(mp) == 3 and mp[0] == 1 and mp[1].denominator == 1 else None


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
    num, den = ringbasis.int_coords(alpha**k)
    if den != 1:
        raise ValueError(_non_integral(k))
    return math.gcd(num[0] - 1, *num[1:])


def _half_index(
    alpha: FieldElement, ringbasis: ModuleBasis, mp: Sequence[Fraction], kmax: int, step: int
) -> DkSequence | None:
    """d_1 .. d_kmax by the half-index lemma, for an alpha that keeps the ring; None outside it.

    Step s = 1 for mp = X^2 - T X + 1, and s = 2 for mp = X^4 - T X^2 + 1 whose
    vanishing head x1(1) = x1(3) = 0 the caller has read, so that the odd d_k
    are 1. The lemma is applied to beta = alpha^s, whose d_1 and d_2 are one
    dk() each. None for any other mp, and for |T| <= 2, where alpha is torsion.
    """
    t = _norm_one_trace(mp[::step])
    if t is None or abs(t) <= 2:
        return None
    beta = alpha**step
    d1, d2 = dk(beta, ringbasis, 1), dk(beta, ringbasis, 2)
    column, charpoly = [0, d1, d2, abs(t + 1) * d1], (1, 0, -abs(t), 0, 1)
    terms = [1] * kmax
    terms[step - 1 :: step] = islice(recurrence_terms(charpoly, column), 1, kmax // step + 1)
    return DkSequence(terms, _norm_one_trace(mp), SequenceReport([column], charpoly), step)


def dk_sequence(alpha: FieldElement, ringbasis: ModuleBasis, kmax: int) -> DkSequence:
    """d_1 .. d_kmax, from the half-index lemma's head or as gcds of coordinate columns.

    d_k = content(x(k) - e1) for x(k) the coordinates of alpha^k over the
    ring basis. When the matrix M of alpha is in GL_n(Z) and mp(alpha) is
    X^2 - T X + 1, or X^4 - T X^2 + 1 with a vanishing head, and |T| > 2, the
    half-index lemma of the module docstring gives every term as an int of
    coordseq.recurrence_terms from a head of two gcds, and every odd d_k of
    the quartic is 1 by the vanishing lemma.

    Otherwise, with M in GL_n(Z), M^-j keeps content, so
    d_k = content(x(k - j) - y(j)) with y(j) the coordinates of alpha^-j;
    taking j = k // 2 runs both columns only to ceil(kmax/2), and every gcd is
    on numbers of half the digits. The odd k and the even k are then two
    streams of math.gcd over map(operator.sub, ...) of the columns, interleaved
    into the one list of terms. Torsion still gives 0, since x(k - j) = y(j)
    exactly when alpha^k = 1. Otherwise j = 0: one stream against e1, and the
    first non-integral x(k) raises ValueError for its k. Both columns come from
    coordseq.generate under mp(alpha) and its reverse, so min_poly runs once.

    The vanishing lemma's head is tested once, before either path: with M in
    GL_n(Z) and mp(alpha) = g(X^2), x1(1), x1(3), ..., x1(d - 1), d = deg mp,
    are read off those powers of alpha in the field. When they are all 0,
    d_k = 1 at every odd k: the half-index lemma runs at step 2, and the gcd
    path's odd stream is that many 1s, with no gcd. Otherwise the half-index
    lemma runs at step 1 and the odd stream takes its gcds.
    """
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    _check_ring_basis(ringbasis)
    mp = min_poly(alpha)
    # an integral M has det N(alpha) = +-mp[0]^(n/deg), so M is in GL_n(Z)
    # exactly when alpha keeps the ring and mp[0] = +-1
    unimodular = abs(mp[0]) == 1 and all(
        ringbasis.int_coords(alpha * v)[1] == 1 for v in ringbasis.vectors
    )
    # the vanishing lemma's head, for mp = g(X^2): x1(1), x1(3), ..., x1(deg mp - 1) are 0
    vanish = unimodular and not any(mp[1::2]) and not any(
        ringbasis.int_coords(alpha**k)[0][0] for k in range(1, len(mp) - 1, 2)
    )
    if unimodular and (seq := _half_index(alpha, ringbasis, mp, kmax, 2 if vanish else 1)):
        return seq
    half = kmax // 2 if unimodular else 0
    one = ringbasis.field.one
    if all(c.denominator == 1 for c in mp):
        xs = generate(one, alpha, ringbasis, kmax - half, _non_integral, tuple(map(int, mp))).terms
    else:
        # no integer recurrence: every row comes from field products, so a
        # non-integral row past the degree of mp is still found
        rows = ringbasis.power_rows(one, alpha, kmax + 1, _non_integral)
        xs = list(zip(*rows))

    def contents(ys: Sequence[Iterable[int]], shift: int) -> Iterator[int]:
        # content(x(j + 1) - y(j + shift)) for j = 0, 1, ..., one C-level stream
        diffs = [map(sub, islice(x, 1, None), islice(y, shift, None)) for x, y in zip(xs, ys)]
        return map(math.gcd, *diffs)

    if unimodular:
        # alpha^-1 is a root of X^d mp(1/X) / mp[0], and mp[0] = +-1
        reverse = tuple(int(c * mp[0]) for c in reversed(mp))
        ys = generate(one, alpha.inverse(), ringbasis, half, _non_integral, reverse).terms
        # d_(2j+1) from x(j + 1) - y(j) and d_(2j) from x(j) - y(j); at an odd kmax
        # the odd stream has the one more term, and the pad of zip_longest is popped
        odd = repeat(1, min(len(xs[0]) - 1, len(ys[0]))) if vanish else contents(ys, 0)
        terms = list(chain.from_iterable(zip_longest(odd, contents(ys, 1))))
        if kmax % 2:
            terms.pop()
    else:
        terms = list(contents([repeat(int(i == 0)) for i in range(len(xs))], 0))
    return DkSequence(terms=terms, t_trace=_norm_one_trace(mp))


def recurrence_report(seq: DkSequence) -> SequenceReport:
    """d_1, d_2, ... as one column under X^4 - T X^2 + 1: d_{k+4} = T d_{k+2} - d_k.

    The column is seq.terms itself, not a copy. Only a nontorsion quadratic
    unit of norm 1 has this recurrence; anything else is refused rather than
    failed.
    """
    t = seq.t_trace
    if t is None:
        raise CheckRefused("alpha is not a quadratic unit of norm 1")
    if 0 in seq.terms:
        raise CheckRefused("alpha is torsion")
    return SequenceReport(terms=[seq.terms], charpoly=(1, 0, -t, 0, 1))


def dk_recurrence_check(report: SequenceReport) -> bool:
    """Whether every d_{k+4} of a recurrence_report is T d_{k+2} - d_k."""
    # with at most 4 terms there is no k with k + 4 <= kmax
    if report.kmax < 4:
        return True
    return verify_recurrence(report)


class DkMatchReport(namedtuple("DkMatchReport", "head basis")):
    """The half-index lemma's head of d_k, and the basis whose x1 is d_k/d_1.

    head is the DkSequence head: one column (0, d_1, d_2, |T + 1| d_1) under
    its charpoly X^4 - |T| X^2 + 1. basis spans Z[eta] = Z[X]/(X^4 - |T| X^2 + 1)
    in the quartic field of that polynomial, and the first coordinate of
    eta^k over it is d_k/d_1 at every k >= 0; it is None when the polynomial
    is reducible and there is no such field.
    """

    __slots__ = ()
    # head: SequenceReport, four terms of one column
    # basis: ModuleBasis | None


def match_dk_basis(alpha: FieldElement, ringbasis: ModuleBasis) -> DkMatchReport:
    """The basis whose first coordinate sequence is d_k(alpha)/d_1(alpha) at every k.

    d_k is taken over ringbasis (the caller asserts this is the right
    congruence ring). Refused unless dk_sequence gives d_k by the half-index
    lemma at step 1, that is, unless alpha is a nontorsion quadratic unit of
    norm 1 that keeps the ring. d_1 divides the head: d_1 | d_2, as
    alpha = 1 mod d_1, and d_3 = |T + 1| d_1. So head/d_1 is
    (0, 1, b, |T + 1|), the coordseq.lds_targets entry of X^4 - |T| X^2 + 1 at
    b = d_2/d_1. Over the power basis of Z[eta] the powers eta^0..eta^3 have
    the identity for coordinates, so basisforge.lds_basis gives scale 1 and x1
    equal to head/d_1 in rows 0..3; after them x1 and the d_k column follow
    the same recurrence, so x1(k) d_1 = d_k at every k, with no term compared.
    """
    seq = dk_sequence(alpha, ringbasis, 1)
    if seq.head is None or seq.step != 1:
        raise CheckRefused("alpha is not a nontorsion quadratic unit of norm 1 that keeps the ring")
    column = seq.head.terms[0]
    try:
        k4 = NumberField(seq.head.charpoly)
    except ValueError:
        return DkMatchReport(seq.head, None)
    target = [x // column[1] for x in column]
    basis, _ = lds_basis(k4.power_basis(), k4.one, k4.generator, target)
    return DkMatchReport(seq.head, basis)


class SparseScanReport(namedtuple("SparseScanReport", "disc n y1 d_tilde")):
    """The columns of sparse_minpoly_scan, with the discriminant."""

    __slots__ = ()
    # disc: int
    # n: range, the scanned n = 1, 1 + t, ... <= nmax
    # y1, d_tilde: list[int], y1(n) and d~_n for each n

    def all_vanish(self) -> bool:
        return not any(self.y1)


def sparse_minpoly_scan(field: NumberField, t: int, nmax: int) -> SparseScanReport:
    """Scan n in 1 + tZ up to nmax over Z[alpha] for a t-lacunary minimal polynomial.

    Requires f = X^deg - s_1 X^(deg-1) - ... with s_i = 0 for every i outside tZ,
    that is f = g(X^t). For such f and t >= 2 the power coordinate y1(n) of
    alpha^n vanishes on 1 + tZ, by the vanishing lemma of the module
    docstring, which forces the relative d~_n = gcd(y1-1, y2, ...) to 1; at
    t = 1 the lemma says nothing, and over x^4 - 10x^2 + 1 y1(4) is -1. When
    Z[alpha] is the whole ring (monogenic, which the caller asserts), d_n is
    d~_n itself. So at t >= 2 the columns are 0s and 1s, with no power of
    alpha taken. At t = 1 term n - 1 of each column is a coordinate of
    alpha * alpha^(n-1), from coordseq.generate under f. The report holds the
    scan as columns: n is the range of the scanned n, y1 and d_tilde hold one
    term per n.
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
    ns = range(1, nmax + 1, t)
    if t > 1:
        return SparseScanReport(disc, ns, [0] * len(ns), [1] * len(ns))
    alpha, last = field.generator, max(nmax - 1, 0)
    y1, *rest = generate(alpha, alpha, field.power_basis(), last, _non_integral, field.coeffs).terms
    # an empty ns still generates term 0
    del y1[nmax:]
    d_tilde = list(map(math.gcd, map(sub, y1, repeat(1)), *rest))
    return SparseScanReport(disc, ns, y1, d_tilde)


def dk_level_scan(seq: DkSequence) -> list[int]:
    """The k with d_k = d_1 over every term of an already computed sequence. Exploratory only."""
    return list(compress(count(1), map(eq, seq.terms, repeat(seq.dk(1)))))


def discriminant_power_basis(field: NumberField) -> int:
    """disc(1, alpha, ..., alpha^(n-1)) = (-1)^(n(n-1)/2) N(f'(alpha)) for monic f.

    For monic f, Res(f, g) = N(g(alpha)) (Cohen, GTM 138), so the
    discriminant is a norm, and the norm is the one Bareiss determinant.
    """
    f = field.coeffs
    n = field.degree
    fprime = field.element([i * f[i] for i in range(1, n + 1)])
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * int(norm(fprime))
