"""Coordinate sequences of beta * eps^k over a module basis, and their checks.

A sequence is its columns: one list per coordinate x_i, each a linear
recurrence sequence under c = min_poly(eps), as the paper writes a solution
sequence. Every sequence is split in two. sequence_head() takes rows 0..d, d
the degree of c, from field products (ModuleBasis.power_rows, the one routine
for the coordinates of beta * eps^k), and checks row d against the recurrence
of c; that one check certifies the recurrence, and the integrality, of every
later term (the proof is in its docstring). The recurrence gives the rest,
only as far as a caller reads it. recurrence_values() is the one integer
sequence kernel: it yields sum_j s_j x(k - j) for k = d, d+1, ... as a lazy
sum over iterators into x, in which s_j = +1 or -1 is an add or a subtract,
not a multiply. recurrence_terms() is the one loop that appends each value
the kernel yields to the list the kernel reads, so that every later term
comes from the first d, and it makes each term only when a caller reads it.
Every column grows through it: column_terms() gives one column of a head
without end, generate() is the one routine for a whole certified sequence,
each column read from column_terms through kmax, and decimal_columns()
renders every column from the head. The d_k sequences of dkseq are gcds of
such columns; verify_recurrence checks a column that is not one, such as d_k,
term by term. verify_lds() reads a column only as far as its verdict needs,
and finds the primes of each index as it reads it, so its work and memory
follow the terms it reads, and it keeps nothing between calls. It tests only
prime steps (m/p, m), one remainder b(m) mod b(m/p) each (the proof that
these suffice is in its docstring). lds_targets() is the one table of LDS
targets: for a charpoly it gives rows 0..d of each target that applies, the
head of a Lucas sequence (any quadratic charpoly, head (0, 1, P)) or of a
member of the Lehmer family (charpoly X^4 - T X^2 + 1, head
(0, 1, b, T +- 1, T b) for any integer b). The constructions of basisforge
build x1 from its first entry at b = 1, and column_verdict() proves from it:
it is the verdict the commands take for one column of a head, and a column
whose rows 0..d are s times an entry is an LDS by a theorem, decided with no
term read past the head (the proof is in its docstring); every other column
goes to verify_lds, the one scan.

A head whose row d fails its recurrence raises exactlinalg.InvariantViolation,
the package's one type for a failed internal check: min_poly or the field
product is wrong, not the input. Input the sequences cannot take, such as a
negative kmax or an eps that is not integral, raises ValueError.

decimal_columns() renders terms in exact decimal arithmetic: str() of a
large int is quadratic in its digit count, while each recurrence step and
str() of a Decimal are linear. It renders each distinct strand once. When
c(X) = g(X^e), as X^4 - T X^2 + 1 is with e = 2, strand p of a column is its
terms p, p + e, p + 2e, ..., a sequence of g, of order q = d/e. A strand that
is +- another one shifted by at most q terms copies that one's strings; the
first q terms of the two decide it, since two sequences of g that agree on q
consecutive terms agree on every later one (the proof is in its docstring).

SequenceReport and LdsVerdict are collections.namedtuple records: immutable
and compared field by field.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple
from collections.abc import Sized
from decimal import (
    MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation, Rounded, localcontext
)
from typing import Callable, Iterable, Iterator, Sequence

from .exactlinalg import InvariantViolation
from .numberfield import FieldElement, ModuleBasis, min_poly

# exact integer arithmetic in decimal: any rounding raises instead of happening;
# decimal_columns enters a copy of it with localcontext, which gives the caller's
# context back on exit
_EXACT = Context(
    prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded, InvalidOperation]
)


class SequenceReport(namedtuple("SequenceReport", "terms charpoly")):
    """Integer coordinate columns x_i(k) (terms[i - 1][k]) plus their recurrence.

    The columns hold every term of a sequence, as generate() gives them, or
    its first ones, as sequence_head() does.
    """

    __slots__ = ()
    # terms: list[list[int]], one column per coordinate, each through kmax
    # charpoly: tuple[int, ...], ascending, monic; the recurrence all columns satisfy

    @property
    def kmax(self) -> int:
        return len(self.terms[0]) - 1


class LdsVerdict(namedtuple("LdsVerdict", "ok witness", defaults=(None,))):
    """The verdict of verify_lds, and its first failing pair when it fails."""

    __slots__ = ()
    # ok: bool
    # witness: tuple[int, int] | None, the first (n, m) with n | m but b(n) does not divide b(m)


def _outside_module(k: int) -> str:
    return f"non-integral coordinate at k={k}: beta*eps^k is outside the module"


def sequence_head(
    beta: FieldElement,
    eps: FieldElement,
    w: ModuleBasis,
    kmax: int,
    error: Callable[[int], str] = _outside_module,
    charpoly: Sequence[int] | None = None,
) -> SequenceReport:
    """Terms 0..min(kmax, d) of each coordinate of beta * eps^k over w, d = deg min_poly(eps).

    The rows come from field products (w.power_rows), and every one must come
    out integral: a fractional coordinate means beta is not in the module or
    eps does not stabilize it, and raises ValueError(error(k)) for the first
    such k. Row d, when reached, is checked against the recurrence of
    c = min_poly(eps) = X^d - s_1 X^(d-1) - ... - s_d,
    row d = sum_j s_j row(d - j), and that one check certifies every later
    row. The residual x(k) - sum_j s_j x(k - j) is the coordinate vector of
    beta * eps^(k-d) * c(eps); at k = d it is that of beta * c(eps), so for
    beta != 0 the check passes exactly when c(eps) = 0, and then the residual
    is 0 for every k >= d (for beta = 0 every row is 0). Each later row is then
    an integral combination of earlier ones, since c is monic and integral, so
    it is integral too. A failed check raises InvariantViolation: it means
    min_poly or the field product is wrong, not the input. A caller that has
    min_poly(eps) already passes it as charpoly, in ints; the check certifies
    any monic integral c, so no min_poly is taken again.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    if beta.field != w.field or eps.field != w.field:
        raise ValueError("beta, eps and basis must share one field")
    mp = min_poly(eps) if charpoly is None else charpoly
    if any(c.denominator != 1 for c in mp):
        raise ValueError("eps must be an algebraic integer")
    charpoly = tuple(map(int, mp))
    d = len(charpoly) - 1
    columns = list(map(list, zip(*w.power_rows(beta, eps, min(kmax, d) + 1, error))))
    if kmax >= d:
        predicted = [next(recurrence_values(charpoly, column)) for column in columns]
        row = [column[d] for column in columns]
        if predicted != row:
            raise InvariantViolation(
                f"coordinates of beta*eps^{d} are {row}, not {predicted} by the recurrence"
            )
    return SequenceReport(terms=columns, charpoly=tuple(charpoly))


def column_terms(head: SequenceReport, i: int) -> Iterator[int]:
    """Every term of column i (1-indexed) of a head, each built only when it is read.

    Terms 0..d of the head, then the recurrence that its row d certifies,
    without end; a head that stops short of row d, as sequence_head's does for
    a kmax below d, gives its own terms alone. The recurrence runs over terms
    1, 2, ..., so its first value is term d + 1.
    """
    d = len(head.charpoly) - 1
    column = head.terms[i - 1]
    return itertools.chain(column[:1], recurrence_terms(head.charpoly, column[1 : d + 1]))


def generate(
    beta: FieldElement,
    eps: FieldElement,
    w: ModuleBasis,
    kmax: int,
    error: Callable[[int], str] = _outside_module,
    charpoly: Sequence[int] | None = None,
) -> SequenceReport:
    """Exact coordinates of beta * eps^k over w for k = 0..kmax, one column per coordinate.

    The certified head of sequence_head, each column read through
    column_terms; the errors are those of sequence_head, error included.
    """
    head = sequence_head(beta, eps, w, kmax, error, charpoly)
    columns = [
        list(itertools.islice(column_terms(head, i), kmax + 1))
        for i in range(1, len(head.terms) + 1)
    ]
    return SequenceReport(terms=columns, charpoly=head.charpoly)


def recurrence_terms(charpoly: Sequence[int], first: Iterable) -> Iterator:
    """The terms x(0..d-1) of first, then every later term under charpoly, of degree d.

    The one self-feeding loop: each value recurrence_values yields is appended
    to the list it reads before the next is asked for, and only when the
    caller reads it, so reading n terms asks the kernel for max(n - d, 0)
    values. A first of fewer than d terms gives its own terms alone.
    """
    terms = list(first)
    yield from terms
    if len(terms) >= len(charpoly) - 1:
        for value in recurrence_values(charpoly, terms):
            terms.append(value)
            yield value


def recurrence_values(charpoly: Sequence[int], x: Sequence) -> Iterator:
    """sum_j s_j x(k - j) for k = d, d+1, ..., of f = X^d - s_1 X^(d-1) - ... - s_d.

    charpoly is f, monic and ascending. x is read through one iterator per
    nonzero s_j, from x(d - j) on, so a list to which the caller appends each
    value before it asks for the next feeds itself. The s_j not +-1 come
    first, then s_j = 1, then s_j = -1, each group in order of j, so every +-1
    after the first term is an add or a subtract; in X^4 - T X^2 + 1, s_4 is
    -1. The values stop where the first of those iterators ends; all are 0
    when no s_j is nonzero.
    """
    d = len(charpoly) - 1
    terms = sorted(
        (
            (-charpoly[d - j], itertools.islice(x, d - j, None))
            for j in range(1, d + 1)
            if charpoly[d - j]
        ),
        key=lambda term: {1: 1, -1: 2}.get(term[0], 0),
    )
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


def verify_recurrence(report: SequenceReport) -> bool:
    """Whether every column satisfies the report's characteristic recurrence."""
    d = len(report.charpoly) - 1
    if report.kmax < d:
        raise ValueError("not enough terms to test the recurrence")
    for column in report.terms:
        # the column first: map stops at its end before asking for another value
        if not all(map(operator.eq, column[d:], recurrence_values(report.charpoly, column))):
            return False
    return True


def _shift(x: Sequence, y: Sequence, q: int) -> tuple[int, int] | None:
    """The first (o, s), o in 0..q and s = +-1, with x(m) = s * y(m + o) for every m < q."""
    return next(
        ((o, s) for o in range(q + 1) for s in (1, -1) if x[:q] == [s * v for v in y[o : o + q]]),
        None,
    )


def _negated(text: str) -> str:
    """The decimal text of -x from that of x."""
    if text[0] == "-":
        return text[1:]
    return text if text == "0" else "-" + text


def decimal_columns(head: SequenceReport, kmax: int) -> list[list[str]]:
    """Terms 0..kmax of each column as decimal strings, in time linear in their digit count.

    head holds terms 0..min(kmax, d - 1) of each column at least, d the degree of
    its charpoly c, of a sequence whose every column satisfies that recurrence
    for k >= d: the head of sequence_head, whose checked row d proves it, a
    report checked in full by verify_recurrence, or a head whose recurrence a
    lemma proves, as dkseq's half-index lemma does. Only terms 0..d - 1 are
    read.

    Let e be the largest divisor of d with c(X) = g(X^e), and q = d/e; e = 2
    for X^4 - T X^2 + 1 and e = 1 for X^2 - P X + Q with P != 0. Strand p < e
    of a column is its terms p, p + e, p + 2e, ...: the recurrence of c links
    only terms whose indices differ by a multiple of e, so each strand y(m)
    satisfies the recurrence of g, of order q, for m >= q. Strands fall into
    classes, each rendered once from its base:
    - a strand y whose first q terms are s * z(o..o + q - 1), for the base z
      of a class, an offset o in 0..q and s = +-1, joins the class and reads
      the base's strings from offset o; the joins are tried first, on the q
      head terms of y alone;
    - when y joins no class but z(0..q - 1) is s * y(o..o + q - 1) for some
      class, y is taken on to 2q terms and becomes the base, and each member
      at offset o' and sign s' moves to o' + o and s' * s;
    - any other strand is taken on to 2q terms as the base of a new class,
      and so is a strand of fewer than q terms (only when kmax < d - 1), which
      is never compared.
    Over a quartic-power basis x1's even strand is x2's odd one. A base's
    first q terms are taken from the head as Decimals, and every later one,
    through the furthest term a member reads, comes from the recurrence of g
    in exact decimal arithmetic; a member with s = -1 negates the strings by
    a string edit.

    Proof that each string is str() of its term. Two sequences that satisfy
    the recurrence of g for m >= q and agree for m < q agree for every m, by
    induction on m. y(m) and s * z(m + o) are two such sequences, and so are
    the base and its decimal terms, whose str() is that of the int (bar -0,
    which is mended). The check starts at index 0 of the strand that is
    ahead, so no step before index 0 of either is needed, and g need not be
    invertible.
    """
    c = head.charpoly
    d = len(c) - 1
    e = max(e for e in range(1, d + 1) if d % e == 0 and not any(c[i] for i in range(d) if i % e))
    g, q = c[::e], d // e
    columns = [[""] * (kmax + 1) for _ in head.terms]
    # (first 2q terms of the base, the generator of its later ones, members (i, p, o, s))
    classes: list[tuple[list, Iterator, list[tuple[int, int, int, int]]]] = []
    with localcontext(_EXACT):
        for i, column in enumerate(head.terms):
            for p in range(e):
                values = recurrence_terms(g, map(Decimal, column[p : min(kmax + 1, d) : e]))
                strand = list(itertools.islice(values, q))
                for base, _, members in classes if len(strand) == q else ():
                    if joined := _shift(strand, base, q):
                        members.append((i, p, *joined))
                        break
                else:
                    strand += itertools.islice(values, q)
                    for j, (base, _, members) in enumerate(classes if len(strand) == 2 * q else ()):
                        if rebased := _shift(base, strand, q):
                            o, s = rebased
                            moved = [(a, b, o + n, s * t) for a, b, n, t in members]
                            classes[j] = strand, values, [(i, p, 0, 1), *moved]
                            break
                    else:
                        classes.append((strand, values, [(i, p, 0, 1)]))
        del values
        while classes:
            # each base's decimal terms are freed once its strings are written
            base, rest, members = classes.pop()
            counts = [len(range(p, kmax + 1, e)) for _, p, _, _ in members]
            reach = max(o + n for (_, _, o, _), n in zip(members, counts))
            text = list(map(str, itertools.islice(itertools.chain(base, rest), reach)))
            # the product of 0 and a negative s_j is -0, the one decimal value
            # whose text is not str() of its int
            if "-0" in text:
                text = ["0" if x == "-0" else x for x in text]
            for (i, p, o, s), n in zip(members, counts):
                part = text[o : o + n]
                columns[i][p::e] = part if s == 1 else map(_negated, part)
    return columns


def divides(a: int, b: int) -> bool:
    """Divisibility over Z with the convention that 0 divides only 0."""
    if a == 0:
        return b == 0
    return b % a == 0


def verify_lds(column: Iterable[int], nmax: int) -> LdsVerdict:
    """First failing pair n | m with 1 <= n < m <= nmax; the index is the position.

    column yields b(0), b(1), ... and is read only as far as the verdict
    needs: through the witness's m, or through nmax when every pair holds. The
    witness is the pair met first when m runs upward and, for each m, n runs
    upward over the divisors of m. Divisibility is transitive (0 divides only
    0), so while every pair below m holds, m has a failing divisor exactly
    when some prime step (m/p, m) fails: only prime steps are tested until that
    m, one remainder b(m) mod b(m/p) each, and then the divisors of m in turn
    for the witness. The primes of m are found as m is read: each prime met so
    far waits at its next multiple, so m finds there exactly its distinct
    primes, and an m > 1 that finds none is prime and waits at 2m. A column
    that ends before index nmax raises ValueError, a sized one before any pair
    is tested.
    """
    if isinstance(column, Sized) and len(column) <= nmax:
        raise ValueError(f"need terms through index {nmax}, got {len(column)}")
    terms: list[int] = []
    # the primes met so far, each in the list of its next multiple
    waiting: dict[int, list[int]] = {}
    for m, term in enumerate(itertools.islice(column, max(nmax + 1, 0))):
        terms.append(term)
        primes = waiting.pop(m, None) or ([m] if m > 1 else [])
        for p in primes:
            if not divides(terms[m // p], term):
                n = next(n for n in range(1, m) if m % n == 0 and not divides(terms[n], term))
                return LdsVerdict(False, (n, m))
            waiting.setdefault(m + p, []).append(p)
    if len(terms) <= nmax:
        raise ValueError(f"need terms through index {nmax}, got {len(terms)}")
    return LdsVerdict(True, None)


def lds_targets(charpoly: Sequence[int], b: int = 1) -> list[tuple[int, ...]]:
    """Rows 0..d of each LDS target under charpoly, of degree d; none for any other.

    The one table of targets, read by the prover and the builders alike:
    column_verdict proves a column whose rows are s times an entry (the
    targets, and the theorem behind them, are in its docstring), and each
    construction of basisforge takes v = entry[:d] of the first entry at
    b = 1, whose row d is T: the trace P of a Lucas target, the T of a
    Lehmer charpoly. A Lehmer family target has x(2) = b; a Lucas target does
    not read b.
    """
    if len(charpoly) == 3:
        return [(0, 1, -charpoly[1])]
    if len(charpoly) == 5 and (charpoly[0], charpoly[1], charpoly[3], charpoly[4]) == (1, 0, 0, 1):
        t = -charpoly[2]
        return [(0, 1, b, t + 1, t * b), (0, 1, b, t - 1, t * b)]
    return []


def column_verdict(head: SequenceReport, i: int, nmax: int) -> LdsVerdict:
    """verify_lds(column_terms(head, i), nmax), decided from the head when a theorem gives it.

    Column i (1-indexed) is proved, LdsVerdict(True, None) with no term read
    past the head, when its rows 0..d are s times those of a target v below,
    for an integer s (0 and negative included); the targets are the entries
    of lds_targets, the table the constructions of basisforge build from.
    Every other column goes to verify_lds unchanged.
    - Lucas: charpoly X^2 - P X + Q, any integers P and Q; v = (0, 1, P), the
      rows of U_n(P, Q).
    - Lehmer family: charpoly exactly X^4 - T X^2 + 1; v = (0, 1, b, T + 1, T b)
      or (0, 1, b, T - 1, T b), any integer b. At b = 1 these are the rows of
      the Lehmer numbers of (R, Q) = (T + 2, 1) or (T - 2, -1). b is x(2)/s,
      taken as the floor x(2) // s: when s does not divide x(2), s b is not
      x(2) and no v matches; s = 0 takes b = 0, and matches only a zero head.

    Proof. column_terms gives x(0), then the recurrence run from x(1..d), so
    rows 0..d equal to s v make the whole column s times the target (on a
    head of sequence_head, row d is the row its check certified). Take
    indeterminates P, Q, R and the roots y, z of X^2 - P X + Q, or of
    X^2 - r X + Q with r^2 = R. U_n = (y^n - z^n)/(y - z), and Lehmer's L_n is
    (y^n - z^n)/(y - z) for odd n and (y^n - z^n)/(y^2 - z^2) for even n. Let
    n | m, k = m/n, A = y^n and B = z^n. Then U_m/U_n = G = (A^k - B^k)/(A - B)
    = sum_{j<k} A^(k-1-j) B^j, and L_m/L_n = G when n and m have one parity.
    For odd n and even m, L_m/L_n = G/(y + z) is (A^k - B^k)/(A^2 - B^2), a
    polynomial as k is even, times Lehmer's parity factor
    (A + B)/(y + z) = sum_{j<n} (-1)^j y^(n-1-j) z^j.
    Each quotient, and each U_n and L_n, is thus a polynomial with integer
    coefficients in y and z, symmetric, and for Lehmer unchanged by
    (y, z) -> (-y, -z), so an integer polynomial in P and Q, or in R = r^2 and
    Q. So U_n divides U_m, and L_n divides L_m, as polynomials. The
    recurrences (U_{n+2} = P U_{n+1} - Q U_n, and L_{n+4} = (R - 2Q) L_{n+2}
    - Q^2 L_n since (X^2 - y^2)(X^2 - z^2) = X^4 - (R - 2Q) X^2 + Q^2) and the
    rows (0, 1, P) and (0, 1, 1, R - Q, R - 2Q) are polynomial identities too.
    Every identity survives substituting integers: every P and Q, Q = 0 and
    P^2 = 4Q included, and R = T + 2, Q = 1 or R = T - 2, Q = -1 for every T.
    So U and L are LDSs, with 0 dividing only 0: U_n = 0 forces
    U_m = U_n (U_m/U_n) = 0, and L_n likewise.
    The recurrence of X^4 - T X^2 + 1, x(n + 4) = T x(n + 2) - x(n), links
    only terms of one parity, so the target of x(2) = b is x(n) = L_n at odd n
    and b L_n at even n: its rows 1 and 3 are those of L, and rows 0, 2 and 4
    are b times them. Let n | m, and c the integer value of the polynomial
    L_m/L_n, so L_m = c L_n. When n and m have one parity, x(m) = c x(n). When
    n is odd and m even, x(m) = b c x(n) (the parity-factor case above); an
    even n has only even multiples. So x(n) divides x(m), 0 dividing only 0:
    x(n) = 0 forces x(m) = 0, and b = 0, which zeroes the even terms alone,
    needs no case of its own. So every target is an LDS, and s times an LDS
    is one.

    A head shorter than d + 1 rows, as sequence_head gives for a kmax below d
    (family-scan --kmax 3 over a quartic), certifies no recurrence, and
    column_terms gives its own terms alone. Its column is proved only when
    nmax is below its length and its rows are those of s v: verify_lds would
    read just those rows, a prefix of an LDS. Otherwise verify_lds reads it,
    and raises ValueError for an nmax at or past its end.
    """
    d = len(head.charpoly) - 1
    rows = head.terms[i - 1][: d + 1]
    s = rows[1] if len(rows) > 1 else 0
    b = rows[2] // s if s and len(rows) > 2 else 0
    if len(rows) > min(nmax, d) and any(
        rows == [s * v for v in target[: len(rows)]] for target in lds_targets(head.charpoly, b)
    ):
        return LdsVerdict(True, None)
    return verify_lds(column_terms(head, i), nmax)
