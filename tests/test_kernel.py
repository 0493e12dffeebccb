"""The integer sequence kernel, the checks and the decimal rendering against their oracles.

The oracles are the loops the kernel replaced: one Fraction field multiply and
one Fraction coordinate solve per term, the all-pairs divisor scan, the
termwise recurrence loop over every column, and str() of every term.
"""

import decimal
import gc
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from normlds import coordseq
from normlds.coordseq import (
    SequenceReport,
    column_terms,
    column_verdict,
    decimal_columns,
    divides,
    generate,
    recurrence_values,
    sequence_head,
    verify_lds,
    verify_recurrence,
)
from normlds.dkseq import dk, dk_recurrence_check, dk_sequence, sparse_minpoly_scan
from normlds.basisforge import quartic_module_construct
from normlds.numberfield import ModuleBasis, NumberField, min_poly
from oracles import dk_ints, fraction_columns, fraction_rows, outside_module, scan_rows

QUADRATICS = [(-2, 0, 1), (-3, 0, 1), (-5, 0, 1), (1, 0, 1), (-1, -1, 1), (-7, 0, 1)]
QUARTICS = [(1, 0, -10, 0, 1), (1, 0, -4, 0, 1), (-2, 0, 0, 0, 1), (1, 0, 0, 0, 1), (1, 0, -5, 0, 1)]
FIELDS = [NumberField(f) for f in QUADRATICS + QUARTICS]


def pairwise_lds(column, nmax):
    """Every pair n | m, m upward and then n upward: the scan verify_lds replaced."""
    for m in range(2, nmax + 1):
        for n in range(1, m):
            if m % n == 0 and not divides(column[n], column[m]):
                return False, (n, m)
    return True, None


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


@st.composite
def integral_elements(draw, field, bound=3):
    return field.element([draw(st.integers(-bound, bound)) for _ in range(field.degree)])


@st.composite
def rational_elements(draw, field):
    den = draw(st.sampled_from([1, 1, 2, 3]))
    return field.element([Fraction(draw(st.integers(-4, 4)), den) for _ in range(field.degree)])


@st.composite
def module_elements(draw, basis):
    return basis.combine([draw(st.integers(-3, 3)) for _ in basis.vectors])


@st.composite
def bases(draw, field, ring=False):
    """Random Q-bases; with ring=True the first vector is 1, as d_k requires."""
    n = field.degree
    vectors = [field.one] if ring else []
    while len(vectors) < n:
        den = draw(st.sampled_from([1, 1, 2, 3]))
        coords = [Fraction(draw(st.integers(-3, 3)), den) for _ in range(n)]
        vectors.append(field.element(coords))
    try:
        return ModuleBasis(field, tuple(vectors))
    except ValueError:
        assume(False)


@st.composite
def kernel_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    basis = draw(st.one_of(st.just(field.power_basis()), bases(field)))
    beta = draw(st.one_of(module_elements(basis), integral_elements(field), rational_elements(field)))
    eps = draw(integral_elements(field))
    return beta, eps, basis, draw(st.integers(0, 12))


class TestCoordinateRows:
    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_rows_and_errors_match_fraction_oracle(self, case):
        beta, eps, basis, kmax = case
        want = outcome(fraction_columns, beta, eps, basis, kmax)
        got = outcome(lambda *a: generate(*a).terms, beta, eps, basis, kmax)
        assert got == want

    def test_error_after_integral_rows(self):
        k4 = NumberField((1, 0, -10, 0, 1))
        t = k4.generator
        basis = ModuleBasis(k4, (k4.one, t, (t * t).scale(2), t * t * t))
        with pytest.raises(ValueError, match=r"^non-integral coordinate at k=2: "):
            generate(k4.one, t, basis, 6)
        assert fraction_columns(k4.one, t, basis, 1) == generate(k4.one, t, basis, 1).terms

    def test_no_row_past_kmax_is_computed(self):
        # row 2 is not integral, so asking for rows 0..1 must not fail
        k4 = NumberField((1, 0, -10, 0, 1))
        t = k4.generator
        basis = ModuleBasis(k4, (k4.one, t, (t * t).scale(2), t * t * t))
        assert generate(k4.one, t, basis, 1).terms == [[1, 0], [0, 1], [0, 0], [0, 0]]

    def test_field_mismatch(self):
        other = NumberField((-3, 0, 1))
        with pytest.raises(ValueError, match="different field"):
            FIELDS[0].power_basis().power_rows(other.one, other.generator, 3, str)

    @given(kernel_cases())
    @settings(max_examples=100, deadline=None)
    def test_power_rows_match_fraction_oracle(self, case):
        beta, eps, basis, kmax = case
        want = outcome(fraction_rows, beta, eps, basis, kmax)
        got = outcome(lambda *a: list(map(list, basis.power_rows(*a))), beta, eps, kmax + 1,
                      outside_module)
        assert got == want

    def test_no_row_or_column_is_shared(self):
        # a caller may overwrite any row or column it is given
        k4 = NumberField((-2, 0, 0, 0, 1))
        beta, eps = k4.one, k4.element([1, 1, -1, 1])
        expected = fraction_columns(beta, eps, k4.power_basis(), 11)
        columns = generate(beta, eps, k4.power_basis(), 11).terms
        assert columns == expected and len({id(column) for column in columns}) == 4
        for column in columns:
            column[:] = [7] * 12
        head = sequence_head(beta, eps, k4.power_basis(), 11)
        for kmax in (2, 11):
            column = list(itertools.islice(column_terms(head, 1), kmax + 1))
            column[:] = [7] * len(column)
            assert list(itertools.islice(column_terms(head, 1), kmax + 1)) == expected[0][: kmax + 1]
        assert head.terms == [column[:5] for column in expected]


@st.composite
def dk_cases(draw):
    field = draw(st.sampled_from(FIELDS))
    ring = draw(st.one_of(st.just(field.power_basis()), bases(field, ring=True)))
    alpha = draw(st.one_of(module_elements(ring), integral_elements(field), rational_elements(field)))
    return alpha, ring, draw(st.integers(1, 10))


def dk_terms(alpha, ring, kmax):
    return [dk(alpha, ring, k) for k in range(1, kmax + 1)]


def full_length_dk(alpha, ring, kmax):
    """gcd(x(k) - e1) on the full rows x(k) of alpha^k: the loop the half-power kernel replaced."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    rows = fraction_rows(
        ring.field.one, alpha, ring, kmax,
        lambda k: f"alpha^{k} has non-integral coordinates over the ring basis",
    )
    return [math.gcd(x[0] - 1, *x[1:]) for x in rows[1:]]


def _ring(field, *vectors):
    return ModuleBasis(field, tuple(field.element(v) for v in vectors))


K2_3, K2_2, K2_5, K2_6 = (NumberField(f) for f in [(-3, 0, 1), (-2, 0, 1), (-5, 0, 1), (-6, 0, 1)])
K4_10, K4_2 = NumberField((1, 0, -10, 0, 1)), NumberField((-2, 0, 0, 0, 1))
K2_i, K2_17 = NumberField((1, 0, 1)), NumberField((-17, 0, 1))
HALF = Fraction(1, 2)
# (alpha, ring basis) pairs for the half-power kernel and beside it
DK_SPECIAL = [
    (K2_3.element([2, 1]), K2_3.power_basis()),  # 2 + sqrt 3, norm 1
    (K2_6.element([5, 2]), K2_6.power_basis()),  # n + 2t in x^2 - (n^2 - 1)/4, norm 1
    (K2_2.element([1, 1]), K2_2.power_basis()),  # 1 + sqrt 2, norm -1
    (K4_10.generator, K4_10.power_basis()),  # sqrt 2 + sqrt 3, norm 1
    (K4_2.element([1, 1, 0, 0]), K4_2.power_basis()),  # 1 + 2^(1/4), norm -1
    # the golden ratio over its ring {1, (1 + t)/2}: norm -1
    (K2_5.element([HALF, HALF]), _ring(K2_5, [1, 0], [HALF, HALF])),
    (K2_5.element([HALF, HALF]), K2_5.power_basis()),  # not integral over Z[sqrt 5]: fails at k = 1
    (K2_3.element([7, 4]), _ring(K2_3, [1, 0], [0, 2])),  # (2 + t)^2 over Z[2 sqrt 3]: unimodular
    # a unit whose step matrix has a denominator
    (K2_3.element([2, 1]), _ring(K2_3, [1, 0], [0, 2])),
    # a unit whose powers are integral up to k = 1 and not at k = 2
    (K4_10.generator, _ring(K4_10, [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1])),
    (K2_3.element([1, 1]), K2_3.power_basis()),  # norm -2: not a unit
    (K4_10.element([1, 1, 0, 0]), K4_10.power_basis()),  # norm -8
    (K2_3.element([-1, 0]), K2_3.power_basis()),  # torsion of order 2
    (K2_i.generator, K2_i.power_basis()),  # i: torsion of order 4
    (K2_3.one, K2_3.power_basis()),  # d_k = 0 for every k
    (K2_3.from_int(0), K2_3.power_basis()),
    # a unit whose powers are all integral although alpha * t/2 is not: M is not in GL_n(Z)
    (K2_3.element([2, 1]), _ring(K2_3, [1, 0], [0, HALF])),
    # not integral: its rows are integral through k = 2 = d and not at k = 3
    (K2_17.element([Fraction(1, 4), Fraction(1, 4)]), _ring(K2_17, [1, 0], [Fraction(1, 8)] * 2)),
]


@st.composite
def dk_special_cases(draw):
    """Powers and negatives of DK_SPECIAL: units of both norm signs, non-units, torsion, errors."""
    alpha, ring = draw(st.sampled_from(DK_SPECIAL))
    e = draw(st.integers(1, 3))
    power = alpha**e
    if draw(st.booleans()):
        power = -power
    return power, ring, draw(st.integers(1, 40))


class TestDkSequence:
    @given(dk_cases())
    @settings(max_examples=300, deadline=None)
    def test_terms_and_errors_match_single_term_dk(self, case):
        alpha, ring, kmax = case
        want = outcome(dk_terms, alpha, ring, kmax)
        got = outcome(lambda *a: dk_ints(dk_sequence(*a)), alpha, ring, kmax)
        assert got == want

    @given(st.one_of(dk_special_cases(), dk_cases()))
    @settings(max_examples=400, deadline=None)
    def test_terms_and_errors_match_full_length_gcd(self, case):
        alpha, ring, kmax = case
        want = outcome(full_length_dk, alpha, ring, kmax)
        got = outcome(lambda *a: dk_ints(dk_sequence(*a)), alpha, ring, kmax)
        assert got == want

    @pytest.mark.parametrize("alpha, ring", DK_SPECIAL)
    def test_special_cases_at_every_short_kmax(self, alpha, ring):
        # a short kmax is where an error past the half-way row must still be raised
        for kmax in [*range(1, 13), 60]:
            got = outcome(lambda *a: dk_ints(dk_sequence(*a)), alpha, ring, kmax)
            assert got == outcome(full_length_dk, alpha, ring, kmax)

    def test_error_index(self):
        k4 = NumberField((1, 0, -10, 0, 1))
        t = k4.generator
        ring = ModuleBasis(k4, (k4.one, t, (t * t).scale(2), t * t * t))
        with pytest.raises(ValueError, match=r"^alpha\^2 has non-integral coordinates"):
            dk_sequence(t, ring, 6)


def sparse_rows_oracle(field, t, nmax):
    rows = []
    pb = field.power_basis()
    power = field.generator
    for n in range(1, nmax + 1):
        coords = [int(c) for c in pb.coords(power)]
        if n % t == 1 or t == 1:
            d_tilde = math.gcd(coords[0] - 1, *coords[1:])
            rows.append((n, coords[0], d_tilde))
        power = power * field.generator
    return rows


def termwise_dk_recurrence(terms, t):
    """d_{k+4} = T d_{k+2} - d_k for terms[i] = d_{i+1}: the loop dk_recurrence_check replaced."""
    for k in range(1, len(terms) - 3):
        if terms[k + 3] != t * terms[k + 1] - terms[k - 1]:
            return False
    return True


def trace(alpha):
    """T of a quadratic alpha, mp(alpha) = X^2 - T X + N(alpha)."""
    return -int(min_poly(alpha)[1])


# nontorsion quadratic units of norm 1, so that the recurrence check applies
DK_NORM_ONE = [(alpha, ring) for alpha, ring in DK_SPECIAL[:2] + DK_SPECIAL[7:8]]


class TestDkRecurrenceCheck:
    @given(st.sampled_from(DK_NORM_ONE), st.integers(1, 3), st.booleans(), st.integers(1, 40),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_verdict_matches_termwise_loop(self, case, e, negate, kmax, data):
        alpha, ring = case
        power = -(alpha**e) if negate else alpha**e
        t, terms = trace(power), dk_ints(dk_sequence(power, ring, kmax))
        holds = termwise_dk_recurrence(terms, t)
        assert dk_recurrence_check(terms, t) is holds
        # one term raised (a gcd stays positive, so no term becomes 0 and reads as
        # torsion): from kmax = 6 on, every term is read
        i = data.draw(st.integers(0, kmax - 1))
        terms[i] += data.draw(st.integers(1, 3))
        want = termwise_dk_recurrence(terms, t)
        if holds and kmax >= 6:
            assert want is False
        assert dk_recurrence_check(terms, t) is want

    @pytest.mark.parametrize("kmax", [6, 7, 40])
    def test_every_raised_term_through_kmax_fails(self, kmax):
        alpha, ring = DK_SPECIAL[0]
        for i in range(kmax):
            terms = dk_ints(dk_sequence(alpha, ring, kmax))
            terms[i] += 1
            assert dk_recurrence_check(terms, 4) is termwise_dk_recurrence(terms, 4) is False

    def test_short_sequences_and_alphas_with_no_verdict(self):
        alpha, ring = DK_SPECIAL[0]
        terms = dk_ints(dk_sequence(alpha, ring, 40))
        assert len(terms) == 40 and dk_recurrence_check(terms, 4)
        # no k with k + 4 <= 4: up to four terms pass whatever they are
        for kmax in range(1, 5):
            terms = dk_ints(dk_sequence(alpha, ring, kmax))
            terms[0] += 1
            assert dk_recurrence_check(terms, 4)
        # norm -1, and i: X^2 + 1 has T = 0 and d_4 = 0
        for bad in (DK_SPECIAL[2], DK_SPECIAL[13]):
            assert dk_sequence(*bad, 6).recurrence_ok is None


# norm-1 quadratic units over rings they keep, whose d_k the half-index lemma
# gives, and 2 + t over the module Z + Z (2 + t)/5 it does not keep, whose d_k
# are gcds
VERDICT_UNITS = {
    "2+t": (K2_3.element([2, 1]), K2_3.power_basis()),
    "5+2t": (K2_6.element([5, 2]), K2_6.power_basis()),
    "7+4t over Z[2t]": DK_SPECIAL[7],
    "2+t unkept": (K2_3.element([2, 1]), _ring(K2_3, [1, 0], [Fraction(2, 5), Fraction(1, 5)])),
}


@pytest.mark.parametrize("kmax", [*range(1, 13), 40])
@pytest.mark.parametrize("sign", [1, -1], ids=["T>0", "T<0"])
@pytest.mark.parametrize("name", VERDICT_UNITS)
def test_recurrence_ok_is_the_termwise_verdict(name, sign, kmax):
    alpha, ring = VERDICT_UNITS[name]
    alpha = alpha if sign == 1 else -alpha
    seq = dk_sequence(alpha, ring, kmax)
    assert (seq.head is None) is name.endswith("unkept")
    t = trace(alpha)
    assert seq.recurrence_ok is termwise_dk_recurrence(dk_ints(seq), t)
    # the lemma's rule, which the gcds follow too: T > 0 or no k with k + 4 <= kmax
    assert seq.recurrence_ok is (t > 0 or kmax <= 4)


@pytest.mark.parametrize("kmax", [*range(1, 13), 40])
@pytest.mark.parametrize("sign, e", [(1, 1), (-1, 1), (1, 3)], ids=["t", "-t", "t^3"])
def test_a_lacunary_quartic_unit_has_no_recurrence_verdict(sign, e, kmax):
    seq = dk_sequence(sign * K4_10.generator**e, K4_10.power_basis(), kmax)
    assert seq.recurrence_ok is None


class TestSparseScan:
    @given(
        st.sampled_from([((1, 0, -10, 0, 1), 2), ((1, 0, -5, 0, 1), 2), ((-2, 0, 0, 0, 1), 4),
                         ((-2, 0, 0, 0, 1), 2), ((-5, 0, 1), 2), ((1, 0, -4, 0, 1), 1)]),
        st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_oracle(self, spec, nmax):
        coeffs, t = spec
        field = NumberField(coeffs)
        scan = sparse_minpoly_scan(field, t, nmax)
        assert scan_rows(scan) == sparse_rows_oracle(field, t, nmax)

    @pytest.mark.parametrize("coeffs, t", [
        ((1, 0, -10, 0, 1), 1), ((1, 0, -10, 0, 1), 2), ((1, 0, -110, 0, 1), 2),
        ((-2, 0, 0, 0, 1), 1), ((-2, 0, 0, 0, 1), 2), ((-2, 0, 0, 0, 1), 4),
    ])
    def test_rows_match_oracle_at_each_t(self, coeffs, t):
        # the scan steps by alpha^t; the oracle steps by alpha and keeps n = 1 mod t
        field = NumberField(coeffs)
        for nmax in [-1, 0, 1, 2, 3, 4, 5, 199, 200, 201]:
            got = scan_rows(sparse_minpoly_scan(field, t, nmax))
            assert got == sparse_rows_oracle(field, t, nmax)


@st.composite
def lds_columns(draw):
    """Columns that are divisibility sequences, some with zeros, some perturbed."""
    size = draw(st.integers(2, 70))
    kind = draw(st.sampled_from(["multiple", "lucas", "zeros", "random"]))
    c = draw(st.integers(-3, 3))
    if kind == "multiple":
        col = [c * n for n in range(size)]
    elif kind == "lucas":
        p, q = draw(st.integers(-3, 3)), draw(st.integers(-2, 2))
        col = [0, 1]
        while len(col) < size:
            col.append(p * col[-1] - q * col[-2])
        col = col[:size]
    elif kind == "zeros":
        z = draw(st.integers(1, 7))
        col = [0 if n % z == 0 else c for n in range(size)]
    else:
        col = draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    if draw(st.booleans()):
        col[draw(st.integers(0, size - 1))] = draw(st.integers(-5, 5))
    return col, draw(st.integers(-2, size - 1))


@st.composite
def lcm_columns(draw):
    """b(n) = +-lcm of c(d) over d | n: a divisibility sequence, sometimes perturbed.

    Small c(d) make many pairs divide with equal terms; a c(d) = 0 zeroes b at
    every multiple of d, inner indices included.
    """
    size = draw(st.integers(2, 70))
    c = draw(st.lists(st.one_of(st.integers(1, 6), st.integers(-6, 6)), min_size=size, max_size=size))
    col = [0] + [
        math.lcm(*(c[d] for d in range(1, n + 1) if n % d == 0)) * (-1 if c[n] < 0 else 1)
        for n in range(1, size)
    ]
    if draw(st.booleans()):
        col[draw(st.integers(0, size - 1))] = draw(st.integers(-12, 12))
    return col, draw(st.integers(-2, size - 1))


class TestVerifyLdsOracle:
    @given(lds_columns())
    @settings(max_examples=500, deadline=None)
    def test_verdict_and_witness_match_pairwise_scan(self, case):
        col, nmax = case
        verdict = verify_lds(col, nmax)
        assert (verdict.ok, verdict.witness) == pairwise_lds(col, nmax)

    @given(lcm_columns())
    @settings(max_examples=500, deadline=None)
    def test_an_lcm_column_matches_pairwise_scan(self, case):
        col, nmax = case
        verdict = verify_lds(col, nmax)
        assert (verdict.ok, verdict.witness) == pairwise_lds(col, nmax)

    @given(lds_columns())
    @settings(max_examples=300, deadline=None)
    def test_an_iterator_is_read_only_through_the_witness(self, case):
        # a column whose witness is at m reads terms 0..m, one that passes 0..nmax
        col, nmax = case
        read = []
        verdict = verify_lds(map(lambda b: read.append(b) or b, col), nmax)
        assert verdict == verify_lds(col, nmax)
        assert len(read) == (max(nmax + 1, 0) if verdict.ok else verdict.witness[1] + 1)

    def test_late_failure_on_composite_index(self):
        # b(n) = n except b(12) = 18: 2, 3, 6, 9 divide 18 but 4 does not
        col = list(range(40))
        col[12] = 18
        assert pairwise_lds(col, 39) == (False, (4, 12))
        assert verify_lds(col, 39).witness == (4, 12)
        # b(0) = 0 and b(n) = 1 except b(n) = 7 at the multiples of 30/p below 30
        # (b(6) = b(12) = b(18) = b(24) = 7 for p = 5): the first failure is at
        # m = 30, where only the step (30/p, 30) of p fails, so each prime of m,
        # whatever its place among them, is tested
        for p in (2, 3, 5):
            col = [0] + [7 if n % (30 // p) == 0 and n < 30 else 1 for n in range(1, 31)]
            assert [q for q in (2, 3, 5) if not divides(col[30 // q], col[30])] == [p]
            assert pairwise_lds(col, 30) == (False, (30 // p, 30))
            assert verify_lds(col, 30).witness == (30 // p, 30)


LEHMER_T = st.integers(-60, 60)
SCALES = st.integers(-50, 50)
# b = x(2)/s of a Lehmer family member: 0, both signs and b = 1 drawn often
FAMILY_B = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-50, 50))
SIGNS = st.sampled_from([1, -1])


def lehmer(t, sign, b=1):
    """X^4 - T X^2 + 1 and rows 0..3 of its Lehmer family member of x(2) = b."""
    return (1, 0, -t, 0, 1), (0, 1, b, t + sign)


@st.composite
def target_heads(draw):
    """(charpoly, rows 0..d - 1) of s times a Lucas sequence or a Lehmer family member.

    s = 0 included; the family member has any b in -50..50.
    """
    s = draw(SCALES)
    if draw(st.booleans()):
        charpoly, first = lehmer(draw(LEHMER_T), draw(SIGNS), draw(FAMILY_B))
    else:
        p, q = draw(st.integers(-30, 30)), draw(st.one_of(st.just(0), st.integers(-30, 30)))
        charpoly, first = (q, -p, 1), (0, 1)
    return charpoly, [s * x for x in first]


def is_target_multiple(charpoly, column):
    """Whether the whole column is s times U_n(P, Q) or a Lehmer family member of charpoly."""
    if len(charpoly) == 3:
        firsts = [(0, 1)]
    elif len(charpoly) == 5 and charpoly[:2] + charpoly[3:] == (1, 0, 0, 1):
        # s b = x(2) fixes b when s != 0; s = 0 scales every member to 0
        b = Fraction(column[2], column[1]) if column[1] else 0
        if b.denominator != 1:
            return False
        firsts = [lehmer(-charpoly[2], sign, int(b))[1] for sign in (1, -1)]
    else:
        return False
    kmax = len(column) - 1
    scaled = ([column[1] * x for x in recurrence_column(charpoly, first, kmax)] for first in firsts)
    return column in scaled


@st.composite
def near_misses(draw):
    """(charpoly, rows 0..4) under X^4 - T X^2 + 1 one condition away from s times a family member.

    s does not divide x(2); x(0) != 0; row 4 != T x(2), s T in place of s T b
    included; or s = 0 with x(2) != 0.
    """
    t, sign, b = draw(LEHMER_T), draw(SIGNS), draw(FAMILY_B)
    charpoly, first = lehmer(t, sign, b)
    s = draw(SCALES.filter(bool))
    rows = [s * x for x in first] + [s * t * b]
    kind = draw(st.sampled_from(["s", "x0", "row4", "s0"]))
    if kind == "s":
        s = draw(SCALES.filter(lambda s: abs(s) > 1))
        x2 = draw(st.integers(-100, 100).filter(lambda x: x % s))
        rows = [0, s, x2, s * (t + sign), t * x2]
    elif kind == "x0":
        rows[0] = draw(st.integers(-20, 20).filter(bool))
    elif kind == "row4":
        rows[4] = draw(st.one_of(st.just(s * t), st.integers(-10**4, 10**4)))
        assume(rows[4] != t * rows[2])
    else:
        x2 = draw(st.integers(-100, 100).filter(bool))
        rows = [0, 0, x2, draw(st.integers(-20, 20)), t * x2]
    return charpoly, rows


@st.composite
def missing_heads(draw):
    """(charpoly, rows 0..d) of heads that are no multiple of a Lucas or a Lehmer family target.

    A target's head one entry off, row d included; the near misses of a
    family member; and heads under other charpolys, certified by their own
    recurrence: s (0, 1, 1, T +- 1, T) under X^4 - P X^3 - T X^2 + ... with
    P != 0 and under X^4 - T X^2 + c with c != 1, s (0, 1, P) under a cubic
    X^3 - P X^2 + ..., and random heads under both degrees.
    """
    kind = draw(st.sampled_from(["off", "near", "quartic", "cubic"]))
    s = draw(SCALES.filter(bool))
    coefficient = st.integers(-20, 20)
    if kind == "off":
        charpoly, first = draw(target_heads())
        rows = recurrence_column(charpoly, first, len(first))
        j = draw(st.integers(0, len(rows) - 1))
        rows[j] += draw(st.integers(-3, 3).filter(bool))
        return charpoly, rows
    if kind == "near":
        return draw(near_misses())
    if kind == "quartic":
        t, sign = draw(LEHMER_T), draw(SIGNS)
        if draw(st.booleans()):
            p = draw(coefficient.filter(bool))
            charpoly = (draw(coefficient), p * (t + sign), -t, -p, 1)
        else:
            charpoly = (draw(coefficient.filter(lambda c: c != 1)), 0, -t, 0, 1)
        first = [0, s, s, s * (t + sign)]
    else:
        charpoly = (draw(coefficient), draw(coefficient), draw(coefficient), 1)
        first = [0, s, -s * charpoly[2]]
    if draw(st.booleans()):
        first = draw(st.lists(coefficient, min_size=len(first), max_size=len(first)))
    return charpoly, recurrence_column(charpoly, first, len(first))


@pytest.fixture
def scans(monkeypatch):
    """The nmax of every call column_verdict makes to verify_lds, as a list."""
    calls = []
    scan = coordseq.verify_lds
    monkeypatch.setattr(
        coordseq, "verify_lds", lambda column, nmax: calls.append(nmax) or scan(column, nmax)
    )
    return calls


class TestColumnVerdict:
    @given(target_heads())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_target_multiple_is_proved_and_passes_the_pair_scan(self, scans, case):
        charpoly, first = case
        column = recurrence_column(charpoly, first, 200)
        head = SequenceReport(terms=[column[: len(first) + 1]], charpoly=charpoly)
        scans.clear()
        assert column_verdict(head, 1, 200) == pairwise_lds(column, 200) == (True, None)
        assert scans == []

    @given(missing_heads())
    # near misses of s (0, 1, b, T + 1, T b) at T = 10: s = 2 does not divide
    # x(2) = 3; x(0) != 0; row 4 = T, not T x(2) = 2T; s = 0 with x(2) != 0
    @example(((1, 0, -10, 0, 1), [0, 2, 3, 2 * 11, 3 * 10]))
    @example(((1, 0, -10, 0, 1), [1, 1, 2, 11, 2 * 10 - 1]))
    @example(((1, 0, -10, 0, 1), [0, 1, 2, 11, 10]))
    @example(((1, 0, -10, 0, 1), [0, 0, 3, 0, 3 * 10]))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_a_head_off_every_target_keeps_the_scan(self, scans, case):
        charpoly, rows = case
        head = SequenceReport(terms=[rows], charpoly=charpoly)
        # what verify_lds reads: x(0), then the recurrence run from rows 1..d
        column = list(itertools.islice(column_terms(head, 1), 201))
        assume(not is_target_multiple(charpoly, column))
        scans.clear()
        verdict = column_verdict(head, 1, 200)
        assert (verdict.ok, verdict.witness) == pairwise_lds(column, 200)
        assert scans == [200]

    @pytest.mark.parametrize("charpoly, rows, nmax, proved, want", [
        # family-scan --kmax 3 over family m = 2: rows 0..3 of a quartic
        ((1, 0, -10, 0, 1), [0, 2, 2, 22], 3, True, (True, None)),
        ((1, 0, -10, 0, 1), [0, 2, 2, 18], 3, True, (True, None)),
        ((1, 0, -10, 0, 1), [0, 2, 2, 21], 3, False, (False, (1, 3))),
        ((1, 0, -10, 0, 1), [0, 2, 3], 2, False, (False, (1, 2))),
        ((1, 0, -10, 0, 1), [0, 2, 2, 22], 4, False, "need terms through index 4, got 4"),
        ((-7, 3, 1), [0, 5], 1, True, (True, None)),
        ((-7, 3, 1), [0, 5], 2, False, "need terms through index 2, got 2"),
        # 2 (0, 1, 2): rows 0..2 of the family member b = 2
        ((1, 0, -10, 0, 1), [0, 2, 4], 2, True, (True, None)),
    ])
    def test_a_head_short_of_row_d(self, scans, charpoly, rows, nmax, proved, want):
        head = SequenceReport(terms=[rows], charpoly=charpoly)
        got = outcome(lambda: tuple(column_verdict(head, 1, nmax)))
        assert got == (("ok", want) if isinstance(want, tuple) else ("error", want))
        assert scans == ([] if proved else [nmax])


def termwise_recurrence(report):
    """Every column against every s_j, zero or not: the loop verify_recurrence replaced."""
    d = len(report.charpoly) - 1
    if report.kmax < d:
        raise ValueError("not enough terms to test the recurrence")
    s = [-report.charpoly[d - j] for j in range(1, d + 1)]
    for col in report.terms:
        for k in range(len(col) - d):
            if col[k + d] != sum(s[j - 1] * col[k + d - j] for j in range(1, d + 1)):
                return False
    return True


def str_columns(report):
    return [[str(x) for x in column] for column in report.terms]


@st.composite
def power_reports(draw, min_kmax=0, max_kmax=30):
    """Reports over the power basis of integral beta and eps, zero elements included."""
    field = draw(st.sampled_from(FIELDS))
    beta = draw(st.one_of(st.just(field.from_int(0)), integral_elements(field)))
    eps = draw(st.one_of(
        integral_elements(field),
        st.integers(-3, 3).map(lambda c: field.element([c] + [0] * (field.degree - 1))),
    ))
    return generate(beta, eps, field.power_basis(), draw(st.integers(min_kmax, max_kmax)))


class TestVerifyRecurrence:
    @given(power_reports())
    @settings(max_examples=300, deadline=None)
    def test_verdict_matches_termwise_loop(self, report):
        assert outcome(verify_recurrence, report) == outcome(termwise_recurrence, report)

    @given(power_reports(min_kmax=4), st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_mutated_term_fails(self, report, data):
        d = len(report.charpoly) - 1
        k = data.draw(st.integers(d, report.kmax))
        i = data.draw(st.integers(0, len(report.terms) - 1))
        delta = data.draw(st.integers(-3, 3).filter(bool))
        terms = [list(column) for column in report.terms]
        terms[i][k] += delta
        mutated = SequenceReport(terms=terms, charpoly=report.charpoly)
        assert verify_recurrence(report)
        assert termwise_recurrence(mutated) is False
        assert verify_recurrence(mutated) is False


class TestDecimalRows:
    @given(power_reports())
    @settings(max_examples=300, deadline=None)
    def test_matches_str_of_every_term(self, report):
        assert decimal_columns(report, report.kmax) == str_columns(report)

    def test_zero_columns_and_negative_terms(self):
        k4 = NumberField((1, 0, -10, 0, 1))
        # eps = -t^2 has charpoly x^2 + 10x + 1: columns 2 and 4 stay zero, signs alternate
        report = generate(k4.one, k4.element([0, 0, -1, 0]), k4.power_basis(), 12)
        assert report.terms[1] == report.terms[3] == [0] * 13
        assert any(x < 0 for column in report.terms for x in column)
        assert decimal_columns(report, report.kmax) == str_columns(report)
        zero = generate(k4.from_int(0), k4.generator, k4.power_basis(), 8)
        assert decimal_columns(zero, zero.kmax) == [["0"] * 9] * 4

    def test_column_past_the_int_digit_limit(self):
        k2 = NumberField((-3, 0, 1))
        # (2 + t)^4 = 97 + 56t; its powers pass 4,300 digits near k = 1,880
        report = generate(k2.one, k2.element([97, 56]), k2.power_basis(), 1900)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str_columns(report)
        finally:
            sys.set_int_max_str_digits(limit)
        got = decimal_columns(report, report.kmax)
        assert len(got[0][-1]) > 4300
        assert got == want

    def test_verified_dk_column_past_the_int_digit_limit(self):
        # d_k of the Pell unit 33 + t satisfies d_{k+4} = 66 d_{k+2} - d_k and passes
        # 4,300 digits near k = 4,730
        k2 = NumberField((-1088, 0, 1))
        seq = dk_sequence(k2.element([33, 1]), k2.power_basis(), 4800)
        terms = dk_ints(seq)
        assert dk_recurrence_check(terms, 66)
        column = SequenceReport([terms], (1, 0, -66, 0, 1))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = str_columns(column)
        finally:
            sys.set_int_max_str_digits(limit)
        got = decimal_columns(column, column.kmax)
        assert len(got[0][-1]) > 4300
        assert got == want

    def test_caller_context_is_left_alone(self):
        report = generate(FIELDS[6].one, FIELDS[6].generator, FIELDS[6].power_basis(), 200)
        want = str_columns(report)
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.traps[decimal.Inexact] = False
            before = repr(ctx)
            assert decimal_columns(report, report.kmax) == want
            assert decimal.getcontext() is ctx
            assert repr(ctx) == before


def recurrence_column(charpoly, head, kmax):
    """head, then each term by sum_j s_j x(k - j) with every s_j multiplied out."""
    d = len(charpoly) - 1
    column = list(head)
    for k in range(d, kmax + 1):
        column.append(sum(-charpoly[d - j] * column[k - j] for j in range(1, d + 1)))
    return column


def recurrence_report(charpoly, heads, kmax):
    columns = [recurrence_column(charpoly, head, kmax) for head in heads]
    return SequenceReport(terms=columns, charpoly=tuple(charpoly))


@st.composite
def plus_minus_reports(draw):
    """Columns of a charpoly's own recurrence, with +-1 likely in every position.

    Heads are small, zero, or long; zero columns and columns that reach zero
    again (a cancelling sum) test that no term prints as -0.
    """
    d = draw(st.integers(1, 5))
    coefficient = st.one_of(st.sampled_from([-1, 1]), st.sampled_from([-1, 0, 1]), st.integers(-40, 40))
    charpoly = [draw(coefficient) for _ in range(d)] + [1]
    term = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
    heads = draw(st.lists(
        st.one_of(st.just([0] * d), st.lists(term, min_size=d, max_size=d)), min_size=1, max_size=4
    ))
    return recurrence_report(charpoly, heads, draw(st.integers(d, 80)))


# +-1 in every position, negative traces, and zero columns beside nonzero ones
PLUS_MINUS_CASES = [
    ((-1, -1, 1), [[0, 1], [2, -1], [0, 0]]),  # x^2 - x - 1
    ((1, 1, 1), [[1, 0], [0, -1]]),  # x^2 + x + 1: period 3, zeros in every column
    ((-1, 1, -1, 1, 1), [[0, 1, 1, 2], [0, 0, 0, 0], [-1, 0, 1, 0]]),  # x^4 + x^3 - x^2 + x - 1
    ((1, -1, 1, -1, 1), [[1, 0, 0, 0], [0, 0, 0, 0]]),  # x^4 - x^3 + x^2 - x + 1
    ((1, 0, 7, 0, 1), [[0, 1, 1, -6], [0, 0, 0, 0], [0, 0, 3, 0], [5, 0, 0, 0]]),  # T = -7
    ((1, 0, -1057, 0, 1), [[0, 1, 1, 1058], [0, 0, 0, 0], [-2, 0, 0, 0]]),  # T = 1057
    ((1, 0, 2, 0, 1), [[0, 1, 0, -2], [0, 0, 0, 0]]),  # T = -2, s_2 = -2 and s_4 = -1
    ((-1, 1), [[5], [0]]),  # x - 1: s_1 = 1 alone
    ((1, 1), [[-5], [0]]),  # x + 1: s_1 = -1 alone
    ((0, 1), [[3], [0]]),  # x: no nonzero s_j, every later term 0
]


class TestPlusMinusOneSteps:
    @given(plus_minus_reports())
    @settings(max_examples=300, deadline=None)
    def test_decimal_rows_match_str_and_never_print_minus_zero(self, report):
        columns = decimal_columns(report, report.kmax)
        assert columns == str_columns(report)
        assert all(x != "-0" for column in columns for x in column)

    @pytest.mark.parametrize("charpoly, heads", PLUS_MINUS_CASES)
    def test_named_charpolys(self, charpoly, heads):
        report = recurrence_report(charpoly, heads, 60)
        columns = decimal_columns(report, report.kmax)
        assert columns == str_columns(report)
        assert all(x != "-0" for column in columns for x in column)
        assert verify_recurrence(report) is termwise_recurrence(report) is True

    @given(plus_minus_reports(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_recurrence_verdict_matches_termwise_loop(self, report, data):
        assert verify_recurrence(report) is termwise_recurrence(report) is True
        d = len(report.charpoly) - 1
        k = data.draw(st.integers(d, report.kmax))
        i = data.draw(st.integers(0, len(report.terms) - 1))
        terms = [list(column) for column in report.terms]
        terms[i][k] += data.draw(st.integers(-3, 3).filter(bool))
        mutated = SequenceReport(terms=terms, charpoly=report.charpoly)
        assert verify_recurrence(mutated) is termwise_recurrence(mutated) is False


@st.composite
def shifted_reports(draw):
    """Columns sign * y(k + 3 - s) of recurrence sequences y, for shifts s in 0..3.

    A column with shift s + 1 is +- the column of the same y with shift s moved
    down one row, in either order of the two, so chains of shifts, negated
    shifts and all-zero columns (a zero head) occur; kmax = 0 gives one row.
    """
    d = draw(st.integers(1, 4))
    charpoly = [draw(st.integers(-5, 5)) for _ in range(d)] + [1]
    term = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))
    kmax = draw(st.integers(0, 40))
    heads = draw(st.lists(
        st.one_of(st.just([0] * d), st.lists(term, min_size=d, max_size=d)), min_size=1, max_size=2
    ))
    bases = [recurrence_column(charpoly, head, kmax + 3 + d)[: kmax + 4] for head in heads]
    specs = draw(st.lists(
        st.tuples(st.integers(0, len(bases) - 1), st.integers(0, 3), st.sampled_from([-1, 1])),
        min_size=1, max_size=5,
    ))
    columns = [[sign * bases[b][k + 3 - s] for k in range(kmax + 1)] for b, s, sign in specs]
    return SequenceReport(terms=columns, charpoly=tuple(charpoly))


class TestShiftedColumns:
    @given(shifted_reports())
    @settings(max_examples=300, deadline=None)
    def test_decimal_columns_match_str(self, report):
        if report.kmax >= len(report.charpoly) - 1:
            assert verify_recurrence(report)
        columns = decimal_columns(report, report.kmax)
        assert columns == str_columns(report)

    def test_quartic_power_columns(self):
        # x3(k) = -x2(k-1) and x4(k) = x3(k-1) over the quartic-power basis
        k4 = NumberField((1, 0, -10, 0, 1))
        cons = quartic_module_construct(k4.element([2, -1, 0, 1]), k4.generator)
        report = generate(k4.element([2, -1, 0, 1]), k4.generator, cons.basis, 60)
        _, x2, x3, x4 = report.terms
        assert x3[1:] == [-x for x in x2[:-1]] and x4[1:] == x3[:-1]
        assert decimal_columns(report, report.kmax) == str_columns(report)


@st.composite
def strand_reports(draw):
    """Columns under g(X^e), e in 1..3, whose strands are +- copies of a few g-sequences.

    Strand p < e of a column is its terms p, p + e, ...; each is 0 or
    s * y(m + o) for one of up to three solutions y of g, s = +-1 and o in
    0..q + 1, q = deg g. Strands thus repeat up to sign and shift within and
    across columns, in either order, and heads of zeros and terms near zero
    make strands that agree on fewer than q terms; kmax runs from 0 to 40.
    """
    e, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    g = [draw(st.integers(-4, 4)) for _ in range(q)] + [1]
    charpoly = [0] * (e * q + 1)
    charpoly[::e] = g
    kmax = draw(st.integers(0, 40))
    term = st.one_of(st.integers(-2, 2), st.integers(-10**20, 10**20))
    heads = draw(st.lists(st.lists(term, min_size=q, max_size=q), min_size=1, max_size=3))
    ys = [recurrence_column(g, head, kmax // e + q + 1) for head in heads]
    copies = st.tuples(st.integers(0, len(ys) - 1), st.integers(0, q + 1), st.sampled_from([-1, 1]))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        column = [0] * (kmax + 1)
        for p in range(e):
            copy = draw(st.one_of(st.none(), copies))
            if copy is not None:
                y, o, s = copy
                column[p::e] = [s * ys[y][m + o] for m in range(len(range(p, kmax + 1, e)))]
        columns.append(column)
    return SequenceReport(terms=columns, charpoly=tuple(charpoly))


class TestStrands:
    @given(strand_reports())
    @settings(max_examples=500, deadline=None)
    def test_decimal_columns_match_str_and_never_print_minus_zero(self, report):
        if report.kmax >= len(report.charpoly) - 1:
            assert verify_recurrence(report)
        columns = decimal_columns(report, report.kmax)
        assert columns == str_columns(report)
        assert all(x != "-0" for column in columns for x in column)

    @pytest.mark.parametrize("charpoly, heads", [
        # g = X^2 - 5X + 1, y = (0, 1, 5, ...) and z = (1, 4, 19, ...): the strands
        # are x1 = (y(m + 1), z(m + 1)), x2 = (-z(m), -y(m + 2)) and x3 = (y, z), so
        # -z and y each take the place of a base that already has members
        ((1, 0, -5, 0, 1), [[1, 4, 5, 19], [-1, -5, -4, -24], [0, 1, 1, 4]]),
        # a charpoly with an odd term and an even degree: one strand per column
        ((1, 1, -3, 0, 1), [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0]]),
        # X^2: every strand is one term and then zeros, which a zero strand reads
        ((0, 0, 1), [[5, -3], [-3, 0], [0, 5]]),
    ])
    def test_named_strands(self, charpoly, heads):
        report = recurrence_report(charpoly, heads, 30)
        assert decimal_columns(report, report.kmax) == str_columns(report)


class TestNoStateBetweenCalls:
    @given(lds_columns(), lds_columns())
    @settings(max_examples=300, deadline=None)
    def test_a_second_call_gives_the_same_verdict(self, case, other):
        # a call on another column and bound in between changes nothing
        col, nmax = case
        first = verify_lds(col, nmax)
        verify_lds(*other)
        again = verify_lds(col, nmax)
        assert first == again and (again.ok, again.witness) == pairwise_lds(col, nmax)

    def test_an_early_failure_at_a_large_bound_holds_no_memory(self):
        # b(n) = n + 1 from n = 3 on fails at (2, 4): the scan's work and memory
        # follow the five terms it reads, not nmax, and nothing outlives it
        verify_lds(itertools.chain([0, 1, 3], itertools.count(4)), 10)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            verdict = verify_lds(itertools.chain([0, 1, 3], itertools.count(4)), 10**6)
            gc.collect()
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict == (False, (2, 4))
        assert peak < 10**6
        assert after - before < 1000


class TestRecurrenceValues:
    @pytest.mark.parametrize("charpoly, heads", PLUS_MINUS_CASES)
    def test_a_list_that_takes_each_value_feeds_itself(self, charpoly, heads):
        d = len(charpoly) - 1
        for head in heads:
            x = list(head)
            for value in itertools.islice(recurrence_values(charpoly, x), 60 - d):
                x.append(value)
            assert x == recurrence_column(charpoly, head, 59)

    @pytest.mark.parametrize("charpoly, heads", PLUS_MINUS_CASES)
    def test_on_a_given_column_it_predicts_each_later_term(self, charpoly, heads):
        # the values may run one or more terms past the column; a comparison stops there
        d = len(charpoly) - 1
        for head in heads:
            column = recurrence_column(charpoly, head, 30)
            values = list(itertools.islice(recurrence_values(charpoly, column), 31 - d))
            assert values == column[d:]

    @given(st.data(), st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_on_any_column_it_is_the_termwise_sum(self, data, as_decimal):
        # coefficients rich in +-1 and 0, and huge; int or Decimal terms
        d = data.draw(st.integers(1, 6))
        coefficient = st.one_of(st.sampled_from([1, -1, 0]), st.integers(-10**20, 10**20))
        charpoly = [data.draw(coefficient) for _ in range(d)] + [1]
        value = st.one_of(st.integers(-2, 2), st.integers(-10**40, 10**40))
        column = data.draw(st.lists(value, min_size=d, max_size=d + 6))
        if as_decimal:
            column = list(map(decimal.Decimal, column))
        with decimal.localcontext(EXACT_DECIMAL):
            values = recurrence_values(charpoly, column)
            nonzero = [j for j in range(1, d + 1) if charpoly[d - j]]
            # the values stop where x(k - j) leaves the column for the least such j
            end = len(column) + min(nonzero, default=0)
            expected = [
                sum(-charpoly[d - j] * column[k - j] for j in nonzero) for k in range(d, end)
            ]
            if nonzero:
                got = list(values)
                assert all(type(v) is (decimal.Decimal if as_decimal else int) for v in got)
            else:
                got = list(itertools.islice(values, len(expected)))
                assert next(values) == 0
        assert got == expected

    @pytest.mark.parametrize("charpoly", [(-1, 1), (1, -1, 1), (-1, 1, -1, 1, 1), (1, 1, -1, -1, 1)])
    def test_plus_minus_one_after_a_plus_one_is_an_add_or_a_subtract(self, charpoly):
        # terms that can be added, subtracted and negated but not multiplied
        class Additive(int):
            def __add__(self, other):
                return Additive(int(self) + int(other))

            def __sub__(self, other):
                return Additive(int(self) - int(other))

            def __mul__(self, other):
                raise AssertionError("multiplied")

            __rmul__ = __mul__

        d = len(charpoly) - 1
        x = [Additive(v) for v in range(1, d + 1)]
        for value in itertools.islice(recurrence_values(charpoly, x), 20):
            x.append(value)
        assert x == recurrence_column(charpoly, list(range(1, d + 1)), d + 19)


# exact decimal arithmetic, so that every sum of Decimals is the sum of their ints
EXACT_DECIMAL = decimal.Context(prec=decimal.MAX_PREC, traps=[decimal.Inexact, decimal.Rounded])
