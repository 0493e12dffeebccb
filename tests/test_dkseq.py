import contextlib
import io
import json
import math
import types
from itertools import islice
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normlds import cli, coordseq, dkseq, numberfield
from normlds.exactlinalg import complete_primitive, inverse_unimodular
from normlds.numberfield import NumberField
from oracles import MAXIMAL_ORDER, companion_first_coordinates, dk_ints, scan_rows


def dk_maximality_oracle(alpha, ringbasis, k, value):
    """Brute-force check that value is the maximum d_k of the defining congruence.

    Confirms for every candidate d up to 2*value that (alpha^k - 1)/d has
    integral coordinates iff d divides value. The loop runs 2*d_k times and d_k
    grows exponentially in k, so it serves small k only.
    """
    if value == 0:
        return alpha**k == ringbasis.field.one
    diff = alpha**k - ringbasis.field.one
    for d in range(1, 2 * value + 1):
        coords = ringbasis.coords(diff.scale(Fraction(1, d)))
        integral = all(c.denominator == 1 for c in coords)
        if integral != (value % d == 0):
            return False
    return True


@pytest.mark.parametrize(
    "poly, alpha, kmax",
    [
        ((-3, 0, 1), (2, 1), 10),  # 2 + sqrt 3
        ((-2, 0, 1), (1, 1), 12),  # 1 + sqrt 2, norm -1
        ((1, 0, -10, 0, 1), (0, 1, 0, 0), 6),  # sqrt 2 + sqrt 3
        ((-3, 0, 1), (-1, 0), 4),  # a root of unity: d_k = 0 at even k
    ],
)
def test_dk_sequence_terms_are_maximal(poly, alpha, kmax):
    field = NumberField(poly)
    alpha = field.element(alpha)
    ring = field.power_basis()
    terms = dk_ints(dkseq.dk_sequence(alpha, ring, kmax))
    assert len(terms) == kmax
    for k, value in enumerate(terms, 1):
        assert dk_maximality_oracle(alpha, ring, k, value)
    # an off-by-a-factor term is caught
    assert not dk_maximality_oracle(alpha, ring, kmax - 1, 2 * terms[-2])


# (field, alpha, ring basis or None for the power basis)
DK_EDGE_CASES = {
    # units with M in GL_n(Z): two half-length streams, interleaved
    "unit 2+t": ((-3, 0, 1), (2, 1), None),
    "unit sqrt2+sqrt3": ((1, 0, -10, 0, 1), (0, 1, 0, 0), None),
    # norm -2: one stream against e1
    "non-unit 1+t": ((-3, 0, 1), (1, 1), None),
    # alpha^2 = 1: d_k = 0 at every even k
    "torsion -1": ((-3, 0, 1), (-1, 0), None),
    # min_poly X^2 - 3/4: alpha = (0, 2) over {1, t/4} is integral, alpha^2 = 3/4 is not
    "non-integral t/2": ((-3, 0, 1), (0, Fraction(1, 2)), ((1, 0), (0, Fraction(1, 4)))),
    # mp(alpha) = g(X^2): every odd d_k is 1 by the vanishing lemma. t in x^4 + 1
    # is torsion of order 8, so d_8 = 0
    "torsion t of x^4+1": ((1, 0, 0, 0, 1), (0, 1, 0, 0), None),
    "unit t^3": ((1, 0, -10, 0, 1), (0, 0, 0, 1), None),
    # x1(1) = -1 over {1, 1+t, t^2, t^3}, so the odd stream takes its gcds
    "unit t over 1, 1+t": ((1, 0, -10, 0, 1), (0, 1, 0, 0), ((1, 0, 0, 0), (1, 1, 0, 0),
                                                               (0, 0, 1, 0), (0, 0, 0, 1))),
    # the Z[t]-module Z[t] + Z[t] (1+t)/2, over which t^k - 1 lies in 2Z[t] + (1+t)Z[t],
    # so every d_k, odd k included, is even; x1(1) = -1 here too
    "unit t over 1, (1+t)/2": ((1, 0, -10, 0, 1), (0, 1, 0, 0), (
        (1, 0, 0, 0), (Fraction(1, 2), Fraction(1, 2), 0, 0),
        (0, Fraction(1, 2), Fraction(1, 2), 0), (0, 0, Fraction(1, 2), Fraction(1, 2)))),
    # norm 16: one stream against e1
    "non-unit 2t": ((1, 0, -10, 0, 1), (0, 2, 0, 0), None),
}


@pytest.mark.parametrize("kmax", [1, 2, 3, 15, 16, 17])
@pytest.mark.parametrize("case", list(DK_EDGE_CASES))
def test_dk_sequence_matches_the_dk_oracle_at_every_k(case, kmax):
    # an odd kmax ends on the longer of the two streams, where an interleave can
    # drop or repeat the last term; a non-integral alpha^k raises for its first k
    poly, alpha, vectors = DK_EDGE_CASES[case]
    field = NumberField(poly)
    alpha = field.element(alpha)
    if vectors is None:
        ring = field.power_basis()
    else:
        ring = numberfield.ModuleBasis(field, tuple(field.element(v) for v in vectors))
    want, error = [], None
    for k in range(1, kmax + 1):
        try:
            want.append(dkseq.dk(alpha, ring, k))
        except ValueError as exc:
            error = str(exc)
            break
    if error is None:
        assert dk_ints(dkseq.dk_sequence(alpha, ring, kmax)) == want
    else:
        assert error == f"alpha^{len(want) + 1} has non-integral coordinates over the ring basis"
        with pytest.raises(ValueError) as raised:
            dkseq.dk_sequence(alpha, ring, kmax)
        assert str(raised.value) == error


def test_odd_d_k_are_two_over_a_module_whose_x1_head_is_not_zero():
    # the case that a guard without the head test x1(1) = x1(3) = 0 gets wrong
    poly, alpha, vectors = DK_EDGE_CASES["unit t over 1, (1+t)/2"]
    field = NumberField(poly)
    ring = numberfield.ModuleBasis(field, tuple(field.element(v) for v in vectors))
    alpha = field.element(alpha)
    assert ring.int_coords(alpha) == ((-1, 2, 0, 0), 1)
    assert dk_ints(dkseq.dk_sequence(alpha, ring, 5))[::2] == [2, 2, 2]


def run_dk_scan(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["dk-scan", *argv])
    return rc, json.loads(out.getvalue())


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 200), st.sampled_from(["t", "-t", "t^3", "2t", "1+t", "t^2"]),
       st.integers(1, 60))
# t of x^4 + 1 is torsion, whose even d_k fail the recurrence, so they take str()
@example(0, "t", 17)
def test_lacunary_quartic_dk_scan_matches_the_dk_oracle(t, alpha, kmax):
    # X^4 - T X^2 + 1 for every irreducible one drawn; t and t^3 are units
    # with a lacunary mp, quartic but for t^3 = i at T = 1; 2t is no unit,
    # 1 + t has no lacunary mp, and t^2 is a quadratic unit of norm 1
    try:
        field = NumberField((1, 0, -t, 0, 1))
    except ValueError:
        assume(False)
    element = numberfield.parse_element(field, alpha)
    ring = field.power_basis()
    want = [dkseq.dk(element, ring, k) for k in range(1, kmax + 1)]
    seq = dkseq.dk_sequence(element, ring, kmax)
    assert dk_ints(seq) == want
    if alpha in ("t", "-t", "t^3"):
        assert want[::2] == [1] * len(want[::2])
    quartic = len(numberfield.min_poly(element)) == 5
    # the half-index lemma takes the nontorsion units: t^2 as beta itself, and
    # t, -t and t^3, whose odd d_k are 1, through beta = alpha^2
    assert (seq.head is not None) is (alpha in ("t", "-t", "t^3", "t^2") and abs(t) > 2)
    if seq.head is not None:
        assert seq.step == (2 if quartic else 1)
    argv = ["--field", f"x^4{-t:+}x^2+1", f"--alpha={alpha}", "--kmax", str(kmax)]
    rc, report = run_dk_scan(argv)
    assert rc == 0 and report["terms"] == list(map(str, want))
    # the recurrence check is for quadratic units of norm 1 alone
    assert report["recurrence_ok"] is None or not quartic


def test_the_vanishing_scan_at_t_1_does_not_vanish():
    # f = g(X^1) for every f: the vanishing lemma needs t >= 2
    field = NumberField((1, 0, -10, 0, 1))
    assert dkseq.sparse_minpoly_scan(field, 1, 6).y1 == [0, 0, 0, -1, 0, -10]
    assert dkseq.sparse_minpoly_scan(field, 2, 9).all_vanish()


# built before any test counts the irreducibility tests
SQRT3 = NumberField((-3, 0, 1))


@pytest.fixture
def irreducibility_tests(monkeypatch):
    """The polynomials numberfield._is_irreducible is asked about, in order."""
    calls = []
    original = numberfield._is_irreducible

    def counting(coeffs):
        calls.append(tuple(coeffs))
        return original(coeffs)

    monkeypatch.setattr(numberfield, "_is_irreducible", counting)
    return calls


@pytest.mark.parametrize(
    "alpha, quartic, irreducible",
    [((2, 1), (1, 0, -4, 0, 1), True), ((7, 4), (1, 0, -14, 0, 1), False)],
)
def test_match_dk_basis_tests_irreducibility_once(irreducibility_tests, alpha, quartic, irreducible):
    report = dkseq.match_dk_basis(SQRT3.element(alpha), SQRT3.power_basis())
    assert irreducibility_tests == [quartic]
    assert report.head.charpoly == quartic
    assert (report.basis is not None) is irreducible
    if irreducible:
        assert report.basis.field == NumberField(quartic)


@pytest.mark.parametrize(
    "poly, alpha",
    [((-3, 0, 1), (2, 1)), ((-6, 0, 1), (5, 2)), ((-2, 0, 1), (3, 2)), ((-1088, 0, 1), (33, 1))],
)
def test_match_dk_basis_through_k_60(poly, alpha):
    field = NumberField(poly)
    alpha = field.element(alpha)
    report = dkseq.match_dk_basis(alpha, field.power_basis())
    terms = dk_ints(dkseq.dk_sequence(alpha, field.power_basis(), 60))
    d1 = terms[0]
    assert report.head.terms == [[0, *terms[:3]]]
    if report.basis is not None:
        # x1 of eta^k over the returned basis is d_k / d_1, computed by the sequence kernel
        k4 = report.basis.field
        x1 = coordseq.generate(k4.one, k4.generator, report.basis, 60).terms[0]
        assert x1 == [0] + [d // d1 for d in terms]
        # vector i is row i of the completion's inverse over the power basis
        rows = inverse_unimodular(complete_primitive([x // d1 for x in report.head.terms[0]]))
        assert [w.coords for w in report.basis.vectors] == [tuple(row) for row in rows]


# (field, ring basis, alpha): both signs of T, a quadratic unit inside a quartic
# field, and a half-integral unit over O_K
MATCHED = {
    "2+t": ("x^2-3", "1;t", "2+t"),
    "-2-t": ("x^2-3", "1;t", "-2-t"),
    "-2+t": ("x^2-3", "1;t", "-2+t"),
    "t^2 in a quartic": ("x^4-10x^2+1", "1;t;t^2;t^3", "t^2"),
    "(5+t)/2": ("x^2-21", "1;1/2+1/2t", "5/2+1/2t"),
    "-(5+t)/2": ("x^2-21", "1;1/2+1/2t", "-5/2-1/2t"),
    "reducible quartic": ("x^2-3", "1;t", "7+4t"),
}


@pytest.mark.parametrize("case", list(MATCHED))
def test_match_dk_basis_x1_times_d1_is_dk_through_k_60(case):
    poly, basis, text = MATCHED[case]
    field = NumberField(numberfield.parse_polynomial(poly))
    ring, alpha = ring_of(field, basis), numberfield.parse_element(field, text)
    report = dkseq.match_dk_basis(alpha, ring)
    (column,) = report.head.terms
    t = -int(numberfield.min_poly(alpha)[1])
    # the head is d_1 times the lds_targets entry of X^4 - |T| X^2 + 1 at b = d_2/d_1
    assert report.head.charpoly == (1, 0, -abs(t), 0, 1)
    d1 = column[1]
    entries = coordseq.lds_targets(report.head.charpoly, column[2] // d1)
    assert [d1 * x for x in entries[t < 0][:4]] == column
    dks = [dkseq.dk(alpha, ring, k) for k in range(61)]
    if case == "reducible quartic":
        # X^4 - 14 X^2 + 1 = (X^2 - 4 X + 1)(X^2 + 4 X + 1)
        assert report.basis is None and column == dks[:4]
        return
    k4 = report.basis.field
    head = coordseq.sequence_head(k4.one, k4.generator, report.basis, 60)
    x1 = list(islice(coordseq.column_terms(head, 1), 61))
    assert [d1 * x for x in x1] == dks


@pytest.mark.parametrize(
    "poly, alpha",
    [("x^2-2", "1+t"), ("x^4-10x^2+1", "t"), ("x^2-3", "1+t")],
    ids=["norm -1", "lacunary", "non-unit"],
)
def test_match_dk_basis_refuses_what_the_lemma_does_not_cover(poly, alpha):
    field = NumberField(numberfield.parse_polynomial(poly))
    message = "alpha is not a nontorsion quadratic unit of norm 1 that keeps the ring"
    with pytest.raises(ValueError, match=f"^{message}$"):
        dkseq.match_dk_basis(numberfield.parse_element(field, alpha), field.power_basis())


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4).flatmap(lambda n: st.lists(st.integers(-30, 30), min_size=n, max_size=n)))
def test_discriminant_matches_sympy(low):
    sympy = pytest.importorskip("sympy")
    coeffs = tuple(low) + (1,)
    try:
        field = NumberField(coeffs)
    except ValueError:
        assume(False)
    x = sympy.Symbol("x")
    poly = sum(c * x**i for i, c in enumerate(coeffs))
    assert dkseq.discriminant_power_basis(field) == sympy.discriminant(poly, x)


def recurrence_holds(terms, t):
    """d_{k+4} = T d_{k+2} - d_k for every k with k + 4 <= len(terms), terms[i] = d_{i+1}."""
    return all(terms[i + 4] == t * terms[i + 2] - terms[i] for i in range(len(terms) - 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10**6), st.integers(5, 40), st.data())
def test_dk_recurrence_check_matches_sympy_dk(n, kmax, data):
    sympy = pytest.importorskip("sympy")
    # the Pell unit alpha = n + t of x^2 - (n^2 - 1): norm 1 and trace T = 2n
    X = sympy.Symbol("X")
    field = NumberField((1 - n * n, 0, 1))
    modulus = sympy.Poly(X**2 - (n * n - 1), X)
    power, base = sympy.Poly(1, X), sympy.Poly(X + n, X)
    want = []
    for _ in range(kmax):
        # alpha^k = a + b t, reduced mod X^2 - (n^2 - 1) by sympy over Z
        power = (power * base).rem(modulus)
        a, b = power.coeff_monomial(1), power.coeff_monomial(X)
        want.append(int(sympy.igcd(a - 1, b)))
    seq = dkseq.dk_sequence(field.element([n, 1]), field.power_basis(), kmax)
    terms = dk_ints(seq)
    assert terms == want
    check = dkseq.dk_recurrence_check(terms, 2 * n)
    assert check is seq.recurrence_ok is recurrence_holds(want, 2 * n) is True
    # one raised term: the verdict still follows sympy's terms through kmax
    i = data.draw(st.integers(0, kmax - 1))
    terms[i] += 1
    want[i] += 1
    assert dkseq.dk_recurrence_check(terms, 2 * n) is recurrence_holds(want, 2 * n)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.integers(3, 500).map(lambda t: ((1, 0, -t, 0, 1), 2)),  # x^4 - T x^2 + 1
        st.integers(2, 50).map(lambda c: ((-c, 0, 0, 0, 1), 4)),  # x^4 - c
        st.integers(2, 50).map(lambda c: ((-c, 0, 0, 0, 1), 2)),
        st.integers(2, 10**6).map(lambda c: ((-c, 0, 1), 2)),  # x^2 - c
    ),
    st.integers(0, 60),
)
def test_sparse_minpoly_scan_matches_sympy(spec, nmax):
    sympy = pytest.importorskip("sympy")
    coeffs, t = spec
    try:
        field = NumberField(coeffs)
    except ValueError:
        assume(False)
    X = sympy.Symbol("X")
    modulus = sympy.Poly(sum(c * X**i for i, c in enumerate(coeffs)), X)
    want = []
    for n in range(1, nmax + 1, t):
        # alpha^n = y1 + y2 t + ..., reduced mod f by sympy over Z
        power = sympy.Poly(X**n, X).rem(modulus)
        y = [int(power.coeff_monomial(X**i)) for i in range(len(coeffs) - 1)]
        d_tilde = int(sympy.igcd(y[0] - 1, *y[1:]))
        want.append((n, y[0], d_tilde))
    scan = dkseq.sparse_minpoly_scan(field, t, nmax)
    assert scan_rows(scan) == want
    assert scan.disc == sympy.discriminant(modulus.as_expr(), X)
    # the lacunary theorem: y1 vanishes on 1 + tZ
    assert scan.all_vanish() is all(y1 == 0 for _, y1, _ in want) is True


@pytest.mark.parametrize("kmax", [0, 1, 2, 3, 4, 5, 60])
@pytest.mark.parametrize("poly, alpha", [((-3, 0, 1), (2, 1)), ((-6, 0, 1), (5, 2)), ((-2, 0, 1), (3, 2))])
def test_match_dk_basis_against_the_companion_step(poly, alpha, kmax):
    # x1(0..3) is column 0 of the completion, and the later terms come from the
    # recurrence: kmax below 4 takes none of them, and kmax 4 and 5 the first ones
    field = NumberField(poly)
    alpha = field.element(alpha)
    report = dkseq.match_dk_basis(alpha, field.power_basis())
    t = -report.head.charpoly[2]
    d1 = report.head.terms[0][1]
    column = [row[0] for row in complete_primitive([x // d1 for x in report.head.terms[0]])]
    x1 = companion_first_coordinates(column, t, kmax)
    d = [0] + dk_ints(dkseq.dk_sequence(alpha, field.power_basis(), max(kmax, 4)))
    assert [x * d1 for x in x1] == d[: kmax + 1]


def test_match_dk_basis_reads_the_head_alone(monkeypatch):
    # the lemma proves the match from the head: wrong terms past it change nothing
    field = NumberField((-3, 0, 1))
    alpha = field.element((2, 1))
    want = dkseq.match_dk_basis(alpha, field.power_basis())
    original = dkseq.dk_sequence

    def broken(*args):
        # the lemma's record holds no term past the head: break its kmax, its
        # terms and its verdict instead
        seq = original(*args)
        return seq._replace(kmax=0, terms=[0] * 3, recurrence_ok=not seq.recurrence_ok)

    monkeypatch.setattr(dkseq, "dk_sequence", broken)
    assert dkseq.match_dk_basis(alpha, field.power_basis()) == want


@pytest.mark.parametrize(
    "poly, disc",
    [
        ((-3, 0, 1), 12),
        ((-2, 0, 0, 1), -108),
        ((1, 0, -10, 0, 1), 147456),
        ((1, -1, -3, -1, 1), -1323),
    ],
)
def test_discriminant_pinned(poly, disc):
    assert dkseq.discriminant_power_basis(NumberField(poly)) == disc


def least_pell_solution(D):
    """The least a, b > 0 with a^2 - D b^2 = 1, from the continued fraction of sqrt D."""
    a0 = math.isqrt(D)
    m, d, a = 0, 1, a0
    p0, p1, q0, q1 = 1, a0, 0, 1
    while p1 * p1 - D * q1 * q1 != 1:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        p0, p1, q0, q1 = p1, a * p1 + p0, q1, a * q1 + q0
    return p1, q1


def norm_one_quadratic_units():
    """Nontorsion units of norm 1 over the power basis of a real quadratic field.

    +-a +- b t over x^2 - D for the least Pell solution of each nonsquare D in
    2..79, and every u + v t of norm u^2 + uv - m v^2 = 1 with |u|, |v| <= 30
    over x^2 - x - m for m in 1..30 with x^2 - x - m irreducible.
    """
    units = []
    for D in range(2, 80):
        if math.isqrt(D) ** 2 != D:
            a, b = least_pell_solution(D)
            field = NumberField((-D, 0, 1))
            units += [field.element([sa * a, sb * b]) for sa in (1, -1) for sb in (1, -1)]
    for m in range(1, 31):
        if math.isqrt(1 + 4 * m) ** 2 != 1 + 4 * m:
            field = NumberField((-m, -1, 1))
            units += [
                field.element([u, v])
                for u in range(-30, 31)
                for v in range(-30, 31)
                if v and u * u + u * v - m * v * v == 1 and abs(2 * u + v) > 2
            ]
    return units


def test_d3_is_t_plus_one_in_absolute_value_times_d1():
    # (T + 1) d_1 fails at every T < 0: -2 + t over x^2 - 3, of T = -4, gives d = 1, 2, 3, 8
    units = norm_one_quadratic_units()
    assert len(units) == 348
    for alpha in units:
        mp = numberfield.min_poly(alpha)
        assert mp[0] == 1
        t = -int(mp[1])
        ring = alpha.field.power_basis()
        assert dkseq.dk(alpha, ring, 3) == abs(t + 1) * dkseq.dk(alpha, ring, 1), (alpha, t)


def ring_of(field, basis):
    """The ModuleBasis that a --module-basis text names."""
    return numberfield.ModuleBasis(
        field, tuple(numberfield.parse_element(field, p) for p in basis.split(";"))
    )


@st.composite
def half_index_cases(draw):
    """(alpha, ring) that the half-index lemma covers, with alpha a nontorsion unit.

    Quadratic: a power of the Pell unit of x^2 - D, over Z[f t] for f in {1, 2, 3},
    the least power that lies in it; or over O_K = Z[(1 + t)/2] for D = 1 mod 4,
    a half-integral unit (u + v t)/2 where one exists, squared when of norm -1.
    Quartic: t, t^3 and 1/t of a lacunary x^4 - T x^2 + 1 over its power basis,
    or over the maximal order at T = 10. Each unit is then raised to a power,
    and maybe inverted and negated; negation flips the sign of a quadratic
    unit's trace.
    """
    if draw(st.booleans()):
        D = draw(st.integers(2, 80).filter(lambda n: math.isqrt(n) ** 2 != n))
        field = NumberField((-D, 0, 1))
        a, b = least_pell_solution(D)
        unit = field.element([a, b])
        order = draw(st.sampled_from(["O_K", 1, 2, 3] if D % 4 == 1 else [1, 2, 3]))
        if order == "O_K":
            ring = ring_of(field, "1;1/2+1/2t")
            # the least odd v with D v^2 + s = u^2, s = +-4: (u + v t)/2 has norm -s/4
            found = next(((math.isqrt(D * v * v + s), v) for v in range(1, 400, 2) for s in (4, -4)
                          if math.isqrt(D * v * v + s) ** 2 == D * v * v + s), None)
            if found:
                half = field.element([Fraction(found[0], 2), Fraction(found[1], 2)])
                unit = half if numberfield.norm(half) == 1 else half * half
        else:
            ring = ring_of(field, f"1;{order}t")
            while ring.int_coords(unit)[1] != 1:
                unit = unit * field.element([a, b])
    else:
        T = draw(st.one_of(st.just(10), st.sampled_from([*range(3, 40), *range(-40, -2)])))
        try:
            field = NumberField((1, 0, -T, 0, 1))
        except ValueError:
            assume(False)
        t = field.generator
        ring = ring_of(field, MAXIMAL_ORDER) if T == 10 and draw(st.booleans()) else field.power_basis()
        unit = draw(st.sampled_from([t, t * t * t, t.inverse()]))
    alpha = unit ** draw(st.integers(1, 3))
    if draw(st.booleans()):
        alpha = alpha.inverse()
    if draw(st.booleans()):
        alpha = -alpha
    return alpha, ring


@settings(max_examples=80, deadline=None)
@given(half_index_cases())
def test_half_index_lemma_matches_the_dk_oracle_through_k_120(case):
    alpha, ring = case
    want = [dkseq.dk(alpha, ring, k) for k in range(1, 121)]
    seq = dkseq.dk_sequence(alpha, ring, 120)
    assert seq.head is not None and dk_ints(seq) == want
    # a d_2 one off, the second of the lemma's two gcds, changes the terms
    calls = []

    def gcd(*args):
        calls.append(args)
        return math.gcd(*args) + (len(calls) == 2)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dkseq, "math", types.SimpleNamespace(gcd=gcd))
        assert dk_ints(dkseq.dk_sequence(alpha, ring, 120)) != want
    assert len(calls) == 2


# t, -t and t^3 as (power, sign)
LACUNARY = [(1, 1), (1, -1), (3, 1)]


def level_scan_box():
    """(field, ring basis, unit, power, sign) for the closed-form level scan's box.

    Pell units of x^2 - D and their squares, at both signs of T; the norm-1
    half-integral units over Z[(1+t)/2] of x^2 - 5, x^2 - 13 and x^2 - 21, and
    their squares, at both signs; t, -t and t^3 of x^4 - T x^2 + 1 at odd, even
    and negative T, over the power basis, and t, -t, t^3 and t^2 over the
    maximal order at T = 10.
    """
    cases = []
    for D in (2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17, 19, 61):
        a, b = least_pell_solution(D)
        cases += [(f"x^2-{D}", "1;t", f"{a}+{b}t", e, sign) for e in (1, 2) for sign in (1, -1)]
    for D, unit in ((5, "3/2+1/2t"), (13, "11/2+3/2t"), (21, "5/2+1/2t")):
        cases += [(f"x^2-{D}", "1;1/2+1/2t", unit, e, sign) for e in (1, 2) for sign in (1, -1)]
    for T in (4, 5, 8, 9, 10, 12, 13, 109, 111, -3, -4, -5, -6, -9):
        cases += [(f"x^4{-T:+}x^2+1", "1;t;t^2;t^3", "t", e, sign) for e, sign in LACUNARY]
    cases += [("x^4-10x^2+1", MAXIMAL_ORDER, "t", e, sign) for e, sign in [*LACUNARY, (2, 1)]]
    return cases


@pytest.mark.parametrize("poly, basis, unit, e, sign", level_scan_box())
def test_closed_form_level_hits_are_the_scan_of_the_dk_oracle(poly, basis, unit, e, sign):
    # the hits d_k = d_1 that dk_level_scan reads off the half-index lemma's head,
    # against a scan of dkseq.dk at every k, and the head's expansion against dk
    field = NumberField(numberfield.parse_polynomial(poly))
    ring = ring_of(field, basis)
    alpha = numberfield.parse_element(field, unit) ** e * field.from_int(sign)
    dks = [dkseq.dk(alpha, ring, k) for k in range(1, 41)]
    for kmax in [*range(1, 13), 40]:
        seq = dkseq.dk_sequence(alpha, ring, kmax)
        assert seq.head is not None and seq.terms is None and seq.kmax == kmax
        assert dk_ints(seq) == dks[:kmax]
        hits = [k for k, d in enumerate(dks[:kmax], 1) if d == dks[0]]
        assert dkseq.dk_level_scan(seq) == hits, kmax
    if e == 1 and poly in ("x^4-5x^2+1", "x^4-9x^2+1", "x^4-109x^2+1", "x^4-111x^2+1"):
        # d_4(+-t) = d_2(t^2) = 1: k = 4 is a hit as well as k = 2
        assert seq.step == 2 and hits[:6] == [1, 2, 3, 4, 5, 7]


# (field polynomial, units of the field to draw from): norm 1, norm -1 and torsion
SDS_FIELDS = {
    (-3, 0, 1): ["2+t", "-1"],
    (-2, 0, 1): ["1+t", "3+2t"],
    (-2, 0, 0, 1): ["-1+t"],
    (1, 0, -10, 0, 1): ["t", "3-9t+t^3"],
    (1, 0, 0, 0, 1): ["t"],
}


@st.composite
def ring_elements(draw):
    """(alpha, ring): a ring basis, and alpha in the ring, so that alpha keeps it.

    The ring is the power basis, Z[f t] for f in {2, 3}, or O_K of
    x^4 - 10x^2 + 1. alpha is a ring element with coordinates in -3..3, mostly
    no unit; or a power of a unit or root of unity of the field, the least
    multiple of the drawn power that lies in the ring, maybe negated.
    """
    poly = draw(st.sampled_from(list(SDS_FIELDS)))
    field = NumberField(poly)
    rings = ["power", 2, 3] + (["O_K"] if poly == (1, 0, -10, 0, 1) else [])
    kind = draw(st.sampled_from(rings))
    if kind == "power":
        ring = field.power_basis()
    elif kind == "O_K":
        ring = ring_of(field, MAXIMAL_ORDER)
    else:
        powers = tuple((field.generator * kind) ** i for i in range(field.degree))
        ring = numberfield.ModuleBasis(field, powers)
    if draw(st.booleans()):
        coords = draw(st.lists(st.integers(-3, 3), min_size=field.degree, max_size=field.degree))
        alpha = field.element([0] * field.degree)
        for c, v in zip(coords, ring.vectors):
            alpha = alpha + v * c
        return alpha, ring
    base = numberfield.parse_element(field, draw(st.sampled_from(SDS_FIELDS[poly]))) ** draw(
        st.integers(1, 3)
    )
    alpha = base
    while ring.int_coords(alpha)[1] != 1:
        alpha = alpha * base
    return (-alpha if draw(st.booleans()) else alpha), ring


@settings(max_examples=80, deadline=None)
@given(ring_elements())
def test_dk_is_a_strong_divisibility_sequence(case):
    # gcd(d_m, d_n) = d_gcd(m,n), the proof in the module docstring; math.gcd(0, x) = x
    # is the convention that 0 divides only 0, so torsion meets the identity too
    alpha, ring = case
    d = [None] + dk_ints(dkseq.dk_sequence(alpha, ring, 40))
    for m in range(1, 41):
        for n in range(m, 41):
            assert math.gcd(d[m], d[n]) == d[math.gcd(m, n)], (m, n)
