import contextlib
import functools
import io
import math
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normlds import basisforge, cli, coordseq, dkseq, exactlinalg, numberfield
from normlds.basisforge import (
    _canonicalize_witness,
    family_basis,
    family_surd_basis,
    lds_basis,
    quad_construct,
    quartic_module_construct,
    quartic_unit_trace,
    snf_criterion_matrix,
)
from normlds.exactlinalg import apply, det, hnf_column, identity, inverse_unimodular, matmul, snf
from normlds.numberfield import ModuleBasis, NumberField, min_poly, parse_element
from oracles import lucas_terms, solve_linear


def canonicalize_witness_search(x, y, deltas: tuple[int, ...], v: tuple[int, ...]):
    """The search over [0, R)^3 that the closed form replaces, kept as its reference."""
    ratio = deltas[3] // deltas[0]
    if ratio == 1:
        return x, y
    chi = apply(x, v)
    if math.gcd(chi[3], ratio) == 1:
        return x, y
    steps = [deltas[3] // deltas[j] for j in range(3)]
    for t3 in range(ratio):
        for t2 in range(ratio):
            for t1 in range(ratio):
                cand = chi[3] + t1 * steps[0] * chi[0] + t2 * steps[1] * chi[1] + t3 * steps[2] * chi[2]
                if math.gcd(cand, ratio) == 1:
                    u = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [t1 * steps[0], t2 * steps[1], t3 * steps[2], 1]]
                    vmat = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-t1, -t2, -t3, 1]]
                    return matmul(u, x), matmul(y, vmat)
    return x, y


def elementary(i: int, j: int, k: int) -> list[list[int]]:
    rows = [[int(r == c) for c in range(4)] for r in range(4)]
    rows[i][j] += k
    return rows


unimodular = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)).filter(
        lambda op: op[0] != op[1]
    ),
    max_size=12,
).map(
    lambda ops: functools.reduce(
        matmul, (elementary(*op) for op in ops), identity(4)
    )
)


@st.composite
def smith_chains(draw):
    """Invariant factors d1 | d2 | d3 | d4 with d4/d1 <= 30."""
    d1 = draw(st.integers(1, 3))
    e3 = draw(st.integers(1, 30))
    e2 = draw(st.sampled_from([d for d in range(1, e3 + 1) if e3 % d == 0]))
    e1 = draw(st.sampled_from([d for d in range(1, e2 + 1) if e2 % d == 0]))
    return (d1, d1 * e1, d1 * e2, d1 * e3)


@settings(max_examples=300, deadline=None)
@given(smith_chains(), unimodular, unimodular, st.integers(-50, 50))
def test_closed_form_witness_matches_the_search(deltas, p, q, t_trace):
    b = matmul(matmul(p, [[d * e for e in row] for d, row in zip(deltas, identity(4))]), q)
    dec = snf(b)
    assert dec.d == deltas
    v = (0, 1, 1, t_trace + 1)
    assert _canonicalize_witness(dec.x, dec.y, dec.d, v) == canonicalize_witness_search(
        dec.x, dec.y, dec.d, v
    )


def test_witness_of_the_ratio_16028_case():
    field = NumberField((1, 0, -26, 0, 1))
    eta = field.generator
    beta = parse_element(field, "2-t+t^3")
    b = field.power_basis().power_rows(beta, eta, 4, str)
    dec = snf(b)
    assert dec.d == (1, 1, 4, 16028)
    x, y = _canonicalize_witness(dec.x, dec.y, dec.d, (0, 1, 1, 27))
    # (t3, t2, t1) = (1, 0, 0): row 3 of X, times d4/d3, added to row 4. Every
    # candidate with t3 = 0 is even, so the search tried all R^2 of them first
    assert x == matmul(elementary(3, 2, 4007), dec.x)
    assert y == matmul(dec.y, elementary(3, 2, -1))


def cramer_solution(b: list[list[int]], v: tuple[int, ...]) -> list[Fraction]:
    """B^-1 v, one determinant per coordinate."""
    d = det(b)
    cols = [list(col) for col in zip(*b)]
    w = []
    for j in range(4):
        replaced = cols[:j] + [list(v)] + cols[j + 1 :]
        w.append(Fraction(det(list(zip(*replaced))), d))
    return w


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), min_size=16, max_size=16),
    st.integers(-(10**6), 10**6),
)
def test_lift_is_primitive(entries, t_trace):
    b = [entries[4 * i : 4 * i + 4] for i in range(4)]
    if det(b) == 0:
        return
    v = (0, 1, 1, t_trace + 1)
    w = cramer_solution(b, v)
    scale = math.lcm(*(c.denominator for c in w))
    z = tuple(int(scale * c) for c in w)
    assert math.gcd(*z) == 1
    crit = snf_criterion_matrix(b, t_trace)
    assert crit.scale == scale
    assert apply(crit.y, crit.lift_column) == z


def family_closed_form_vectors(m: int) -> ModuleBasis:
    """The explicit classical vectors {sqrt(mn), sqrt m + 2(m-1) sqrt(mn), 1, ...}.

    They span the same module as family_basis(m) (the mutual change of basis is
    unimodular), but their first coordinate sequence starts (0, 2, 2, 2(2m+3)),
    which is incompatible with the recurrence x(k+4) = (4m+2) x(k+2) - x(k)
    forced by the unit's minimal polynomial, so x1 over these vectors is not a
    divisibility sequence (x1(3) already fails to divide x1(6) for m = 2).
    Kept as an independent description of the module family_basis(m) spans.
    """
    surds = family_surd_basis(m)
    one, sqrt_m, sqrt_n, sqrt_mn = surds.vectors
    w1 = sqrt_mn
    w2 = sqrt_m + sqrt_mn.scale(2 * (m - 1))
    w3 = one
    w4 = sqrt_m + sqrt_n - sqrt_mn.scale(2)
    return ModuleBasis(surds.field, (w1, w2, w3, w4))


# m and m + 1 both nonsquare
ADMISSIBLE_M = [m for m in range(2, 400) if math.isqrt(m) ** 2 != m and math.isqrt(m + 1) ** 2 != m + 1]
VALID_M = [m for m in ADMISSIBLE_M if m < 60]


@pytest.mark.parametrize("m", VALID_M)
def test_family_basis_is_an_lds_basis_of_the_closed_form_module(m):
    cons = family_basis(m)
    field = cons.basis.field
    x1 = coordseq.generate(field.one, field.generator, cons.basis, 120).terms[0]
    a = cons.scale
    assert x1[:4] == [0, a, a, a * (4 * m + 3)]
    assert coordseq.verify_lds(x1, 120).ok
    # the closed-form vectors have integral coordinates over the construction's
    # basis and the change of basis has det +-1, so both span one module
    rows = [cons.basis.coords(v) for v in family_closed_form_vectors(m).vectors]
    assert all(c.denominator == 1 for row in rows for c in row)
    assert det([[int(c) for c in row] for row in rows]) in (1, -1)


# every admissible m < 400, and four m of 26 to 201 digits
UNIFORM_M = ADMISSIBLE_M + [10**k + 2 for k in (25, 50, 100, 200)]
# the change of basis family_basis solves for: B(m) . (0, 2, 0, 1) = 2 . (0, 1, 1, 4m+3)
FAMILY_REDUCER = ((0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 2), (0, 0, -1, 0))


def test_family_basis_is_one_matrix_over_the_surds():
    assert len(UNIFORM_M) == 365
    assert exactlinalg.primitive_reducer((0, 2, 0, 1)) == FAMILY_REDUCER
    for m in UNIFORM_M:
        cons = family_basis(m)
        surds = family_surd_basis(m)
        assert cons.scale == 2, m
        assert tuple(surds.int_coords(v) for v in cons.basis.vectors) == tuple(
            (row, 1) for row in FAMILY_REDUCER
        ), m


def test_family_head_identity_is_polynomial_in_m():
    sympy = pytest.importorskip("sympy")
    m, s, r = sympy.symbols("m s r")
    # s = sqrt(m), r = sqrt(m + 1): eta^k reduced to the surd basis {1, s, r, s r}
    surd_rules = [s**2 - m, r**2 - m - 1]
    rows = []
    for k in range(4):
        _, rem = sympy.reduced(sympy.expand((s + r) ** k), surd_rules, s, r)
        poly = sympy.Poly(rem, s, r)
        rows.append([sympy.expand(poly.coeff_monomial(mono)) for mono in (1, s, r, s * r)])
    assert rows == [[1, 0, 0, 0], [0, 1, 1, 0], [2 * m + 1, 0, 0, 2], [0, 4 * m + 3, 4 * m + 1, 0]]
    head = [sympy.expand(sum(c * z for c, z in zip(row, (0, 2, 0, 1)))) for row in rows]
    assert head == [0, 2, 2, sympy.expand(2 * (4 * m + 3))]
    # the library's coordinates of eta^k over family_surd_basis(m) are these polynomials
    for value in (2, 5, 10**25 + 2):
        surds = family_surd_basis(value)
        eta = surds.field.generator
        library = surds.power_rows(surds.field.one, eta, 4, str)
        assert [list(row) for row in library] == [[int(c.subs(m, value)) for c in row] for row in rows]


@given(
    st.integers(2, 200),
    st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(any),
)
@settings(max_examples=60, deadline=None)
def test_quad_construct_x1_is_a_scaled_lucas_sequence(n, beta_coords):
    # the Pell field x^2 - (n^2 - 1) with the norm-1 unit n + t of trace T = 2n
    field = NumberField((1 - n * n, 0, 1))
    unit, beta = field.element([n, 1]), field.element(list(beta_coords))
    cons = quad_construct(field.power_basis(), beta, unit)
    assert cons.t_trace == 2 * n
    # the scale is the pivot a22 of the column Hermite form of B
    b = [beta.num, (beta * unit).num]
    assert cons.scale == hnf_column(b).h[1][1]
    x1 = coordseq.generate(beta, unit, cons.basis, 60).terms[0]
    assert x1 == [cons.scale * u for u in lucas_terms(cons.t_trace, 1, 61)]
    assert coordseq.verify_lds(x1, 60).ok


@given(
    st.integers(2, 60).filter(lambda d: math.isqrt(d) ** 2 != d),
    st.integers(-20, 20).filter(bool),
    st.integers(1, 20),
)
@example(d=3, p=2, q=1)
@settings(max_examples=80, deadline=None)
def test_quad_construct_refuses_a_norm_1_eps_with_fractional_coordinates(d, p, q):
    # eps = a + b t with a = (1 + d s^2)/(1 - d s^2), b = 2s/(1 - d s^2) has
    # a^2 - d b^2 = 1 for every rational s = p/q, and b != 0; s = 2 over x^2 - 3
    # gives -13/11 - 4/11 t
    s = Fraction(p, q)
    a, b = (1 + d * s * s) / (1 - d * s * s), 2 * s / (1 - d * s * s)
    assume(a.denominator != 1 or b.denominator != 1)
    field = NumberField((-d, 0, 1))
    eps = field.element([a, b])
    with pytest.raises(ValueError, match="^eps does not multiply the module into itself$"):
        quad_construct(field.power_basis(), field.one, eps)



def quartic_unit_trace_reference(eta):
    """quartic_unit_trace read off the minimal polynomials of eta and of eta^2."""
    if len(min_poly(eta)) - 1 != 4:
        raise ValueError("unit must have degree 4")
    mp_eps = min_poly(eta * eta)
    if len(mp_eps) - 1 != 2:
        raise ValueError("square of the unit must generate a quadratic subfield")
    if mp_eps[0] != 1:
        raise ValueError(f"square of the unit must have relative norm 1, got {mp_eps[0]}")
    t = -mp_eps[1]
    if t.denominator != 1:
        raise ValueError("unit is not an algebraic integer")
    return int(t)


def outcome(fn, eta):
    try:
        return fn(eta)
    except ValueError as exc:
        return str(exc)


# Q(sqrt 2, sqrt 3) = Q(t) with t = sqrt 2 + sqrt 3
BIQUAD = NumberField((1, 0, -10, 0, 1))


@pytest.mark.parametrize(
    "field, eta, message",
    [
        # rational: the first check wins over the second
        (BIQUAD, "2", "unit must have degree 4"),
        # 5 + 2 sqrt 6
        (BIQUAD, "t^2", "unit must have degree 4"),
        # X^4 - 4X^3 - 4X^2 + 16X - 8
        (BIQUAD, "1+t", "square of the unit must generate a quadratic subfield"),
        # X^4 - 72X^3 + 336X^2 - 1152: only the X^3 coefficient is odd-degree
        (BIQUAD, "3+t+3t^2+t^3", "square of the unit must generate a quadratic subfield"),
        # eps = (5 + 2 sqrt 6)/4 has norm 1/16 and trace 5/2: the norm check wins
        (BIQUAD, "1/2t", "square of the unit must have relative norm 1, got 1/16"),
        # eps = 1 + sqrt 2, a unit of norm -1
        (NumberField((-1, 0, -2, 0, 1)), "t", "square of the unit must have relative norm 1, got -1"),
        # -13/5 sqrt 2 - 11/5 sqrt 3: eps has norm 1 and trace 1402/25
        (BIQUAD, "-2/5t-1/5t^3", "unit is not an algebraic integer"),
        # X^4 + X + 1: only the X coefficient is odd-degree
        (NumberField((1, 1, 0, 0, 1)), "t", "square of the unit must generate a quadratic subfield"),
    ],
)
def test_quartic_unit_trace_refusals(field, eta, message):
    with pytest.raises(ValueError) as exc:
        quartic_unit_trace(parse_element(field, eta))
    assert str(exc.value) == message


@pytest.mark.parametrize("eta, t_trace", [("t", 10), ("-t", 10), ("t^3", 970), ("t^3-10t", 10)])
def test_quartic_unit_trace_of_units(eta, t_trace):
    assert quartic_unit_trace(parse_element(BIQUAD, eta)) == t_trace


QUARTIC_FIELDS = [
    BIQUAD,
    NumberField((1, 0, -4, 0, 1)),
    NumberField((-2, 0, 0, 0, 1)),
    NumberField((1, -1, -3, -1, 1)),
    NumberField((5, 0, -5, 0, 1)),
    # t = sqrt(1 + sqrt 2), whose square has relative norm -1
    NumberField((-1, 0, -2, 0, 1)),
]


@st.composite
def quartic_elements(draw):
    """An element of one of QUARTIC_FIELDS, with small coordinates over a small denominator."""
    field = draw(st.sampled_from(QUARTIC_FIELDS))
    coords = draw(st.lists(st.integers(-6, 6), min_size=4, max_size=4))
    den = draw(st.sampled_from([1, 2, 3, 5]))
    # odd elements of the lacunary fields square into Q(t^2), the case that passes
    if draw(st.booleans()):
        coords[0] = coords[2] = 0
    return field.element([Fraction(c, den) for c in coords])


@given(quartic_elements())
@settings(max_examples=300, deadline=None)
def test_quartic_unit_trace_matches_the_two_minpoly_reading(eta):
    assert outcome(quartic_unit_trace, eta) == outcome(quartic_unit_trace_reference, eta)


@given(quartic_elements())
# a Lehmer unit, a unit whose square has relative norm -1, and a unit of
# X^4 + X + 1, whose X coefficient alone is odd-degree
@example(BIQUAD.generator)
@example(NumberField((-1, 0, -2, 0, 1)).generator)
@example(NumberField((1, 1, 0, 0, 1)).generator)
@settings(max_examples=300, deadline=None)
def test_quartic_unit_trace_accepts_exactly_the_quartic_entries_of_the_table(eta):
    # the reader keeps its own refusals, so its shape test and the table's are
    # two; they agree, and on T, which is row 4 of the first entry at b = 1
    mp = min_poly(eta)
    integral = all(c.denominator == 1 for c in mp)
    entries = coordseq.lds_targets([int(c) for c in mp]) if integral else []
    quartic = [entry for entry in entries if len(entry) == 5]
    got = outcome(quartic_unit_trace, eta)
    if quartic:
        assert got == quartic[0][4]
    else:
        assert isinstance(got, str)


# x^2 - d and x^4 - T x^2 + 1, each irreducible
LDS_FIELDS = [NumberField((-d, 0, 1)) for d in (2, 3, 5, 13)] + [
    NumberField((1, 0, -t, 0, 1)) for t in (4, 5, 10, 12)
]


@st.composite
def lds_cases(draw):
    """A field, a nonzero integral beta, an eps of full degree and a primitive v."""
    field = draw(st.sampled_from(LDS_FIELDS))
    n = field.degree
    coords = st.lists(st.integers(-30, 30), min_size=n, max_size=n)
    beta = field.element(draw(coords.filter(any)))
    eps = field.element(draw(coords))
    assume(len(min_poly(eps)) - 1 == n)
    primitive = st.lists(st.integers(-20, 20), min_size=n, max_size=n).filter(lambda v: math.gcd(*v) == 1)
    v = draw(primitive)
    return field, beta, eps, tuple(v)


@given(lds_cases())
@settings(max_examples=200, deadline=None)
def test_lds_basis_starts_x1_at_scale_times_v(case):
    field, beta, eps, v = case
    n = field.degree
    basis, scale = lds_basis(field.power_basis(), beta, eps, v)
    powers = [beta]
    for _ in range(n - 1):
        powers.append(powers[-1] * eps)
    # coordinates over the new basis, solved over Fraction
    columns = [w.coords for w in basis.vectors]
    first = [solve_linear(columns, p.coords)[0] for p in powers]
    assert first == [scale * x for x in v]
    # the new vectors are an integral unimodular change of the power basis
    assert all(c.denominator == 1 for w in basis.vectors for c in w.coords)
    assert det([[int(c) for c in w.coords] for w in basis.vectors]) in (1, -1)
    # scale is the least that clears B^-1 v
    b_columns = list(zip(*(p.coords for p in powers)))
    assert scale == math.lcm(*(x.denominator for x in solve_linear(b_columns, v)))


# (D, (a, b)) with a^2 - D b^2 = 1: a + b t is a norm-1 unit of x^2 - D
PELL_UNITS = [(2, (3, 2)), (3, (2, 1)), (5, (9, 4)), (6, (5, 2)), (7, (8, 3)), (13, (649, 180))]


@st.composite
def table_units(draw):
    """(beta, eps): eps a norm-1 unit whose charpoly has entries in coordseq.lds_targets.

    Quadratic: +-u^k, k = 1, 2 or -1, for a Pell unit u of x^2 - D. Quartic:
    +-t^k, k = 1, -1 or 3, in an irreducible x^4 - T x^2 + 1, where every
    one of full degree has charpoly X^4 - T' X^2 + 1. beta is integral and
    nonzero.
    """
    if draw(st.booleans()):
        d, unit = draw(st.sampled_from(PELL_UNITS))
        field = NumberField((-d, 0, 1))
        eps = field.element(list(unit)) ** draw(st.sampled_from([1, 2, -1]))
    else:
        field = draw(st.sampled_from(list(quartic_power_fields())))
        eps = field.generator ** draw(st.sampled_from([1, -1, 3]))
        assume(len(min_poly(eps)) == 5)
    eps = eps * draw(st.sampled_from([1, -1]))
    n = field.degree
    beta = field.element(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n).filter(any)))
    return beta, eps


@given(table_units())
@settings(max_examples=200, deadline=None)
def test_the_builder_and_the_prover_read_one_table(case):
    # for each entry, lds_basis with v = entry[:d] starts x1 at scale * entry,
    # rows 0..d; column_verdict proves that column from its head, with no
    # verify_lds call, and the pair scan passes it through n = 200
    beta, eps = case
    field = beta.field
    charpoly = [int(c) for c in min_poly(eps)]
    d = len(charpoly) - 1
    entries = coordseq.lds_targets(charpoly)
    assert len(entries) == {2: 1, 4: 2}[d]
    scan = coordseq.verify_lds
    for entry in entries:
        basis, scale = lds_basis(field.power_basis(), beta, eps, entry[:d])
        head = coordseq.sequence_head(beta, eps, basis, d)
        assert head.terms[0] == [scale * x for x in entry]
        scans = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(coordseq, "verify_lds", lambda *args: scans.append(args) or scan(*args))
            assert coordseq.column_verdict(head, 1, 200) == (True, None)
        assert scans == []
        assert scan(coordseq.column_terms(head, 1), 200) == (True, None)


def quartic_power_fields():
    """The irreducible x^4 - T x^2 + 1 for |T| <= 40, in each of which t has that charpoly."""
    for t_trace in range(-40, 41):
        try:
            yield NumberField((1, 0, -t_trace, 0, 1))
        except ValueError:
            pass


@given(
    st.sampled_from(list(quartic_power_fields())),
    st.lists(st.integers(-30, 30), min_size=4, max_size=4).filter(any),
    st.sampled_from([1, 2, 7]),
)
@settings(max_examples=200, deadline=None)
def test_quartic_power_basis_is_the_inverse_of_a_applied_to_the_powers(field, coords, den):
    beta = field.element([Fraction(c, den) for c in coords])
    eta = field.generator
    cons = quartic_module_construct(beta, eta)
    t_trace = -field.coeffs[2]
    assert (cons.scale, cons.t_trace) == (1, t_trace)
    a = [[0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [t_trace + 1, 1, 0, 0]]
    powers = [beta, beta * eta, beta * eta * eta, beta * eta * eta * eta]
    expected = tuple(
        functools.reduce(operator.add, (p.scale(c) for c, p in zip(row, powers)))
        for row in inverse_unimodular(a)
    )
    assert cons.basis.vectors == expected


def count_calls(monkeypatch, name):
    """The callers of exactlinalg.<name> from every normlds module that holds it, one per call.

    A caller is named by its qualified name, such as "ModuleBasis.__new__".
    """
    calls = []
    original = getattr(exactlinalg, name)

    def counting(*args):
        calls.append(sys._getframe(1).f_code.co_qualname)
        return original(*args)

    for module in (exactlinalg, numberfield, basisforge, coordseq, dkseq, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_quartic_power_inverts_one_matrix(monkeypatch):
    inverses = count_calls(monkeypatch, "fraction_free_inverse")
    unimodular = count_calls(monkeypatch, "inverse_unimodular")
    argv = ["construct-basis", "--method", "quartic-power", "--field", "x^4-10x^2+1",
            "--unit", "t", "--beta", "2-t+t^3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    # one basis matrix: the ModuleBasis of the written-out vectors, which checks their
    # independence; besides it only min_poly(eta), which solves for the power eta^4
    assert sorted(inverses) == ["ModuleBasis.__new__", "min_poly"]
    assert unimodular == []
