import functools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlds import coordseq
from normlds.basisforge import (
    _as_int_rows,
    _canonicalize_witness,
    family_basis,
    family_surd_basis,
    quad_construct,
    snf_criterion_matrix,
)
from normlds.exactlinalg import IntMatrix, det, snf
from normlds.lucas import LucasParams, lucas_u
from normlds.numberfield import ModuleBasis, NumberField, parse_element


def canonicalize_witness_search(
    x: IntMatrix, y: IntMatrix, deltas: tuple[int, ...], v: tuple[int, ...]
) -> tuple[IntMatrix, IntMatrix]:
    """The search over [0, R)^3 that the closed form replaces, kept as its reference."""
    ratio = deltas[3] // deltas[0]
    if ratio == 1:
        return x, y
    chi = x.apply(v)
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
                    return IntMatrix.from_rows(u) @ x, y @ IntMatrix.from_rows(vmat)
    return x, y


def elementary(i: int, j: int, k: int) -> IntMatrix:
    rows = [[int(r == c) for c in range(4)] for r in range(4)]
    rows[i][j] += k
    return IntMatrix.from_rows(rows)


unimodular = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3)).filter(
        lambda op: op[0] != op[1]
    ),
    max_size=12,
).map(
    lambda ops: functools.reduce(
        operator.matmul, (elementary(*op) for op in ops), IntMatrix.identity(4)
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
    b = p @ IntMatrix.diagonal(list(deltas)) @ q
    dec = snf(b)
    assert dec.d == deltas
    v = (0, 1, 1, t_trace + 1)
    assert _canonicalize_witness(dec.x, dec.y, dec.d, v) == canonicalize_witness_search(
        dec.x, dec.y, dec.d, v
    )


def test_witness_of_the_ratio_16028_case():
    field = NumberField((1, 0, -26, 0, 1))
    eta = field.generator
    beta = parse_element(field, "2-t+t^3", "t")
    b = _as_int_rows(field.power_basis(), [beta, beta * eta, beta * eta**2, beta * eta**3], "")
    dec = snf(b)
    assert dec.d == (1, 1, 4, 16028)
    x, y = _canonicalize_witness(dec.x, dec.y, dec.d, (0, 1, 1, 27))
    # (t3, t2, t1) = (1, 0, 0): row 3 of X, times d4/d3, added to row 4. Every
    # candidate with t3 = 0 is even, so the search tried all R^2 of them first
    assert x == elementary(3, 2, 4007) @ dec.x
    assert y == dec.y @ elementary(3, 2, -1)


def cramer_solution(b: IntMatrix, v: tuple[int, ...]) -> list[Fraction]:
    """B^-1 v, one determinant per coordinate."""
    d = det(b)
    cols = [list(b.column(j)) for j in range(4)]
    w = []
    for j in range(4):
        replaced = cols[:j] + [list(v)] + cols[j + 1 :]
        w.append(Fraction(det(IntMatrix.from_rows(replaced).transpose()), d))
    return w


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-1000, 1000), min_size=16, max_size=16),
    st.integers(-(10**6), 10**6),
)
def test_lift_is_primitive(entries, t_trace):
    b = IntMatrix.from_rows([entries[4 * i : 4 * i + 4] for i in range(4)])
    if det(b) == 0:
        return
    v = (0, 1, 1, t_trace + 1)
    w = cramer_solution(b, v)
    scale = math.lcm(*(c.denominator for c in w))
    z = tuple(int(scale * c) for c in w)
    assert math.gcd(*z) == 1
    crit = snf_criterion_matrix(b, t_trace)
    assert crit.scale == scale
    assert crit.y.apply(crit.lift_column) == z


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
VALID_M = [m for m in range(2, 60) if math.isqrt(m) ** 2 != m and math.isqrt(m + 1) ** 2 != m + 1]


@pytest.mark.parametrize("m", VALID_M)
def test_family_basis_is_an_lds_basis_of_the_closed_form_module(m):
    cons = family_basis(m)
    field = cons.basis.field
    x1 = coordseq.generate(field.one, field.generator, cons.basis, 120).column(1)
    a = cons.scale
    assert x1[:4] == [0, a, a, a * (4 * m + 3)]
    assert coordseq.verify_lds(x1, 120).ok
    # the closed-form vectors have integral coordinates over the construction's
    # basis and the change of basis has det +-1, so both span one module
    rows = [cons.basis.coords(v) for v in family_closed_form_vectors(m).vectors]
    assert all(c.denominator == 1 for row in rows for c in row)
    assert det(IntMatrix.from_rows([[int(c) for c in row] for row in rows])) in (1, -1)


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
    x1 = coordseq.generate(beta, unit, cons.basis, 60).column(1)
    lucas = LucasParams(cons.t_trace, 1)
    assert x1 == [cons.scale * lucas_u(lucas, k) for k in range(61)]
    assert coordseq.verify_lds(x1, 60).ok
