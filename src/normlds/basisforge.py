"""Basis constructions that turn the first coordinate sequence into an LDS.

Three constructions are exposed. For a real quadratic module, a column Hermite
step followed by the fixed change of basis [[1,1],[1,0]] forces x1(0) = 0, and
an order-2 sequence with a zero leading term is a scaled Lucas sequence. For
the rank-4 module beta*Z[eta] generated by a quartic unit eta whose square is
a norm-1 quadratic unit, an explicit unimodular matrix produces initial
conditions (0, 1, 1, T+1), the sufficient pattern for the order-4 recurrence
x(k+4) = T x(k+2) - x(k). For an arbitrary full rank-4 module the same pattern
is reachable exactly when the minimal integral lift of the Smith-transformed
condition vector is primitive, which it is for every full module (see
SnfCriterion); the criterion and the construction both live in
snf_criterion / quartic_full_construct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactlinalg import (
    IntMatrix,
    complete_primitive,
    det,
    hnf_column,
    inverse_unimodular,
    snf,
)
from .numberfield import (
    FieldElement,
    ModuleBasis,
    NumberField,
    min_poly,
    norm,
    trace,
)


class InvariantViolation(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class LdsConstruction:
    """A basis under which x1 is an LDS, with its scale and trace parameter.

    In the quartic constructions x1 has initial conditions
    (0, scale, scale, scale*(t_trace+1)); in the quadratic one they start
    (0, scale) and x1(k) = scale * u_k for the Lucas sequence of the unit.
    """

    basis: ModuleBasis
    scale: int
    t_trace: int
    source: str


@dataclass(frozen=True)
class SnfCriterion:
    """The full-module test: Smith form, condition vector and its minimal lift.

    chi is the Smith-transformed condition vector X . (0, 1, 1, T+1), and
    lift_column = scale . diag(deltas)^-1 . chi is its minimal integral scaling.
    The construction exists iff lift_column is primitive, and it always is: with
    w = B^-1 . (0, 1, 1, T+1), lift_column = Y^-1 . (scale . w), scale is the lcm
    of the denominators of w, and a prime dividing every entry of scale . w would
    either make scale/p a smaller scale or divide the primitive (0, 1, 1, T+1).
    snf_criterion_matrix checks this. The witness X, Y is the Smith witness with
    row 4 of X shifted by the closed form of _canonicalize_witness, which makes
    gcd(chi[3], deltas[3]/deltas[0]) = 1 whenever any such shift does.
    """

    chi: tuple[int, int, int, int]
    deltas: tuple[int, int, int, int]
    t_trace: int
    scale: int
    lift_column: tuple[int, int, int, int]
    b: IntMatrix
    x: IntMatrix
    y: IntMatrix


def quartic_unit_trace(eta: FieldElement) -> int:
    """T = eps + conj(eps) for eps = eta^2, validating the required structure.

    eta must be quartic, eps = eta^2 must generate a quadratic subfield, and
    eps must have relative norm 1 there (so eta's minimal polynomial is
    X^4 - T X^2 + 1). All three are read off mp = X^4 + c3 X^3 + ... + c0, the
    minimal polynomial of eta: eps of degree 2 with minimal polynomial g makes
    mp = g(X^2), and c3 = c1 = 0 makes eps a root of X^2 + c2 X + c0, of
    degree 2 since eta has degree 4.
    """
    mp = min_poly(eta)
    if len(mp) - 1 != 4:
        raise ValueError("unit must have degree 4")
    c0, c1, c2, c3, _ = mp
    if c1 or c3:
        raise ValueError("square of the unit must generate a quadratic subfield")
    if c0 != 1:
        raise ValueError(f"square of the unit must have relative norm 1, got {c0}")
    t = -c2
    if t.denominator != 1:
        raise ValueError("unit is not an algebraic integer")
    return int(t)


def _as_int_rows(basis: ModuleBasis, elements: list[FieldElement], what: str) -> IntMatrix:
    rows = []
    for e in elements:
        coords, den = basis.int_coords(e)
        if den != 1:
            raise ValueError(f"{what} does not lie in the module (fractional coordinates)")
        rows.append(coords)
    return IntMatrix.from_rows(rows)


def _change_basis(tbasis: ModuleBasis, matrix: IntMatrix) -> ModuleBasis:
    """New basis with vectors matrix . (old vectors)."""
    vecs = []
    for row in matrix.entries:
        vecs.append(tbasis.combine(row))
    return ModuleBasis(tbasis.field, tuple(vecs))


def _assert_spans_same_module(tbasis: ModuleBasis, newbasis: ModuleBasis) -> None:
    m = []
    for v in newbasis.vectors:
        coords, den = tbasis.int_coords(v)
        if den != 1:
            raise InvariantViolation("constructed basis left the module")
        m.append(coords)
    if det(IntMatrix.from_rows(m)) not in (1, -1):
        raise InvariantViolation("constructed basis does not span the module")


def quad_construct(tbasis: ModuleBasis, beta: FieldElement, eps: FieldElement) -> LdsConstruction:
    """Quadratic-module construction: basis with x1(0) = 0, x1(k) = a22 * u_k.

    Requires a real quadratic field, a nontorsion norm-1 unit eps that
    multiplies the module into itself, and beta a nonzero module element.
    """
    field = tbasis.field
    if field.degree != 2:
        raise ValueError("construction requires a quadratic field")
    _, c1, _ = field.coeffs
    if c1 * c1 - 4 * field.coeffs[0] < 0:
        raise ValueError("construction requires a real quadratic field")
    if norm(eps) != 1:
        raise ValueError("eps must have norm 1")
    if eps.is_rational():
        raise ValueError("eps is torsion (rational)")
    for v in tbasis.vectors:
        if tbasis.int_coords(eps * v)[1] != 1:
            raise ValueError("eps does not multiply the module into itself")
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    b = _as_int_rows(tbasis, [beta, beta * eps], "beta")
    if det(b) == 0:
        raise ValueError("beta and beta*eps are linearly dependent")
    dec = hnf_column(b)
    # v = C^-1 t, then w1 = v1 + v2, w2 = v1
    v_basis = _change_basis(tbasis, inverse_unimodular(dec.c))
    w = ModuleBasis(field, (v_basis.vectors[0] + v_basis.vectors[1], v_basis.vectors[0]))
    a22 = dec.h.entries[1][1]
    if a22 <= 0:
        raise InvariantViolation("Hermite pivot should be positive")
    t = trace(eps)
    if t.denominator != 1:
        raise ValueError("eps is not an algebraic integer")
    _assert_spans_same_module(tbasis, w)
    return LdsConstruction(basis=w, scale=a22, t_trace=int(t), source="quadratic")


def quartic_module_construct(beta: FieldElement, eta: FieldElement) -> LdsConstruction:
    """Basis of beta*Z[eta] with x1 initial conditions (0, 1, 1, T+1)."""
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    t = quartic_unit_trace(eta)
    a = IntMatrix.from_rows(
        [[0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [t + 1, 1, 0, 0]]
    )
    a_inv = inverse_unimodular(a)
    powers = [beta, beta * eta, beta * eta * eta, beta * eta * eta * eta]
    vectors = []
    for row in a_inv.entries:
        acc = beta.field.zero
        for c, p in zip(row, powers):
            acc = acc + p.scale(c)
        vectors.append(acc)
    basis = ModuleBasis(beta.field, tuple(vectors))
    return LdsConstruction(basis=basis, scale=1, t_trace=t, source="quartic-power")


def _least_coprime_step(c: int, a: int, g: int) -> int:
    """Least t >= 0 with gcd(c + t*a, g) = 1; the caller ensures gcd(c, a, g) = 1."""
    t = 0
    while math.gcd(c + t * a, g) != 1:
        t += 1
    return t


def _canonicalize_witness(
    x: IntMatrix, y: IntMatrix, deltas: tuple[int, ...], v: tuple[int, ...]
) -> tuple[IntMatrix, IntMatrix]:
    """Adjust the Smith witness so gcd((X v)[3], deltas[3]/deltas[0]) = 1 if possible.

    Adds t_j * a_j to chi_4 = (X v)[3] by adding t_j * (d4/dj) times row j of X to
    row 4, j = 1..3; the paired column operation on Y keeps X B Y = diag(deltas).
    With a_j = (d4/dj) * chi_j, R = d4/d1, g1 = gcd(a1, R) and g12 = gcd(a2, g1),
    the lexicographically first (t3, t2, t1) in [0, R)^3 is found in closed form:

    - A witness exists iff gcd(chi_4, a3, g12) = 1; if not, X and Y are returned
      unchanged. By the Chinese remainder theorem over the primes of g, some t
      makes gcd(c + t*a, g) = 1 iff gcd(c, a, g) = 1.
    - t3 is the least t with gcd(chi_4 + t*a3, g12) = 1, t2 the least t with
      gcd(chi_4 + t3*a3 + t*a2, g1) = 1, and t1 the least t with
      gcd(chi_4 + t3*a3 + t2*a2 + t*a1, R) = 1.

    Each scan avoids one residue class modulo each prime p of g with p not
    dividing a, so it stops below the Jacobsthal function j(m) of the product m of
    those primes, a divisor of R. j(m) = O(log^2 m) (H. Iwaniec, "On the problem
    of Jacobsthal", 1978), so the scans are polynomial in the digit length of R,
    and each least t is below R, hence the first hit of the search over [0, R)^3.
    """
    ratio = deltas[3] // deltas[0]
    if ratio == 1:
        return x, y
    chi = x.apply(v)
    c = chi[3]
    if math.gcd(c, ratio) == 1:
        return x, y
    steps = [deltas[3] // deltas[j] for j in range(3)]
    a1, a2, a3 = (steps[j] * chi[j] for j in range(3))
    g1 = math.gcd(a1, ratio)
    g12 = math.gcd(a2, g1)
    if math.gcd(c, a3, g12) != 1:
        return x, y
    t3 = _least_coprime_step(c, a3, g12)
    c += t3 * a3
    t2 = _least_coprime_step(c, a2, g1)
    c += t2 * a2
    t1 = _least_coprime_step(c, a1, ratio)
    u = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [t1 * steps[0], t2 * steps[1], t3 * steps[2], 1]]
    vmat = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [-t1, -t2, -t3, 1]]
    return IntMatrix.from_rows(u) @ x, y @ IntMatrix.from_rows(vmat)


def snf_criterion_matrix(b: IntMatrix, t_trace: int) -> SnfCriterion:
    """Full-module test on the coordinate matrix of (beta, beta*eta, ..., beta*eta^3).

    Computes the Smith form X B Y = diag(deltas), the condition vector
    chi = X . (0, 1, 1, T+1) and the minimal integral lift of diag^-1 . chi, and
    checks that the lift is primitive, as it is for every nonsingular B. The
    witness is canonicalized toward gcd(chi4, delta4/delta1) = 1 whenever that
    form is reachable.
    """
    if b.rows != 4 or b.cols != 4:
        raise ValueError("criterion needs a 4x4 coordinate matrix")
    if det(b) == 0:
        raise ValueError("coordinate matrix is singular")
    dec = snf(b)
    deltas = dec.d
    v = (0, 1, 1, t_trace + 1)
    x, y = _canonicalize_witness(dec.x, dec.y, deltas, v)
    chi = x.apply(v)
    # minimal a with deltas[i] | a * chi[i] for all i: lcm of d_i / gcd(d_i, chi_i)
    scale = 1
    for d_i, c_i in zip(deltas, chi):
        need = d_i // math.gcd(d_i, c_i)
        scale = scale * need // math.gcd(scale, need)
    lift = tuple(scale * c_i // d_i for d_i, c_i in zip(deltas, chi))
    if math.gcd(*lift) != 1:
        raise InvariantViolation(f"lift {lift} of a primitive vector is not primitive")
    return SnfCriterion(
        chi=tuple(chi),
        deltas=deltas,
        t_trace=t_trace,
        scale=scale,
        lift_column=lift,
        b=b,
        x=x,
        y=y,
    )


def snf_criterion(tbasis: ModuleBasis, beta: FieldElement, eta: FieldElement) -> SnfCriterion:
    """Full-module test for the module spanned by tbasis; see snf_criterion_matrix."""
    t = quartic_unit_trace(eta)
    powers = [beta, beta * eta, beta * eta * eta, beta * eta * eta * eta]
    b = _as_int_rows(tbasis, powers, "a power beta*eta^i")
    return snf_criterion_matrix(b, t)


def quartic_full_construct(
    tbasis: ModuleBasis, beta: FieldElement, eta: FieldElement
) -> LdsConstruction:
    """Basis of the full module with x1 initial conditions (0, a, a, a(T+1))."""
    crit = snf_criterion(tbasis, beta, eta)
    c = complete_primitive(crit.lift_column)
    d = IntMatrix.diagonal(list(crit.deltas))
    a = inverse_unimodular(crit.x) @ d @ c
    z = crit.y @ c
    if (crit.b @ z) != a:
        raise InvariantViolation("change-of-basis matrix fails B Z = A")
    if det(z) not in (1, -1):
        raise InvariantViolation("change-of-basis matrix is not unimodular")
    expected = (0, crit.scale, crit.scale, crit.scale * (crit.t_trace + 1))
    if a.column(0) != expected:
        raise InvariantViolation(f"initial conditions {a.column(0)} != {expected}")
    w = _change_basis(tbasis, inverse_unimodular(z))
    _assert_spans_same_module(tbasis, w)
    return LdsConstruction(basis=w, scale=crit.scale, t_trace=crit.t_trace, source="quartic-full")


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def family_field(m: int) -> NumberField:
    """The quartic field of sqrt(m) + sqrt(m+1); needs both radicands nonsquare."""
    if m < 2:
        raise ValueError("family starts at m = 2")
    if _is_square(m) or _is_square(m + 1):
        raise ValueError(f"m = {m}: both m and m+1 must be nonsquare")
    t = 4 * m + 2
    return NumberField((1, 0, -t, 0, 1))


def family_surd_basis(m: int) -> ModuleBasis:
    """{1, sqrt(m), sqrt(m+1), sqrt(m(m+1))} inside the power basis of eta.

    Uses eta^2 = 2m+1 + 2 sqrt(m(m+1)) and eta^3 = (4m+3) sqrt(m) + (4m+1) sqrt(m+1)
    to express the surds as exact rational combinations of eta powers.
    """
    field = family_field(m)
    half = Fraction(1, 2)
    sqrt_m = field.element([0, -(4 * m + 1) * half, 0, half])
    sqrt_n = field.element([0, (4 * m + 3) * half, 0, -half])
    sqrt_mn = field.element([-(2 * m + 1) * half, 0, half, 0])
    return ModuleBasis(field, (field.one, sqrt_m, sqrt_n, sqrt_mn))


def family_basis(m: int) -> LdsConstruction:
    """LDS basis for Z[sqrt(m), sqrt(m+1)] via the full-module construction."""
    tb = family_surd_basis(m)
    result = quartic_full_construct(tb, tb.field.one, tb.field.generator)
    return LdsConstruction(
        basis=result.basis, scale=result.scale, t_trace=result.t_trace, source="family"
    )
