"""Basis constructions that turn the first coordinate sequence into an LDS.

lds_basis builds every basis but one. Every coordinate of
beta*eps^k over a basis W of the module satisfies the recurrence of eps, so
x1 is fixed by its first n terms, the first column of B.C, where B holds the
coordinates of beta*eps^i over the given basis, i < n, from
ModuleBasis.power_rows, the routine behind every coordinate sequence, and C
is the unimodular change of basis to W. A target v that starts an LDS of the
recurrence of eps becomes x1 = scale*v when C's first column is
z = scale*B^-1.v, which is integral and primitive for the least scale, and
any unimodular completion of z is a valid C; lds_basis takes its inverse
from exactlinalg.primitive_reducer, the Hermite sweep of z as one row. Every
construction takes its target from coordseq.lds_targets, the one table of
LDS targets, which column_verdict proves from too: v = entry[:d] of the first
entry for the charpoly of the unit, at b = 1, and T from the entry's row d.
So the quadratic construction starts x1 at the Lucas sequence of a norm-1
unit, and the full quartic construction at Lehmer's sequence of a unit eta
with minimal polynomial X^4 - T X^2 + 1; dkseq's match of d_k/d_1 takes the
power basis of its quartic, so B = I. The one other basis is written out:
quartic_module_construct's basis of the rank-4 module beta*Z[eta], A^-1
applied to the powers of eta for a unimodular A whose first column is the
same entry's v, with scale 1.

Every unit is read from its minimal polynomial: quartic_unit_trace checks
that of eta, with one refusal for each shape it rejects, and gives T;
quad_construct reads the norm, the torsion test and the charpoly it looks up
in the table off min_poly(eps).

snf_criterion states the full-module case through the Smith form of B, with a
canonical witness X, Y; it serves the snf-check report and no construction.
Both results, LdsConstruction and SnfCriterion, are collections.namedtuple records.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .coordseq import lds_targets
from .exactlinalg import (
    InvariantViolation, apply, det, fraction_free_inverse, matmul, primitive_reducer, snf
)
from .numberfield import FieldElement, ModuleBasis, NumberField, min_poly


class LdsConstruction(namedtuple("LdsConstruction", "basis scale t_trace")):
    """A basis under which x1 is an LDS, with its scale and trace parameter.

    x1 starts at scale times v = entry[:d] of the first coordseq.lds_targets
    entry of the unit's charpoly, at b = 1, and t_trace is that entry's row d:
    x1(k) is scale times the Lucas sequence of the unit in the quadratic
    construction, and scale times Lehmer's sequence of eta in the quartic
    ones. Except for quartic-power, basis comes from lds_basis, and scale is
    the least positive integer that makes scale * B^-1 v integral.
    """

    __slots__ = ()
    # basis: ModuleBasis
    # scale: int
    # t_trace: int


class SnfCriterion(
    namedtuple("SnfCriterion", "chi deltas t_trace scale lift_column y")
):
    """The full-module criterion in Smith form, as the snf-check report states it.

    chi is the Smith-transformed condition vector X . v, for v the target of
    quartic_full_construct (entry[:4] of the first coordseq.lds_targets entry
    of X^4 - T X^2 + 1), and lift_column = scale . diag(deltas)^-1 . chi is its
    minimal integral scaling. The construction exists iff lift_column is
    primitive, and it always is: with w = B^-1 . v, lift_column =
    Y^-1 . (scale . w), scale is the lcm of the denominators of w, and a prime
    dividing every entry of scale . w would either make scale/p a smaller scale
    or divide v, which is primitive as v[1] = 1.
    snf_criterion_matrix checks this. lds_basis builds the basis from z = scale . w
    directly, so the Smith witness serves this report only. X, Y is the Smith
    witness with row 4 of X shifted by the closed form of _canonicalize_witness,
    which makes gcd(chi[3], deltas[3]/deltas[0]) = 1 whenever any such shift does;
    of the witness the record keeps y = Y, which maps lift_column to scale . w.
    """

    __slots__ = ()
    # chi: tuple[int, int, int, int]
    # deltas: tuple[int, int, int, int]
    # t_trace: int
    # scale: int
    # lift_column: tuple[int, int, int, int]
    # y: tuple[tuple[int, ...], ...]


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


def _lehmer_target(t_trace: int) -> tuple[int, ...]:
    """The first coordseq.lds_targets entry of X^4 - T X^2 + 1, at b = 1; its row 4 is T."""
    return lds_targets((1, 0, -t_trace, 0, 1))[0]


def _power_outside(k: int) -> str:
    # worded for the quartic unit eta; quad_construct tests beta first, and its
    # eps keeps the module, so only the quartic reports can print this message
    return "a power beta*eta^i does not lie in the module (fractional coordinates)"


def _assert_spans_same_module(tbasis: ModuleBasis, newbasis: ModuleBasis) -> None:
    m = []
    for v in newbasis.vectors:
        coords, den = tbasis.int_coords(v)
        if den != 1:
            raise InvariantViolation("constructed basis left the module")
        m.append(coords)
    if det(m) not in (1, -1):
        raise InvariantViolation("constructed basis does not span the module")


def lds_basis(
    tbasis: ModuleBasis, beta: FieldElement, eps: FieldElement, v: Sequence[int]
) -> tuple[ModuleBasis, int]:
    """A basis of the module of tbasis under which beta*eps^i has x1 = scale*v[i], i < n.

    B holds the integer coordinates of beta*eps^i over tbasis, i < n, as rows.
    The new basis is C^-1 applied to tbasis for a unimodular C, so B.C holds
    the new coordinates, and its first column is B.z for z the first column of
    C. One fraction-free inverse gives B^-1 = N/q; with g = gcd(q, N.v),
    z = N.v/g is integral and scale = q/g is the lcm of the denominators of
    B^-1.v. z is primitive when v is: a prime dividing every entry of z would
    either divide scale, and then scale/p would clear the denominators, or
    divide B.z = scale*v, hence v. C is complete_primitive(z), whose inverse
    primitive_reducer(z), the hnf_column witness of the one row z transposed,
    gives the new basis without an inversion. Returns
    the new basis and scale > 0. Raises ValueError when a beta*eps^i leaves
    the module or B is singular.
    """
    b = tbasis.power_rows(beta, eps, tbasis.field.degree, _power_outside)
    inverse = fraction_free_inverse(b)
    if inverse is None:
        raise ValueError("coordinate matrix is singular")
    nmat, q = inverse
    nv = [sum(a * x for a, x in zip(row, v)) for row in nmat]
    g = math.gcd(q, *nv)
    scale = q // g
    z = [x // g for x in nv]
    if math.gcd(*z) != 1:
        raise InvariantViolation(f"first column {tuple(z)} of the change of basis is not primitive")
    # C^-1 = primitive_reducer(z), so C is complete_primitive(z) and its
    # first column is z exactly when C^-1 . z = e1
    c_inv = primitive_reducer(z)
    if det(c_inv) not in (1, -1):
        raise InvariantViolation("change-of-basis matrix is not unimodular")
    if apply(c_inv, z) != tuple(int(i == 0) for i in range(len(z))):
        raise InvariantViolation(f"change of basis does not have the first column {tuple(z)}")
    first, expected = apply(b, z), tuple(scale * x for x in v)
    if first != expected:
        raise InvariantViolation(f"initial conditions {first} != {expected}")
    # vector i of the new basis is row i of C^-1 applied to tbasis
    w = ModuleBasis(tbasis.field, tuple(map(tbasis.combine, c_inv)))
    _assert_spans_same_module(tbasis, w)
    return w, scale


def quad_construct(tbasis: ModuleBasis, beta: FieldElement, eps: FieldElement) -> LdsConstruction:
    """Quadratic-module construction: lds_basis with the Lucas target, so x1(k) = scale * u_k.

    The target is the first coordseq.lds_targets entry of eps's charpoly
    X^2 - T X + 1: v = entry[:2], and T is its row 2. u_k is the Lucas
    sequence of eps, which starts at v and satisfies
    u_(k+2) = T u_(k+1) - u_k for the trace T of eps. scale is |det B| over
    the content of beta's coordinates, the Hermite pivot of B. Requires a real
    quadratic field, a nontorsion norm-1 unit eps that multiplies the module
    into itself, and beta a nonzero module element.
    """
    field = tbasis.field
    if field.degree != 2:
        raise ValueError("construction requires a quadratic field")
    _, c1, _ = field.coeffs
    if c1 * c1 - 4 * field.coeffs[0] < 0:
        raise ValueError("construction requires a real quadratic field")
    # in a quadratic field N(eps) = mp[0]^(2/deg mp), and deg mp = 1 exactly
    # when eps is rational
    mp = min_poly(eps)
    if mp[0] ** (2 // (len(mp) - 1)) != 1:
        raise ValueError("eps must have norm 1")
    if len(mp) == 2:
        raise ValueError("eps is torsion (rational)")
    for v in tbasis.vectors:
        if tbasis.int_coords(eps * v)[1] != 1:
            raise ValueError("eps does not multiply the module into itself")
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    # eps keeps the module, so beta*eps lies in it with beta; and since eps is
    # irrational, a nonzero beta makes beta and beta*eps independent
    if tbasis.int_coords(beta)[1] != 1:
        raise ValueError("beta does not lie in the module (fractional coordinates)")
    # eps keeps a full-rank lattice, so it is integral and T is an integer
    if mp[1].denominator != 1:
        raise InvariantViolation("eps keeps the module but its trace is not an integer")
    target = lds_targets([int(c) for c in mp])[0]
    w, scale = lds_basis(tbasis, beta, eps, target[:2])
    return LdsConstruction(basis=w, scale=scale, t_trace=target[2])


def quartic_module_construct(beta: FieldElement, eta: FieldElement) -> LdsConstruction:
    """Basis of beta*Z[eta] under which x1 starts at the target v, written out.

    v = (0, 1, 1, c) is entry[:4] of the first coordseq.lds_targets entry of
    eta's charpoly X^4 - T X^2 + 1, at b = 1, and T is its row 4. The powers
    p = (beta, beta*eta, beta*eta^2, beta*eta^3) are a basis of beta*Z[eta].
    The basis is A^-1 p for the unimodular
    A = [[0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [c, 1, 0, 0]]:
    (beta*eta^2, beta*eta^3 - c*beta*eta^2, beta, beta*eta - beta*eta^2).
    Row k of A holds the coordinates of beta*eta^k over it, so x1(0..3) is
    the first column of A, v, and scale is 1.
    """
    if beta.is_zero():
        raise ValueError("beta must be nonzero")
    target = _lehmer_target(quartic_unit_trace(eta))
    b1 = beta * eta
    b2 = b1 * eta
    basis = ModuleBasis(beta.field, (b2, b2 * eta - b2 * target[3], beta, b1 - b2))
    return LdsConstruction(basis=basis, scale=1, t_trace=target[4])


def _least_coprime_step(c: int, a: int, g: int) -> int:
    """Least t >= 0 with gcd(c + t*a, g) = 1; the caller ensures gcd(c, a, g) = 1."""
    t = 0
    while math.gcd(c + t * a, g) != 1:
        t += 1
    return t


def _canonicalize_witness(
    x: tuple[tuple[int, ...], ...],
    y: tuple[tuple[int, ...], ...],
    deltas: tuple[int, ...],
    v: tuple[int, ...],
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
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
    chi = apply(x, v)
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
    return matmul(u, x), matmul(y, vmat)


def snf_criterion_matrix(b: tuple[tuple[int, ...], ...], t_trace: int) -> SnfCriterion:
    """Full-module test on the coordinate matrix of (beta, beta*eta, ..., beta*eta^3).

    Computes the Smith form X B Y = diag(deltas), the condition vector
    chi = X . v for the target v of quartic_full_construct, entry[:4] of the
    first coordseq.lds_targets entry of X^4 - T X^2 + 1, and the minimal
    integral lift of diag^-1 . chi, and
    checks that the lift is primitive, as it is for every nonsingular B. The
    witness is canonicalized toward gcd(chi4, delta4/delta1) = 1 whenever that
    form is reachable.
    """
    if len(b) != 4 or len(b[0]) != 4:
        raise ValueError("criterion needs a 4x4 coordinate matrix")
    if det(b) == 0:
        raise ValueError("coordinate matrix is singular")
    dec = snf(b)
    deltas = dec.d
    v = _lehmer_target(t_trace)[:4]
    x, y = _canonicalize_witness(dec.x, dec.y, deltas, v)
    chi = apply(x, v)
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
        y=y,
    )


def snf_criterion(tbasis: ModuleBasis, beta: FieldElement, eta: FieldElement) -> SnfCriterion:
    """Full-module test for the module spanned by tbasis; see snf_criterion_matrix."""
    t = quartic_unit_trace(eta)
    b = tbasis.power_rows(beta, eta, tbasis.field.degree, _power_outside)
    return snf_criterion_matrix(b, t)


def quartic_full_construct(
    tbasis: ModuleBasis, beta: FieldElement, eta: FieldElement
) -> LdsConstruction:
    """lds_basis with Lehmer's target: x1(k) = a times Lehmer's sequence of eta, a = scale.

    T is quartic_unit_trace(eta), and the target is the first
    coordseq.lds_targets entry of X^4 - T X^2 + 1, at b = 1: v = entry[:4],
    and T is its row 4. Lehmer's sequence is the LDS with
    x(k+4) = T x(k+2) - x(k) and initial conditions v.
    """
    target = _lehmer_target(quartic_unit_trace(eta))
    w, scale = lds_basis(tbasis, beta, eta, target[:4])
    return LdsConstruction(basis=w, scale=scale, t_trace=target[4])


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
    return quartic_full_construct(tb, tb.field.one, tb.field.generator)
