import itertools
import random
from fractions import Fraction

import pytest

from normlds.coordseq import (
    LdsVerdict,
    divides,
    generate,
    recurrence_terms,
    verify_lds,
    verify_recurrence,
)
from normlds.numberfield import ModuleBasis, NumberField
from oracles import lucas_terms, minimal_order

SQRT2 = NumberField((-2, 0, 1))
BIQUAD = NumberField((1, 0, -10, 0, 1))


def quartic_power_sequence(a, t, count):
    """Order-4 oracle: ICs (0, a, a, a(T+1)), x(k+4) = T x(k+2) - x(k)."""
    x = [0, a, a, a * (t + 1)]
    for k in range(4, count):
        x.append(t * x[k - 2] - x[k - 4])
    return x


class TestGenerate:
    def test_pell_columns(self):
        eps = SQRT2.element([3, 2])
        rep = generate(SQRT2.one, eps, SQRT2.power_basis(), 4)
        assert rep.terms == [[1, 3, 17, 99, 577], [0, 2, 12, 70, 408]]
        assert rep.charpoly == (1, -6, 1)

    def test_power_basis_indicators(self):
        rep = generate(BIQUAD.one, BIQUAD.generator, BIQUAD.power_basis(), 3)
        assert rep.terms == [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]

    def test_round_trip_rows(self):
        eps = SQRT2.element([3, 2])
        basis = SQRT2.power_basis()
        rep = generate(SQRT2.element([1, 1]), eps, basis, 20)
        value = SQRT2.element([1, 1])
        for row in zip(*rep.terms):
            assert basis.combine(row) == value
            value = value * eps

    def test_non_integral_rejected(self):
        shrunk = ModuleBasis(SQRT2, (SQRT2.from_int(2), SQRT2.generator))
        with pytest.raises(ValueError, match="non-integral"):
            generate(SQRT2.one, SQRT2.element([3, 2]), shrunk, 3)


class TestVerifyRecurrence:
    def test_quartic_construction_recurrence(self):
        from normlds.basisforge import quartic_module_construct

        cons = quartic_module_construct(BIQUAD.one, BIQUAD.generator)
        rep = generate(BIQUAD.one, BIQUAD.generator, cons.basis, 30)
        assert rep.charpoly == (1, 0, -10, 0, 1)
        assert verify_recurrence(rep)

    def test_constant_zero_column_is_vacuous(self):
        rep = generate(SQRT2.from_int(0), SQRT2.element([3, 2]), SQRT2.power_basis(), 10)
        assert verify_recurrence(rep)

    def test_corrupted_entry_detected(self):
        rep = generate(SQRT2.one, SQRT2.element([3, 2]), SQRT2.power_basis(), 10)
        rep.terms[0][7] += 1
        assert not verify_recurrence(rep)


class TestMinimalOrder:
    def test_fibonacci_is_order_2(self):
        fib = [0, 1]
        for _ in range(18):
            fib.append(fib[-1] + fib[-2])
        res = minimal_order(fib)
        assert res.order == 2
        assert res.coeffs == (Fraction(1), Fraction(1))

    def test_zero_sequence_is_order_0(self):
        assert minimal_order([0] * 21).order == 0

    def test_quartic_x1_is_order_4(self):
        res = minimal_order(quartic_power_sequence(1, 10, 30))
        assert res.order == 4
        assert res.coeffs == (Fraction(0), Fraction(10), Fraction(0), Fraction(-1))

    def test_never_exceeds_unit_degree(self):
        rng = random.Random(7)
        basis = BIQUAD.power_basis()
        for _ in range(10):
            beta = BIQUAD.element([rng.randint(-3, 3) for _ in range(4)])
            if beta.is_zero():
                continue
            rep = generate(beta, BIQUAD.generator, basis, 20)
            for column in rep.terms:
                assert minimal_order(column).order <= 4

    def test_insufficient_terms(self):
        with pytest.raises(ValueError, match="certif"):
            minimal_order([0, 0, 1], max_order=3)

    def test_rational_coefficients_found(self):
        # geometric with ratio 3/2; minimality must not depend on integrality
        res = minimal_order([32, 48, 72, 108, 162, 243])
        assert res.order == 1
        assert res.coeffs == (Fraction(3, 2),)


class TestVerifyLds:
    def test_linear_sequence_passes(self):
        assert verify_lds(list(range(201)), 200).ok

    def test_shifted_fibonacci_fails_at_2_4(self):
        fib = [0, 1]
        for _ in range(12):
            fib.append(fib[-1] + fib[-2])
        shifted = fib[1:]
        verdict = verify_lds(shifted, 10)
        assert not verdict.ok
        assert verdict.witness == (2, 4)

    def test_zero_convention(self):
        assert divides(0, 0)
        assert not divides(0, 3)
        assert divides(3, 0)
        # column with a zero at n and nonzero multiple fails
        verdict = verify_lds([5, 0, 1, 0, 7], 4)
        assert not verdict.ok
        assert verdict.witness == (1, 2)

    def test_scaling_invariance(self):
        rng = random.Random(13)
        for _ in range(10):
            seq = quartic_power_sequence(rng.randint(1, 9), rng.randint(3, 20), 60)
            base = verify_lds(seq, 59)
            for c in (2, -3, 7):
                scaled = [c * x for x in seq]
                assert verify_lds(scaled, 59).ok == base.ok

    def test_requires_enough_terms(self):
        with pytest.raises(ValueError, match="through index"):
            verify_lds([1, 2, 3], 5)

    def test_a_short_column_is_refused_as_a_list_or_an_iterator(self):
        # a list before any pair is tested, even one that fails; an iterator when
        # it ends before a witness
        for column in ([0, 1, 2], iter([0, 1, 2]), [0, 2, 3]):
            with pytest.raises(ValueError) as exc:
                verify_lds(column, 5)
            assert str(exc.value) == "need terms through index 5, got 3"


class TestQuarticOracle:
    def test_random_parameters_match_closed_form_and_lds(self):
        rng = random.Random(2024)
        for _ in range(12):
            a = rng.randint(1, 20)
            t = rng.randint(3, 50)
            seq = quartic_power_sequence(a, t, 201)
            assert verify_lds(seq, 200).ok
            u = lucas_terms(t, 1, 101)
            # a*u_n at k = 2n and a*(u_{n+1} + u_n) at k = 2n+1, for Q = 1
            for k in range(201):
                n, odd = divmod(k, 2)
                assert seq[k] == a * (u[n + 1] + u[n] if odd else u[n])

    def test_even_terms_are_scaled_lucas(self):
        seq = quartic_power_sequence(3, 7, 60)
        assert seq[::2] == [3 * u for u in lucas_terms(7, 1, 30)]


def test_degenerate_trace_sequence_is_zero():
    # Tr over Q of sqrt5 * eta^k in the tensor product Q(sqrt2, sqrt3) x Q(sqrt5):
    # the trace of a pure tensor is the product of the two traces, and sqrt5
    # has trace 0, minus the X coefficient of X^2 - 5, so every term vanishes
    # identically. Tr(eta^k) is the power sum of the roots of X^4 - 10X^2 + 1,
    # from (4, 0, 20, 0) under that recurrence.
    tr5 = -NumberField((-5, 0, 1)).coeffs[1]
    assert tr5 == 0
    power_sums = recurrence_terms(BIQUAD.coeffs, [4, 0, 20, 0])
    seq = [tr5 * x for x in itertools.islice(power_sums, 21)]
    assert seq == [0] * 21
    assert minimal_order(seq).order == 0


def test_minimality_and_verdicts_of_each_column():
    eps = SQRT2.element([3, 2])
    rep = generate(SQRT2.one, eps, SQRT2.power_basis(), 30)
    columns = rep.terms
    assert all(minimal_order(c).order == 2 for c in columns)
    # x1 = 1, 3, 17, ... fails immediately; x2 = 0, 2, 12, 70, ... is 2*u_k
    assert verify_lds(columns[0], 30) == LdsVerdict(False, (1, 2))
    assert verify_lds(columns[1], 30).ok
