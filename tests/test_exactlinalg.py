import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlds.exactlinalg import (
    IntMatrix,
    complete_primitive,
    det,
    fraction_free_inverse,
    hnf_column,
    inverse_unimodular,
    primitive_reducer,
    snf,
    xgcd,
)
from oracles import solve_linear


def test_xgcd_bezout():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (1, 1), (-3, -9), (0, 0)]:
        g, s, t = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


class TestDet:
    def test_identity(self):
        assert det(IntMatrix.identity(4)) == 1

    def test_2x2_cofactor(self):
        assert det(IntMatrix.from_rows([[1, 1], [1, 0]])) == -1

    def test_power_module_matrix_is_unimodular(self):
        # the explicit quartic change-of-basis matrix at T = 10
        a = IntMatrix.from_rows([[0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [11, 1, 0, 0]])
        assert det(a) in (1, -1)

    def test_singular(self):
        assert det(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_matches_permutation_expansion(self):
        rng = random.Random(11)
        from itertools import permutations

        def brute(rows):
            n = len(rows)
            total = 0
            for perm in permutations(range(n)):
                sign = 1
                seen = list(perm)
                for i in range(n):
                    for j in range(i + 1, n):
                        if seen[i] > seen[j]:
                            sign = -sign
                total += sign * math.prod(rows[i][perm[i]] for i in range(n))
            return total

        for _ in range(25):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            assert det(IntMatrix.from_rows(rows)) == brute(rows)


class TestHnf:
    def test_identity(self):
        dec = hnf_column(IntMatrix.identity(3))
        assert dec.h == IntMatrix.identity(3)
        assert dec.c == IntMatrix.identity(3)

    def test_simple_2x2(self):
        b = IntMatrix.from_rows([[2, 1], [0, 3]])
        dec = hnf_column(b)
        assert b @ dec.c == dec.h
        assert det(dec.c) in (1, -1)
        assert dec.h.entries[0][1] == 0

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            hnf_column(IntMatrix.from_rows([[1, 2], [2, 4]]))

    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_witness_properties(self, rows):
        b = IntMatrix.from_rows(rows)
        if det(b) == 0:
            return
        dec = hnf_column(b)
        assert b @ dec.c == dec.h
        assert det(dec.c) in (1, -1)
        n = dec.h.rows
        for i in range(n):
            assert dec.h.entries[i][i] > 0
            for j in range(i + 1, n):
                assert dec.h.entries[i][j] == 0
            for j in range(i):
                assert 0 <= dec.h.entries[i][j] < dec.h.entries[i][i]


class TestSnf:
    def test_family_matrix_m2(self):
        b = IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0], [5, 0, 0, 2], [0, 11, 9, 0]])
        assert snf(b).d == (1, 1, 2, 2)

    def test_identity(self):
        assert snf(IntMatrix.identity(4)).d == (1, 1, 1, 1)

    def test_diag_4_6(self):
        # oracle: d1 = gcd of entries, d1*d2 = |det|
        b = IntMatrix.from_rows([[4, 0], [0, 6]])
        expected_d1 = math.gcd(4, 6)
        expected_d2 = abs(det(b)) // expected_d1
        assert snf(b).d == (expected_d1, expected_d2)

    def test_zero_matrix(self):
        assert snf(IntMatrix.from_rows([[0, 0], [0, 0]])).d == (0, 0)

    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_witness_properties(self, rows):
        b = IntMatrix.from_rows(rows)
        dec = snf(b)
        assert dec.x @ b @ dec.y == IntMatrix.diagonal(list(dec.d))
        assert det(dec.x) in (1, -1)
        assert det(dec.y) in (1, -1)
        for i in range(3):
            if dec.d[i] == 0:
                assert dec.d[i + 1] == 0
            else:
                assert dec.d[i + 1] % dec.d[i] == 0
        assert all(x >= 0 for x in dec.d)


class TestPinnedWitnesses:
    """Exact witnesses: the elimination order fixes h, c, x and y, not only their properties."""

    @pytest.mark.parametrize(
        "b, h, c",
        [
            ([[4, -6, 10, 3], [7, 2, -5, 9]],
             [[1, 0, 0, 0], [3, 5, 0, 0]],
             [[0, 0, 0, 1], [-35, -5, 21, 9], [-20, -3, 12, 5], [-3, 0, 2, 0]]),
            ([[3, -7, 2], [5, 1, -4], [-6, 8, 9]],
             [[1, 0, 0], [1, 2, 0], [65, 161, 181]],
             [[5, 12, 13], [4, 10, 11], [7, 17, 19]]),
        ],
    )
    def test_hnf_column(self, b, h, c):
        assert hnf_column(IntMatrix.from_rows(b)) == (IntMatrix.from_rows(h), IntMatrix.from_rows(c))

    @pytest.mark.parametrize(
        "b, x, d, y",
        [
            # det 26880 = 1 * 2 * 2 * 6720
            ([[2, 4, 6, -8], [3, -5, 7, 11], [12, 0, -6, 4], [9, 15, 21, 3]],
             [[-1, 1, 0, 0], [3, -2, 0, 0], [30, -3, 1, -7], [33345, -3357, 1110, -7771]],
             (1, 2, 2, 6720),
             [[1, 14, 1089, -3296], [0, 1, 73, -221], [0, -5, -413, 1250], [0, 0, -1, 3]]),
            # rank 2: row 2 is 3/2 times row 1, and row 4 is row 1 minus row 3
            ([[6, 4, 10, -2], [9, 6, 15, -3], [4, -8, 12, 14], [2, 12, -2, -16]],
             [[1, -1, 0, 0], [7, 0, 1, 0], [3, -2, 0, 0], [-1, 0, 1, 1]],
             (1, 2, 0, 0),
             [[0, 0, 0, 1], [0, -4, 41, 10], [0, 1, -10, -3], [1, -3, 32, 8]]),
        ],
    )
    def test_snf(self, b, x, d, y):
        dec = snf(IntMatrix.from_rows(b))
        assert dec == (IntMatrix.from_rows(x), d, IntMatrix.from_rows(y))


class TestCompletePrimitive:
    def test_unit_vector(self):
        assert complete_primitive([1, 0, 0, 0]) == IntMatrix.identity(4)

    def test_3_5(self):
        u = complete_primitive([3, 5])
        assert u.column(0) == (3, 5)
        assert det(u) in (1, -1)

    def test_family_lift_vector(self):
        u = complete_primitive([0, 2, -4, 1])
        assert u.column(0) == (0, 2, -4, 1)
        assert det(u) in (1, -1)

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError, match="primitive"):
            complete_primitive([2, 4])

    @pytest.mark.parametrize("vec", [[-1, 0], [0, -1, 0], [-1, 0, 0, 0]])
    def test_sweep_ending_at_minus_one(self, vec):
        u = complete_primitive(vec)
        assert u.column(0) == tuple(vec)
        assert det(u) == 1

    def test_minus_one_alone_has_no_completion(self):
        with pytest.raises(ValueError, match="determinant 1"):
            complete_primitive([-1])

    @given(st.lists(st.integers(-30, 30), min_size=2, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_random_primitive_vectors(self, vec):
        if math.gcd(*vec) != 1:
            return
        u = complete_primitive(vec)
        assert u.column(0) == tuple(vec)
        assert det(u) in (1, -1)
        # primitive_reducer is its inverse, built without an inversion
        r = primitive_reducer(vec)
        assert r.apply(vec) == tuple(int(i == 0) for i in range(len(vec)))
        assert r @ u == IntMatrix.identity(len(vec))


class TestInverseUnimodular:
    def test_identity(self):
        assert inverse_unimodular(IntMatrix.identity(3)) == IntMatrix.identity(3)

    def test_2x2(self):
        m = IntMatrix.from_rows([[1, 1], [1, 0]])
        assert inverse_unimodular(m) == IntMatrix.from_rows([[0, 1], [1, -1]])

    def test_family_transform_witness(self):
        # the closed-form Smith transform for the m=2 family matrix
        x = IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, -9, 0, 1], [-5, 0, 1, 0]])
        inv = inverse_unimodular(x)
        assert x @ inv == IntMatrix.identity(4)
        assert inv @ x == IntMatrix.identity(4)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))

    @pytest.mark.parametrize(
        "rows, d", [([[1, 2], [3, 4]], -2), ([[0, 3], [1, 0]], -3), ([[1, 2], [2, 4]], 0)]
    )
    def test_non_unimodular_reports_its_det(self, rows, d):
        with pytest.raises(ValueError, match=rf"not unimodular \(det = {d}\)"):
            inverse_unimodular(IntMatrix.from_rows(rows))

    def test_two_sided(self):
        rng = random.Random(5)
        count = 0
        while count < 20:
            m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
            if det(m) in (1, -1):
                inv = inverse_unimodular(m)
                assert m @ inv == IntMatrix.identity(3)
                assert inv @ m == IntMatrix.identity(3)
                count += 1


def inverse_columns_oracle(cols):
    """The inverse of the matrix with the given columns, one Fraction solve per unit
    vector, as the columns of the inverse; None when singular.

    This is how ModuleBasis inverted its matrix before fraction_free_inverse.
    """
    n = len(cols)
    inv_cols = []
    for k in range(n):
        sol = solve_linear(cols, [Fraction(int(i == k)) for i in range(n)])
        if sol is None:
            return None
        inv_cols.append(sol)
    return inv_cols


def rational_inverse(rows):
    """rows^-1 from fraction_free_inverse, cleared of denominators first; None if singular."""
    d = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    cleared = [[int(Fraction(x) * d) for x in row] for row in rows]
    result = fraction_free_inverse(cleared)
    if result is None:
        return None
    inv, q = result
    assert q == abs(det(IntMatrix.from_rows(cleared))) > 0
    return [[Fraction(d * x, q) for x in row] for row in inv]


def oracle_inverse(rows):
    # rows of a matrix are the columns of its transpose, and inverting commutes
    # with transposing, so the oracle's columns of (rows^T)^-1 are the rows of rows^-1
    return inverse_columns_oracle([[Fraction(x) for x in row] for row in rows])


RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def rational_matrices(draw):
    n = draw(st.integers(2, 4))
    return [[draw(RATIONALS) for _ in range(n)] for _ in range(n)]


class TestFractionFreeInverse:
    @settings(max_examples=150, deadline=None)
    @given(rational_matrices())
    def test_matches_the_fraction_solves(self, rows):
        want = oracle_inverse(rows)
        got = rational_inverse(rows)
        assert (got is None) == (want is None)
        if want is not None:
            assert got == [list(r) for r in want]

    def test_zero_leading_pivot_needs_a_row_swap(self):
        rows = [[0, 2, 1], [1, 0, 0], [0, 1, 1]]
        inv, q = fraction_free_inverse(rows)
        assert q == 1
        assert IntMatrix.from_rows(inv) @ IntMatrix.from_rows(rows) == IntMatrix.identity(3)

    def test_zero_pivot_after_the_first_step(self):
        # column 1 is zero below the first pivot until rows 1 and 2 are swapped
        rows = [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 2]]
        assert fraction_free_inverse(rows)[1] == 2
        assert rational_inverse(rows) == [list(r) for r in oracle_inverse(rows)]

    def test_negative_determinant(self):
        rows = [[1, 2], [3, 4]]  # det -2
        inv, q = fraction_free_inverse(rows)
        assert q == 2
        assert inv == [[-4, 2], [3, -1]]  # 2 * [[-2, 1], [3/2, -1/2]]

    def test_one_by_one(self):
        assert fraction_free_inverse([[-3]]) == ([[-1]], 3)
        assert fraction_free_inverse([[0]]) is None

    def test_halves_and_quarters(self):
        # the maximal order {1, sqrt 2, sqrt 3, (sqrt 2 + sqrt 6)/2} of Q(sqrt 2, sqrt 3)
        # over the power basis of x^4 - 10x^2 + 1, one basis vector per row
        h, q = Fraction(1, 2), Fraction(1, 4)
        rows = [[1, 0, 0, 0], [0, -9 * h, 0, h], [0, 11 * h, 0, -h], [-5 * q, -9 * q, q, q]]
        inverse = rational_inverse(rows)
        assert inverse is not None
        assert inverse == [list(r) for r in oracle_inverse(rows)]

    def test_singular_rows(self):
        assert fraction_free_inverse([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) is None
        assert fraction_free_inverse([[0, 1], [0, 2]]) is None


def test_det_and_inverse_with_one_swap_at_the_last_pivot_that_can_swap():
    # Bareiss meets a zero pivot only at step 1 of 0..2 (no row is left below
    # step 2 to swap with); the first pivot is -1, the last pivot +4, and det -4
    rows = [[-1, 2, -2], [0, 0, -1], [3, -2, 2]]
    a = IntMatrix.from_rows(rows)
    assert det(a) == -4
    inv, q = fraction_free_inverse(rows)
    assert q == 4
    assert IntMatrix.from_rows(inv) @ a == IntMatrix.diagonal([4, 4, 4])
    assert inv == [[2, 0, 2], [3, -4, 1], [0, -4, 0]]
