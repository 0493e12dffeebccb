import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from normlds.exactlinalg import (
    apply,
    complete_primitive,
    det,
    fraction_free_inverse,
    hnf_column,
    identity,
    inverse_unimodular,
    matmul,
    primitive_reducer,
    snf,
    xgcd,
)
from oracles import solve_linear


def diagonal(d):
    return tuple(tuple(x if i == j else 0 for j in range(len(d))) for i, x in enumerate(d))


def tuples(m):
    return tuple(map(tuple, m))


def is_rows(m):
    return type(m) is tuple and all(type(row) is tuple for row in m)


def first_column(m):
    return tuple(row[0] for row in m)


def test_xgcd_bezout():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (1, 1), (-3, -9), (0, 0)]:
        g, s, t = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert s * a + t * b == g


class TestDet:
    def test_identity(self):
        assert det(identity(4)) == 1

    def test_2x2_cofactor(self):
        assert det([[1, 1], [1, 0]]) == -1

    def test_power_module_matrix_is_unimodular(self):
        # the explicit quartic change-of-basis matrix at T = 10
        a = [[0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [11, 1, 0, 0]]
        assert det(a) in (1, -1)

    def test_singular(self):
        assert det([[1, 2], [2, 4]]) == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det([[1, 2, 3], [4, 5, 6]])

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
            assert det(rows) == brute(rows)


class TestHnf:
    def test_identity(self):
        dec = hnf_column(identity(3))
        assert dec.h == identity(3)
        assert dec.c == identity(3)

    def test_simple_2x2(self):
        b = [[2, 1], [0, 3]]
        dec = hnf_column(b)
        assert matmul(b, dec.c) == dec.h
        assert det(dec.c) in (1, -1)
        assert dec.h[0][1] == 0

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            hnf_column([[1, 2], [2, 4]])

    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_witness_properties(self, rows):
        b = rows
        if det(b) == 0:
            return
        dec = hnf_column(b)
        assert matmul(b, dec.c) == dec.h
        assert det(dec.c) in (1, -1)
        n = len(dec.h)
        for i in range(n):
            assert dec.h[i][i] > 0
            for j in range(i + 1, n):
                assert dec.h[i][j] == 0
            for j in range(i):
                assert 0 <= dec.h[i][j] < dec.h[i][i]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_non_square_witness_properties(self, data):
        r, n = data.draw(st.sampled_from([(2, 3), (2, 4), (3, 4)]))
        row = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
        b = data.draw(st.lists(row, min_size=r, max_size=r))
        assume(any(det([[x[j] for j in cols] for x in b]) for cols in combinations(range(n), r)))
        dec = hnf_column(b)
        assert matmul(b, dec.c) == dec.h
        assert det(dec.c) in (1, -1)
        # h = [H | 0]: H lower triangular, positive pivots, entries left of them reduced
        for i, h_row in enumerate(dec.h):
            assert h_row[i] > 0
            assert not any(h_row[i + 1 :])
            assert all(0 <= x < h_row[i] for x in h_row[:i])
        # the form of the column lattice is unique, whatever basis of it b holds
        v = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
        assume(math.gcd(*v) == 1)
        assert hnf_column(matmul(b, complete_primitive(v))).h == dec.h


class TestSnf:
    def test_family_matrix_m2(self):
        b = [[1, 0, 0, 0], [0, 1, 1, 0], [5, 0, 0, 2], [0, 11, 9, 0]]
        assert snf(b).d == (1, 1, 2, 2)

    def test_identity(self):
        assert snf(identity(4)).d == (1, 1, 1, 1)

    def test_diag_4_6(self):
        # oracle: d1 = gcd of entries, d1*d2 = |det|
        b = [[4, 0], [0, 6]]
        expected_d1 = math.gcd(4, 6)
        expected_d2 = abs(det(b)) // expected_d1
        assert snf(b).d == (expected_d1, expected_d2)

    def test_zero_matrix(self):
        assert snf([[0, 0], [0, 0]]).d == (0, 0)

    @given(
        st.lists(
            st.lists(st.integers(-50, 50), min_size=4, max_size=4),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_witness_properties(self, rows):
        b = rows
        dec = snf(b)
        assert matmul(matmul(dec.x, b), dec.y) == diagonal(dec.d)
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
            # rank 2 with four columns: h is unique, c is one witness of many
            ([[4, -6, 10, 3], [7, 2, -5, 9]],
             [[1, 0, 0, 0], [3, 5, 0, 0]],
             [[0, 0, 1, 0], [-35, -5, 135, 21], [-20, -3, 77, 12], [-3, 0, 12, 2]]),
            ([[3, -7, 2], [5, 1, -4], [-6, 8, 9]],
             [[1, 0, 0], [1, 2, 0], [65, 161, 181]],
             [[5, 12, 13], [4, 10, 11], [7, 17, 19]]),
        ],
    )
    def test_hnf_column(self, b, h, c):
        assert hnf_column(b) == (tuples(h), tuples(c))

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
        assert snf(b) == (tuples(x), d, tuples(y))


class TestCompletePrimitive:
    def test_unit_vector(self):
        assert complete_primitive([1, 0, 0, 0]) == identity(4)

    def test_3_5(self):
        u = complete_primitive([3, 5])
        assert first_column(u) == (3, 5)
        assert det(u) in (1, -1)

    def test_family_lift_vector(self):
        u = complete_primitive([0, 2, -4, 1])
        assert first_column(u) == (0, 2, -4, 1)
        assert det(u) in (1, -1)

    def test_imprimitive_rejected(self):
        with pytest.raises(ValueError, match="primitive"):
            complete_primitive([2, 4])

    @pytest.mark.parametrize("vec", [[-1, 0], [0, -1, 0], [-1, 0, 0, 0]])
    def test_sweep_ending_at_minus_one(self, vec):
        u = complete_primitive(vec)
        assert first_column(u) == tuple(vec)
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
        assert first_column(u) == tuple(vec)
        assert det(u) in (1, -1)
        # primitive_reducer is its inverse, built without an inversion
        r = primitive_reducer(vec)
        assert apply(r, vec) == tuple(int(i == 0) for i in range(len(vec)))
        assert matmul(r, u) == identity(len(vec))


class TestPrimitiveReducer:
    @pytest.mark.parametrize(
        "vec, u",
        [
            ((3, 5), [[2, -1], [-5, 3]]),
            ((0, 2, -4, 1), [[0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 2], [0, 0, -1, -4]]),
            ((6, 10, 15), [[1, 1, -1], [-5, -6, 6], [0, -3, 2]]),
            ((5, -7, 11, 2),
             [[0, 0, 1, -5], [-1, 0, 5, -25], [0, -1, -7, 35], [0, 0, -2, 11]]),
            ((-1, 0, 0), [[-1, 0, 0], [0, -1, 0], [0, 0, 1]]),
            ((0, -1, 0), [[0, -1, 0], [1, 0, 0], [0, 0, 1]]),
            ((1, 0, 0, 0), identity(4)),
        ],
    )
    def test_pinned(self, vec, u):
        assert primitive_reducer(vec) == tuples(u)

    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=5))
    @example([-1, 0, 0])
    @settings(max_examples=200, deadline=None)
    def test_is_the_hermite_witness_of_one_row_transposed(self, vec):
        assume(math.gcd(*vec) == 1 and vec != [-1])
        u = primitive_reducer(vec)
        assert det(u) == 1
        assert apply(u, vec) == tuple(int(i == 0) for i in range(len(vec)))
        transposed = tuple(zip(*hnf_column([vec]).c))
        if vec[0] == -1 and not any(vec[1:]):
            # the Hermite form negates the pivot; the reducer negates row 1 too
            assert u == (transposed[0], tuple(-x for x in transposed[1]), *transposed[2:])
        else:
            assert u == transposed


class TestInverseUnimodular:
    def test_identity(self):
        assert inverse_unimodular(identity(3)) == identity(3)

    def test_2x2(self):
        m = [[1, 1], [1, 0]]
        assert inverse_unimodular(m) == ((0, 1), (1, -1))

    def test_family_transform_witness(self):
        # the closed-form Smith transform for the m=2 family matrix
        x = [[1, 0, 0, 0], [0, 1, 0, 0], [0, -9, 0, 1], [-5, 0, 1, 0]]
        inv = inverse_unimodular(x)
        assert matmul(x, inv) == identity(4)
        assert matmul(inv, x) == identity(4)

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            inverse_unimodular([[2, 0], [0, 1]])

    @pytest.mark.parametrize(
        "rows, d", [([[1, 2], [3, 4]], -2), ([[0, 3], [1, 0]], -3), ([[1, 2], [2, 4]], 0)]
    )
    def test_non_unimodular_reports_its_det(self, rows, d):
        with pytest.raises(ValueError, match=rf"not unimodular \(det = {d}\)"):
            inverse_unimodular(rows)

    def test_two_sided(self):
        rng = random.Random(5)
        count = 0
        while count < 20:
            m = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            if det(m) in (1, -1):
                inv = inverse_unimodular(m)
                assert matmul(m, inv) == identity(3)
                assert matmul(inv, m) == identity(3)
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
    assert q == abs(det(cleared)) > 0
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
        assert matmul(inv, rows) == identity(3)

    def test_zero_pivot_after_the_first_step(self):
        # column 1 is zero below the first pivot until rows 1 and 2 are swapped
        rows = [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 0, 0], [0, 0, 0, 2]]
        assert fraction_free_inverse(rows)[1] == 2
        assert rational_inverse(rows) == [list(r) for r in oracle_inverse(rows)]

    def test_negative_determinant(self):
        rows = [[1, 2], [3, 4]]  # det -2
        inv, q = fraction_free_inverse(rows)
        assert q == 2
        assert inv == ((-4, 2), (3, -1))  # 2 * [[-2, 1], [3/2, -1/2]]

    def test_one_by_one(self):
        assert fraction_free_inverse([[-3]]) == (((-1,),), 3)
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
    assert det(rows) == -4
    inv, q = fraction_free_inverse(rows)
    assert q == 4
    assert matmul(inv, rows) == diagonal([4, 4, 4])
    assert inv == ((2, 0, 2), (3, -4, 1), (0, -4, 0))


def loop_matmul(a, b):
    """a . b as lists, one written-out sum per entry."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            total = 0
            for k in range(len(b)):
                total += a[i][k] * b[k][j]
            row.append(total)
        out.append(row)
    return out


@st.composite
def product_cases(draw):
    """a (n x k), b (k x m) and v (length k), for n, k, m in 1..4."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    entries = st.integers(-(10**12), 10**12)

    def matrix(rows, cols):
        row = st.lists(entries, min_size=cols, max_size=cols)
        return draw(st.lists(row, min_size=rows, max_size=rows))

    return matrix(n, k), matrix(k, m), draw(st.lists(entries, min_size=k, max_size=k))


class TestRowFormat:
    """Matrices are integer rows in, tuples of row tuples out."""

    @given(product_cases())
    @example(([[1, 2, 3]], [[4], [5], [6]], [7, 8, 9]))
    @example(([[4], [5], [6]], [[1, 2, 3]], [7]))
    @settings(max_examples=200, deadline=None)
    def test_matmul_and_apply_match_a_written_out_loop(self, case):
        a, b, v = case
        assert matmul(a, b) == tuples(loop_matmul(a, b))
        assert matmul(tuples(a), tuples(b)) == matmul(a, b)
        assert apply(a, v) == first_column(loop_matmul(a, [[x] for x in v]))

    @pytest.mark.parametrize(
        "rows",
        [
            # unimodular: the closed-form Smith transform for the m=2 family matrix
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, -9, 0, 1], [-5, 0, 1, 0]],
            [[2, 4, 6, -8], [3, -5, 7, 11], [12, 0, -6, 4], [9, 15, 21, 3]],
            [[3, -7, 2], [5, 1, -4], [-6, 8, 9]],
            # rank 2
            [[6, 4, 10, -2], [9, 6, 15, -3], [4, -8, 12, 14], [2, 12, -2, -16]],
        ],
    )
    def test_list_rows_and_tuple_rows_give_one_result(self, rows):
        same = tuples(rows)
        d = det(rows)
        assert det(same) == d
        dec = snf(rows)
        assert dec == snf(same) and is_rows(dec.x) and is_rows(dec.y)
        if d:
            dec = hnf_column(rows)
            assert dec == hnf_column(same) and is_rows(dec.h) and is_rows(dec.c)
        if d in (1, -1):
            inv = inverse_unimodular(rows)
            assert inv == inverse_unimodular(same) and is_rows(inv)
        inverse = fraction_free_inverse(rows)
        assert inverse == fraction_free_inverse(same)
        assert inverse is None or is_rows(inverse[0])

    def test_completion_and_reducer_are_tuple_rows(self):
        assert is_rows(complete_primitive([0, 2, -4, 1]))
        assert is_rows(primitive_reducer([0, 2, -4, 1]))
