from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jordan_rows, matrices, rationals, square_matrices
from memsig.linalg import (
    Matrix,
    _bareiss,
    _rank_mod_p,
    cosquare,
    det,
    kron,
    pm1_jordan_structure,
    rank,
    rank_int_rows,
    solve,
    sym_skew_split,
)
from memsig.membranes import core_matrix
from memsig.rational import rat
from memsig.variety import random_integer_matrix

HALF = rat(1, 2)

P = 2**31 - 1

# entries that vanish mod P, or exceed int64, so that the rank mod P can fall
# below the rational rank and the exact fallback must decide
HARD_ENTRIES = [0, 1, -1, 2, P, -P, 2 * P, P << 40, (P << 40) + 1, 2**64, -(2**70) - 3]

MOM2 = Matrix.from_rows([[rat(1, 2), rat(2, 3)], [rat(1, 3), rat(1, 2)]])

MOM22 = Matrix.from_rows(
    [
        [rat(1, 4), rat(1, 3), rat(1, 3), rat(4, 9)],
        [rat(1, 6), rat(1, 4), rat(2, 9), rat(1, 3)],
        [rat(1, 6), rat(2, 9), rat(1, 4), rat(1, 3)],
        [rat(1, 9), rat(1, 6), rat(1, 6), rat(1, 4)],
    ]
)


class TestKron:
    def test_moment_squared_core(self):
        assert kron(MOM2, MOM2) == MOM22

    def test_identity(self):
        assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)

    def test_scalar(self):
        b = Matrix.from_rows([[1, 2], [3, 4]])
        assert kron(Matrix.from_rows([[2]]), b) == b.scale(2)

    @given(matrices(max_size=3), matrices(max_size=3))
    def test_block_definition(self, a, b):
        k = kron(a, b)
        assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
        for i in range(a.rows):
            for j in range(a.cols):
                for p in range(b.rows):
                    for q in range(b.cols):
                        assert k.at(i * b.rows + p, j * b.cols + q) == a.at(i, j) * b.at(p, q)

    @given(matrices(max_size=3), matrices(max_size=3), matrices(max_size=3), matrices(max_size=3))
    @settings(max_examples=25)
    def test_mixed_product(self, a, b, c, d):
        # kron(A,B) kron(C,D) = kron(AC, BD) whenever shapes compose
        if a.cols != c.rows or b.cols != d.rows:
            return
        assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


class TestSymSkewSplit:
    def test_symmetric_input(self):
        m = Matrix.from_rows([[1, 2], [2, 5]])
        sym, skew = sym_skew_split(m)
        assert sym == m and skew == Matrix.zeros(2, 2)

    def test_nilpotent(self):
        sym, skew = sym_skew_split(Matrix.from_rows([[0, 1], [0, 0]]))
        assert sym == Matrix.from_rows([[0, HALF], [HALF, 0]])
        assert skew == Matrix.from_rows([[0, HALF], [-HALF, 0]])

    @given(square_matrices(max_size=5))
    def test_reconstruction(self, m):
        sym, skew = sym_skew_split(m)
        assert sym + skew == m
        assert sym == sym.transpose()
        assert skew == -skew.transpose()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_skew_split(Matrix.zeros(2, 3))


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(5)) == 5

    def test_zero(self):
        assert rank(Matrix.zeros(3, 4)) == 0

    def test_axis_core_sym_rank(self):
        sym, _ = sym_skew_split(core_matrix("axis", 2, 2))
        assert rank(sym) == 4

    @given(square_matrices(max_size=4))
    def test_transpose_invariance(self, m):
        assert rank(m) == rank(m.transpose())

    def test_invariance_under_invertible_factors(self, rng):
        m = random_integer_matrix(4, 5, rng, 9)
        r = rank(m)
        for _ in range(3):
            while True:
                g = random_integer_matrix(4, 4, rng, 5)
                if det(g) != 0:
                    break
            assert rank(g @ m) == r


def bareiss_rank(rows) -> int:
    """The exact oracle: Bareiss elimination of a copy of ``rows``."""
    return _bareiss([list(r) for r in rows])[0]


@st.composite
def low_rank_matrices(st_draw, max_size=5):
    """A product (r x k) @ (k x c), so the rank is at most k, often below min(r, c)."""
    r, k, c = (st_draw(st.integers(1, max_size)) for _ in range(3))
    return st_draw(matrices(rows=r, cols=k)) @ st_draw(matrices(rows=k, cols=c))


class TestModularRank:
    @given(st.one_of(matrices(max_size=6), low_rank_matrices()))
    def test_rational_rank_matches_bareiss(self, m):
        assert rank(m) == bareiss_rank(m.ints.tolist())

    @given(
        st.integers(1, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-(2**80), 2**80), min_size=c, max_size=c), min_size=1, max_size=6
            )
        )
    )
    def test_integer_rank_matches_bareiss(self, rows):
        assert rank_int_rows([list(r) for r in rows]) == bareiss_rank(rows)

    @given(
        st.integers(1, 4).flatmap(
            lambda c: st.lists(
                st.lists(st.sampled_from(HARD_ENTRIES), min_size=c, max_size=c), min_size=1, max_size=4
            )
        )
    )
    def test_entries_vanishing_mod_p_fall_back_to_bareiss(self, rows):
        exact = bareiss_rank(rows)
        assert _rank_mod_p(rows) <= exact
        assert rank_int_rows([list(r) for r in rows]) == exact

    @pytest.mark.parametrize(
        "rows",
        [
            [[P, 0], [0, 1]],
            [[P << 40, 0], [0, 1]],
            [[2**64, 2**65], [1, P + 2]],
        ],
    )
    def test_rank_mod_p_below_rational_rank(self, rows):
        assert _rank_mod_p(rows) == 1
        assert rank_int_rows([list(r) for r in rows]) == 2
        assert rank(Matrix.from_rows(rows)) == 2

    def test_entries_above_int64_at_full_rank(self):
        rows = [[2**64 + 1, 2**70], [3, 2**63 + 5]]
        assert _rank_mod_p(rows) == 2 == rank_int_rows([list(r) for r in rows])

    def test_empty(self):
        assert rank_int_rows([]) == 0
        assert rank_int_rows([[], []]) == 0
        assert rank(Matrix(0, 3, ())) == 0 and rank(Matrix(3, 0, ())) == 0


class TestDet:
    def test_identity(self):
        assert det(Matrix.identity(4)) == 1

    def test_axis_core_small(self):
        assert det(core_matrix("axis", 1, 1)) == rat(1, 4)
        assert det(core_matrix("axis", 2, 2)) == rat(1, 256)

    @given(square_matrices(max_size=3), square_matrices(max_size=3))
    @settings(max_examples=25)
    def test_multiplicative(self, a, b):
        if a.rows != b.rows:
            return
        assert det(a @ b) == det(a) * det(b)

    def test_singular_with_nonzero_leading_column(self):
        m = Matrix.from_rows([[1, 2, 3], [2, 4, 7], [3, 6, 1]])
        assert rank(m) == 2
        assert det(m) == 0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det(Matrix.zeros(2, 3))


class TestJordanStructure:
    def test_identity(self):
        assert pm1_jordan_structure(Matrix.identity(3)) == Counter({(1, 1): 3})

    def test_single_nilpotent_block(self):
        m = Matrix.from_rows([[-1, 0], [-2, -1]])
        assert pm1_jordan_structure(m) == Counter({(-1, 2): 1})

    def test_axis_core_cosquare_odd_odd(self):
        q = cosquare(core_matrix("axis", 3, 3))
        assert pm1_jordan_structure(q) == Counter({(1, 1): 5, (-1, 1): 4})

    def test_rejects_other_eigenvalues(self):
        with pytest.raises(ValueError, match="eigenvalue other than") as info:
            pm1_jordan_structure(Matrix.from_rows([[2]]))
        assert type(info.value) is ValueError

    @pytest.mark.parametrize(
        "blocks",
        [
            [(1, 3), (-1, 2), (1, 1)],
            [(-1, 3), (-1, 1), (1, 2), (1, 2)],
            [(1, 1), (-1, 1), (-1, 3), (1, 3)],
            [(-1, 2), (-1, 2), (-1, 1)],
        ],
    )
    def test_recovers_blocks_under_rational_similarity(self, rng, blocks):
        n = sum(size for _, size in blocks)
        p = Matrix.zeros(n, n)
        while det(p) == 0:
            p = Matrix(n, n, tuple(rat(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n * n)))
        assert any(x.denominator > 1 for x in p.entries)
        m = p @ Matrix.from_rows(jordan_rows(blocks)) @ solve(p, Matrix.identity(n))
        assert pm1_jordan_structure(m) == Counter(blocks)

    def test_reconstructs_rank_sequences(self):
        m = cosquare(core_matrix("axis", 2, 3))
        blocks = pm1_jordan_structure(m)
        n = m.rows
        assert sum(mu_size[1] * cnt for mu_size, cnt in blocks.items()) == n
        for mu in (1, -1):
            shifted = m - Matrix.identity(n).scale(mu)
            power = Matrix.identity(n)
            for j in range(1, n + 1):
                power = power @ shifted
                # nilpotent part of a size-s block at mu contributes max(s - j, 0)
                predicted = n - sum(
                    min(j, size) * cnt
                    for (ev, size), cnt in blocks.items()
                    if ev == mu
                )
                assert rank(power) == predicted


class TestMatmul:
    def test_empty_inner_dimension_gives_zeros(self):
        assert Matrix(2, 0, ()) @ Matrix(0, 3, ()) == Matrix.zeros(2, 3)

    def test_empty_outer_dimensions(self):
        assert Matrix(0, 2, ()) @ Matrix(2, 0, ()) == Matrix(0, 0, ())


class TestInverse:
    @given(square_matrices(max_size=4))
    def test_inverse_roundtrip(self, m):
        if det(m) == 0:
            with pytest.raises(ValueError):
                solve(m, Matrix.identity(m.rows))
            return
        assert m @ solve(m, Matrix.identity(m.rows)) == Matrix.identity(m.rows)


class TestSolve:
    @given(square_matrices(max_size=5), st.integers(0, 4), st.data())
    def test_solution_satisfies_the_system(self, a, k, data):
        b = data.draw(matrices(rows=a.rows, cols=k)) if k else Matrix(a.rows, 0, ())
        if det(a) == 0:
            with pytest.raises(ValueError, match="singular"):
                solve(a, b)
            return
        assert a @ solve(a, b) == b

    @given(square_matrices(max_size=5))
    def test_cosquare_definition(self, m):
        if det(m) == 0:
            with pytest.raises(ValueError, match="singular"):
                cosquare(m)
            return
        assert m.transpose() @ cosquare(m) == m

    @given(
        st.integers(2, 4).flatmap(
            lambda n: st.integers(1, n - 1).flatmap(
                lambda k: st.tuples(matrices(rows=n, cols=k), matrices(rows=k, cols=n))
            )
        )
    )
    def test_rank_deficient_product_is_singular(self, factors):
        left, right = factors  # n x k @ k x n with k < n has rank below n
        with pytest.raises(ValueError, match="singular"):
            solve(left @ right, Matrix.identity(left.rows))

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="square"):
            solve(Matrix.zeros(2, 3), Matrix.zeros(2, 1))
        with pytest.raises(ValueError, match="right-hand side"):
            solve(Matrix.identity(2), Matrix.zeros(3, 1))
        assert solve(Matrix(0, 0, ()), Matrix(0, 2, ())) == Matrix(0, 2, ())


class TestExactness:
    @given(st.lists(rationals(), min_size=3, max_size=8))
    def test_reassociation(self, xs):
        left_sum = rat(0)
        for x in xs:
            left_sum = left_sum + x
        right_sum = rat(0)
        for x in reversed(xs):
            right_sum = x + right_sum
        assert left_sum == right_sum
        left_prod = rat(1)
        for x in xs:
            left_prod = left_prod * x
        right_prod = rat(1)
        for x in reversed(xs):
            right_prod = x * right_prod
        assert left_prod == right_prod
