from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rationals
from memsig.linalg import Matrix
from memsig.paths import (
    AxisPath,
    LinearPath,
    MomentPath,
    PiecewiseLinearPath,
    PolynomialPath,
    axis_path_pieces,
    axis_path_sig_entry,
    linear_path_sig,
    moment_path_poly,
    moment_path_sig_entry,
    path_sig_entry_fn,
    poly_path_sig_oracle,
    pw_linear_path_pieces,
    pw_linear_path_sig,
    pw_poly_path_sig_oracle,
)
from memsig.rational import rat
from memsig.tensor import SigTensor, words_iter


class TestLinearPathSig:
    def test_level2_outer_product(self):
        t = linear_path_sig((1, 2), 2)
        assert t.to_matrix() == Matrix.from_rows([[rat(1, 2), 1], [1, 2]])

    def test_level0(self):
        assert linear_path_sig((5, 7, 1), 0).entries == (rat(1),)

    def test_basis_vector_level3(self):
        t = linear_path_sig((1, 0, 0), 3)
        for w in words_iter(3, 3):
            assert t.get(w) == (rat(1, 6) if w == (1, 1, 1) else 0)


class TestMomentEntries:
    def test_displayed_matrix_entries(self):
        assert moment_path_sig_entry((1, 2)) == rat(2, 3)
        assert moment_path_sig_entry((2, 1)) == rat(1, 3)

    def test_word_111(self):
        assert moment_path_sig_entry((1, 1, 1)) == rat(1, 6)

    def test_empty_word(self):
        assert moment_path_sig_entry(()) == 1

    def test_matches_integration_oracle_up_to_length_4(self):
        for m in range(1, 5):
            mom = moment_path_poly(m)
            for k in range(5):
                for w in product(range(1, m + 1), repeat=k):
                    assert moment_path_sig_entry(w) == poly_path_sig_oracle(mom, w)


class TestAxisEntries:
    def test_diagonal_half(self):
        assert axis_path_sig_entry((1, 1), 1) == rat(1, 2)
        assert axis_path_sig_entry((3, 3), 4) == rat(1, 2)

    def test_below_diagonal_zero(self):
        assert axis_path_sig_entry((2, 1), 2) == 0

    def test_multiset_count(self):
        # three distinct rearrangements of "122", divided by 3!
        assert axis_path_sig_entry((1, 2, 2), 2) == rat(1, 2)

    def test_level2_matrix_shape(self):
        for m in range(1, 5):
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    expected = rat(1) if i < j else rat(1, 2) if i == j else rat(0)
                    assert axis_path_sig_entry((i, j), m) == expected

    def test_matches_piecewise_integration_oracle(self):
        for m in range(1, 4):
            breaks, derivs = axis_path_pieces(m)
            for k in range(4):
                for w in product(range(1, m + 1), repeat=k):
                    assert axis_path_sig_entry(w, m) == pw_poly_path_sig_oracle(
                        breaks, derivs, w
                    )

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            axis_path_sig_entry((3,), 2)

    @pytest.mark.parametrize("word", [(0,), (4,), (1, 4)])
    def test_piecewise_oracle_letter_out_of_range(self, word):
        with pytest.raises(ValueError, match="out of range"):
            pw_poly_path_sig_oracle(*axis_path_pieces(3), word)


class TestPwLinearPathSig:
    def test_single_segment_is_linear_path(self):
        u = (rat(2), rat(-1, 3))
        t = pw_linear_path_sig(((0, 0), u), 3)
        assert t == linear_path_sig(u, 3)

    def test_axis_vertices_give_axis_core(self):
        m = 3
        verts = [tuple(rat(1) if c < s else rat(0) for c in range(m)) for s in range(m + 1)]
        t = pw_linear_path_sig(verts, 2)
        for w in words_iter(m, 2):
            assert t.get(w) == axis_path_sig_entry(w, m)

    def test_staircase_level2(self):
        t = pw_linear_path_sig(((0, 0), (1, 0), (1, 1)), 2)
        assert t.to_matrix() == Matrix.from_rows([[rat(1, 2), 1], [0, rat(1, 2)]])

    def test_matches_piecewise_integration_oracle(self, rng):
        for _ in range(3):
            verts = tuple(
                tuple(rat(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
                for _ in range(4)
            )
            path = PiecewiseLinearPath(verts)
            breaks, derivs = pw_linear_path_pieces(path)
            t = pw_linear_path_sig(path, 2)
            for w in words_iter(2, 2):
                assert t.get(w) == pw_poly_path_sig_oracle(breaks, derivs, w)

    @given(st.lists(rationals(), min_size=2, max_size=2))
    @settings(max_examples=20)
    def test_translation_invariance(self, shift):
        verts = ((0, 0), (1, 2), (3, 1), (2, 2))
        shifted = tuple(tuple(x + s for x, s in zip(v, shift)) for v in verts)
        for k in range(3):
            assert pw_linear_path_sig(verts, k) == pw_linear_path_sig(shifted, k)

    @given(rationals())
    @settings(max_examples=20)
    def test_tucker_homogeneity(self, lam):
        verts = ((0, 0), (1, 2), (3, 1))
        scaled = tuple(tuple(lam * x for x in v) for v in verts)
        for k in range(4):
            expected = pw_linear_path_sig(verts, k)
            got = pw_linear_path_sig(scaled, k)
            assert got.entries == tuple(lam**k * e for e in expected.entries)


class TestPolyOracle:
    def test_single_letter_is_total_increment(self):
        path = PolynomialPath(((rat(2), rat(-1)), (rat(0), rat(1, 3))))
        # X_i(1) - X_i(0) = sum of coefficients
        assert poly_path_sig_oracle(path, (1,)) == rat(1)
        assert poly_path_sig_oracle(path, (2,)) == rat(1, 3)

    def test_linear_path_level2(self):
        u = (rat(3), rat(-2))
        path = PolynomialPath(((u[0],), (u[1],)))
        for i, j in words_iter(2, 2):
            assert poly_path_sig_oracle(path, (i, j)) == u[i - 1] * u[j - 1] / 2


def _rank1_check(matrix: Matrix, level1: SigTensor):
    d = matrix.rows
    s = matrix + matrix.transpose()
    for i in range(d):
        for j in range(d):
            assert s.at(i, j) == level1.entries[i] * level1.entries[j]
            for p in range(i + 1, d):
                for q in range(j + 1, d):
                    assert s.at(i, j) * s.at(p, q) - s.at(i, q) * s.at(p, j) == 0


class TestShuffleRankOne:
    def test_all_path_families(self, rng):
        specs = [
            LinearPath((rat(2), rat(-1), rat(1, 3))),
            MomentPath(3),
            AxisPath(4),
            PiecewiseLinearPath(
                tuple(
                    tuple(rat(rng.randint(-3, 3)) for _ in range(3)) for _ in range(5)
                )
            ),
            PolynomialPath(
                tuple(
                    tuple(rat(rng.randint(-2, 2)) for _ in range(3)) for _ in range(2)
                )
            ),
        ]
        for spec in specs:
            entry = path_sig_entry_fn(spec)
            d = spec.dim
            s = Matrix(d, d, tuple(entry((i, j)) for i in range(1, d + 1) for j in range(1, d + 1)))
            level1 = SigTensor(1, d, tuple(entry((i,)) for i in range(1, d + 1)))
            _rank1_check(s, level1)
