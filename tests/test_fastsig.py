from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import grids, rationals
from memsig.fastsig import (
    CellPolyField,
    advance_letter,
    cell_derivatives,
    sig_tensor_fast,
    sig_word_fast,
)
from memsig.linalg import Matrix
from memsig.membranes import (
    GridData,
    axis_grid,
    bilinear_decompose,
    core_matrix,
    sig_via_congruence,
)
from memsig.rational import rat
from memsig.tensor import words_iter


def bilinear_grid(u):
    """Single-cell grid of the membrane (s, t) -> u s t."""
    return GridData(len(u), 1, 1, tuple(((rat(0), rat(0)), (rat(0), rat(c))) for c in u))


def constant_delta(m, n, c):
    return np.full((m, n), c, dtype=object)


def piece_at(field, a, b, u, v):
    """Evaluate the piece of cell (a, b) at (u, v) from its local coefficients."""
    x, y = rat(u) * field.m - a, rat(v) * field.n - b
    total = sum(
        int(c) * x**p * y**q / (factorial(p) * factorial(q))
        for (p, q), c in np.ndenumerate(field.coeffs[a, b])
    )
    return rat(total) / field.scale


def field_at(field, u, v):
    """Evaluate a field at a point of the unit square via its (clamped) cell."""
    a = min(int(rat(u) * field.m), field.m - 1)
    b = min(int(rat(v) * field.n), field.n - 1)
    return piece_at(field, a, b, u, v)


class TestCellDerivatives:
    def test_single_cell(self):
        delta, scale = cell_derivatives(bilinear_grid((rat(5), rat(-2))))
        assert scale == 1
        assert delta.shape == (2, 1, 1) and delta[0, 0, 0] == 5 and delta[1, 0, 0] == -2

    def test_constant_grid(self):
        g = GridData(1, 2, 2, ((((rat(3),) * 3),) * 3,))
        delta, scale = cell_derivatives(g)
        assert scale == 1 and delta.shape == (1, 2, 2) and not delta.any()

    def test_axis_grid_is_scaled_indicator(self):
        m, n = 3, 2
        delta, scale = cell_derivatives(axis_grid(m, n))
        from memsig.membranes import nu_inv

        assert scale == 1
        for x in range(m * n):
            i, j = nu_inv(x + 1, n)
            for a in range(m):
                for b in range(n):
                    assert delta[x, a, b] == (1 if (a + 1, b + 1) == (i, j) else 0)

    def test_denominators_are_cleared_by_their_lcm(self):
        g = GridData(
            1, 1, 2, (((rat(1, 4), rat(0), rat(1, 6)), (rat(0), rat(1), rat(2, 3))),)
        )
        delta, scale = cell_derivatives(g)
        assert scale == 12
        # mixed node differences 1 + 1/4 = 5/4 and 2/3 - 1/6 - 1 = -1/2, in int64 below the node bound
        assert delta.dtype == np.int64 and delta.tolist() == [[[15, -6]]]

    @pytest.mark.parametrize(
        "top, den, dtype",
        [(2**61 - 1, 1, np.int64), (2**61 - 1, 2, np.int64), (2**61, 1, object), (2**61, 3, object),
         (2**62 - 1, 1, object), (2**70, 1, object)],
    )
    def test_int64_below_the_node_bound_and_exact_on_both_sides(self, top, den, dtype):
        # nodes +-top/den alternating in a and b make every |Delta| = 4 top, 2^63 - 4 at the bound;
        # the CLI test at this bound checks sig and decompose on such grids
        d, m, n = 2, 3, 2
        values = [[[rat((-1) ** (a + b + i) * top, den) for b in range(n + 1)] for a in range(m + 1)] for i in range(d)]
        g = GridData(d, m, n, values)
        delta, scale = cell_derivatives(g)
        v = g.ints.tolist()
        want = [
            [[v[i][a + 1][b + 1] - v[i][a][b + 1] - v[i][a + 1][b] + v[i][a][b] for b in range(n)] for a in range(m)]
            for i in range(d)
        ]
        assert delta.dtype == dtype and scale == g.den and delta.tolist() == want
        assert all(abs(x) == 4 * top * (g.den // den) for x in delta.flat)

    def test_huge_rational_nodes_stay_exact(self, rng):
        # numerators near 10^20 and denominators near 10^6 overflow any
        # fixed-width kernel; the result must still match the congruence route
        d, m, n = 2, 2, 3
        g = GridData(
            d,
            m,
            n,
            tuple(
                tuple(
                    tuple(
                        rat(rng.randint(-10**20, 10**20), rng.randint(10**6 - 50, 10**6))
                        for _ in range(n + 1)
                    )
                    for _ in range(m + 1)
                )
                for _ in range(d)
            ),
        )
        for k in (1, 2, 3):
            assert sig_tensor_fast(g, k) == sig_via_congruence(g, k)


class TestAdvanceLetter:
    def test_constant_integrand_single_cell(self):
        f = CellPolyField.ones(1, 1)
        g = advance_letter(f, constant_delta(1, 1, 3))
        # integral of 3 over [0,u] x [0,v] is 3 u v
        for u, v in [(rat(1, 3), rat(1, 2)), (rat(1), rat(1))]:
            assert field_at(g, u, v) == 3 * u * v

    def test_constant_integrand_stitches_across_cells(self):
        # Delta dx dy = 7 dx dy is 7 m n du dv on a 2 x 2 grid
        f = CellPolyField.ones(2, 2)
        g = advance_letter(f, constant_delta(2, 2, 7))
        for u, v in [
            (rat(0), rat(0)), (rat(1, 4), rat(3, 4)), (rat(1, 2), rat(1, 2)),
            (rat(3, 4), rat(1, 4)), (rat(1), rat(1)), (rat(1, 2), rat(1)),
        ]:
            assert field_at(g, u, v) == 28 * u * v

    def test_two_advances_single_cell(self):
        u = (rat(2), rat(-3))
        delta, _ = cell_derivatives(bilinear_grid(u))
        f = CellPolyField.ones(1, 1)
        f1 = advance_letter(f, delta[0])
        assert rat(*f1.corner()) == u[0]
        f2 = advance_letter(f1, delta[0])
        assert rat(*f2.corner()) == u[0] ** 2 / 4

    def test_degree_grows_by_one(self):
        f = CellPolyField.ones(2, 3)
        d = constant_delta(2, 3, 1)
        for expected_len in (1, 2, 3):
            assert f.word_len == expected_len - 1
            assert f.coeffs.shape == (2, 3, expected_len, expected_len)
            f = advance_letter(f, d)

    def test_malformed_field_rejected(self):
        with pytest.raises(ValueError):
            CellPolyField(np.ones((1, 1, 2, 1), dtype=object))
        with pytest.raises(ValueError):
            CellPolyField(np.ones((1, 1, 1, 1), dtype=np.int64))
        with pytest.raises(ValueError):
            advance_letter(CellPolyField.ones(2, 2), constant_delta(2, 1, 1))


class TestSigWordFast:
    def test_empty_word(self):
        g = bilinear_grid((rat(4),))
        assert sig_word_fast(g, ()) == 1

    def test_single_letter_is_mixed_increment(self, rng):
        g = GridData(
            2,
            2,
            3,
            tuple(
                tuple(tuple(rat(rng.randint(-9, 9)) for _ in range(4)) for _ in range(3))
                for _ in range(2)
            ),
        )
        for i in (1, 2):
            v = g.values[i - 1]
            expected = v[2][3] - v[0][3] - v[2][0] + v[0][0]
            assert sig_word_fast(g, (i,)) == expected

    def test_pair_matches_congruence(self, rng):
        g = GridData(
            2,
            3,
            4,
            tuple(
                tuple(
                    tuple(rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(5))
                    for _ in range(4)
                )
                for _ in range(2)
            ),
        )
        s = sig_via_congruence(g, 2)
        for i, j in words_iter(2, 2):
            assert sig_word_fast(g, (i, j)) == s.get((i, j))

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            sig_word_fast(bilinear_grid((rat(1),)), (2,))


class TestSigTensorFast:
    @given(grids(max_d=2, max_m=3, max_n=3))
    @settings(max_examples=15)
    def test_oracle_equivalence_level2(self, g):
        assert sig_tensor_fast(g, 2) == sig_via_congruence(g, 2)

    @given(grids(max_d=2, max_m=2, max_n=2))
    @settings(max_examples=10)
    def test_oracle_equivalence_level3(self, g):
        assert sig_tensor_fast(g, 3) == sig_via_congruence(g, 3)

    def test_every_entry_matches_the_word_route(self, rng):
        for k in (1, 2, 3):
            g = GridData(
                3,
                2,
                3,
                tuple(
                    tuple(
                        tuple(rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(4))
                        for _ in range(3)
                    )
                    for _ in range(3)
                ),
            )
            t = sig_tensor_fast(g, k)
            for w in words_iter(3, k):
                assert t.get(w) == sig_word_fast(g, w), (k, w)

    def test_level0(self):
        assert sig_tensor_fast(bilinear_grid((rat(2),)), 0).entries == (rat(1),)

    def test_single_cell_level3(self):
        u = (rat(2), rat(-1))
        t = sig_tensor_fast(bilinear_grid(u), 3)
        for w in words_iter(2, 3):
            prod_u = rat(1)
            for letter in w:
                prod_u *= u[letter - 1]
            assert t.get(w) == prod_u / 36

    def test_level1_is_reduced_endpoint_value(self, rng):
        g = GridData(
            1,
            3,
            2,
            (
                tuple(
                    tuple(rat(rng.randint(-9, 9)) for _ in range(3)) for _ in range(4)
                ),
            ),
        )
        v = g.values[0]
        assert sig_tensor_fast(g, 1).entries[0] == v[3][2] - v[0][2] - v[3][0] + v[0][0]


class TestSigMatrixFast:
    def test_axis_grid_gives_axis_core(self):
        for m, n in [(2, 2), (3, 2)]:
            assert sig_tensor_fast(axis_grid(m, n), 2).to_matrix() == core_matrix("axis", m, n)

    def test_matches_decomposition_congruence(self, rng):
        g = GridData(
            2,
            4,
            3,
            tuple(
                tuple(tuple(rat(rng.randint(-7, 7)) for _ in range(4)) for _ in range(5))
                for _ in range(2)
            ),
        )
        a = bilinear_decompose(g)
        assert sig_tensor_fast(g, 2).to_matrix() == a @ core_matrix("axis", 4, 3) @ a.transpose()

    def test_zero_grid(self):
        g = GridData(2, 2, 2, tuple((((rat(0),) * 3),) * 3 for _ in range(2)))
        assert sig_tensor_fast(g, 2).to_matrix() == Matrix.zeros(2, 2)


class TestFieldContinuity:
    @given(grids(max_d=1, max_m=3, max_n=3), rationals())
    @settings(max_examples=15)
    def test_adjacent_cells_agree_on_boundaries(self, g, frac):
        # clamp the sample ordinate into [0, 1]
        t = abs(frac)
        t = t - int(t) if t != int(t) else rat(0)
        delta, _ = cell_derivatives(g)
        f = advance_letter(advance_letter(CellPolyField.ones(g.m, g.n), delta[0]), delta[0])
        for a in range(g.m - 1):
            u = rat(a + 1, g.m)
            v = t / g.n  # stays inside the first row of cells
            assert piece_at(f, a, 0, u, v) == piece_at(f, a + 1, 0, u, v)
        for b in range(g.n - 1):
            v = rat(b + 1, g.n)
            u = t / g.m
            assert piece_at(f, 0, b, u, v) == piece_at(f, 0, b + 1, u, v)
