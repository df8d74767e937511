from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import grids, rationals
from memsig import fastsig, tensor
from memsig.fastsig import (
    _step_scales,
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


def ones(m, n):
    """The empty word's field."""
    return np.ones((m, n, 1, 1), dtype=object)


def piece_at(coeffs, a, b, u, v):
    """Evaluate the piece of cell (a, b) at (u, v) from its local coefficients."""
    m, n, s = coeffs.shape[:3]
    x, y = rat(u) * m - a, rat(v) * n - b
    total = sum(
        int(c) * x**p * y**q / (factorial(p) * factorial(q))
        for (p, q), c in np.ndenumerate(coeffs[a, b])
    )
    return rat(total) / _step_scales(s - 1)


def field_at(coeffs, u, v):
    """Evaluate a field at a point of the unit square via its (clamped) cell."""
    m, n = coeffs.shape[:2]
    a = min(int(rat(u) * m), m - 1)
    b = min(int(rat(v) * n), n - 1)
    return piece_at(coeffs, a, b, u, v)


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
        # mixed node differences 1 + 1/4 = 5/4 and 2/3 - 1/6 - 1 = -1/2
        assert delta.tolist() == [[[15, -6]]]

    @pytest.mark.parametrize(
        "top, den", [(2**61 - 1, 1), (2**61 - 1, 2), (2**61, 1), (2**61, 3), (2**62 - 1, 1), (2**70, 1)]
    )
    def test_exact_at_nodes_near_and_past_int64(self, top, den):
        # nodes +-top/den alternating in a and b make every |Delta| = 4 top, past int64 from 2^61 on;
        # the CLI test on such grids checks sig and decompose
        d, m, n = 2, 3, 2
        values = [[[rat((-1) ** (a + b + i) * top, den) for b in range(n + 1)] for a in range(m + 1)] for i in range(d)]
        g = GridData(d, m, n, values)
        delta, scale = cell_derivatives(g)
        v = g.ints.tolist()
        want = [
            [[v[i][a + 1][b + 1] - v[i][a][b + 1] - v[i][a + 1][b] + v[i][a][b] for b in range(n)] for a in range(m)]
            for i in range(d)
        ]
        assert scale == g.den and delta.tolist() == want
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
        f = ones(1, 1)
        g = advance_letter(f, constant_delta(1, 1, 3))
        # integral of 3 over [0,u] x [0,v] is 3 u v
        for u, v in [(rat(1, 3), rat(1, 2)), (rat(1), rat(1))]:
            assert field_at(g, u, v) == 3 * u * v

    def test_constant_integrand_stitches_across_cells(self):
        # Delta dx dy = 7 dx dy is 7 m n du dv on a 2 x 2 grid
        f = ones(2, 2)
        g = advance_letter(f, constant_delta(2, 2, 7))
        for u, v in [
            (rat(0), rat(0)), (rat(1, 4), rat(3, 4)), (rat(1, 2), rat(1, 2)),
            (rat(3, 4), rat(1, 4)), (rat(1), rat(1)), (rat(1, 2), rat(1)),
        ]:
            assert field_at(g, u, v) == 28 * u * v

    def test_two_advances_single_cell(self):
        u = (rat(2), rat(-3))
        delta, _ = cell_derivatives(bilinear_grid(u))
        f = ones(1, 1)
        f1 = advance_letter(f, delta[0])
        assert field_at(f1, 1, 1) == u[0]
        f2 = advance_letter(f1, delta[0])
        assert field_at(f2, 1, 1) == u[0] ** 2 / 4

    def test_degree_grows_by_one(self):
        f = ones(2, 3)
        d = constant_delta(2, 3, 1)
        for expected_len in (1, 2, 3):
            assert f.shape == (2, 3, expected_len, expected_len)
            f = advance_letter(f, d)

    def test_malformed_field_rejected(self):
        with pytest.raises(ValueError):
            advance_letter(np.ones((1, 1, 2, 1), dtype=object), constant_delta(1, 1, 1))
        with pytest.raises(ValueError):
            advance_letter(np.ones((1, 1, 1, 1), dtype=np.int64), constant_delta(1, 1, 1))
        with pytest.raises(ValueError):
            advance_letter(np.ones((1, 1, 1), dtype=object), constant_delta(1, 1, 1))
        with pytest.raises(ValueError):
            advance_letter(ones(2, 2), constant_delta(2, 1, 1))


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

    @given(grids(max_d=2, max_m=2, max_n=2))
    @settings(max_examples=10)
    def test_oracle_equivalence_level4(self, g):
        assert sig_tensor_fast(g, 4) == sig_via_congruence(g, 4)

    def test_every_entry_matches_the_word_route(self, rng):
        # d = 1 and strips of one cell row or column: the fused step's exclusive cumsums run over length-1 axes
        shapes = [(1, 1, 4), (1, 3, 1), (2, 1, 1), (2, 1, 3), (2, 4, 1), (3, 2, 3)]
        for k in range(1, 6):
            for d, m, n in shapes:
                g = GridData(
                    d,
                    m,
                    n,
                    tuple(
                        tuple(
                            tuple(rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n + 1))
                            for _ in range(m + 1)
                        )
                        for _ in range(d)
                    ),
                )
                t = sig_tensor_fast(g, k)
                for w in words_iter(d, k):
                    assert t.get(w) == sig_word_fast(g, w), (d, m, n, k, w)

    @pytest.mark.parametrize("d, k, advances", [(3, 0, 0), (3, 1, 0), (2, 2, 0), (4, 3, 4), (2, 4, 6), (3, 4, 12)])
    def test_the_walk_stops_two_letters_short(self, monkeypatch, d, k, advances):
        # the fused step replaces the deepest layer of advances: sum of d^j for j = 1 .. k - 2
        calls = []

        def counted(coeffs, delta):
            calls.append(coeffs.shape[2])
            return advance_letter(coeffs, delta)

        monkeypatch.setattr(fastsig, "advance_letter", counted)
        g = GridData(d, 2, 3, tuple((((rat(1),) * 4),) * 3 for _ in range(d)))
        sig_tensor_fast(g, k)
        assert len(calls) == advances and all(s <= k - 2 for s in calls)

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


def zero_grid(d, m, n):
    return GridData(d, m, n, [[[0] * (n + 1)] * (m + 1)] * d)


class Allocated(Exception):
    """Raised in place of ``cell_derivatives``: the budget let the call through to its first allocation."""


class TestWorkingSetBudget:
    """Both routes count the coefficients their live fields hold before they allocate any of them."""

    @pytest.fixture(autouse=True)
    def no_allocation(self, monkeypatch):
        def cell_derivatives(grid):
            raise Allocated

        monkeypatch.setattr(fastsig, "cell_derivatives", cell_derivatives)

    def test_a_one_entry_tensor_over_a_large_grid_is_refused(self):
        # one entry passes check_entry_count; the walk would hold 10^4 * (1^2 + ... + 63^2) coefficients
        with pytest.raises(ValueError, match="the level-64 walk over 10000 cells has more than 10000000 entries"):
            sig_tensor_fast(zero_grid(1, 100, 100), 64)

    @pytest.mark.parametrize(
        "route, d, m, n, k, coefficients",
        [
            ("tensor", 2, 3, 4, 4, 12 * (1 + 4 + 9)),
            ("tensor", 1, 2, 2, 2, 4),
            ("word", 2, 3, 4, 3, 12 * (9 + 16)),
            ("word", 1, 2, 2, 0, 4),
        ],
    )
    def test_the_bound_is_inclusive(self, monkeypatch, route, d, m, n, k, coefficients):
        grid = zero_grid(d, m, n)

        def call():
            return sig_tensor_fast(grid, k) if route == "tensor" else sig_word_fast(grid, [1] * k)

        monkeypatch.setattr(tensor, "MAX_ENTRIES", coefficients)
        with pytest.raises(Allocated):
            call()
        monkeypatch.setattr(tensor, "MAX_ENTRIES", coefficients - 1)
        with pytest.raises(ValueError, match=f"more than {coefficients - 1} entries"):
            call()

    def test_levels_without_a_field_are_not_counted(self, monkeypatch):
        monkeypatch.setattr(tensor, "MAX_ENTRIES", 1)  # below the 4 cells of the grid
        grid = zero_grid(1, 2, 2)
        assert sig_tensor_fast(grid, 0).entries == (rat(1),)
        with pytest.raises(Allocated):
            sig_tensor_fast(grid, 1)

    def test_long_words_on_large_grids_stay_allowed(self):
        # one word of length 16 on a d=3 100 x 100 grid holds 10^4 * (16^2 + 17^2) = 5.45 * 10^6 coefficients
        with pytest.raises(Allocated):
            sig_word_fast(zero_grid(3, 100, 100), [1, 2, 3, 1] * 4)


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
        f = advance_letter(advance_letter(ones(g.m, g.n), delta[0]), delta[0])
        for a in range(g.m - 1):
            u = rat(a + 1, g.m)
            v = t / g.n  # stays inside the first row of cells
            assert piece_at(f, a, 0, u, v) == piece_at(f, a + 1, 0, u, v)
        for b in range(g.n - 1):
            v = rat(b + 1, g.n)
            u = t / g.m
            assert piece_at(f, 0, b, u, v) == piece_at(f, 0, b + 1, u, v)
