import random
import statistics
from math import isqrt

import numpy as np
import pytest

from memsig import bench
from memsig.bench import (
    congruence_matrix_quadratic,
    fit_exponent,
    random_integer_grid,
    run_bench,
)
from memsig.fastsig import sig_tensor_fast
from memsig.membranes import GridData, cell_derivatives
from memsig.rational import rat


def _grid_with_deltas(delta: np.ndarray) -> GridData:
    """The integer grid whose cell mixed differences are ``delta`` (d, m, n)."""
    d, m, n = delta.shape
    nodes = np.zeros((d, m + 1, n + 1), dtype=object)
    nodes[:, 1:, 1:] = delta.cumsum(axis=1).cumsum(axis=2)
    return GridData.of(nodes, 1)


class TestQuadraticBaseline:
    @pytest.mark.parametrize(
        "target, float64_route",
        [(2**53, True), (2**61, False)],
        ids=["just-under-2^53", "between-2^53-and-2^62"],
    )
    def test_exact_on_both_sides_of_the_float64_bound(self, rng, target, float64_route):
        # |Delta| near amax, the largest value with 4 (mn amax)^2 < target: below
        # 2^53 the float64 products must be exact; above, where float64 would
        # round (int64 would not), the object route must run
        d, m, n = 2, 3, 4
        amax = isqrt((target - 1) // 4) // (m * n)
        vals = [rng.choice((-1, 1)) * rng.randint(amax - 10**4, amax) for _ in range(d * m * n)]
        vals[0] = amax
        g = _grid_with_deltas(np.array(vals, dtype=object).reshape(d, m, n))
        assert int(np.max(np.abs(cell_derivatives(g)[0]))) == amax
        bound = 4 * (m * n * amax) ** 2
        assert (bound < 2**53) == float64_route and target // 2 < bound < 2**62
        assert congruence_matrix_quadratic(g) == sig_tensor_fast(g, 2).to_matrix()

    def test_agrees_with_fast_on_random_grids(self, rng):
        for _ in range(8):
            g = random_integer_grid(rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 5), rng)
            assert congruence_matrix_quadratic(g) == sig_tensor_fast(g, 2).to_matrix()

    def test_rational_grid_falls_back_exactly(self, rng):
        vals = tuple(
            tuple(
                tuple(rat(rng.randint(-5, 5), rng.randint(2, 4)) for _ in range(3))
                for _ in range(3)
            )
            for _ in range(2)
        )
        g = GridData(2, 2, 2, vals)
        assert congruence_matrix_quadratic(g) == sig_tensor_fast(g, 2).to_matrix()

    def test_rational_grid_with_huge_cleared_delta_stays_exact(self, rng):
        # denominators near 10^6 give an lcm L, and so a cleared Delta, far
        # beyond the float64 bound: the object-dtype branch must run
        vals = tuple(
            tuple(
                tuple(rat(rng.randint(-9, 9), rng.randint(10**6 - 50, 10**6)) for _ in range(4))
                for _ in range(3)
            )
            for _ in range(2)
        )
        g = GridData(2, 2, 3, vals)
        assert int(np.max(np.abs(cell_derivatives(g)[0]))) > 2**31
        assert congruence_matrix_quadratic(g) == sig_tensor_fast(g, 2).to_matrix()

    def test_huge_values_take_object_dtype_branch(self, rng):
        big = 10**12  # far beyond the float64 bound
        vals = tuple(
            tuple(tuple(rat(rng.randint(-big, big)) for _ in range(3)) for _ in range(3))
            for _ in range(2)
        )
        g = GridData(2, 2, 2, vals)
        assert congruence_matrix_quadratic(g) == sig_tensor_fast(g, 2).to_matrix()


class TestHarness:
    def test_rows_and_summary(self):
        result = run_bench([(2, 2), (4, 4)], d=2, level=2, repeats=2, seed=7)
        assert {(r.method, r.m) for r in result.rows} == {
            ("fast", 2), ("fast", 4), ("congruence", 2), ("congruence", 4)
        }
        assert all(r.nanos > 0 for r in result.rows)
        assert "fast" in result.doubling_ratios and "congruence" in result.doubling_ratios
        lines = result.csv_lines()
        assert lines[0] == "method,m,n,nanos" and len(lines) >= 5

    def test_repeats_interleave_sizes_on_the_same_grids(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bench, "sig_tensor_fast", lambda grid, level: calls.append(grid))
        sizes = [(1, 2), (2, 2), (2, 3)]
        result = run_bench(sizes, d=2, repeats=3, methods=("fast",), seed=5)
        rng = random.Random(5)
        grids = [random_integer_grid(2, m, n, rng) for m, n in sizes]
        assert calls == grids * 3
        for row in result.rows:
            assert len(row.times) == 3
            assert row.nanos == int(statistics.median(row.times))

    def test_congruence_baseline_is_level2_only(self):
        with pytest.raises(ValueError):
            run_bench([(2, 2)], level=3, methods=("congruence",), seed=1)

    def test_level_is_checked_before_any_grid_is_drawn(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("no grid may be drawn")

        monkeypatch.setattr(bench, "random_integer_grid", no_grid)
        for level in (-1, 65, 1000):
            with pytest.raises(ValueError, match="level"):
                run_bench([(1, 1)], d=1, level=level, methods=("fast",), seed=1)
        with pytest.raises(ValueError, match="more than 10000000 entries"):
            run_bench([(1, 1)], d=10, level=8, methods=("fast",), seed=1)

    def test_fit_exponent_recovers_slope(self):
        points = [(10, 1000), (100, 10000), (1000, 100000)]
        assert abs(fit_exponent(points) - 1.0) < 1e-9
        assert fit_exponent([(10, 100)]) is None
