"""Wall-clock scaling harness: fast backend vs the quadratic congruence baseline.

The fast backend is the per-cell prefix-sum algorithm (time Theta(k^3 m n) per
word).  The congruence baseline forms the signature matrix as A C A^T with the
full (mn)^2-entry axis core, so its cost is quadratic in the number of grid
cells.  The baseline reads the grid's integer nodes and streams column blocks
of the core, each built from the two level-2 axis path cores of ``paths``,
through matrix products (float64 BLAS under a proved exactness bound, Python
ints otherwise) instead of materializing the core, which keeps the memory
footprint linear while leaving the Theta((mn)^2) work intact; it has no
rational fallback.

Timings use the monotonic clock.  Each repeat times every size and method once,
so a slow stretch of the host hits all sizes alike; a row keeps every repeat's
time and reports the median.  CSV rows are (method, m, n, nanos).
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .fastsig import sig_tensor_fast
from .linalg import Matrix
from .membranes import GridData, cell_derivatives
from .paths import axis_path_core
from .tensor import check_budget, check_entry_count


def random_integer_grid(d: int, m: int, n: int, rng: random.Random, bound: int = 9) -> GridData:
    """Integer node values uniform in [-bound, bound], drawn in row-major order."""
    draws = [rng.randint(-bound, bound) for _ in range(d * (m + 1) * (n + 1))]
    return GridData.of(np.array(draws, dtype=object).reshape(d, m + 1, n + 1), 1)


def congruence_matrix_quadratic(grid: GridData) -> Matrix:
    """Exact signature matrix via the explicit (mn)^2 core congruence.

    With (Delta, L) from ``cell_derivatives``, A = Delta / L is the d x mn
    transform onto the axis dictionary.  The level-2 axis path cores, ci of
    order m and cj of order n, store entries in {0, 1, 2} over den 2, and
    4 * C_axis is their Kronecker product: entry ((i, j), (k, l)) is
    ci[i, k] * cj[j, l].  Each column block of 4 * C_axis (about 2e6
    entries) is one broadcast product of columns of ci and cj; it is
    multiplied into Delta, and the result is divided by 4 L^2 at the end.

    Every product and partial sum of W = Delta 4C and S = W Delta^T is an
    integer of magnitude at most mn * 4 * amax * mn * amax = 4 (mn amax)^2,
    amax = max |Delta|.  Below 2^53 every such integer is a float64, so the
    float64 (BLAS) products are exact in any summation order; otherwise the
    products run on Python ints.
    """
    delta, scale = cell_derivatives(grid)
    d, m, n = grid.d, grid.m, grid.n
    big = m * n
    amax = int(np.max(np.abs(delta)))
    dtype = np.float64 if 4 * (big * amax) ** 2 < 2**53 else object
    a = delta.reshape(d, big).astype(dtype)
    ci = axis_path_core(m, 2).ints.astype(dtype)
    cj = axis_path_core(n, 2).ints.astype(dtype)
    w = np.empty((d, big), dtype=dtype)
    width = max(1, 2_000_000 // big)  # about 2e6 core entries per block
    for c0 in range(0, big, width):
        cols = np.arange(c0, min(c0 + width, big))
        block = ci[:, cols // n][:, None, :] * cj[:, cols % n][None, :, :]
        w[:, cols] = a @ block.reshape(big, -1)
    s = w @ a.T
    return Matrix.of(s.astype(np.int64) if dtype is np.float64 else s, 4 * scale**2)


@dataclass(frozen=True)
class BenchRow:
    method: str
    m: int
    n: int
    times: tuple  # ns, one per repeat, in the order run

    @property
    def nanos(self) -> int:
        return int(statistics.median(self.times))


@dataclass(frozen=True)
class BenchResult:
    rows: tuple
    fast_exponent: float | None
    doubling_ratios: dict

    def csv_lines(self) -> list[str]:
        lines = ["method,m,n,nanos"]
        lines += [f"{r.method},{r.m},{r.n},{r.nanos}" for r in self.rows]
        if self.fast_exponent is not None:
            lines.append(f"# fast scaling exponent in m*n: {self.fast_exponent:.3f}")
        for method, ratio in sorted(self.doubling_ratios.items()):
            lines.append(f"# {method} doubling time ratio: {ratio:.2f}")
        return lines


def _time_ns(fn) -> int:
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        fn()
        return time.perf_counter_ns() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
        gc.collect()


def fit_exponent(points: list[tuple[int, int]]) -> float | None:
    """Least-squares slope of log(nanos) against log(m*n)."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s > 0 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return None
    return statistics.linear_regression(*zip(*pts)).slope


def run_bench(
    sizes: list[tuple[int, int]],
    d: int = 2,
    level: int = 2,
    repeats: int = 3,
    methods: tuple[str, ...] = ("fast", "congruence"),
    seed: int | None = None,
) -> BenchResult:
    """Median-of-repeats timings per size and method, plus the fast-method fit.

    Every grid size and the level are checked against the entry budget
    (``tensor.check_budget``, ``tensor.check_entry_count``), every method
    name and the level of ``congruence`` are checked, and a repeated size or
    method is refused, before any grid is drawn.
    All grids are drawn first, in size order; then each repeat times every
    (size, method) pair once, in that order.
    ``doubling_ratios`` maps each method to median(t at 2m x 2n) / median(t
    at m x n) for the pair of given sizes with the largest 2m x 2n, in any
    order of ``sizes``; it is empty when no size doubles another.
    """
    if repeats < 1:
        raise ValueError(f"need at least one repeat, got {repeats}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    check_entry_count(d, level)
    for m, n in sizes:
        if min(m, n) < 1:
            raise ValueError(f"need sizes with m, n >= 1, got {m}x{n}")
        check_budget(d * (m + 1) * (n + 1), f"a {d} x {m + 1} x {n + 1} grid")
    kernels = {"fast": lambda grid: sig_tensor_fast(grid, level), "congruence": congruence_matrix_quadratic}
    for method in methods:
        if method not in kernels:
            raise ValueError(f"unknown method {method!r}")
        if method == "congruence" and level != 2:
            raise ValueError("the congruence baseline benchmarks level 2 only")
    if len(set(sizes)) < len(sizes) or len(set(methods)) < len(methods):
        raise ValueError("each size and each method may be given once")
    rng = random.Random(seed)
    grids = [random_integer_grid(d, m, n, rng) for m, n in sizes]
    jobs = [(method, m, n, grid) for (m, n), grid in zip(sizes, grids) for method in methods]
    times = [[] for _ in jobs]
    for _ in range(repeats):
        for job_times, (method, _, _, grid) in zip(times, jobs):
            job_times.append(_time_ns(lambda: kernels[method](grid)))
    rows = [BenchRow(method, m, n, tuple(t)) for (method, m, n, _), t in zip(jobs, times)]
    medians = {(r.method, (r.m, r.n)): r.nanos for r in rows}
    fast_points = [
        (m * n, medians[("fast", (m, n))]) for m, n in sizes if ("fast", (m, n)) in medians
    ]
    exponent = fit_exponent(fast_points) if len(fast_points) >= 2 else None
    pairs = [(small, big) for small in sizes for big in sizes if big == (2 * small[0], 2 * small[1])]
    ratios: dict[str, float] = {}
    if pairs:
        small, big = max(pairs, key=lambda pair: pair[1][0] * pair[1][1])
        ratios = {method: medians[(method, big)] / medians[(method, small)] for method in methods}
    return BenchResult(tuple(rows), exponent, ratios)
