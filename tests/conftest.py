import random

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from memsig.linalg import Matrix
from memsig.membranes import GridData
from memsig.rational import rat

settings.register_profile(
    "memsig",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("memsig")


@st.composite
def rationals(st_draw, num_bound=12, den_bound=6):
    p = st_draw(st.integers(-num_bound, num_bound))
    q = st_draw(st.integers(1, den_bound))
    return rat(p, q)


@st.composite
def matrices(st_draw, rows=None, cols=None, max_size=4):
    r = rows if rows is not None else st_draw(st.integers(1, max_size))
    c = cols if cols is not None else st_draw(st.integers(1, max_size))
    ents = st_draw(st.lists(rationals(), min_size=r * c, max_size=r * c))
    return Matrix(r, c, tuple(ents))


@st.composite
def square_matrices(st_draw, max_size=4):
    n = st_draw(st.integers(1, max_size))
    return st_draw(matrices(rows=n, cols=n))


@st.composite
def skew_4x4_matrices(st_draw):
    n = 4
    upper = st_draw(st.lists(rationals(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    rows = [[rat(0)] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i + 1, n):
            x = next(it)
            rows[i][j] = x
            rows[j][i] = -x
    return Matrix.from_rows(rows)


@st.composite
def grid_values(st_draw, max_d=2, max_m=3, max_n=3):
    """(d, m, n, values): nested lists values[i][a][b] of rationals."""
    d = st_draw(st.integers(1, max_d))
    m = st_draw(st.integers(1, max_m))
    n = st_draw(st.integers(1, max_n))
    vals = st_draw(
        st.lists(
            st.lists(
                st.lists(rationals(), min_size=n + 1, max_size=n + 1),
                min_size=m + 1,
                max_size=m + 1,
            ),
            min_size=d,
            max_size=d,
        )
    )
    return d, m, n, vals


def grids(max_d=2, max_m=3, max_n=3):
    return grid_values(max_d, max_m, max_n).map(lambda args: GridData(*args))


@pytest.fixture
def rng():
    return random.Random(20240801)


def jordan_rows(blocks) -> list[list[int]]:
    """Rows of the direct sum of J_size(mu) over the (mu, size) pairs, ones above the diagonal."""
    n = sum(size for _, size in blocks)
    j = [[0] * n for _ in range(n)]
    start = 0
    for mu, size in blocks:
        for r in range(start, start + size):
            j[r][r] = mu
            if r + 1 < start + size:
                j[r][r + 1] = 1
        start += size
    return j
