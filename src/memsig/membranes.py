"""Membrane specifications, dictionary core tensors and the congruence route.

A two-parameter membrane with polynomial or piecewise-bilinear coordinates is
a linear transform of a dictionary membrane (moment resp. axis), so its
signature tensors are the dictionary core tensors pushed through the Tucker
action.  The dictionary membranes are products of paths, so a core entry is
the product of two path-signature entries, and the whole level-k core is the
outer product of the two level-k path cores with their axes interleaved.

A grid, like every exact array here, is an ``ExactArray``: integer nodes
``GridData.ints`` over one denominator ``GridData.den``, the form the grid
kernels read, so a cell's mixed node difference is an integer difference
(``cell_derivatives``).  The nodes are int64 when every |node| < 2^61,
where a difference of four nodes fits in int64, and Python ints otherwise;
a pixel grid with small integer nodes never leaves int64 on its way from
the file reader to ``decompose``'s text.
The core tensors, ``reduce_grid`` and ``bilinear_decompose`` compute on
stored integers too and return their results through ``of``.

The single flattening convention for pairs (i, j) in [m] x [n] is
nu(i, j) = n (i - 1) + j (1-based); at level 2 this makes the moment and axis
core matrices exactly the Kronecker products of the path core matrices.

The congruence map is standardized as A C A^T with A of shape d x mn (the
transposed parameterization covers the same image set).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import Matrix
from .paths import axis_path_core, moment_path_core
from .rational import ExactArray, Rat, ZERO, rat
from .tensor import SigTensor, check_budget, check_entry_count, tucker_apply

log = logging.getLogger(__name__)


# --------------------------------------------------------------------------
# vectorization


def nu(i: int, j: int, n: int) -> int:
    """Flatten (i, j) in [m] x [n] to n (i - 1) + j (all 1-based)."""
    return n * (i - 1) + j


def nu_inv(x: int, n: int) -> tuple[int, int]:
    return (x - 1) // n + 1, (x - 1) % n + 1


# --------------------------------------------------------------------------
# grid data and membrane specs


@dataclass(frozen=True, init=False, eq=False)
class GridData(ExactArray):
    """Rational node values X_i(a/m, b/n) over one common denominator.

    ``ints`` is a read-only (d, m+1, n+1) numpy integer array, which ``d``,
    ``m`` and ``n`` are read off: int64 exactly when every |node| < 2^61
    (``_int64_below``, applied on every route by ``ExactArray._store``), and
    Python ints in an object array otherwise.  ``den`` is the lcm L of the
    node denominators in lowest terms, so
    X_i(a/m, b/n) = ints[i, a, b] / L; ``values`` derives the rationals.
    ``GridData(d, m, n, values)`` takes nested values[i][a][b] (ints or
    rationals; a float or a string raises TypeError) and clears them once.
    Grids with equal values compare and hash equal.
    """

    _least_shape = (1, 2, 2)
    _int64_below = 2**61  # 4 (2^61 - 1) < 2^63: ``cell_derivatives`` stays in int64
    d = property(lambda self: self.ints.shape[0])
    m = property(lambda self: self.ints.shape[1] - 1)
    n = property(lambda self: self.ints.shape[2] - 1)

    def __init__(self, d: int, m: int, n: int, values):
        if min(d, m, n) < 1 or len(values) != d or any(
            len(comp) != m + 1 or any(len(row) != n + 1 for row in comp) for comp in values
        ):
            raise ValueError(f"need d, m, n >= 1 and values of shape {d} x {m + 1} x {n + 1}")
        self._clear((x for comp in values for row in comp for x in row), (d, m + 1, n + 1))

    @property
    def values(self) -> tuple:
        """values[i][a][b] = X_i(a/m, b/n) as nested tuples of rationals."""
        return tuple(
            tuple(tuple(rat(x, self.den) for x in row) for row in comp)
            for comp in self.ints.tolist()
        )


def cell_derivatives(grid: GridData) -> tuple[np.ndarray, int]:
    """(Delta, L): Delta[i, a, b] = L * (mixed node difference of X_i on cell (a, b)).

    Delta is the mixed difference of the stored integer nodes, taken as a
    difference in a followed by one in b, and L the grid's ``den``, so
    nothing is cleared here and d12 X_i du dv = Delta/L dx dy.  Read
    row-major, Delta[i] lists the cells (a, b) in the column order
    nu(a + 1, b + 1) of the axis dictionary.  Delta is a (d, m, n) array in
    the grid's dtype, exact at any node size: on an int64 grid every
    |node| < 2^61, so |Delta| <= 4 (2^61 - 1) < 2^63, and an object grid
    subtracts Python ints.  Kernels that multiply Delta convert it to object
    first (``fastsig``).
    """
    v = grid.ints
    da = v[:, 1:] - v[:, :-1]
    return da[:, :, 1:] - da[:, :, :-1], grid.den


@dataclass(frozen=True)
class PolynomialMembrane:
    """d-dimensional polynomial membrane A . Mom^{m,n}.

    ``coeffs`` is the d x mn matrix with the coefficient of s^i t^j in column
    nu(i, j); only bidegrees >= (1, 1) are representable, matching the fact
    that pure-s, pure-t and constant terms vanish under the mixed derivative.
    """

    coeffs: Matrix
    m: int
    n: int

    def __post_init__(self):
        if self.coeffs.cols != self.m * self.n:
            raise ValueError(
                f"coefficient matrix needs {self.m * self.n} columns, got {self.coeffs.cols}"
            )

    @classmethod
    def from_terms(cls, d: int, m: int, n: int, terms) -> "PolynomialMembrane":
        """Build from sparse (i, j, dim, coeff) terms (1-based i, j, dim).

        Terms with i = 0 or j = 0 do not affect the signature and are dropped
        with a logged warning.
        """
        check_budget(d * m * n, f"a {d} x {m * n} coefficient matrix")
        rows = [[ZERO] * (m * n) for _ in range(d)]
        for i, j, dim, coeff in terms:
            if i == 0 or j == 0:
                log.warning(
                    "dropping term s^%d t^%d of coordinate %d (invariant under "
                    "addition of such terms)", i, j, dim
                )
                continue
            if not (1 <= i <= m and 1 <= j <= n and 1 <= dim <= d):
                raise ValueError(f"term ({i}, {j}, {dim}) out of range")
            rows[dim - 1][nu(i, j, n) - 1] += rat(coeff)
        return cls(Matrix.from_rows(rows), m, n)


@dataclass(frozen=True)
class PiecewiseBilinearMembrane:
    """A ``GridData`` wrapped as a spec; ``sig_via_congruence`` unwraps it.

    Prefer the grid itself.  The wrapper stays only because the benchmark's
    sig-l3-rat reference route (``perfbench/workloads.py``) builds one.
    """

    grid: GridData


# --------------------------------------------------------------------------
# grid operations


def reduce_grid(grid: GridData) -> GridData:
    """Subtract the axis restrictions: same signature, zero on row 0 / col 0.

    Row 0 is subtracted first and then column 0 of the result, which is
    X - X(0, .) - X(., 0) + X(0, 0): four nodes, so it stays exact in an
    int64 grid's dtype as ``cell_derivatives`` does.
    """
    v = grid.ints - grid.ints[:, :1]
    return GridData.of(v - v[:, :, :1], grid.den)


def bilinear_decompose(grid: GridData) -> Matrix:
    """Mixed second differences: the d x mn transform onto the axis dictionary.

    Column nu(i, j) holds X(i/m, j/n) - X((i-1)/m, j/n) - X(i/m, (j-1)/n)
    + X((i-1)/m, (j-1)/n).  Cumulative 2-D sums of the columns reproduce the
    reduced grid node values.
    """
    delta, scale = cell_derivatives(grid)
    return Matrix.of(delta.reshape(grid.d, grid.m * grid.n), scale)


def axis_grid(m: int, n: int, d: int | None = None) -> GridData:
    """Node values of the axis membrane itself: value[nu(i,j)][a][b] = [i<=a][j<=b]."""
    d = m * n if d is None else d
    x = np.arange(d)
    rows = x[:, None] // n + 1 <= np.arange(m + 1)  # i <= a, with (i, j) = nu_inv(x + 1)
    cols = x[:, None] % n + 1 <= np.arange(n + 1)  # j <= b
    return GridData(d, m, n, (rows[:, :, None] & cols[:, None, :]).astype(int).tolist())


# --------------------------------------------------------------------------
# core tensors and the product formula


def product_sig_entry(sig_x_entry, sig_y_entry, tupleword) -> Rat:
    """<sigma(X x Y), (i_1,j_1)...(i_k,j_k)> = <sigma(X), i-word> <sigma(Y), j-word>."""
    iword = tuple(ij[0] for ij in tupleword)
    jword = tuple(ij[1] for ij in tupleword)
    return rat(sig_x_entry(iword)) * rat(sig_y_entry(jword))


_PATH_CORES = {"moment": moment_path_core, "axis": axis_path_core}


def check_core_args(kind: str, m: int, n: int, k: int) -> None:
    """Refuse an unknown kind, an order below 1, and a level-k core over the entry budget or numpy's axis limit."""
    if kind not in _PATH_CORES:
        raise ValueError(f"unknown core kind {kind!r} (expected 'moment' or 'axis')")
    if min(m, n) < 1:
        raise ValueError(f"need m, n >= 1, got ({m}, {n})")
    check_entry_count(m * n, k)


def core_tensor(kind: str, m: int, n: int, k: int) -> SigTensor:
    """Level-k core tensor (dim mn) of the moment or axis membrane.

    The entry at (nu(i_1, j_1), ..., nu(i_k, j_k)) is Px[i-word] Py[j-word]
    for the level-k path cores Px, Py, so the core is the outer product of the
    stored integers of the two flattened path cores, over the product of
    their denominators, with the pairs (i_r, j_r) merged by nu one per step:
    before step r the array is (merged prefix, i_r, rest of the i-word, j_r,
    rest of the j-word), so it never has more than 5 axes and every level up
    to MAX_LEVEL is built.  At level 2 this is the Kronecker product of the
    two path signature matrices.
    """
    check_core_args(kind, m, n, k)
    path_core = _PATH_CORES[kind]
    x, y = path_core(m, k), path_core(n, k)
    arr = np.multiply.outer(x.ints.reshape(-1), y.ints.reshape(-1))
    for r in range(k):
        arr = arr.reshape(-1, m, m ** (k - r - 1), n, n ** (k - r - 1)).transpose(0, 1, 3, 2, 4)
    return SigTensor.of(arr.reshape((m * n,) * k), x.den * y.den, m * n)


def core_matrix(kind: str, m: int, n: int) -> Matrix:
    return core_tensor(kind, m, n, 2).to_matrix()


# --------------------------------------------------------------------------
# equivariance route


def sig_via_congruence(spec, k: int) -> SigTensor:
    """Level-k signature tensor through the dictionary + Tucker action.

    A ``PolynomialMembrane`` acts on the moment core with its coefficients,
    a grid (bare or wrapped) on the axis core with ``bilinear_decompose``.
    Any other spec raises TypeError.
    """
    if isinstance(spec, PolynomialMembrane):
        return tucker_apply(core_tensor("moment", spec.m, spec.n, k), spec.coeffs)
    if isinstance(spec, PiecewiseBilinearMembrane):
        spec = spec.grid
    if isinstance(spec, GridData):
        return tucker_apply(core_tensor("axis", spec.m, spec.n, k), bilinear_decompose(spec))
    raise TypeError(f"cannot resolve membrane spec {spec!r}")
