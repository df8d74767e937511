"""Linear-time signature entries of piecewise bilinear membranes.

For a word w of length j the running integrand

    f_w(u, v) = integral over {s_1 <= ... <= s_j <= u} x {t_1 <= ... <= t_j <= v}
                of prod_r d12 X_{i_r}(s_r, t_r)

is a polynomial of bidegree at most (j, j) on every grid cell, because the
mixed derivative d12 X_i is constant per cell.  Cell (a, b), 0-based, covers
[a/m, (a+1)/m] x [b/n, (b+1)/n]; the first grid direction (size m) is s, the
second (size n) is t.  Each cell stores its piece in the local coordinates
x = m u - a, y = n v - b in [0, 1], in the divided-power basis
x^p/p! * y^q/q!.  In these coordinates d12 X_i du dv = D dx dy, where D is the
cell's mixed node difference, and after scaling the grid by the lcm L of its
denominators D becomes an integer Delta (``membranes.cell_derivatives``,
an object array of Python ints).

Appending a letter integrates f_w * Delta over [0, u] x [0, v], which splits
per target cell into four regions:

- the corner (the target cell itself, up to (x, y)): the divided-power
  antiderivative is an index shift (p, q) -> (p + 1, q + 1) times Delta;
- the strip of cells (a', b) with a' < a, full in x and partial in y:
  evaluating x^(p+1)/(p+1)! at 1 leaves the weight 1/(p+1)!, and the strips
  with the same b share y, so the term is an exclusive cumsum along a;
- the mirrored strip, an exclusive cumsum along b;
- the block of full cells a' < a, b' < b: an exclusive 2-D cumsum of the
  full-cell integrals.

Scaling every coefficient by (S!)^2 at the step to word length S turns the
weights 1/(p+1)! into integers S!/(p+1)!, so the whole recursion runs on Python
ints in numpy object arrays, vectorized over cells.  A field is its
coefficient array, an (m, n, j + 1, j + 1) object array: cell (a, b) holds
the sum over p, q of coeffs[a, b, p, q] / _step_scales(j) * x^p/p! * y^q/q!.
The empty word's field is np.ones((m, n, 1, 1), dtype=object).  One letter costs
Theta(j^2 m n) and a length-k word costs O(k^3 m n).  Every entry of the
tensor shares one denominator, the product of the step scales, the
evaluation weights at (1, 1) and L^k, so the integer results become the
tensor through one ``SigTensor.of``.

The last letter of a word needs only the value at (1, 1), the sum of the
full-cell integrals, so ``sig_tensor_fast`` builds no last field: the d entries
below one prefix are one product Delta.reshape(d, -1) @ (coeffs @ w @ w).ravel()
with the parent's coefficients.  ``sig_word_fast`` keeps the full advance and
evaluates the last field at (1, 1) itself, the independent route.
"""

from __future__ import annotations

from math import factorial, prod

import numpy as np

from .membranes import GridData, cell_derivatives
from .rational import Rat, rat
from .tensor import SigTensor, check_entry_count


def _step_scales(k: int) -> int:
    """prod(s! for s <= k) squared."""
    return prod(factorial(s) for s in range(1, k + 1)) ** 2


def _weights(top: int, size: int, start: int) -> np.ndarray:
    """[top!/(start + p)! for p < size], an object array of Python ints."""
    return np.array([factorial(top) // factorial(start + p) for p in range(size)], dtype=object)


def advance_letter(coeffs: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """One recursion step: the double cumulative integral of the field times Delta.

    ``coeffs`` is a field, the (m, n, S, S) object array of a word of length
    S - 1; ``delta`` is the (m, n) integer table of the appended letter, from
    ``cell_derivatives``.  Returns the field of the longer word, shape
    (m, n, S + 1, S + 1).  Work is Theta(S^2 m n).
    """
    if coeffs.dtype != object or coeffs.ndim != 4 or coeffs.shape[2] != coeffs.shape[3]:
        raise ValueError("malformed field: coefficients need an (m, n, S, S) object array")
    m, n, s = coeffs.shape[:3]
    if delta.shape != (m, n):
        raise ValueError(f"delta has shape {delta.shape}, the field has {m} x {n} cells")
    top = factorial(s)
    w = _weights(s, s, 1)  # s!/(p+1)!, the weight of a full cell in x or y
    g = coeffs * delta[:, :, None, None]
    strip_y = (g * w[:, None]).sum(axis=2)  # x over the full cell: poly in y
    strip_x = g @ w  # y over the full cell: poly in x
    full = strip_y @ w
    out = np.zeros((m, n, s + 1, s + 1), dtype=object)
    out[:, :, 1:, 1:] = g * top**2
    out[1:, :, 0, 1:] = np.cumsum(strip_y, axis=0)[:-1] * top
    out[:, 1:, 1:, 0] = np.cumsum(strip_x, axis=1)[:, :-1] * top
    out[1:, 1:, 0, 0] = np.cumsum(np.cumsum(full, axis=0), axis=1)[:-1, :-1]
    return out


def sig_word_fast(grid: GridData, word) -> Rat:
    """<sigma(X), w> for the piecewise bilinear interpolant of the grid."""
    delta, scale = cell_derivatives(grid)
    coeffs = np.ones((grid.m, grid.n, 1, 1), dtype=object)
    for letter in word:
        if not 1 <= letter <= grid.d:
            raise ValueError(f"letter {letter} out of range [1, {grid.d}]")
        coeffs = advance_letter(coeffs, delta[letter - 1])
    k = len(word)
    w = _weights(k, k + 1, 0)  # k!/p!: the value at (1, 1) of the last cell
    return rat(w @ coeffs[-1, -1] @ w, _step_scales(k) * factorial(k) ** 2 * scale**k)


def sig_tensor_fast(grid: GridData, k: int) -> SigTensor:
    """All d^k entries, sharing fields across words with a common prefix."""
    d = grid.d
    check_entry_count(d, k)
    if k == 0:
        return SigTensor.level_zero(d)
    delta, scale = cell_derivatives(grid)
    nums = np.empty(d**k, dtype=object)
    w = _weights(k, k, 1)  # k!/(p+1)!: a full cell's weight at the last letter

    def walk(coeffs: np.ndarray, depth: int, offset: int) -> None:
        """Fill the entries below the prefix whose field is ``coeffs``."""
        if depth + 1 == k:
            nums[offset * d : offset * d + d] = delta.reshape(d, -1) @ (coeffs @ w @ w).ravel()
            return
        for letter in range(d):
            walk(advance_letter(coeffs, delta[letter]), depth + 1, offset * d + letter)

    walk(np.ones((grid.m, grid.n, 1, 1), dtype=object), 0, 0)
    return SigTensor.of(nums.reshape((d,) * k), _step_scales(k) * scale**k)
