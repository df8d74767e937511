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
denominators D becomes an integer Delta (``membranes.cell_derivatives``, in
the grid's dtype).  ``sig_tensor_fast`` and ``sig_word_fast`` convert Delta
to an object array of Python ints once, before any kernel operation, so every
product and sum below is exact; an int64 grid is converted here and nowhere
else.

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

The last two letters of a word build no field.  The value at (1, 1) after
appending letters a then b is the sum over cells of Delta_b times H_a, the
cell's weighted full-cell integral coeffs @ w @ w of advance_letter(F, Delta_a),
with F the field of the prefix and w = _weights(k, k, 1).  H_a is linear in
Delta_a.  With ws = _weights(k - 1, k - 1, 1), top = (k - 1)! and w0 = k!,
four weighted sums of F per cell, alpha = F @ w[1:] @ w[1:],
beta = F @ w[1:] @ ws, beta' = F @ ws @ w[1:] and gamma = F @ ws @ ws, give

    H_a = top^2 Delta_a alpha + top w0 (excl-cumsum_a(Delta_a beta)
          + excl-cumsum_b(Delta_a beta')) + w0^2 excl-cumsum2(Delta_a gamma)

for all d letters a at once (the code folds top and w0 into the weights), and
the d^2 entries below the prefix are one product
H.reshape(d, -1) @ Delta.reshape(d, -1).T.  So ``sig_tensor_fast`` advances
only prefixes of length up to k - 2: none at level 2.  ``sig_word_fast``
keeps every advance and evaluates the last field at (1, 1) itself, the
independent route.

Before any advance both check the coefficients their live fields hold against
``tensor.MAX_ENTRIES``: m n times the sum of s^2 for s < k for the walk, which
holds the field of each prefix on its path, and m n (k^2 + (k + 1)^2) for one
word, whose last advance holds two fields.
"""

from __future__ import annotations

from math import factorial, prod

import numpy as np

from .membranes import GridData, cell_derivatives
from .rational import Rat, rat
from .tensor import SigTensor, check_budget, check_entry_count


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
    k = len(word)
    # the last advance holds the fields of lengths k - 1 and k, k^2 + (k + 1)^2 coefficients per cell
    cells = grid.m * grid.n
    check_budget(cells * (k**2 + (k + 1) ** 2), f"the walk to a length-{k} word over {cells} cells")
    delta, scale = cell_derivatives(grid)
    delta = delta.astype(object, copy=False)
    coeffs = np.ones((grid.m, grid.n, 1, 1), dtype=object)
    for letter in word:
        if not 1 <= letter <= grid.d:
            raise ValueError(f"letter {letter} out of range [1, {grid.d}]")
        coeffs = advance_letter(coeffs, delta[letter - 1])
    w = _weights(k, k + 1, 0)  # k!/p!: the value at (1, 1) of the last cell
    return rat(w @ coeffs[-1, -1] @ w, _step_scales(k) * factorial(k) ** 2 * scale**k)


def sig_tensor_fast(grid: GridData, k: int) -> SigTensor:
    """All d^k entries, sharing fields across words with a common prefix."""
    d = grid.d
    check_entry_count(d, k)
    # the walk holds the field of every prefix on its path, lengths 0 to k - 2: (j + 1)^2 coefficients per cell
    cells = grid.m * grid.n
    check_budget(cells * sum(s * s for s in range(1, k)), f"the level-{k} walk over {cells} cells")
    if k == 0:
        return SigTensor.level_zero(d)
    delta, scale = cell_derivatives(grid)
    delta = delta.astype(object, copy=False)
    flat = delta.reshape(d, -1)
    if k == 1:
        return SigTensor.of(flat.sum(axis=1), scale)
    nums = np.empty(d**k, dtype=object)
    # row j is (k-1)! k!/(p + 2 - j)!: a full cell's weight at the last letter past its index shift
    # (j = 0) times (k-1)!, and at the letter before (j = 1) times k!
    scaled = factorial(k - 1) * factorial(k)
    weights = np.array([[scaled // factorial(p + 2 - j) for p in range(k - 1)] for j in (0, 1)], dtype=object)

    def walk(coeffs: np.ndarray, depth: int, offset: int) -> None:
        """Fill the entries below the prefix whose field is ``coeffs``."""
        if depth + 2 == k:
            # g[..., i, j] is Delta_a times F weighed by row i in x and row j in y: alpha, beta' in row 0 and
            # beta, gamma in row 1 of the module docstring; a row-1 weight belongs to the full cells before
            # the target, so that part is summed exclusively along a (i = 1) or b (j = 1)
            g = delta[..., None, None] * (weights @ coeffs @ weights.T)
            h = g[..., 0, 0]
            h[:, 1:] += np.cumsum(g[..., 1, 0], axis=1)[:, :-1]
            h[:, :, 1:] += np.cumsum(g[..., 0, 1], axis=2)[:, :, :-1]
            h[:, 1:, 1:] += np.cumsum(np.cumsum(g[..., 1, 1], axis=1), axis=2)[:, :-1, :-1]
            nums[offset * d * d : (offset + 1) * d * d] = (h.reshape(d, -1) @ flat.T).ravel()
            return
        for letter in range(d):
            walk(advance_letter(coeffs, delta[letter]), depth + 1, offset * d + letter)

    walk(np.ones((grid.m, grid.n, 1, 1), dtype=object), 0, 0)
    return SigTensor.of(nums.reshape((d,) * k), _step_scales(k) * scale**k)
