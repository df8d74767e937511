"""Exact dense linear algebra over the rationals.

Matrices are small (at most a few hundred rows at desk scale), so everything
here is plain dense code on the stored integers of a ``Matrix`` (an
``ExactArray``: ``ints`` over one denominator ``den``).  Products, sums,
``kron`` and ``sym_skew_split`` are numpy operations on ``ints`` whose result
comes back through ``Matrix.of``.

- Rank is first computed modulo the prime 2^31 - 1 by elimination in numpy
  int64.  The rank mod p is never above the rational rank, so a full rank
  mod p, min(rows, cols), is exact.  A short rank mod p proves nothing, and
  the rank then comes from fraction-free Bareiss elimination on Python ints,
  which keeps intermediate entries polynomially sized.  Bareiss is the only
  route to determinants and to short ranks.
- ``solve`` (and ``cosquare`` through it) runs the same Bareiss routine as
  a fraction-free Gauss-Jordan elimination of [A | B]: each division is
  exact by the previous pivot, and the right block over the last pivot is
  the solution.
- Rank, determinant and solve divide each integer row by its gcd first
  (``_primitive_rows``), so one large common denominator does not inflate
  the Bareiss entries, and no elimination here builds a ``Fraction``.

``pm1_jordan_structure`` recovers the Jordan block multiset of a matrix whose
only eigenvalues are +1 and -1 from the exact rank sequences rank((M -+ I)^j);
this is all the spectral information the congruence normal forms need, and
any other eigenvalue raises a plain ValueError, as every refusal here does.  The
ranks are taken of integer powers (ints -+ den I)^j, since scaling by den^j
changes no rank.  ``kron_jordan_structure`` gives the structure of a
Kronecker product from its factors' structures, and ``pm1_jordan_structure``
of the product is its oracle.  A congruence class is stored as its
cosquare's Jordan structure (``CongruenceInvariants``), which the blocks
Gamma_k and H_2k(mu) are read off.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import gcd, prod

import numpy as np

from .rational import ONE, ExactArray, rat


@dataclass(frozen=True, init=False, eq=False)
class Matrix(ExactArray):
    """Immutable dense rational matrix: ``ints`` of shape (rows, cols) over ``den``.

    ``Matrix(rows, cols, entries)`` takes row-major ints or rationals.
    """

    _least_shape = (0, 0)
    rows = property(lambda self: self.ints.shape[0])
    cols = property(lambda self: self.ints.shape[1])

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self._clear(entries, (rows, cols))

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.of(np.eye(n, dtype=int), 1)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls.of(np.zeros((rows, cols), dtype=int), 1)

    def at(self, i: int, j: int):
        """0-based entry access."""
        return rat(self.ints[i, j], self.den)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix.of(self.ints.T, self.den)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix.of(self.ints * c.numerator, self.den * c.denominator)

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix.of(self.ints * other.den + other.ints * self.den, self.den * other.den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix.of(self.ints * other.den - other.ints * self.den, self.den * other.den)

    def __neg__(self) -> "Matrix":
        return Matrix.of(-self.ints, self.den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        return Matrix.of(self.ints @ other.ints, self.den * other.den)

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i, j) equals a[i, j] * b."""
    return Matrix.of(np.kron(a.ints, b.ints), a.den * b.den)


def sym_skew_split(m: Matrix) -> tuple[Matrix, Matrix]:
    """Split a square matrix into (M + M^T)/2 and (M - M^T)/2."""
    if not m.is_square:
        raise ValueError("sym/skew split needs a square matrix")
    c = m.ints
    return Matrix.of(c + c.T, 2 * m.den), Matrix.of(c - c.T, 2 * m.den)


def _primitive_rows(arr: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """(rows, gcds): each row of a 2-D integer array divided by the gcd g of its entries.

    A zero row keeps g = 1.  Scaling rows changes no rank, and it keeps the
    entries of a Bareiss elimination small when one denominator clears rows
    of different sizes.
    """
    rows, gcds = [], []
    for row in arr.tolist():
        g = gcd(*row) or 1
        rows.append([x // g for x in row])
        gcds.append(g)
    return rows, gcds


# residues are below 2^31, so each product in the elimination is below 2^62
# and a difference of two such products stays inside int64
_PRIME = 2**31 - 1


def _rank_mod_p(rows) -> int:
    """Rank of an integer matrix over GF(2^31 - 1), by elimination in int64.

    ``rows`` is a list of integer rows or a 2-D integer numpy array, which is
    not modified.  Entries are reduced mod p before the elimination, in int64
    for an int64 array and on Python ints otherwise, so any size is handled.
    A minor that is nonzero mod p is nonzero over the integers, so this rank
    is never above the rank over the rationals.
    """
    a = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    if not a.size:
        return 0
    a = (a % _PRIME).astype(np.int64, copy=False)
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            continue
        piv = r + nonzero[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r + 1 :, c:] = (a[r, c] * a[r + 1 :, c:] - a[r + 1 :, c, None] * a[r, c:]) % _PRIME
        r += 1
        if r == nrows:
            break
    return r


def _bareiss(a: list[list[int]], jordan_cols: int | None = None) -> tuple[int, int]:
    """Fraction-free elimination of integer rows in place; returns (rank, swap sign).

    On a square matrix the last diagonal entry ends as sign * det: at full
    rank every pivot lies on the diagonal, and at short rank the rows past the
    rank, the last row among them, are zero.

    With ``jordan_cols`` it is fraction-free Gauss-Jordan elimination: pivots
    are taken only in the first ``jordan_cols`` columns and each pivot also
    clears its column above.  Every division, in both forms, is exact by the
    previous pivot, because each entry is a minor of the input.  Columns left
    of the current pivot are not updated.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    prev = 1
    r = 0
    sign = 1
    for c in range(ncols if jordan_cols is None else jordan_cols):
        piv = None
        for i in range(r, nrows):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        arow = a[r]
        below = range(r + 1, nrows)
        for i in below if jordan_cols is None else chain(range(r), below):
            ai = a[i]
            f = ai[c]
            for j in range(c, ncols):
                ai[j] = (p * ai[j] - f * arow[j]) // prev
        prev = p
        r += 1
        if r == nrows:
            break
    return r, sign


def rank(m: Matrix) -> int:
    """Exact rank over the rationals: ``rank_int_rows`` of the primitive integer rows."""
    return rank_int_rows(_primitive_rows(m.ints)[0])


def rank_int_rows(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix given as mutable rows (consumed).

    The rank mod 2^31 - 1 is returned when it is full, min(rows, cols), since
    it is never above the exact rank; otherwise Bareiss elimination decides.
    """
    r = _rank_mod_p(rows)
    if not rows or r == min(len(rows), len(rows[0])):
        return r
    return _bareiss(rows)[0]


def det(m: Matrix):
    """Exact determinant: Bareiss elimination on the primitive integer rows.

    With row i of ``ints`` equal to g_i times primitive row i,
    det = prod(g_i) det(primitive rows) / den^n.
    """
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return ONE
    a, gcds = _primitive_rows(m.ints)
    _, sign = _bareiss(a)
    return rat(sign * a[n - 1][n - 1] * prod(gcds), m.den**n)


def solve(a: Matrix, b: Matrix) -> Matrix:
    """The exact X with a @ X == b, for a square nonsingular ``a``.

    [a | b] is brought over one denominator and each of its integer rows
    divided by its gcd (which leaves X as it is); one fraction-free
    Gauss-Jordan elimination then turns it into [p I | p X], p the last
    pivot, and X is the right block over p.
    """
    if not a.is_square:
        raise ValueError("solve needs a square matrix")
    if b.rows != a.rows:
        raise ValueError(f"solve needs a right-hand side with {a.rows} rows, got {b.rows}")
    n = a.rows
    rows, _ = _primitive_rows(np.concatenate([a.ints * b.den, b.ints * a.den], axis=1))
    if _bareiss(rows, jordan_cols=n)[0] < n:
        raise ValueError("matrix is singular")
    p = rows[n - 1][n - 1] if n else 1
    return Matrix.of(np.array(rows, dtype=object).reshape(n, n + b.cols)[:, n:], p)


def cosquare(m: Matrix) -> Matrix:
    """M^{-T} M for nonsingular M, as ``solve(M^T, M)``; its Jordan form classifies congruence."""
    return solve(m.transpose(), m)


def pm1_jordan_structure(m: Matrix) -> Counter:
    """Jordan block multiset of a matrix with spectrum contained in {+1, -1}.

    Returns a Counter mapping (eigenvalue, block size) -> multiplicity, where
    the size-j block count at mu is r_{j-1} - 2 r_j + r_{j+1} for the rank
    sequence r_j = rank((M - mu I)^j).  Power indices are capped at the matrix
    dimension.  Raises ValueError if the generalized eigenspaces of +1 and
    -1 do not fill the whole space, i.e. some other eigenvalue is present.
    """
    if not m.is_square:
        raise ValueError("Jordan structure needs a square matrix")
    n = m.rows
    c, scale = m.ints, m.den
    blocks: Counter = Counter()
    total = 0
    for mu in (1, -1):
        shifted = c - mu * scale * np.eye(n, dtype=object)
        ranks = [n]
        power = shifted
        for _ in range(n):
            r = rank_int_rows(power.tolist())
            ranks.append(r)
            if r == ranks[-2]:
                break
            power = power @ shifted
        stable = ranks[-1]
        total += n - stable
        ranks.append(stable)  # pad so r_{j+1} exists for the last drop
        for j in range(1, len(ranks) - 1):
            cnt = ranks[j - 1] - 2 * ranks[j] + ranks[j + 1]
            if cnt:
                blocks[(mu, j)] += cnt
    if total != n:
        raise ValueError(
            "matrix has an eigenvalue other than +1/-1: rank sequences "
            f"stabilize at combined multiplicity {total} < {n}"
        )
    return blocks


def kron_jordan_structure(sa: Counter, sb: Counter) -> Counter:
    """Jordan block multiset of X (x) Y from those of X and Y (``pm1_jordan_structure`` form).

    Over a field of characteristic 0, J_a(l) (x) J_b(u) is similar to the
    direct sum of J_(a+b+1-2i)(l u) over i = 1..min(a, b) for nonzero l, u,
    and the Kronecker product distributes over direct sums.
    """
    out: Counter = Counter()
    for (la, a), ca in sa.items():
        for (lb, b), cb in sb.items():
            for i in range(1, min(a, b) + 1):
                out[(la * lb, a + b + 1 - 2 * i)] += ca * cb
    return out


@dataclass(frozen=True)
class CongruenceInvariants:
    """Congruence class of a nonsingular matrix M whose cosquare C = M^{-T} M has spectrum in {+1, -1}.

    Stored once, as C's Jordan structure: ``structure`` holds the sorted
    ((mu, size), count) items with count > 0 of the ``pm1_jordan_structure``
    Counter (or items) that the constructor takes.  A single J_k(mu) with
    mu = (-1)^(k+1) is the block Gamma_k; every other J_k(mu) must occur an
    even number of times, and each pair is the block H_2k(mu).  Any other
    count raises ValueError.
    """

    structure: tuple

    def __post_init__(self):
        items = tuple(sorted((key, cnt) for key, cnt in dict(self.structure).items() if cnt))
        for (mu, k), cnt in items:
            if not self._single(mu, k) and cnt % 2:
                raise ValueError(f"J_{k}({mu:+d}) occurs {cnt} times but must pair into H-blocks")
        object.__setattr__(self, "structure", items)

    @staticmethod
    def _single(mu: int, k: int) -> bool:
        return mu == (1 if k % 2 else -1)

    @property
    def blocks(self) -> tuple[str, ...]:
        """The canonical block names: Gamma_k by size, then H_2k(mu) by (k, mu)."""
        gammas = sorted((k, cnt) for (mu, k), cnt in self.structure if self._single(mu, k))
        pairs = sorted((k, mu, cnt // 2) for (mu, k), cnt in self.structure if not self._single(mu, k))
        return tuple(f"Gamma{k}" for k, cnt in gammas for _ in range(cnt)) + tuple(
            f"H{2 * k}({mu})" for k, mu, cnt in pairs for _ in range(cnt)
        )

    @property
    def total_size(self) -> int:
        return sum(k * cnt for (_, k), cnt in self.structure)

    @property
    def rank_profile(self) -> tuple[int, int]:
        """(rank of M + M^T, rank of M - M^T).

        M +- M^T = M^T (C +- I), so each rank is the size less the number of
        Jordan blocks of C at -+1.
        """
        at_minus = sum(cnt for (mu, _), cnt in self.structure if mu == -1)
        at_plus = sum(cnt for (mu, _), cnt in self.structure if mu == 1)
        return self.total_size - at_minus, self.total_size - at_plus
