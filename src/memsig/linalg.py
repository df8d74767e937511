"""Exact dense linear algebra over the rationals.

Matrices are small (at most a few hundred rows at desk scale), so everything
here is plain dense code on denominator-cleared integer rows.

- Rank is first computed modulo the prime 2^31 - 1 by elimination in numpy
  int64.  The rank mod p is never above the rational rank, so a full rank
  mod p, min(rows, cols), is exact.  A short rank mod p proves nothing, and
  the rank then comes from fraction-free Bareiss elimination on Python ints,
  which keeps intermediate entries polynomially sized.  Bareiss is the only
  route to determinants and to short ranks.
- ``solve`` (and ``inverse`` and ``cosquare`` through it) runs the same
  Bareiss routine as a fraction-free Gauss-Jordan elimination of [A | B]:
  each division is exact by the previous pivot, and one division per entry
  of the result turns it back into rationals.
- The Pfaffian uses Pfaffian-preserving congruence pivots (O(n^3), no
  combinatorial expansion).

``pm1_jordan_structure`` recovers the Jordan block multiset of a matrix whose
only eigenvalues are +1 and -1 from the exact rank sequences rank((M -+ I)^j);
this is all the spectral information the congruence normal forms need.  The
ranks are taken of integer powers (L M -+ L I)^j, L clearing M, since scaling
by L^j changes no rank.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .rational import ONE, ZERO, clear_denominators, cleared_array, rat


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with row-major rational entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        ents = tuple(rat(x) for x in self.entries)
        if len(ents) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(ents)}"
            )
        object.__setattr__(self, "entries", ents)

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (ZERO,) * (rows * cols))

    def at(self, i: int, j: int):
        """0-based entry access."""
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list:
        c = self.cols
        return [list(self.entries[i * c : (i + 1) * c]) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(self.rows, self.cols, tuple(c * x for x in self.entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        a, ascale = cleared_array(self.entries, (self.rows, self.cols))
        b, bscale = cleared_array(other.entries, (other.rows, other.cols))
        return _from_cleared(a @ b, ascale * bscale)

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def _from_cleared(arr: np.ndarray, den: int) -> Matrix:
    """The matrix arr / den, for a 2-D object array of Python ints."""
    return Matrix(*arr.shape, tuple(rat(x, den) for x in arr.flat))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i, j) equals a[i, j] * b."""
    x, ascale = cleared_array(a.entries, (a.rows, a.cols))
    y, bscale = cleared_array(b.entries, (b.rows, b.cols))
    return _from_cleared(np.kron(x, y), ascale * bscale)


def sym_skew_split(m: Matrix) -> tuple[Matrix, Matrix]:
    """Split a square matrix into (M + M^T)/2 and (M - M^T)/2."""
    if not m.is_square:
        raise ValueError("sym/skew split needs a square matrix")
    c, scale = cleared_array(m.entries, (m.rows, m.cols))
    return _from_cleared(c + c.T, 2 * scale), _from_cleared(c - c.T, 2 * scale)


def _integer_rows(m: Matrix) -> tuple[list[list[int]], list[int]]:
    """Clear denominators row by row; returns (integer rows, row scales)."""
    out, scales = [], []
    for row in m.to_rows():
        ints, scale = clear_denominators(row)
        out.append(ints)
        scales.append(scale)
    return out, scales


# residues are below 2^31, so each product in the elimination is below 2^62
# and a difference of two such products stays inside int64
_PRIME = 2**31 - 1


def _rank_mod_p(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over GF(2^31 - 1), by elimination in int64.

    Entries are reduced on Python ints before the cast, so any size is
    handled.  A minor that is nonzero mod p is nonzero over the integers, so
    this rank is never above the rank over the rationals.
    """
    a = (np.array(rows, dtype=object) % _PRIME).astype(np.int64)
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
    """Exact rank over the rationals: ``rank_int_rows`` of the row-cleared matrix."""
    return rank_int_rows(_integer_rows(m)[0])


def rank_int_rows(rows: list[list[int]]) -> int:
    """Exact rank of an integer matrix given as mutable rows (consumed).

    The rank mod 2^31 - 1 is returned when it is full, min(rows, cols), since
    it is never above the exact rank; otherwise Bareiss elimination decides.
    """
    if not rows or not rows[0]:
        return 0
    r = _rank_mod_p(rows)
    if r == min(len(rows), len(rows[0])):
        return r
    return _bareiss(rows)[0]


def det(m: Matrix):
    """Exact determinant via Bareiss elimination on denominator-cleared rows."""
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return ONE
    a, scales = _integer_rows(m)
    _, sign = _bareiss(a)
    scale = 1
    for s in scales:
        scale *= s
    return rat(sign * a[n - 1][n - 1], scale)


def is_skew(m: Matrix) -> bool:
    if not m.is_square:
        return False
    for i in range(m.rows):
        if m.at(i, i):
            return False
        for j in range(i + 1, m.cols):
            if m.at(i, j) != -m.at(j, i):
                return False
    return True


def pfaffian(m: Matrix):
    """Exact Pfaffian of an even-dimensional skew-symmetric matrix.

    Uses Pfaffian-preserving congruence pivots: pf(M) = M[0][1] * pf(M') with
    M'[i][j] = M[i][j] - (M[0][i] M[1][j] - M[0][j] M[1][i]) / M[0][1].
    Satisfies pfaffian(M)^2 == det(M).
    """
    if not m.is_square:
        raise ValueError("Pfaffian needs a square matrix")
    if m.rows % 2:
        raise ValueError("Pfaffian needs even dimension")
    if not is_skew(m):
        raise ValueError("Pfaffian needs a skew-symmetric matrix")
    n = m.rows
    a = m.to_rows()
    pf = ONE
    for k in range(0, n - 1, 2):
        piv = None
        for j in range(k + 1, n):
            if a[k][j]:
                piv = j
                break
        if piv is None:
            return ZERO
        if piv != k + 1:
            # swap index k+1 <-> piv in rows and columns; flips the sign
            a[k + 1], a[piv] = a[piv], a[k + 1]
            for row in a:
                row[k + 1], row[piv] = row[piv], row[k + 1]
            pf = -pf
        p = a[k][k + 1]
        pf *= p
        rk, rk1 = a[k], a[k + 1]
        for i in range(k + 2, n):
            fi, gi = rk[i], rk1[i]
            if not fi and not gi:
                continue
            ai = a[i]
            for j in range(i + 1, n):
                upd = (fi * rk1[j] - rk[j] * gi) / p
                if upd:
                    ai[j] -= upd
                    a[j][i] += upd
    return pf


def solve(a: Matrix, b: Matrix) -> Matrix:
    """The exact X with a @ X == b, for a square nonsingular ``a``.

    Each row of [a | b] is cleared of denominators (which leaves X as it is),
    and one fraction-free Gauss-Jordan elimination turns the integer matrix
    into [p I | p X], p the last pivot; X is the right block over p.
    """
    if not a.is_square:
        raise ValueError("solve needs a square matrix")
    if b.rows != a.rows:
        raise ValueError(f"solve needs a right-hand side with {a.rows} rows, got {b.rows}")
    n = a.rows
    rows = [clear_denominators(ra + rb)[0] for ra, rb in zip(a.to_rows(), b.to_rows())]
    if _bareiss(rows, jordan_cols=n)[0] < n:
        raise ValueError("matrix is singular")
    p = rows[n - 1][n - 1] if n else 1
    return Matrix(n, b.cols, tuple(rat(x, p) for row in rows for x in row[n:]))


def inverse(m: Matrix) -> Matrix:
    """Exact inverse, ``solve(m, I)``."""
    return solve(m, Matrix.identity(m.rows))


def cosquare(m: Matrix) -> Matrix:
    """M^{-T} M for nonsingular M, as ``solve(M^T, M)``; its Jordan form classifies congruence."""
    return solve(m.transpose(), m)


class SpectrumError(ValueError):
    """Raised when a matrix has an eigenvalue other than +1 / -1."""


def pm1_jordan_structure(m: Matrix) -> Counter:
    """Jordan block multiset of a matrix with spectrum contained in {+1, -1}.

    Returns a Counter mapping (eigenvalue, block size) -> multiplicity, where
    the size-j block count at mu is r_{j-1} - 2 r_j + r_{j+1} for the rank
    sequence r_j = rank((M - mu I)^j).  Power indices are capped at the matrix
    dimension.  Raises SpectrumError if the generalized eigenspaces of +1 and
    -1 do not fill the whole space, i.e. some other eigenvalue is present.
    """
    if not m.is_square:
        raise ValueError("Jordan structure needs a square matrix")
    n = m.rows
    c, scale = cleared_array(m.entries, (n, n))
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
        raise SpectrumError(
            "matrix has an eigenvalue other than +1/-1: rank sequences "
            f"stabilize at combined multiplicity {total} < {n}"
        )
    return blocks


@dataclass(frozen=True, order=True)
class GammaBlock:
    """Canonical congruence block Gamma_k (size k)."""

    size: int

    def __str__(self) -> str:
        return f"Gamma{self.size}"


@dataclass(frozen=True, order=True)
class HBlock:
    """Canonical congruence block H_{2k}(mu) (size 2k, paired eigenvalue mu)."""

    halfsize: int
    mu: int

    @property
    def size(self) -> int:
        return 2 * self.halfsize

    def __str__(self) -> str:
        sign = "1" if self.mu == 1 else "-1"
        return f"H{self.size}({sign})"


@dataclass(frozen=True)
class CongruenceInvariants:
    """Multiset of canonical congruence blocks, stored sorted."""

    blocks: tuple

    def __post_init__(self):
        key = lambda b: (isinstance(b, HBlock), b)
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=key)))

    @property
    def total_size(self) -> int:
        return sum(b.size for b in self.blocks)

    def counts(self) -> Counter:
        return Counter(self.blocks)

    def __str__(self) -> str:
        return " + ".join(str(b) for b in self.blocks) if self.blocks else "(empty)"
