"""Dense level-k signature tensors and the Tucker action.

A level-k tensor over dimension d stores its d^k rational entries row-major,
indexed by words (i_1, ..., i_k) with 1-based letters (matching the math;
flat offsets are 0-based internally).  The level-0 tensor is the scalar 1.

The Tucker action is an integer kernel: ``tucker_apply`` clears the
denominators of the tensor and of the matrix once, applies ``mode_apply`` (one
``np.tensordot`` on numpy object arrays of Python ints) once per mode, and
divides once per entry.  The Jacobian of ``variety.tucker_jacobian_rank`` is
built from the same contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import Matrix
from .rational import ONE, cleared_array, rat

# Largest tensor built: 10^7 rational entries already take over a gigabyte, and
# the tests, scripts and benchmark stay below 10^5.
MAX_ENTRIES = 10**7

# Cores kept by the core-tensor caches (membranes.core_tensor, paths.*_path_core):
# enough for every (m, n) <= 8 of a dimension table at one level.
CORE_CACHE_SIZE = 64


def check_entry_count(dim: int, level: int) -> None:
    """Raise ValueError if dim**level, the entry count, exceeds MAX_ENTRIES.

    Never forms dim**level for a huge level: with dim >= 2, a level of at
    least MAX_ENTRIES.bit_length() already gives 2**level > MAX_ENTRIES.
    """
    if (dim > 1 and level >= MAX_ENTRIES.bit_length()) or dim**level > MAX_ENTRIES:
        raise ValueError(
            f"a level-{level} tensor over dimension {dim} has more than "
            f"{MAX_ENTRIES} entries"
        )


def check_budget(entries: int, what: str) -> None:
    """Raise ValueError if ``what``, of ``entries`` entries, exceeds MAX_ENTRIES."""
    if entries > MAX_ENTRIES:
        raise ValueError(f"{what} has more than {MAX_ENTRIES} entries")


def words_iter(dim: int, level: int):
    """All words (1-based letters) of the given length, row-major order."""
    return product(range(1, dim + 1), repeat=level)


@dataclass(frozen=True)
class SigTensor:
    level: int
    dim: int
    entries: tuple

    def __post_init__(self):
        if self.level < 0 or self.dim < 1:
            raise ValueError("need level >= 0 and dim >= 1")
        ents = tuple(rat(x) for x in self.entries)
        if len(ents) != self.dim**self.level:
            raise ValueError(
                f"expected {self.dim ** self.level} entries, got {len(ents)}"
            )
        object.__setattr__(self, "entries", ents)

    @classmethod
    def from_function(cls, level: int, dim: int, entry_fn) -> "SigTensor":
        """Build from a function on words with 1-based letters."""
        check_entry_count(dim, level)
        return cls(level, dim, tuple(entry_fn(w) for w in words_iter(dim, level)))

    @classmethod
    def level_zero(cls, dim: int) -> "SigTensor":
        return cls(0, dim, (ONE,))

    def get(self, word):
        """Entry at a word of 1-based letters."""
        if len(word) != self.level:
            raise ValueError(f"word length {len(word)} != level {self.level}")
        off = 0
        for letter in word:
            if not 1 <= letter <= self.dim:
                raise ValueError(f"letter {letter} out of range [1, {self.dim}]")
            off = off * self.dim + (letter - 1)
        return self.entries[off]

    def words(self):
        return words_iter(self.dim, self.level)

    def to_matrix(self) -> Matrix:
        if self.level != 2:
            raise ValueError("only level-2 tensors convert to matrices")
        return Matrix(self.dim, self.dim, self.entries)

    @classmethod
    def from_matrix(cls, m: Matrix) -> "SigTensor":
        if not m.is_square:
            raise ValueError("need a square matrix")
        return cls(2, m.rows, m.entries)


def mode_apply(arr: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Contract axis 0 with ``a``: new[..., x] = sum_y a[x, y] arr[y, ...].

    The new axis goes last, so k calls on a k-axis array apply ``a`` in every
    mode, in order.  Both are object arrays of Python ints.
    """
    return np.tensordot(arr, a, axes=(0, 1))


def tucker_apply(t: SigTensor, a: Matrix) -> SigTensor:
    """Diagonal Tucker action: entry (i_1..i_k) = sum A[i_1,j_1]...A[i_k,j_k] T[j_1..j_k].

    For level 2 this is A T A^T.  Composes contravariantly:
    tucker_apply(tucker_apply(T, A), B) == tucker_apply(T, B @ A).
    """
    if a.cols != t.dim:
        raise ValueError(f"matrix has {a.cols} columns but tensor dimension is {t.dim}")
    check_entry_count(a.rows, t.level)  # bounds every intermediate mode too
    arr, scale = cleared_array(t.entries, (t.dim,) * t.level)
    amat, ascale = cleared_array(a.entries, (a.rows, a.cols))
    for _ in range(t.level):
        arr = mode_apply(arr, amat)
    den = scale * ascale**t.level
    return SigTensor(t.level, a.rows, tuple(rat(x, den) for x in arr.flat))


def all_ones(level: int, dim: int) -> SigTensor:
    return SigTensor(level, dim, (ONE,) * dim**level)
