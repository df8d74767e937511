"""Dense level-k signature tensors and the Tucker action.

A level-k tensor over dimension d is an ``ExactArray``: its d^k rational
entries are ``ints`` of shape (d,) * k over one denominator ``den``, indexed
by words (i_1, ..., i_k) with 1-based letters (matching the math; array
indices are 0-based internally).  The level-0 tensor is the scalar 1.

The Tucker action is an integer kernel: ``tucker_apply`` applies
``mode_apply`` (one ``np.tensordot`` on numpy object arrays of Python ints)
to the tensor's ``ints`` once per mode, with the matrix's ``ints``, and the
result is over den * a.den^k.  The Jacobian of
``variety.tucker_jacobian_rank`` is built from the same contraction, on
int64 residues mod 2^31 - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import Matrix
from .rational import ONE, ExactArray, rat

# Largest tensor built: 10^7 rational entries already take over a gigabyte, and
# the tests, scripts and benchmark stay below 10^5.
MAX_ENTRIES = 10**7

# Highest level stored: a level-k tensor is an array of k axes, and numpy (>= 2.0)
# builds no array of more than 64 axes.
MAX_LEVEL = 64

# Cores kept by each path-core cache (paths.moment_path_core, paths.axis_path_core), keyed by
# (order, level): enough for every order <= 8 of a dimension table at eight levels.
CORE_CACHE_SIZE = 64


def check_entry_count(dim: int, level: int) -> None:
    """Raise ValueError if level is outside [0, MAX_LEVEL] or dim**level exceeds MAX_ENTRIES.

    The level is checked first, so dim**level, the entry count, is never
    formed for a huge level.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    if level > MAX_LEVEL:
        raise ValueError(f"a level-{level} tensor has more than {MAX_LEVEL} axes, numpy's limit")
    if dim**level > MAX_ENTRIES:
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


@dataclass(frozen=True, init=False, eq=False)
class SigTensor(ExactArray):
    """Level-k tensor over dimension d: ``ints`` of shape (d,) * k over ``den``.

    ``SigTensor(level, dim, entries)`` takes the d^k entries (ints or
    rationals) in row-major word order.  ``level`` is read off ``ints``;
    ``dim`` is stored, since a level-0 tensor has no axis to read it off, and
    every axis has length ``dim``.
    """

    dim: int
    level = property(lambda self: self.ints.ndim)

    def __init__(self, level: int, dim: int, entries):
        if level < 0 or dim < 1:
            raise ValueError("need level >= 0 and dim >= 1")
        self._clear(entries, (dim,) * level)._set_dim(dim)

    @classmethod
    def of(cls, ints, den: int, dim: int | None = None) -> "SigTensor":
        """``ExactArray.of``; ``dim`` defaults to the length of the axes, and level 0 needs it."""
        return super().of(ints, den)._set_dim(dim)

    @classmethod
    def cleared(cls, values, shape: tuple) -> "SigTensor":
        """``ExactArray.cleared``; ``dim`` is the length of the axes, so a level-0 shape is refused."""
        return super().cleared(values, shape)._set_dim(None)

    def _set_dim(self, dim: int | None) -> "SigTensor":
        shape = self.ints.shape
        dim = shape[0] if dim is None and shape else dim
        if dim is None or dim < 1 or shape != (dim,) * len(shape):
            raise ValueError(f"an array of shape {shape} is no tensor over dimension {dim}")
        self.__dict__["dim"] = dim
        return self

    def _key(self) -> tuple:
        return self.dim, super()._key()

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
        for letter in word:
            if not 1 <= letter <= self.dim:
                raise ValueError(f"letter {letter} out of range [1, {self.dim}]")
        return rat(self.ints[tuple(letter - 1 for letter in word)], self.den)

    def to_matrix(self) -> Matrix:
        if self.level != 2:
            raise ValueError("only level-2 tensors convert to matrices")
        return Matrix.of(self.ints, self.den)


def mode_apply(arr: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Contract axis 0 with ``a``: new[..., x] = sum_y a[x, y] arr[y, ...].

    The new axis goes last, so k calls on a k-axis array apply ``a`` in every
    mode, in order.  Both are object arrays of Python ints, or int64 arrays
    under a caller's proved bound (``variety._jacobian_mod_p``).
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
    arr = t.ints
    for _ in range(t.level):
        arr = mode_apply(arr, a.ints)
    return SigTensor.of(arr, t.den * a.den**t.level, a.rows)
