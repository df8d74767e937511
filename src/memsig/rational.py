"""Exact rational scalars and the one exact-array form.

Every signature entry, matrix coefficient and polynomial coefficient in this
package is an exact rational, a ``fractions.Fraction`` (in lowest terms with
positive denominator, and interoperable with plain ints).

Arrays of them (``Matrix``, ``SigTensor`` and ``GridData``) share one stored
form, ``ExactArray``: a read-only numpy integer array ``ints`` over one
denominator ``den``, the lcm of the reduced denominators of the entries.
Its docstring states the contract: the shape is read off ``ints``, and each
array is made canonical exactly once, by ``_clear`` from rationals (through
``cleared_array``, the one place that clears denominators) or by ``of``
from an integer pair.  The file reader takes one route or the other
(``fileio._parsed``).

The dtype of ``ints`` follows one rule, applied by ``_store`` on every
route.  ``Matrix`` and ``SigTensor`` hold Python ints in an object array,
since their kernels multiply entries.  A class with an ``_int64_below``
bound, ``GridData`` alone, holds int64 exactly when every |entry| is below
that bound and Python ints otherwise; a grid's kernels only subtract nodes
(``membranes.cell_derivatives``).  Readers of the stored form go through
``tolist``, so no numpy scalar reaches a ``Rat``, ``==`` or ``hash``, and
equal arrays compare and hash equal whatever their dtype.

Serialization convention (shared with the CLI file formats): decimal-integer
strings ``"p"`` or ``"p/q"`` in lowest terms.  ``fileio.rational_texts``
writes integers over a denominator directly, and ``rat_str`` formats one
scalar.

``int_view`` gives an int64 view of an integer array when ``den`` and
every entry are below 2^62 in magnitude, where gcds with ``den`` and the
quotients by divisors of ``den`` are exact; ``of``, ``_store`` (at ``den``
1) and ``fileio.rational_texts`` are its only callers.  On that view ``of``
takes one reduction, canon = |den| / gcd(|den|, x_1, ..., x_N): the reduced
denominator of x_i/den is den/g_i with g_i = gcd(x_i, den), and as every
g_i divides den, lcm_i(den/g_i) = den/gcd_i(g_i).  On object dtype (Python
ints) it takes the gcd of every entry with ``den`` in one ``np.gcd`` call
and the lcm of the quotients, since a running gcd stays as large as a huge
``den`` and is far slower.  ``rational_texts`` takes the elementwise
``np.gcd`` on either view.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rat
from math import lcm, prod

import numpy as np

ZERO = Rat(0)
ONE = Rat(1)


def rat(value, den=None):
    """Coerce to the exact rational scalar type.

    Accepts ints and rational types; a ``Rat`` with no ``den`` is returned as
    it is (it is immutable).  Floats are rejected, since silently rounding one
    would break the exactness contract, and so are strings: text is read only
    by ``fileio.parse_rational``, in the one grammar ``"p"`` / ``"p/q"``.
    """
    if den is None and type(value) is Rat:
        return value
    if isinstance(value, (float, str)) or isinstance(den, (float, str)):
        raise TypeError("pass ints or rationals; floats are inexact and text goes through a parser")
    return Rat(value) if den is None else Rat(value, den)


def lcm_all(values) -> int:
    """lcm of the given ints (1 for none), taken pairwise in a balanced tree.

    A running lcm multiplies the whole accumulated lcm at every step; pairing
    neighbours keeps the operands of each product of similar size.
    """
    xs = list(values) or [1]
    while len(xs) > 1:
        xs = [lcm(*xs[i : i + 2]) for i in range(0, len(xs), 2)]
    return abs(xs[0])


def int_view(ints: np.ndarray, den: int) -> np.ndarray:
    """The integer array ``ints`` as int64 if |den| and every |entry| are below 2^62, else as object.

    Below that bound ``np.gcd(view, den)``, which takes absolute values, and
    every quotient by a divisor of ``den`` are exact in int64; above it the
    same numpy calls run on Python ints.
    """
    try:
        view = ints.astype(np.int64, copy=False)
    except OverflowError:  # an entry past the int64 range
        return ints.astype(object, copy=False)
    fits = abs(den) < 2**62 and -(2**62) < view.min(initial=0) and view.max(initial=0) < 2**62
    return view if fits else ints.astype(object, copy=False)


def _stored_ints(ints: np.ndarray, below: int | None) -> np.ndarray:
    """The integer array ``ints`` in its stored dtype: int64 if ``below`` is set and every |entry| < below, else object.

    An array already in that dtype is returned as it is, not copied.
    """
    if below is not None:
        view = int_view(ints, 1)  # int64 when every |entry| < 2^62
        if view.dtype == np.int64 and -below < view.min(initial=0) and view.max(initial=0) < below:
            return view
    return ints.astype(object, copy=False)


def cleared_array(values, shape) -> tuple[np.ndarray, int]:
    """(ints, L): L is the lcm of the denominators and ints[i] = L * values[i].

    ``values`` is a sequence of rationals (or ints); an empty one gives L = 1.
    ``ints`` is a numpy object array of Python ints of the given shape.
    """
    scale = lcm_all({x.denominator for x in values})
    ints = [x.numerator * (scale // x.denominator) for x in values]
    return np.array(ints, dtype=object).reshape(shape), scale


@dataclass(frozen=True, init=False, eq=False)
class ExactArray:
    """Rational array entries[i] = ints[i] / den, stored in canonical form.

    ``ints`` and ``den`` are the only stored fields: ``ints`` is a read-only
    numpy integer array, in the dtype of ``_stored_ints`` (module docstring),
    and ``den`` the lcm of the reduced denominators of the entries (1 when
    all are integers).  Every shape fact
    (``Matrix.rows``, ``GridData.m``, ``SigTensor.level``, ...) is read off
    ``ints.shape``; ``SigTensor`` alone also stores ``dim``, which a level-0
    tensor has no axis to hold.  The form is canonical, so arrays with equal
    entries and shape compare and hash equal.  A subclass's ``_least_shape``
    gives its number of axes and their least lengths (``Matrix`` (0, 0),
    ``GridData`` (1, 2, 2)); every route refuses any other shape with
    ValueError.  ``SigTensor`` checks its axes against ``dim`` instead.

    An array is made canonical exactly once, on one of two routes:

    - rationals go through ``_clear``, which clears them over the lcm of
      their reduced denominators (``cleared_array``): the constructors, and
      ``cleared`` for the file reader's per-leaf route;
    - an integer pair (ints, den) goes through ``of``, which reduces ``den``
      to the canonical one: the kernels, and the file reader's int64 bulk
      route, whose ``den`` is the lcm of the denominators as written.

    So no kernel clears an operand or divides per entry, and no array is
    reduced twice.  Subclasses are frozen dataclasses (``init=False,
    eq=False``), so setting a field or a shape property raises
    ``FrozenInstanceError``.
    """

    ints: np.ndarray
    den: int
    _least_shape = None
    _int64_below = None  # a bound under which ``ints`` is stored as int64; None keeps Python ints

    @classmethod
    def of(cls, ints, den: int):
        """The array ints / den, for an integer numpy array (object or int64) and a nonzero int ``den``.

        Reduces to the canonical ``den`` (module docstring): one
        ``np.gcd.reduce`` seeded with |den| on ``int_view``'s int64 view when
        its bound holds, else one elementwise ``np.gcd`` against ``den`` on
        Python ints, and one exact division per entry when ``den`` changes.
        An array already in the stored dtype is taken over, not copied: it
        is made read-only.
        """
        if den != 1:
            view = int_view(np.asarray(ints), den)  # a kernel's 0-d result may come as a scalar
            flat = view.ravel()  # 1-d, so that numpy returns arrays, not scalars, at 0-d
            if view.dtype == np.int64:
                canon = abs(den) // int(np.gcd.reduce(flat, initial=abs(den)))
            else:
                canon = lcm_all(set((abs(den) // np.gcd(flat, den)).tolist()))
            ints, den = (view // (den // canon), canon) if canon != den else (ints, den)
        return cls.__new__(cls)._store(np.asarray(ints), den)

    @classmethod
    def cleared(cls, values, shape: tuple):
        """The array of the prod(shape) ints or rationals ``values``, cleared once by ``_clear``."""
        return cls.__new__(cls)._clear(values, shape)

    def _clear(self, values, shape: tuple):
        """Store prod(shape) ints or rationals, cleared once; returns ``self``.

        A wrong count raises ValueError, a float or a string TypeError.
        """
        values = [x if type(x) in (int, Rat) else rat(x) for x in values]
        if len(values) != prod(shape):
            raise ValueError(f"expected {prod(shape)} entries, got {len(values)}")
        return self._store(*cleared_array(values, shape))

    def _store(self, ints: np.ndarray, den: int):
        least = self._least_shape
        if least and (ints.ndim != len(least) or any(s < k for s, k in zip(ints.shape, least))):
            raise ValueError(f"a {type(self).__name__} needs axes at least {least} long, got shape {ints.shape}")
        ints = _stored_ints(ints, self._int64_below)
        ints.flags.writeable = False
        self.__dict__.update(ints=ints, den=den)
        return self

    @property
    def entries(self) -> tuple:
        """The entries in row-major order, as rationals."""
        return tuple(rat(x, self.den) for x in self.ints.ravel().tolist())

    def _key(self) -> tuple:
        return self.ints.shape, self.den, tuple(self.ints.ravel().tolist())

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def rat_str(value) -> str:
    """Canonical string form: ``"p"`` or ``"p/q"``, lowest terms, q > 0."""
    return str(rat(value))
