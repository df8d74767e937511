"""Exact rational scalars.

Every signature entry, matrix coefficient and polynomial coefficient in this
package is an exact rational, a ``fractions.Fraction`` (in lowest terms with
positive denominator, and interoperable with plain ints).  The integer kernels
(the grid algorithm, Bareiss elimination, the Tucker action, the Jacobian rank
and matrix products) clear denominators once with ``clear_denominators`` (or
``cleared_array``, its numpy object-array form), run on Python ints and divide
once per result; a grid is cleared once, when its ``GridData`` is built.

Serialization convention (shared with the CLI file formats): decimal-integer
strings ``"p"`` or ``"p/q"`` in lowest terms.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from math import lcm

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


def clear_denominators(values) -> tuple[list[int], int]:
    """(ints, L): L is the lcm of the denominators and ints[i] = L * values[i].

    ``values`` is a sequence of rationals (or ints); an empty one gives L = 1.
    """
    scale = lcm(*{x.denominator for x in values})
    return [x.numerator * (scale // x.denominator) for x in values], scale


def cleared_array(values, shape) -> tuple[np.ndarray, int]:
    """``clear_denominators`` as a numpy object array of Python ints of the given shape."""
    ints, scale = clear_denominators(values)
    return np.array(ints, dtype=object).reshape(shape), scale


def rat_str(value) -> str:
    """Canonical string form: ``"p"`` or ``"p/q"``, lowest terms, q > 0."""
    return str(rat(value))
