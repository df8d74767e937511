"""Exact rational scalars.

Every signature entry, matrix coefficient and polynomial coefficient in this
package is an exact rational.  We use ``gmpy2.mpq`` when available and fall
back to ``fractions.Fraction`` otherwise; the grid kernel runs on Python ints
and divides once per entry, so it does not depend on the choice.
Both types store lowest terms with positive denominator and interoperate with
plain ints, so the rest of the package treats the scalar as opaque.

Serialization convention (shared with the CLI file formats): decimal-integer
strings ``"p"`` or ``"p/q"`` in lowest terms.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    from fractions import Fraction as Rat


ZERO = Rat(0)
ONE = Rat(1)


def rat(value, den=None):
    """Coerce to the exact rational scalar type.

    Accepts ints, rational types and strings ``"p"`` / ``"p/q"``.  Floats are
    rejected: silently rounding one would break the exactness contract.
    """
    if isinstance(value, float) or isinstance(den, float):
        raise TypeError("floats are not exact; pass an int, string or rational")
    if den is not None:
        return Rat(value, den)
    return Rat(value)


def rat_str(value) -> str:
    """Canonical string form: ``"p"`` or ``"p/q"``, lowest terms, q > 0."""
    return str(rat(value))


def is_integral(value) -> bool:
    return rat(value).denominator == 1
