"""JSON file formats for grids, membrane specs, tensors and matrices.

Rationals travel as decimal strings "p" or "p/q" in canonical lowest terms;
JSON numbers cannot hold big rationals and floats would break exactness.
Optional float fields are additive.  Indices are 0-based inside files and the
"order" field makes the flattening self-describing; the math convention in
documentation stays 1-based.

Every rational array goes through one reader and one writer.  ``_parsed``
reads a grid's ``values``, a dense ``A`` or a tensor's ``entries`` in bulk:
it checks the nesting level by level, matches the comma-joined leaves
against the grammar once, calls ``int`` on each ``"p"`` and reads each
``"p/q"`` as an integer pair, with no ``Fraction``: ``den`` is the lcm of
the denominators as written and the entry ``p * den // q``.  The reader does
not reduce; ``ExactArray.of``, the one reducer, brings the array to its
canonical form.  A location is computed only on failure: ``_locate`` walks
the array again and raises the error of its first fault, so messages do not
depend on the bulk path.  ``rational_texts`` formats an array's entries
straight from its ``ints`` and ``den``, so no entry is rebuilt as a ``Rat``
to be printed, and ``dump_json`` encodes each top-level value with json's C
encoder.

Errors: FileFormatError for malformed input (CLI exit 2), ContractError for
shape or contract violations (CLI exit 3).
"""

from __future__ import annotations

import json
import re
from math import gcd

import numpy as np

from .linalg import Matrix
from .membranes import GridData, PolynomialMembrane
from .rational import ExactArray, lcm_all, rat
from .tensor import SigTensor, check_entry_count

TENSOR_ORDER = "row-major-1-based-words"
MATRIX_ORDER = "row-major"


class FileFormatError(ValueError):
    """Malformed input file (parse-level problem)."""


class ContractError(ValueError):
    """Well-formed input violating a shape or method contract."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text, where: str):
    """Exactly the ASCII grammar [+-]?[0-9]+(/[0-9]+)? with a nonzero denominator.

    ``"p"`` gives an int and ``"p/q"`` a ``Rat`` in lowest terms.
    """
    if not isinstance(text, str):
        raise FileFormatError(f"{where}: expected a rational string, got {type(text).__name__}") from None
    match = _RATIONAL.fullmatch(text)
    if match is not None:
        num, den = match.groups()
        try:
            return rat(int(num), int(den)) if den else int(num)
        except (ValueError, ZeroDivisionError):  # past int's digit limit, or q = 0
            pass
    raise FileFormatError(f"{where}: {text!r} is not a rational 'p' or 'p/q'") from None


# the leaves joined by "," with a trailing ","; possessive, so the match keeps no backtracking stack
_LEAVES = re.compile(f"(?:{_RATIONAL.pattern},)*+")


def _parsed(value, shape: tuple, where: str) -> tuple[np.ndarray, int]:
    """(ints, den) for ``value`` nesting as ``shape`` with rational leaves.

    ``den`` is the lcm of the denominators as written, so the pair is not
    reduced; the caller builds the array through ``of``, which reduces it.

    The nesting is checked level by level and the leaves, joined with
    commas, by one match of the grammar.  On any fault (a wrong nesting, a
    non-string leaf, no match, an int past the digit limit or q = 0)
    ``_locate`` raises the located error.
    """
    try:
        leaves = [value]
        for size in shape:
            if not all(isinstance(x, list) and len(x) == size for x in leaves):
                raise ValueError
            leaves = [x for xs in leaves for x in xs]
        # a non-str leaf makes join raise TypeError, and a leaf holding a comma the count too high
        text = ",".join(leaves) + ","
        if text.count(",") != len(leaves) or _LEAVES.fullmatch(text) is None:
            raise ValueError
        if "/" not in text:
            return np.array(list(map(int, leaves)), dtype=object).reshape(shape), 1
        nums = [int(leaf.partition("/")[0]) for leaf in leaves]
        dens = [int(leaf.partition("/")[2] or 1) for leaf in leaves]
        den = lcm_all(set(dens))
        return np.array([p * den // q for p, q in zip(nums, dens)], dtype=object).reshape(shape), den
    except (TypeError, ValueError, ZeroDivisionError):
        _locate(value, shape, where)
        raise


def _locate(value, shape: tuple, where: str) -> None:
    """Raise the error of the first fault of ``value`` in row-major order.

    A non-list or a list of the wrong length raises ContractError, and a leaf
    outside the grammar FileFormatError; both name the location, ``where``
    followed by the indices.  It runs while ``_parsed`` handles the bulk
    path's exception, so its errors are raised ``from None``.
    """
    if not shape:
        return parse_rational(value, where)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ContractError(f"{where} must be a list of length {shape[0]}") from None
    for i, x in enumerate(value):
        _locate(x, shape[1:], f"{where}[{i}]")


def rational_texts(a: ExactArray) -> list[str]:
    """The entries of ``a`` in row-major order as ``"p"`` or ``"p/q"`` in lowest terms.

    Formatted straight from ``a.ints`` and ``a.den``: ``str(x)`` when ``den``
    is 1, else one gcd per entry.
    """
    den = a.den
    if den == 1:
        return [str(x) for x in a.ints.flat]
    texts = []
    for x in a.ints.flat:
        g = gcd(x, den)
        texts.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return texts


def load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an int past the digit limit
        raise FileFormatError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: top-level JSON value must be an object")
    return doc


def _require_int(doc: dict, key: str, minimum: int) -> int:
    if key not in doc:
        raise FileFormatError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise FileFormatError(f"field {key!r} must be an integer >= {minimum}, got {value!r}")
    return value


def grid_from_doc(doc: dict) -> GridData:
    """{"d", "m", "n", "values"}: values[i][a][b], i < d, a <= m, b <= n."""
    d, m, n = (_require_int(doc, key, 1) for key in ("d", "m", "n"))
    values = doc.get("values")
    if not isinstance(values, list):
        raise FileFormatError("'values' must be a nested list of rational strings")
    return GridData.of(*_parsed(values, (d, m + 1, n + 1), "values"))


def polynomial_from_doc(doc: dict) -> PolynomialMembrane:
    """Polynomial membrane: dense "A" (d x mn, nu-ordered) or sparse "terms"."""
    d, m, n = (_require_int(doc, key, 1) for key in ("d", "m", "n"))
    if "A" in doc:
        return PolynomialMembrane(Matrix.of(*_parsed(doc["A"], (d, m * n), "A")), m, n)
    if "terms" in doc:
        terms = doc["terms"]
        if not isinstance(terms, list):
            raise FileFormatError("'terms' must be a list of [i, j, dim, coeff]")
        parsed = []
        for t, term in enumerate(terms):
            if not isinstance(term, list) or len(term) != 4:
                raise FileFormatError(f"terms[{t}] must be [i, j, dim, coeff]")
            i, j, dim, coeff = term
            for name, v in (("i", i), ("j", j), ("dim", dim)):
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise FileFormatError(f"terms[{t}].{name} must be a nonnegative integer")
            parsed.append((i, j, dim, parse_rational(coeff, f"terms[{t}].coeff")))
        try:
            return PolynomialMembrane.from_terms(d, m, n, parsed)
        except ValueError as exc:
            raise ContractError(str(exc)) from None
    raise FileFormatError("polynomial spec needs either 'A' or 'terms'")


def membrane_from_doc(doc: dict):
    """Dispatch a membrane input document: grid or polynomial spec."""
    if "values" in doc:
        return grid_from_doc(doc)
    if doc.get("kind") == "polynomial" or "A" in doc or "terms" in doc:
        return polynomial_from_doc(doc)
    raise FileFormatError(
        "input must be a grid file (with 'values') or a polynomial spec "
        "(kind='polynomial' with 'A' or 'terms')"
    )


def tensor_to_doc(t: SigTensor, include_float: bool = False) -> dict:
    doc = {
        "level": t.level,
        "dim": t.dim,
        "entries": rational_texts(t),
        "order": TENSOR_ORDER,
    }
    if include_float:
        try:
            doc["entries_float"] = [x / t.den for x in t.ints.flat]  # int / int rounds correctly
        except OverflowError:
            raise ContractError("an entry is beyond the float range; drop --float") from None
    return doc


def tensor_from_doc(doc: dict) -> SigTensor:
    level = _require_int(doc, "level", 0)
    dim = _require_int(doc, "dim", 1)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise FileFormatError("'entries' must be a list of rational strings")
    if doc.get("order", TENSOR_ORDER) != TENSOR_ORDER:
        raise ContractError(f"unsupported tensor order {doc.get('order')!r}")
    try:
        check_entry_count(dim, level)
    except ValueError as exc:
        raise ContractError(str(exc)) from None
    ints, den = _parsed(entries, (dim**level,), "entries")
    return SigTensor.of(ints.reshape((dim,) * level), den, dim=dim)


def matrix_to_doc(m: Matrix, note: str | None = None) -> dict:
    doc = {
        "rows": m.rows,
        "cols": m.cols,
        "entries": rational_texts(m),
        "order": MATRIX_ORDER,
    }
    if note:
        doc["note"] = note
    return doc


_ENCODE = json.JSONEncoder(ensure_ascii=False, separators=(",\n    ", ": ")).encode


def _encoded(value) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes a value of a top-level object.

    A non-empty list is encoded in slices of 1024 items, with the item
    separator of the second indent level, and then bracketed: json's encoder
    keeps one string per item until it returns, so slices keep that memory
    small.
    """
    if not isinstance(value, list) or not value:
        return _ENCODE(value)
    slices = (_ENCODE(value[i : i + 1024])[1:-1] for i in range(0, len(value), 1024))
    return "[\n    " + ",\n    ".join(slices) + "\n  ]"


def dump_json(doc: dict) -> str:
    """Canonical serialization: re-parsing and re-dumping is byte-identical.

    The bytes of ``json.dumps(doc, indent=2, ensure_ascii=False) + "\n"`` for
    an object of scalars and flat lists of scalars, made by json's C encoder
    (an ``indent`` selects its pure-Python one).
    """
    items = ",\n".join(f"  {_ENCODE(key)}: {_encoded(value)}" for key, value in doc.items())
    return "{\n" + items + "\n}\n" if doc else "{}\n"
