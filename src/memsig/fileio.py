"""JSON file formats for grids, membrane specs, tensors and matrices.

Rationals travel as decimal strings "p" or "p/q" in canonical lowest terms;
JSON numbers cannot hold big rationals and floats would break exactness.
Optional float fields are additive.  Indices are 0-based inside files and the
"order" field makes the flattening self-describing; the math convention in
documentation stays 1-based.

Errors: FileFormatError for malformed input (CLI exit 2), ContractError for
shape or contract violations (CLI exit 3).
"""

from __future__ import annotations

import json
import re

from .linalg import Matrix
from .membranes import GridData, PolynomialMembrane
from .rational import rat, rat_str
from .tensor import SigTensor, check_entry_count

TENSOR_ORDER = "row-major-1-based-words"
MATRIX_ORDER = "row-major"


class FileFormatError(ValueError):
    """Malformed input file (parse-level problem)."""


class ContractError(ValueError):
    """Well-formed input violating a shape or method contract."""


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text, where: str):
    """Exactly the ASCII grammar [+-]?[0-9]+(/[0-9]+)? with a nonzero denominator."""
    if not isinstance(text, str):
        raise FileFormatError(f"{where}: expected a rational string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match is not None:
        num, den = match.groups()
        try:
            return rat(int(num), int(den)) if den else rat(int(num))
        except (ValueError, ZeroDivisionError):  # past int's digit limit, or q = 0
            pass
    raise FileFormatError(f"{where}: {text!r} is not a rational 'p' or 'p/q'")


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
    d = _require_int(doc, "d", 1)
    m = _require_int(doc, "m", 1)
    n = _require_int(doc, "n", 1)
    values = doc.get("values")
    if not isinstance(values, list) or len(values) != d:
        raise ContractError(f"'values' must be a list of length d={d}")
    comps = []
    for i, comp in enumerate(values):
        if not isinstance(comp, list) or len(comp) != m + 1:
            raise ContractError(f"values[{i}] must have m+1={m + 1} rows")
        rows = []
        for a, row in enumerate(comp):
            if not isinstance(row, list) or len(row) != n + 1:
                raise ContractError(f"values[{i}][{a}] must have n+1={n + 1} entries")
            rows.append([parse_rational(x, f"values[{i}][{a}][{b}]") for b, x in enumerate(row)])
        comps.append(rows)
    return GridData(d, m, n, comps)


def polynomial_from_doc(doc: dict) -> PolynomialMembrane:
    """Polynomial membrane: dense "A" (d x mn, nu-ordered) or sparse "terms"."""
    d = _require_int(doc, "d", 1)
    m = _require_int(doc, "m", 1)
    n = _require_int(doc, "n", 1)
    if "A" in doc:
        a = doc["A"]
        if not isinstance(a, list) or len(a) != d:
            raise ContractError(f"'A' must be a list of d={d} rows")
        rows = []
        for i, row in enumerate(a):
            if not isinstance(row, list) or len(row) != m * n:
                raise ContractError(f"A[{i}] must have m*n={m * n} entries (nu order)")
            rows.append([parse_rational(x, f"A[{i}][{j}]") for j, x in enumerate(row)])
        return PolynomialMembrane(Matrix.from_rows(rows), m, n)
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
        "entries": [rat_str(x) for x in t.entries],
        "order": TENSOR_ORDER,
    }
    if include_float:
        doc["entries_float"] = [x / t.den for x in t.ints.flat]  # int / int rounds correctly
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
    if len(entries) != dim**level:
        raise ContractError(f"'entries' must have dim^level = {dim ** level} items, got {len(entries)}")
    return SigTensor(level, dim, tuple(parse_rational(x, f"entries[{i}]") for i, x in enumerate(entries)))


def matrix_to_doc(m: Matrix, include_float: bool = False, note: str | None = None) -> dict:
    doc = {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [rat_str(x) for x in m.entries],
        "order": MATRIX_ORDER,
    }
    if note:
        doc["note"] = note
    if include_float:
        doc["entries_float"] = [x / m.den for x in m.ints.flat]
    return doc


def dump_json(doc: dict) -> str:
    """Canonical serialization: re-parsing and re-dumping is byte-identical."""
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
