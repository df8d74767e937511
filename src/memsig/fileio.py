"""JSON file formats: grids and membrane specs are read, tensors and matrices written.

Rationals travel as decimal strings "p" or "p/q" in canonical lowest terms;
JSON numbers cannot hold big rationals and floats would break exactness.
Optional float fields are additive.  Indices are 0-based inside files and the
"order" field makes the flattening self-describing; the math convention in
documentation stays 1-based.

Every rational array goes through one reader and one writer.  ``_parsed``
reads a grid's ``values`` or a dense ``A`` and builds the array on one of
the two routes of the ``ExactArray`` contract, ``of`` or ``cleared``; its
docstring says which route runs when.  A tensor or matrix document is only
written: no command reads one back, and ``json.loads`` re-reads its text.  A
location is computed only on failure: ``_locate`` walks the array again and
raises the error of its first fault, so messages do not depend on the
route.  The writer takes integers and a denominator, not an array object:
``rational_texts(ints, den)`` formats each ints[i] / den in lowest terms
after one ``np.gcd`` against ``den`` (int64 when ``den`` and every entry
are below 2^62, see ``rational.int_view``), so no array is reduced or
rebuilt as ``Rat``s to be printed, and ``decompose`` writes a grid's cell
differences over its ``den`` as they come (``matrix_to_doc``).
``dump_json`` encodes each top-level value with json's C encoder.  In a
forked CLI job, each numpy loop used for the first time pages about 1-1.5 MB
into the job's RSS, and the first call of the default (hash-based)
``np.unique`` costs 11-26 ms, so distinct denominators are taken with
``set(....tolist())``.

Integers outside a document (CLI options, ``MEMSIG_SEED``) are read by
``parse_int`` in the grammar of a rational's numerator, ``[+-]?[0-9]+``.

Errors: FileFormatError for malformed input (CLI exit 2); a plain ValueError
for well-formed input that breaks a shape or a contract (CLI exit 3).
"""

from __future__ import annotations

import json
import re

import numpy as np

from .linalg import Matrix
from .membranes import GridData, PolynomialMembrane
from .rational import ExactArray, int_view, lcm_all, rat
from .tensor import SigTensor

TENSOR_ORDER = "row-major-1-based-words"
MATRIX_ORDER = "row-major"


class FileFormatError(ValueError):
    """Malformed input (a parse-level problem): CLI exit 2."""


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


def parse_int(text: str, where: str) -> int:
    """Exactly the ASCII grammar [+-]?[0-9]+ of ``parse_rational``'s ``"p"``, as an int.

    Any other text raises FileFormatError, which names ``where`` and the text.
    """
    match = _RATIONAL.fullmatch(text)
    if match is not None and match[2] is None:  # no "/q"
        try:
            return int(text)
        except ValueError:  # past int's digit limit
            pass
    raise FileFormatError(f"{where} must be an integer, got {text!r}")


# the leaves joined by "," with a trailing ",", each number of at most 18 digits, so below 10^18 < 2^63;
# every quantifier possessive, so the match keeps no backtracking state
_BOUNDED = re.compile(r"(?:[+-]?+[0-9]{1,18}+(?:/[0-9]{1,18}+)?+,)*+")


def _parsed(cls, value, nesting: tuple, where: str) -> ExactArray:
    """The ``cls`` array of ``value``, which nests as ``nesting`` with rational leaves.

    The array has shape ``nesting``.  The nesting is checked level by level,
    and then one of two routes reads the leaves, each making the array
    canonical once:

    - Bulk, in int64, when the bound is proved: the leaves, joined with
      commas, match ``_BOUNDED`` once, and ``den * max|p| < 2^63`` for
      ``den`` the lcm of the denominators as written.  ``np.fromstring``
      reads every number (it saturates silently past int64, so the digit
      bound is in the grammar).  With no ``"/"`` they are the entries over
      1.  Otherwise one separator mask tells each ``"p/q"`` leaf: the
      ``","`` and ``"/"`` bytes of the text in order, behind a leading
      ``","``, so that number i has separator i before it and i + 1 after
      it.  A number is a q when the separator before it is ``"/"``, and a
      leaf has a q when the separator after its p is ``"/"``; its entry is
      ``p * den // q``.  The pair is not reduced: ``cls.of`` reduces it.
    - Per leaf, for every other document (a literal of 19 or more digits,
      a larger product, q = 0, whose lcm is 0, or any fault):
      ``parse_rational`` reads each leaf in lowest terms and ``cls.cleared``
      clears them over the lcm of the *reduced* denominators, which can be
      far smaller than the lcm as written, and which is already canonical,
      so ``of`` is not called.

    The index work calls numpy's C methods and ufuncs, not its Python-level
    helpers (``flatnonzero``, ``delete``, ``searchsorted``, ``full``), whose
    first call in a forked job costs 0.1-0.3 ms each.  On any fault (a
    wrong nesting, a non-string leaf, a leaf outside the grammar, an int
    past the digit limit or q = 0) ``_locate`` raises the located error.
    """
    try:
        leaves = [value]
        for size in nesting:
            if not all(isinstance(x, list) and len(x) == size for x in leaves):
                raise ValueError
            leaves = [x for xs in leaves for x in xs]
        # a non-str leaf makes join raise TypeError, and a leaf holding a comma the count too high
        text = ",".join(leaves) + ","
        if text.count(",") == len(leaves) and _BOUNDED.fullmatch(text):
            flat = np.fromstring(text[:-1].replace("/", ","), dtype=np.int64, sep=",")
            if "/" not in text:  # skip the index work: each numpy call costs tens of us cold, as in a forked job
                return cls.of(flat.reshape(nesting), 1)
            # the separator mask: deleting the signs and digits leaves the separators in order
            slash = np.frombuffer(("," + text).encode().translate(None, b"+-0123456789"), "u1") == 47
            is_p = ~slash[:-1]
            nums, qs = flat.compress(is_p), flat.compress(slash[:-1])
            den = lcm_all(set(qs.tolist()))  # 0 if some q = 0
            if 0 < den * max(-int(nums.min()), int(nums.max()), 1) < 2**63:
                ints = nums * den
                ints[slash[1:].compress(is_p).nonzero()[0]] //= qs  # exact: q divides den
                return cls.of(ints.reshape(nesting), den)
        return cls.cleared([parse_rational(x, where) for x in leaves], nesting)
    except (TypeError, ValueError):
        _locate(value, nesting, where)
        raise


def _locate(value, shape: tuple, where: str) -> None:
    """Raise the error of the first fault of ``value`` in row-major order.

    A non-list or a list of the wrong length raises ValueError, and a leaf
    outside the grammar FileFormatError; both name the location, ``where``
    followed by the indices.  It runs while ``_parsed`` handles the bulk
    path's exception, so its errors are raised ``from None``.
    """
    if not shape:
        return parse_rational(value, where)
    if not isinstance(value, list) or len(value) != shape[0]:
        raise ValueError(f"{where} must be a list of length {shape[0]}") from None
    for i, x in enumerate(value):
        _locate(x, shape[1:], f"{where}[{i}]")


def rational_texts(ints: np.ndarray, den: int) -> list[str]:
    """The rationals ints[i] / den in row-major order as ``"p"`` or ``"p/q"`` in lowest terms.

    ``ints`` is an integer array (int64 or object) and ``den`` a positive
    int, which need not be the lcm of the reduced denominators: each entry
    is reduced on its own.  ``str(x)`` when ``den`` is 1, else one
    ``np.gcd`` of all entries against ``den``, on the int64 view of
    ``rational.int_view`` when the bound holds, and ``str(p)`` plus the
    ``"/q"`` text of the entry's reduced denominator.
    """
    if den == 1:
        return [str(x) for x in ints.ravel().tolist()]
    view = int_view(ints, den).ravel()
    g = np.gcd(view, den)
    nums, dens = (view // g).tolist(), (den // g).tolist()
    tails = {q: f"/{q}" for q in set(dens)} | {1: ""}  # one "/q" per distinct q, not one f-string per entry
    return [str(p) + tails[q] for p, q in zip(nums, dens)]


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
    return _parsed(GridData, values, (d, m + 1, n + 1), "values")


def polynomial_from_doc(doc: dict) -> PolynomialMembrane:
    """Polynomial membrane: dense "A" (d x mn, nu-ordered) or sparse "terms"."""
    d, m, n = (_require_int(doc, key, 1) for key in ("d", "m", "n"))
    if "A" in doc:
        return PolynomialMembrane(_parsed(Matrix, doc["A"], (d, m * n), "A"), m, n)
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
        return PolynomialMembrane.from_terms(d, m, n, parsed)
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
        "entries": rational_texts(t.ints, t.den),
        "order": TENSOR_ORDER,
    }
    if include_float:
        try:
            doc["entries_float"] = [x / t.den for x in t.ints.ravel()]  # int / int rounds correctly
        except OverflowError:
            raise ValueError("an entry is beyond the float range; drop --float") from None
    return doc


def matrix_to_doc(ints: np.ndarray, den: int) -> dict:
    """The document of the decomposition matrix ints / den, whose columns are ordered by nu."""
    rows, cols = ints.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": rational_texts(ints, den),
        "order": MATRIX_ORDER,
        "note": "columns are nu(i,j) = n*(i-1)+j ordered",
    }


_ENCODE = json.JSONEncoder(ensure_ascii=False, separators=(",\n    ", ": ")).encode


def _encoded(value) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes a value of a top-level object.

    A non-empty list of strings whose concatenation is printable and holds
    no ``"`` or ``\\`` needs no escape, so its items are joined between
    quotes with one ``str.join``.  Any other non-empty list is encoded in
    slices of 1024 items, with the item separator of the second indent
    level, and then bracketed: json's encoder keeps one string per item
    until it returns, so slices keep that memory small.
    """
    if not isinstance(value, list) or not value:
        return _ENCODE(value)
    try:
        text = "".join(value)
    except TypeError:  # an item that is not a string
        pass
    else:
        if text.isprintable() and '"' not in text and "\\" not in text:
            return '[\n    "' + '",\n    "'.join(value) + '"\n  ]'
    slices = (_ENCODE(value[i : i + 1024])[1:-1] for i in range(0, len(value), 1024))
    return "[\n    " + ",\n    ".join(slices) + "\n  ]"


def dump_json(doc: dict) -> str:
    """Canonical serialization: ``dump_json(json.loads(text))`` gives ``text`` back byte for byte.

    The bytes of ``json.dumps(doc, indent=2, ensure_ascii=False) + "\n"`` for
    an object of scalars and flat lists of scalars, made by json's C encoder
    (an ``indent`` selects its pure-Python one).
    """
    items = ",\n".join(f"  {_ENCODE(key)}: {_encoded(value)}" for key, value in doc.items())
    return "{\n" + items + "\n}\n" if doc else "{}\n"
