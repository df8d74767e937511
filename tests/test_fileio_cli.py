import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from memsig import cli, fastsig, fileio, linalg, membranes, rational, tensor, variety
from memsig.bench import random_integer_grid
from memsig.linalg import Matrix, det
from memsig.membranes import GridData, PolynomialMembrane, core_matrix
from memsig.rational import ExactArray, rat, rat_str
from memsig.tensor import SigTensor

from conftest import rationals


def run_cli(args, env=None, monkeypatch=None):
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args)
    return code, buf.getvalue()


def grid_doc(grid: GridData) -> dict:
    return {
        "d": grid.d,
        "m": grid.m,
        "n": grid.n,
        "values": [
            [[rat_str(x) for x in row] for row in comp] for comp in grid.values
        ],
    }


def congruence_text(spec, level: int, with_float: bool = False) -> str:
    """``sig``'s output for ``spec`` through the congruence route, the independent oracle of the grid route."""
    return fileio.dump_json(fileio.tensor_to_doc(membranes.sig_via_congruence(spec, level), with_float))


@pytest.fixture
def single_cell_grid_file(tmp_path):
    doc = {"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", "2"]]]}
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestFileFormats:
    def test_tensor_roundtrip_byte_identical(self):
        t = SigTensor(2, 2, (rat(1, 2), rat(-2, 3), rat(0), rat(5)))
        text = fileio.dump_json(fileio.tensor_to_doc(t))
        doc = json.loads(text)
        assert (doc["level"], doc["dim"], doc["order"]) == (2, 2, fileio.TENSOR_ORDER)
        assert [Fraction(x) for x in doc["entries"]] == list(t.entries)
        assert fileio.dump_json(doc) == text

    @pytest.mark.parametrize("level", [100_000, 10**100])
    def test_tensor_size_checked_before_the_power(self, tmp_path, capsys, level):
        # on a d=3 grid, 3^level would not finish: the level is refused before it is formed
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc(GridData(3, 1, 1, [[[0, 0], [0, 1]]] * 3))))
        code, out = run_cli(["sig", str(path), "--level", str(level)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == f"error: a level-{level} tensor has more than 64 axes, numpy's limit\n"

    def test_tensor_level_past_numpys_axis_limit_is_refused(self):
        with pytest.raises(ValueError, match="a level-65 tensor has more than 64 axes") as info:
            tensor.check_entry_count(1, 65)
        assert type(info.value) is ValueError
        text = fileio.dump_json(fileio.tensor_to_doc(SigTensor(64, 1, [rat(1, 3)])))
        doc = json.loads(text)
        assert (doc["level"], doc["entries"]) == (64, ["1/3"]) and fileio.dump_json(doc) == text

    def test_rational_strings_canonical(self):
        assert rat_str(rat(-4, 6)) == "-2/3"
        assert rat_str(rat(8, 2)) == "4"

    def test_grid_parse_and_shape_errors(self):
        good = {"d": 1, "m": 1, "n": 1, "values": [[["0", "1"], ["2", "1/2"]]]}
        grid = fileio.grid_from_doc(good)
        assert grid.values[0][1][1] == rat(1, 2)
        with pytest.raises(ValueError) as info:
            fileio.grid_from_doc({"d": 1, "m": 1, "n": 1, "values": [[["0"], ["2"]]]})
        assert type(info.value) is ValueError
        with pytest.raises(fileio.FileFormatError):
            fileio.grid_from_doc({"d": 1, "m": 1, "n": 1, "values": [[["0", "x"], ["2", "1"]]]})
        with pytest.raises(fileio.FileFormatError):
            fileio.grid_from_doc({"m": 1, "n": 1, "values": []})

    def test_polynomial_docs(self):
        dense = {"kind": "polynomial", "d": 1, "m": 2, "n": 1, "A": [["1", "0"]]}
        spec = fileio.membrane_from_doc(dense)
        assert isinstance(spec, PolynomialMembrane)
        sparse = {
            "kind": "polynomial",
            "d": 1,
            "m": 2,
            "n": 1,
            "terms": [[1, 1, 1, "1"]],
        }
        spec2 = fileio.membrane_from_doc(sparse)
        assert spec.coeffs == spec2.coeffs

    def test_float_field_additive(self):
        t = SigTensor(1, 2, (rat(1, 2), rat(3)))
        doc = fileio.tensor_to_doc(t, include_float=True)
        assert doc["entries"] == ["1/2", "3"]
        assert doc["entries_float"] == [0.5, 3.0]


def _fail(*args):
    raise AssertionError("an integer string was read through rat")


_INTEGERS = st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30))


def _arrays(entries):
    """A Matrix, a SigTensor and a GridData whose entries are drawn from ``entries``."""

    @st.composite
    def draw_array(draw):
        kind = draw(st.sampled_from(["matrix", "tensor", "grid"]))
        if kind == "matrix":
            rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            xs = draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
            return Matrix(rows, cols, xs)
        if kind == "tensor":
            level, dim = draw(st.integers(0, 3)), draw(st.integers(1, 3))
            xs = draw(st.lists(entries, min_size=dim**level, max_size=dim**level))
            return SigTensor(level, dim, xs)
        d, m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
        xs = iter(draw(st.lists(entries, min_size=d * (m + 1) * (n + 1), max_size=d * (m + 1) * (n + 1))))
        return GridData(d, m, n, [[[next(xs) for _ in range(n + 1)] for _ in range(m + 1)] for _ in range(d)])

    return draw_array()


# "p" or "p/q" with an optional sign, q possibly sharing a factor with p (as in "4/6")
_LEAF_TEXTS = st.builds(
    lambda sign, p, q, k: f"{sign}{p * k}" + (f"/{q * k}" if q else ""),
    st.sampled_from(["", "+", "-"]),
    st.one_of(st.just(0), st.integers(0, 12), st.integers(0, 10**30)),
    st.one_of(st.just(0), st.integers(0, 12), st.integers(0, 10**12)),
    st.integers(1, 4),
)
_INTEGER_TEXTS = st.builds(lambda sign, p: f"{sign}{p}", st.sampled_from(["", "+", "-"]), st.integers(0, 10**30))

_JSON_SCALARS = st.one_of(
    st.integers(-(10**40), 10**40),
    st.booleans(),
    st.none(),
    st.sampled_from([5e-324, -0.0, 1e300]),
    st.floats(),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é→\u2028", "😀"]),
)

# lists of strings take the writer's join unless an item needs an escape or is not printable
_STRINGS = st.text(st.sampled_from('09/-x "\\\x00\n\x1f\x7f\xa0é√\u2028\ud800😀'), max_size=4) | st.text(
    max_size=4
)

# long lists cross the writer's slices of 1024 items
_JSON_VALUES = (
    _JSON_SCALARS
    | st.lists(_JSON_SCALARS, max_size=40)
    | st.lists(_STRINGS, min_size=1, max_size=8)
    | st.integers(1000, 3100).map(lambda n: [f"{i}/7" for i in range(n)])
    | st.integers(1000, 3100).map(lambda n: [f"{i}/7" for i in range(n)] + [1])
)


def _nest(leaves, shape):
    """The flat ``leaves`` as nested lists of the given shape, row-major."""
    if len(shape) == 1:
        return list(leaves)
    step = len(leaves) // shape[0]
    return [_nest(leaves[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0])]


@st.composite
def _documents(draw):
    """(field, shape, leaf texts): a grid's values or a dense A."""
    reader = draw(st.sampled_from(["values", "A"]))
    if reader == "values":
        shape = (draw(st.integers(1, 3)), draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    else:
        shape = (draw(st.integers(1, 3)), draw(st.integers(1, 6)))
    texts = draw(st.sampled_from([_LEAF_TEXTS, _INTEGER_TEXTS]))
    return reader, shape, draw(st.lists(texts, min_size=prod(shape), max_size=prod(shape)))


class TestReaderAndWriter:
    def test_integer_documents_parse_without_rat(self, monkeypatch):
        grid_doc_ = {"d": 2, "m": 1, "n": 1, "values": [[["0", "-3"], ["+7", "12"]], [["5", "0"], ["-0", "9"]]]}
        # 10^22 has too many digits for the int64 route, so A is read leaf by leaf
        poly_doc = {"kind": "polynomial", "d": 2, "m": 2, "n": 1, "A": [["1", "0"], ["-4", "10000000000000000000000"]]}
        monkeypatch.setattr(fileio, "rat", _fail)
        assert fileio.grid_from_doc(grid_doc_) == GridData(2, 1, 1, [[[0, -3], [7, 12]], [[5, 0], [0, 9]]])
        spec = fileio.membrane_from_doc(poly_doc)
        assert spec.coeffs == Matrix.from_rows([[1, 0], [-4, 10**22]])
        with pytest.raises(AssertionError, match="through rat"):
            fileio.parse_rational("1/2", "x")

    @pytest.mark.parametrize("den", ["1", "above 1"])
    @given(data=st.data())
    def test_rational_texts_match_rat_str(self, den, data):
        a = data.draw(_arrays(_INTEGERS if den == "1" else rationals()))
        assume((a.den == 1) == (den == "1"))
        assert fileio.rational_texts(a) == [rat_str(x) for x in a.entries]

    @pytest.mark.parametrize(
        "doc, error, where",
        [
            ({"values": "1"}, fileio.FileFormatError, "values"),
            ({"values": [[["0", "1"], ["2", "3"]]]}, ValueError, "values"),
            ({"values": ["1", [["0", "0"], ["0", "0"]]]}, ValueError, r"values\[0\]"),
            ({"values": [[["0", "1"]], [["0", "0"], ["0", "0"]]]}, ValueError, r"values\[0\]"),
            ({"values": [[["0", "1"], "2"], [["0", "0"], ["0", "0"]]]}, ValueError, r"values\[0\]\[1\]"),
            ({"values": [[["0", "1"], ["2", "3", "4"]], [["0", "0"], ["0", "0"]]]}, ValueError, r"values\[0\]\[1\]"),
            ({"values": [[["0", "1"], ["2", "3"]], [["0", "0"], ["0", "x"]]]}, fileio.FileFormatError, r"values\[1\]\[1\]\[1\]"),
            ({"values": [[["0", "1"], ["2", 3]], [["0", "0"], ["0", "0"]]]}, fileio.FileFormatError, r"values\[0\]\[1\]\[1\]"),
            ({"values": [[["0", "1"], ["2", ["3"]]], [["0", "0"], ["0", "0"]]]}, fileio.FileFormatError, r"values\[0\]\[1\]\[1\]"),
            ({"A": {"0": "1"}}, ValueError, "A"),
            ({"A": [["1", "0"]]}, ValueError, "A"),
            ({"A": [["1", "0"], "3"]}, ValueError, r"A\[1\]"),
            ({"A": [["1", "0"], ["3"]]}, ValueError, r"A\[1\]"),
            ({"A": [["1", "0"], ["3", "1.5"]]}, fileio.FileFormatError, r"A\[1\]\[1\]"),
            ({"A": [["1", None], ["3", "4"]]}, fileio.FileFormatError, r"A\[0\]\[1\]"),
            ({"A": "1"}, ValueError, "A"),
            ({"A": [["1", "0"], ["3", "4"], ["5", "6"]]}, ValueError, "A"),
            ({"A": [["1", "0"], ["1/0", "4"]]}, fileio.FileFormatError, r"A\[1\]\[0\]"),
            ({"A": [["1", "0"], ["3", ["4"]]]}, fileio.FileFormatError, r"A\[1\]\[1\]"),
        ],
    )
    def test_each_nesting_level_raises_its_error(self, doc, error, where):
        if "values" in doc:
            read, doc = fileio.grid_from_doc, {"d": 2, "m": 1, "n": 1, **doc}
        else:
            read, doc = fileio.polynomial_from_doc, {"kind": "polynomial", "d": 2, "m": 2, "n": 1, **doc}
        with pytest.raises(error, match=f"^'?{where}'?[ :]") as info:
            read(doc)
        assert type(info.value) is error

    @given(data=st.data())
    def test_bulk_reader_equals_the_per_leaf_oracle(self, data):
        reader, shape, leaves = data.draw(_documents())
        xs = [fileio.parse_rational(t, "x") for t in leaves]
        if reader == "values":
            d, m1, n1 = shape
            got = fileio.grid_from_doc({"d": d, "m": m1 - 1, "n": n1 - 1, "values": _nest(leaves, shape)})
            want = GridData(d, m1 - 1, n1 - 1, _nest(xs, shape))
        else:
            rows, cols = shape
            got = fileio.polynomial_from_doc({"d": rows, "m": cols, "n": 1, "A": _nest(leaves, shape)}).coeffs
            want = Matrix(rows, cols, xs)
        assert got == want and got.den == want.den

    def test_rational_documents_parse_without_rat(self, monkeypatch):
        doc = {"d": 1, "m": 1, "n": 1, "values": [[["1/2", "-4/6"], ["0/5", "+3"]]]}
        monkeypatch.setattr(fileio, "rat", _fail)
        assert fileio.grid_from_doc(doc) == GridData(1, 1, 1, [[[rat(1, 2), rat(-2, 3)], [0, 3]]])

    @pytest.mark.parametrize("reader", ["values", "A"])
    @pytest.mark.parametrize(
        "bad",
        ["1,2", "1_0", " 1", "1 ", "١", "+-1", "1/", "/2", "", "1.5", "1/0", "1" * 4301, 3, True, None, ["1"]],
        ids=lambda bad: repr(bad)[:12],
    )
    @settings(max_examples=10)
    @given(data=st.data())
    def test_a_bad_leaf_raises_the_per_leaf_error_at_its_place(self, reader, bad, data):
        shape, read, doc = {
            "values": ((2, 3, 4), fileio.grid_from_doc, {"d": 2, "m": 2, "n": 3}),
            "A": ((2, 6), fileio.polynomial_from_doc, {"d": 2, "m": 3, "n": 2}),
        }[reader]
        leaves = data.draw(st.lists(_LEAF_TEXTS, min_size=prod(shape), max_size=prod(shape)))
        at = data.draw(st.integers(0, prod(shape) - 1))
        later = data.draw(st.integers(at, prod(shape) - 1))
        leaves[later] = "x"  # a second fault after the first: only the first is reported
        leaves[at] = bad
        index = [int(i) for i in np.unravel_index(at, shape)]
        where = reader + "".join(f"[{i}]" for i in index)
        with pytest.raises(fileio.FileFormatError) as expected:
            fileio.parse_rational(bad, where)
        with pytest.raises(fileio.FileFormatError) as info:
            read({**doc, reader: _nest(leaves, shape)})
        assert type(info.value) is fileio.FileFormatError and str(info.value) == str(expected.value)

    @pytest.mark.parametrize(
        "leaves",
        [
            ["999999999999999999", "-999999999999999999/7", "+5", "007", "-0", "0/9"],
            ["9223372036854775808", "-999999999999999999/7", "+5", "007", "-0", "0/9"],
            ["0000000000000000005", "1/1000000000000000000", "+5", "007", "-0", "0/9"],
            ["12345678901234567890123/999999999999999999", "3/10000000000000000000", "-0/1"],
        ],
    )
    def test_literals_at_the_digit_bound_read_as_per_leaf(self, leaves):
        xs = [fileio.parse_rational(t, "x") for t in leaves]
        got = fileio.polynomial_from_doc({"d": 1, "m": len(leaves), "n": 1, "A": [leaves]}).coeffs
        want = Matrix(1, len(leaves), xs)
        assert got == want and got.den == want.den
        assert fileio.rational_texts(got) == [rat_str(x) for x in xs]

    @pytest.mark.parametrize("big", ["", "12345678901234567890"])
    @pytest.mark.parametrize("zero", ["5/0", "0/0", "-7/000"])
    def test_a_zero_denominator_keeps_its_located_error(self, big, zero):
        leaves = [["1/2", big or "3"], [zero, "4/0"]]
        with pytest.raises(fileio.FileFormatError) as info:
            fileio.polynomial_from_doc({"d": 2, "m": 2, "n": 1, "A": leaves})
        assert str(info.value) == f"A[1][0]: {zero!r} is not a rational 'p' or 'p/q'"

    @staticmethod
    def _spy_routes(monkeypatch) -> dict:
        """Record the texts ``parse_rational`` reads and the arguments of ``ExactArray.of`` and ``.cleared``."""
        calls = {"parse_rational": [], "of": [], "cleared": []}
        real = fileio.parse_rational
        monkeypatch.setattr(fileio, "parse_rational", lambda text, where: calls["parse_rational"].append(text) or real(text, where))
        for name in ("of", "cleared"):

            def spy(cls, first, second, *args, method=getattr(ExactArray, name).__func__, log=calls[name]):
                log.append((first, second))
                return method(cls, first, second, *args)

            monkeypatch.setattr(ExactArray, name, classmethod(spy))
        return calls

    @pytest.mark.parametrize("p", [2**32 - 1, 2**32, -(2**32 - 1), -(2**32), 0])
    def test_the_int64_product_bound_is_den_times_max_p(self, monkeypatch, p):
        leaves = [str(p), f"1/{2**31}", f"{p}/2", f"-3/{2**30}"]  # den = 2^31, so den * max|p| is 2^63 at |p| = 2^32
        calls = self._spy_routes(monkeypatch)
        got = fileio._parsed(Matrix, [leaves], (1, 4), "A")
        bulk = abs(p) < 2**32
        assert (len(calls["of"]), len(calls["cleared"])) == ((1, 0) if bulk else (0, 1))
        if bulk:
            (ints, den), = calls["of"]
            assert ints.dtype == np.int64 and den == 2**31
            assert [int(x) for x in ints.ravel()] == [fileio.parse_rational(t, "x") * den for t in leaves]
        assert got.den == 2**31 and list(got.entries) == [fileio.parse_rational(t, "x") for t in leaves]

    # 60247241209 * 153092023 = 2^63 - 1, so the last two documents sit on either side of the product bound
    @pytest.mark.parametrize(
        "leaves, bulk",
        [
            (["0", "-3", "+7", "999999999999999999"], True),
            (["1/2", "-4/6", "0/5", "+3"], True),
            (["153092023", "-1/60247241209", "5/92737", "-153092023/649657"], True),
            (["1000000000000000000", "1/2", "-4/6", "3"], False),
            (["153092024", "-1/60247241209", "5/92737", "-153092023/649657"], False),
        ],
    )
    def test_parse_rational_runs_only_where_the_bound_fails(self, monkeypatch, leaves, bulk):
        calls = self._spy_routes(monkeypatch)
        got = fileio._parsed(Matrix, [leaves], (1, len(leaves)), "A")
        assert calls["parse_rational"] == ([] if bulk else leaves)
        assert (len(calls["of"]), len(calls["cleared"])) == ((1, 0) if bulk else (0, 1))
        if bulk:
            assert calls["of"][0][0].dtype == np.int64
        assert list(got.entries) == [fileio.parse_rational(t, "x") for t in leaves]

    @pytest.mark.parametrize(
        "leaves, bulk, den",
        [
            (["2/4", "-6/9", "1/3", "5"], True, 36),  # the bulk route hands of the lcm as written
            (["2/4", "-6/9", "1/3", "5000000000000000000"], False, 6),
            (["2/4", "-6/9", f"{2**40}/{2**41}", "5"], False, 6),  # as written: den 9 * 2^41, den * max|p| > 2^63
        ],
    )
    def test_the_per_leaf_route_clears_over_the_reduced_denominators(self, monkeypatch, leaves, bulk, den):
        calls = self._spy_routes(monkeypatch)
        got = fileio._parsed(Matrix, [leaves[:2], leaves[2:]], (2, 2), "A")
        assert bool(calls["parse_rational"]) is not bulk and not calls["cleared" if bulk else "of"]
        if bulk:
            (ints, written), = calls["of"]
            assert written == den and ints.shape == (2, 2)
        else:
            (_, shape), = calls["cleared"]
            assert got.den == den and shape == (2, 2)
        assert got.den == 6 and list(got.entries) == [fileio.parse_rational(t, "x") for t in leaves]

    @pytest.mark.parametrize(
        "read, doc",
        [
            (fileio.grid_from_doc, {"d": 1, "m": 1, "n": 1, "values": [[["LEAF", "1/3"], ["-2/4", "5"]]]}),
            (lambda doc: fileio.polynomial_from_doc(doc).coeffs, {"d": 2, "m": 1, "n": 1, "A": [["LEAF"], ["-2/4"]]}),
        ],
        ids=["grid", "A"],
    )
    @pytest.mark.parametrize("leaf", ["7/6", "70000000000000000001/6"])
    def test_each_reader_makes_its_array_canonical_once(self, monkeypatch, read, doc, leaf):
        calls = self._spy_routes(monkeypatch)
        got = read(json.loads(json.dumps(doc).replace("LEAF", leaf)))
        assert (len(calls["of"]), len(calls["cleared"])) == ((1, 0) if len(leaf) <= 18 else (0, 1))
        assert got.den == 6 and got.entries[0] == rat(int(leaf[:-2]), 6)

    @pytest.mark.parametrize("x", [2**62 - 1, -(2**62 - 1), 2**62, -(2**62), -(2**63)])
    @pytest.mark.parametrize("den", [1, 6, 2**62 - 1, 2**62, -(2**62)])
    @pytest.mark.parametrize("dtype", [object, np.int64])
    def test_the_reducer_and_writer_at_the_int64_bound(self, x, den, dtype):
        xs = np.array([x, -3, 0, 6 * x], dtype=object)
        if dtype is np.int64:
            xs = xs[: 3 if abs(6 * x) >= 2**63 else 4].astype(np.int64)
        fixed = abs(den) < 2**62 and all(abs(y) < 2**62 for y in xs.tolist())
        assert rational.int_view(xs, den).dtype == (np.int64 if fixed else object)
        a = Matrix.of(xs.reshape(1, -1), den)
        want = Matrix(1, len(xs), [rat(y, den) for y in xs.tolist()])
        assert a == want and a.den == want.den and a.ints.dtype == object
        assert fileio.rational_texts(a) == [rat_str(rat(y, den)) for y in xs.tolist()]

    def test_rational_grid_parse_peak_memory(self):
        rng = random.Random(20240801)
        texts = [rat_str(rat(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(3 * 101 * 101)]
        doc = {"d": 3, "m": 100, "n": 100, "values": _nest(texts, (3, 101, 101))}
        tracemalloc.start()
        try:
            fileio.grid_from_doc(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @given(doc=st.dictionaries(st.text(), _JSON_VALUES, max_size=6))
    def test_dump_json_is_json_dumps_with_indent_2(self, doc):
        assert fileio.dump_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize(
        "items",
        [["1/7", "-2"], [""], ["a\\b"], ['a"b'], ["1", "\x7f"], ["\x00"], ["é√😀"], ["\u2028"], ["\ud800"], ["1", 2]],
    )
    def test_dump_json_writes_string_lists_as_json_dumps(self, items):
        doc = {"entries": items}
        assert fileio.dump_json(doc) == json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


class TestCliCommands:
    def test_core_matches_displayed_matrix(self):
        code, out = run_cli(["core", "--kind", "moment", "--m", "2", "--n", "2", "--level", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"][:4] == ["1/4", "1/3", "1/3", "4/9"]
        assert doc["order"] == "row-major-1-based-words"

    def test_core_level0(self):
        code, out = run_cli(["core", "--kind", "axis", "--m", "3", "--n", "1", "--level", "0"])
        assert code == 0 and json.loads(out)["entries"] == ["1"]

    def test_core_level3_shape(self):
        code, out = run_cli(["core", "--kind", "moment", "--m", "2", "--n", "2", "--level", "3"])
        doc = json.loads(out)
        assert code == 0 and len(doc["entries"]) == 64
        assert doc["entries"][0] == "1/36"

    def test_sig_both_methods_byte_identical_on_50_grids(self, tmp_path, rng):
        for trial in range(50):
            d, m, n = rng.randint(1, 3), rng.randint(1, 5), rng.randint(1, 5)
            grid = random_integer_grid(d, m, n, rng, 5)
            path = tmp_path / f"g{trial}.json"
            path.write_text(json.dumps(grid_doc(grid)))
            level = rng.randint(0, 3)
            _, fast = run_cli(["sig", str(path), "--level", str(level)])
            assert fast == congruence_text(grid, level)

    def test_sig_single_cell(self, single_cell_grid_file):
        code, out = run_cli(["sig", single_cell_grid_file, "--level", "2"])
        assert code == 0 and json.loads(out)["entries"] == ["1"]

    def test_sig_polynomial_spec(self, tmp_path):
        doc = {
            "kind": "polynomial",
            "d": 4,
            "m": 2,
            "n": 2,
            "A": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
        }
        path = tmp_path / "mom22.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["sig", str(path), "--level", "2"])
        assert code == 0
        assert json.loads(out)["entries"][:4] == ["1/4", "1/3", "1/3", "4/9"]

    @pytest.mark.parametrize("kind", ["grid", "polynomial"])
    def test_sig_takes_one_route_per_input_kind(self, monkeypatch, tmp_path, single_cell_grid_file, kind):
        # a grid never reaches the congruence route, and a polynomial spec never the grid route
        def unused(*args):
            raise AssertionError("the other input kind's route was taken")

        monkeypatch.setattr(cli, "sig_via_congruence" if kind == "grid" else "sig_tensor_fast", unused)
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"kind": "polynomial", "d": 1, "m": 1, "n": 1, "A": [["2"]]}))
        code, out = run_cli(["sig", single_cell_grid_file if kind == "grid" else str(spec)])
        assert code == 0 and json.loads(out)["entries"] == ["1"]  # 2^2 / (2!)^2 on either input

    def test_sig_has_no_method_option(self, capsys, single_cell_grid_file):
        # the input kind picks the route, so --method is an unknown argument and argparse exits 2
        def exit_code(argv):
            out = io.StringIO()
            with redirect_stdout(out), pytest.raises(SystemExit) as exc:
                cli.main(argv)
            return exc.value.code, out.getvalue()

        code, help_text = exit_code(["sig", "--help"])
        assert code == 0 and "--level" in help_text and "--method" not in help_text
        code, out = exit_code(["sig", single_cell_grid_file, "--method", "fast"])
        assert code == 2 and out == ""
        assert "unrecognized arguments: --method fast" in capsys.readouterr().err

    def test_sig_float_output(self, single_cell_grid_file):
        code, out = run_cli(["sig", single_cell_grid_file, "--float"])
        doc = json.loads(out)
        assert doc["entries_float"] == [1.0]

    def test_out_flag_writes_file(self, tmp_path, single_cell_grid_file):
        target = tmp_path / "out.json"
        code, out = run_cli(["sig", single_cell_grid_file, "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["entries"] == ["1"]

    def test_dim_command(self, monkeypatch):
        code, out = run_cli(["dim", "--d", "3", "--m", "2", "--n", "2"], {"MEMSIG_SEED": "7"}, monkeypatch)
        doc = json.loads(out)
        assert code == 0 and doc["measured_dim"] == 9 and doc["ambient"] == 9
        assert list(doc) == [
            "d", "m", "n", "level", "measured_dim", "formula_dim", "ambient", "trials", "agree"
        ]

    def test_dim_level3(self, monkeypatch):
        code, out = run_cli(
            ["dim", "--d", "3", "--m", "2", "--n", "2", "--level", "3"], {"MEMSIG_SEED": "7"}, monkeypatch
        )
        doc = json.loads(out)
        assert code == 0 and doc["measured_dim"] == 12 and doc["formula_dim"] is None

    def test_invariants_command(self):
        code, out = run_cli(["invariants", "--kind", "axis", "--m", "2", "--n", "2"])
        doc = json.loads(out)
        assert code == 0
        assert doc["blocks"] == ["Gamma1", "Gamma3"]
        assert doc["det"] == "1/256"
        assert (doc["rank_sym"], doc["rank_skew"]) == (4, 2)

    @pytest.mark.parametrize("m, n", [(4, 4), (5, 5), (4, 7), (6, 6), (7, 7)])
    def test_invariants_det_equals_linalg_det(self, m, n):
        code, out = run_cli(["invariants", "--kind", "axis", "--m", str(m), "--n", str(n)])
        assert code == 0 and json.loads(out)["det"] == rat_str(det(core_matrix("axis", m, n)))

    @pytest.mark.parametrize("kind", ["axis", "moment"])
    def test_invariants_runs_no_elimination(self, monkeypatch, kind):
        calls = []
        for name in ("_bareiss", "_rank_mod_p"):

            def spy(rows, *args, _fn=getattr(linalg, name), **kwargs):
                calls.append(len(rows))
                return _fn(rows, *args, **kwargs)

            monkeypatch.setattr(linalg, name, spy)
        for m, n in [(4, 7), (7, 7), (8, 3)]:
            want = rat_str(det(core_matrix(kind, m, n)))
            calls.clear()
            code, out = run_cli(["invariants", "--kind", kind, "--m", str(m), "--n", str(n)])
            assert code == 0 and json.loads(out)["det"] == want
            assert calls == []

    def test_invariants_of_a_long_axis_core(self):
        code, out = run_cli(["invariants", "--kind", "axis", "--m", "1", "--n", "3162"])
        doc = json.loads(out)
        assert code == 0 and doc["det"] == f"1/{4**3162}"
        assert doc["blocks"] == ["Gamma2"] + ["H2(-1)"] * 1580
        assert (doc["rank_sym"], doc["rank_skew"]) == (1, 3162)

    @pytest.mark.parametrize("m, n, digits", [(1, 3162, 5997053), (30, 30, 27489), (17, 17, 4533)])
    def test_moment_det_past_the_digit_limit_is_refused_before_it_is_computed(self, monkeypatch, capsys, m, n, digits):
        def no_product(*args):
            raise AssertionError("the det was computed")

        monkeypatch.setattr(variety, "_path_core_det_den", no_product)
        code, out = run_cli(["invariants", "--kind", "moment", "--m", str(m), "--n", str(n)])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == (
            f"error: the det of the {m}x{n} moment core has a denominator of at least {digits} digits, "
            "over the limit (4300 digits) for integer string conversion\n"
        )

    def test_moment_det_below_the_bound_still_meets_the_writer(self, capsys):
        # 16x16: the bound gives 3737 digits, the det has more than 4300, and the writer refuses it
        code, out = run_cli(["invariants", "--kind", "moment", "--m", "16", "--n", "16"])
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("error: Exceeds the limit (4300 digits)")

    def test_no_digit_limit_refuses_no_det(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            code, out = run_cli(["invariants", "--kind", "moment", "--m", "17", "--n", "17"])
            want = rat_str(variety.core_invariants("moment", 17, 17)[1])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 0 and json.loads(out)["det"] == want and len(want) > 4300

    @pytest.mark.parametrize("top, den", [(2**61 - 1, 1), (2**61 - 1, 2), (2**61, 1), (2**62 - 1, 3)])
    def test_sig_and_decompose_exact_at_the_cell_difference_bound(self, tmp_path, top, den):
        # nodes +-top/den alternating in a and b: every cell difference is +-4 top/den
        d, m, n = 2, 3, 2
        grid = GridData(d, m, n, [[[rat((-1) ** (a + b + i) * top, den) for b in range(n + 1)]
                                   for a in range(m + 1)] for i in range(d)])
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc(grid)))
        for level in (1, 2, 3):
            code, fast = run_cli(["sig", str(path), "--level", str(level)])
            assert code == 0 and fast == congruence_text(grid, level)
        code, out = run_cli(["decompose", str(path)])
        signs = [(-1) ** (a + b + i) for i in range(d) for a in range(m) for b in range(n)]
        assert code == 0 and json.loads(out)["entries"] == [rat_str(rat(4 * s * top, den)) for s in signs]

    @pytest.mark.parametrize(
        "command", [["core", "--kind", "axis"], ["dim", "--d", "2"], ["invariants", "--kind", "moment"]]
    )
    def test_order_below_one_is_refused(self, capsys, command):
        code, out = run_cli([*command, "--m", "0", "--n", "3"])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == "error: need m, n >= 1, got (0, 3)\n"

    def test_check_relations_command(self, monkeypatch):
        code, out = run_cli(
            ["check-relations", "--d", "2", "--m", "2", "--n", "1", "--samples", "25"],
            {"MEMSIG_SEED": "3"},
            monkeypatch,
        )
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"
        code, out = run_cli(["check-relations", "--d", "3", "--m", "2", "--n", "2"])
        assert code == 0 and json.loads(out)["status"] == "no-relations"

    def test_check_relations_failure_exit_code(self, monkeypatch):
        from memsig.variety import RelationReport
        from memsig.linalg import Matrix

        def fake_checks(d, m, n, samples, rng):
            return RelationReport(d, m, n, samples, "fail", ("r",), Matrix.identity(2), "boom")

        monkeypatch.setattr(cli, "relation_checks", fake_checks)
        code, out = run_cli(["check-relations", "--d", "2", "--m", "2", "--n", "1"])
        assert code == 4
        assert json.loads(out)["detail"] == "boom"

    def test_check_relations_exits_4_on_a_failed_relation(self, monkeypatch):
        monkeypatch.setattr(variety, "core_matrix", lambda kind, m, n: Matrix.identity(2))
        code, out = run_cli(
            ["check-relations", "--d", "2", "--m", "2", "--n", "1", "--samples", "7"],
            {"MEMSIG_SEED": "5"},
            monkeypatch,
        )
        doc = json.loads(out)
        a = variety.random_integer_matrix(2, 2, random.Random(5))
        assert code == 4 and (doc["status"], doc["samples"]) == ("fail", 7)
        assert doc["counterexample"] == [rat_str(x) for x in a.entries]

    def test_check_relations_counterexample_printed_in_lowest_terms(self, monkeypatch):
        from memsig.variety import RelationReport

        counterexample = Matrix.from_rows([[rat(1, 2), 0], [rat(-4, 6), 3]])

        def fake_checks(d, m, n, samples, rng):
            return RelationReport(d, m, n, samples, "fail", ("r",), counterexample, "boom")

        monkeypatch.setattr(cli, "relation_checks", fake_checks)
        code, out = run_cli(["check-relations", "--d", "2", "--m", "2", "--n", "1"])
        assert code == 4
        assert json.loads(out)["counterexample"] == ["1/2", "0", "-2/3", "3"]

    def test_decompose_command(self, single_cell_grid_file):
        code, out = run_cli(["decompose", single_cell_grid_file])
        doc = json.loads(out)
        assert code == 0 and doc["entries"] == ["2"] and doc["rows"] == 1

    def test_bench_csv(self, monkeypatch):
        code, out = run_cli(
            ["bench", "--sizes", "2x2,4x4", "--repeats", "2", "--methods", "fast"],
            {"MEMSIG_SEED": "1"},
            monkeypatch,
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert {(r["method"], r["m"], r["n"]) for r in rows} == {("fast", "2", "2"), ("fast", "4", "4")}
        assert all(int(r["nanos"]) > 0 for r in rows)
        assert any(l.startswith("# fast scaling exponent") for l in out.splitlines())

    def test_exit_code_parse_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _ = run_cli(["sig", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", " 3/4 ", "٣", "1/0", "3/-4"])
    def test_exit_code_outside_rational_grammar(self, tmp_path, text):
        doc = {"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", text]]]}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["sig", str(path)])
        assert code == 2 and out == ""

    @pytest.mark.parametrize("text, value", [("+3", rat(3)), ("-0", rat(0)), ("-4/6", rat(-2, 3))])
    def test_rational_grammar_accepts_signed_ascii(self, text, value):
        assert fileio.parse_rational(text, "x") == value

    def test_exit_code_shape_error(self, tmp_path):
        doc = {"d": 2, "m": 1, "n": 1, "values": [[["0", "0"], ["0", "1"]]]}
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli(["sig", str(path)])
        assert code == 3

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "polynomial", "d": 1, "m": 1, "n": 1, "terms": []},
            {"d": 1, "m": 1, "n": 1, "values": "x"},
        ],
        ids=["polynomial-spec", "values-not-a-list"],
    )
    def test_decompose_without_values_list_exits_2(self, tmp_path, capsys, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["decompose", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("error: 'values' must be")

    def test_exit_code_over_entry_budget(self, monkeypatch, capsys, tmp_path, rng):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc(random_integer_grid(2, 1, 1, rng))))
        monkeypatch.setattr(tensor, "MAX_ENTRIES", 4)
        code, out = run_cli(["sig", str(path), "--level", "3"])
        assert code == 3 and out == ""
        assert "more than 4 entries" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sig", "GRID", "--level", "65"], "a level-65 tensor has more than 64 axes"),
            (["sig", "GRID", "--level", "1000"], "a level-1000 tensor has more than 64 axes"),
            (["sig", "SPEC", "--level", "65"], "a level-65 tensor has more than 64 axes"),
            (["core", "--kind", "axis", "--m", "1", "--n", "1", "--level", "65"], "a level-65 tensor has more than 64 axes"),
            (["bench", "--sizes", "1x1", "--d", "1", "--level", "1000", "--methods", "fast"], "a level-1000 tensor"),
        ],
        ids=["sig-65", "sig-1000", "sig-congruence-65", "core-65", "bench-1000"],
    )
    def test_a_level_past_numpys_axis_limit_exits_3_before_any_work(
        self, monkeypatch, capsys, tmp_path, single_cell_grid_file, argv, message
    ):
        def no_work(*args):
            raise AssertionError("no letter or path core may be computed")

        monkeypatch.setattr(fastsig, "advance_letter", no_work)
        for kind in ("moment", "axis"):
            monkeypatch.setitem(membranes._PATH_CORES, kind, no_work)
        spec = tmp_path / "poly.json"  # a polynomial spec takes the congruence route
        spec.write_text(json.dumps({"kind": "polynomial", "d": 1, "m": 1, "n": 1, "A": [["2"]]}))
        files = {"GRID": single_cell_grid_file, "SPEC": str(spec)}
        code, out = run_cli([files.get(a, a) for a in argv])
        err = capsys.readouterr().err
        assert code == 3 and out == ""
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    def test_level_64_is_computed_on_a_one_dimensional_grid(self, single_cell_grid_file):
        # the single cell's mixed difference is 2, so the level-k entry is 2^k / (k!)^2
        code, out = run_cli(["sig", single_cell_grid_file, "--level", "64"])
        assert code == 0 and json.loads(out)["entries"] == [rat_str(rat(2**64, factorial(64) ** 2))]

    def test_a_one_entry_level_over_the_working_set_budget_exits_3_before_any_work(self, monkeypatch, capsys, tmp_path):
        # d = 1 at level 64 is one entry, but the walk over 100 x 100 cells would hold 10^4 (1^2 + ... + 63^2)
        # coefficients, scaled by prod(s!)^2 for s <= 63: the budget refuses it before the cell differences
        def no_work(*args):
            raise AssertionError("no cell difference may be computed")

        monkeypatch.setattr(fastsig, "cell_derivatives", no_work)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"d": 1, "m": 100, "n": 100, "values": [[["0"] * 101] * 101]}))
        code, out = run_cli(["sig", str(path), "--level", "64"])
        assert code == 3 and out == ""
        assert capsys.readouterr().err == "error: the level-64 walk over 10000 cells has more than 10000000 entries\n"

    @pytest.mark.parametrize("level", [33, 64])
    def test_the_congruence_route_reaches_the_fast_routes_level(self, tmp_path, single_cell_grid_file, level):
        # A = [[2]] on the 1x1 moment core and the single cell (mixed difference 2) on the
        # 1x1 axis core both give 2^k / (k!)^2; either 1x1 core is 1 / (k!)^2
        spec = tmp_path / "poly.json"
        spec.write_text(json.dumps({"kind": "polynomial", "d": 1, "m": 1, "n": 1, "A": [["2"]]}))
        want = [rat_str(rat(2**level, factorial(level) ** 2))]
        code, out = run_cli(["sig", str(spec), "--level", str(level)])
        assert code == 0 and json.loads(out)["entries"] == want
        grid = fileio.grid_from_doc(json.loads(Path(single_cell_grid_file).read_text()))
        assert json.loads(congruence_text(grid, level))["entries"] == want
        for kind in ("moment", "axis"):
            code, out = run_cli(["core", "--kind", kind, "--m", "1", "--n", "1", "--level", str(level)])
            assert code == 0 and json.loads(out)["entries"] == [rat_str(rat(1, factorial(level) ** 2))]

    def test_tensors_past_32_axes_are_written(self, tmp_path, single_cell_grid_file):
        # numpy's flat iterator stops at 32 axes, so the writer must read an integer tensor's
        # entries and the --float entries off a raveled array
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", "0"]]]}))
        code, out = run_cli(["sig", str(zero), "--level", "33"])
        assert code == 0 and json.loads(out)["entries"] == ["0"]
        code, out = run_cli(["sig", single_cell_grid_file, "--level", "64", "--float"])
        assert code == 0 and json.loads(out)["entries_float"] == [2**64 / factorial(64) ** 2]

    def test_exit_code_polynomial_over_entry_budget(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"kind": "polynomial", "d": 5, "m": 5, "n": 5, "terms": []}))
        monkeypatch.setattr(tensor, "MAX_ENTRIES", 124)
        code, out = run_cli(["sig", str(path), "--level", "1"])
        assert code == 3 and out == ""
        assert "more than 124 entries" in capsys.readouterr().err

    def test_sig_float_beyond_the_float_range_exits_3(self, tmp_path, capsys, rng):
        big = 10**300  # level-2 entries near 10^600 have no float
        values = [[[str(rng.randint(-big, big)) for _ in range(3)] for _ in range(3)] for _ in range(2)]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d": 2, "m": 2, "n": 2, "values": values}))
        code, out = run_cli(["sig", str(path), "--float"])
        err = capsys.readouterr().err
        assert code == 3 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        code, out = run_cli(["sig", str(path)])
        assert code == 0 and out == congruence_text(fileio.grid_from_doc(json.loads(path.read_text())), 2)
        assert "entries_float" not in json.loads(out)

    @pytest.mark.parametrize("out", [False, True])
    def test_an_output_past_the_writers_digit_limit_exits_3(self, tmp_path, capsys, out):
        node = 7**3500  # 2958 digits: the level-1 entry is written, the level-2 entry (node^2 / 4) is not
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", str(node)]]]}))
        target = tmp_path / "out.json"
        flags = ["--out", str(target)] if out else []
        code, text = run_cli(["sig", str(grid), "--level", "1", *flags])
        assert code == 0 and capsys.readouterr().err == ""
        written = target.read_text() if out else text
        assert json.loads(written)["entries"] == [str(node)]
        target.unlink(missing_ok=True)
        code, text = run_cli(["sig", str(grid), "--level", "2", *flags])
        err = capsys.readouterr().err
        assert code == 3 and text == "" and not target.exists()
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and "4300 digits" in err

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_out_exits_2(self, tmp_path, single_cell_grid_file, capsys, target):
        path = tmp_path / target
        code, out = run_cli(["sig", single_cell_grid_file, "--level", "1", "--out", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize(
        "argv, fail, code",
        [
            (["sig", "GRID", "--level", "3"], False, 0),
            (["core", "--kind", "moment", "--m", "2", "--n", "3", "--level", "2", "--float"], False, 0),
            (["dim", "--d", "4", "--m", "2", "--n", "2", "--trials", "1"], False, 0),
            (["invariants", "--kind", "axis", "--m", "2", "--n", "3"], False, 0),
            (["check-relations", "--d", "2", "--m", "2", "--n", "1", "--samples", "5"], False, 0),
            (["check-relations", "--d", "2", "--m", "2", "--n", "1"], True, 4),
            (["decompose", "GRID"], False, 0),
        ],
        ids=["sig", "core", "dim", "invariants", "check-relations", "check-relations-fail", "decompose"],
    )
    def test_out_file_holds_the_stdout_bytes(self, monkeypatch, tmp_path, capsys, rng, argv, fail, code):
        from memsig.variety import RelationReport

        if fail:
            counterexample = Matrix.from_rows([[rat(1, 2), 0], [rat(-4, 6), 3]])
            report = RelationReport(2, 2, 1, 100, "fail", ("r",), counterexample, "boom")
            monkeypatch.setattr(cli, "relation_checks", lambda *args: report)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(grid_doc(random_integer_grid(2, 3, 2, rng))))
        argv = [str(grid) if a == "GRID" else a for a in argv]
        monkeypatch.setenv("MEMSIG_SEED", "5")
        stdout_code, stdout = run_cli(argv)
        target = tmp_path / "out.json"
        out_code, out = run_cli([*argv, "--out", str(target)])
        assert stdout_code == out_code == code and stdout and out == ""
        assert target.read_bytes() == stdout.encode("utf-8")
        capsys.readouterr()
        missing_code, out = run_cli([*argv, "--out", str(tmp_path / "missing" / "x.json")])
        err = capsys.readouterr().err
        assert missing_code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_input_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", "\xff"]]]}')
        code, out = run_cli(["sig", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"d": ' + "9" * 5000 + "}"],
        ids=["nested-too-deep", "int-past-digit-limit"],
    )
    def test_json_the_parser_refuses_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out = run_cli(["sig", str(path)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: ")

    def test_bench_grid_over_the_entry_budget_is_refused_before_any_draw(self, monkeypatch, capsys):
        from memsig import bench

        drawn = []
        monkeypatch.setattr(bench, "random_integer_grid", lambda *a, **k: drawn.append(a))
        monkeypatch.setattr(tensor, "MAX_ENTRIES", 2 * 3 * 3 - 1)  # the 2 x 3 x 3 nodes of a 2x2 grid
        code, out = run_cli(["bench", "--sizes", "1x1,2x2", "--methods", "fast"])
        err = capsys.readouterr().err
        assert code == 3 and out == "" and drawn == []
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "more than 17 entries" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--methods", "fast,fsat"], "unknown method 'fsat'"),
            (["--level", "3", "--methods", "congruence"], "level 2 only"),
            # a repeat would print duplicate CSV rows, and the exponent fit would read one of them
            (["--methods", "fast,congruence,fast"], "each size and each method may be given once"),
            (["--sizes", "1x1,2x2,1x1"], "each size and each method may be given once"),  # the last --sizes counts
        ],
    )
    def test_bench_bad_method_or_level_is_refused_before_any_draw(self, monkeypatch, capsys, argv, message):
        from memsig import bench

        drawn = []
        monkeypatch.setattr(bench, "random_integer_grid", lambda *a, **k: drawn.append(a))
        code, out = run_cli(["bench", "--sizes", "1x1,2x2", *argv])
        err = capsys.readouterr().err
        assert code == 3 and out == "" and drawn == []
        assert err.startswith("error: ") and len(err.splitlines()) == 1 and message in err

    def test_bench_zero_repeats_named_up_front(self, capsys):
        code, out = run_cli(["bench", "--sizes", "2x2", "--repeats", "0"])
        assert code == 3 and out == ""
        assert "repeat" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["dim", "--d", "0", "--m", "2", "--n", "2"],
            ["check-relations", "--d", "2", "--m", "2", "--n", "1", "--samples", "0"],
            ["check-relations", "--d", "4", "--m", "2", "--n", "2", "--samples", "-1"],
            ["check-relations", "--d", "0", "--m", "2", "--n", "1"],
            ["check-relations", "--d", "2", "--m", "0", "--n", "1"],
            ["check-relations", "--d", "2", "--m", "2", "--n", "0"],
            ["core", "--kind", "moment", "--m", "-1", "--n", "-1"],
            ["core", "--kind", "axis", "--m", "2", "--n", "2", "--level", "-1"],
            ["bench", "--sizes", "2x2", "--d", "0"],
            ["bench", "--sizes", "2x2", "--d", "-1"],
            ["bench", "--sizes", "0x0"],
            ["bench", "--sizes", "2x2,4x0"],
        ],
    )
    def test_arguments_that_measure_nothing_exit_3(self, capsys, args):
        code, out = run_cli(args)
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sig", "GRID", "--level"],
            ["core", "--kind", "axis", "--n", "1", "--m"],
            ["core", "--kind", "axis", "--m", "1", "--n"],
            ["core", "--kind", "axis", "--m", "1", "--n", "1", "--level"],
            ["dim", "--m", "1", "--n", "1", "--d"],
            ["dim", "--d", "2", "--n", "1", "--m"],
            ["dim", "--d", "2", "--m", "1", "--n"],
            ["dim", "--d", "2", "--m", "1", "--n", "1", "--level"],
            ["dim", "--d", "2", "--m", "1", "--n", "1", "--trials"],
            ["invariants", "--kind", "axis", "--n", "1", "--m"],
            ["invariants", "--kind", "axis", "--m", "1", "--n"],
            ["check-relations", "--m", "1", "--n", "1", "--d"],
            ["check-relations", "--d", "2", "--n", "1", "--m"],
            ["check-relations", "--d", "2", "--m", "1", "--n"],
            ["check-relations", "--d", "2", "--m", "1", "--n", "1", "--samples"],
            ["bench", "--sizes", "1x1", "--d"],
            ["bench", "--sizes", "1x1", "--level"],
            ["bench", "--sizes", "1x1", "--repeats"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[-1]}",
    )
    def test_an_integer_option_outside_the_ascii_grammar_exits_2(self, capsys, single_cell_grid_file, argv):
        # int() reads "1_0" as 10, "٢" (Arabic-Indic two) as 2 and " 2" as 2; the file reader refuses each
        for text in ["1_0", "٢", " 2", "2 ", "+-2", "2.0", "", "1" * 4301]:
            out = io.StringIO()
            with redirect_stdout(out), pytest.raises(SystemExit) as exc:
                cli.main([single_cell_grid_file if a == "GRID" else a for a in argv] + [text])
            assert exc.value.code == 2 and out.getvalue() == ""
            err = capsys.readouterr().err.splitlines()
            assert err[-1] == f"memsig {argv[0]}: error: argument {argv[-1]}: invalid int value: {text!r}"

    @pytest.mark.parametrize("text", ["+2", "02", "+002"])
    def test_a_signed_or_zero_padded_level_is_read_as_its_value(self, single_cell_grid_file, text):
        want = run_cli(["sig", single_cell_grid_file, "--level", "2"])
        assert run_cli(["sig", single_cell_grid_file, "--level", text]) == want and want[0] == 0

    @pytest.mark.parametrize("sizes", ["1_0x2", "٢x2", "2x 2", "2 x2", "2x2.0", "2x+-2", "2x"])
    def test_sizes_outside_the_ascii_grammar_exit_2(self, monkeypatch, capsys, sizes):
        from memsig import bench

        drawn = []
        monkeypatch.setattr(bench, "random_integer_grid", lambda *a, **k: drawn.append(a))
        code, out = run_cli(["bench", "--sizes", f"1x1,{sizes}", "--methods", "fast"])
        assert code == 2 and out == "" and drawn == []
        assert capsys.readouterr().err == f"error: --sizes entries look like MxN, got {sizes!r}\n"

    @pytest.mark.parametrize("seed", ["abc", "1.5", "", " 1_0", "1_0", "٢", " 1", "1 ", "+-1"])
    def test_a_non_integer_seed_exits_2(self, monkeypatch, capsys, seed):
        code, out = run_cli(["dim", "--d", "2", "--m", "1", "--n", "1"], {"MEMSIG_SEED": seed}, monkeypatch)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == f"error: MEMSIG_SEED must be an integer, got {seed!r}\n"

    @pytest.mark.parametrize("seed", ["+11", "011"])
    def test_a_signed_or_zero_padded_seed_is_read_as_its_value(self, monkeypatch, seed):
        argv = ["dim", "--d", "4", "--m", "2", "--n", "2", "--trials", "1"]
        want = run_cli(argv, {"MEMSIG_SEED": "11"}, monkeypatch)
        assert run_cli(argv, {"MEMSIG_SEED": seed}, monkeypatch) == want and want[0] == 0

    def test_seed_reproducibility(self, monkeypatch):
        _, out1 = run_cli(["dim", "--d", "4", "--m", "2", "--n", "2", "--trials", "1"], {"MEMSIG_SEED": "11"}, monkeypatch)
        _, out2 = run_cli(["dim", "--d", "4", "--m", "2", "--n", "2", "--trials", "1"], {"MEMSIG_SEED": "11"}, monkeypatch)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["measured_dim"] == 14 and doc["formula_dim"] == 14 and doc["agree"] is True


class TestSharedParser:
    """``main`` reads every call with the parser built at import or the specs read off it; no call leaks into the next."""

    def test_a_flag_of_one_call_is_unset_in_the_next(self, tmp_path, single_cell_grid_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["sig", single_cell_grid_file, "--float", "--out", str(a)]) == (0, "")
        assert run_cli(["sig", single_cell_grid_file, "--out", str(b)]) == (0, "")
        assert "entries_float" in json.loads(a.read_text())
        assert "entries_float" not in json.loads(b.read_text())

    def test_an_option_of_one_call_is_back_to_its_default_in_the_next(self):
        argv = ["dim", "--d", "2", "--m", "1", "--n", "1"]
        code, out = run_cli([*argv, "--trials", "5"])
        assert code == 0 and json.loads(out)["trials"] == 5
        code, out = run_cli(argv)
        assert code == 0 and json.loads(out)["trials"] == 3

    def test_a_refused_call_leaves_the_next_one_working(self, capsys, single_cell_grid_file):
        with redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
            cli.main(["sig", single_cell_grid_file, "--level", "two"])
        assert exc.value.code == 2
        assert "invalid int value: 'two'" in capsys.readouterr().err
        code, out = run_cli(["sig", single_cell_grid_file])
        assert code == 0 and json.loads(out)["level"] == 2

    def test_main_builds_no_parser(self, monkeypatch, single_cell_grid_file):
        def build_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr(cli, "build_parser", build_parser)
        code, out = run_cli(["sig", single_cell_grid_file, "--level", "1"])
        assert code == 0 and json.loads(out)["entries"] == ["2"]


# every option of every command, written out here rather than read off the parser, and options it does not have
_OPTIONS = [
    "--out", "--level", "--float", "--kind", "--m", "--n", "--d", "--trials", "--samples", "--sizes", "--methods",
    "--lev", "--flo", "--method", "-h", "--help", "--",
]
# values that some option reads, drawn twice as often as ones that start with "-" or fail a type or choice
_VALUES = st.one_of(
    *[st.sampled_from(["2", "3", "+2", "02", "axis", "moment", "fast", "2x2", "a b", ""])] * 2,
    st.sampled_from(["-1", "1_0", "x", "bad", "-", "--", "-h"]),
)
# each command's required options and positionals, and all its options, so that drawn calls often are plain
_CALLS = {
    "sig": ([["in.json"]], ["--out", "--level", "--float"]),
    "core": ([["--kind", "axis"], ["--m", "2"], ["--n", "2"]], ["--out", "--kind", "--m", "--n", "--level", "--float"]),
    "dim": ([["--d", "2"], ["--m", "1"], ["--n", "1"]], ["--out", "--d", "--m", "--n", "--level", "--trials", "--kind"]),
    "invariants": ([["--kind", "moment"], ["--m", "2"], ["--n", "2"]], ["--out", "--kind", "--m", "--n"]),
    "check-relations": ([["--d", "2"], ["--m", "2"], ["--n", "1"]], ["--out", "--d", "--m", "--n", "--samples"]),
    "bench": ([["--sizes", "2x2"]], ["--out", "--sizes", "--d", "--level", "--repeats", "--methods"]),
    "decompose": ([["in.json"]], ["--out"]),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from([*_CALLS, "signature", "-h", ""]))
    required, own = _CALLS.get(command, ([], []))
    option = st.one_of(*[st.sampled_from(own)] * 2, st.sampled_from(_OPTIONS)) if own else st.sampled_from(_OPTIONS)
    chunk = st.one_of(
        *[st.tuples(option, _VALUES).map(list)] * 2,
        st.tuples(option, _VALUES).map(lambda ov: ["=".join(ov)]),
        st.one_of(option, _VALUES).map(lambda token: [token]),
    )
    chunks = draw(st.lists(chunk, max_size=3))
    if draw(st.integers(0, 3)):
        chunks += required
    return [command, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


class TestPlainReader:
    """``cli.read_plain`` takes the plain forms of a call and leaves every other argv to argparse."""

    @given(command_lines())
    @settings(max_examples=600)
    def test_every_call_the_reader_takes_parses_the_same_in_argparse(self, argv):
        args = cli.read_plain(argv)
        if args is not None:
            assert cli.PARSER.parse_args(argv) == args

    @given(st.sampled_from(sorted(_CALLS)), st.data())
    @settings(max_examples=300)
    def test_a_repeated_option_reads_as_in_argparse(self, command, data):
        # argparse converts and checks each occurrence where it occurs, so a bad first value is refused
        # even when a good one follows, and of two good values the last wins
        required, own = _CALLS[command]
        option = data.draw(st.sampled_from([o for o in own if o != "--float"]))
        pool = {"--kind": ["axis", "moment", "bad"], "--out": ["o.json", "", "-"], "--sizes": ["2x2", "x"]}
        values = st.sampled_from(pool.get(option, ["2", "3", "4", "-1", "1_0", "x"]))
        chunks = [*required, [option, data.draw(values)], [option, data.draw(values)]]
        argv = [command, *(token for chunk in data.draw(st.permutations(chunks)) for token in chunk)]
        args = cli.read_plain(argv)
        if args is not None:
            assert cli.PARSER.parse_args(argv) == args

    @pytest.mark.parametrize(
        "argv",
        [
            ["sig", "in.json"],
            ["sig", "in.json", "--level=3", "--out=o.json", "--float"],
            ["sig", "--level", "1", "in.json", "--level", "3", "--float", "--float"],
            ["sig", "", "--out", ""],
            ["sig", "in.json", "--out="],
            ["sig", "in.json", "--out=a=b"],
            ["decompose", "a b.json", "--out", "o.json"],
            ["core", "--m", "+2", "--n", "02", "--kind", "moment", "--level", "0"],
            ["dim", "--d", "2", "--m", "1", "--n", "1", "--level", "3", "--level=2", "--kind=moment", "--trials", "1"],
            ["invariants", "--kind", "axis", "--m", "2", "--n", "2"],
            ["check-relations", "--d", "2", "--m", "2", "--n", "1", "--samples", "5"],
            ["bench", "--sizes", "2x2,3x3", "--methods", "fast", "--repeats", "1", "--d", "1"],
        ],
    )
    def test_plain_forms_are_read_as_argparse_reads_them(self, argv):
        args = cli.read_plain(argv)
        assert args is not None and args == cli.PARSER.parse_args(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["signature", "in.json"],  # an unknown command
            ["--help"],
            ["sig", "-h"],
            ["sig", "in.json", "--help"],
            ["sig", "in.json", "--lev", "3"],  # an abbreviation, which argparse reads as --level
            ["sig", "in.json", "--float=1"],  # a flag given a value
            ["sig", "in.json", "--method", "fast"],  # an unknown option
            ["sig", "in.json", "--level", "-1"],  # a value starting with "-", which argparse reads as -1
            ["sig", "in.json", "--out", "-"],
            ["sig", "in.json", "--level"],  # a missing value
            ["sig", "--", "in.json"],
            ["sig", "-"],  # a positional starting with "-"
            ["sig", "--level 3"],  # a token holding a space, which argparse reads as the input
            ["sig"],  # a missing positional
            ["decompose", "a.json", "b.json"],  # an extra positional
            ["core", "--kind", "axis", "--m", "2"],  # a missing required option
            ["sig", "in.json", "--level", "1_0"],  # a value outside the type's grammar
            ["sig", "in.json", "--level="],
            ["dim", "--d", "2", "--m", "1", "--n", "1", "--level", "4"],  # a value outside the choices
            # a choice is checked where it occurs: a later valid --kind does not mend an earlier bad one
            ["invariants", "--kind", "bad", "--kind", "axis", "--m", "2", "--n", "2"],
            ["dim", "--d", "2", "--m", "1", "--n", "1", "--level", "4", "--level", "2"],
        ],
    )
    def test_everything_else_falls_back_to_argparse(self, argv):
        assert cli.read_plain(argv) is None

    @pytest.mark.parametrize(
        "argv",
        [["invariants", "--kind", "bad", "--kind", "axis", "--m", "2", "--n", "2"], ["sig", "in.json", "--float=1"]],
    )
    def test_argparse_refuses_what_the_reader_leaves_to_it(self, capsys, argv):
        with redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: memsig ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sig", "GRID", "--lev", "1"],
            ["sig", "--level", "1", "--", "GRID"],
            ["sig", "GRID", "--level", "-1", "--level=1"],
        ],
    )
    def test_argparse_reads_what_the_reader_leaves_to_it(self, single_cell_grid_file, argv):
        code, out = run_cli([single_cell_grid_file if a == "GRID" else a for a in argv])
        assert code == 0 and json.loads(out)["entries"] == ["2"]

    def test_a_plain_call_never_reaches_argparse(self, monkeypatch, tmp_path, single_cell_grid_file):
        def parse_args(argv=None):
            raise AssertionError("argparse parsed a plain call")

        monkeypatch.setattr(cli.PARSER, "parse_args", parse_args)
        sig_out, decompose_out = tmp_path / "sig.json", tmp_path / "decompose.json"
        calls = [
            ["sig", single_cell_grid_file, "--level=1", f"--out={sig_out}"],
            ["sig", single_cell_grid_file, "--level", "1", "--float"],
            ["decompose", single_cell_grid_file, "--out", str(decompose_out)],
            ["core", "--kind", "axis", "--m", "1", "--n", "1", "--level", "1"],
            ["invariants", "--kind", "axis", "--m", "1", "--n", "1"],
            ["dim", "--d", "2", "--m", "1", "--n", "1", "--trials", "1"],
            ["check-relations", "--d", "2", "--m", "2", "--n", "1", "--samples", "1"],
            ["bench", "--sizes", "1x1", "--repeats", "1", "--methods", "fast"],
        ]
        for argv in calls:
            assert run_cli(argv)[0] == 0, argv
        assert json.loads(sig_out.read_text())["entries"] == ["2"]
        assert json.loads(decompose_out.read_text())["entries"] == ["2"]


def test_importing_the_cli_leaves_bench_unimported():
    """``bench`` and its ``statistics`` import load with the bench command only, not with ``memsig.cli``."""
    code = (
        "import io, sys, contextlib\n"
        "from memsig import cli\n"
        "print(sorted(m for m in ('memsig.bench', 'statistics') if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = cli.main(['bench', '--sizes', '2x2', '--repeats', '1'])\n"
        "print(rc, 'memsig.bench' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "0 True"]


# --------------------------------------------------------------------------
# fuzz: malformed documents and output paths never escape as a traceback

_RATIONALS = st.sampled_from(["0", "-3", "1/2", "+7/3", "-4/6", "12"])
_BAD_VALUES = st.one_of(
    st.sampled_from(["1/0", "x", "", "1.5", "٣", "3/-4"]), st.integers(-2, 2), st.none(), st.just(["1"])
)
_MISSING = object()
_BAD_SIZES = st.sampled_from([-1, 0, 4, True, "2", 1.5, None, _MISSING])
_INDICES = st.one_of(st.integers(-1, 4), st.sampled_from([True, "1", None]))


def _with_fault(draw, doc: dict, nested: list) -> dict:
    """Leave ``doc`` as it is, or give it one fault: a size, a length or a value."""
    fault = draw(st.sampled_from(["none", "size", "length", "value"]))
    if fault == "size":
        key, size = draw(st.sampled_from(["d", "m", "n"])), draw(_BAD_SIZES)
        if size is _MISSING:
            del doc[key]
        else:
            doc[key] = size
    elif fault == "length" and nested:
        part = draw(st.sampled_from(nested))
        part.append(part[-1]) if draw(st.booleans()) else part.pop()
    elif fault == "value" and nested and nested[-1]:
        nested[-1][draw(st.integers(0, len(nested[-1]) - 1))] = draw(_BAD_VALUES)
    return doc


@st.composite
def grid_like_docs(draw):
    d, m, n = (draw(st.integers(1, 3)) for _ in range(3))
    values = [[[draw(_RATIONALS) for _ in range(n + 1)] for _ in range(m + 1)] for _ in range(d)]
    doc = {"d": d, "m": m, "n": n, "values": values}
    return _with_fault(draw, doc, [values, values[0], values[0][0]])


@st.composite
def polynomial_like_docs(draw):
    d, m, n = (draw(st.integers(1, 3)) for _ in range(3))
    doc = {"kind": "polynomial", "d": d, "m": m, "n": n}
    if draw(st.booleans()):
        doc["A"] = [[draw(_RATIONALS) for _ in range(m * n)] for _ in range(d)]
        return _with_fault(draw, doc, [doc["A"], doc["A"][0]])
    term = st.tuples(_INDICES, _INDICES, _INDICES, st.one_of(_RATIONALS, _BAD_VALUES)).map(list)
    doc["terms"] = draw(st.lists(st.one_of(term, term, _BAD_VALUES), max_size=4))
    return _with_fault(draw, doc, [])


_DOC_BYTES = st.one_of(
    grid_like_docs().map(lambda doc: json.dumps(doc).encode()),
    polynomial_like_docs().map(lambda doc: json.dumps(doc).encode()),
    st.binary(max_size=40),
    st.sampled_from([b"[]", b"{", b'"x"', b"{}", b'{"values": 1}', b"\xff\xfe{}"]),
)

_COMMANDS = [
    ["sig", "--level", "2"],
    ["sig", "--level", "0"],
    ["sig", "--level", "-1"],
    ["sig", "--level", "3"],
    ["sig", "--float"],
    ["decompose"],
]


class TestCliFuzz:
    @given(
        _DOC_BYTES,
        st.sampled_from(_COMMANDS),
        st.sampled_from([None, "out.json", "missing/out.json", ".", ""]),
    )
    @settings(max_examples=300)
    def test_exit_code_and_no_traceback(self, text, command, out):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.json"
            path.write_bytes(text)
            argv = [command[0], str(path), *command[1:]]
            if out is not None:
                argv += ["--out", str(Path(tmp) / out) if out else out]
            err = io.StringIO()
            with redirect_stderr(err):
                code, written = run_cli(argv)
            if code == 0 and command[0] == "sig" and not out:
                # a grid takes the fast route, so its output must equal the congruence route's
                level = int(command[command.index("--level") + 1]) if "--level" in command else 2
                spec = fileio.membrane_from_doc(fileio.load_json_file(str(path)))
                assert written == congruence_text(spec, level, "--float" in command)
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().startswith("error: ")
