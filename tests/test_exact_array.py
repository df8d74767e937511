"""The one stored form of Matrix, SigTensor and GridData: ints over one denominator."""

import sys
from dataclasses import FrozenInstanceError
from math import lcm, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import grid_values, matrices, rationals
from memsig import fileio, membranes, rational
from memsig.bench import congruence_matrix_quadratic
from memsig.fastsig import sig_tensor_fast
from memsig.linalg import (
    Matrix,
    cosquare,
    det,
    kron,
    pm1_jordan_structure,
    rank,
    solve,
    sym_skew_split,
)
from memsig.membranes import (
    GridData,
    bilinear_decompose,
    core_matrix,
    core_tensor,
    reduce_grid,
    sig_via_congruence,
)
from memsig.rational import Rat, rat
from memsig.tensor import SigTensor, tucker_apply
from memsig.variety import tucker_jacobian_rank

NONZERO = st.integers(-50, 50).filter(bool)


@st.composite
def tensor_args(st_draw, max_dim=3, max_level=3):
    """(level, dim, entries) with d^k rational entries."""
    dim = st_draw(st.integers(1, max_dim))
    level = st_draw(st.integers(0, max_level))
    return level, dim, st_draw(st.lists(rationals(), min_size=dim**level, max_size=dim**level))


@st.composite
def matrix_args(st_draw, max_size=4):
    """(rows, cols, entries), empty shapes included."""
    rows, cols = st_draw(st.integers(0, max_size)), st_draw(st.integers(0, max_size))
    return rows, cols, st_draw(st.lists(rationals(), min_size=rows * cols, max_size=rows * cols))


def tensors():
    return tensor_args().map(lambda args: SigTensor(*args))


def assert_stored_form(x, values, shape):
    """entries round-trip, den is the lcm of the reduced denominators, ints = den * values."""
    assert x.entries == tuple(values)
    assert x.den == lcm(*(v.denominator for v in values))
    assert x.ints.shape == shape
    assert all(type(v) is int for v in x.ints.flat)
    assert [v * x.den for v in values] == list(x.ints.flat)


class TestStoredForm:
    @given(matrix_args())
    def test_matrix_round_trips(self, args):
        rows, cols, values = args
        assert_stored_form(Matrix(rows, cols, values), values, (rows, cols))

    @given(tensor_args())
    def test_tensor_round_trips(self, args):
        level, dim, values = args
        assert_stored_form(SigTensor(level, dim, values), values, (dim,) * level)

    @given(st.one_of(matrices(), tensors(), grid_values().map(lambda a: GridData(*a))), NONZERO)
    def test_scaled_form_is_reduced_to_the_constructed_one(self, x, k):
        fields = {"dim": x.dim} if isinstance(x, SigTensor) else {}
        y = type(x).of(x.ints * k, x.den * k, **fields)
        assert y == x and hash(y) == hash(x)
        assert y.den == x.den and y.ints.tolist() == x.ints.tolist()

    @pytest.mark.parametrize(
        "x, field",
        [(Matrix(1, 2, (rat(1, 2), 3)), "rows"), (SigTensor(1, 2, (rat(1, 3), 1)), "den")],
    )
    def test_read_only(self, x, field):
        with pytest.raises(ValueError):
            x.ints[0] = 7
        with pytest.raises(FrozenInstanceError):
            setattr(x, field, 2)

    def test_level_zero_dimension_is_part_of_the_value(self):
        assert SigTensor(0, 2, (1,)) != SigTensor(0, 3, (1,))
        assert SigTensor(0, 2, (1,)) == SigTensor.of(np.asarray(5, dtype=object), 5, dim=2)

    def test_the_shape_is_read_off_ints(self):
        a = Matrix.of(np.zeros((2, 3), dtype=object), 1)
        grid = GridData.of(np.zeros((3, 2, 5), dtype=object), 1)
        t = SigTensor.of(np.zeros((2, 2, 2), dtype=object), 1)
        assert (a.rows, a.cols, grid.d, grid.m, grid.n, t.level, t.dim) == (2, 3, 3, 1, 4, 3, 2)
        with pytest.raises(TypeError):
            Matrix.of(np.zeros((2, 3), dtype=object), 1, rows=5)

    @pytest.mark.parametrize("shape, dim", [((2, 2), 3), ((2, 3), None), ((3, 2), 3), ((), None), ((), 0), ((0,), None)])
    def test_a_tensor_whose_axes_are_not_its_dim_is_refused(self, shape, dim):
        with pytest.raises(ValueError, match="no tensor over dimension"):
            SigTensor.of(np.zeros(shape, dtype=object), 1, dim)

    def test_a_cleared_tensor_reads_its_dim_off_the_axes(self):
        t = SigTensor.cleared([1, 2], (2,))
        assert t == SigTensor(1, 2, [1, 2]) and t.dim == 2
        with pytest.raises(ValueError, match="no tensor over dimension"):
            SigTensor.cleared([1], ())
        with pytest.raises(ValueError, match="no tensor over dimension"):
            SigTensor.cleared([0] * 6, (2, 3))

    @pytest.mark.parametrize("level, dim", [(-1, 2), (0, 0), (2, 0), (1, -1)])
    def test_the_constructor_refuses_a_negative_level_or_a_dim_below_1(self, level, dim):
        # the constructor's shape is (dim,) * level, so only these reach no tensor
        with pytest.raises(ValueError, match="need level >= 0 and dim >= 1"):
            SigTensor(level, dim, [0] * max(dim, 1) ** max(level, 0))

    @pytest.mark.parametrize(
        "cls, shape",
        [(Matrix, (3,)), (Matrix, ()), (Matrix, (2, 2, 1)),
         (GridData, (2, 1, 3)), (GridData, (2, 3, 1)), (GridData, (0, 2, 2)), (GridData, (2, 3))],
    )
    def test_an_array_its_class_cannot_hold_is_refused(self, cls, shape):
        for den in (1, 2):
            with pytest.raises(ValueError, match="needs axes at least"):
                cls.of(np.zeros(shape, dtype=object), den)
        with pytest.raises(ValueError, match="needs axes at least"):
            cls.cleared([0] * prod(shape), shape)

    @pytest.mark.parametrize("bad", [0.5, "1/2"])
    def test_inexact_or_text_entry_rejected(self, bad):
        with pytest.raises(TypeError):
            Matrix(1, 2, (1, bad))
        with pytest.raises(TypeError):
            SigTensor(1, 2, (bad, 1))


class TestOfReducer:
    """``of`` takes one gcd reduction on an int64 view and an elementwise gcd on Python ints."""

    SHAPES = [(), (0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (2, 3)]
    EDGES = [2**62 - 1, 2**62, 2**62 + 1]

    def draw(self, rng):
        shape = rng.choice(self.SHAPES)
        den = rng.choice([rng.randint(1, 10**6), 2**rng.randint(0, 61) * rng.randint(1, 3)] + self.EDGES)
        den *= rng.choice([1, -1])
        factor = rng.choice([1, abs(den) // rng.choice([1, 2, 3, 5, 7, 64])]) or 1
        pool = [0, factor * rng.randint(-9, 9), rng.randint(-(10**12), 10**12), rng.choice([1, -1]) * rng.choice(self.EDGES)]
        kind = rng.choice(["zero", "mixed", "multiples"])
        draw = {"zero": lambda: 0, "mixed": lambda: rng.choice(pool), "multiples": lambda: factor * rng.randint(-5, 5)}[kind]
        xs = [draw() for _ in range(prod(shape))]
        fits = all(-(2**63) <= x < 2**63 for x in xs)
        return np.array(xs, dtype=np.int64 if fits and rng.random() < 0.8 else object).reshape(shape), den

    @staticmethod
    def build(ints, den):
        if ints.ndim == 0:
            return SigTensor.of(ints, den, dim=1)
        return Matrix.of(ints, den)

    def test_equals_the_elementwise_route_and_the_fraction_oracle(self, monkeypatch, rng):
        def object_view(ints, den):
            return ints.astype(object)

        routes = {"int64": 0, "object": 0}
        for _ in range(3000):
            ints, den = self.draw(rng)
            got = self.build(ints, den)
            values = [rat(int(x), den) for x in ints.flat]
            canon = lcm(*(v.denominator for v in values)) if values else 1
            assert got.den == canon and got.ints.dtype == object
            assert got.ints.shape == ints.shape and got.ints.tolist() == (
                np.array([v * canon for v in values], dtype=object).reshape(ints.shape).tolist()
            )
            routes["int64" if rational.int_view(ints, den).dtype == np.int64 else "object"] += 1
            with monkeypatch.context() as patch:
                patch.setattr(rational, "int_view", object_view)
                elementwise = self.build(ints, den)
            assert elementwise == got and elementwise.den == got.den
        assert min(routes.values()) > 500

    @pytest.mark.parametrize("den", [-7, -(2**62 - 1), -1, 1])
    @pytest.mark.parametrize("shape", [(), (0, 0), (2, 0)])
    def test_empty_zero_and_negative_den(self, den, shape):
        got = self.build(np.zeros(shape, dtype=np.int64), den)
        assert got.den == 1 and got.ints.shape == shape and not got.ints.any()


def test_kernels_clear_nothing(monkeypatch, rng):
    """Inputs are built first; then no listed kernel may call cleared_array."""
    a = Matrix(2, 3, (rat(1, 2), -3, rat(2, 7), 0, 5, rat(-4, 9)))
    sq = Matrix(3, 3, (2, rat(1, 3), 0, rat(-1, 2), 1, 4, 3, 0, rat(5, 6)))
    values = [rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2 * 4 * 3)]
    grid = GridData(2, 3, 2, np.array(values, dtype=object).reshape(2, 4, 3))
    core = core_tensor("moment", 3, 1, 3)
    base = Matrix(2, 3, (1, -2, 3, 4, 0, -1))
    axis = core_matrix("axis", 2, 2)
    cosq = cosquare(axis)
    kernels = [
        lambda: a @ sq,
        lambda: a.transpose(),
        lambda: kron(a, sq),
        lambda: sym_skew_split(sq),
        lambda: solve(sq, a.transpose()),
        lambda: det(sq),
        lambda: rank(a),
        lambda: pm1_jordan_structure(cosq),
        lambda: tucker_apply(core, a),
        lambda: tucker_jacobian_rank(core, base),
        lambda: core_tensor("moment", 3, 1, 3),
        lambda: core_tensor("axis", 2, 2, 0),
        lambda: reduce_grid(grid),
        lambda: bilinear_decompose(grid),
        lambda: sig_tensor_fast(grid, 3),
        lambda: congruence_matrix_quadratic(grid),
    ]
    expected = [kernel() for kernel in kernels]

    def no_clearing(*args):
        raise AssertionError("a kernel cleared denominators")

    for name, module in list(sys.modules.items()):
        if name == "memsig" or name.startswith("memsig."):
            monkeypatch.setattr(module, "cleared_array", no_clearing, raising=False)
    with pytest.raises(AssertionError, match="cleared"):
        Matrix(1, 1, (rat(1, 2),))  # constructors still clear
    assert [kernel() for kernel in kernels] == expected


class TestGridDtype:
    """A grid's nodes are int64 exactly when every |node| < 2^61, on every route; readers see Python ints."""

    EDGES = [2**61 - 1, -(2**61 - 1), 2**61, -(2**61)]

    @staticmethod
    def routes(top):
        """The d=1 1x1 grid of three zero nodes and ``top`` (den 1), built by every constructor."""
        values = [[[0, 0], [0, top]]]
        flat = [0, 0, 0, top]
        return {
            "init": GridData(1, 1, 1, values),
            "cleared": GridData.cleared(flat, (1, 2, 2)),
            "of object": GridData.of(np.array(flat, dtype=object).reshape(1, 2, 2), 1),
            "of int64": GridData.of(np.array(flat, dtype=np.int64).reshape(1, 2, 2), 1),
            "of reduced": GridData.of(np.array([0, 0, 0, 6 * top], dtype=object).reshape(1, 2, 2), 6),
            "reduce_grid": reduce_grid(GridData(1, 1, 1, values)),
            "per-leaf reader": fileio.grid_from_doc({"d": 1, "m": 1, "n": 1, "values": [[["0", "0"], ["0", str(top)]]]}),
        }

    @pytest.mark.parametrize("top", EDGES)
    def test_the_rule_on_every_constructor(self, top):
        want = np.int64 if abs(top) < 2**61 else object
        for route, grid in self.routes(top).items():
            assert grid.ints.dtype == want, route
            assert grid.den == 1 and grid.ints.ravel().tolist() == [0, 0, 0, top], route

    # 2^61 - 1 is prime, so no text of 18-digit literals clears to it: 2^61 - 2 is the largest such node below 2^61
    @pytest.mark.parametrize("top, q", [(2**61 - 2, 2 * 1321 * 331), (2**61, 2**20)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_rule_on_the_bulk_reader(self, monkeypatch, top, q, sign):
        # the leaves top/q (an integer) and "1/q" have at most 18 digits, so the int64 bulk route reads them; den = q
        values = [[["0", str(sign * top // q)], ["1/" + str(q), "0"]]]
        monkeypatch.setattr(fileio, "parse_rational", lambda *args: pytest.fail("the per-leaf route ran"))
        grid = fileio.grid_from_doc({"d": 1, "m": 1, "n": 1, "values": values})
        assert grid.den == q and grid.ints.ravel().tolist() == [0, sign * top, 1, 0]
        assert grid.ints.dtype == (np.int64 if top < 2**61 else object)

    def test_equal_grids_in_either_dtype_compare_and_hash_equal(self, monkeypatch):
        values = [[[rat(1, 2), -3], [rat(2**61 - 1, 6), rat(-5, 6)]], [[0, 7], [rat(1, 3), 1]]]  # den 6
        wide = GridData(2, 1, 1, values)
        with monkeypatch.context() as patch:
            patch.setattr(GridData, "_int64_below", 0)
            narrow = GridData(2, 1, 1, values)
        assert wide.ints.dtype == np.int64 and narrow.ints.dtype == object
        assert wide == narrow and hash(wide) == hash(narrow) and len({wide, narrow}) == 1
        assert wide != GridData(2, 1, 1, [*values[:1], [[0, 7], [rat(1, 3), 2]]])

    def test_entries_and_values_hold_python_ints(self):
        grid = GridData(1, 1, 2, [[[rat(1, 2), -3, rat(2**61 - 1, 6)], [0, rat(7, 3), 5]]])  # den 6
        assert grid.ints.dtype == np.int64
        values = [x for comp in grid.values for row in comp for x in row]
        for x in (*grid.entries, *values):
            assert type(x) is Rat and type(x.numerator) is int and type(x.denominator) is int
        assert values == list(grid.entries) and grid.ints[0, 0, 2] == 2**61 - 1

    @pytest.mark.parametrize("top", [2**61 - 1, 12345])
    def test_cell_derivatives_in_int64_equal_the_object_route(self, monkeypatch, top):
        # nodes +-top alternating in a and b: every cell difference is +-4 top, 4 (2^61 - 1) at the bound
        d, m, n = 2, 3, 2
        values = [[[(-1) ** (a + b + i) * top for b in range(n + 1)] for a in range(m + 1)] for i in range(d)]
        grid = GridData(d, m, n, values)
        with monkeypatch.context() as patch:
            patch.setattr(GridData, "_int64_below", 0)
            oracle = GridData(d, m, n, values)
        delta, den = membranes.cell_derivatives(grid)
        want, want_den = membranes.cell_derivatives(oracle)
        assert grid.ints.dtype == delta.dtype == np.int64 and want.dtype == object
        assert den == want_den == 1 and delta.tolist() == want.tolist()
        assert int(np.abs(delta).max()) == 4 * top
        assert sig_tensor_fast(grid, 2) == sig_tensor_fast(oracle, 2) == sig_via_congruence(oracle, 2)
        assert reduce_grid(grid) == reduce_grid(oracle)
