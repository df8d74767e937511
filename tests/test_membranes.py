from dataclasses import FrozenInstanceError
from itertools import product
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import grid_values, matrices
from memsig import membranes, rational, tensor
from memsig.fastsig import sig_tensor_fast
from memsig.fileio import parse_rational
from memsig.linalg import Matrix, kron
from memsig.membranes import (
    GridData,
    PolynomialMembrane,
    axis_grid,
    bilinear_decompose,
    core_matrix,
    core_tensor,
    nu,
    nu_inv,
    product_sig_entry,
    reduce_grid,
    sig_via_congruence,
)
from memsig.paths import (
    axis_path_core,
    axis_path_pieces,
    axis_path_sig_entry,
    linear_path_sig,
    moment_path_core,
    moment_path_poly,
    moment_path_sig_entry,
    poly_path_sig_oracle,
    pw_poly_path_sig_oracle,
)
from memsig.rational import rat
from memsig.tensor import SigTensor, tucker_apply, words_iter

A_EXAMPLE = Matrix.from_rows([[1, -1, 1, 1], [1, 1, 0, -1]])

MOM22_STRINGS = [
    "1/4", "1/3", "1/3", "4/9",
    "1/6", "1/4", "2/9", "1/3",
    "1/6", "2/9", "1/4", "1/3",
    "1/9", "1/6", "1/6", "1/4",
]

# level-3 moment core of order (2, 2) as displayed: 4 rows indexed by the
# first letter; within a row, columns group by the THIRD letter (blocks of 4)
# with the second letter varying inside a block.
MOM22_LEVEL3_ROWS = [
    ["1/36", "1/36", "1/36", "1/36", "1/24", "2/45", "1/24", "2/45",
     "1/24", "1/24", "2/45", "2/45", "1/16", "1/15", "1/15", "16/225"],
    ["1/72", "1/60", "1/72", "1/60", "1/45", "1/36", "1/45", "1/36",
     "1/48", "1/40", "1/45", "2/75", "1/30", "1/24", "8/225", "2/45"],
    ["1/72", "1/72", "1/60", "1/60", "1/48", "1/45", "1/40", "2/75",
     "1/45", "1/45", "1/36", "1/36", "1/30", "8/225", "1/24", "2/45"],
    ["1/144", "1/120", "1/120", "1/100", "1/90", "1/72", "1/75", "1/60",
     "1/90", "1/75", "1/72", "1/60", "4/225", "1/45", "1/45", "1/36"],
]

# printed closed-form entries of S(X) for X = A Mom^{2,2} in d = 2:
# quadratic coefficient tables over the rows x = a_{1,*}, y = a_{2,*}.
S11_TERMS = [
    ("x1 x1", "1/4"), ("x1 x2", "1/2"), ("x1 x3", "1/2"), ("x1 x4", "5/9"),
    ("x2 x2", "1/4"), ("x2 x3", "4/9"), ("x2 x4", "1/2"),
    ("x3 x3", "1/4"), ("x3 x4", "1/2"), ("x4 x4", "1/4"),
]
S21_TERMS = [
    ("x1 y1", "1/4"), ("x1 y2", "1/6"), ("x1 y3", "1/6"), ("x1 y4", "1/9"),
    ("y1 x2", "1/3"), ("y1 x3", "1/3"), ("y1 x4", "4/9"),
    ("x2 y2", "1/4"), ("x2 y3", "2/9"), ("x2 y4", "1/6"),
    ("y2 x3", "2/9"), ("y2 x4", "1/3"),
    ("x3 y3", "1/4"), ("x3 y4", "1/6"), ("y3 x4", "1/3"), ("x4 y4", "1/4"),
]
S12_TERMS = [
    ("x1 y1", "1/4"), ("x1 y2", "1/3"), ("x1 y3", "1/3"), ("x1 y4", "4/9"),
    ("y1 x2", "1/6"), ("y1 x3", "1/6"), ("y1 x4", "1/9"),
    ("x2 y2", "1/4"), ("x2 y3", "2/9"), ("x2 y4", "1/3"),
    ("y2 x3", "2/9"), ("y2 x4", "1/6"),
    ("x3 y3", "1/4"), ("x3 y4", "1/3"), ("y3 x4", "1/6"), ("x4 y4", "1/4"),
]
S22_TERMS = [
    ("y1 y1", "1/4"), ("y1 y2", "1/2"), ("y1 y3", "1/2"), ("y1 y4", "5/9"),
    ("y2 y2", "1/4"), ("y2 y3", "4/9"), ("y2 y4", "1/2"),
    ("y3 y3", "1/4"), ("y3 y4", "1/2"), ("y4 y4", "1/4"),
]
SIGMA3_111_TERMS = [
    ("x1 x1 x1", "1/36"), ("x1 x1 x2", "1/12"), ("x1 x1 x3", "1/12"),
    ("x1 x1 x4", "7/72"), ("x1 x2 x2", "1/12"), ("x1 x2 x3", "11/72"),
    ("x1 x2 x4", "13/72"), ("x1 x3 x3", "1/12"), ("x1 x3 x4", "13/72"),
    ("x1 x4 x4", "89/900"), ("x2 x2 x2", "1/36"), ("x2 x2 x3", "5/72"),
    ("x2 x2 x4", "1/12"), ("x2 x3 x3", "5/72"), ("x2 x3 x4", "34/225"),
    ("x2 x4 x4", "1/12"), ("x3 x3 x3", "1/36"), ("x3 x3 x4", "1/12"),
    ("x3 x4 x4", "1/12"), ("x4 x4 x4", "1/36"),
]


def eval_terms(terms, a: Matrix):
    env = {f"x{i + 1}": a.at(0, i) for i in range(a.cols)}
    if a.rows > 1:
        env.update({f"y{i + 1}": a.at(1, i) for i in range(a.cols)})
    total = rat(0)
    for monomial, coeff in terms:
        value = parse_rational(coeff, monomial)
        for var in monomial.split():
            value *= env[var]
        total += value
    return total


def rational_grid(rng, d, m, n):
    return GridData(
        d,
        m,
        n,
        tuple(
            tuple(
                tuple(rat(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n + 1))
                for _ in range(m + 1)
            )
            for _ in range(d)
        ),
    )


class TestProductSigEntry:
    def test_moment_pair(self):
        e = moment_path_sig_entry
        assert product_sig_entry(e, e, (((1, 1)), (2, 2))) == rat(4, 9)

    def test_empty(self):
        e = moment_path_sig_entry
        assert product_sig_entry(e, e, ()) == 1

    def test_level3_first_entry(self):
        e = moment_path_sig_entry
        assert product_sig_entry(e, e, ((1, 1), (1, 1), (1, 1))) == rat(1, 36)


class TestCoreTensors:
    def test_moment_22_level2_displayed(self):
        assert core_matrix("moment", 2, 2).entries == tuple(parse_rational(s, "MOM22") for s in MOM22_STRINGS)

    def test_axis_level2_case_analysis(self):
        for m, n in [(2, 2), (3, 2), (3, 4)]:
            t = core_tensor("axis", m, n, 2)
            for x, y in words_iter(m * n, 2):
                i1, j1 = nu_inv(x, n)
                i2, j2 = nu_inv(y, n)
                if i1 < i2 and j1 < j2:
                    expected = rat(1)
                elif (i1 == i2 and j1 < j2) or (i1 < i2 and j1 == j2):
                    expected = rat(1, 2)
                elif i1 == i2 and j1 == j2:
                    expected = rat(1, 4)
                else:
                    expected = rat(0)
                assert t.get((x, y)) == expected

    def test_moment_22_level3_displayed(self):
        t = core_tensor("moment", 2, 2, 3)
        for i1 in range(1, 5):
            row = MOM22_LEVEL3_ROWS[i1 - 1]
            for i2 in range(1, 5):
                for i3 in range(1, 5):
                    expected = parse_rational(row[4 * (i3 - 1) + (i2 - 1)], "MOM22")
                    assert t.get((i1, i2, i3)) == expected, (i1, i2, i3)

    def test_level3_spot_value(self):
        t = core_tensor("moment", 2, 2, 3)
        assert t.get((nu(2, 2, 2), nu(1, 1, 2), nu(1, 1, 2))) == rat(1, 144)

    def test_level2_kron_factorization(self):
        for m, n in product(range(1, 6), repeat=2):
            for kind, path_core in (("moment", moment_path_core), ("axis", axis_path_core)):
                expected = kron(path_core(m, 2).to_matrix(), path_core(n, 2).to_matrix())
                assert core_matrix(kind, m, n) == expected

    def test_level0(self):
        assert core_tensor("axis", 2, 3, 0).entries == (rat(1),)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            core_tensor("fourier", 2, 2, 2)

    def test_built_without_product_sig_entry(self, monkeypatch):
        expected = [core_tensor("moment", 2, 3, 3), core_tensor("axis", 3, 2, 2)]

        def refuse(*args):
            raise AssertionError("core_tensor called product_sig_entry")

        monkeypatch.setattr(membranes, "product_sig_entry", refuse)
        assert [core_tensor("moment", 2, 3, 3), core_tensor("axis", 3, 2, 2)] == expected

    def test_oversized_core_is_refused_before_any_path_core(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a path core was built")

        monkeypatch.setattr(tensor, "MAX_ENTRIES", 100)
        monkeypatch.setattr(membranes, "moment_path_core", refuse)
        monkeypatch.setattr(membranes, "axis_path_core", refuse)
        for kind in ("moment", "axis"):
            with pytest.raises(ValueError, match="more than 100 entries"):
                core_tensor(kind, 4, 3, 2)


class TestCoreOracle:
    SIZES = [*product(range(1, 4), repeat=2), (1, 4), (4, 1)]

    def test_cores_match_product_sig_entry(self):
        for m, n in self.SIZES:
            for kind, ex, ey in (
                ("moment", moment_path_sig_entry, moment_path_sig_entry),
                ("axis", lambda w: axis_path_sig_entry(w, m), lambda w: axis_path_sig_entry(w, n)),
            ):
                for k in range(4):
                    expected = SigTensor.from_function(
                        k, m * n, lambda w: product_sig_entry(ex, ey, [nu_inv(x, n) for x in w])
                    )
                    assert core_tensor(kind, m, n, k) == expected, (kind, m, n, k)

    def test_cores_match_symbolic_integration(self):
        # nested integration over the product of simplices factors into the
        # two 1-D iterated integrals; each factor is integrated symbolically
        for m, n in self.SIZES:
            mom_m, mom_n = moment_path_poly(m), moment_path_poly(n)
            ax_m, ax_n = axis_path_pieces(m), axis_path_pieces(n)
            for k in range(4):
                moment = core_tensor("moment", m, n, k)
                axis = core_tensor("axis", m, n, k)
                for word in words_iter(m * n, k):
                    tw = [nu_inv(x, n) for x in word]
                    iw = tuple(ij[0] for ij in tw)
                    jw = tuple(ij[1] for ij in tw)
                    assert moment.get(word) == poly_path_sig_oracle(
                        mom_m, iw
                    ) * poly_path_sig_oracle(mom_n, jw)
                    assert axis.get(word) == pw_poly_path_sig_oracle(
                        *ax_m, iw
                    ) * pw_poly_path_sig_oracle(*ax_n, jw)

    def test_moment_22_level2_monte_carlo(self):
        # direct 2-D Monte-Carlo estimate of the defining double iterated
        # integral; fixed seed, agreement to 3 relative digits
        t = core_matrix("moment", 2, 2)
        rng = np.random.default_rng(20240809)
        pairs = [nu_inv(x, 2) for x in range(1, 5)]
        sums = np.zeros((4, 4))
        total = 0
        chunk, n_chunks = 4_000_000, 12
        for _ in range(n_chunks):
            s = rng.random((2, chunk))
            t_ = rng.random((2, chunk))
            s_min, s_max = s.min(axis=0), s.max(axis=0)
            t_min, t_max = t_.min(axis=0), t_.max(axis=0)

            def d12(ij, ss, tt):
                i, j = ij
                return (i * j) * ss ** (i - 1) * tt ** (j - 1)

            lows = [d12(p, s_min, t_min) for p in pairs]
            highs = [d12(p, s_max, t_max) for p in pairs]
            for x in range(4):
                for y in range(4):
                    sums[x, y] += float(np.sum(lows[x] * highs[y]))
            total += chunk
        estimate = sums / total / 4.0
        for x in range(4):
            for y in range(4):
                exact = float(t.at(x, y))
                assert abs(estimate[x, y] - exact) / exact < 5e-3


class TestGridData:
    @given(grid_values())
    def test_one_cleared_form_round_trips(self, args):
        d, m, n, vals = args
        g = GridData(d, m, n, vals)
        assert g.values == tuple(tuple(tuple(row) for row in comp) for comp in vals)
        flat = [x for comp in vals for row in comp for x in row]
        assert g.den == lcm(*(x.denominator for x in flat))
        assert g.ints.shape == (d, m + 1, n + 1)
        assert all(type(x) is int for x in g.ints.flat)
        assert [x * g.den for x in flat] == list(g.ints.flat)

    def test_nodes_are_read_only(self):
        g = axis_grid(2, 2)
        with pytest.raises(ValueError):
            g.ints[0, 1, 1] = 5
        with pytest.raises(FrozenInstanceError):
            g.den = 2

    @pytest.mark.parametrize("node", [0.5, "1/2"])
    def test_inexact_or_text_node_rejected(self, node):
        with pytest.raises(TypeError):
            GridData(1, 1, 1, [[[0, 0], [0, node]]])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            GridData(1, 1, 1, [[[0, 0], [0]]])
        with pytest.raises(ValueError):
            GridData(2, 1, 1, [[[0, 0], [0, 0]]])
        with pytest.raises(ValueError):
            GridData(0, 1, 1, [])

    def test_equal_values_compare_and_hash_equal(self):
        a = GridData(1, 1, 1, [[[rat(2, 4), 1], [0, rat(-3)]]])
        b = GridData(1, 1, 1, (((rat(1, 2), rat(1)), (rat(0), -3)),))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != GridData(1, 1, 1, [[[rat(1, 2), 1], [0, 3]]])
        assert a != GridData(1, 1, 1, [[[1, 2], [0, -6]]])  # same nodes, other scale

    def test_cell_derivatives_clears_nothing(self, rng, monkeypatch):
        g = rational_grid(rng, 2, 3, 2)
        expected = sig_tensor_fast(g, 2)

        def no_clearing(*args):
            raise AssertionError("cell_derivatives cleared denominators")

        monkeypatch.setattr(rational, "cleared_array", no_clearing)
        delta, scale = membranes.cell_derivatives(g)
        assert scale == g.den and delta.shape == (2, 3, 2)
        assert sig_tensor_fast(g, 2) == expected


class TestGridOps:
    def test_reduce_noop_when_zero_on_axes(self):
        g = axis_grid(2, 2)
        assert reduce_grid(g) == g

    def test_reduce_constant_grid(self):
        g = GridData(1, 2, 2, ((((rat(7),) * 3),) * 3,))
        assert all(x == 0 for comp in reduce_grid(g).values for row in comp for x in row)

    def test_reduce_preserves_signature(self, rng):
        g = rational_grid(rng, 2, 3, 3)
        reduced = reduce_grid(g)
        assert all(x == 0 for comp in reduced.values for x in comp[0])
        assert all(comp[a][0] == 0 for comp in reduced.values for a in range(4))
        assert sig_tensor_fast(g, 2) == sig_tensor_fast(reduced, 2)
        assert sig_via_congruence(g, 2) == sig_via_congruence(reduced, 2)

    def test_decompose_axis_grid_is_identity(self):
        for m, n in [(1, 1), (2, 3), (3, 2)]:
            assert bilinear_decompose(axis_grid(m, n)) == Matrix.identity(m * n)

    def test_decompose_single_cell(self):
        u = (rat(3), rat(-1, 2))
        g = GridData(2, 1, 1, tuple(((rat(0), rat(0)), (rat(0), c)) for c in u))
        assert bilinear_decompose(g) == Matrix.from_rows([[u[0]], [u[1]]])

    def test_decompose_reconstruction(self, rng):
        g = rational_grid(rng, 2, 3, 4)
        a = bilinear_decompose(g)
        red = reduce_grid(g)
        for x in range(g.d):
            for node_a in range(g.m + 1):
                for node_b in range(g.n + 1):
                    acc = rat(0)
                    for i in range(1, node_a + 1):
                        for j in range(1, node_b + 1):
                            acc += a.at(x, nu(i, j, g.n) - 1)
                    assert acc == red.values[x][node_a][node_b]


class TestSigViaCongruence:
    def test_polynomial_example_matrix(self):
        spec = PolynomialMembrane(A_EXAMPLE, 2, 2)
        s = sig_via_congruence(spec, 2).to_matrix()
        expected = Matrix.from_rows(
            [
                [eval_terms(S11_TERMS, A_EXAMPLE), eval_terms(S12_TERMS, A_EXAMPLE)],
                [eval_terms(S21_TERMS, A_EXAMPLE), eval_terms(S22_TERMS, A_EXAMPLE)],
            ]
        )
        assert s == expected

    def test_printed_polynomials_on_random_points(self, rng):
        for _ in range(5):
            a = Matrix(2, 4, tuple(rat(rng.randint(-5, 5)) for _ in range(8)))
            s = sig_via_congruence(PolynomialMembrane(a, 2, 2), 2).to_matrix()
            assert s.at(0, 0) == eval_terms(S11_TERMS, a)
            assert s.at(1, 0) == eval_terms(S21_TERMS, a)
            assert s.at(0, 1) == eval_terms(S12_TERMS, a)
            assert s.at(1, 1) == eval_terms(S22_TERMS, a)

    def test_level3_printed_cubic(self, rng):
        t = sig_via_congruence(PolynomialMembrane(A_EXAMPLE, 2, 2), 3)
        assert t.get((1, 1, 1)) == eval_terms(SIGMA3_111_TERMS, A_EXAMPLE)
        for _ in range(3):
            a = Matrix(2, 4, tuple(rat(rng.randint(-4, 4)) for _ in range(8)))
            t = sig_via_congruence(PolynomialMembrane(a, 2, 2), 3)
            assert t.get((1, 1, 1)) == eval_terms(SIGMA3_111_TERMS, a)

    def test_single_cell_bilinear_membrane(self):
        u = (rat(2), rat(-3), rat(1, 2))
        g = GridData(3, 1, 1, tuple(((rat(0), rat(0)), (rat(0), c)) for c in u))
        for k in range(4):
            t = sig_via_congruence(g, k)
            fact = 1
            for i in range(1, k + 1):
                fact *= i
            for w in words_iter(3, k):
                prod_u = rat(1)
                for letter in w:
                    prod_u *= u[letter - 1]
                assert t.get(w) == prod_u / (fact * fact)

    def test_unknown_spec_raises_type_error(self):
        for spec in (((0, 0), (1, 2)), A_EXAMPLE, axis_grid(2, 2).values):
            with pytest.raises(TypeError, match="cannot resolve membrane spec"):
                sig_via_congruence(spec, 2)

    @pytest.mark.parametrize("k", [33, 64])
    def test_levels_past_32_match_the_fast_route(self, k):
        # a level-k core is built with at most 5 axes, so the route reaches MAX_LEVEL
        g = GridData(1, 1, 1, [[[0, 0], [0, 2]]])
        assert sig_via_congruence(g, k) == sig_tensor_fast(g, k)

    @given(matrices(rows=2, cols=2, max_size=2))
    @settings(max_examples=20)
    def test_equivariance(self, b):
        base = PolynomialMembrane(A_EXAMPLE, 2, 2)
        for k in range(3):
            assert sig_via_congruence(PolynomialMembrane(b @ A_EXAMPLE, 2, 2), k) == tucker_apply(
                sig_via_congruence(base, k), b
            )

    def test_scaling_corollary(self):
        # product with a 1-D linear path of increment c scales level k by c^k/k!
        c = rat(5, 3)
        fact = 1
        for k in range(4):
            fact = fact * k if k else 1
            e_lin, e_y = linear_path_sig((c,), k).get, axis_path_core(3, k).get
            for w in words_iter(3, k):
                got = product_sig_entry(e_lin, e_y, tuple((1, letter) for letter in w))
                assert got == c**k / rat(fact) * axis_path_sig_entry(w, 3)

    def test_monotone_embedding_by_zero_padding(self, rng):
        m, n, mp, np_ = 2, 2, 3, 4
        a = Matrix(3, 4, tuple(rat(rng.randint(-4, 4)) for _ in range(12)))
        small = sig_via_congruence(PolynomialMembrane(a, m, n), 2)
        padded_rows = []
        for x in range(3):
            row = [rat(0)] * (mp * np_)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    row[nu(i, j, np_) - 1] = a.at(x, nu(i, j, n) - 1)
            padded_rows.append(row)
        big = sig_via_congruence(PolynomialMembrane(Matrix.from_rows(padded_rows), mp, np_), 2)
        assert big == small


class TestPolynomialMembraneInput:
    def test_sparse_terms_drop_degenerate(self, caplog):
        with caplog.at_level("WARNING"):
            spec = PolynomialMembrane.from_terms(
                1, 2, 2, [(1, 1, 1, rat(3)), (0, 1, 1, rat(9)), (2, 0, 1, rat(4))]
            )
        assert "dropping term" in caplog.text
        assert spec.coeffs == Matrix.from_rows([[3, 0, 0, 0]])

    def test_oversized_coefficient_matrix_is_refused(self, monkeypatch):
        monkeypatch.setattr(tensor, "MAX_ENTRIES", 100)
        assert PolynomialMembrane.from_terms(4, 5, 5, []).coeffs == Matrix.zeros(4, 25)
        with pytest.raises(ValueError, match="more than 100 entries"):
            PolynomialMembrane.from_terms(5, 5, 5, [])

    def test_fast_equals_congruence_on_random_grids(self, rng):
        for _ in range(5):
            g = rational_grid(rng, rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3))
            k = rng.randint(0, 3)
            assert sig_tensor_fast(g, k) == sig_via_congruence(g, k)
