import random
from collections import Counter
from itertools import product
from math import factorial, prod

import numpy as np
import pytest

from conftest import jordan_rows
from memsig import linalg, tensor, variety
from memsig.linalg import (
    CongruenceInvariants,
    GammaBlock,
    HBlock,
    Matrix,
    _PRIME,
    cosquare,
    det,
    kron,
    kron_jordan_structure,
    pm1_jordan_structure,
    rank_int_rows,
    solve,
)
from memsig.membranes import _PATH_CORES, core_matrix, core_tensor
from memsig.rational import rat
from memsig.tensor import SigTensor
from memsig.variety import (
    _check_jacobian_size,
    _jacobian_mod_p,
    _path_core_det_den,
    _path_core_structure,
    congruence_invariants,
    congruent_check,
    core_invariants,
    core_rank_profile,
    degree_formula,
    dimension_formula,
    dimension_report,
    image_dimension,
    random_integer_matrix,
    relation_checks,
    tucker_jacobian,
    tucker_jacobian_rank,
)


def invariants_of_blocks(blocks) -> CongruenceInvariants:
    """The class of a block list: Gamma_k is one J_k((-1)^(k+1)), H_2k(mu) two J_k(mu)."""
    structure: Counter = Counter()
    for b in blocks:
        if isinstance(b, GammaBlock):
            structure[(1 if b.size % 2 else -1, b.size)] += 1
        else:
            structure[(b.mu, b.halfsize)] += 2
    return CongruenceInvariants(structure)


def expected_axis_blocks(m: int, n: int) -> CongruenceInvariants:
    """The three parity-case normal forms of the axis core (m odd / n even by swap)."""
    if m % 2 == 1 and n % 2 == 0:
        m, n = n, m
    blocks: list = []
    if m % 2 == 0 and n % 2 == 0:
        blocks += [GammaBlock(3)]
        blocks += [HBlock(2, 1)] * ((m + n - 4) // 2)
        blocks += [GammaBlock(1)] * ((m - 2) * (n - 2) + 1)
    elif m % 2 == 0:
        blocks += [GammaBlock(2)]
        blocks += [HBlock(2, 1)] * ((n - 1) // 2)
        blocks += [HBlock(1, -1)] * ((m - 2) // 2)
        blocks += [GammaBlock(1)] * ((m - 2) * (n - 1))
    else:
        blocks += [HBlock(1, -1)] * ((m + n - 2) // 2)
        blocks += [GammaBlock(1)] * ((m - 1) * (n - 1) + 1)
    return invariants_of_blocks(blocks)


def expected_rank_profile(m: int, n: int) -> tuple[int, int]:
    if m % 2 == 1 and n % 2 == 0:
        m, n = n, m
    if m % 2 == 0 and n % 2 == 0:
        return m * n, m + n - 2
    if m % 2 == 0:
        return m * (n - 1) + 1, m + n - 1
    return (m - 1) * (n - 1) + 1, m + n - 2


class TestRankProfiles:
    def test_listed_cores(self):
        assert core_rank_profile(core_matrix("axis", 2, 2)) == (4, 2)
        assert core_rank_profile(core_matrix("axis", 2, 3)) == (5, 4)
        assert core_rank_profile(core_matrix("axis", 3, 3)) == (5, 4)

    def test_parity_formulas_up_to_5(self):
        for m, n in product(range(1, 6), repeat=2):
            assert core_rank_profile(core_matrix("axis", m, n)) == expected_rank_profile(m, n)


class TestCongruenceInvariants:
    def test_axis_cores_against_normal_form_lemma(self):
        for m, n in product(range(2, 6), repeat=2):
            inv = congruence_invariants(core_matrix("axis", m, n))
            assert inv == expected_axis_blocks(m, n), (m, n, str(inv))
            assert inv.total_size == m * n

    def test_identity_blocks(self):
        inv = congruence_invariants(Matrix.identity(4))
        assert inv == invariants_of_blocks([GammaBlock(1)] * 4)
        assert inv.blocks == (GammaBlock(1),) * 4

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            congruence_invariants(Matrix.zeros(2, 2))

    @pytest.mark.parametrize("structure", [{(-1, 1): 1}, {(1, 2): 3}, {(1, 1): 2, (-1, 3): 1}])
    def test_unpaired_blocks_are_refused(self, structure):
        with pytest.raises(ValueError, match="must pair into H-blocks"):
            CongruenceInvariants(Counter(structure))

    def test_blocks_are_read_off_the_structure(self):
        structure = {(1, 1): 2, (-1, 2): 1, (1, 3): 1, (-1, 1): 2, (1, 2): 4, (-1, 3): 2, (1, 4): 0}
        inv = CongruenceInvariants(Counter(structure))
        assert inv.structure == (((-1, 1), 2), ((-1, 2), 1), ((-1, 3), 2), ((1, 1), 2), ((1, 2), 4), ((1, 3), 1))
        assert str(inv) == "Gamma1 + Gamma1 + Gamma2 + Gamma3 + H2(-1) + H4(1) + H4(1) + H6(-1)"
        assert CongruenceInvariants(inv.structure) == inv and hash(CongruenceInvariants(inv.structure)) == hash(inv)
        # 5 blocks at -1 and 7 at +1 in a size of 23
        assert (inv.total_size, inv.rank_profile) == (23, (18, 16))
        assert str(CongruenceInvariants(Counter())) == "(empty)"

    def test_rank_profile_builds_no_blocks(self, monkeypatch):
        core = core_matrix("axis", 2, 3)
        inv = congruence_invariants(core)
        monkeypatch.setattr(linalg, "GammaBlock", None)
        monkeypatch.setattr(linalg, "HBlock", None)
        assert inv.rank_profile == core_rank_profile(core)


def _unimodular(n: int, rng) -> Matrix:
    """L U for random integer unitriangular L (lower) and U (upper): det 1, integer inverse."""
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    return Matrix.from_rows(lower) @ Matrix.from_rows(upper)


class TestKronRoute:
    """The closed forms of ``invariants`` against the generic route on the cores."""

    SIZES = [*product(range(1, 7), repeat=2), (4, 7), (7, 7), (3, 8)]

    @pytest.mark.parametrize("kind", ["axis", "moment"])
    def test_equals_the_generic_route_on_the_core(self, kind):
        for m, n in self.SIZES:
            core = core_matrix(kind, m, n)
            blocks, det_m = core_invariants(kind, m, n)
            assert blocks == congruence_invariants(core), (kind, m, n)
            assert det_m == det(core), (kind, m, n)
            assert blocks.rank_profile == core_rank_profile(core), (kind, m, n)
            assert dict(blocks.structure) == pm1_jordan_structure(cosquare(core))

    def test_tensor_jordan_rule_on_similar_matrices(self, rng):
        def block(mu=None):
            return (mu or rng.choice([1, -1]), rng.randint(1, 3))

        for _ in range(12):
            pair = []
            # X holds blocks at both signs, Y one or two blocks
            x_blocks = [block(1), block(-1), block()][: rng.randint(2, 3)]
            for blocks in (x_blocks, [block(), block()][: rng.randint(1, 2)]):
                p = _unimodular(sum(size for _, size in blocks), rng)
                x = solve(p, Matrix.from_rows(jordan_rows(blocks)) @ p)
                assert x.den == 1 and pm1_jordan_structure(x) == Counter(blocks)
                pair.append(x)
            x, y = pair
            rule = kron_jordan_structure(pm1_jordan_structure(x), pm1_jordan_structure(y))
            assert rule == pm1_jordan_structure(kron(x, y))

    @pytest.mark.parametrize("kind", ["axis", "moment"])
    def test_path_core_closed_forms_equal_the_generic_route(self, kind):
        """The shuffle identity, the factor normal forms and D(m) on the path cores, m <= 30."""
        for m in range(1, 31):
            s = _PATH_CORES[kind](m, 2).to_matrix()
            assert s + s.transpose() == Matrix.from_rows([[1] * m] * m), (kind, m)
            structure = _path_core_structure(m)
            assert pm1_jordan_structure(cosquare(s)) == structure, (kind, m)
            assert congruence_invariants(s) == CongruenceInvariants(structure), (kind, m)
            assert det(s) == rat(1, _path_core_det_den(kind, m)), (kind, m)

    def test_moment_det_den_equals_the_cauchy_determinant(self):
        for m in range(1, 40):
            pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
            cauchy = rat(factorial(m) * prod((j - i) ** 2 for i, j in pairs if i < j),
                         prod(i + j for i, j in pairs))
            assert rat(1, _path_core_det_den("moment", m)) == cauchy, m


class TestCongruentCheck:
    def test_moment_axis_coincide(self):
        for m, n in product(range(1, 5), repeat=2):
            assert congruent_check(core_matrix("moment", m, n), core_matrix("axis", m, n))

    def test_core_not_congruent_to_identity(self):
        assert not congruent_check(core_matrix("axis", 2, 2), Matrix.identity(4))

    def test_different_sizes_are_not_congruent(self):
        assert not congruent_check(Matrix.identity(2), Matrix.identity(3))
        # decided by the sizes alone: the singular matrix would raise in ``cosquare``
        assert not congruent_check(Matrix.zeros(2, 2), Matrix.identity(3))

    def test_invariance_under_congruence(self, rng):
        m = core_matrix("axis", 2, 2)
        for _ in range(3):
            while True:
                b = random_integer_matrix(4, 4, rng, 5)
                if det(b) != 0:
                    break
            assert congruent_check(m, b.transpose() @ m @ b)


class TestDetCheck:
    def test_small_orders(self):
        for m, n in product(range(1, 4), repeat=2):
            assert det(core_matrix("axis", m, n)) == rat(1, 4 ** (m * n))


class TestImageDimension:
    def test_paper_examples(self, rng):
        assert image_dimension(core_tensor("axis", 2, 2, 2), 4, 3, rng) == 14
        assert image_dimension(core_tensor("axis", 3, 3, 2), 6, 3, rng) == 34
        assert image_dimension(core_tensor("axis", 2, 2, 2), 2, 3, rng) == 4

    def test_level3_small(self, rng):
        assert image_dimension(core_tensor("axis", 1, 1, 3), 3, 3, rng) == 3
        assert image_dimension(core_tensor("axis", 2, 2, 3), 3, 3, rng) == 12

    def test_jacobian_rank_zero_level(self):
        assert tucker_jacobian_rank(core_tensor("axis", 1, 1, 0), Matrix.identity(1)) == 0

    def test_jacobian_rank_is_invariant_under_scaling_the_base(self, rng):
        core = core_tensor("axis", 2, 2, 2)
        b = random_integer_matrix(4, 4, rng)
        for c in (1, rat(1, 3), rat(1, 10000)):
            assert tucker_jacobian_rank(core, b.scale(c)) == 14

    def test_oversized_jacobian_is_refused_before_any_base_point(self, monkeypatch, rng):
        core = core_tensor("axis", 2, 2, 2)
        base = random_integer_matrix(4, 4, rng)
        monkeypatch.setattr(tensor, "MAX_ENTRIES", 4 * 4 * 16 - 1)

        class NoDraws(random.Random):
            def randint(self, a, b):
                raise AssertionError("no base point may be drawn")

        with pytest.raises(ValueError, match="more than 255 entries"):
            image_dimension(core, 4, 3, NoDraws())
        with pytest.raises(ValueError, match="Jacobian"):
            tucker_jacobian_rank(core, base)
        monkeypatch.setattr(tensor, "MAX_ENTRIES", 4 * 4 * 16)
        assert tucker_jacobian_rank(core, base) == 14

    def test_trials_stop_at_full_rank(self):
        class CountingRandom(random.Random):
            draws = 0

            def randint(self, a, b):
                self.draws += 1
                return super().randint(a, b)

        core = core_tensor("axis", 2, 2, 2)
        rng = CountingRandom(5)
        assert image_dimension(core, 2, 3, rng) == 4  # full: min(2 * 4, 2^2)
        assert rng.draws == 2 * 4  # one base point
        rng = CountingRandom(5)
        assert image_dimension(core, 4, 3, rng) == 14  # short of min(16, 16)
        assert rng.draws == 3 * 4 * 4  # every trial

    def test_refuses_d_zero(self, rng):
        with pytest.raises(ValueError, match="d >= 1"):
            image_dimension(core_tensor("axis", 2, 2, 2), 0, 3, rng)

    def test_moment_core_gives_same_dimension(self, rng):
        assert image_dimension(core_tensor("moment", 2, 2, 2), 4, 3, rng) == 14

    def test_report_fields(self, rng):
        rep = dimension_report(4, 2, 2, 2, 3, rng)
        assert (rep.measured_dim, rep.formula_dim, rep.ambient) == (14, 14, 16)
        assert rep.agree is True
        rep3 = dimension_report(3, 2, 2, 3, 2, rng)
        assert rep3.formula_dim is None and rep3.agree is None
        assert rep3.ambient == 27


class TestModularJacobianRank:
    """The dimension trials rank the exact Jacobian over GF(p), p = 2^31 - 1."""

    @pytest.mark.parametrize("kind", ["axis", "moment"])
    @pytest.mark.parametrize(
        "level, m, n, d", [(2, 1, 2, 2), (2, 2, 2, 3), (2, 2, 3, 4), (3, 1, 2, 2), (3, 2, 2, 3)]
    )
    def test_never_above_the_exact_rank(self, rng, kind, level, m, n, d):
        core = core_tensor(kind, m, n, level)
        for bound in (9, 1000, (_PRIME - 1) // 2):
            b = random_integer_matrix(d, m * n, rng, bound)
            assert tucker_jacobian_rank(core, b) <= rank_int_rows(tucker_jacobian(core, b))

    @pytest.mark.parametrize(
        "kind, m, n, level, d, rank",
        [("axis", 2, 2, 2, 4, 14), ("axis", 3, 3, 2, 6, 34), ("axis", 2, 2, 2, 2, 4),
         ("axis", 2, 2, 3, 3, 12), ("moment", 2, 2, 2, 4, 14)],
    )
    def test_equals_the_exact_rank_on_the_paper_examples(self, rng, kind, m, n, level, d, rank):
        core = core_tensor(kind, m, n, level)
        b = random_integer_matrix(d, m * n, rng, (_PRIME - 1) // 2)
        assert tucker_jacobian_rank(core, b) == rank_int_rows(tucker_jacobian(core, b)) == rank

    def test_base_divisible_by_p_ranks_zero_mod_p(self, rng):
        core = core_tensor("axis", 2, 2, 2)
        b = random_integer_matrix(4, 4, rng).scale(_PRIME)
        assert tucker_jacobian_rank(core, b) == 0
        assert rank_int_rows(tucker_jacobian(core, b)) == 14

    def test_dimension_trials_run_no_bareiss(self, monkeypatch, rng):
        def no_bareiss(*args, **kwargs):
            raise AssertionError("a dimension trial ran Bareiss elimination")

        monkeypatch.setattr(linalg, "_bareiss", no_bareiss)
        assert image_dimension(core_tensor("axis", 3, 3, 2), 6, 3, rng) == 34  # short of 36

    def test_base_with_no_rows_ranks_zero(self):
        assert tucker_jacobian_rank(core_tensor("axis", 2, 2, 2), Matrix(0, 4, ())) == 0

    def test_base_points_are_uniform_over_gf_p(self, rng):
        class RecordingRandom(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                self.ranges = []

            def randint(self, a, b):
                self.ranges.append((a, b))
                return super().randint(a, b)

        rng = RecordingRandom(5)
        assert image_dimension(core_tensor("axis", 2, 2, 2), 4, 3, rng) == 14
        half = (_PRIME - 1) // 2
        assert rng.ranges == [(-half, half)] * (3 * 4 * 4)


    @pytest.mark.parametrize("kind", ["axis", "moment"])
    @pytest.mark.parametrize(
        "level, m, n, d", [(0, 2, 2, 3), (1, 2, 3, 3), (2, 2, 3, 4), (2, 3, 3, 2), (3, 2, 2, 3), (3, 1, 3, 2)]
    )
    def test_int64_jacobian_is_the_exact_one_mod_p(self, rng, kind, level, m, n, d):
        core = core_tensor(kind, m, n, level)
        half = (_PRIME - 1) // 2
        bases = [
            random_integer_matrix(d, m * n, rng, half),
            Matrix(d, m * n, [rng.choice([half, -half]) for _ in range(d * m * n)]),
            random_integer_matrix(d, m * n, rng, 9).scale(rat(2**70 + 1, 3)),  # entries past int64
        ]
        for b in bases:
            jac = _jacobian_mod_p(core, b)
            assert jac.dtype == np.int64
            assert jac.tolist() == [[x % _PRIME for x in row] for row in tucker_jacobian(core, b)]

    def test_int64_jacobian_at_the_largest_residues(self):
        # every core and base residue is p - 1
        core, base = SigTensor(2, 40, [-1] * 1600), Matrix(2, 40, [-1] * 80)
        jac = _jacobian_mod_p(core, base)
        assert jac.tolist() == [[x % _PRIME for x in row] for row in tucker_jacobian(core, base)]

    def test_core_over_the_entry_budget_is_refused(self, monkeypatch, rng):
        with pytest.raises(ValueError, match="level-2 tensor over dimension 3163 has more than"):
            _check_jacobian_size(1, 3163, 2)
        _check_jacobian_size(1, 3162, 2)
        core, base = core_tensor("axis", 2, 2, 2), random_integer_matrix(1, 4, rng)
        monkeypatch.setattr(tensor, "MAX_ENTRIES", 15)  # 16 core entries, a 4-entry Jacobian
        with pytest.raises(ValueError, match="level-2 tensor over dimension 4 has more than 15"):
            tucker_jacobian_rank(core, base)


class TestDimensionFormula:
    def test_examples(self):
        assert dimension_formula(6, 3, 3) == 34
        assert dimension_formula(4, 2, 1) == 7
        assert dimension_formula(4, 2, 2) == 14

    def test_not_applicable(self):
        assert dimension_formula(4, 2, 3) is None  # mn > d, mixed parity
        assert dimension_formula(3, 2, 2) is None

    def test_path_case_simplification(self):
        for m in range(1, 6):
            for d in range(m, 9):
                assert dimension_formula(d, m, 1) == m * d - m * (m - 1) // 2
                assert dimension_formula(d, 1, m) == m * d - m * (m - 1) // 2

    def test_odd_odd_closed_form_matches_rank_count(self):
        # for mn <= d the parity polynomial is used; the rank-variety count
        # must agree with it on the overlap
        from memsig.variety import _skew_rank_variety_dim, _sym_rank_variety_dim

        for m, n in [(1, 1), (1, 3), (3, 1), (3, 3), (5, 1), (1, 5), (3, 5)]:
            for d in range(m * n, m * n + 4):
                a = (m - 1) * (n - 1) + 1
                b = m + n - 2
                count = _sym_rank_variety_dim(d, a) + _skew_rank_variety_dim(d, b)
                assert dimension_formula(d, m, n) == count

    def test_symmetry(self):
        for m, n in product(range(1, 5), repeat=2):
            for d in range(m * n, m * n + 3):
                assert dimension_formula(d, m, n) == dimension_formula(d, n, m)


class TestDegreeFormula:
    def test_paper_example(self):
        assert degree_formula(6, 3, 3) == 18

    def test_positive_integers(self):
        for m, n in [(1, 1), (1, 3), (3, 3), (3, 5), (5, 5)]:
            for d in range(m + n, m + n + 4):
                value = degree_formula(d, m, n)
                assert isinstance(value, int) and value > 0

    def test_boundary_m_plus_n_equals_d(self):
        assert degree_formula(6, 3, 3) == 18  # m + n = d: skew product has one factor

    def test_rank_one_symmetric_case(self):
        # (m, n) = (1, 1): rank-1 symmetric matrices, the quadric Veronese cone
        assert degree_formula(4, 1, 1) == 8

    def test_rejects_even_orders(self):
        with pytest.raises(ValueError):
            degree_formula(6, 2, 3)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            degree_formula(5, 3, 3)


class TestRelationChecks:
    def test_221_generator(self, rng):
        report = relation_checks(2, 2, 1, 50, rng)
        assert report.status == "pass" and report.samples == 50

    def test_422_pfaffian_and_det_ratio(self, rng):
        report = relation_checks(4, 2, 2, 50, rng)
        assert report.status == "pass"

    def test_no_builtin_relations(self, rng):
        report = relation_checks(2, 2, 2, 10, rng)
        assert report.status == "no-relations"

    @pytest.mark.parametrize("samples", [0, -1])
    def test_refuses_no_samples(self, rng, samples):
        with pytest.raises(ValueError, match="at least one sample"):
            relation_checks(2, 2, 1, samples, rng)

    def test_the_quadratic_fails_on_a_core_with_a_nonsingular_symmetric_part(self, monkeypatch):
        monkeypatch.setattr(variety, "core_matrix", lambda kind, m, n: Matrix.identity(2))
        report = relation_checks(2, 2, 1, 7, random.Random(5))
        a = random_integer_matrix(2, 2, random.Random(5))
        assert det(a) != 0
        assert (report.status, report.samples, report.counterexample) == ("fail", 7, a)
        # X = A A^T is symmetric, so the quadratic is 4 det(X) = 4 det(A)^2
        assert report.detail == f"4 X11 X22 - X21^2 - 2 X21 X12 - X12^2 = {4 * det(a) ** 2}"

    def test_the_pfaffian_fails_on_a_core_with_a_nonsingular_skew_part(self, monkeypatch):
        skew = Matrix.from_rows([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
        monkeypatch.setattr(variety, "core_matrix", lambda kind, m, n: Matrix.identity(4) + skew)
        report = relation_checks(4, 2, 2, 7, random.Random(5))
        a = random_integer_matrix(4, 4, random.Random(5))
        assert det(a) != 0
        assert (report.status, report.samples, report.counterexample) == ("fail", 7, a)
        # X^sk = A J A^T for the skew part J, whose Pfaffian is 1, so pf(X^sk) = det(A)
        assert report.detail == f"pfaffian(X^sk) = {det(a)}"

    def test_seeded_reproducibility(self):
        r1 = relation_checks(4, 2, 2, 5, random.Random(99))
        r2 = relation_checks(4, 2, 2, 5, random.Random(99))
        assert r1 == r2
