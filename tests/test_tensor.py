import random

import pytest
from hypothesis import given, settings

from conftest import matrices
from memsig import tensor
from memsig.bench import random_integer_grid
from memsig.fastsig import sig_tensor_fast
from memsig.linalg import Matrix
from memsig.membranes import core_tensor
from memsig.rational import rat
from memsig.tensor import SigTensor, all_ones, check_entry_count, tucker_apply, words_iter


def test_level_zero_is_scalar_one():
    t = SigTensor.level_zero(5)
    assert t.entries == (rat(1),)


def test_word_indexing_row_major():
    t = SigTensor(2, 3, tuple(range(9)))
    assert t.get((1, 1)) == 0
    assert t.get((1, 3)) == 2
    assert t.get((3, 1)) == 6
    with pytest.raises(ValueError):
        t.get((1,))
    with pytest.raises(ValueError):
        t.get((0, 1))


def test_matrix_roundtrip():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert SigTensor.from_matrix(m).to_matrix() == m


def test_tucker_identity():
    t = core_tensor("moment", 2, 2, 3)
    assert tucker_apply(t, Matrix.identity(4)) == t


def test_tucker_level2_matches_printed_polynomial_value():
    a = Matrix.from_rows([[1, -1, 1, 1], [1, 1, 0, -1]])
    s = tucker_apply(core_tensor("moment", 2, 2, 2), a).to_matrix()
    assert s.at(0, 0) == rat(10, 9)


def test_tucker_level1_sums_rows():
    t = all_ones(1, 4)
    a = Matrix.from_rows([[1, -1, 1, 1], [1, 1, 0, -1]])
    assert tucker_apply(t, a).entries == (rat(2), rat(1))


def test_tucker_level2_is_congruence():
    t = core_tensor("axis", 2, 2, 2)
    a = Matrix.from_rows([[1, 2, 0, -1], [0, 1, 1, 1], [2, 0, 0, 3]])
    assert tucker_apply(t, a).to_matrix() == a @ t.to_matrix() @ a.transpose()


@given(matrices(cols=2, max_size=3), matrices(max_size=3))
@settings(max_examples=25)
def test_tucker_composition(a, b):
    if b.cols != a.rows:
        return
    t = core_tensor("axis", 2, 1, 3)  # dim 2 level 3
    assert tucker_apply(tucker_apply(t, a), b) == tucker_apply(t, b @ a)


def test_tucker_rational_nonsquare_matches_direct_sum():
    rng = random.Random(5)

    def rational():
        return rat(rng.randint(-9, 9), rng.randint(1, 7))

    for d, p in [(2, 3), (4, 3)]:
        a = Matrix(d, p, tuple(rational() for _ in range(d * p)))
        for level in range(4):
            t = SigTensor(level, p, tuple(rational() for _ in range(p**level)))
            expected = []
            for word in words_iter(d, level):
                total = rat(0)
                for inner in words_iter(p, level):
                    term = t.get(inner)
                    for i, j in zip(word, inner):
                        term *= a.at(i - 1, j - 1)
                    total += term
                expected.append(total)
            assert tucker_apply(t, a).entries == tuple(expected), (d, p, level)


def test_tucker_shape_mismatch():
    with pytest.raises(ValueError):
        tucker_apply(core_tensor("axis", 2, 2, 2), Matrix.identity(3))


def test_words_iter_order():
    assert list(words_iter(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_entry_count_check():
    check_entry_count(10, 7)  # exactly MAX_ENTRIES
    check_entry_count(1, 10**18)
    for dim, level in [(10, 8), (25, 8), (2, 10**18), (10**8, 1)]:
        with pytest.raises(ValueError, match="entries"):
            check_entry_count(dim, level)


def test_negative_level_refused():
    with pytest.raises(ValueError, match="level must be >= 0"):
        check_entry_count(2, -1)


def test_oversized_tensors_are_refused_before_any_entry(monkeypatch):
    monkeypatch.setattr(tensor, "MAX_ENTRIES", 8)

    def entry(word):
        raise AssertionError("no entry may be computed")

    with pytest.raises(ValueError):
        SigTensor.from_function(2, 3, entry)
    with pytest.raises(ValueError):
        tucker_apply(all_ones(2, 2), Matrix(3, 2, (1,) * 6))
    grid = random_integer_grid(3, 2, 2, random.Random(1))
    assert len(sig_tensor_fast(grid, 1).entries) == 3
    with pytest.raises(ValueError):
        sig_tensor_fast(grid, 2)
