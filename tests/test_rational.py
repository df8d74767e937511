from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from memsig.rational import cleared_array, lcm_all, rat


def test_rat_returns_a_rational_unchanged():
    q = rat(-3, 7)
    assert rat(q) is q


@pytest.mark.parametrize("args", [(0.5,), (1, 2.0)])
def test_rat_rejects_floats(args):
    with pytest.raises(TypeError):
        rat(*args)


@pytest.mark.parametrize("args", [("3",), ("1/2",), ("1.5",), (" 3/4 ",), ("1e3",), (1, "2")])
def test_rat_rejects_strings(args):
    with pytest.raises(TypeError):
        rat(*args)


def test_cleared_array_mixed_signs_and_denominators():
    ints, scale = cleared_array([rat(-1, 4), rat(5, 6), rat(3), rat(-7, 9), 2, rat(1, 2)], (2, 3))
    assert scale == 36
    assert ints.dtype == object and ints.shape == (2, 3)
    assert ints.tolist() == [[-9, 30, 108], [-28, 72, 18]]
    assert all(type(x) is int for x in ints.ravel())


def test_cleared_array_of_nothing():
    ints, scale = cleared_array([], (0,))
    assert ints.shape == (0,) and scale == 1


@given(st.sets(st.integers(-(10**30), 10**30).filter(bool), max_size=40))
def test_lcm_all_matches_math_lcm(values):
    assert lcm_all(values) == lcm(*values)


def test_lcm_all_of_nothing():
    assert lcm_all([]) == lcm() == 1
