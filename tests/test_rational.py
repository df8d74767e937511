import pytest

from memsig.rational import clear_denominators, rat


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


def test_clear_denominators_mixed_signs_and_denominators():
    ints, scale = clear_denominators([rat(-1, 4), rat(5, 6), rat(3), rat(-7, 9), 2])
    assert scale == 36
    assert ints == [-9, 30, 108, -28, 72]
    assert all(type(x) is int for x in ints)


def test_clear_denominators_of_nothing():
    assert clear_denominators([]) == ([], 1)
