import pytest

from dscurves import ffield
from dscurves.errors import InvalidInput


def test_validate_field_order_accepts_odd_primes():
    for q in (3, 5, 7, 11, 13):
        ffield.validate_field_order(q)


@pytest.mark.parametrize("q", [0, 1, 2, 4, 6, 9, 15, -3, 2 ** 61 - 1])
def test_validate_field_order_rejects(q):
    with pytest.raises(InvalidInput):
        ffield.validate_field_order(q)


def test_inv_is_inverse():
    for q in (3, 5, 7):
        for a in range(1, q):
            assert (a * ffield.inv(a, q)) % q == 1


def test_inv_of_zero_fails():
    with pytest.raises(InvalidInput):
        ffield.inv(0, 3)


def test_is_square_matches_brute_force():
    for q in (3, 5, 7, 11):
        squares = {(x * x) % q for x in range(1, q)}
        for a in range(1, q):
            assert ffield.is_square(a, q) == (a in squares)


def test_is_square_rejects_zero():
    with pytest.raises(InvalidInput):
        ffield.is_square(0, 5)


def test_least_nonsquare():
    # the second representative is the least non-square unit
    for q, nu in ((3, 2), (5, 2), (7, 3), (11, 2), (17, 3)):
        assert ffield.square_class_reps(q)[1] == nu
        assert all(ffield.is_square(a, q) for a in range(1, nu))
        assert not ffield.is_square(nu, q)


def test_square_class_reps():
    for q in (3, 5, 7, 11, 17):
        one, nu = ffield.square_class_reps(q)
        assert one == 1
        assert not ffield.is_square(nu, q)
