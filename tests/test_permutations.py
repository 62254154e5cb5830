import pytest
from hypothesis import given
from hypothesis import strategies as st

from quasilab import Permutation, orbit


def test_identity_and_call():
    e = Permutation.identity(4)
    assert e.image == (0, 1, 2, 3)
    assert e(2) == 2
    assert e.is_identity()


def test_invalid_image_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 2])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])


def test_any_iterable_of_images_is_accepted():
    p = Permutation([1, 2, 0])
    assert Permutation(p) == Permutation(iter([1, 2, 0])) == Permutation(p.array) == p


def test_composition_order():
    p = Permutation([1, 2, 0])
    q = Permutation([0, 2, 1])
    # (p * q)(x) = p(q(x))
    assert (p * q).image == tuple(p(q(x)) for x in range(3))


@given(st.permutations(list(range(6))))
def test_inverse_roundtrip(img):
    p = Permutation(img)
    assert (p * p.inverse()).is_identity()
    assert (p.inverse() * p).is_identity()


def test_sorting_is_lexicographic():
    perms = [Permutation([2, 1, 0]), Permutation([0, 1, 2]), Permutation([1, 0, 2])]
    assert sorted(perms)[0].image == (0, 1, 2)


def test_orbit_closure():
    swap01 = Permutation([1, 0, 2, 3])
    swap23 = Permutation([0, 1, 3, 2])
    assert orbit(0, [swap01]) == {0, 1}
    assert orbit(0, [swap01, swap23]) == {0, 1}
    cycle = Permutation([1, 2, 3, 0])
    assert orbit(0, [cycle]) == {0, 1, 2, 3}
