import numpy as np
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


@pytest.mark.parametrize("image", [[0.5, 1.5], [1.0, 0.0], [True, False], np.array([0.0, 1.0])])
def test_non_integer_images_are_refused(image):
    with pytest.raises(ValueError):
        Permutation(image)


@pytest.mark.parametrize("image", [[], (), range(0), np.array([])])
def test_an_empty_sequence_is_the_degree_0_permutation(image):
    p = Permutation(image)
    assert p.degree == 0 and p == Permutation.identity(0)
    assert p.array.dtype == np.int64


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


@st.composite
def image_arrays(draw):
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.permutations(list(range(n))), max_size=6))
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    return np.array(rows, dtype=dtype).reshape(len(rows), n)


@given(image_arrays())
def test_rows_match_one_permutation_per_row(images):
    perms = Permutation.rows(images)
    singles = [Permutation(row) for row in images]
    assert len(perms) == len(singles)
    for p, s, row in zip(perms, singles, images.tolist()):
        assert p == s and hash(p) == hash(s)
        assert p.image == s.image == tuple(row)
        arr = p.array
        assert arr.dtype == np.int64 and not arr.flags.writeable
        assert (arr == s.array).all()
        assert p.array is arr                     # built once
        assert p.inverse() == s.inverse()
        for t, u in zip(perms, singles):
            assert (p < t) == (s < u)
            assert p * t == s * u and p * u == s * t


def test_rows_reject_anything_but_rows_of_bijections():
    with pytest.raises(ValueError):
        Permutation.rows(np.array([[0, 1, 2], [0, 0, 2]]))    # repeated symbol
    with pytest.raises(ValueError):
        Permutation.rows(np.array([[0, 1, 2], [1, 2, 3]]))    # symbol out of range
    with pytest.raises(ValueError):
        Permutation.rows(np.array([0, 1, 2]))                 # one row, not a 2-D array
    with pytest.raises(ValueError):
        Permutation.rows(np.array([[0.0, 1.0]]))              # not integers


def test_rows_of_an_empty_array():
    assert Permutation.rows(np.empty((0, 5), dtype=np.int64)) == []
