import numpy as np
import pytest

from quasilab import Quasigroup, cyclic, parse_group_spec, structure, subtraction_quasigroup


def addition_table(n: int) -> np.ndarray:
    idx = np.arange(n)
    return (idx[:, None] + idx[None, :]) % n


@pytest.fixture
def z3_add():
    return Quasigroup(addition_table(3), label="Z3 addition")


@pytest.fixture
def z5_add():
    return Quasigroup(addition_table(5), label="Z5 addition")


@pytest.fixture
def z3_sub():
    return subtraction_quasigroup(cyclic(3))


@pytest.fixture
def z4_sub():
    return subtraction_quasigroup(cyclic(4))


@pytest.fixture
def z5_sub():
    return subtraction_quasigroup(cyclic(5))


@pytest.fixture
def z6_sub():
    return subtraction_quasigroup(cyclic(6))


@pytest.fixture
def z22_sub():
    return subtraction_quasigroup(parse_group_spec("Z2xZ2"))


@pytest.fixture
def no_right_unit_q5():
    # x*y = 2x + y mod 5: rows and columns are permutations, but x*e = x
    # would need e = -x, so there is no right unit.
    n = 5
    return Quasigroup([[(2 * x + y) % n for y in range(n)] for x in range(n)])


@pytest.fixture
def forged_autotopies(monkeypatch):
    """``structure._autotopy_images`` with its last row swapped for
    (e, e, (0 1)), which no (L+_a, L+_(-b), L+_(a+b)).theta is: alpha = e
    and beta = e force a = b = 0 and theta = e, so gamma = e."""
    cached = structure._autotopy_images

    def forged(q, *args, **kwargs):
        images = cached(q, *args, **kwargs).copy()
        images[-1] = [range(q.order), range(q.order), [1, 0, *range(2, q.order)]]
        return images

    monkeypatch.setattr(structure, "_autotopy_images", forged)
