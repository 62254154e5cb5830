"""Permutations of {0..n-1}: composition, inversion, orbits.

Used throughout for translations, isotopies, autotopies and automorphisms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np


class Permutation:
    """An immutable bijection of {0..n-1}, stored as its image sequence.

    ``p.image[x]`` is p(x).  Composition follows the usual convention
    ``(p * q)(x) == p(q(x))``: the right factor acts first.
    """

    __slots__ = ("_image", "_array")

    def __init__(self, image: Sequence[int] | np.ndarray):
        try:
            arr = np.array(image, dtype=np.int64)
        except TypeError:  # an iterator, or another Permutation
            arr = np.array(list(image), dtype=np.int64)
        img = tuple(arr.tolist())
        if arr.ndim != 1 or sorted(img) != list(range(len(img))):
            raise ValueError(f"not a bijection of 0..{len(img) - 1}: {img}")
        arr.setflags(write=False)
        self._image = img
        self._array = arr

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @property
    def image(self) -> tuple[int, ...]:
        return self._image

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view, handy for table indexing."""
        return self._array

    @property
    def degree(self) -> int:
        return len(self._image)

    def __call__(self, x: int) -> int:
        return self._image[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(self._array[other._array])

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self._array))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self._image))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._image == other._image

    def __lt__(self, other: "Permutation") -> bool:
        return self._image < other._image

    def __hash__(self) -> int:
        return hash(self._image)

    def __iter__(self) -> Iterator[int]:
        return iter(self._image)

    def __repr__(self) -> str:
        return f"Permutation({list(self._image)})"


def orbit(start: int, perms: Iterable[Permutation]) -> set[int]:
    """Orbit of ``start`` under the group generated by ``perms``.

    Forward closure suffices: in a finite symmetric group every generator's
    inverse is one of its powers.
    """
    gens = list(perms)
    seen = {start}
    frontier = [start]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g(x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen
