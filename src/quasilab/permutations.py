"""Permutations of {0..n-1}: composition, inversion, orbits.

Used throughout for translations, isotopies, autotopies and automorphisms.
A single permutation is checked and stored by its constructor; a whole group
listed as a 2-D image array becomes permutations in one pass,
``Permutation.rows``, which checks every row at once and keeps only each
row's image tuple.  The numpy form of a permutation, ``array``, is built on
first use.
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
        # iterators are listed first; numpy reads [] as floats, other floats and bools are refused
        arr = np.array(image if isinstance(image, (Sequence, np.ndarray)) else list(image))
        img = tuple(arr.tolist())
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu") or sorted(img) != list(range(len(img))):
            raise ValueError(f"not a bijection of 0..{len(img) - 1}: {img}")
        arr = arr.astype(np.int64, copy=False)
        arr.setflags(write=False)
        self._image = img
        self._array = arr

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def rows(cls, images: np.ndarray) -> list["Permutation"]:
        """One permutation per row of a 2-D integer image array, in row order.

        Every row is checked to be a bijection by one vectorised test before
        any element is built; each element then holds only its image tuple.
        """
        arr = np.asarray(images)
        # an empty array has no row to sort; structure.pseudoautomorphisms
        # passes one for a side without a pseudoautomorphism
        if (arr.ndim != 2 or arr.dtype.kind not in "iu"
                or (arr.size and not (np.sort(arr, axis=1) == np.arange(arr.shape[1])).all())):
            raise ValueError(f"not a 2-D integer array of bijections, shape {arr.shape}")
        new = object.__new__
        perms = []
        for row in arr.tolist():
            p = new(cls)
            p._image = tuple(row)
            perms.append(p)
        return perms

    @property
    def image(self) -> tuple[int, ...]:
        return self._image

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 images, handy for table indexing.

        Built from the image tuple on first use when the permutation came
        from ``rows``; the constructor keeps the array it checked.
        """
        arr = getattr(self, "_array", None)
        if arr is None:
            arr = np.array(self._image, dtype=np.int64)
            arr.setflags(write=False)
            self._array = arr
        return arr

    @property
    def degree(self) -> int:
        return len(self._image)

    def __call__(self, x: int) -> int:
        return self._image[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("cannot compose permutations of different degree")
        return Permutation(self.array[other.array])

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.array))

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
