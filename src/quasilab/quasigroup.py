"""Finite quasigroups as validated Cayley tables.

A quasigroup of order n is an n x n Latin square over {0..n-1}; entry
``table[x][y]`` is the product x*y.  Left and right division are derived
tables, computed lazily and cached (instances are immutable, so the fill is
idempotent and safe under concurrent use), and so is the table's
``_Labeled`` record.

The module owns the evaluation budget and the canonical-form and
automorphism bounds; ``_check_order`` is every bound's one refusal,
"order N above <kind> bound M".  ``_associative`` decides associativity by
Light's test on the generating set of ``_generators``, in at most
(floor(log2 n) + 1) comparisons of n x n tables.

``_labelings`` is the one search over relabelings; canonical forms,
isomorphisms, automorphisms and autotopies all walk it.  ``_Labeled`` is
the one record per table behind every isomorphism and automorphism query:
one labeling, Aut as a stabilizer chain over its branch choices from at
most (floor(log2 n) + 1) * n first-match searches, |Aut| as the product of
the transversal sizes, and the sorted image array only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from .errors import BadSymbol, DegreeMismatch, NotLatin, NotSquare, OrderTooLarge, OutOfRange
from .permutations import Permutation

__all__ = [
    "Quasigroup",
    "ParastropheSelector",
    "UnitProfile",
    "from_table",
]


_PARASTROPHE_NAMES = {
    "e": (1, 2, 3),
    "id": (1, 2, 3),
    "(12)": (2, 1, 3),
    "(13)": (3, 2, 1),
    "(23)": (1, 3, 2),
    "(123)": (2, 3, 1),
    "(132)": (3, 1, 2),
}


# Cells one exhaustive evaluation may span: 64^4, so 4-variable laws run up
# to order 64 (the abelian-group enumeration bound), 3-variable ones to 256.
CELL_BUDGET = 2**24
CANONICAL_MAX_ORDER = 16      # full _labelings walks: canonical_key, find --up-to-iso
AUTOMORPHISM_MAX_ORDER = 16   # _Labeled.images


def _check_cells(n: int, k: int) -> None:
    """Refuse an evaluation over n^k cells above the budget, before it allocates."""
    if n**k > CELL_BUDGET:
        raise OrderTooLarge(f"order {n}: a {k}-variable law spans {n}^{k} cells, "
                            f"above the evaluation budget of {CELL_BUDGET}")


def _check_order(n: int, max_order: int, bound: str) -> None:
    """Refuse an order-n walk above its ``bound`` kind's ``max_order``."""
    if n > max_order:
        raise OrderTooLarge(f"order {n} above {bound} bound {max_order}")


def _check_degree(n: int, *perms: Permutation) -> None:
    """Refuse permutations whose degree is not the order n."""
    for p in perms:
        if p.degree != n:
            raise DegreeMismatch(f"permutation degree {p.degree} != order {n}")


def _table_key(table: np.ndarray) -> bytes:
    """Row-major bytes of an order-n table, in the narrowest unsigned dtype
    that holds n - 1 (one byte per cell up to order 256).  Wider cells are
    big-endian, so byte order is lexicographic table order at every order.
    """
    dtype = np.min_scalar_type(table.shape[0] - 1).newbyteorder(">")
    return table.astype(dtype).tobytes()


def _lex_sorted(stack: np.ndarray) -> np.ndarray:
    """The (m, ...) stack with its rows in lexicographic order of their
    row-major entries, read-only; an empty stack gives an empty one."""
    ordered = stack[np.lexsort(stack.reshape(len(stack), int(np.prod(stack.shape[1:]))).T[::-1])]
    ordered.setflags(write=False)
    return ordered


def _all_latin(tables: np.ndarray) -> bool:
    """True iff each (n, n) table of an (m, n, n) integer stack is a Latin
    square over 0..n-1: entries in range, and each row and each column holds
    every symbol.  ``Quasigroup._check_latin`` runs the same test on one
    table without the stack axis, which costs a third less per table."""
    m, n = tables.shape[:2]
    if not (np.issubdtype(tables.dtype, np.integer) and tables.min() >= 0 and tables.max() < n):
        return False
    i = np.arange(m)[:, None, None]
    idx = np.arange(n)
    hits = np.zeros((2, m, n, n), dtype=bool)
    hits[0, i, idx[:, None], tables] = True     # table i, row r holds symbol s
    hits[1, i, idx, tables] = True              # table i, column c holds symbol s
    return bool(hits.all())


def _units(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left and right unit masks of each (n, n) table of a stack: e is a left
    unit where row e is the identity map, a right unit where column e is."""
    idx = np.arange(tables.shape[-1])
    return (tables == idx).all(axis=-1), (tables == idx[:, None]).all(axis=-2)


def _generators(t: np.ndarray) -> Iterator[int]:
    """A generating set of the Latin square t, greedily: the least element
    outside the closure of those taken so far, until the closure is all of
    Q.  Each is yielded before its closure is computed, so a caller that
    stops early computes no more of it.  Each round multiplies only the
    pairs that hold a newly closed element, so the closures read at most
    2 * n^2 cells in all.  Each closure is a subquasigroup S, and a*S
    misses S for every a outside it, so each element taken at least
    doubles the closure and the set has at most floor(log2 n) + 1 members
    (G. L. Miller, STOC 1978)."""
    n = len(t)
    closed = np.zeros(n, dtype=bool)
    while not closed.all():
        g = int(closed.argmin())
        yield g
        closed[g] = True
        new = np.array([g])
        while new.size:
            before = closed.copy()
            inside = np.flatnonzero(closed)
            closed[t[new[:, None], inside]] = True
            closed[t[inside[:, None], new]] = True
            new = np.flatnonzero(closed > before)


def _associative(t: np.ndarray) -> bool:
    """True iff the Latin square t is associative, by Light's test (A. H.
    Clifford and G. B. Preston, The Algebraic Theory of Semigroups I, 1961,
    section 1.2): (x*g)*y = x*(g*y) for every generator g of ``_generators``
    and all x, y, one n x n comparison per generator, stopping at the first
    that fails.

    Exact: the middle nucleus N = {m : (x*m)*y = x*(m*y) for all x, y} is
    closed under *.  For a, b in N, (x*(a*b))*y = ((x*a)*b)*y =
    (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y).  A nonempty *-closed subset of
    a finite quasigroup is a subquasigroup (y -> a*y is one to one on it,
    so onto it), so N holds the subquasigroup that the generators generate,
    which is Q.
    """
    return all(np.array_equal(t[t[:, g]], t[:, t[g]]) for g in _generators(t))


def _labelings(t, target=None, prefix: Sequence[int] = ()
               ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The generator-sequence labelings of a Latin square.

    Each branch gives the least unused label to one unlabeled element, then
    closes the labeled set over products: pairs in label order, x*y before
    y*x, each unlabeled product taking the next label.  Every ordered pair
    is visited once on the way to a leaf, filling in the relabeled table.
    Labels depend only on the table and the branch choices, so isomorphic
    tables yield the same relabeled tables.  A *-closed subset of a finite
    quasigroup is a subquasigroup, so the recursion is at most
    floor(log2 n) + 1 deep (G. L. Miller, STOC 1978).

    Yields each leaf's relabeled table (flat, row-major) and its label
    sequence (the elements in label order).  With a flat relabeled
    ``target``, a branch stops at the first visited cell that differs from
    it, so only the leaves that give the target are yielded.  The first
    ``len(prefix)`` branches take the given elements instead of trying each.
    """
    a = np.asarray(t).tolist()
    n = len(a)
    label = [-1] * n
    order: list[int] = []
    match = target is not None
    cells = list(target) if match else [0] * (n * n)

    def close(i: int) -> bool:
        while i < len(order):
            x = order[i]
            ax = a[x]
            for j in range(i + 1):
                y = order[j]
                p = ax[y]
                lp = label[p]
                if lp < 0:
                    lp = label[p] = len(order)
                    order.append(p)
                if not match:
                    cells[i * n + j] = lp
                elif cells[i * n + j] != lp:
                    return False
                p = a[y][x]
                lp = label[p]
                if lp < 0:
                    lp = label[p] = len(order)
                    order.append(p)
                if not match:
                    cells[j * n + i] = lp
                elif cells[j * n + i] != lp:
                    return False
            i += 1
        return True

    def extend(level: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if len(order) == n:
            yield (target if match else tuple(cells)), tuple(order)
            return
        depth = len(order)
        for g in (prefix[level],) if level < len(prefix) else range(n):
            if label[g] >= 0:
                continue
            label[g] = depth
            order.append(g)
            if close(depth):
                yield from extend(level + 1)
            for y in order[depth:]:
                label[y] = -1
            del order[depth:]

    return extend(0)


class _Labeled:
    """One table t, labeled once by its first labeling lambda1.  ``match`` is
    the one step from a matching labeling to a map; Aut is a stabilizer
    chain whose sorted image array is built only on request."""

    def __init__(self, t):
        self.t = t
        self.first, self.source = next(_labelings(t))
        self.rank = sorted(range(len(self.source)), key=self.source.__getitem__)   # rank[x] = lambda1(x)

    def match(self, t2, prefix: Sequence[int] = ()) -> Optional[list[int]]:
        """The least bijection phi with phi(t[x][y]) = t2[phi x][phi y] whose
        labeling of t2 branches first on ``prefix``, as images, or None.

        phi = lambda2^-1 . lambda1 for the first labeling lambda2 of t2 that
        gives lambda1's relabeled table.  lambda1 labels the least unlabeled
        element at every depth, so every smaller element has its image when
        the next one is branched on, and the first match is the least.
        """
        found = next(_labelings(t2, self.first, prefix), None)
        return None if found is None else [found[1][r] for r in self.rank]

    @cached_property
    def transversals(self) -> list[list[list[int]]]:
        """Aut(t) as a stabilizer chain over lambda1's branch choices.

        The branch choices b1..bk are a base: an automorphism fixing them
        fixes the closure, which is everything.  For each level i and each h
        other than bi outside the closure of b1..b(i-1), one first match
        with the forced prefix (b1..b(i-1), h) finds a transversal element
        u(i, h), which fixes b1..b(i-1) and sends bi to h, or proves that
        none exists (C. C. Sims, 1970).  Every automorphism is uniquely
        u(1, .) . ... . u(k, .): at most k * n searches instead of one leaf
        per element.
        """
        first, source = self.first, self.source
        n = len(source)
        # a closure gives each label it assigns to a product of smaller
        # labels, so the branch depths are the labels no such product takes
        depths = []
        products: set[int] = set()
        for d in range(n):
            if d not in products:
                depths.append(d)
            products.update(first[d * n:d * n + d + 1], first[d:d * n:n])   # row d, column d
        base = [source[d] for d in depths]
        levels = []
        for i, d in enumerate(depths):
            level = [list(range(n))]      # u(i, bi) is the identity
            # b1..b(i-1) close over source[:d], which u(i, .) fixes
            for h in source[d + 1:]:
                u = self.match(self.t, base[:i] + [h])
                if u is not None:
                    level.append(u)
            levels.append(level)
        return levels

    @cached_property
    def images(self) -> np.ndarray:
        """Aut(t) as a sorted (|Aut|, n) array of images, identity first, in
        the narrowest unsigned dtype that holds n - 1."""
        n = len(self.source)
        dtype = np.min_scalar_type(n - 1)
        images = np.arange(n, dtype=dtype)[None, :]
        for level in reversed(self.transversals):
            # (u . w)(x) = u(w(x)) for every u on this level and w below it
            images = np.asarray(level, dtype=dtype)[:, images].reshape(-1, n)
        return _lex_sorted(images)

    def isomorphisms(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every isomorphism onto each table of a (k, n, n) stack, as the
        target index of each and its row of images, targets in stack order:
        per target the least, gamma0, first, then gamma0 . alpha for every
        other automorphism alpha of t, in lexicographic order of alpha.  A
        target without one costs one search and builds no part of Aut."""
        n = len(self.source)
        found = [(k, gamma0) for k, t2 in enumerate(targets) if (gamma0 := self.match(t2)) is not None]
        if not found:
            return np.empty(0, dtype=np.intp), np.empty((0, n), dtype=np.intp)
        which, gamma0s = zip(*found)
        return (np.repeat(np.asarray(which, dtype=np.intp), len(self.images)),
                np.asarray(gamma0s, dtype=self.images.dtype)[:, self.images].reshape(-1, n))


@dataclass(frozen=True)
class ParastropheSelector:
    """A permutation of the three slots of the relation x1*x2 = x3.

    ``sigma`` is the image tuple (sigma(1), sigma(2), sigma(3)).  The derived
    operation o satisfies  x_sigma(1) o x_sigma(2) = x_sigma(3)  whenever
    x1*x2 = x3; e.g. the (13)-parastrophe is  a o b = c  iff  c*b = a.
    """

    sigma: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.sigma) != [1, 2, 3]:
            raise ValueError(f"selector must permute (1, 2, 3), got {self.sigma}")

    @classmethod
    def from_name(cls, name: str) -> "ParastropheSelector":
        try:
            return cls(_PARASTROPHE_NAMES[name])
        except KeyError:
            raise ValueError(
                f"unknown parastrophe name {name!r}; known: {sorted(_PARASTROPHE_NAMES)}"
            ) from None

    @classmethod
    def identity(cls) -> "ParastropheSelector":
        return cls((1, 2, 3))

    def __mul__(self, inner: "ParastropheSelector") -> "ParastropheSelector":
        """Combined selector: parastrophe(parastrophe(q, inner), self)
        equals parastrophe(q, self * inner)."""
        s, t = self.sigma, inner.sigma
        return ParastropheSelector((t[s[0] - 1], t[s[1] - 1], t[s[2] - 1]))

    @property
    def name(self) -> str:
        for k, v in _PARASTROPHE_NAMES.items():
            if v == self.sigma and k != "id":
                return k
        raise AssertionError("unreachable")


SelectorLike = Union[ParastropheSelector, str, tuple]


def _as_selector(sel: SelectorLike) -> ParastropheSelector:
    if isinstance(sel, ParastropheSelector):
        return sel
    if isinstance(sel, str):
        return ParastropheSelector.from_name(sel)
    return ParastropheSelector(tuple(sel))


def _parastrophes(tables: np.ndarray, sel: SelectorLike) -> np.ndarray:
    """The parastrophes of each (n, n) table of an (m, n, n) Latin stack, as
    an int64 stack: the slots of x1*x2 = x3 permuted by one scatter."""
    s = _as_selector(sel).sigma
    triple = (*np.indices(tables.shape[1:]), tables)
    new = np.empty(tables.shape, dtype=np.int64)
    new[np.arange(len(tables))[:, None, None], triple[s[0] - 1], triple[s[1] - 1]] = triple[s[2] - 1]
    return new


@dataclass(frozen=True)
class UnitProfile:
    """Unit elements and basic equational facts read off one table scan."""

    left_unit: Optional[int]
    right_unit: Optional[int]
    is_loop: bool
    is_unipotent: bool
    is_commutative: bool
    is_associative: bool


class Quasigroup:
    """Immutable finite quasigroup over the carrier {0..n-1}."""

    __slots__ = ("_table", "_label", "_ldiv", "_rdiv", "_labeled")

    def __init__(self, rows, label: Optional[str] = None):
        try:
            arr = np.asarray(rows)
        except ValueError:
            raise NotSquare("ragged rows: need a square matrix") from None
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise NotSquare(f"need a nonempty square matrix, got shape {getattr(arr, 'shape', None)}")
        self._check_symbols(arr)
        table = arr.astype(np.int64)
        self._check_latin(table)
        self._fill(table, label)

    @classmethod
    def _checked(cls, table: np.ndarray, label: Optional[str] = None) -> "Quasigroup":
        """Wrap an int64 table that the caller has already checked to be
        Latin over 0..n-1, without checking it again."""
        q = cls.__new__(cls)
        q._fill(table, label)
        return q

    def _fill(self, table: np.ndarray, label: Optional[str]) -> None:
        table.setflags(write=False)
        self._table = table
        self._label = label
        self._ldiv = None
        self._rdiv = None
        self._labeled = None

    @staticmethod
    def _check_symbols(arr: np.ndarray) -> None:
        """Integer entries in 0..n-1, checked before any cast or lookup."""
        if not np.issubdtype(arr.dtype, np.integer):
            if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
                raise BadSymbol("entries must be integers, not floats")
            raise BadSymbol(f"entries must be integers, got dtype {arr.dtype}")
        n = arr.shape[0]
        if arr.min() >= 0 and arr.max() < n:
            return
        r, c = (int(v) for v in np.argwhere((arr < 0) | (arr >= n))[0])
        raise BadSymbol(f"entry {int(arr[r, c])} at ({r}, {c}) outside 0..{n - 1}")

    @staticmethod
    def _check_latin(table: np.ndarray) -> None:
        """Every row and every column holds every symbol; entries must already
        be in 0..n-1 (``_check_symbols``).  On failure, names the first
        defect: rows before columns, lowest index first, the smallest
        repeated symbol and its first two positions."""
        n = table.shape[0]
        idx = np.arange(n)
        hits = np.zeros((2, n, n), dtype=bool)
        hits[0, idx[:, None], table] = True     # row r holds symbol s
        hits[1, idx, table] = True              # column c holds symbol s
        if hits.all():
            return
        for axis, lines in (("row", table), ("column", table.T)):
            for i, line in enumerate(lines):
                counts = np.bincount(line, minlength=n)
                if counts.max() > 1:
                    s = int(np.argmax(counts > 1))
                    j1, j2 = np.nonzero(line == s)[0][:2]
                    raise NotLatin(axis, i, s, (int(j1), int(j2)))

    # -- basic access ----------------------------------------------------------

    @property
    def order(self) -> int:
        return int(self._table.shape[0])

    @property
    def table(self) -> np.ndarray:
        """Read-only n x n Cayley table."""
        return self._table

    @property
    def label(self) -> Optional[str]:
        return self._label

    def to_lists(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self._table]

    def _check_elem(self, *xs: int) -> None:
        n = self.order
        for x in xs:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < n:
                raise OutOfRange(f"element {x} outside 0..{n - 1}")

    # -- operation and divisions -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        """x*y by table lookup."""
        self._check_elem(x, y)
        return int(self._table[x, y])

    @property
    def ldiv_table(self) -> np.ndarray:
        # argsort of a permutation row is its inverse: position of each value.
        if self._ldiv is None:
            t = np.argsort(self._table, axis=1)
            t.setflags(write=False)
            self._ldiv = t
        return self._ldiv

    @property
    def rdiv_table(self) -> np.ndarray:
        if self._rdiv is None:
            t = np.argsort(self._table, axis=0)
            t.setflags(write=False)
            self._rdiv = t
        return self._rdiv

    @property
    def labeled(self) -> _Labeled:
        """The table's one ``_Labeled`` record, shared by every isomorphism
        and automorphism query on it."""
        if self._labeled is None:
            self._labeled = _Labeled(self._table)
        return self._labeled

    def ldiv(self, x: int, y: int) -> int:
        """x \\ y: the unique z with x*z = y."""
        self._check_elem(x, y)
        return int(self.ldiv_table[x, y])

    def rdiv(self, x: int, y: int) -> int:
        """x / y: the unique z with z*y = x.

        Note the argument convention: the dividend comes first, so
        ``rdiv(x, y)`` solves z*y = x. The usual reading "y / x" is
        ``rdiv(y, x)``.
        """
        self._check_elem(x, y)
        return int(self.rdiv_table[x, y])

    # -- translations, parastrophes, isotopes -------------------------------------

    def translation(self, side: str, a: int) -> Permutation:
        """Left translation y -> a*y or right translation x -> x*a."""
        self._check_elem(a)
        if side == "left":
            return Permutation(self._table[a])
        if side == "right":
            return Permutation(self._table[:, a])
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def left_translation(self, a: int) -> Permutation:
        return self.translation("left", a)

    def right_translation(self, a: int) -> Permutation:
        return self.translation("right", a)

    def parastrophe(self, sel: SelectorLike) -> "Quasigroup":
        """Conjugate quasigroup obtained by permuting the slots of x1*x2 = x3."""
        return Quasigroup(_parastrophes(self._table[None], sel)[0])

    def isotope(self, alpha: Permutation, beta: Permutation, gamma: Permutation) -> "Quasigroup":
        """Quasigroup o with gamma(x o y) = alpha(x) * beta(y)."""
        _check_degree(self.order, alpha, beta, gamma)
        ginv = gamma.inverse().array
        new = ginv[self._table[np.ix_(alpha.array, beta.array)]]
        return Quasigroup(new)

    # -- predicates ---------------------------------------------------------------

    def unit_predicates(self) -> UnitProfile:
        t = self._table
        _check_cells(self.order, 3)
        left_unit, right_unit = (int(m.argmax()) if m.any() else None for m in _units(t))
        diag = np.diagonal(t)
        return UnitProfile(
            left_unit=left_unit,
            right_unit=right_unit,
            is_loop=left_unit is not None and left_unit == right_unit,
            is_unipotent=bool((diag == diag[0]).all()),
            is_commutative=bool((t == t.T).all()),
            is_associative=_associative(t),
        )

    # -- value semantics ------------------------------------------------------------

    def key(self) -> bytes:
        """Canonical hashable key: the row-major table bytes; sorting keys
        sorts tables lexicographically."""
        return _table_key(self._table)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quasigroup)
            and self.order == other.order
            and bool((self._table == other._table).all())
        )

    def __hash__(self) -> int:
        return hash((self.order, self.key()))

    def __repr__(self) -> str:
        tag = f" {self._label!r}" if self._label else ""
        return f"Quasigroup(order={self.order}{tag})"

    def __str__(self) -> str:
        head = f"# {self._label}\n" if self._label else ""
        return head + "\n".join(" ".join(str(int(v)) for v in row) for row in self._table)


def from_table(n: int, rows: Sequence[Sequence[int]], label: Optional[str] = None) -> Quasigroup:
    """Validate ``rows`` as an order-``n`` Cayley table and wrap it."""
    if n < 1:
        raise NotSquare(f"order must be positive, got {n}")
    rows = list(rows)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise NotSquare(f"expected {n} rows of {n} entries")
    return Quasigroup(rows, label=label)
