"""Finite abelian groups and the subtraction quasigroups they induce.

The central constructions: ``subtraction_quasigroup`` builds x*y = x - y over
a group, and ``recover_group`` inverts it, extracting the unique abelian group
hiding inside any quasigroup of that shape (the addition is rebuilt as
x + y := x*(e*y) where e is the right unit, and every group axiom plus the
x - y representation is verified explicitly).  ``automorphism_group`` reads
the group off the stabilizer chain that ``quasigroup`` builds for the
addition table: a few first-match searches, one per base point and image,
whose transversals multiply out to the whole group.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BadSymbol,
    NoRightUnit,
    NotAbelianGroup,
    NotLatin,
    NotSquare,
    RepresentationMismatch,
)
from .identities import _first_violation, builtin
from .permutations import Permutation
from .quasigroup import AUTOMORPHISM_MAX_ORDER, Quasigroup, _check_cells, _check_order

__all__ = [
    "AbelianGroup",
    "cyclic",
    "direct_product",
    "enumerate_abelian_groups",
    "automorphism_group",
    "subtraction_quasigroup",
    "recover_group",
    "two_torsion",
    "core_groupoid",
]

ENUMERATION_MAX_ORDER = 64


class AbelianGroup(Quasigroup):
    """Immutable abelian group: the quasigroup of its addition table.

    Construction validates the table as a ``Quasigroup``, then the group
    axioms (two-sided unit, and the catalog's commutative and associative
    laws); ``zero`` and the negation map are derived from the table.
    """

    __slots__ = ("_zero", "_neg", "factors")

    def __init__(self, table, factors: Optional[tuple[int, ...]] = None,
                 label: Optional[str] = None):
        try:
            super().__init__(table, label=label)
        except NotSquare:
            raise NotAbelianGroup("table shape") from None
        except BadSymbol as exc:
            raise NotAbelianGroup(f"entries ({exc})") from None
        except NotLatin as exc:
            raise NotAbelianGroup(f"Latin property ({exc})") from None
        self.factors = factors

    def _fill(self, table: np.ndarray, label: Optional[str]) -> None:
        """Wrap a Latin table over 0..n-1, then check the group axioms and
        derive ``zero`` and ``neg``; ``Quasigroup._checked`` reaches this
        without the Latin check."""
        super()._fill(table, label)
        arr = self.table
        idx = np.arange(self.order)
        units = np.nonzero((arr == idx[None, :]).all(axis=1) & (arr == idx[:, None]).all(axis=0))[0]
        if not units.size:
            raise NotAbelianGroup("two-sided unit exists")
        zero = int(units[0])
        for axiom, law in (("commutativity", "commutative"), ("associativity", "associative")):
            bad = _first_violation(self, builtin(law))
            if bad is not None:
                raise NotAbelianGroup(axiom, bad)
        neg = (arr == zero).argmax(axis=1).astype(np.int64)
        neg.setflags(write=False)
        self._zero = zero
        self._neg = neg
        self.factors = None

    @property
    def zero(self) -> int:
        return self._zero

    @property
    def neg(self) -> np.ndarray:
        """Negation map as an array: neg[a] = -a."""
        return self._neg

    def add(self, a: int, b: int) -> int:
        return self.mul(a, b)

    def negate(self, a: int) -> int:
        self._check_elem(a)
        return int(self._neg[a])

    def __repr__(self) -> str:
        tag = self.label or f"order {self.order}"
        return f"AbelianGroup({tag})"


def cyclic(n: int) -> AbelianGroup:
    """Z_n with addition mod n."""
    if n < 1:
        raise NotAbelianGroup(f"order must be positive, got {n}")
    _check_cells(n, 3)   # the associativity check, before the n^2 table
    idx = np.arange(n)
    return AbelianGroup((idx[:, None] + idx[None, :]) % n, factors=(n,), label=f"Z{n}")


def direct_product(groups: Sequence[AbelianGroup]) -> AbelianGroup:
    """Componentwise sum; elements encoded mixed-radix, first factor most
    significant (C order of the coordinate tuple)."""
    if not groups:
        raise NotAbelianGroup("direct product needs at least one factor")
    if len(groups) == 1:
        return groups[0]
    sizes = tuple(g.order for g in groups)
    _check_cells(math.prod(sizes), 3)
    coords = [c.ravel() for c in np.indices(sizes)]
    sums = [g.table[coords[i][:, None], coords[i][None, :]] for i, g in enumerate(groups)]
    table = np.ravel_multi_index(sums, sizes)
    factors = tuple(itertools.chain.from_iterable(g.factors or (g.order,) for g in groups))
    label = "x".join(g.label or f"?{g.order}" for g in groups)
    return AbelianGroup(table, factors=factors, label=label)


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _partitions_desc(e: int) -> list[tuple[int, ...]]:
    """Partitions of e in descending lexicographic order: (e), (e-1,1), ..."""
    if e == 0:
        return [()]
    out = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(cap, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(e, e, ())
    return out


def enumerate_abelian_groups(n: int, max_order: int = ENUMERATION_MAX_ORDER) -> list[AbelianGroup]:
    """One representative per isomorphism class of abelian groups of order n.

    Classes correspond to a choice of partition of each prime exponent;
    output follows descending partition order per prime, primes ascending.
    """
    _check_order(n, max_order, "enumeration")
    if n < 1:
        raise NotAbelianGroup(f"order must be positive, got {n}")
    if n == 1:
        return [cyclic(1)]
    primes = sorted(_factorint(n).items())
    per_prime = [[tuple(p**a for a in part) for part in _partitions_desc(e)] for p, e in primes]
    groups = []
    for combo in itertools.product(*per_prime):
        orders = tuple(itertools.chain.from_iterable(combo))
        groups.append(direct_product([cyclic(m) for m in orders]))
    return groups


def automorphism_group(g: AbelianGroup, max_order: int = AUTOMORPHISM_MAX_ORDER) -> list[Permutation]:
    """All bijections preserving addition (so fixing zero), sorted by image.

    Each automorphism is fixed by the images of a generating set, the base
    of the stabilizer chain that the shared isomorphism search builds; the
    identity comes first and the rest follow in the chain's sorted order.
    """
    _check_order(g.order, max_order, "automorphism")
    return Permutation.rows(g.labeled.images)


def subtraction_quasigroup(g: AbelianGroup) -> Quasigroup:
    """The quasigroup x*y = x + (-y) over ``g``."""
    table = g.table[:, g.neg]
    return Quasigroup(table, label=f"{g.label or f'order-{g.order} group'} subtraction")


def recover_group(q: Quasigroup) -> AbelianGroup:
    """Extract the abelian group with q.mul(x, y) == x - y, or fail loudly.

    The addition is defined as x + y := x*(e*y) for the right unit e (under
    x*y = x - y one has e = 0 and e*y = -y, so this is x + y).  Raises
    :class:`NoRightUnit`, :class:`NotAbelianGroup` (with the first failing
    pair/triple) or :class:`RepresentationMismatch`.
    """
    t = q.table
    n = q.order
    idx = np.arange(n)
    right_units = np.nonzero((t == idx[:, None]).all(axis=0))[0]
    if not right_units.size:
        raise NoRightUnit(f"no column of the table is the identity map")
    e = int(right_units[0])
    # add permutes the columns of a Latin square, so it is Latin and needs
    # only the group axioms
    group = AbelianGroup._checked(t[:, t[e]], label=f"recovered from {q.label or 'table'}")
    bad = np.argwhere(t != group.table[:, group.neg])
    if bad.size:
        x, y = (int(v) for v in bad[0])
        raise RepresentationMismatch(x, y)
    return group


def two_torsion(g: AbelianGroup) -> set[int]:
    """Elements with a + a = 0."""
    diag = g.table[np.arange(g.order), np.arange(g.order)]
    return {int(a) for a in np.nonzero(diag == g.zero)[0]}


def core_groupoid(q: Quasigroup) -> np.ndarray:
    """The magma x o y = x*(y*x) as a raw table (not Latin in general)."""
    n = q.order
    t = q.table
    core = t[np.arange(n)[:, None], t.T]
    core.setflags(write=False)
    return core
