"""Autotopies, pseudoautomorphisms, nuclei and structural predicates.

Autotopies, automorphisms, ``isomorphic`` and ``canonical_key`` all come
from one search, ``quasigroup._labelings``, which branches only on
generating sequences; nothing here scans all n! permutations.
``canonical_key`` is the least relabeled table.  Every other query reads
the ``quasigroup._Labeled`` record its source Quasigroup keeps
(``Quasigroup.labeled``), so a table is labeled once however many queries
ask: ``isomorphic`` takes its first match, ``automorphism_count``
multiplies the transversal sizes of its stabilizer chain, and
``automorphisms`` lists its image array.  ``_Labeled.isomorphisms``
matches a record against a stack of targets.  An autotopy (alpha, beta,
gamma) is an isomorphism gamma from the principal isotope P_00 onto P_ab,
where P_ab is x o y = (x/a) * (b\\y), a = beta(0) and b = alpha(0): P_00
is matched against the stack of all n^2 P_ab, and alpha and beta are read
off all gamma by two gathers.  The group is cached as one image array
sorted once; only the public lists build ``Autotopy`` objects.
One-sided pseudoautomorphisms are the isomorphisms from q onto a stack of
n derived squares per side, one per companion; only
``pseudoautomorphisms`` turns them into witnesses.
Nuclei are read off the failures of the catalog's associative law, and
the Bol, Moufang and core-distributive checks are catalog laws too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .abelian import AbelianGroup, recover_group
from .errors import EmptyList, NotDecomposable, OrderMismatch
from .identities import _blocks, _first_violation, builtin, holds
from .permutations import Permutation
from .quasigroup import (AUTOMORPHISM_MAX_ORDER, CANONICAL_MAX_ORDER, Quasigroup, _check_degree,
                         _check_order, _Labeled, _labelings, _lex_sorted, _table_key)

__all__ = [
    "Autotopy",
    "AutotopyDecomposition",
    "PseudoautomorphismWitness",
    "GAProfile",
    "GProfile",
    "DistributivityProfile",
    "is_autotopy",
    "autotopies",
    "automorphisms",
    "automorphism_count",
    "decompose_autotopy",
    "pseudoautomorphisms",
    "a_pseudoautomorphisms",
    "component_transitive",
    "is_ga",
    "is_g",
    "nuclei",
    "nucleus",
    "check_left_bol",
    "left_bol_counterexample",
    "check_moufang",
    "moufang_counterexample",
    "core_distributive",
    "isomorphic",
    "relabel",
    "canonical_key",
    "lp_isotope",
]

AUTOTOPY_MAX_ORDER = 7


@dataclass(frozen=True)
class Autotopy:
    """Permutation triple with gamma(x*y) = alpha(x)*beta(y)."""

    alpha: Permutation
    beta: Permutation
    gamma: Permutation

    @classmethod
    def identity(cls, n: int) -> "Autotopy":
        e = Permutation.identity(n)
        return cls(e, e, e)

    def component(self, which: int) -> Permutation:
        return (self.alpha, self.beta, self.gamma)[which - 1]

    def __mul__(self, other: "Autotopy") -> "Autotopy":
        return Autotopy(self.alpha * other.alpha, self.beta * other.beta, self.gamma * other.gamma)

    def inverse(self) -> "Autotopy":
        return Autotopy(self.alpha.inverse(), self.beta.inverse(), self.gamma.inverse())

    def sort_key(self):
        return (self.alpha.image, self.beta.image, self.gamma.image)


def is_autotopy(q: Quasigroup, t: Autotopy) -> bool:
    _check_degree(q.order, t.alpha, t.beta, t.gamma)
    tab = q.table
    lhs = t.gamma.array[tab]
    rhs = tab[np.ix_(t.alpha.array, t.beta.array)]
    return bool((lhs == rhs).all())


def autotopies(q: Quasigroup, max_order: int = AUTOTOPY_MAX_ORDER) -> list[Autotopy]:
    """Complete, duplicate-free, canonically sorted autotopy group of q.

    The enumeration is cached for the last few tables; each call returns a
    fresh list.
    """
    return _autotopy_list(_autotopy_images(q, max_order))


def _autotopy_images(q: Quasigroup, max_order: int = AUTOTOPY_MAX_ORDER) -> np.ndarray:
    """The cached (m, 3, n) autotopy image array of q, refused above ``max_order``."""
    _check_order(q.order, max_order, "autotopy")
    return _autotopy_group(q)


# Quasigroups are immutable and hash by table, so equal tables share an entry.
@functools.lru_cache(maxsize=8)
def _autotopy_group(q: Quasigroup) -> np.ndarray:
    """The autotopy group as a read-only (m, 3, n) image array in ``sort_key`` order."""
    n = q.order
    which, gammas = _Labeled(_principal_isotopes(q, 0, 0)).isomorphisms(    # gamma: P_00 -> P_ab
        _principal_isotopes(q, *np.divmod(np.arange(n * n), n)))
    a, b = np.divmod(which[:, None], n)
    return _lex_sorted(np.stack([q.rdiv_table[gammas[:, q.table[:, 0]], a],
                                 q.ldiv_table[b, gammas[:, q.table[0]]], gammas], axis=1))


def _principal_isotopes(q: Quasigroup, a, b) -> np.ndarray:
    """P_ab, x o y = (x/a) * (b\\y), by one gather: one (n, n) table for
    integers a and b, a stack of them for broadcast index arrays."""
    return q.table[q.rdiv_table.T[a][..., None], q.ldiv_table[b][..., None, :]]


def _autotopy_list(images: np.ndarray) -> list[Autotopy]:
    """Autotopies from (m, 3, n) images, in row order, in one checked pass."""
    return [Autotopy(*t) for t in zip(*(Permutation.rows(images[:, k]) for k in range(3)))]


def automorphisms(q: Quasigroup, max_order: int = AUTOMORPHISM_MAX_ORDER) -> list[Permutation]:
    """All alpha with (alpha, alpha, alpha) an autotopy, sorted by image."""
    _check_order(q.order, max_order, "automorphism")
    return Permutation.rows(q.labeled.images)


def automorphism_count(q: Quasigroup, max_order: int = AUTOMORPHISM_MAX_ORDER) -> int:
    """|Aut(q)|: the product of the stabilizer chain's transversal sizes."""
    _check_order(q.order, max_order, "automorphism")
    return math.prod(len(level) for level in q.labeled.transversals)


@dataclass(frozen=True)
class AutotopyDecomposition:
    """Factorisation (alpha, beta, gamma) = (L+_a, L+_(-b), L+_(a+b)) . theta
    over the recovered abelian group, theta a group automorphism."""

    a: int
    b: int
    theta: Permutation


def decompose_autotopy(q: Quasigroup, t: Autotopy,
                       group: Optional[AbelianGroup] = None) -> AutotopyDecomposition:
    """Factor an autotopy of a subtraction quasigroup through its group.

    ``a`` is read off as alpha(0), ``b`` as -beta(0) (0 meaning the group
    zero); theta is the remaining map, verified to be an automorphism and to
    reproduce all three components.  Raises :class:`NotDecomposable` if any
    verification fails, which would contradict the structure theory,
    :class:`DegreeMismatch` if a component's degree is not the order of q,
    and :class:`OrderMismatch` if ``group`` has another order than q.
    """
    _check_degree(q.order, t.alpha, t.beta, t.gamma)
    if group is not None and group.order != q.order:
        raise OrderMismatch(f"orders differ: {q.order} vs {group.order}")
    g = group if group is not None else recover_group(q)
    add = g.table
    zero = g.zero
    a = t.alpha(zero)
    nb = t.beta(zero)          # this is -b
    b = g.negate(nb)
    theta = add[g.negate(a)][t.alpha.array]   # theta(x) = -a + alpha(x)
    if not (theta[add] == add[np.ix_(theta, theta)]).all():
        raise NotDecomposable("residual map is not a group automorphism")
    if not (t.beta.array == add[nb][theta]).all():
        raise NotDecomposable("second component is not L+_(-b) . theta")
    ab = g.add(a, b)
    if not (t.gamma.array == add[ab][theta]).all():
        raise NotDecomposable("third component is not L+_(a+b) . theta")
    return AutotopyDecomposition(a=a, b=b, theta=Permutation(theta))


def _subtraction_images(g: AbelianGroup) -> np.ndarray:
    """Every (L+_a, L+_(-b), L+_(a+b)).theta over g, sorted like :func:`_autotopy_group`: one
    triple per (a, b, theta), never deduplicated, so it equals the autotopy array of x - y
    exactly when the factorisation is onto and one-to-one."""
    lt = g.table[:, g.labeled.images]        # lt[c, k] = L+_c . theta_k
    comps = np.broadcast_arrays(lt[:, None], lt[g.neg][None], lt[g.table])
    return _lex_sorted(np.stack(comps, axis=3).reshape(-1, 3, g.order))


@dataclass(frozen=True)
class PseudoautomorphismWitness:
    """theta with a companion c: right means (theta, R_c.theta, R_c.theta)
    is an autotopy, left means (L_c.theta, theta, L_c.theta) is."""

    theta: Permutation
    companion: int
    side: str

    def __post_init__(self):
        _check_side(self.side)

    def to_autotopy(self, q: Quasigroup) -> Autotopy:
        _check_degree(q.order, self.theta)
        if self.side == "right":
            r_c = q.right_translation(self.companion)
            return Autotopy(self.theta, r_c * self.theta, r_c * self.theta)
        l_c = q.left_translation(self.companion)
        return Autotopy(l_c * self.theta, self.theta, l_c * self.theta)


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def pseudoautomorphisms(q: Quasigroup, side: str,
                        max_order: int = AUTOTOPY_MAX_ORDER,
                        ) -> list[PseudoautomorphismWitness]:
    """All (theta, companion) pairs on the given side, sorted by theta's
    images and then by companion.

    (theta, R_c.theta, R_c.theta) is an autotopy iff theta is an isomorphism
    from q onto x o y = (x*(y*c))/c, and (L_c.theta, theta, L_c.theta) is one
    iff theta is an isomorphism from q onto x o y = c\\((c*x)*y).  Both are
    Latin squares, so each side matches q's record against the n derived
    squares.
    """
    _check_side(side)
    _check_order(q.order, max_order, "autotopy")
    companions, thetas = _companion_thetas(q, side)
    rows = _lex_sorted(np.column_stack([thetas, companions]))     # by theta's images, then companion
    return [PseudoautomorphismWitness(theta, c, side)
            for theta, c in zip(Permutation.rows(rows[:, :-1]), rows[:, -1].tolist())]


def _companion_thetas(q: Quasigroup, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The companion c and the images of theta for every isomorphism theta
    from q onto c's derived square, the side's n squares built by one gather."""
    tab = q.table
    idx = np.arange(q.order)
    c = idx[:, None, None]
    if side == "right":
        targets = q.rdiv_table[tab[idx[:, None], tab.T[:, None]], c]     # (x*(y*c))/c
    else:
        targets = q.ldiv_table[c, tab[tab]]                              # c\((c*x)*y)
    return q.labeled.isomorphisms(targets)


def a_pseudoautomorphisms(q: Quasigroup, side: str,
                          max_order: int = AUTOTOPY_MAX_ORDER) -> list[Autotopy]:
    """Autotopies of shape (alpha, beta, beta) (right) or (alpha, beta, alpha) (left)."""
    _check_side(side)
    images = _autotopy_images(q, max_order)
    return _autotopy_list(images[(images[:, 1 if side == "right" else 0] == images[:, 2]).all(axis=1)])


def component_transitive(ts: Sequence[Autotopy], which: int) -> bool:
    """Does the group generated by the chosen components act transitively?

    ``which`` selects the component (1, 2 or 3); the orbit of 0 under the
    closure of the selected permutations must be the whole carrier.
    """
    if which not in (1, 2, 3):
        raise ValueError(f"component must be 1, 2 or 3, got {which}")
    if not ts:
        raise EmptyList("no autotopies given")
    _check_degree(ts[0].component(which).degree, *(t.component(which) for t in ts))
    return _third_components_transitive(np.array([t.component(which).image for t in ts]))


@dataclass(frozen=True)
class GAProfile:
    left_ga: bool
    right_ga: bool
    ga: bool


@dataclass(frozen=True)
class GProfile:
    left_g: bool
    right_g: bool


def _third_components_transitive(gammas: np.ndarray) -> bool:
    """Is the group generated by the rows of an (m, n) image array transitive?"""
    seen = np.arange(gammas.shape[1]) == 0
    while not seen[gammas[:, seen]].all():
        seen[gammas[:, seen]] = True
    return bool(seen.all())


def is_ga(q: Quasigroup, max_order: int = AUTOTOPY_MAX_ORDER) -> GAProfile:
    """GA flags: transitivity of third components of A-pseudoautomorphisms."""
    images = _autotopy_images(q, max_order)
    right_ga = _third_components_transitive(images[(images[:, 1] == images[:, 2]).all(axis=1), 2])
    left_ga = _third_components_transitive(images[(images[:, 0] == images[:, 2]).all(axis=1), 2])
    return GAProfile(left_ga=left_ga, right_ga=right_ga, ga=left_ga and right_ga)


def is_g(q: Quasigroup, max_order: int = AUTOTOPY_MAX_ORDER) -> GProfile:
    """G flags: transitivity of third components R_c.theta (right) and L_c.theta (left)."""
    _check_order(q.order, max_order, "autotopy")
    (cr, right), (cl, left) = _companion_thetas(q, "right"), _companion_thetas(q, "left")
    return GProfile(left_g=_third_components_transitive(q.table[cl[:, None], left]),     # L_c.theta
                    right_g=_third_components_transitive(q.table[right, cr[:, None]]))   # R_c.theta


_NUCLEUS_AXIS = {"left": 0, "middle": 1, "right": 2}


def nuclei(q: Quasigroup) -> dict[str, set[int]]:
    """Left, middle and right nucleus from one evaluation of the catalog's
    associative law (x*y)*z = x*(y*z): the x, y or z at which it never
    fails, found block by block."""
    fails = np.zeros((3, q.order), dtype=bool)
    for where, bad in _blocks(q, builtin("associative"), range(3)):
        for axis in range(3):
            fails[axis, where[axis]] |= bad.any(axis=tuple(i for i in range(3) if i != axis))
    return {side: {int(a) for a in np.flatnonzero(~fails[axis])}
            for side, axis in _NUCLEUS_AXIS.items()}


def nucleus(q: Quasigroup, side: str) -> set[int]:
    """One side of :func:`nuclei`: "left", "middle" or "right"."""
    if side not in _NUCLEUS_AXIS:
        raise ValueError(f"side must be 'left', 'right' or 'middle', got {side!r}")
    return nuclei(q)[side]


def left_bol_counterexample(q: Quasigroup) -> Optional[tuple[int, int, int]]:
    """First (x, y, z) violating x(y.xz) = Rinv_{e_x}(x.yx) * z, where x*e_x = x."""
    return _first_violation(q, builtin("left_bol"))


def check_left_bol(q: Quasigroup) -> bool:
    return left_bol_counterexample(q) is None


def moufang_counterexample(q: Quasigroup) -> Optional[tuple[int, int, int]]:
    """First (x, y, z) violating x(y.xz) = ((x.y f_x)x) * z, where f_x*x = x."""
    return _first_violation(q, builtin("moufang"))


def check_moufang(q: Quasigroup) -> bool:
    return moufang_counterexample(q) is None


@dataclass(frozen=True)
class DistributivityProfile:
    left: bool
    right: bool


def core_distributive(q: Quasigroup) -> DistributivityProfile:
    """Both distributive laws of the core x o y = x*(y*x), as the catalog's
    ``core_left_distributive`` and ``core_right_distributive``."""
    return DistributivityProfile(
        left=holds(q, builtin("core_left_distributive")),
        right=holds(q, builtin("core_right_distributive")),
    )


def isomorphic(q1: Quasigroup, q2: Quasigroup) -> Optional[Permutation]:
    """A bijection phi with phi(x*y) = phi(x) o phi(y), or None.

    The lexicographically least such phi (by images) is returned.
    """
    if q1.order != q2.order:
        raise OrderMismatch(f"orders differ: {q1.order} vs {q2.order}")
    phi = q1.labeled.match(q2.table)
    return None if phi is None else Permutation(phi)


def relabel(q: Quasigroup, perm: Permutation) -> Quasigroup:
    """Transport the table along a bijection of the carrier."""
    inv = perm.inverse()
    return q.isotope(inv, inv, inv)


def canonical_key(q: Quasigroup, max_order: int = CANONICAL_MAX_ORDER) -> bytes:
    """Least relabeling of the table over its generator-sequence labelings
    (``quasigroup._labelings``), as bytes.

    Equal keys are exactly isomorphism.  The labelings branch only on a
    generating sequence of at most floor(log2 n) + 1 elements, so the cost
    is n^O(log n) relabelings, not n!.
    """
    n = q.order
    _check_order(q.order, max_order, "canonical-form")
    # tuple order is the byte order of _table_key, so only the least is keyed
    return _table_key(np.reshape(min(_labelings(q.table))[0], (n, n)))


def lp_isotope(q: Quasigroup, a: int, b: int) -> Quasigroup:
    """Principal loop isotope x o y = Rinv_a(x) * Linv_b(y); its unit is b*a."""
    q._check_elem(a, b)
    return Quasigroup(_principal_isotopes(q, a, b))
