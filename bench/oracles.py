"""Reference values the benchmark checks quasilab's outputs against.

Nothing here imports quasilab: the group tables, relabelings, Latin-square
enumeration and automorphism counts are built from first principles, so a
wrong answer from the program cannot also be the expected answer.

Published references:

* Latin squares and quasigroups of small order: B. D. McKay, A. Meynert and
  W. Myrvold, *Small Latin squares, quasigroups and loops*, J. Combin. Des.
  15 (2007).  12 and 576 Latin squares of orders 3 and 4; 5 and 35
  isomorphism classes of quasigroups of orders 3 and 4.
* |Aut| of a finite abelian group: C. J. Hillar and D. L. Rhea,
  *Automorphisms of finite abelian groups*, Amer. Math. Monthly 114 (2007),
  Theorem 4.1.
"""

from __future__ import annotations

import itertools

import numpy as np

LATIN_SQUARE_COUNT = {3: 12, 4: 576}
QUASIGROUP_CLASSES = {3: 5, 4: 35}


def factorint(n: int) -> dict[int, int]:
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


def _partitions(e: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = e if cap is None else cap
    if e == 0:
        return [()]
    return [(part,) + rest
            for part in range(min(e, cap), 0, -1)
            for rest in _partitions(e - part, part)]


def abelian_types(n: int) -> list[tuple[int, ...]]:
    """Every abelian group of order n, as its prime-power cyclic factors."""
    per_prime = [[tuple(p ** a for a in part) for part in _partitions(e)]
                 for p, e in sorted(factorint(n).items())]
    return [tuple(itertools.chain.from_iterable(combo)) or (1,)
            for combo in itertools.product(*per_prime)]


def type_label(factors: tuple[int, ...]) -> str:
    return "x".join(f"Z{m}" for m in factors)


def group_table(factors: tuple[int, ...]) -> np.ndarray:
    """Addition table of Z_m1 x ... x Z_mk, mixed radix, first factor most significant."""
    coords = np.indices(factors).reshape(len(factors), -1)
    sums = [(c[:, None] + c[None, :]) % m for c, m in zip(coords, factors)]
    return np.ravel_multi_index(sums, factors).astype(np.int64)


def _zero(add: np.ndarray) -> int:
    return int(np.nonzero((add == np.arange(add.shape[0])).all(axis=1))[0][0])


def subtraction_table(add: np.ndarray) -> np.ndarray:
    """x*y = x - y over the group with addition table ``add``."""
    return add[:, np.argmax(add == _zero(add), axis=1)]


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table transported along x -> perm[x]."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def isotope(table: np.ndarray, alpha: np.ndarray, beta: np.ndarray,
            gamma: np.ndarray) -> np.ndarray:
    """The table T' with T'[alpha x, beta y] = gamma T[x, y]."""
    out = np.empty_like(table)
    out[np.ix_(alpha, beta)] = gamma[table]
    return out


def two_torsion(add: np.ndarray) -> list[int]:
    zero = _zero(add)
    return [a for a in range(add.shape[0]) if add[a, a] == zero]


def automorphism_count(factors: tuple[int, ...]) -> int:
    """|Aut(Z_m1 x ... x Z_mk)| by the Hillar-Rhea product formula.

    The group splits into its Sylow subgroups and Aut is the product of
    theirs.  For Z_{p^e1} x ... x Z_{p^em} with e1 <= ... <= em, put
    d_k = max{l : e_l = e_k} and c_k = min{l : e_l = e_k}; then
    |Aut| = prod_k (p^d_k - p^(k-1)) * prod_j (p^e_j)^(m - d_j)
            * prod_i (p^(e_i - 1))^(m - c_i + 1).
    """
    by_prime: dict[int, list[int]] = {}
    for m in factors:
        for p, e in factorint(m).items():
            by_prime.setdefault(p, []).append(e)
    total = 1
    for p, es in by_prime.items():
        es.sort()
        m = len(es)
        d = [max(l for l in range(1, m + 1) if es[l - 1] == ek) for ek in es]
        c = [min(l for l in range(1, m + 1) if es[l - 1] == ek) for ek in es]
        for k in range(1, m + 1):
            total *= p ** d[k - 1] - p ** (k - 1)
        for j in range(m):
            total *= (p ** es[j]) ** (m - d[j])
        for i in range(m):
            total *= (p ** (es[i] - 1)) ** (m - c[i] + 1)
    return total


def table_key(table: np.ndarray) -> bytes:
    return np.asarray(table, dtype=np.uint8).tobytes()


def relabelings(table: np.ndarray) -> set[bytes]:
    """Keys of every relabeling of one table (n! of them, small n only)."""
    n = table.shape[0]
    return {table_key(relabel(table, np.array(p)))
            for p in itertools.permutations(range(n))}


def labeled_groups(n: int, subtraction: bool) -> set[bytes]:
    """Keys of all labeled abelian groups of order n, or of their x - y tables.

    Used as exact model sets: eq5 and commutative+associative models are the
    abelian groups, Neumann and Schweizer models their subtraction tables.
    """
    out: set[bytes] = set()
    for factors in abelian_types(n):
        add = group_table(factors)
        out |= relabelings(subtraction_table(add) if subtraction else add)
    return out


def latin_squares(n: int) -> np.ndarray:
    """All n x n Latin squares, shape (count, n, n), by row-wise backtracking."""
    perms = [np.array(p) for p in itertools.permutations(range(n))]
    out: list[np.ndarray] = []

    def rec(rows: list[np.ndarray]) -> None:
        if len(rows) == n:
            out.append(np.stack(rows))
            return
        for p in perms:
            if all((p != r).all() for r in rows):
                rec(rows + [p])

    rec([])
    return np.stack(out)


def medial_models(squares: np.ndarray) -> np.ndarray:
    """The squares satisfying (x*y)*(u*v) = (x*u)*(y*v) for all x, y, u, v."""
    n = squares.shape[1]
    x, y, u, v = np.indices((n,) * 4).reshape(4, -1)
    keep = []
    for t in squares:
        keep.append(bool((t[t[x, y], t[u, v]] == t[t[x, u], t[y, v]]).all()))
    return squares[np.array(keep, dtype=bool)]


def canonical_form(table: np.ndarray) -> bytes:
    n = table.shape[0]
    return min(table_key(relabel(table, np.array(p)))
               for p in itertools.permutations(range(n)))


def is_isomorphism(t1: np.ndarray, t2: np.ndarray, phi: np.ndarray) -> bool:
    """phi(x*y) = phi(x) o phi(y) for all x, y, and phi is a bijection."""
    n = t1.shape[0]
    return (sorted(phi.tolist()) == list(range(n))
            and bool((phi[t1] == t2[np.ix_(phi, phi)]).all()))
