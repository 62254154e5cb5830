"""Independent brute-force oracles.

Everything here deliberately avoids the library's fast paths: plain Python
loops and itertools only, so these can certify the vectorized and
backtracking implementations.
"""

from __future__ import annotations

import itertools

from quasilab.identities import Identity, LDIV, MUL, Var


def all_latin_squares(n: int, reduced: bool = False) -> list[tuple[tuple[int, ...], ...]]:
    """Every order-n Latin square, built row by row from permutations; with
    ``reduced``, only those whose first row and column are 0..n-1 (the loops
    with unit 0)."""
    perms = list(itertools.permutations(range(n)))
    out: list[tuple[tuple[int, ...], ...]] = []

    def extend(rows: list[tuple[int, ...]]):
        if len(rows) == n:
            out.append(tuple(rows))
            return
        for p in perms:
            if reduced and (p[0] != len(rows) or not rows and p != perms[0]):
                continue    # perms[0] is the identity
            if all(p[c] != r[c] for r in rows for c in range(n)):
                rows.append(p)
                extend(rows)
                rows.pop()

    extend([])
    return out


def eval_term_scalar(table, t, env):
    n = len(table)
    if isinstance(t, Var):
        return env[t.name]
    a = eval_term_scalar(table, t.lhs, env)
    b = eval_term_scalar(table, t.rhs, env)
    if t.op == MUL:
        return table[a][b]
    if t.op == LDIV:
        return next(z for z in range(n) if table[a][z] == b)
    return next(z for z in range(n) if table[z][b] == a)


def first_failure_bruteforce(table, ident: Identity):
    """First failing assignment with the first variable cycling fastest."""
    n = len(table)
    vs = ident.vars
    for combo in itertools.product(range(n), repeat=len(vs)):
        env = dict(zip(reversed(vs), combo))  # last var slowest
        if eval_term_scalar(table, ident.lhs, env) != eval_term_scalar(table, ident.rhs, env):
            return env
    return None


def first_failure_lex(table, ident: Identity):
    """Lexicographically first failing assignment (the first variable
    slowest) as a tuple in the order of ``ident.vars``."""
    n = len(table)
    vs = ident.vars
    for combo in itertools.product(range(n), repeat=len(vs)):
        env = dict(zip(vs, combo))
        if eval_term_scalar(table, ident.lhs, env) != eval_term_scalar(table, ident.rhs, env):
            return combo
    return None


def holds_bruteforce(table, ident: Identity) -> bool:
    return first_failure_bruteforce(table, ident) is None


def closure(table, elements) -> set[int]:
    """The smallest set holding ``elements`` and closed under the table's
    product, grown by all pairwise products until nothing new appears."""
    members = set(elements)
    while True:
        grown = members | {table[a][b] for a in members for b in members}
        if grown == members:
            return members
        members = grown


def left_bol_first_failure(table):
    """Lexicographically first (x, y, z) with x(y(xz)) != R_{e_x}^{-1}(x(yx)) z,
    where e_x is the local right unit x*e_x = x."""
    n = len(table)
    for x in range(n):
        e_x = next(e for e in range(n) if table[x][e] == x)
        for y in range(n):
            w = table[x][table[y][x]]
            r = next(r for r in range(n) if table[r][e_x] == w)
            for z in range(n):
                if table[x][table[y][table[x][z]]] != table[r][z]:
                    return (x, y, z)
    return None


def moufang_first_failure(table):
    """Lexicographically first (x, y, z) with x(y(xz)) != ((x(y f_x))x) z,
    where f_x is the local left unit f_x*x = x."""
    n = len(table)
    for x in range(n):
        f_x = next(f for f in range(n) if table[f][x] == x)
        for y in range(n):
            v = table[table[x][table[y][f_x]]][x]
            for z in range(n):
                if table[x][table[y][table[x][z]]] != table[v][z]:
                    return (x, y, z)
    return None


def naive_autotopies(table) -> set[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """All-triples autotopy scan: every (alpha, beta, gamma) in Sym(n)^3."""
    n = len(table)
    perms = list(itertools.permutations(range(n)))
    found = set()
    for alpha in perms:
        for beta in perms:
            for gamma in perms:
                if all(
                    gamma[table[x][y]] == table[alpha[x]][beta[y]]
                    for x in range(n)
                    for y in range(n)
                ):
                    found.add((alpha, beta, gamma))
    return found


def _preserves(t1, t2, phi) -> bool:
    n = len(t1)
    return all(phi[t1[x][y]] == t2[phi[x]][phi[y]] for x in range(n) for y in range(n))


def naive_automorphisms(table) -> list[tuple[int, ...]]:
    """Every permutation preserving the table, by a scan of Sym(n) in
    lexicographic order."""
    return [p for p in itertools.permutations(range(len(table))) if _preserves(table, table, p)]


def first_isomorphism(t1, t2):
    """The lexicographically first bijection phi with
    phi(t1[x][y]) = t2[phi x][phi y], or None."""
    return next(
        (p for p in itertools.permutations(range(len(t1))) if _preserves(t1, t2, p)), None
    )


def relabel_table(table, phi) -> tuple[tuple[int, ...], ...]:
    """Transport a table along a bijection, plain Python."""
    n = len(table)
    inv = [0] * n
    for i, v in enumerate(phi):
        inv[v] = i
    return tuple(
        tuple(phi[table[inv[x]][inv[y]]] for y in range(n)) for x in range(n)
    )


def naive_canonical_form(table) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeling of a table, by a scan of Sym(n);
    two tables are isomorphic exactly when their forms are equal."""
    return min(relabel_table(table, phi) for phi in itertools.permutations(range(len(table))))


def naive_pseudoautomorphisms(table, side: str) -> list[tuple[tuple[int, ...], int]]:
    """Every (theta, c) in Sym(n) x carrier, in lexicographic order, with
    theta(x*y)*c = theta(x)*(theta(y)*c) (right: (theta, R_c theta, R_c theta)
    is an autotopy) or c*theta(x*y) = (c*theta(x))*theta(y) (left:
    (L_c theta, theta, L_c theta) is an autotopy) for all x, y."""
    n = len(table)
    out = []
    for theta in itertools.permutations(range(n)):
        for c in range(n):
            if side == "right":
                ok = all(table[theta[table[x][y]]][c] == table[theta[x]][table[theta[y]][c]]
                         for x in range(n) for y in range(n))
            else:
                ok = all(table[c][theta[table[x][y]]] == table[table[c][theta[x]]][theta[y]]
                         for x in range(n) for y in range(n))
            if ok:
                out.append((theta, c))
    return out


def naive_nucleus(table, side: str) -> set[int]:
    """Elements a with (a*x)*y = a*(x*y) (left), (x*a)*y = x*(a*y) (middle)
    or (x*y)*a = x*(y*a) (right) for all x, y."""
    n = len(table)
    out = set()
    for a in range(n):
        ok = True
        for x in range(n):
            for y in range(n):
                u, v, w = {"left": (a, x, y), "middle": (x, a, y), "right": (x, y, a)}[side]
                if table[table[u][v]][w] != table[u][table[v][w]]:
                    ok = False
        if ok:
            out.add(a)
    return out


def naive_core_distributive(table, side: str) -> bool:
    """Does the core x o y = x*(y*x) satisfy x o (y o z) = (x o y) o (x o z)
    (left) or (x o y) o z = (x o z) o (y o z) (right) for all x, y, z?"""
    n = len(table)
    core = [[table[x][table[y][x]] for y in range(n)] for x in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if side == "left":
                    lhs, rhs = core[x][core[y][z]], core[core[x][y]][core[x][z]]
                else:
                    lhs, rhs = core[core[x][y]][z], core[core[x][z]][core[y][z]]
                if lhs != rhs:
                    return False
    return True


def euler_phi(n: int) -> int:
    from math import gcd

    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def abelian_automorphism_count(factors) -> int:
    """|Aut(Z_m1 x ... x Z_mk)| by the formula of C. J. Hillar and D. L. Rhea
    (Amer. Math. Monthly 114, 2007), one Sylow p-subgroup at a time.

    For Z_(p^e1) x ... x Z_(p^em) with e1 <= ... <= em, let d_k be the last
    and c_k the first position holding the exponent e_k; the p-part is
    prod_k (p^d_k - p^(k-1)) * (p^e_k)^(m - d_k) * (p^(e_k - 1))^(m - c_k + 1).
    """
    exponents: dict[int, list[int]] = {}
    for m in factors:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                exponents.setdefault(p, []).append(e)
            p += 1
    total = 1
    for p, es in exponents.items():
        es.sort()
        m = len(es)
        for k, e in enumerate(es, start=1):
            d = m - es[::-1].index(e)     # last position holding e
            c = es.index(e) + 1           # first position holding e
            total *= (p**d - p ** (k - 1)) * p ** (e * (m - d)) * p ** ((e - 1) * (m - c + 1))
    return total


def is_abelian_group_table(table) -> bool:
    n = len(table)
    units = [
        e
        for e in range(n)
        if all(table[e][x] == x for x in range(n)) and all(table[x][e] == x for x in range(n))
    ]
    if not units:
        return False
    if any(table[a][b] != table[b][a] for a in range(n) for b in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def parastrophe13_table(table) -> list[list[int]]:
    """a o b = c iff c*b = a, solved by table scan."""
    n = len(table)
    new = [[-1] * n for _ in range(n)]
    for c in range(n):
        for b in range(n):
            a = table[c][b]
            new[a][b] = c
    return new
