"""Exhaustive enumeration of quasigroups satisfying identities.

There are two walks, and the identities of the search pick one.

With no identity, ``_row_walk`` places rows 0 to n - 2 one after another,
each filled column by column with bitmasks against the column masks,
smallest symbol first; a prefix with no candidate for its next cell ends
its branch.  Nothing needs propagating: by M. Hall Jr.'s theorem (Bull.
AMS 51, 1945) every k x n Latin rectangle extends to a Latin square, so no
branch can fail across rows, and the last row is computed directly as each
column's one missing symbol.  A node is one row placed by branching.

With identities, ``_propagating_walk`` is a backtracking Latin-square
completion with forced-cell propagation, with the cell order and forcing of
SEM (J. Zhang & H. Zhang, IJCAI 1995) and Mace4 (W. McCune,
ANL/MCS-TM-264, 2003).  Cells carry candidate bitmasks derived from
row/column used-symbol masks.  The search branches on the first empty cell
in row-major order and tries its candidates in ascending order; a node is
one branching assignment.

Each identity's compiled form (``Identity.program``, the post-order code that
``holds`` and ``eval_term`` also run) is evaluated by the same evaluator over
the flattened n^k assignment grid.  The partial table is held as three
sentinel-padded (n+2) x (n+2) arrays for ``*``, ``\\`` and ``/``: an empty
cell holds n, and rows and columns n and n + 1 hold n + 1, so a lookup with
an unknown argument gives n + 1 and one of known arguments into an empty
cell gives n.  After every branching assignment, propagation runs these
rules to one joint fixpoint:

* an empty cell left with one candidate gets it (looked for in the row and
  the column of every write), and an empty cell left with none prunes the
  branch;
* an identity instance whose two sides are known and unequal prunes the
  branch;
* an instance with one side known whose other side's top lookup has known
  arguments but an empty cell forces that cell of ``*`` (Mace4's rule);
* a forced cell that clashes with an assigned cell or a row/column mask
  prunes the branch.

Every write, branch or forced, goes through one assignment on a trail and
is undone on backtrack.  Propagation only removes completions that violate
an identity or the Latin property, so the models are exactly those of a
naive filter over all Latin squares (tested at small orders), and each one
is re-checked with the exhaustive evaluator before it is returned.  With a
tautology such as ``x*y = x*y`` it enumerates every Latin square, which is
the oracle the row walk is tested against.

In both walks two leaves first differ at the cell where their paths split,
and the smaller symbol there is tried first, so the models come out in table
(``_table_key``) order with no sort, and ``limit`` keeps the
lexicographically first ``limit`` of them.  Each leaf is copied once, into
the int64 array that its ``Quasigroup`` then wraps; ``count`` only counts
the leaves and copies none.

Up to isomorphism, one pass over the models keeps the lex-first model of
each class.  Each model is labeled once along its first generator sequence
(``quasigroup._labelings``, no branching); if that relabeled table is one an
earlier representative's labelings gave, the model is in its class, else it
is a new representative and all of its labelings are recorded.  Only
representatives are wrapped.  The pass walks labelings as
``structure.canonical_key`` does, so it shares its order bound, and an order
above it is refused before the search starts.
"""
from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import QuasilabError, TooManyVariables
from .identities import Identity, LDIV, MUL, RDIV, Program, _holds_in_each, _run, holds
from .quasigroup import CANONICAL_MAX_ORDER, Quasigroup, _all_latin, _check_cells, _check_order, _labelings

__all__ = [
    "SearchOptions",
    "EquivalenceReport",
    "find_all",
    "count",
    "equivalence_report",
    "implies_on_order",
    "ImplicationOutcome",
    "default_max_order",
    "MAX_IDENTITY_VARS",
]

log = logging.getLogger(__name__)

MAX_IDENTITY_VARS = 4
DEFAULT_MAX_ORDER = 6        # identities with at most 3 variables
DEFAULT_MAX_ORDER_4VAR = 5
ENV_MAX_ORDER = "QUASILAB_MAX_ORDER"
# Cells one re-check of stacked search results evaluates: far within
# CELL_BUDGET, so that each int64 intermediate stays at 32 KB and the
# re-check adds nothing to the peak memory of a search.
CHECK_CELLS = 2**12


@dataclass(frozen=True)
class SearchOptions:
    order: int
    identities: tuple[Identity, ...] = ()
    up_to_isomorphism: bool = False
    limit: Optional[int] = None
    progress_interval: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "identities", tuple(self.identities))
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be nonnegative")


def default_max_order(identities: Sequence[Identity]) -> int:
    """Configured search bound: env override, else 6 (3-var) / 5 (4-var)."""
    env = os.environ.get(ENV_MAX_ORDER)
    if env:
        try:
            return int(env)
        except ValueError:
            raise QuasilabError(f"{ENV_MAX_ORDER} must be an integer, got {env!r}") from None
    worst = max((len(i.vars) for i in identities), default=3)
    return DEFAULT_MAX_ORDER_4VAR if worst >= 4 else DEFAULT_MAX_ORDER


def _forced_cells(prog: Program, grids: tuple[np.ndarray, ...],
                  tabs: dict[str, np.ndarray], n: int) -> Optional[list]:
    """Cells forced by the identity on the partial table, or None on a violation.

    ``grids`` are the flattened n^k variable grids and ``tabs`` the
    sentinel-padded ``*``, ``\\`` and ``/`` tables, so a value of ``n``
    means a lookup of known arguments into an empty cell and ``n + 1`` one
    with an unknown argument.  The result is a list of int arrays of encoded
    ``(row * (n+1) + col) * (n+1) + symbol`` cells, possibly repeated.
    """
    vals = _run(prog.code, tabs, grids)
    k = len(grids)
    lv, rv = vals[prog.lhs], vals[prog.rhs]
    lk, rk = lv < n, rv < n
    if (lk & rk & (lv != rv)).any():
        return None
    pad = n + 1
    out = []
    # A known side forces the other side's top lookup once its arguments are known.
    for slot, value, known in ((prog.lhs, rv, rk), (prog.rhs, lv, lk)):
        if slot < k:
            continue
        hit = known & (vals[slot] == n)
        if not hit.any():
            continue
        op, a, b = prog.code[slot - k]
        w, va, vb = value[hit], vals[a][hit], vals[b][hit]
        if op == MUL:           # a*b = w
            r, c, v = va, vb, w
        elif op == LDIV:        # a\b = w  <=>  a*w = b
            r, c, v = va, w, vb
        else:                   # a/b = w   <=>  w*b = a
            r, c, v = w, vb, va
        out.append((r * pad + c) * pad + v)
    return out


def _check_bounds(opts: SearchOptions, max_order: Optional[int]) -> None:
    """Refuse, before any search, what the bounds do not admit."""
    for ident in opts.identities:
        if len(ident.vars) > MAX_IDENTITY_VARS:
            raise TooManyVariables(
                f"identity '{ident}' has {len(ident.vars)} variables (max {MAX_IDENTITY_VARS})"
            )
    bound = max_order if max_order is not None else default_max_order(opts.identities)
    _check_order(opts.order, bound, "search")
    for ident in opts.identities:
        _check_cells(opts.order, len(ident.vars))
    # the class pass walks every labeling of each representative
    if opts.up_to_isomorphism:
        _check_order(opts.order, CANONICAL_MAX_ORDER, "canonical-form")


def _search(opts: SearchOptions) -> list[np.ndarray]:
    """The models in table order, at most ``opts.limit`` of them, as int64
    (n, n) arrays."""
    found: list[np.ndarray] = []
    _walk(opts, found)
    return found


def _walk(opts: SearchOptions, found: Optional[list]) -> int:
    """Run the search and return the number of models, at most
    ``opts.limit``; append each, in table order, to ``found`` as an int64
    (n, n) array unless ``found`` is None.

    With no identity the search is ``_row_walk``, which needs no
    propagation; with identities it is ``_propagating_walk``.  Either walk
    logs every ``opts.progress_interval``-th node at INFO, and one DEBUG
    record sums up the search.
    """
    start = time.perf_counter()
    walk = _propagating_walk if opts.identities else _row_walk
    models, nodes, forced, prunes = walk(opts, found) if opts.limit != 0 else (0, 0, 0, 0)
    log.debug("search order %d: %d nodes, %d forced cells, %d prunes, %d models in %.3f s",
              opts.order, nodes, forced, prunes, models, time.perf_counter() - start)
    return models


def _row_walk(opts: SearchOptions, found: Optional[list]) -> tuple[int, int, int, int]:
    """The identity-free search of the module docstring: ``(models, nodes,
    forced cells, prunes)``.  A node is one row placed by branching, a prune
    a row prefix with no candidate for its next cell, and the forced cells
    are the n cells of each computed last row."""
    n = opts.order
    full = (1 << n) - 1
    last = n - 1
    limit = opts.limit
    interval = opts.progress_interval
    col = [0] * n                   # the symbols each column's placed rows use
    table = [[0] * n for _ in range(n)]
    models = nodes = prunes = 0

    def place(r: int) -> bool:
        """Place rows r to n - 1 in every way, in table order; True once
        ``limit`` models are found."""
        nonlocal models, nodes, prunes
        if r == last:
            models += 1
            if found is not None:
                table[last] = [(full ^ m).bit_length() - 1 for m in col]
                found.append(np.array(table, dtype=np.int64))
            return models == limit
        row = table[r]
        rest = [0] * n              # the candidates not yet tried in each column
        used = [0] * n              # the symbols of the row left of each column
        c = 0
        m = full & ~col[0]
        while True:
            if m:
                bit = m & -m
                row[c] = bit.bit_length() - 1
                if c < last:
                    rest[c] = m ^ bit
                    col[c] |= bit
                    c += 1
                    used[c] = u = used[c - 1] | bit
                    m = full & ~(u | col[c])
                    if not m:
                        prunes += 1
                    continue
                # the last cell of a row has at most this one candidate
                col[c] |= bit
                nodes += 1
                if interval and nodes % interval == 0:
                    log.info("search order %d: %d nodes, %d models", n, nodes, models)
                if place(r + 1):
                    return True
                col[c] ^= bit
            c -= 1
            if c < 0:
                return False
            col[c] ^= 1 << row[c]
            m = rest[c]

    place(0)
    return models, nodes, n * models, prunes


def _propagating_walk(opts: SearchOptions, found: Optional[list]) -> tuple[int, int, int, int]:
    """The search with identities: ``(models, nodes, forced cells, prunes)``.
    A node is one branching assignment; forced cells are not nodes."""
    n = opts.order
    pad = n + 1
    full = (1 << n) - 1
    # Sentinel-padded tables: n marks an empty cell, and rows and columns n
    # and n + 1 are all n + 1, so a lookup with an unknown argument is n + 1.
    mul = np.full((n + 2, n + 2), n + 1, dtype=np.intp)
    mul[:n, :n] = n
    ldiv = mul.copy()
    rdiv = mul.copy()
    tabs = {MUL: mul, LDIV: ldiv, RDIV: rdiv}
    cells = [[-1] * n for _ in range(n)]
    row_mask = [0] * n
    col_mask = [0] * n
    trail: list[tuple[int, int, int]] = []
    progs = [(ident.program, tuple(g.ravel() for g in np.indices((n,) * len(ident.vars))))
             for ident in opts.identities]
    limit = opts.limit
    models = nodes = forced = prunes = 0
    interval = opts.progress_interval

    def assign(r: int, c: int, v: int) -> bool:
        bit = 1 << v
        if cells[r][c] >= 0 or (row_mask[r] | col_mask[c]) & bit:
            return False
        cells[r][c] = v
        mul[r, c] = v
        ldiv[r, v] = c
        rdiv[v, c] = r
        row_mask[r] |= bit
        col_mask[c] |= bit
        trail.append((r, c, v))
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            r, c, v = trail.pop()
            bit = ~(1 << v)
            cells[r][c] = -1
            mul[r, c] = ldiv[r, v] = rdiv[v, c] = n
            row_mask[r] &= bit
            col_mask[c] &= bit

    def single(r: int, c: int) -> bool:
        """Assign an empty cell left with one candidate; False if it has none."""
        nonlocal forced
        m = full & ~(row_mask[r] | col_mask[c])
        if m & (m - 1):
            return True
        if not m:
            return False
        assign(r, c, m.bit_length() - 1)
        forced += 1
        return True

    def propagate(swept: int) -> bool:
        """Apply single-candidate cells and identity-forced cells until none
        are left; False on a contradiction.  Trail entries from ``swept`` on
        are the writes whose row and column have not been looked at."""
        nonlocal forced, prunes
        while True:
            while swept < len(trail):
                r, c, _ = trail[swept]
                swept += 1
                crow = cells[r]
                for cc in range(n):
                    if crow[cc] < 0 and not single(r, cc):
                        prunes += 1
                        return False
                for rr in range(n):
                    if cells[rr][c] < 0 and not single(rr, c):
                        prunes += 1
                        return False
            batch = []
            for prog, grids in progs:
                hits = _forced_cells(prog, grids, tabs, n)
                if hits is None:
                    prunes += 1
                    return False
                batch.extend(hits)
            todo = sorted(set(np.concatenate(batch).tolist())) if batch else []
            if not todo:
                return True
            for code in todo:
                rc, v = divmod(code, pad)
                r, c = divmod(rc, pad)
                if cells[r][c] == v:
                    continue
                if not assign(r, c, v):
                    prunes += 1
                    return False
                forced += 1

    def dfs(pos: int) -> None:
        """Branch on the first empty cell at or after ``pos`` (row-major),
        smallest symbol first, so leaves come in table order."""
        nonlocal models, nodes
        r, c = divmod(pos, n)
        while r < n and cells[r][c] >= 0:
            c += 1
            if c == n:
                r, c = r + 1, 0
        if r == n:
            models += 1
            if found is not None:
                found.append(np.array(cells, dtype=np.int64))
            return
        pos = r * n + c
        m = full & ~(row_mask[r] | col_mask[c])
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            mark = len(trail)
            assign(r, c, v)
            nodes += 1
            if interval and nodes % interval == 0:
                log.info("search order %d: %d nodes, %d models", n, nodes, models)
            if propagate(mark):
                dfs(pos + 1)
            undo(mark)
            if models == limit:
                return

    if propagate(0):
        dfs(0)
    return models, nodes, forced, prunes


def _full_check(t: np.ndarray, identities: Sequence[Identity]) -> None:
    """The checks a table gets outside the search: the ``Quasigroup``
    constructor, which names its first defect, and ``holds`` for each
    identity, with AssertionError on a non-model."""
    q = Quasigroup(t)
    for ident in identities:
        if not holds(q, ident):
            raise AssertionError(f"search produced a non-model of '{ident}'")


def find_all(opts: SearchOptions, max_order: Optional[int] = None) -> list[Quasigroup]:
    """All order-n quasigroups satisfying the identities, in lexicographic
    table order (class representatives if ``up_to_isomorphism``).

    The search branches on the first empty cell in row-major order, smallest
    symbol first, so its models come out in table order, and ``limit`` keeps
    the lexicographically first ``limit`` of them.  Up to isomorphism,
    ``limit`` bounds the labeled models searched, so the result is the
    classes among the first ``limit`` models.

    The results are re-checked in chunks of stacked tables, at most
    ``CHECK_CELLS`` evaluated cells each: one Latin check and one
    exhaustive evaluation of each identity per chunk.  A chunk that fails
    is checked table by table with the ``Quasigroup`` constructor and
    ``holds``, which name the first defect.

    Up to isomorphism, the representative of a class is its lex-first
    model.  The models are passed once: a model whose first labeling
    (``quasigroup._labelings``) gives a relabeled table that an earlier
    representative's labelings gave joins that class; any other model is a
    new representative, and every labeling of it is recorded.  Isomorphic
    tables have the same relabeled tables, so this is exact, and only the
    representatives are wrapped.
    """
    _check_bounds(opts, max_order)
    raw = _search(opts)
    n = opts.order
    per = max(1, CHECK_CELLS // n ** max([2, *(len(i.vars) for i in opts.identities)]))
    models = []
    # relabeled tables as bytes, exact up to CANONICAL_MAX_ORDER < 256
    leaves: set[bytes] = set()
    while raw:
        tables = raw[:per]
        del raw[:per]       # so that a table skipped up to isomorphism is freed at once
        chunk = np.stack(tables)
        if not (_all_latin(chunk) and all(_holds_in_each(chunk, i) for i in opts.identities)):
            for t in tables:
                _full_check(t, opts.identities)
        for t in tables:
            if opts.up_to_isomorphism:
                if bytes(next(_labelings(t))[0]) in leaves:
                    continue
                leaves.update(bytes(leaf) for leaf, _ in _labelings(t))
            models.append(Quasigroup._checked(t))
    return models


def count(opts: SearchOptions, max_order: Optional[int] = None) -> int:
    """Number of satisfying tables, counted as the search reaches them,
    without keeping them (up to isomorphism, the classes of ``find_all``).

    With no identity this is the row walk, which counts each placement of
    rows 0 to n - 2 as one model and builds no last row: the 161,280 Latin
    squares of order 5 take 232,920 nodes.
    """
    if opts.up_to_isomorphism:
        return len(find_all(opts, max_order=max_order))
    _check_bounds(opts, max_order)
    return _walk(opts, None)


@dataclass(frozen=True)
class EquivalenceReport:
    same_models: bool
    only_id1: int
    only_id2: int


def equivalence_report(n: int, id1: Identity, id2: Identity,
                       max_order: Optional[int] = None) -> EquivalenceReport:
    """Compare the order-n model sets of two identities."""
    m1 = {q.key() for q in find_all(SearchOptions(order=n, identities=(id1,)), max_order=max_order)}
    m2 = {q.key() for q in find_all(SearchOptions(order=n, identities=(id2,)), max_order=max_order)}
    return EquivalenceReport(
        same_models=m1 == m2,
        only_id1=len(m1 - m2),
        only_id2=len(m2 - m1),
    )


@dataclass(frozen=True)
class ImplicationOutcome:
    holds: bool
    witness: Optional[Quasigroup]


def implies_on_order(
    n: int,
    hypothesis: Identity,
    conclusion: Identity,
    max_order: Optional[int] = None,
) -> ImplicationOutcome:
    """Does every order-n model of ``hypothesis`` satisfy ``conclusion``?

    The witness, when present, is the lexicographically first counter-model.
    """
    models = find_all(SearchOptions(order=n, identities=(hypothesis,)), max_order=max_order)
    for q in models:
        if not holds(q, conclusion):
            return ImplicationOutcome(holds=False, witness=q)
    return ImplicationOutcome(holds=True, witness=None)
