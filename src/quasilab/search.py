"""Exhaustive enumeration of quasigroups satisfying identities.

Backtracking Latin-square completion with forced-cell propagation.  Cells
carry candidate bitmasks derived from row/column used-symbol masks, and the
most constrained cell is branched on first (ties broken by (row, col)).

Each identity's compiled form (``Identity.program``, the post-order code that
``holds`` and ``eval_term`` also run) is evaluated by the same evaluator over
the flattened n^k assignment grid.  The partial table is held as three
sentinel-padded (n+1) x (n+1) arrays for ``*``, ``\\`` and ``/``: an unknown
cell holds n, and so do row n and column n, so a lookup with an unknown
argument is itself unknown.  After every branching assignment all identities
are evaluated over the whole grid, repeatedly until nothing changes:

* an instance whose two sides are known and unequal prunes the branch;
* an instance with one side known whose other side's top lookup has known
  arguments but an unknown result forces that cell of ``*`` (Mace4's rule,
  W. McCune, ANL/MCS-TM-264, 2003);
* a forced cell that clashes with an assigned cell or a row/column mask
  prunes the branch.

Forced cells are recorded on a trail and undone on backtrack.  Propagation
only removes completions that violate an identity, so the models are exactly
those of a naive filter over all Latin squares (tested at small orders), and
each one is re-checked with the exhaustive evaluator before it is returned.

Results are sorted by table bytes, so the full output is independent of
search order.  With ``limit`` the search keeps the first models it *finds*,
and which ones those are does depend on search order.

Up to isomorphism, one pass over the sorted models keeps the lex-first
model of each class.  Each model is labeled once along its first generator
sequence (``quasigroup._labelings``, no branching); if that relabeled table
is one an earlier representative's labelings gave, the model is in its
class, else it is a new representative and all of its labelings are
recorded.  Only representatives are wrapped and re-checked.  The pass walks
labelings as ``structure.canonical_key`` does, so it shares its order bound,
and an order above it is refused before the search starts.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import OrderTooLarge, QuasilabError, TooManyVariables
from .identities import Identity, LDIV, MUL, RDIV, Program, _run, holds
from .quasigroup import Quasigroup, _check_cells, _labelings, _table_key
from .structure import CANONICAL_MAX_ORDER

__all__ = [
    "SearchOptions",
    "EquivalenceReport",
    "find_all",
    "count",
    "equivalence_report",
    "default_max_order",
    "MAX_IDENTITY_VARS",
]

log = logging.getLogger(__name__)

MAX_IDENTITY_VARS = 4
DEFAULT_MAX_ORDER = 6        # identities with at most 3 variables
DEFAULT_MAX_ORDER_4VAR = 5
ENV_MAX_ORDER = "QUASILAB_MAX_ORDER"


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
    sentinel-padded ``*``, ``\\`` and ``/`` tables, so a value of ``n`` means
    unknown.  The result is a list of int arrays of encoded
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
        op, a, b = prog.code[slot - k]
        va, vb = vals[a], vals[b]
        hit = known & (vals[slot] == n) & (va < n) & (vb < n)
        if not hit.any():
            continue
        w, va, vb = value[hit], va[hit], vb[hit]
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
    if opts.order > bound:
        raise OrderTooLarge(f"order {opts.order} above search bound {bound}")
    for ident in opts.identities:
        _check_cells(opts.order, len(ident.vars))
    # the class pass walks every labeling of each representative
    if opts.up_to_isomorphism and opts.order > CANONICAL_MAX_ORDER:
        raise OrderTooLarge(f"order {opts.order} above canonical-form bound {CANONICAL_MAX_ORDER}")


def _search(opts: SearchOptions) -> list[np.ndarray]:
    start = time.perf_counter()
    n = opts.order
    pad = n + 1
    full = (1 << n) - 1
    # Sentinel-padded tables: n marks an unknown cell, and row n / column n
    # are all n, so a lookup with an unknown argument is unknown too.
    mul = np.full((pad, pad), n, dtype=np.intp)
    ldiv = mul.copy()
    rdiv = mul.copy()
    tabs = {MUL: mul, LDIV: ldiv, RDIV: rdiv}
    cells = [[-1] * n for _ in range(n)]
    row_mask = [0] * n
    col_mask = [0] * n
    trail: list[tuple[int, int, int]] = []
    progs = [(ident.program, tuple(g.ravel() for g in np.indices((n,) * len(ident.vars))))
             for ident in opts.identities]
    found: list[np.ndarray] = []
    nodes = forced = prunes = 0
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

    def propagate() -> bool:
        """Apply forced cells until none are left; False on a contradiction."""
        nonlocal forced, prunes
        while True:
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

    def dfs() -> None:
        nonlocal nodes
        best_r = best_c = -1
        best_mask = 0
        best_cnt = n + 1
        for r in range(n):
            rm = row_mask[r]
            crow = cells[r]
            for c in range(n):
                if crow[c] >= 0:
                    continue
                m = full & ~(rm | col_mask[c])
                cnt = m.bit_count()
                if cnt == 0:
                    return
                if cnt < best_cnt:
                    best_cnt, best_r, best_c, best_mask = cnt, r, c, m
        if best_r < 0:
            found.append(mul[:n, :n].copy())
            return
        crow = cells[best_r]
        m = best_mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            # The branching cell is written inline: its symbol comes from the
            # candidate mask, so it needs none of assign()'s checks, and the
            # pure Latin-square search pays no call or trail overhead.
            mark = len(trail)
            bit = 1 << v
            crow[best_c] = v
            mul[best_r, best_c] = v
            ldiv[best_r, v] = best_c
            rdiv[v, best_c] = best_r
            row_mask[best_r] |= bit
            col_mask[best_c] |= bit
            nodes += 1
            if interval and nodes % interval == 0:
                log.info("search order %d: %d nodes, %d models", n, nodes, len(found))
            if not progs or propagate():
                dfs()
            if len(trail) > mark:
                undo(mark)
            crow[best_c] = -1
            mul[best_r, best_c] = ldiv[best_r, v] = rdiv[v, best_c] = n
            row_mask[best_r] &= ~bit
            col_mask[best_c] &= ~bit
            if opts.limit is not None and len(found) >= opts.limit:
                return

    if not progs or propagate():
        dfs()
    log.debug("search order %d: %d nodes, %d forced cells, %d prunes, %d models in %.3f s",
              n, nodes, forced, prunes, len(found), time.perf_counter() - start)
    return found


def find_all(opts: SearchOptions, max_order: Optional[int] = None) -> list[Quasigroup]:
    """All order-n quasigroups satisfying the identities, in lexicographic
    table order (class representatives if ``up_to_isomorphism``).

    Every result is re-checked against each identity with the exhaustive
    evaluator before being returned.  With ``limit`` the search stops after
    the first ``limit`` raw models it *finds*; only those are then sorted
    (and filtered) as usual, so which models are kept depends on search
    order and need not be the lexicographically first ones.

    Up to isomorphism, the representative of a class is its lex-first
    model.  The sorted models are passed once: a model whose first labeling
    (``quasigroup._labelings``) gives a relabeled table that an earlier
    representative's labelings gave joins that class; any other model is a
    new representative, and every labeling of it is recorded.  Isomorphic
    tables have the same relabeled tables, so this is exact, and only the
    representatives are wrapped and re-checked: a relabeling of a Latin
    model is a Latin model.
    """
    _check_bounds(opts, max_order)
    raw = _search(opts)
    raw.sort(key=_table_key, reverse=True)
    models = []
    # relabeled tables as bytes, exact up to CANONICAL_MAX_ORDER < 256
    leaves: set[bytes] = set()
    while raw:
        t = raw.pop()       # in table order; each search table is freed once wrapped
        if opts.up_to_isomorphism and bytes(next(_labelings(t))[0]) in leaves:
            continue
        q = Quasigroup(t)
        for ident in opts.identities:
            if not holds(q, ident):
                raise AssertionError(f"search produced a non-model of '{ident}'")
        models.append(q)
        if opts.up_to_isomorphism:
            leaves.update(bytes(leaf) for leaf, _ in _labelings(t))
    if opts.limit is not None:
        models = models[: opts.limit]
    return models


def count(opts: SearchOptions, max_order: Optional[int] = None) -> int:
    """Number of satisfying tables, without wrapping them in Quasigroups."""
    if opts.up_to_isomorphism:
        return len(find_all(opts, max_order=max_order))
    _check_bounds(opts, max_order)
    return len(_search(opts))


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
