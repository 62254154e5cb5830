"""Exhaustive enumeration of quasigroups satisfying identities.

There are two walks, and the identities of the search pick one.  Both
place cells in row-major order, smallest symbol first, a batch of partial
tables per numpy call rather than one table per node, and both run one
depth-first loop over batches (``_depth_first``, below).

With no identity, ``_row_walk`` fills rows 0 to n - 2 cell by cell.  A
batch is an (B, n, n) uint8 stack of partial squares that have the same
cells placed, with the symbol sets (``_Symbols`` bitmasks) of their columns
and of the placed cells of the current row.  One step places the next cell
in every square of the batch, one child per candidate ``full & ~(row |
column)``; a square with no candidate ends its branch.  Nothing needs
propagating: by M. Hall Jr.'s theorem (Bull. AMS 51, 1945) every k x n
Latin rectangle extends to a Latin square, so no branch can fail across
rows, and the last row is computed directly, each column's one missing
symbol being the sum of all symbols less the column's sum.  A node is one
row placed by branching.

With identities, ``_propagating_walk`` is a backtracking Latin-square
completion with forced-cell propagation, with the cell order and forcing of
SEM (J. Zhang & H. Zhang, IJCAI 1995) and Mace4 (W. McCune,
ANL/MCS-TM-264, 2003).  It settles a batch of partial tables per numpy call
rather than one table per node.  A batch is a (3, B, n+2, n+2) stack of
sentinel-padded tables for ``*``, ``\\`` and ``/``: an empty cell holds n,
and rows and columns n and n + 1 hold n + 1, so a lookup with an unknown
argument gives n + 1 and one of known arguments into an empty cell gives n.
Row and column symbol sets come from the tables themselves, as bitmasks
through a table of symbol bits, counted with ``np.bitwise_count``.

A settle round runs these rules on every table written in the round before
(a fresh table counts as written):

* a table with a repeated symbol in a row or column, or an empty cell with
  no candidate, is dropped; an empty cell with one candidate is written;
* each identity's compiled form (``Identity.program``, the post-order code
  that ``holds`` and ``eval_term`` also run) goes once through the one
  evaluator over the n^k variable grids broadcast against the batch, each
  lookup reading a flat index into the raveled stack; an instance whose two
  sides are known and unequal drops its table, and one with one side known
  whose other side's top lookup has known arguments but an empty cell
  writes that cell of ``*`` (Mace4's rule);
* the writes are encoded one int each, sorted and compared with their
  neighbours: two values for one cell, or a value for a filled cell, drop
  the table; the rest are written into all three tables.

Rounds repeat until no table is written.  The rules only remove
completions that violate an identity or the Latin property, and they reach
the same fixpoint in any order, so the walk branches on the same nodes as a
walk that settles one table after each assignment (at order 1 the one cell
is a single, so that search has no node).  The models are exactly those of
a naive filter over all Latin squares (tested at small orders), and each
one is re-checked with the exhaustive evaluator before it is returned.
With a tautology such as ``x*y = x*y`` it enumerates every Latin square,
which is the oracle the row walk is tested against.

A settled table that is complete is a model.  Every other table branches on
its first empty cell in row-major order, one child per candidate, smallest
symbol first; a node is one such child.  A model among the children rides
along in the next batch unwritten, so it keeps its place.

Both walks are depth-first over batches: the children of a settled batch,
in table order, are cut into batches of at most ``CELLS // n**k`` tables (k
the largest number of variables, at least 2), and all descendants of one
batch are walked before the next batch of its siblings.  A batch thus lists
its tables in table order, and all descendants of one table come before
those of the next.  Two leaves first differ at the cell where their paths
split, and the smaller symbol there is tried first, so the models come out
in table (``_table_key``) order with no sort, and the walk stops at the
batch that holds the ``limit``-th model, the lexicographically first
``limit`` of them.  The models of one batch that come out together are
copied into one int64 (m, n, n) block, and the blocks are the search's only
result (``_search``).  ``find_all`` re-checks each block as one stack, one
Latin check and one evaluation of each identity, so a re-check spans at
most the ``CELLS`` cells of one settle round; then each model's
``Quasigroup`` wraps an (n, n) view of its block, and up to isomorphism a
representative is copied again, so that it keeps no block of skipped models
alive.  ``count`` only counts the models and copies none.

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
from .identities import Identity, LDIV, MUL, RDIV, Program, _Flat, _holds_in_each, _run, holds
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
# Cells one settle round of the propagating walk evaluates per identity: a
# batch holds CELLS // n**k partial tables.  On the find benchmark (2-core
# shared host) wall_s was 0.270-0.280 s at 2**13, 0.227 s at 2**14 and
# 0.197-0.200 s at 2**15, but 2**15 raised verify's peak RSS by 3.6%
# against 2.9% at 2**14.
CELLS = 2**14


@dataclass(frozen=True)
class SearchOptions:
    order: int
    identities: tuple[Identity, ...] = ()
    up_to_isomorphism: bool = False
    limit: Optional[int] = None
    progress_interval: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "identities", tuple(self.identities))
        values = (self.order, self.limit, self.progress_interval)
        if any(isinstance(v, bool) or not isinstance(v, (int, np.integer, type(None))) for v in values):
            raise ValueError(f"order, limit and progress_interval must be integers, got {values}")
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be nonnegative")
        if self.progress_interval is not None and self.progress_interval < 1:
            raise ValueError("progress_interval must be positive")


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
    """The models in table order, at most ``opts.limit`` of them, as a list
    of C-contiguous int64 (m, n, n) blocks, one per run of models that the
    walk reached together; a block holds at most ``CELLS // n**k`` tables."""
    found: list[np.ndarray] = []
    _walk(opts, found)
    return found


def _walk(opts: SearchOptions, found: Optional[list]) -> int:
    """Run the search and return the number of models, at most
    ``opts.limit``; append them, in table order, to ``found`` as int64
    (m, n, n) blocks (see ``_search``) unless ``found`` is None.

    With no identity the search is ``_row_walk``, which needs no
    propagation and places one cell of every square of a batch per step;
    with identities it is ``_propagating_walk``, which settles a batch per
    round.  Both run ``_depth_first`` over batches of at most ``CELLS //
    n**k`` partial tables (see the module docstring) and so reach their
    nodes a batch at a time.  Either walk logs one INFO record for each
    multiple of ``opts.progress_interval`` that its node count crosses, and
    one DEBUG record sums up the search; its prunes are dropped tables (the
    propagating walk) or dead row prefixes (the row walk).
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
    are the n cells of each computed last row.

    A batch is ``(d, tables, masks)``: an (B, n, n) stack of squares (uint8
    up to order 256) with the cells before cell d in row-major order placed,
    and an (B, n + 1) array of symbol sets, those of the n columns and then
    those of the placed cells of the row of cell d.  Once d reaches the last
    row, every square of the batch is a model."""
    n = opts.order
    last = n - 1
    total = n * last // 2           # the sum of the symbols of a full column
    sym = _Symbols(n)

    def branch(batch):
        d, tabs, masks = batch
        r, c = divmod(d, n)
        if r == last:
            return np.arange(len(tabs)), np.full(len(tabs), -1), None, tabs, 0
        cand = sym.full & ~(masks[:, n] | masks[:, c])
        t, v = np.nonzero(sym.members(cand))

        def grow(kids, sv):
            grown = tabs.take(kids, axis=0)
            grown[:, r, c] = sv
            grown_masks = masks.take(kids, axis=0)
            bits = sym.bits.take(sv)
            grown_masks[:, c] |= bits
            if c < last:
                grown_masks[:, n] |= bits
                return (d + 1, grown, grown_masks), 0
            # a row is placed, and the next one starts empty
            grown_masks[:, n] = 0
            return (d + 1, grown, grown_masks), len(kids)
        return t, v, grow, tabs, int(np.count_nonzero(cand == 0))

    root = (0, np.zeros((1, n, n), dtype=np.min_scalar_type(last)),
            np.zeros((1, n + 1), dtype=sym.bits.dtype))
    models, nodes, prunes = _depth_first(opts, root, branch, found)
    # The models are kept as uint8 blocks during the walk and copied into
    # int64 only after it, when the frames are freed, so that the copies do
    # not fill the heap around the frames.
    for i, done in enumerate(found or ()):
        found[i] = done = done.astype(np.int64)
        done[:, last] = total - done[:, :last].sum(1)
    return models, nodes, n * models, prunes


class _Symbols:
    """Sets of the symbols 0..n-1 as bitmasks, bit s for symbol s: the
    narrowest of uint8, uint16, uint32 and uint64 that holds n bits, up to
    order 64, and Python ints in object arrays above.  ``bits[v]`` is {v}
    for a symbol and the empty set for the sentinels n and n + 1, so
    ``bits[t]`` ORed along a row of a padded table is the set the row
    uses, and ``np.bitwise_count`` counts its members."""

    def __init__(self, n: int):
        kind = np.min_scalar_type((1 << n) - 1)
        self.bits = np.array([1 << v for v in range(n)] + [0, 0], dtype=kind)
        self.full = np.bitwise_or.reduce(self.bits)

    def members(self, m: np.ndarray) -> np.ndarray:
        """The membership of each symbol, on a new last axis of length n."""
        return (m[..., None] & self.bits[:-2]) != 0


def _at(x: np.ndarray, where: tuple) -> np.ndarray:
    """``x``, broadcast to the shape that ``where`` indexes, at ``where``."""
    return x[tuple(w if d > 1 else 0 for w, d in zip(where, x.shape))]


def _latin_rules(cells: np.ndarray, sym: _Symbols):
    """The Latin rules on an (A, n, n) stack of partial tables: the mask of
    tables with a repeated symbol in a row or column or an empty cell with
    no candidate, and the single-candidate cells of the others as arrays
    ``(table, row, column, symbol)``."""
    n = cells.shape[1]
    bits = sym.bits[cells]
    rows = np.bitwise_or.reduce(bits, axis=2)
    cols = np.bitwise_or.reduce(bits, axis=1)
    empty = cells == n
    # a row without repeats uses one symbol per filled cell
    dead = ((np.bitwise_count(rows) + empty.sum(2) != n).any(1)
            | (np.bitwise_count(cols) + empty.sum(1) != n).any(1))
    cand = sym.full & ~(rows[:, :, None] | cols[:, None])
    num = np.bitwise_count(cand)
    dead |= (empty & (num == 0)).any((1, 2))
    t, r, c = np.nonzero(empty & (num == 1) & ~dead[:, None, None])
    return dead, t, r, c, sym.members(cand[t, r, c]).argmax(-1)


def _identity_rules(prog: Program, grids: list, flat: np.ndarray, act: np.ndarray,
                    size: int, n: int):
    """The identity rules on the tables ``act`` of a raveled (3, size, n+2,
    n+2) stack: the mask of those with an instance whose sides are known and
    unequal, and the cells that Mace4's rule writes, as a list of arrays of
    encoded ``cell * n + symbol`` writes, ``cell`` the flat index into the
    ``*`` tables."""
    k = len(grids)
    pad = n + 2
    base = (act * (pad * pad)).reshape((-1,) + (1,) * k)
    stride = size * pad * pad
    tables = {op: _Flat(flat, base + i * stride, pad) for i, op in enumerate((MUL, LDIV, RDIV))
              if any(op == code[0] for code in prog.code)}
    vals = _run(prog.code, tables, grids)
    lv, rv = vals[prog.lhs], vals[prog.rhs]
    # a variable is always known
    lk = lv < n if prog.lhs >= k else None
    rk = rv < n if prog.rhs >= k else None
    bad = lv != rv
    for known in (lk, rk):
        if known is not None:
            bad &= known
    if bad.any():
        bad = np.broadcast_to(bad.reshape(len(bad), -1).any(1), act.shape)
    else:
        bad = np.zeros(act.shape, dtype=bool)
    out = []
    # A known side forces the other side's top lookup once its arguments are known.
    for slot, value, known in ((prog.lhs, rv, rk), (prog.rhs, lv, lk)):
        if slot < k:
            continue
        hit = vals[slot] == n
        if known is not None:
            hit = hit & known
        where = np.flatnonzero(hit)
        if not where.size:
            continue
        where = np.unravel_index(where, hit.shape)
        op, a, b = prog.code[slot - k]
        w, va, vb = _at(value, where), _at(vals[a], where), _at(vals[b], where)
        if op == MUL:           # a*b = w
            r, c, v = va, vb, w
        elif op == LDIV:        # a\b = w  <=>  a*w = b
            r, c, v = va, w, vb
        else:                   # a/b = w   <=>  w*b = a
            r, c, v = w, vb, va
        out.append((act[where[0]] * (pad * pad) + r * pad + c) * n + v)
    return bad, out


def _settle(tabs: np.ndarray, sym: _Symbols, progs: list) -> tuple[np.ndarray, int]:
    """Settle the (3, B, n+2, n+2) stack ``tabs`` of partial tables in
    place, every table counting as written: the mask of the tables that
    survive, and the number of cells written.

    Each round runs the rules on the tables written in the round before,
    drops a table that breaks one, and writes the cells they force; two
    values for one cell, or a value for a filled cell, drop the table.
    """
    n = tabs.shape[2] - 2
    size = tabs.shape[1]
    pad = n + 2
    area = pad * pad
    stride = size * area
    flat = tabs.reshape(-1)
    alive = np.ones(size, dtype=bool)
    act = np.arange(size)
    written = 0
    while act.size:
        dead, t, r, c, v = _latin_rules(tabs[0, act, :n, :n], sym)
        writes = [(act[t] * area + r * pad + c) * n + v]
        alive[act[dead]] = False
        act = act[~dead]
        for prog, grids in progs:
            bad, hits = _identity_rules(prog, grids, flat, act, size, n)
            alive[act[bad]] = False
            writes += hits
        codes = np.concatenate(writes)
        codes.sort()
        fresh = np.ones(len(codes), dtype=bool)
        fresh[1:] = codes[1:] != codes[:-1]
        at, v = np.divmod(codes[fresh], n)
        t, rc = np.divmod(at, area)
        alive[t[1:][at[1:] == at[:-1]]] = False
        alive[t[flat[at] != n]] = False
        keep = alive[t]
        at, v, t, rc = at[keep], v[keep], t[keep], rc[keep]
        r, c = np.divmod(rc, pad)
        flat[at] = v
        flat[at + stride + v - c] = c
        flat[at + 2 * stride + (v - r) * pad] = r
        written += len(t)
        first = np.ones(len(t), dtype=bool)
        first[1:] = t[1:] != t[:-1]
        act = t[first]
    return alive, written


def _branches(tabs: np.ndarray, sym: _Symbols):
    """The children of a settled stack in table order, as arrays ``(table,
    symbol)``: one per candidate of each table's first empty cell in
    row-major order, smallest first, and one with symbol -1 for a complete
    table, which is a model.  Also each table's branching row and column."""
    n = tabs.shape[2] - 2
    size = tabs.shape[1]
    empty = (tabs[0, :, :n, :n] == n).reshape(size, n * n)
    r, c = np.divmod(empty.argmax(1), n)
    i = np.arange(size)[:, None]
    s = np.arange(n)
    used = (np.bitwise_or.reduce(sym.bits[tabs[0, i, r[:, None], s]], axis=1)
            | np.bitwise_or.reduce(sym.bits[tabs[0, i, s, c[:, None]]], axis=1))
    # column 0 marks a complete table, column 1 + s a candidate s
    choice = np.empty((size, n + 1), dtype=bool)
    choice[:, 0] = ~empty.any(1)
    choice[:, 1:] = sym.members(sym.full & ~used) & ~choice[:, :1]
    t, v = np.nonzero(choice)
    return t, v - 1, r, c


def _propagating_walk(opts: SearchOptions, found: Optional[list]) -> tuple[int, int, int, int]:
    """The search with identities: ``(models, nodes, forced cells, prunes)``.
    A node is one child of a branching table, and a prune one dropped
    table; forced cells are not nodes."""
    n = opts.order
    pad = n + 2
    sym = _Symbols(n)
    progs = [(ident.program, [g[None] for g in np.indices((n,) * len(ident.vars), sparse=True)])
             for ident in opts.identities]
    forced = 0

    def branch(tabs):
        nonlocal forced
        alive, written = _settle(tabs, sym, progs)
        forced += written
        dropped = len(alive) - int(alive.sum())
        if dropped:
            tabs = tabs.compress(alive, axis=1)
        t, v, r, c = _branches(tabs, sym)

        def grow(kids, sv):
            # a model within the run rides along unwritten, so that it
            # reaches the next frame in its place in table order
            grown = tabs.take(kids, axis=1)
            i = np.flatnonzero(sv >= 0)
            sv, rr, cc = sv[i], r[kids[i]], c[kids[i]]
            grown[0, i, rr, cc] = sv
            grown[1, i, rr, sv] = cc
            grown[2, i, sv, cc] = rr
            return grown, len(i)

        return t, v, grow, tabs[0, :, :n, :n], dropped

    # Sentinel-padded tables: n marks an empty cell, and rows and columns n
    # and n + 1 are all n + 1, so a lookup with an unknown argument is n + 1.
    root = np.full((3, 1, pad, pad), n + 1, dtype=np.intp)
    root[:, :, :n, :n] = n
    models, nodes, prunes = _depth_first(opts, root, branch, found)
    return models, nodes, forced, prunes


def _depth_first(opts: SearchOptions, root, branch, found: Optional[list]) -> tuple[int, int, int]:
    """The depth-first walk over batches that both searches run, from the
    batch ``root``: ``(models, nodes, prunes)``.

    ``branch(batch)`` settles a batch and returns ``(t, v, grow, tables,
    prunes)``: its children in table order as arrays of parent table and
    symbol, symbol -1 for a parent that is a model; ``grow(t, v)``, which
    builds the batch of a run of children and returns it with the nodes it
    places; the batch's (B, n, n) tables; and the number of tables it
    dropped.

    The children of a batch are cut into batches of at most ``CELLS //
    n**k`` (k the largest number of variables, at least 2), and all
    descendants of one batch are walked before the next batch of its
    siblings.  A run of models is counted at once, up to the ``limit``-th
    model, where the walk stops.  Its parents are consecutive tables, as a
    table that is not a model has a child that is not, so unless ``found``
    is None the run is appended to it as one C-contiguous block: the slice
    of ``tables`` itself where that is contiguous (the row walk's uint8
    squares), else a copy (the padded tables of the propagating walk).
    """
    n = opts.order
    cap = max(1, CELLS // n ** max([2, *(len(ident.vars) for ident in opts.identities)]))
    limit = opts.limit
    interval = opts.progress_interval
    models = nodes = prunes = 0
    # one frame per settled batch: [child tables, child symbols, grow, tables, next child]
    frames: list[list] = []
    batch = root
    while True:
        t, v, grow, tables, dropped = branch(batch)
        prunes += dropped
        if len(t):
            frames.append([t, v, grow, tables, 0])
        batch = None
        while frames and batch is None:
            frame = frames[-1]
            t, v, grow, tables, pos = frame
            if pos == len(t):
                frames.pop()
            elif v[pos] < 0:
                live = np.flatnonzero(v[pos:] >= 0)
                end = pos + int(live[0]) if live.size else len(t)
                if limit is not None:
                    end = min(end, pos + limit - models)
                frame[4] = end
                models += end - pos
                if found is not None:
                    found.append(np.ascontiguousarray(tables[t[pos]:t[end - 1] + 1]))
                if models == limit:
                    return models, nodes, prunes
            else:
                frame[4] = end = min(pos + cap, len(t))
                batch, placed = grow(t[pos:end], v[pos:end])
                if interval:
                    for q in range(nodes // interval + 1, (nodes + placed) // interval + 1):
                        log.info("search order %d: %d nodes, %d models", n, q * interval, models)
                nodes += placed
        if batch is None:
            return models, nodes, prunes


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

    The results are re-checked block by block as ``_search`` built them,
    so one re-check spans at most the ``CELLS`` cells of one settle round:
    one Latin check and one exhaustive evaluation of each identity per
    block.  A block that fails is checked table by table with the
    ``Quasigroup`` constructor and ``holds``, which name the first defect.

    Up to isomorphism, the representative of a class is its lex-first
    model.  The models are passed once: a model whose first labeling
    (``quasigroup._labelings``) gives a relabeled table that an earlier
    representative's labelings gave joins that class; any other model is a
    new representative, and every labeling of it is recorded.  Isomorphic
    tables have the same relabeled tables, so this is exact, and only the
    representatives are wrapped, each on a copy of its own.
    """
    _check_bounds(opts, max_order)
    blocks = _search(opts)[::-1]
    models = []
    # relabeled tables as bytes, exact up to CANONICAL_MAX_ORDER < 256
    leaves: set[bytes] = set()
    while blocks:
        block = blocks.pop()        # so that up to isomorphism it is freed once passed
        if not (_all_latin(block) and all(_holds_in_each(block, i).all() for i in opts.identities)):
            for t in block:
                _full_check(t, opts.identities)
        for t in block:
            if opts.up_to_isomorphism:
                if bytes(next(_labelings(t))[0]) in leaves:
                    continue
                leaves.update(bytes(leaf) for leaf, _ in _labelings(t))
                t = t.copy()        # so that it keeps no block of skipped models alive
            models.append(Quasigroup._checked(t))
    return models


def count(opts: SearchOptions, max_order: Optional[int] = None) -> int:
    """Number of satisfying tables, counted as the search reaches them,
    without keeping them (up to isomorphism, the classes of ``find_all``).

    With no identity this is the row walk, which counts the squares of each
    batch that has rows 0 to n - 2 placed as models and builds no last row:
    the 161,280 Latin squares of order 5 take 232,920 nodes in 4,249
    batches.
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
    tables = np.array([q.table for q in models], dtype=np.int64).reshape(-1, n, n)
    fails = np.flatnonzero(~_holds_in_each(tables, conclusion))
    witness = models[fails[0]] if fails.size else None
    return ImplicationOutcome(holds=witness is None, witness=witness)
