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
ANL/MCS-TM-264, 2003).  It settles a batch of partial tables per numpy call
rather than one table per node.  A batch is a (3, B, n+2, n+2) stack of
sentinel-padded tables for ``*``, ``\\`` and ``/``: an empty cell holds n,
and rows and columns n and n + 1 hold n + 1, so a lookup with an unknown
argument gives n + 1 and one of known arguments into an empty cell gives n.
Row and column symbol sets come from the tables themselves, as bitmasks
through a table of symbol bits, counted with a popcount table.

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
symbol first; a node is one such child.  The walk is depth-first over
batches: the children of a settled batch, in table order, are cut into
batches of at most ``CELLS // n**k`` tables (k the largest number of
variables, at least 2), and all descendants of one batch are walked before
the next batch of its siblings.  A model among the children rides along in
the next batch unwritten, so it keeps its place.  A batch thus lists its
tables in table order, and all descendants of one table come before those
of the next.

In both walks two leaves first differ at the cell where their paths split,
and the smaller symbol there is tried first, so the models come out in table
(``_table_key``) order with no sort, and the walk stops at the ``limit``-th
model, the lexicographically first ``limit`` of them.  Each leaf is copied
once, into the int64 array that its ``Quasigroup`` then wraps; ``count``
only counts the leaves and copies none.

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
    propagation; with identities it is ``_propagating_walk``, which settles
    batches of at most ``CELLS // n**k`` partial tables per round (see the
    module docstring) and so reaches its nodes a batch at a time.  Either
    walk logs one INFO record for each multiple of ``opts.progress_interval``
    that its node count crosses, and one DEBUG record sums up the search;
    its prunes are dropped tables (the propagating walk) or dead row
    prefixes (the row walk).
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


class _Symbols:
    """Sets of the symbols 0..n-1 as bitmasks, bit s for symbol s: int64
    up to order 62, Python ints in object arrays above.  ``bits[v]`` is {v}
    for a symbol and the empty set for the sentinels n and n + 1, so
    ``bits[t]`` ORed along a row of a padded table is the set the row
    uses.  A popcount table counts members 16 bits at a time."""

    def __init__(self, n: int):
        kind = np.int64 if n <= 62 else object
        self.bits = np.array([1 << v for v in range(n)] + [0, 0], dtype=kind)
        self.full = np.bitwise_or.reduce(self.bits)
        self.shift = np.arange(n).astype(kind)
        width = min(n, 16)
        self.pop = np.zeros(1 << width, dtype=np.intp)
        for b in range(width):
            self.pop[1 << b:2 << b] = self.pop[:1 << b] + 1
        self.chunks = range(16, n, 16)

    def count(self, m: np.ndarray) -> np.ndarray:
        """The number of members of each set."""
        if not self.chunks:             # m < 2**n, the length of the table
            return self.pop[m]
        c = self.pop[(m & 0xFFFF).astype(np.intp)]
        for shift in self.chunks:
            c += self.pop[((m >> shift) & 0xFFFF).astype(np.intp)]
        return c

    def members(self, m: np.ndarray) -> np.ndarray:
        """0/1 membership of each symbol, on a new last axis of length n."""
        return (m[..., None] >> self.shift) & 1


class _Flat:
    """Lookups ``t[x, y]`` into one operation of a raveled (3, B, n+2, n+2)
    stack of padded tables, at the flat index ``base + x*(n+2) + y``;
    ``base`` picks the operation and, along its leading axis, the table, as
    the table index of ``identities._Stack`` does."""

    def __init__(self, flat: np.ndarray, base: np.ndarray, pad: int):
        self.flat = flat
        self.base = base
        self.pad = pad

    def __getitem__(self, xy):
        return self.flat.take(self.base + xy[0] * self.pad + xy[1])


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
    dead = ((sym.count(rows) + empty.sum(2) != n).any(1)
            | (sym.count(cols) + empty.sum(1) != n).any(1))
    cand = sym.full & ~(rows[:, :, None] | cols[:, None])
    num = sym.count(cand)
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
    k = max(2, *(len(ident.vars) for ident in opts.identities))
    cap = max(1, CELLS // n**k)
    sym = _Symbols(n)
    # Sentinel-padded tables: n marks an empty cell, and rows and columns n
    # and n + 1 are all n + 1, so a lookup with an unknown argument is n + 1.
    tabs = np.full((3, 1, pad, pad), n + 1, dtype=np.intp)
    tabs[:, :, :n, :n] = n
    progs = [(ident.program, [g[None] for g in np.indices((n,) * len(ident.vars), sparse=True)])
             for ident in opts.identities]
    limit = opts.limit
    interval = opts.progress_interval
    models = nodes = forced = prunes = 0
    # one frame per settled batch: [tables, child tables, child symbols,
    # branching rows, branching columns, next child]
    frames: list[list] = []
    while True:
        alive, written = _settle(tabs, sym, progs)
        forced += written
        if not alive.all():
            prunes += int(len(alive) - alive.sum())
            tabs = tabs.compress(alive, axis=1)
        if tabs.shape[1]:
            frames.append([tabs, *_branches(tabs, sym), 0])
        tabs = None
        while frames and tabs is None:
            frame = frames[-1]
            parents, t, v, r, c, pos = frame
            if pos == len(t):
                frames.pop()
            elif v[pos] < 0:
                frame[5] += 1
                models += 1
                if found is not None:
                    found.append(np.array(parents[0, t[pos], :n, :n], dtype=np.int64))
                if models == limit:
                    return models, nodes, forced, prunes
            else:
                # a model within the run rides along unwritten, so that it
                # reaches the next frame in its place in table order
                frame[5] = end = min(pos + cap, len(t))
                kids, sv = t[pos:end], v[pos:end]
                tabs = parents.take(kids, axis=1)
                i = np.flatnonzero(sv >= 0)
                sv, rr, cc = sv[i], r[kids[i]], c[kids[i]]
                tabs[0, i, rr, cc] = sv
                tabs[1, i, rr, sv] = cc
                tabs[2, i, sv, cc] = rr
                if interval:
                    for q in range(nodes // interval + 1, (nodes + len(i)) // interval + 1):
                        log.info("search order %d: %d nodes, %d models", n, q * interval, models)
                nodes += len(i)
        if tabs is None:
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
