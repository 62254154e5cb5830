"""Identity DSL: parse quasigroup equations, compile them and check them exhaustively.

Grammar (all operators share one precedence level, left-associative):

    identity :=  term "=" term
    term     :=  atom (("*" | "\\" | "/") atom)*
    atom     :=  VAR | "(" term ")"
    VAR      :=  [a-z][a-z0-9]*

Whitespace is ignored.  Juxtaposition is not multiplication: ``xy`` lexes as
one variable named "xy", so ``*`` is mandatory between factors.  Terms may
nest at most ``MAX_TERM_DEPTH`` levels, counting both parentheses and
operator applications; deeper input raises :class:`ParseError`.

Every identity is compiled once, on first use, into :attr:`Identity.program`:
post-order code of ``(op, left_slot, right_slot)`` instructions over the
variable slots ``0..k-1`` (variables in first-occurrence order), in which
repeated subterms share a slot.  :attr:`Identity.solved` is the same law in
solved form (``_solve``): on a Latin table u*w = v holds exactly when
w = u\\v, so a top lookup may move across ``=`` as its inverse lookup, and
it does while that lowers the number of lookups spanning many variables.
Neumann's x*((y*z)*(y*x)) = z is checked as (y*z)*(y*x) = x\\z, one lookup
over the n^3 assignments instead of two.

``_run`` executes either code by table lookups on whatever the variable
slots hold, and ``_blocks`` runs the same code one block at a time (see
below).  The checks of complete tables read the
solved form: ``_blocks`` (behind ``holds``, ``counterexample``,
``_first_violation`` and ``structure.nuclei``) and ``_holds_in_each``.  The
rest read ``program``: ``eval_term``, which gives ``_run`` scalars, and the
settle rounds of the model search.  On a partial table x\\z is unknown until
z is placed in row x, so the solved form would change what the search
forces.  Two consumers give ``_run`` a stack of tables, read through
``_Flat`` one flat index per lookup, with sparse variable grids behind a
leading table axis: the settle rounds, on the search's sentinel-padded
partial tables, and ``_holds_in_each``, which masks the tables of a Latin
stack that satisfy an identity, in chunks of at most ``BLOCK_CELLS`` cells
(one table at least), so a search block is one chunk.

``holds``, ``counterexample`` and ``_first_violation`` evaluate over sparse
index grids, so each intermediate spans only the variables it uses, one
block of the n^k assignments at a time (``_blocks``).  A block spans at most
``BLOCK_CELLS`` cells, so an evaluation holds one block's intermediates, not
n^k cells, and a slot that spans none of the axes cut into blocks, as
Neumann's y*z when x is cut, is evaluated once, before the first block.
The lookups (``_Gather``) of at least ``GATHER_CELLS`` cells compute their
values in the narrowest unsigned dtype that holds the elements, uint8 up to
order 256 and uint16 above, from a copy of the int64 table made for the one
evaluation: they gather whole table rows where the two operands span
disjoint axes, as in ``(x*y)*z`` and ``x*(y*z)``, and then the columns that
the other operand names; where the operands share an axis, as ``y*z`` and
``y*x`` do, they take the flat indices ``a*n + b``, formed in intp.  The
smaller lookups index the int64 table with two broadcast index arrays.
``Quasigroup.table`` and the division tables stay int64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import (
    EmptySide,
    MissingEquals,
    ParseError,
    UnboundVariable,
    UnknownIdentity,
)
from .quasigroup import Quasigroup, _check_cells

__all__ = [
    "MUL",
    "LDIV",
    "RDIV",
    "Var",
    "BinOp",
    "Term",
    "Identity",
    "parse_identity",
    "parse_term",
    "format_term",
    "eval_term",
    "holds",
    "counterexample",
    "builtin",
    "builtin_names",
]

MUL = "*"
LDIV = "\\"
RDIV = "/"
_OPS = (MUL, LDIV, RDIV)

# Bounds the recursion of the parser and of every walker over a Term.
MAX_TERM_DEPTH = 256

# Cells of one block of an exhaustive evaluation.  At 2^16 cells a block's
# uint8 lookup values take 64 KiB (uint16: 128 KiB), its flat-index buffer
# 512 KiB, and a chunk of _holds_in_each, whose values are int64, 512 KiB.
# With uint8 values, holds at orders 16 to 128 (2-core host) ran 1.05-1.8x
# slower at 2^14 cells, and at 2^17 or 2^18 up to 1.2x faster (medial at
# orders 48 and 64), but the int64 chunks of _holds_in_each would double.
BLOCK_CELLS = 2**16
# Below this many cells, a two-index lookup into the int64 table is faster
# than the narrow copy and a gather, whose extra numpy calls cost a few
# microseconds.
GATHER_CELLS = 2**11


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Term"
    rhs: "Term"


Term = Union[Var, BinOp]


def term_variables(t: Term) -> Iterator[str]:
    """Variable names in first-occurrence (left to right) order, with repeats."""
    if isinstance(t, Var):
        yield t.name
    else:
        yield from term_variables(t.lhs)
        yield from term_variables(t.rhs)


class Program(NamedTuple):
    """Post-order code over slots ``0..k-1`` holding the k variables:
    instruction ``i`` writes slot ``k + i``, and ``lhs``/``rhs`` are the
    slots holding the two sides."""

    code: tuple[tuple[str, int, int], ...]
    lhs: int
    rhs: int


@dataclass(frozen=True)
class Identity:
    """Universally quantified equation of two quasigroup words."""

    lhs: Term
    rhs: Term

    @cached_property
    def vars(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for name in term_variables(self.lhs):
            seen.setdefault(name)
        for name in term_variables(self.rhs):
            seen.setdefault(name)
        return tuple(seen)

    @cached_property
    def program(self) -> Program:
        """Both sides compiled over the slots of :attr:`vars`."""
        slots: dict[Term, int] = {Var(v): i for i, v in enumerate(self.vars)}
        code: list[tuple[str, int, int]] = []

        def emit(t: Term) -> int:
            if t not in slots:
                code.append((t.op, emit(t.lhs), emit(t.rhs)))
                slots[t] = len(self.vars) + len(code) - 1
            return slots[t]

        lhs, rhs = emit(self.lhs), emit(self.rhs)
        return Program(tuple(code), lhs, rhs)

    @cached_property
    def solved(self) -> Program:
        """:attr:`program` with top lookups moved across ``=`` while that
        lowers the work (see ``_solve``); equivalent to it at every
        assignment on every Latin table."""
        return _solve(self.program, len(self.vars))

    def __str__(self) -> str:
        return f"{format_term(self.lhs)} = {format_term(self.rhs)}"


# -- concrete syntax ---------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
        elif ch == "(":
            toks.append(("lparen", ch, i))
            i += 1
        elif ch == ")":
            toks.append(("rparen", ch, i))
            i += 1
        elif ch == "=":
            toks.append(("eq", ch, i))
            i += 1
        elif "a" <= ch <= "z":
            j = i + 1
            while j < len(text) and ("a" <= text[j] <= "z" or "0" <= text[j] <= "9"):
                j += 1
            toks.append(("var", text[i:j], i))
            i = j
        else:
            raise ParseError(
                f"unexpected character {ch!r}", i,
                expected="variable, operator, parenthesis or '='",
            )
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, toks: list[tuple[str, str, int]]):
        self.toks = toks
        self.i = 0
        self.parens = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def term(self) -> Term:
        return self._term()[0]

    def _term(self) -> tuple[Term, int]:
        """A term and its height (a variable has height 0)."""
        node, height = self.atom()
        while self.peek()[0] == "op":
            _, op, pos = self.advance()
            rhs, rhs_height = self.atom()
            node, height = BinOp(op, node, rhs), 1 + max(height, rhs_height)
            if height > MAX_TERM_DEPTH:
                raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels", pos)
        return node, height

    def atom(self) -> tuple[Term, int]:
        kind, value, pos = self.peek()
        if kind == "var":
            self.advance()
            return Var(value), 0
        if kind == "lparen":
            self.parens += 1
            if self.parens > MAX_TERM_DEPTH:
                raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH} levels", pos)
            self.advance()
            inner = self._term()
            kind, _, pos = self.peek()
            if kind != "rparen":
                raise ParseError("unbalanced parenthesis", pos, expected="')'")
            self.advance()
            self.parens -= 1
            return inner
        raise ParseError(f"unexpected {value!r}" if value else "unexpected end of input",
                         pos, expected="variable or '('")


def parse_term(text: str) -> Term:
    """Parse a single quasigroup word."""
    p = _Parser(_tokenize(text))
    node = p.term()
    kind, value, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", pos, expected="operator or end of input")
    return node


def parse_identity(text: str) -> Identity:
    """Parse ``term = term`` into an :class:`Identity`."""
    p = _Parser(_tokenize(text))
    kind, _, pos = p.peek()
    if kind == "eq":
        raise EmptySide("left side of the equation is empty", pos)
    if kind == "end":
        raise EmptySide("empty equation", pos)
    lhs = p.term()
    kind, value, pos = p.peek()
    if kind == "end":
        raise MissingEquals("no '=' in equation", pos)
    if kind != "eq":
        raise ParseError(f"unexpected {value!r}", pos, expected="operator or '='")
    p.advance()
    kind, _, pos = p.peek()
    if kind == "end":
        raise EmptySide("right side of the equation is empty", pos)
    rhs = p.term()
    kind, value, pos = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected {value!r}", pos, expected="end of input")
    return Identity(lhs, rhs)


def format_term(t: Term) -> str:
    """Minimal-parentheses rendering that reparses to the same tree.

    Operators are left-associative at one precedence level, so only a
    compound right operand needs parentheses.
    """
    if isinstance(t, Var):
        return t.name
    lhs = format_term(t.lhs)
    rhs = format_term(t.rhs)
    if isinstance(t.rhs, BinOp):
        rhs = f"({rhs})"
    return f"{lhs}{t.op}{rhs}"


# -- solved form -------------------------------------------------------------------


def _inverses(op: str, a: int, b: int, v: int) -> tuple[tuple[int, tuple[str, int, int]], ...]:
    """The two rewrites of the equation ``op(a, b) = v`` that a Latin table
    admits, as pairs (the operand left alone, the lookup it equals):
    a*b = v iff b = a\\v iff a = v/b; a\\b = v iff b = a*v iff a = b/v;
    a/b = v iff a = v*b iff b = v\\a."""
    if op == MUL:
        return (b, (LDIV, a, v)), (a, (RDIV, v, b))
    if op == LDIV:
        return (b, (MUL, a, v)), (a, (RDIV, b, v))
    return (a, (MUL, v, b)), (b, (LDIV, v, a))


def _live(code, k: int, sides) -> list[int]:
    """The slots of the lookups that the two sides read, ascending."""
    live: set[int] = set()
    todo = [s for s in sides if s >= k]
    while todo:
        s = todo.pop()
        if s not in live:
            live.add(s)
            todo.extend(t for t in code[s - k][1:] if t >= k)
    return sorted(live)


def _spans(code, k: int) -> list[int]:
    """Per slot, the bit mask of the variables it spans."""
    span = [1 << i for i in range(k)]
    for _, a, b in code:
        span.append(span[a] | span[b])
    return span


def _work(code, k: int, sides) -> tuple[int, ...]:
    """The counts of the live lookups that span k variables, k - 1, ..., 1.
    A lookup spanning s variables costs n^s cells, so for large n the
    tuples order the work as the cells do, and their order does not
    depend on n."""
    span = _spans(code, k)
    counts = [0] * k
    for s in _live(code, k, sides):
        counts[k - span[s].bit_count()] += 1
    return tuple(counts)


def _solve(prog: Program, k: int) -> Program:
    """``prog`` in solved form.  While a side's top lookup can move to the
    other side as its inverse (``_inverses``) and the cheapest such move
    lowers ``_work``, the move is made; a tie keeps the law.  Then the
    lookups that nothing reads any more are dropped.  Every move is an
    equivalence at each assignment on a Latin table, so the violations are
    the same cells.  Neumann's x*((y*z)*(y*x)) = z becomes
    (y*z)*(y*x) = x\\z: one lookup over all n^3 assignments instead of two."""
    code, sides = list(prog.code), (prog.lhs, prog.rhs)
    work = _work(code, k, sides)
    while True:
        moves = []
        for i, top in enumerate(sides):
            if top < k:
                continue
            for kept, lookup in _inverses(*code[top - k], sides[1 - i]):
                trial = code if lookup in code else code + [lookup]
                slot = k + trial.index(lookup)
                moved = (kept, slot) if i == 0 else (slot, kept)
                moves.append((_work(trial, k, moved), trial, moved))
        best = min(moves, key=lambda m: m[0], default=None)
        if best is None or best[0] >= work:
            break
        work, code, sides = best
    slot = {s: s for s in range(k)}
    out = []
    for s in _live(code, k, sides):
        op, a, b = code[s - k]
        out.append((op, slot[a], slot[b]))
        slot[s] = k + len(out) - 1
    return Program(tuple(out), slot[sides[0]], slot[sides[1]])


# -- semantics ----------------------------------------------------------------------


_TABLE_ATTR = {MUL: "table", LDIV: "ldiv_table", RDIV: "rdiv_table"}


def _run(code, tables: Mapping[str, np.ndarray], grids) -> list:
    """Slot values: the variable grids (scalars or arrays), then one table
    lookup per instruction."""
    vals = list(grids)
    for op, a, b in code:
        vals.append(tables[op][vals[a], vals[b]])
    return vals


def _tables(q: Quasigroup, code) -> dict[str, np.ndarray]:
    """The operation tables of ``q`` that ``code`` looks up."""
    return {op: getattr(q, _TABLE_ATTR[op]) for op, _, _ in code}


def eval_term(q: Quasigroup, t: Term, assignment: Mapping[str, int]) -> int:
    """Evaluate a word over ``q`` under a variable assignment."""
    ident = Identity(t, t)
    for name in ident.vars:
        if name not in assignment:
            raise UnboundVariable(f"variable {name!r} is not assigned")
    values = [assignment[name] for name in ident.vars]
    q._check_elem(*values)
    prog = ident.program
    return int(_run(prog.code, _tables(q, prog.code), values)[prog.lhs])


class _Gather:
    """Lookups ``t[a, b]`` into one int64 operation table over k-axis
    sparse grids.  A lookup of fewer than ``GATHER_CELLS`` cells indexes
    the table with two broadcast index arrays.  The larger ones read a copy
    of the table in the narrowest dtype that holds its elements
    (``np.min_scalar_type(n - 1)``: uint8 up to order 256, uint16 above),
    made on the first of them, and return values in that dtype.  Where no
    axis is spanned by both ``a`` and ``b``, whole rows of ``a`` and then
    ``b``'s columns of them are gathered (or the columns first, if fewer
    cells), and the result is a view with its axes in order.  Where an
    axis is shared, as in ``(y*z)*(y*x)``, the flat indices ``a*n + b`` are
    formed in intp, in one buffer that the table's shared-axis lookups of
    the evaluation reuse, and taken from the raveled table: a fresh intp
    array of a block's size per lookup cost more in new pages than the
    lookup itself, and a two-index lookup into the narrow table took
    1.1-1.8x as long as the flat take at orders 24 to 128."""

    def __init__(self, table: np.ndarray):
        self.table = table
        self.narrow = None      # the narrow copy of the table
        self.index = None       # the flat-index buffer

    def __getitem__(self, ab):
        a, b = ab
        if a.size * b.size < GATHER_CELLS:     # no fewer than the lookup's cells
            return self.table[a, b]
        shape = [max(x, y) for x, y in zip(a.shape, b.shape)]
        cells = math.prod(shape)
        if cells < GATHER_CELLS:
            return self.table[a, b]
        if self.narrow is None:
            self.narrow = self.table.astype(np.min_scalar_type(len(self.table) - 1))
        t = self.narrow
        if cells < a.size * b.size:     # an axis spanned by both
            if self.index is None or len(self.index) < cells:
                self.index = np.empty(cells, dtype=np.intp)
            index = self.index[:cells].reshape(shape)
            # widened before the product: a uint8 a * n would wrap
            np.multiply(a, np.intp(len(t)), out=index)
            index += b
            return t.reshape(-1).take(index)
        k = len(shape)
        both = a.shape + b.shape
        a, b = a.reshape(-1), b.reshape(-1)
        out = t.take(a, 0).take(b, 1) if len(a) <= len(b) else t.take(b, 1).take(a, 0)
        # axis i of a's shape next to axis i of b's, one of them of extent 1
        return out.reshape(both).transpose([j for i in range(k) for j in (i, k + i)]).reshape(shape)


def _blocks(q: Quasigroup, ident: Identity,
            axes: Sequence[int]) -> Iterator[tuple[tuple[slice, ...], np.ndarray]]:
    """The identity's violations, block by block: pairs ``(where, bad)``
    where ``bad`` is True where the identity fails on the block ``where``
    (one slice per axis) of the n^k assignments; axis i is
    ``ident.vars[i]``.

    ``axes`` orders the k axes from slowest to fastest.  A block spans at
    most ``BLOCK_CELLS`` cells: the leading axes of ``axes`` are cut into
    single values while one value of them spans more cells than that, the
    next into slices as wide as the budget allows, and the others are
    whole.  Blocks come in the order of ``axes``, so the first block with a
    violation holds the first violation in that order.

    Each slot of the solved form (:attr:`Identity.solved`) is evaluated
    over sparse index grids, so an intermediate spans only the axes of the
    variables it uses; only the final comparison is broadcast (as a view)
    to the block's shape, where it lacks an axis.  A slot that spans no cut
    axis holds the same values in every block and is evaluated once, before
    the first.  The lookups (``_Gather``) return uint8 or uint16 values from
    ``GATHER_CELLS`` cells up and int64 below, and an int64 side of the
    comparison (a bare variable or a small lookup) is cast to the other's
    dtype first.  ``q`` is read only through ``order`` and the tables the
    solved form looks up, so a law in ``*`` alone may read a division table
    (Neumann's reads ``ldiv_table``).
    """
    n = q.order
    k = len(ident.vars)
    _check_cells(n, k)
    prog = ident.solved
    grids = np.indices((n,) * k, sparse=True)
    cuts = []       # (axis, values per block), slowest first
    cut = 0         # their bit mask
    rest = n**k
    for a in axes:
        if rest <= BLOCK_CELLS:
            break
        rest //= n
        cuts.append((a, max(1, BLOCK_CELLS // rest)))
        cut |= 1 << a
    tables = {op: _Gather(t) for op, t in _tables(q, prog.code).items()}
    span = _spans(prog.code, k)
    fixed = list(grids)     # a block replaces the grids of the cut axes
    code = []               # the lookups that each block evaluates
    for s, (op, a, b) in enumerate(prog.code, k):
        if span[s] & cut:
            code.append((s, op, a, b))
            fixed.append(None)
        else:
            fixed.append(tables[op][fixed[a], fixed[b]])
    where = [slice(0, n)] * k
    shape = [n] * k
    for starts in itertools.product(*(range(0, n, step) for _, step in cuts)):
        vals = list(fixed)
        for (a, step), lo in zip(cuts, starts):
            where[a] = slice(lo, min(lo + step, n))
            shape[a] = where[a].stop - lo
            vals[a] = grids[a][(slice(None),) * a + (where[a],)]
        for s, op, a, b in code:
            vals[s] = tables[op][vals[a], vals[b]]
        lhs, rhs = vals[prog.lhs], vals[prog.rhs]
        if lhs.itemsize > rhs.itemsize:
            lhs = lhs.astype(rhs.dtype)
        elif rhs.itemsize > lhs.itemsize:
            rhs = rhs.astype(lhs.dtype)
        bad = lhs != rhs
        yield tuple(where), bad if bad.shape == tuple(shape) else np.broadcast_to(bad, shape)


def holds(q: Quasigroup, ident: Identity) -> bool:
    """True iff the identity is satisfied under all n^k assignments.

    The assignments are evaluated in blocks of at most ``BLOCK_CELLS``
    cells (see ``_blocks``), and the first block with a violation ends the
    check.
    """
    return not any(bad.any() for _, bad in _blocks(q, ident, range(len(ident.vars))))


class _Flat:
    """Lookups ``t[x, y]`` into a raveled stack of tables with rows of
    ``pad`` cells, at the flat index ``base + x*pad + y``, ``base`` the
    broadcast offset of each table.  ``_holds_in_each`` reads an (m, n, n)
    stack with ``pad`` n; the settle rounds of the model search read one
    operation of a (3, B, n+2, n+2) stack of padded tables with ``pad``
    n + 2, so that ``base`` picks the operation as well."""

    def __init__(self, flat: np.ndarray, base: np.ndarray, pad: int):
        self.flat = flat
        self.base = base
        self.pad = pad

    def __getitem__(self, xy):
        return self.flat.take(self.base + xy[0] * self.pad + xy[1])


def _holds_in_each(tables: np.ndarray, ident: Identity) -> np.ndarray:
    """Mask of the tables of the (m, n, n) stack ``tables`` in which the
    identity holds: the solved form over the sparse variable grids of
    ``holds`` behind a leading table axis, in chunks of at most
    ``BLOCK_CELLS`` cells (one table at least).

    Every table must be Latin.  The division tables that the solved form
    reads are argsorts of the rows and columns, which invert them only
    when they are permutations; on a non-Latin table the mask means
    nothing."""
    m, n = tables.shape[:2]
    k = len(ident.vars)
    _check_cells(n, k)
    prog = ident.solved
    ops = {op for op, _, _ in prog.code}
    grids = [g[None] for g in np.indices((n,) * k, sparse=True)]
    step = max(1, BLOCK_CELLS // n**k)
    out = np.empty(m, dtype=bool)
    for lo in range(0, m, step):
        full = {MUL: tables[lo:lo + step]}
        # argsort of a permutation row is its inverse, as in Quasigroup.ldiv_table
        if LDIV in ops:
            full[LDIV] = np.argsort(full[MUL], axis=2)
        if RDIV in ops:
            full[RDIV] = np.argsort(full[MUL], axis=1)
        base = (np.arange(len(full[MUL])) * (n * n)).reshape((-1,) + (1,) * k)
        vals = _run(prog.code, {op: _Flat(t.reshape(-1), base, n) for op, t in full.items()}, grids)
        out[lo:lo + step] = ~(vals[prog.lhs] != vals[prog.rhs]).any(axis=tuple(range(1, k + 1)))
    return out


def counterexample(q: Quasigroup, ident: Identity) -> Optional[dict[str, int]]:
    """First failing assignment, or None if the identity holds.

    Assignments are enumerated with the first variable of ``ident.vars``
    cycling fastest (like the least significant digit of a counter): the
    scan of ``_first_violation`` over the reversed axes.
    """
    first = _first_violation(q, ident, tuple(range(len(ident.vars) - 1, -1, -1)))
    return None if first is None else dict(zip(ident.vars, first))


def _first_violation(q: Quasigroup, ident: Identity, axes=None) -> Optional[tuple[int, ...]]:
    """First failing assignment as a tuple in the order of ``ident.vars``,
    or None.  ``axes`` lists the variables from slowest to fastest, C order
    (the first variable slowest, the last fastest) by default.  The blocks
    of ``_blocks`` come in that order, so the first block with a violation
    holds the first one, and the blocks after it are not evaluated."""
    axes = tuple(range(len(ident.vars))) if axes is None else axes
    for where, bad in _blocks(q, ident, axes):
        if bad.any():
            ordered = bad.transpose(axes)
            first = dict(zip(axes, np.unravel_index(int(np.argmax(ordered)), ordered.shape)))
            return tuple(w.start + int(first[v]) for v, w in enumerate(where))
    return None


# -- builtin catalog -----------------------------------------------------------------

_CATALOG: dict[str, str] = {
    "neumann": "x*((y*z)*(y*x)) = z",
    "schweizer": "(y*z)*(y*x) = x*z",
    "eq5": "(x*y)*z = y*(z*x)",
    "eq5_parastrophe": "(x*(y*z))*(x*y) = z",
    "medial": "(x*y)*(u*v) = (x*u)*(y*v)",
    "commutative": "x*y = y*x",
    "associative": "(x*y)*z = x*(y*z)",
    "unipotent": "x*x = y*y",
    "schweizer_swapped": "(y*x)*(y*z) = z*x",
    # Left Bol with the local right unit e_x = x\x (x*e_x = x) and the
    # inverse right translation w -> w/e_x.
    "left_bol": "x*(y*(x*z)) = ((x*(y*x))/(x\\x))*z",
    # Moufang with the local left unit f_x = x/x (f_x*x = x).
    "moufang": "x*(y*(x*z)) = ((x*(y*(x/x)))*x)*z",
    # The two distributive laws of the core x o y = x*(y*x):
    # x o (y o z) = (x o y) o (x o z) and (x o y) o z = (x o z) o (y o z).
    "core_left_distributive": "x*((y*(z*y))*x) = (x*(y*x))*((x*(z*x))*(x*(y*x)))",
    "core_right_distributive": "(x*(y*x))*(z*(x*(y*x))) = (x*(z*x))*((y*(z*y))*(x*(z*x)))",
}

_parsed_catalog: dict[str, Identity] = {}


def builtin_names() -> tuple[str, ...]:
    return tuple(_CATALOG)


def builtin(name: str) -> Identity:
    """Named identity from the catalog (see :func:`builtin_names`)."""
    try:
        cached = _parsed_catalog.get(name)
        if cached is None:
            cached = _parsed_catalog[name] = parse_identity(_CATALOG[name])
        return cached
    except KeyError:
        raise UnknownIdentity(name, builtin_names()) from None
