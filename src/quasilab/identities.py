"""Identity DSL: parse quasigroup equations and check them exhaustively.

Grammar (all operators share one precedence level, left-associative):

    identity :=  term "=" term
    term     :=  atom (("*" | "\\" | "/") atom)*
    atom     :=  VAR | "(" term ")"
    VAR      :=  [a-z][a-z0-9]*

Whitespace is ignored.  Juxtaposition is not multiplication: ``xy`` lexes as
one variable named "xy", so ``*`` is mandatory between factors.  Terms may
nest at most ``MAX_TERM_DEPTH`` levels, counting both parentheses and
operator applications; deeper input raises :class:`ParseError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from .errors import (
    EmptySide,
    MissingEquals,
    ParseError,
    UnboundVariable,
    UnknownIdentity,
)
from .quasigroup import Quasigroup

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
    "implies_on_order",
    "ImplicationOutcome",
]

MUL = "*"
LDIV = "\\"
RDIV = "/"
_OPS = (MUL, LDIV, RDIV)

# Bounds the recursion of the parser and of every walker over a Term.
MAX_TERM_DEPTH = 256


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


# -- semantics ----------------------------------------------------------------------


def eval_term(q: Quasigroup, t: Term, assignment: Mapping[str, int]) -> int:
    """Evaluate a word over ``q`` under a variable assignment."""
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise UnboundVariable(f"variable {t.name!r} is not assigned") from None
    a = eval_term(q, t.lhs, assignment)
    b = eval_term(q, t.rhs, assignment)
    if t.op == MUL:
        return q.mul(a, b)
    if t.op == LDIV:
        return q.ldiv(a, b)
    return q.rdiv(a, b)


def _grid_eval(q: Quasigroup, t: Term, grids: np.ndarray, index: Mapping[str, int]) -> np.ndarray:
    if isinstance(t, Var):
        return grids[index[t.name]]
    a = _grid_eval(q, t.lhs, grids, index)
    b = _grid_eval(q, t.rhs, grids, index)
    if t.op == MUL:
        return q.table[a, b]
    if t.op == LDIV:
        return q.ldiv_table[a, b]
    return q.rdiv_table[a, b]


def _first_failure(q: Quasigroup, ident: Identity) -> Optional[dict[str, int]]:
    """First failing assignment, or None.

    Assignments are enumerated with the first variable of ``ident.vars``
    cycling fastest (like the least significant digit of a counter).
    """
    vs = ident.vars
    n = q.order
    k = len(vs)
    index = {v: i for i, v in enumerate(vs)}
    grids = np.indices((n,) * k) if k else np.zeros((0, 1), dtype=np.int64)
    lhs = _grid_eval(q, ident.lhs, grids, index)
    rhs = _grid_eval(q, ident.rhs, grids, index)
    neq = lhs != rhs
    if not neq.any():
        return None
    # Fortran flattening makes axis 0 (the first variable) the fastest.
    flat = int(np.argmax(neq.flatten(order="F")))
    return {v: (flat // n**i) % n for i, v in enumerate(vs)}


def holds(q: Quasigroup, ident: Identity) -> bool:
    """True iff the identity is satisfied under all n^k assignments."""
    return _first_failure(q, ident) is None


def counterexample(q: Quasigroup, ident: Identity) -> Optional[dict[str, int]]:
    """First failing assignment (first variable fastest), or None if it holds."""
    return _first_failure(q, ident)


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


# -- semantic implication on finite models --------------------------------------------


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
    from .search import SearchOptions, find_all

    models = find_all(SearchOptions(order=n, identities=(hypothesis,)), max_order=max_order)
    for q in models:
        if not holds(q, conclusion):
            return ImplicationOutcome(holds=False, witness=q)
    return ImplicationOutcome(holds=True, witness=None)
