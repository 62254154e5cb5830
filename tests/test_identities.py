import re
import tracemalloc
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilab import (
    BinOp,
    EmptySide,
    MissingEquals,
    OrderTooLarge,
    OutOfRange,
    ParseError,
    Quasigroup,
    UnboundVariable,
    UnknownIdentity,
    Var,
    builtin,
    builtin_names,
    counterexample,
    cyclic,
    eval_term,
    holds,
    implies_on_order,
    parse_identity,
    parse_term,
    subtraction_quasigroup,
)
from quasilab import abelian, identities, quasigroup, search, structure, verification
from quasilab.identities import _CATALOG, LDIV, MUL, RDIV, Identity, _first_violation
from quasilab.identities import _Flat, _holds_in_each
from conftest import addition_table
from oracles import (
    all_latin_squares,
    first_failure_bruteforce,
    first_failure_lex,
    holds_bruteforce,
    naive_nucleus,
)


# -- parsing ------------------------------------------------------------------


def test_parse_trivial():
    ident = parse_identity("x = x")
    assert ident.lhs == Var("x") and ident.rhs == Var("x")
    assert ident.vars == ("x",)


def test_parse_neumann_ast():
    ident = parse_identity("x*((y*z)*(y*x)) = z")
    assert ident.vars == ("x", "y", "z")
    assert ident.lhs == BinOp(
        MUL,
        Var("x"),
        BinOp(MUL, BinOp(MUL, Var("y"), Var("z")), BinOp(MUL, Var("y"), Var("x"))),
    )
    assert ident.rhs == Var("z")


def test_left_associativity_and_precedence():
    # one precedence level, left-associative
    t = parse_term("a*b\\c/d")
    assert t == BinOp(RDIV, BinOp(LDIV, BinOp(MUL, Var("a"), Var("b")), Var("c")), Var("d"))


def test_multichar_variables_are_single_tokens():
    ident = parse_identity("xy*z2 = z2*xy")
    assert ident.vars == ("xy", "z2")


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError) as exc:
        parse_identity("x*(y*z = z")
    assert exc.value.position == 7
    assert "')'" in str(exc.value)


def test_missing_equals():
    with pytest.raises(MissingEquals):
        parse_identity("x*y")


def test_empty_sides():
    with pytest.raises(EmptySide):
        parse_identity("= x")
    with pytest.raises(EmptySide):
        parse_identity("x = ")
    with pytest.raises(EmptySide):
        parse_identity("   ")


def test_juxtaposition_is_rejected():
    with pytest.raises(ParseError):
        parse_identity("x (y) = y")
    with pytest.raises(ParseError):
        parse_identity("(x*y)(u*v) = x")


def test_double_equals_rejected():
    with pytest.raises(ParseError):
        parse_identity("x = y = z")


def test_bad_character_position():
    with pytest.raises(ParseError) as exc:
        parse_identity("x * Y = x")
    assert exc.value.position == 4


def test_nesting_depth_limit():
    from quasilab.identities import MAX_TERM_DEPTH

    d = MAX_TERM_DEPTH
    # At the limit: parentheses and operator nesting both parse.
    parse_identity("x = " + "(" * d + "x" + ")" * d)
    right = parse_identity("x = " + "x*(" * (d - 1) + "x*x" + ")" * (d - 1))
    assert holds(subtraction_quasigroup(cyclic(1)), right)
    parse_identity("x = x" + "*x" * d)
    # One level deeper raises ParseError, not RecursionError.
    for text in (
        "x = " + "(" * (d + 1) + "x" + ")" * (d + 1),
        "x = " + "(" * 3000 + "x" + ")" * 3000,
        "x = x" + "*x" * (d + 1),
        "x = " + "x*(" * d + "x*x" + ")" * d,
    ):
        with pytest.raises(ParseError, match="nested deeper"):
            parse_identity(text)
    with pytest.raises(ParseError):
        parse_term("(" * 3000 + "x" + ")" * 3000)


def test_only_ascii_digits_in_variable_names():
    with pytest.raises(ParseError):
        parse_identity("x² = x")     # superscript two is not [0-9]


# -- evaluation ------------------------------------------------------------------


def test_eval_term_example(z4_sub):
    t = parse_term("x*(y*x)")
    assert eval_term(z4_sub, t, {"x": 1, "y": 3}) == 3   # 1 - (3 - 1) = 3 mod 4


def test_eval_var(z4_sub):
    assert eval_term(z4_sub, Var("x"), {"x": 2}) == 2


def test_eval_unbound(z4_sub):
    with pytest.raises(UnboundVariable):
        eval_term(z4_sub, parse_term("x*y"), {"x": 0})


def test_eval_out_of_range_does_not_wrap(z4_sub):
    for bad in (-1, 4, 1.5, 1.0, True):
        with pytest.raises(OutOfRange):
            eval_term(z4_sub, parse_term("x*y"), {"x": bad, "y": 0})


def test_ldiv_cancellation_everywhere(z5_sub):
    t = parse_term("x\\(x*y)")
    for x in range(5):
        for y in range(5):
            assert eval_term(z5_sub, t, {"x": x, "y": y}) == y


# -- holds / counterexample --------------------------------------------------------


def test_neumann_holds_on_z4_subtraction(z4_sub):
    ident = builtin("neumann")
    assert holds_bruteforce(z4_sub.to_lists(), ident)   # oracle first
    assert holds(z4_sub, ident)


def test_neumann_counterexample_on_z3_addition(z3_add):
    ident = builtin("neumann")
    oracle = first_failure_bruteforce(z3_add.to_lists(), ident)
    assert oracle == {"x": 1, "y": 0, "z": 0}
    assert counterexample(z3_add, ident) == oracle
    assert not holds(z3_add, ident)


def test_eq5_holds_on_z3_addition(z3_add):
    assert holds(z3_add, builtin("eq5"))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(builtin_names()), st.integers(2, 5))
def test_holds_matches_bruteforce(name, n):
    ident = builtin(name)
    for table in (addition_table(n), [[(x - y) % n for y in range(n)] for x in range(n)]):
        q = Quasigroup(table)
        assert holds(q, ident) == holds_bruteforce(q.to_lists(), ident)
        assert counterexample(q, ident) == first_failure_bruteforce(q.to_lists(), ident)


_SMALL_LATIN = [sq for n in range(1, 5) for sq in all_latin_squares(n)]


def _block_settings(n: int, k: int) -> list[tuple[int, int]]:
    """(BLOCK_CELLS, GATHER_CELLS) pairs for an order-n, k-variable law.
    The blocks hold one value of the first axis, two values of it (ragged
    at odd n), one value of the first axis and two of the second (ragged
    at odd n) and, below order 4, where it is cheap, single cells.  Every
    lookup of operands with disjoint axes gathers rows and columns, and
    the single-cell blocks are also run with two-index lookups only."""
    settings = [(n ** (k - 1) + 1, 0), (2 * n ** (k - 1) + 1, 0), (2 * n ** (k - 2) + 1, 0)]
    if n < 4:
        settings += [(1, 0), (1, n**k + 1)]
    return settings


def _patch_blocks(monkeypatch, setting: tuple[int, int]) -> None:
    monkeypatch.setattr(identities, "BLOCK_CELLS", setting[0])
    monkeypatch.setattr(identities, "GATHER_CELLS", setting[1])


# Laws outside the catalog for the solved form: one per rewrite of a top
# lookup across '=' (each solves to (y*z)*(y*x) against a lookup of x and z),
# Neumann with its sides swapped, and a law whose moves all tie, which keeps
# its program.
_SOLVING_LAWS = {
    "mul_right": "z = x*((y*z)*(y*x))",         # a*b = v: b = a\v
    "mul_left": "((y*z)*(y*x))*x = z",          # a*b = v: a = v/b
    "ldiv_right": "x\\((y*z)*(y*x)) = z",       # a\b = v: b = a*v
    "ldiv_left": "((y*z)*(y*x))\\x = z",        # a\b = v: a = b/v
    "rdiv_left": "((y*z)*(y*x))/x = z",         # a/b = v: a = v*b
    "rdiv_right": "x/((y*z)*(y*x)) = z",        # a/b = v: b = v\a
    "tied": "x*(y*z) = (x*y)\\z",
}


def _law(name: str) -> Identity:
    return parse_identity(_SOLVING_LAWS[name]) if name in _SOLVING_LAWS else builtin(name)


@pytest.mark.parametrize("name", builtin_names() + tuple(_SOLVING_LAWS))
def test_blocked_evaluation_matches_bruteforce(name, monkeypatch):
    # every catalog law, including those with a bare variable on a cut axis
    # (commutative, unipotent, neumann's y*x), and the solving laws, on every
    # Latin square of orders 1-4, with blocks from single cells up to ragged
    # slices; the oracle evaluates the parsed terms, not the solved form
    ident = _law(name)
    k = len(ident.vars)
    for table in _SMALL_LATIN:
        q = Quasigroup(table)
        cx = first_failure_bruteforce(table, ident)
        lex = first_failure_lex(table, ident)
        for setting in _block_settings(q.order, k):
            _patch_blocks(monkeypatch, setting)
            assert holds(q, ident) == (cx is None), (table, setting)
            assert counterexample(q, ident) == cx, (table, setting)
            assert _first_violation(q, ident) == lex, (table, setting)


def _work_by_span(prog, k: int) -> list[int]:
    """The lookups of ``prog`` that span at least k, k - 1, ..., 1 variables."""
    span = [{i} for i in range(k)]
    for _, a, b in prog.code:
        span.append(span[a] | span[b])
    sizes = [len(s) for s in span[k:]]
    return [sum(size >= s for size in sizes) for s in range(k, 0, -1)]


def test_solved_forms_of_the_catalog():
    # Neumann alone changes: (y*z)*(y*x) against x\z, one lookup over all
    # of x, y and z; no law does more lookups of any span size or above
    for name in builtin_names():
        ident = builtin(name)
        k = len(ident.vars)
        assert all(s <= p for s, p in zip(_work_by_span(ident.solved, k), _work_by_span(ident.program, k))), name
        assert (ident.solved == ident.program) == (name != "neumann"), name
    solved = builtin("neumann").solved
    assert _work_by_span(solved, 3) == [1, 4, 4]
    x, y, z = range(3)
    assert solved.code == ((MUL, y, z), (MUL, y, x), (MUL, 3, 4), (LDIV, x, z))
    assert (solved.lhs, solved.rhs) == (5, 6)


@pytest.mark.parametrize("name", sorted(_SOLVING_LAWS))
def test_solving_laws_move_one_lookup_or_keep_their_program(name):
    ident = _law(name)
    if name == "tied":
        assert ident.solved == ident.program
    else:
        assert _work_by_span(ident.solved, 3) == [1, 4, 4]
        assert _work_by_span(ident.program, 3) == [2, 4, 4]


def test_blocked_nuclei_match_bruteforce(monkeypatch):
    for table in _SMALL_LATIN:
        q = Quasigroup(table)
        expected = {side: naive_nucleus(table, side) for side in ("left", "middle", "right")}
        for setting in _block_settings(q.order, 3):
            _patch_blocks(monkeypatch, setting)
            assert structure.nuclei(q) == expected, (table, setting)


def _sub_table(n: int) -> np.ndarray:
    return (np.arange(n)[:, None] - np.arange(n)[None, :]) % n


def _scan(t: np.ndarray, ident: Identity, axes) -> "tuple[int, ...] | None":
    """First failing assignment of a law in ``*`` alone, in the order of
    ``ident.vars``, with the variables from slowest to fastest as ``axes``
    lists them: a plain int64 numpy scan of the parsed terms over full grids
    of the other variables, one value of the slowest at a time."""
    n, k = len(t), len(ident.vars)
    t = t.astype(np.int64)

    def value(term, env):
        if isinstance(term, Var):
            return env[term.name]
        assert term.op == MUL
        return t[value(term.lhs, env), value(term.rhs, env)]

    slow, rest = axes[0], axes[1:]
    grids = np.indices((n,) * (k - 1))
    for v in range(n):
        env = {ident.vars[slow]: v, **{ident.vars[a]: g for a, g in zip(rest, grids)}}
        bad = np.broadcast_to(value(ident.lhs, env) != value(ident.rhs, env), (n,) * (k - 1))
        if bad.any():
            first = dict(zip(rest, np.unravel_index(int(bad.argmax()), bad.shape)))
            first[slow] = v
            return tuple(int(first[a]) for a in range(k))
    return None


def _assert_matches_scan(t: np.ndarray, ident: Identity) -> None:
    q = Quasigroup(t)
    k = len(ident.vars)
    lex = _scan(t, ident, tuple(range(k)))
    cx = _scan(t, ident, tuple(range(k - 1, -1, -1)))
    assert holds(q, ident) == (lex is None)
    assert counterexample(q, ident) == (None if cx is None else dict(zip(ident.vars, cx)))
    assert _first_violation(q, ident) == lex


@pytest.mark.parametrize("n, dtype", [(48, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_gathered_lookups_are_narrow_and_small_ones_int64(n, dtype):
    t = _sub_table(n)
    g = identities._Gather(Quasigroup(t).table)
    x, y = np.indices((n, n), sparse=True)
    for got, want in ((g[x, y], t),                                 # rows, then columns
                      (g[x, g[x, y]], t[x, t[x, y]]),               # x shared
                      (g[g[x, y], x], t[t[x, y], x])):              # narrow values as indices
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert g[x[:2], y[:, :2]].dtype == np.int64                   # 4 cells
    assert Quasigroup(t).table.dtype == np.int64


@pytest.mark.parametrize("gather_cells", [identities.GATHER_CELLS, 0])
@pytest.mark.parametrize("n", [255, 256, 257, 300])
def test_two_variable_laws_at_the_dtype_edges(n, gather_cells, monkeypatch):
    # lookups are uint8 up to order 256 and uint16 above; with GATHER_CELLS
    # = 0 even x*x, whose operands share x, reads the narrow table.  On
    # x - y, x*(x*y) = y and (x*y)*x = (y*y)*y hold at every cell only if
    # no index wraps: their outer lookups share x and form the flat indices
    # x*n + x*y and (x*y)*n + x, the second from narrow values
    monkeypatch.setattr(identities, "GATHER_CELLS", gather_cells)
    t = _sub_table(n)
    shared = [parse_identity("x*(x*y) = y"), parse_identity("(x*y)*x = (y*y)*y")]
    for ident in [builtin("unipotent"), builtin("commutative")] + shared:
        _assert_matches_scan(t, ident)
    for ident in [builtin("unipotent")] + shared:
        assert holds(Quasigroup(t), ident)
    assert counterexample(Quasigroup(t), builtin("commutative")) == {"x": 1, "y": 0}
    if n > 256:
        with pytest.raises(OrderTooLarge, match="budget"):
            holds(Quasigroup(t), builtin("neumann"))


def test_neumann_over_z256_at_the_full_budget():
    # 256^3 = 2^24 cells: the flat indices a*n + b of (y*z)*(y*x) run up
    # to n^2 - 1 and would wrap in the uint8 values they are formed from
    t = _sub_table(256)
    _assert_matches_scan(t, builtin("neumann"))
    t[[0, 1]] = t[[1, 0]]
    _assert_matches_scan(t, builtin("neumann"))
    assert counterexample(Quasigroup(t), builtin("neumann")) is not None


def test_holds_memory_stays_below_three_full_grids():
    # Intermediates span only the variables they use; a full int64 grid of
    # all n^4 assignments is 2.5 MiB at n = 24.
    n = 24
    q = subtraction_quasigroup(cyclic(n))
    medial = builtin("medial")
    tracemalloc.start()
    try:
        assert holds(q, medial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * n**4 * 8


def test_holds_memory_is_held_to_a_block():
    # Z48 medial spans 48^4 cells, 40.5 MiB per full int64 grid; a block
    # of BLOCK_CELLS = 2^16 cells is 512 KiB
    q = subtraction_quasigroup(cyclic(48))
    medial = builtin("medial")
    tracemalloc.start()
    try:
        assert holds(q, medial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def test_evaluation_budget_refuses_before_allocating():
    # 65^4 cells is above the budget of 64^4; 65^3 is within it
    q = Quasigroup(addition_table(65))
    medial = builtin("medial")
    tracemalloc.start()
    try:
        for check in (holds, counterexample):
            with pytest.raises(OrderTooLarge, match="budget"):
                check(q, medial)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert holds(q, builtin("associative"))


# -- builtins -------------------------------------------------------------------------


def test_builtin_catalog_texts():
    # printing drops parentheses that left-associativity makes redundant
    assert str(builtin("neumann")) == "x*(y*z*(y*x)) = z"
    assert str(builtin("schweizer")) == "y*z*(y*x) = x*z"
    assert str(builtin("eq5")) == "x*y*z = y*(z*x)"
    for name in builtin_names():
        assert parse_identity(str(builtin(name))) == builtin(name)


def test_readme_builtin_table_is_the_catalog():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("Builtins:\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert table[:2] == ["| name | identity |", "| --- | --- |"]
    rows = [re.fullmatch(r"\| `(\w+)` \| `(.+)` \|", line) for line in table[2:]]
    assert all(rows), table
    assert [m.groups() for m in rows] == list(_CATALOG.items())


def _root(budget: int, k: int) -> int:
    """The largest order n with n^k cells within the budget."""
    n = round(budget ** (1 / k))
    return n if n**k <= budget else n - 1


def test_readme_bounds_are_the_constants():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = " ".join(readme.split("## Bounds\n\n", 1)[1].split("\n\n", 1)[0].split())
    budget = quasigroup.CELL_BUDGET
    claims = [
        (r"model search (\d+) / (\d+) ", (search.DEFAULT_MAX_ORDER, search.DEFAULT_MAX_ORDER_4VAR)),
        (r"autotopy enumeration (\d+),", (structure.AUTOTOPY_MAX_ORDER,)),
        (r"automorphisms (\d+) ", (abelian.AUTOMORPHISM_MAX_ORDER,)),
        (r"canonical form (\d+),", (structure.CANONICAL_MAX_ORDER,)),
        (r"abelian-group enumeration (\d+)\.", (abelian.ENUMERATION_MAX_ORDER,)),
        (r"budget of 2\^(\d+) = (\d+) cells", (budget.bit_length() - 1, budget)),
        (r"(\d)-variable laws up to order (\d+)", (4, _root(budget, 4))),
        (r"(\d)-variable laws up to order (\d+)", (3, _root(budget, 3))),
        (r"refuse a group above order (\d+),", (_root(budget, 3),)),
        (r"exit (\d) above the budget", (2,)),
        (r"exits (\d) above order (\d+)\.", (2, _root(budget, 4))),
    ]
    for pattern, values in claims:
        m = re.search(pattern, text)
        assert m, pattern
        assert tuple(int(g) for g in m.groups()) == values, m.group()
        text = text[:m.start()] + text[m.end():]
    assert 2**(budget.bit_length() - 1) == budget
    # every number in the paragraph is one of the claims above
    assert not re.search(r"\d", text), text


def test_builtin_unknown():
    with pytest.raises(UnknownIdentity):
        builtin("nosuch")


def test_builtin_medial_vars():
    assert builtin("medial").vars == ("x", "y", "u", "v")


def test_unipotent_agrees_with_unit_profile():
    from quasilab import SearchOptions, find_all

    unipotent = builtin("unipotent")
    for q in find_all(SearchOptions(order=3)):
        assert holds(q, unipotent) == q.unit_predicates().is_unipotent


# -- round trip and renaming -------------------------------------------------------


def _term_strategy():
    leaves = st.sampled_from(["x", "y", "z", "u", "v2", "ab"]).map(Var)
    return st.recursive(
        leaves,
        lambda kids: st.builds(BinOp, st.sampled_from([MUL, LDIV, RDIV]), kids, kids),
        max_leaves=10,
    )


@settings(max_examples=200, deadline=None)
@given(_term_strategy(), _term_strategy())
def test_format_parse_roundtrip(lhs, rhs):
    ident = Identity(lhs, rhs)
    assert parse_identity(str(ident)) == ident


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(builtin_names()), st.permutations(["a", "b", "c", "d"]))
def test_holds_invariant_under_renaming(name, fresh):
    ident = builtin(name)
    mapping = dict(zip(ident.vars, fresh))

    def rename(t):
        if isinstance(t, Var):
            return Var(mapping[t.name])
        return BinOp(t.op, rename(t.lhs), rename(t.rhs))

    renamed = Identity(rename(ident.lhs), rename(ident.rhs))
    q = subtraction_quasigroup(cyclic(4))
    assert holds(q, ident) == holds(q, renamed)


# -- implies_on_order ------------------------------------------------------------------


def test_commutative_does_not_imply_associative_at_3():
    out = implies_on_order(3, builtin("commutative"), builtin("associative"))
    assert not out.holds
    w = out.witness
    assert w is not None
    u = w.unit_predicates()
    assert u.is_commutative and not u.is_associative


def test_schweizer_implies_neumann_at_4():
    assert implies_on_order(4, builtin("schweizer"), builtin("neumann")).holds
    assert implies_on_order(4, builtin("neumann"), builtin("schweizer")).holds


@pytest.mark.parametrize("hypothesis, conclusion", [
    ("commutative", "associative"), ("schweizer", "neumann"), ("neumann", "schweizer")])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_implies_on_order_gives_the_witness_of_a_per_model_loop(hypothesis, conclusion, n):
    models = search.find_all(search.SearchOptions(n, (builtin(hypothesis),)))
    first = next((q for q in models if not holds(q, builtin(conclusion))), None)
    out = implies_on_order(n, builtin(hypothesis), builtin(conclusion))
    assert out.holds == (first is None)
    assert out.witness == first


# -- _holds_in_each ------------------------------------------------------------------


@pytest.fixture(scope="module")
def order4_squares() -> np.ndarray:
    return np.array(all_latin_squares(4), dtype=np.int64)


@pytest.mark.parametrize("block_cells", [identities.BLOCK_CELLS, 100])
@pytest.mark.parametrize("text", [_CATALOG[name] for name in ("neumann", "medial", "left_bol", "moufang",
                                                               "unipotent", "commutative")]
                         + ["x = x", "x\\y = y/x"] + list(_SOLVING_LAWS.values()))
def test_holds_in_each_is_holds_on_each_table_chunk_by_chunk(monkeypatch, order4_squares, block_cells, text):
    # the 576 squares of order 4 span 3 chunks of a 4-variable law at the
    # default block size, and one table per chunk at 100 cells
    ident = parse_identity(text)
    monkeypatch.setattr(identities, "BLOCK_CELLS", block_cells)
    cells = []
    run = identities._run

    def recording(code, tables, grids):
        flat = next(iter(tables.values()), None)
        if isinstance(flat, _Flat):
            cells.append(flat.base.shape[0] * 4 ** len(ident.vars))
        return run(code, tables, grids)

    monkeypatch.setattr(identities, "_run", recording)
    mask = _holds_in_each(order4_squares, ident)
    assert mask.dtype == bool
    assert mask.tolist() == [holds(Quasigroup(t), ident) for t in order4_squares]
    per_chunk = max(1, block_cells // 4 ** len(ident.vars))
    assert len(cells) == -(-len(order4_squares) // per_chunk)
    assert max(cells) <= max(block_cells, 4 ** len(ident.vars))


def test_holds_in_each_on_a_mixed_stack_and_on_none(order4_squares):
    mask = _holds_in_each(order4_squares, builtin("neumann"))
    assert 0 < mask.sum() < len(mask)
    assert _holds_in_each(order4_squares[:0], builtin("neumann")).shape == (0,)


def test_holds_in_each_is_given_only_latin_stacks(monkeypatch):
    # the solved form reads division tables that are argsorts, which invert
    # only permutations: a default verification, implies_on_order and the
    # find_all re-check hand _holds_in_each Latin stacks alone
    seen = []
    for module in (abelian, search, verification):
        def recording(tables, ident, name=module.__name__):
            seen.append((name, len(tables) == 0 or quasigroup._all_latin(tables)))
            return _holds_in_each(tables, ident)

        monkeypatch.setattr(module, "_holds_in_each", recording)
    assert verification.run_verification().overall
    assert implies_on_order(5, builtin("neumann"), builtin("schweizer")).holds
    assert len(search.find_all(search.SearchOptions(4, (builtin("eq5"),)))) > 0
    assert {name for name, _ in seen} == {"quasilab.abelian", "quasilab.search", "quasilab.verification"}
    assert all(latin for _, latin in seen)
