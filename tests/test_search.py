import dataclasses
import itertools
import logging
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilab import (
    BadSymbol,
    NotLatin,
    OrderTooLarge,
    Quasigroup,
    SearchOptions,
    TooManyVariables,
    automorphism_count,
    builtin,
    builtin_names,
    canonical_key,
    count,
    equivalence_report,
    find_all,
    holds,
    isomorphic,
    parse_group_spec,
    parse_identity,
    relabel,
    subtraction_quasigroup,
)
from quasilab import Permutation, search
from quasilab.identities import BinOp, Identity, LDIV, MUL, RDIV, Var
from quasilab.quasigroup import _table_key
from oracles import all_latin_squares, holds_bruteforce, naive_canonical_form


def _tables(opts):
    return [t for block in search._search(opts) for t in block]


def _search_identity_strategy():
    leaves = st.sampled_from(["x", "y", "z"]).map(Var)
    terms = st.recursive(
        leaves,
        lambda kids: st.builds(BinOp, st.sampled_from([MUL, LDIV, RDIV]), kids, kids),
        max_leaves=6,
    )
    return st.builds(Identity, terms, terms)


def test_trivial_order():
    models = find_all(SearchOptions(order=1, identities=(builtin("neumann"),)))
    assert [m.to_lists() for m in models] == [[[0]]]


def test_count_neumann_order_2():
    assert count(SearchOptions(order=2, identities=(builtin("neumann"),))) == 2


def test_census_counts_match_known_values():
    # 1, 2, 12, 576 Latin squares of orders 1..4
    for n, expected in [(1, 1), (2, 2), (3, 12), (4, 576)]:
        assert count(SearchOptions(order=n)) == expected
        assert len(all_latin_squares(n)) == expected


def test_order_5_census():
    assert count(SearchOptions(order=5)) == 161_280


@pytest.mark.parametrize("n, limit", [
    *((n, None) for n in range(1, 5)),
    (5, 3000),
    *((n, 200) for n in range(6, 10)),
])
def test_row_walk_equals_the_propagating_walk(n, limit):
    # a tautology sends the search through the propagating walk
    tautology = (parse_identity("x*y = x*y"),)
    rows = _tables(SearchOptions(n, limit=limit))
    propagated = _tables(SearchOptions(n, tautology, limit=limit))
    assert len(rows) == len(propagated)
    for a, b in zip(rows, propagated):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_census_equals_naive_enumeration_order_4():
    models = {m.key() for m in find_all(SearchOptions(order=4))}
    naive = {
        Quasigroup([list(r) for r in sq]).key() for sq in all_latin_squares(4)
    }
    assert models == naive


def test_neumann_models_are_exactly_relabeled_subtraction_tables():
    """Oracle: every order-4 Neumann model must be a relabeling of the Z4 or
    Z2xZ2 subtraction table, and vice versa."""
    expected = set()
    for spec in ("Z4", "Z2xZ2"):
        base = subtraction_quasigroup(parse_group_spec(spec))
        for img in itertools.permutations(range(4)):
            expected.add(relabel(base, Permutation(img)).key())
    models = {m.key() for m in find_all(SearchOptions(order=4, identities=(builtin("neumann"),)))}
    assert models == expected
    assert len(models) == 16


def test_eq5_models_are_abelian_groups():
    for q in find_all(SearchOptions(order=3, identities=(builtin("eq5"),))):
        u = q.unit_predicates()
        assert u.is_loop and u.is_commutative and u.is_associative


@pytest.mark.parametrize("name", [
    "neumann", "schweizer", "eq5", "eq5_parastrophe", "medial",
    "commutative", "associative", "unipotent", "schweizer_swapped",
])
def test_search_equals_naive_filter(name):
    ident = builtin(name)
    for n in (1, 2, 3, 4):
        models = {m.key() for m in find_all(SearchOptions(order=n, identities=(ident,)))}
        naive = {
            Quasigroup([list(r) for r in sq]).key()
            for sq in all_latin_squares(n)
            if holds_bruteforce([list(r) for r in sq], ident)
        }
        assert models == naive, f"{name} at order {n}"


def test_unipotent_search_nonempty_order_3():
    assert count(SearchOptions(order=3, identities=(builtin("unipotent"),))) >= 1


def test_up_to_isomorphism():
    opts = SearchOptions(order=4, identities=(builtin("neumann"),), up_to_isomorphism=True)
    reps = find_all(opts)
    assert len(reps) == 2
    assert isomorphic(reps[0], reps[1]) is None
    # every raw model is isomorphic to some representative
    for q in find_all(SearchOptions(order=4, identities=(builtin("neumann"),))):
        assert any(isomorphic(q, rep) is not None for rep in reps)
    # representative is the lexicographically least class member
    raw = find_all(SearchOptions(order=4, identities=(builtin("neumann"),)))
    for rep in reps:
        cls = [q for q in raw if isomorphic(q, rep) is not None]
        assert min(c.key() for c in cls) == rep.key()


def test_up_to_isomorphism_returns_the_lex_first_square_of_each_class():
    first: dict = {}
    for sq in all_latin_squares(4):
        form = naive_canonical_form(sq)
        first[form] = min(first.get(form, sq), sq)
    reps = find_all(SearchOptions(4, up_to_isomorphism=True))
    assert [tuple(map(tuple, q.to_lists())) for q in reps] == sorted(first.values())


def _classes_by_canonical_key(opts, max_order=None):
    """The class representatives as the canonical key finds them: the first
    model of each key over the sorted labeled models."""
    seen = {}
    for q in find_all(dataclasses.replace(opts, up_to_isomorphism=False), max_order=max_order):
        seen.setdefault(canonical_key(q), q)
    return [q.key() for q in seen.values()][: opts.limit]


@pytest.mark.parametrize("name", [None, *builtin_names()])
def test_class_pass_equals_the_canonical_key_classes(name):
    idents = () if name is None else (builtin(name),)
    for n in range(1, 5):
        opts = SearchOptions(order=n, identities=idents, up_to_isomorphism=True)
        assert [q.key() for q in find_all(opts)] == _classes_by_canonical_key(opts)


@pytest.mark.parametrize("opts, max_order", [
    (SearchOptions(5, (builtin("medial"),), up_to_isomorphism=True), None),
    (SearchOptions(6, up_to_isomorphism=True, limit=500), None),
    (SearchOptions(9, up_to_isomorphism=True, limit=50), 9),
])
def test_class_pass_equals_the_canonical_key_classes_at_larger_orders(opts, max_order):
    reps = [q.key() for q in find_all(opts, max_order=max_order)]
    assert reps == _classes_by_canonical_key(opts, max_order)


def _search_adding(monkeypatch, table):
    searched = search._search
    monkeypatch.setattr(search, "_search", lambda opts: searched(opts) + [np.array([table])])


def test_class_pass_rejects_a_non_latin_table(monkeypatch):
    # sorts after every Latin square of order 3, so it is reached last
    _search_adding(monkeypatch, [[2, 2, 2], [2, 2, 2], [2, 2, 2]])
    with pytest.raises(NotLatin):
        find_all(SearchOptions(3, up_to_isomorphism=True))


def test_find_all_rejects_a_table_holding_the_symbol_n(monkeypatch):
    _search_adding(monkeypatch, [[0, 1, 2], [1, 2, 0], [2, 0, 3]])
    with pytest.raises(BadSymbol, match=r"^entry 3 at \(2, 2\) outside 0\.\.2$"):
        find_all(SearchOptions(3))


def test_class_pass_rejects_a_latin_non_model(monkeypatch):
    z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert not holds(Quasigroup(z3), builtin("neumann"))
    _search_adding(monkeypatch, z3)
    with pytest.raises(AssertionError, match="non-model of"):
        find_all(SearchOptions(3, (builtin("neumann"),), up_to_isomorphism=True))


def test_up_to_isomorphism_refuses_above_the_canonical_bound_before_searching(monkeypatch):
    monkeypatch.setattr(search, "_search", lambda opts: pytest.fail("searched"))
    opts = SearchOptions(17, up_to_isomorphism=True, limit=2)
    for run in (find_all, count):
        with pytest.raises(OrderTooLarge, match="^order 17 above canonical-form bound 16$"):
            run(opts, max_order=17)


def test_determinism_and_sorted_output():
    opts = SearchOptions(order=4, identities=(builtin("neumann"),))
    a = [m.key() for m in find_all(opts)]
    b = [m.key() for m in find_all(opts)]
    assert a == b == sorted(a)


def test_limit():
    models = find_all(SearchOptions(order=4, limit=10))
    assert len(models) == 10
    again = find_all(SearchOptions(order=4, limit=10))
    assert [m.key() for m in models] == [m.key() for m in again]


def test_limit_zero_keeps_nothing():
    opts = SearchOptions(3, limit=0)
    assert count(opts) == 0
    assert find_all(opts) == []
    assert _tables(opts) == []


@pytest.mark.parametrize("name", [None, *builtin_names()])
def test_count_equals_the_number_of_models_found(name):
    idents = () if name is None else (builtin(name),)
    for n in range(1, 5):
        for limit in (None, 0, 1, 17):
            opts = SearchOptions(n, idents, limit=limit)
            assert count(opts) == len(find_all(opts)), (n, limit)


def _traced_peak(f) -> int:
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_count_keeps_no_table():
    # keeping each of the 576 models would cost at least its 16 int64
    # cells, 128 bytes; allow an eighth of that
    count(SearchOptions(4))         # warm up
    every = _traced_peak(lambda: count(SearchOptions(4)))
    first = _traced_peak(lambda: count(SearchOptions(4, limit=1)))
    assert every - first < 576 * 16, (every, first)


@pytest.mark.parametrize("name", [None, *builtin_names()])
def test_search_yields_models_in_table_order(name):
    idents = () if name is None else (builtin(name),)
    for n in range(1, 5):
        keys = [_table_key(t) for t in _tables(SearchOptions(n, idents))]
        assert all(a < b for a, b in zip(keys, keys[1:])), f"{name} at order {n}"


@pytest.mark.parametrize("name", [None, "neumann"])
@pytest.mark.parametrize("limit", [0, 1, 3, 17])
def test_limit_keeps_the_lex_first_models(name, limit):
    idents = () if name is None else (builtin(name),)
    full = [q.key() for q in find_all(SearchOptions(4, idents))]
    assert [q.key() for q in find_all(SearchOptions(4, idents, limit=limit))] == full[:limit]


def test_soundness_recheck():
    for q in find_all(SearchOptions(order=5, identities=(builtin("neumann"),))):
        assert holds(q, builtin("neumann"))


def test_equivalence_report_neumann_schweizer():
    rep = equivalence_report(4, builtin("neumann"), builtin("schweizer"))
    assert rep.same_models and rep.only_id1 == rep.only_id2 == 0


def test_equivalence_report_neumann_eq5():
    rep = equivalence_report(4, builtin("neumann"), builtin("eq5"))
    assert not rep.same_models
    # the overlap is the exponent-2 case: 16 models each, 4 shared
    assert rep.only_id1 == 12 and rep.only_id2 == 12


def test_equivalence_trivial_order():
    rep = equivalence_report(1, builtin("commutative"), builtin("associative"))
    assert rep.same_models


def test_order_bound():
    with pytest.raises(OrderTooLarge):
        find_all(SearchOptions(order=99, identities=(builtin("neumann"),)))
    with pytest.raises(OrderTooLarge):
        count(SearchOptions(order=7))        # default bound is 6
    # explicit override raises the bound
    assert count(SearchOptions(order=2), max_order=10) == 2


def test_env_var_overrides_bound(monkeypatch):
    monkeypatch.setenv("QUASILAB_MAX_ORDER", "3")
    with pytest.raises(OrderTooLarge):
        find_all(SearchOptions(order=4))
    monkeypatch.setenv("QUASILAB_MAX_ORDER", "7")
    assert count(SearchOptions(order=2)) == 2


def test_four_variable_identity_bound():
    # 4-variable identities cap at order 5 by default
    with pytest.raises(OrderTooLarge):
        find_all(SearchOptions(order=6, identities=(builtin("medial"),)))


def test_search_grid_is_held_to_the_evaluation_budget():
    # the flattened grid of a 3-variable law at order 257 is above 2^24 cells
    with pytest.raises(OrderTooLarge, match="budget"):
        find_all(SearchOptions(order=257, identities=(builtin("associative"),)), max_order=257)


def test_too_many_variables():
    five = parse_identity("((a*b)*(c*d))*e = e*((a*b)*(c*d))")
    with pytest.raises(TooManyVariables):
        find_all(SearchOptions(order=3, identities=(five,)))


def test_search_with_division_identity():
    # x \ (x*y) = y holds in every quasigroup; search must not prune anything
    ident = parse_identity("x\\(x*y) = y")
    assert count(SearchOptions(order=3, identities=(ident,))) == 12
    # y/y solves z*y = y, so y/y = x/x forces one shared left unit
    ident2 = parse_identity("y/y = x/x")
    models = find_all(SearchOptions(order=3, identities=(ident2,)))
    assert models
    for q in models:
        assert q.unit_predicates().left_unit is not None


@pytest.mark.parametrize("n, models", [(1, 1), (2, 0), (3, 4), (4, 58)])
def test_division_writes_that_clash_drop_the_table(n, models):
    # the forced writes of this division identity put two values into one
    # cell of some order-4 table in one settle round, and only the clash
    # check drops that table: without it the search returns a non-model
    ident = parse_identity("y\\(y/(y/y)) = y")
    found = {q.key() for q in find_all(SearchOptions(n, (ident,)))}
    naive = {Quasigroup([list(r) for r in sq]).key() for sq in all_latin_squares(n)
             if holds_bruteforce([list(r) for r in sq], ident)}
    assert found == naive and len(found) == models


def test_parastrophe_transfer_at_small_orders():
    for n in (1, 2, 3, 4):
        eq5_models = find_all(SearchOptions(order=n, identities=(builtin("eq5"),)))
        neumann_keys = {
            m.key() for m in find_all(SearchOptions(order=n, identities=(builtin("neumann"),)))
        }
        assert {m.parastrophe("(13)").key() for m in eq5_models} == neumann_keys


def test_eq5_transfers_to_both_parastrophe_forms():
    """Over the full order-3 census: q satisfies eq5 exactly when its
    (13)-parastrophe satisfies the Neumann identity, and also exactly when it
    satisfies the eq5_parastrophe form."""
    eq5, neumann, eq5p = builtin("eq5"), builtin("neumann"), builtin("eq5_parastrophe")
    for q in find_all(SearchOptions(order=3)):
        p13 = q.parastrophe("(13)")
        assert holds(q, eq5) == holds(p13, neumann) == holds(p13, eq5p)


def test_invalid_options():
    with pytest.raises(ValueError):
        SearchOptions(order=0)
    with pytest.raises(ValueError):
        SearchOptions(order=3, limit=-1)
    for bad in ({"order": 2.5}, {"order": 3, "limit": 1.5}, {"order": 3, "progress_interval": 0.5}):
        with pytest.raises(ValueError, match="must be integers"):
            SearchOptions(**bad)
    assert SearchOptions(np.int64(3), limit=np.int64(1)).limit == 1
    for bad in ({"order": True}, {"order": 3, "limit": True}, {"order": 3, "progress_interval": True}):
        with pytest.raises(ValueError, match="must be integers"):
            SearchOptions(**bad)


@pytest.mark.parametrize("interval", [0, -5])
def test_a_progress_interval_below_one_is_refused(interval):
    with pytest.raises(ValueError, match="^progress_interval must be positive$"):
        SearchOptions(4, progress_interval=interval)
    assert SearchOptions(4, progress_interval=1).progress_interval == 1


@settings(max_examples=40, deadline=None)
@given(
    _search_identity_strategy(),
    st.integers(min_value=1, max_value=4),
)
def test_search_matches_naive_filter_on_random_identities(ident, n):
    fast = {q.key() for q in find_all(SearchOptions(order=n, identities=(ident,)))}
    naive = {
        Quasigroup([list(r) for r in sq]).key()
        for sq in all_latin_squares(n)
        if holds_bruteforce([list(r) for r in sq], ident)
    }
    assert fast == naive


def test_multiple_identities_intersect():
    both = find_all(
        SearchOptions(order=4, identities=(builtin("neumann"), builtin("commutative")))
    )
    neumann_only = find_all(SearchOptions(order=4, identities=(builtin("neumann"),)))
    expected = {q.key() for q in neumann_only if holds(q, builtin("commutative"))}
    assert {q.key() for q in both} == expected
    assert len(both) == 4        # the exponent-2 tables are the commutative ones


def test_progress_interval_logs(caplog):
    import logging

    with caplog.at_level(logging.INFO, logger="quasilab.search"):
        count(SearchOptions(order=3, progress_interval=5))
    assert any("nodes" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("name, n, expected", [
    # n!/|Aut| labeled copies of the one model class at each order
    ("neumann", 6, 360),         # Z6 subtraction, |Aut Z6| = 2
    ("schweizer", 6, 360),
    ("eq5", 5, 30),              # Z5, |Aut Z5| = 4
])
def test_labeled_model_counts(name, n, expected):
    assert count(SearchOptions(order=n, identities=(builtin(name),))) == expected


@pytest.mark.parametrize("name", [None, *builtin_names()])
def test_orbit_formula_equals_labeled_count(name):
    # each class holds n!/|Aut(Q)| labeled models
    idents = () if name is None else (builtin(name),)
    for n in range(1, 5):
        reps = find_all(SearchOptions(order=n, identities=idents, up_to_isomorphism=True))
        labeled = sum(Fraction(math.factorial(n), automorphism_count(q)) for q in reps)
        assert labeled == count(SearchOptions(order=n, identities=idents))


def test_neumann_order_7_labeled_count():
    # 7!/|Aut Z7| = 5040/6
    models = find_all(SearchOptions(order=7, identities=(builtin("neumann"),)), max_order=7)
    assert len(models) == 840


def _search_log(caplog, opts):
    with caplog.at_level(logging.DEBUG, logger="quasilab.search"):
        count(opts)
    return [r for r in caplog.records if r.name == "quasilab.search"]


def test_neumann_order_6_branching_nodes_bounded(caplog):
    """Work-counter guard: one INFO record per branching node with
    progress_interval=1; forced cells are not nodes."""
    opts = SearchOptions(order=6, identities=(builtin("neumann"),), progress_interval=1)
    nodes = sum(r.levelno == logging.INFO for r in _search_log(caplog, opts))
    assert 0 < nodes <= 5000


@pytest.mark.parametrize("opts, most", [
    (SearchOptions(6, (builtin("eq5"),), progress_interval=1), 8_000),
    (SearchOptions(5, limit=8_000, progress_interval=1), 20_000),
])
def test_branching_nodes_bounded(caplog, opts, most):
    nodes = sum(r.levelno == logging.INFO for r in _search_log(caplog, opts))
    assert 0 < nodes <= most


def test_search_summary_is_one_debug_record(caplog):
    # one for each walk: with an identity and with none
    for opts in (SearchOptions(4, (builtin("neumann"),)), SearchOptions(4)):
        caplog.clear()
        (summary,) = _search_log(caplog, opts)
        assert summary.levelno == logging.DEBUG
        for word in ("nodes", "forced cells", "prunes", "models", " s"):
            assert word in summary.getMessage()


def _summary(caplog, opts) -> dict:
    (record,) = [r for r in _search_log(caplog, opts) if r.levelno == logging.DEBUG]
    words = record.getMessage().split()
    return {"nodes": int(words[3]), "prunes": int(words[8]), "models": int(words[10])}


@pytest.mark.parametrize("name, n, nodes, models", [
    ("neumann", 6, 1_511, 360),
    ("schweizer", 6, 1_232, 360),
    ("eq5", 5, 497, 30),
    ("eq5", 6, 6_122, 360),
    ("medial", 4, 364, 120),
])
def test_propagating_walk_node_counts(caplog, name, n, nodes, models):
    # the batched walk settles each table to the fixpoint of the per-node walk
    # it replaced, so it branches on exactly the same nodes
    summary = _summary(caplog, SearchOptions(n, (builtin(name),)))
    assert (summary["nodes"], summary["models"]) == (nodes, models)


def _neumann6(**kw):
    return SearchOptions(6, (builtin("neumann"),), **kw)


BATCH6 = search.CELLS // 6**3       # the tables of one Neumann batch at order 6


@pytest.mark.parametrize("limit", [1, BATCH6, BATCH6 + 1, 359, 360])
def test_limit_across_batches_keeps_the_lex_first_models(limit):
    full = [q.key() for q in find_all(_neumann6())]
    assert [q.key() for q in find_all(_neumann6(limit=limit))] == full[:limit]
    assert count(_neumann6(limit=limit)) == min(limit, len(full))


@pytest.mark.parametrize("name", ["neumann", "schweizer"])
def test_batched_walk_yields_models_in_table_order(name):
    keys = [_table_key(t) for t in _tables(SearchOptions(6, (builtin(name),)))]
    assert len(keys) == 360
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_limit_stops_the_walk(caplog):
    # the walk stops at the limit-th model instead of truncating afterwards
    first = _summary(caplog, _neumann6(limit=1))
    caplog.clear()
    assert first["models"] == 1 and first["nodes"] < _summary(caplog, _neumann6())["nodes"]


def test_progress_records_every_multiple_of_the_interval(caplog):
    nodes = _summary(caplog, _neumann6())["nodes"]
    for interval in (1, 7, BATCH6 + 3):
        caplog.clear()
        records = [r for r in _search_log(caplog, _neumann6(progress_interval=interval))
                   if r.levelno == logging.INFO]
        assert [int(r.getMessage().split()[3]) for r in records] == \
            list(range(interval, nodes + 1, interval))


def test_propagating_count_memory_is_bounded(monkeypatch):
    opts = _neumann6()
    count(opts)         # warm up
    assert _traced_peak(lambda: count(opts)) < 4 * 2**20
    # and count hands the walk nowhere to keep its models
    walk, seen = search._propagating_walk, []
    monkeypatch.setattr(search, "_propagating_walk", lambda o, found: seen.append(found) or walk(o, found))
    assert count(opts) == 360 and seen == [None]


@pytest.mark.parametrize("n, nodes, prunes, models", [
    (4, 816, 384, 576),
    (5, 232_920, 284_280, 161_280),
])
def test_row_walk_summary_on_full_enumerations(caplog, n, nodes, prunes, models):
    # a node is a row placed by branching, a prune a row prefix whose next
    # cell has no candidate: the counts of the walk one cell at a time
    assert _summary(caplog, SearchOptions(n)) == {"nodes": nodes, "prunes": prunes, "models": models}


BATCH5 = search.CELLS // 5**2       # the squares of one row-walk batch at order 5


@pytest.fixture(scope="module")
def first_order_5_squares():
    # the propagating walk, sent through by a tautology, is the oracle
    tautology = (parse_identity("x*y = x*y"),)
    return _tables(SearchOptions(5, tautology, limit=8000))


@pytest.mark.parametrize("limit", [1, BATCH5, BATCH5 + 1, 8000])
def test_row_walk_limit_keeps_the_first_squares(first_order_5_squares, limit):
    assert BATCH5 == 655
    found = _tables(SearchOptions(5, limit=limit))
    assert len(found) == limit
    for a, b in zip(found, first_order_5_squares):
        assert a.dtype == np.int64 and np.array_equal(a, b)
    assert count(SearchOptions(5, limit=limit)) == limit


@pytest.mark.parametrize("interval", [1, 7, BATCH5 + 3])
def test_row_walk_progress_records_every_multiple_of_the_interval(caplog, interval):
    opts = SearchOptions(5, limit=8000)
    nodes = _summary(caplog, opts)["nodes"]
    caplog.clear()
    records = [r for r in _search_log(caplog, dataclasses.replace(opts, progress_interval=interval))
               if r.levelno == logging.INFO]
    assert [int(r.getMessage().split()[3]) for r in records] == \
        list(range(interval, nodes + 1, interval))


@pytest.mark.parametrize("n", [62, 63, 64, 65])
def test_symbol_sets_count_and_list_their_members(n):
    # up to order 64 the sets are uint64, and above it Python ints in
    # object arrays, which no search reaches in test time
    sym = search._Symbols(n)
    rng = np.random.default_rng(n)
    sets = [0, (1 << n) - 1, 1 << (n - 1), *(int(rng.integers(0, 2**62)) << 2 | 1 for _ in range(20))]
    sets = [m & ((1 << n) - 1) for m in sets]
    m = np.array(sets, dtype=sym.bits.dtype)
    assert np.bitwise_count(m).tolist() == [x.bit_count() for x in sets]
    members = sym.members(m)
    assert members.shape == (len(sets), n)
    assert members.tolist() == [[bool(x >> s & 1) for s in range(n)] for x in sets]
    assert sym.full == (1 << n) - 1


def _latin_rules_by_hand(cells):
    """The dead mask and the single-candidate cells of ``search._latin_rules``,
    from Python sets, cell by cell; n marks an empty cell."""
    n = cells.shape[1]
    dead, singles = [], []
    for i, tab in enumerate(cells.tolist()):
        rows = [[v for v in row if v != n] for row in tab]
        cols = [[v for v in col if v != n] for col in zip(*tab)]
        repeat = any(len(set(line)) != len(line) for line in rows + cols)
        cands = {(r, c): set(range(n)) - set(rows[r]) - set(cols[c])
                 for r in range(n) for c in range(n) if tab[r][c] == n}
        dead.append(repeat or any(not cand for cand in cands.values()))
        if not dead[-1]:
            singles += [(i, r, c, min(cand)) for (r, c), cand in sorted(cands.items()) if len(cand) == 1]
    return dead, singles


@pytest.mark.parametrize("n", [64, 65])
def test_latin_rules_match_a_plain_check(n):
    # order 64 has uint64 symbol sets and order 65 Python ints in object arrays
    rng = np.random.default_rng(n)
    a, b, c = (rng.permutation(n) for _ in range(3))
    square = c[(a[:, None] + b) % n]        # a seeded isotope of Z_n
    clean = np.where(rng.random((n, n)) < 0.05, n, square)
    repeat = clean.copy()
    repeat[3, 7] = repeat[3, 9] = square[3, 9]     # one symbol twice in row 3
    stuck = np.full((n, n), n)              # (0, 0) sees every symbol in its row and column
    stuck[0, 1:] = np.arange(1, n)
    stuck[1, 0] = 0
    stuck = stuck[np.ix_(a, b)]
    empty_row = square.copy()
    empty_row[5] = n
    cells = np.array([clean, repeat, stuck, empty_row], dtype=np.intp)
    sym = search._Symbols(n)
    assert sym.bits.dtype == (np.uint64 if n == 64 else object)
    dead, t, r, col, v = search._latin_rules(cells, sym)
    want_dead, want_singles = _latin_rules_by_hand(cells)
    assert dead.tolist() == want_dead == [False, True, True, False]
    assert list(zip(*(x.tolist() for x in (t, r, col, v)))) == want_singles
    assert {i for i, *_ in want_singles} == {0, 3}
    assert [s[1:] for s in want_singles if s[0] == 3] == [(5, j, square[5, j]) for j in range(n)]


@pytest.mark.parametrize("n", [16, 64])
def test_row_walk_first_square_is_the_xor_table(n):
    # the lex-first Latin square of order 2^k is the table of Z2^k; at order
    # 64 the symbol sets fill all 64 bits of uint64
    (table,) = _tables(SearchOptions(n, limit=1))
    a = np.arange(n)
    assert table.dtype == np.int64 and np.array_equal(table, a[:, None] ^ a)
    assert count(SearchOptions(n, limit=1), max_order=n) == 1


def test_propagating_walk_without_identities_enumerates_every_square():
    assert search._propagating_walk(SearchOptions(4), None)[0] == 576


@pytest.mark.parametrize("opts", [SearchOptions(4, up_to_isomorphism=True),
                                  SearchOptions(5, limit=2000, up_to_isomorphism=True)])
def test_class_representatives_own_their_tables(opts):
    # a representative that viewed a batch or a stack of search results
    # would keep the skipped models alive with it
    reps = find_all(opts)
    assert reps
    for q in reps:
        assert q.table.base is None and q.table.dtype == np.int64


@pytest.mark.parametrize("names, n, limit", [
    *(((), n, None) for n in range(1, 6)),
    ((), 6, 500),
    (("neumann",), 6, None),
    (("eq5",), 5, None),
    (("medial",), 4, None),
    (("commutative", "associative"), 5, None),
])
def test_search_returns_contiguous_int64_blocks_in_table_order(names, n, limit):
    opts = SearchOptions(n, tuple(builtin(name) for name in names), limit=limit)
    cap = max(1, search.CELLS // n ** max([2, *(len(i.vars) for i in opts.identities)]))
    blocks = search._search(opts)
    assert blocks
    for block in blocks:
        assert block.dtype == np.int64 and block.flags.c_contiguous
        assert block.shape[1:] == (n, n) and 1 <= len(block) <= cap
    keys = [_table_key(t) for block in blocks for t in block]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert limit is None or len(keys) == limit


def _search_replacing_a_middle_table(monkeypatch, opts, table):
    # the search's own blocks, with the middle table of the largest replaced
    blocks = search._search(opts)
    block = max(blocks, key=len)
    assert len(block) >= 3
    block[len(block) // 2] = table
    monkeypatch.setattr(search, "_search", lambda o: blocks)


@pytest.mark.parametrize("iso", [False, True])
def test_recheck_names_a_non_latin_table_inside_a_block(monkeypatch, iso):
    opts = SearchOptions(4, up_to_isomorphism=iso)
    _search_replacing_a_middle_table(monkeypatch, opts, np.tile(np.arange(4), (4, 1)))
    with pytest.raises(NotLatin):
        find_all(opts)


@pytest.mark.parametrize("iso", [False, True])
def test_recheck_names_a_latin_non_model_inside_a_block(monkeypatch, iso):
    z6 = (np.arange(6)[:, None] + np.arange(6)) % 6
    assert not holds(Quasigroup(z6), builtin("neumann"))
    opts = _neumann6(up_to_isomorphism=iso)
    _search_replacing_a_middle_table(monkeypatch, opts, z6)
    with pytest.raises(AssertionError, match="non-model of"):
        find_all(opts)
