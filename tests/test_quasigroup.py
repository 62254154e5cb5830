import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasilab import (
    BadSymbol,
    NotLatin,
    NotSquare,
    OrderTooLarge,
    OutOfRange,
    ParastropheSelector,
    Permutation,
    Quasigroup,
    SearchOptions,
    builtin,
    cyclic,
    direct_product,
    enumerate_abelian_groups,
    find_all,
    from_table,
    subtraction_quasigroup,
)
from quasilab.quasigroup import _associative, _generators, _lex_sorted, _parastrophes, _table_key
from conftest import addition_table
from oracles import all_latin_squares, closure, holds_bruteforce, parastrophe13_table


# -- construction and validation ------------------------------------------------


def test_trivial_order_one():
    q = from_table(1, [[0]])
    assert q.order == 1
    assert q.mul(0, 0) == 0


def test_key_distinguishes_tables_above_order_256():
    # Z257 and the same table with symbols 0 and 256 swapped: a one-byte
    # key would map both symbols to 0 and make the two tables collide.
    n = 257
    a = addition_table(n)
    b = a.copy()
    b[a == 0] = n - 1
    b[a == n - 1] = 0
    qa, qb = Quasigroup(a), Quasigroup(b)
    assert qa != qb
    assert qa.key() != qb.key()
    assert hash(qa) != hash(qb)
    assert len({qa, qb}) == 2
    # byte order of keys is lexicographic table order
    assert (qa.key() < qb.key()) == (qa.to_lists() < qb.to_lists())


def test_key_is_one_byte_per_cell_up_to_order_256(z4_sub):
    assert z4_sub.key() == z4_sub.table.astype(np.uint8).tobytes()
    q = Quasigroup(addition_table(256))
    assert len(q.key()) == 256 * 256


def test_z3_subtraction_table_is_valid():
    q = from_table(3, [[0, 2, 1], [1, 0, 2], [2, 1, 0]])
    assert q.to_lists() == subtraction_quasigroup(cyclic(3)).to_lists()


def test_not_latin_reports_column():
    with pytest.raises(NotLatin) as exc:
        from_table(2, [[0, 1], [0, 1]])
    assert exc.value.axis == "column"
    assert exc.value.index == 0
    assert exc.value.positions == (0, 1)


def test_not_latin_reports_row():
    with pytest.raises(NotLatin) as exc:
        Quasigroup([[0, 0], [1, 1]])
    assert exc.value.axis == "row"
    assert exc.value.index == 0


@pytest.mark.parametrize("rows, first", [
    # rows 2 and 4 and columns 0, 2, 3 and 4 repeat; row 2 repeats 3 first
    # but 1 is the smaller symbol, and it repeats three times
    ([[0, 1, 2, 3, 4], [1, 2, 3, 4, 0], [3, 3, 1, 1, 1], [3, 4, 0, 1, 2], [4, 0, 1, 2, 2]],
     ("row", 2, 1, (2, 3))),
    # rows are Latin; columns 1, 2, 3 and 4 repeat, column 1 repeats 3 first
    # but 2 is the smaller symbol
    ([[2, 1, 0, 4, 3], [4, 3, 0, 1, 2], [3, 2, 4, 1, 0], [0, 3, 4, 1, 2], [1, 2, 4, 3, 0]],
     ("column", 1, 2, (2, 4))),
])
def test_not_latin_reports_first_defect(rows, first):
    with pytest.raises(NotLatin) as exc:
        Quasigroup(rows)
    assert (exc.value.axis, exc.value.index, exc.value.symbol, exc.value.positions) == first


def test_not_square():
    with pytest.raises(NotSquare):
        from_table(2, [[0, 1]])
    with pytest.raises(NotSquare):
        from_table(2, [[0, 1], [1, 0], [0, 1]])
    with pytest.raises(NotSquare):
        Quasigroup([[0, 1], [1]])
    with pytest.raises(NotSquare):
        from_table(0, [])


def test_object_entries_are_a_bad_symbol_not_a_bad_shape():
    with pytest.raises(BadSymbol, match="entries must be integers, got dtype object"):
        Quasigroup([[None]])
    with pytest.raises(NotSquare, match="ragged rows"):
        Quasigroup([[0, 1], [None]])


def test_bad_symbol():
    with pytest.raises(BadSymbol):
        Quasigroup([[0, 2], [2, 0]])
    with pytest.raises(BadSymbol):
        Quasigroup([[0, -1], [-1, 0]])
    with pytest.raises(BadSymbol):
        Quasigroup([[0.0, 1.0], [1.0, 0.0]])


def test_table_is_readonly():
    q = from_table(2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        q.table[0, 0] = 1


# -- operation and divisions -----------------------------------------------------


def test_mul_examples(z3_sub, z4_sub):
    assert z3_sub.mul(1, 2) == 2          # 1 - 2 = 2 mod 3
    assert z4_sub.mul(0, 3) == 1          # -3 = 1 mod 4
    e = z4_sub.unit_predicates().right_unit
    assert all(z4_sub.mul(x, e) == x for x in range(4))


def test_mul_out_of_range(z3_sub):
    with pytest.raises(OutOfRange):
        z3_sub.mul(0, 3)
    with pytest.raises(OutOfRange):
        z3_sub.ldiv(3, 0)
    with pytest.raises(OutOfRange):
        z3_sub.rdiv(-1, 0)


@pytest.mark.parametrize("bad", [1.0, 1.5, True, np.float64(0)])
def test_a_non_integer_element_is_out_of_range(z3_sub, bad):
    for call in (lambda: z3_sub.mul(bad, 0), lambda: z3_sub.mul(0, bad), lambda: z3_sub.ldiv(bad, 0),
                 lambda: z3_sub.rdiv(0, bad), lambda: z3_sub.translation("left", bad),
                 lambda: z3_sub.right_translation(bad)):
        with pytest.raises(OutOfRange):
            call()
    assert z3_sub.mul(np.int64(1), np.uint8(2)) == 2


def test_ldiv_example(z3_sub):
    # 1 * z = 2 means 1 - z = 2, so z = 2
    assert z3_sub.ldiv(1, 2) == 2


def test_division_identities_exhaustive(z4_sub):
    q = z4_sub
    for x in range(4):
        for y in range(4):
            assert q.mul(x, q.ldiv(x, y)) == y
            assert q.ldiv(x, q.mul(x, y)) == y
            assert q.mul(q.rdiv(x, y), y) == x
            assert q.rdiv(q.mul(y, x), x) == y


# -- translations -----------------------------------------------------------------


def test_right_translation_at_zero_is_identity(z4_sub):
    assert z4_sub.right_translation(0).is_identity()


def test_left_translation_image(z3_sub):
    assert z3_sub.left_translation(0).image == (0, 2, 1)


def test_translations_are_permutations(z5_sub):
    for a in range(5):
        assert isinstance(z5_sub.left_translation(a), Permutation)
        assert isinstance(z5_sub.right_translation(a), Permutation)


# -- parastrophes -------------------------------------------------------------------


def test_parastrophe_13_of_addition_is_subtraction(z3_add, z3_sub):
    assert z3_add.parastrophe("(13)") == z3_sub
    # independent oracle: solve c*b = a by table scan
    assert z3_add.parastrophe("(13)").to_lists() == parastrophe13_table(z3_add.to_lists())


def test_parastrophe_identity_selector(z4_sub):
    assert z4_sub.parastrophe("e") == z4_sub


def test_parastrophe_13_is_involution(z5_sub):
    assert z5_sub.parastrophe("(13)").parastrophe("(13)") == z5_sub


def test_parastrophe_composition_all_pairs(z4_sub):
    names = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]
    for s_name, t_name in itertools.product(names, repeat=2):
        s = ParastropheSelector.from_name(s_name)
        t = ParastropheSelector.from_name(t_name)
        assert z4_sub.parastrophe(s).parastrophe(t) == z4_sub.parastrophe(t * s)


PARASTROPHE_NAMES = ["e", "(12)", "(13)", "(23)", "(123)", "(132)"]


def _seeded_latin_stack(n: int, m: int, seed: int) -> np.ndarray:
    """m seeded isotopes of Z_n, with their (13)-parastrophes: a Latin stack."""
    rng = np.random.default_rng(seed)
    stack = []
    for _ in range(m):
        a, b, c = (rng.permutation(n) for _ in range(3))
        t = c[addition_table(n)[np.ix_(a, b)]]
        stack.append(parastrophe13_table(t.tolist()) if rng.integers(2) else t)
    return np.array(stack, dtype=np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_parastrophes_equal_the_table_method(n):
    tables = _seeded_latin_stack(n, 12, seed=n)
    for name in PARASTROPHE_NAMES:
        stacked = _parastrophes(tables, name)
        assert stacked.dtype == np.int64 and stacked.shape == tables.shape
        for t, p in zip(tables, stacked):
            assert np.array_equal(p, Quasigroup(t).parastrophe(name).table), name


def test_stacked_parastrophes_and_sort_of_an_empty_stack():
    empty = np.empty((0, 3, 3), dtype=np.int64)
    for name in PARASTROPHE_NAMES:
        assert _parastrophes(empty, name).shape == (0, 3, 3)
    ordered = _lex_sorted(empty)
    assert ordered.shape == (0, 3, 3) and not ordered.flags.writeable


def test_lex_sorted_orders_tables_by_key():
    tables = _seeded_latin_stack(4, 30, seed=7)
    ordered = _lex_sorted(tables)
    assert not ordered.flags.writeable
    assert [_table_key(t) for t in ordered] == sorted(_table_key(t) for t in tables)


def test_selector_names_and_tuples(z4_sub):
    assert ParastropheSelector.identity().name == "e"
    for name, sigma in (("e", (1, 2, 3)), ("id", (1, 2, 3)), ("(12)", (2, 1, 3)), ("(13)", (3, 2, 1)),
                        ("(23)", (1, 3, 2)), ("(123)", (2, 3, 1)), ("(132)", (3, 1, 2))):
        sel = ParastropheSelector.from_name(name)
        assert sel.sigma == sigma and sel.name == ("e" if name == "id" else name)
    assert z4_sub.parastrophe((3, 2, 1)) == z4_sub.parastrophe("(13)") != z4_sub


def test_bad_selector():
    with pytest.raises(ValueError):
        ParastropheSelector((1, 1, 2))
    with pytest.raises(ValueError):
        ParastropheSelector.from_name("(31)")


# -- isotopes ------------------------------------------------------------------------


def test_isotope_identity_triple(z5_sub):
    e = Permutation.identity(5)
    assert z5_sub.isotope(e, e, e) == z5_sub


def test_isotope_negation_gives_subtraction():
    add = Quasigroup(addition_table(5))
    e = Permutation.identity(5)
    neg = Permutation([(-y) % 5 for y in range(5)])
    expected = [[(x - y) % 5 for y in range(5)] for x in range(5)]
    assert add.isotope(e, neg, e).to_lists() == expected


def test_isotope_degree_mismatch(z5_sub):
    from quasilab import DegreeMismatch

    e4 = Permutation.identity(4)
    with pytest.raises(DegreeMismatch):
        z5_sub.isotope(e4, e4, e4)


# -- unit predicates ---------------------------------------------------------------


def test_unit_profile_z4_subtraction(z4_sub):
    u = z4_sub.unit_predicates()
    assert u.right_unit == 0
    assert u.left_unit is None
    assert u.is_unipotent
    assert not u.is_commutative
    assert not u.is_loop


def test_unit_profile_z2_subtraction():
    q = subtraction_quasigroup(cyclic(2))
    u = q.unit_predicates()
    assert u.is_loop and u.is_associative and u.is_commutative


def test_unit_profile_z3_addition(z3_add):
    u = z3_add.unit_predicates()
    assert u.left_unit == u.right_unit == 0
    assert u.is_loop and u.is_associative


def test_unit_profile_is_held_to_the_evaluation_budget():
    # its associativity scan spans n^3 cells, above 2^24 at order 257
    with pytest.raises(OrderTooLarge, match="budget"):
        Quasigroup(addition_table(257)).unit_predicates()


# -- generating sets and Light's associativity test -------------------------------


def _symmetric_group_table(k: int) -> np.ndarray:
    """Cayley table of S_k, permutations in lexicographic order, composed
    as (p*q)(i) = p(q(i))."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[i] for i in q)] for q in perms] for p in perms])


def _seeded_loop(rng: np.random.Generator, n: int) -> np.ndarray:
    """A loop of order n: cycle switches on row pairs of a Latin square,
    then the principal isotope x o y = (x/b)*(a\\y), whose unit is a*b.
    The square is Z_n, but at prime n every cycle switch of a Z_n isotope
    swaps whole rows, so there it is the lexicographically least square,
    which has an intercalate and so is no isotope of Z_n."""
    if all(n % p for p in range(2, n)):
        t = find_all(SearchOptions(n, limit=1), max_order=n)[0].table.copy()
    else:
        t = addition_table(n)
    for _ in range(n * n):
        r1, r2 = rng.choice(n, 2, replace=False)
        cols = [int(rng.integers(n))]
        while True:     # the columns where rows r1 and r2 hold the same symbols
            c = int(np.flatnonzero(t[r1] == t[r2, cols[-1]])[0])
            if c == cols[0]:
                break
            cols.append(c)
        t[r1, cols], t[r2, cols] = t[r2, cols], t[r1, cols]
    q = Quasigroup(t)
    a, b = (int(v) for v in rng.integers(n, size=2))
    return q.table[q.rdiv_table[:, b][:, None], q.ldiv_table[a][None, :]]


def _row_swapped(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    r1, r2 = rng.choice(len(table), 2, replace=False)
    out = table.copy()
    out[[r1, r2]] = out[[r2, r1]]
    return out


def test_light_test_equals_bruteforce_associativity():
    associative = builtin("associative")
    tables = [np.array(sq) for n in range(1, 5) for sq in all_latin_squares(n)]
    assert len(tables) == 591
    rng = np.random.default_rng(29)
    groups = [_symmetric_group_table(3)] + [g.table for n in range(5, 17)
                                            for g in enumerate_abelian_groups(n)]
    tables += groups
    tables += [_row_swapped(t, rng) for t in groups]
    tables += [_seeded_loop(rng, n) for n in range(5, 17) for _ in range(2)]
    verdicts = [_associative(t) for t in tables]
    assert verdicts == [holds_bruteforce(t.tolist(), associative) for t in tables]
    assert verdicts[591:591 + len(groups)] == [True] * len(groups)
    assert not any(verdicts[591 + len(groups):])


def test_generators_generate_and_are_few():
    tables = [np.array(sq) for n in range(1, 5) for sq in all_latin_squares(n)]
    tables += [g.table for n in range(1, 65) for g in enumerate_abelian_groups(n)]
    tables += [cyclic(256).table, direct_product([cyclic(2)] * 8).table,
               direct_product([cyclic(16)] * 2).table]
    assert len(tables) == 591 + 117 + 3
    for table in tables:
        gens = list(_generators(table))
        assert len(gens) <= len(table).bit_length()     # floor(log2 n) + 1
        assert closure(table.tolist(), gens) == set(range(len(table)))


# -- property tests over random isotopes ----------------------------------------------


@st.composite
def random_quasigroups(draw, max_order=6):
    n = draw(st.integers(min_value=1, max_value=max_order))
    alpha = Permutation(draw(st.permutations(list(range(n)))))
    beta = Permutation(draw(st.permutations(list(range(n)))))
    gamma = Permutation(draw(st.permutations(list(range(n)))))
    base = Quasigroup(addition_table(n))
    q = base.isotope(alpha, beta, gamma)
    if draw(st.booleans()):
        q = q.parastrophe(draw(st.sampled_from(["(12)", "(13)", "(23)", "(123)", "(132)"])))
    return q


@settings(max_examples=60, deadline=None)
@given(random_quasigroups(), st.data())
def test_division_identities_random(q, data):
    n = q.order
    x = data.draw(st.integers(0, n - 1))
    y = data.draw(st.integers(0, n - 1))
    assert q.mul(x, q.ldiv(x, y)) == y
    assert q.ldiv(x, q.mul(x, y)) == y
    assert q.mul(q.rdiv(x, y), y) == x
    assert q.rdiv(q.mul(y, x), x) == y


@settings(max_examples=40, deadline=None)
@given(random_quasigroups(), st.data())
def test_isotope_inverse_recovers(q, data):
    n = q.order
    alpha = Permutation(data.draw(st.permutations(list(range(n)))))
    beta = Permutation(data.draw(st.permutations(list(range(n)))))
    gamma = Permutation(data.draw(st.permutations(list(range(n)))))
    there = q.isotope(alpha, beta, gamma)
    back = there.isotope(alpha.inverse(), beta.inverse(), gamma.inverse())
    assert back == q


@settings(max_examples=40, deadline=None)
@given(random_quasigroups())
def test_parastrophes_preserve_latin(q):
    for name in ("(12)", "(13)", "(23)", "(123)", "(132)"):
        p = q.parastrophe(name)   # constructor re-validates the Latin property
        assert p.order == q.order
