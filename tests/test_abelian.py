import itertools
import tracemalloc

import numpy as np
import pytest

from quasilab import (
    AbelianGroup,
    NoRightUnit,
    NotAbelianGroup,
    OrderTooLarge,
    OutOfRange,
    Quasigroup,
    RepresentationMismatch,
    SearchOptions,
    automorphism_group,
    builtin,
    canonical_key,
    core_groupoid,
    cyclic,
    direct_product,
    enumerate_abelian_groups,
    find_all,
    holds,
    nucleus,
    recover_group,
    structure,
    subtraction_quasigroup,
    two_torsion,
)
from conftest import addition_table
from oracles import abelian_automorphism_count, euler_phi, is_abelian_group_table


# -- constructions ---------------------------------------------------------------


def test_cyclic_basics():
    z4 = cyclic(4)
    assert z4.add(3, 2) == 1
    assert z4.zero == 0
    assert list(z4.neg) == [0, 3, 2, 1]
    assert cyclic(1).order == 1


@pytest.mark.parametrize("op, args", [("add", (-1, 0)), ("add", (4, 0)),
                                      ("negate", (-1,)), ("negate", (4,))])
def test_group_operations_refuse_elements_out_of_range(op, args):
    with pytest.raises(OutOfRange):
        getattr(cyclic(4), op)(*args)


def test_group_add_wraps_around():
    assert cyclic(4).add(3, 2) == 1
    assert cyclic(4).negate(1) == 3


def test_direct_product_klein():
    k4 = direct_product([cyclic(2), cyclic(2)])
    assert k4.order == 4
    assert list(k4.neg) == [0, 1, 2, 3]      # exponent 2: everything self-inverse
    assert k4.factors == (2, 2)


def test_direct_product_mixed_radix():
    g = direct_product([cyclic(2), cyclic(3)])
    # element a*3+b encodes (a, b); (1,2)+(1,2) = (0,1)
    assert g.add(1 * 3 + 2, 1 * 3 + 2) == 0 * 3 + 1


def test_group_table_validation():
    with pytest.raises(NotAbelianGroup):
        AbelianGroup([[0, 1], [0, 1]])               # not Latin -> no unit either
    with pytest.raises(NotAbelianGroup) as exc:
        AbelianGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]][::-1])  # Latin, no unit row 0
    assert "unit" in str(exc.value)


def test_non_abelian_group_rejected():
    # S3 multiplication table: associative but not commutative
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    table = [
        [idx[tuple(p[q[k]] for k in range(3))] for q in perms]
        for p in perms
    ]
    with pytest.raises(NotAbelianGroup) as exc:
        AbelianGroup(table)
    assert "commutativity" in str(exc.value)
    assert exc.value.witness == (1, 2)


@pytest.mark.parametrize("table, axiom", [
    ([[-1]], "entries"),
    ([[0, 1], [1, 2]], "entries"),
    ([[0.5]], "entries"),
    ([[0, 1], [1]], "table shape"),
], ids=["negative", "out-of-range", "float", "ragged"])
def test_bad_entries_rejected(table, axiom):
    with pytest.raises(NotAbelianGroup) as exc:
        AbelianGroup(table)
    assert exc.value.axiom.startswith(axiom)


def test_object_entries_rejected_as_entries():
    with pytest.raises(NotAbelianGroup) as exc:
        AbelianGroup([[None]])
    assert exc.value.axiom == "entries (entries must be integers, got dtype object)"


def test_group_is_the_quasigroup_of_its_addition_table():
    g = cyclic(5)
    q = Quasigroup(g.table)
    assert isinstance(g, Quasigroup)
    assert g == q and q == g
    assert hash(g) == hash(q)


def test_group_owns_a_copy_of_its_table():
    a = np.array(addition_table(4), dtype=np.int64)
    g = AbelianGroup(a)
    assert a.flags.writeable
    a[0, 0] = 3
    assert g.table[0, 0] == 0
    assert g == cyclic(4)


# -- isomorphism-class enumeration -------------------------------------------------


def test_enumerate_counts_small():
    assert len(enumerate_abelian_groups(1)) == 1
    assert len(enumerate_abelian_groups(6)) == 1
    groups8 = enumerate_abelian_groups(8)
    assert [g.factors for g in groups8] == [(8,), (4, 2), (2, 2, 2)]


def test_enumerate_order8_pairwise_non_isomorphic():
    from quasilab import isomorphic

    groups8 = enumerate_abelian_groups(8)
    for g1, g2 in itertools.combinations(groups8, 2):
        assert isomorphic(Quasigroup(g1.table), Quasigroup(g2.table)) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_enumerate_complete_against_census(n):
    """Oracle: all commutative associative Latin squares of order n, grouped
    into isomorphism classes, must match the structural enumeration."""
    models = find_all(
        SearchOptions(order=n, identities=(builtin("commutative"), builtin("associative")))
    )
    for q in models:
        assert is_abelian_group_table(q.to_lists())
    classes = {canonical_key(q) for q in models}
    reps = enumerate_abelian_groups(n)
    assert len(classes) == len(reps)
    assert {canonical_key(Quasigroup(g.table)) for g in reps} == classes


def test_enumerate_bound():
    with pytest.raises(OrderTooLarge):
        enumerate_abelian_groups(100)


# -- automorphism groups -------------------------------------------------------------


def brute_force_automorphisms(g):
    out = []
    for img in itertools.permutations(range(g.order)):
        if img[g.zero] != g.zero:
            continue
        if all(
            img[g.add(a, b)] == g.add(img[a], img[b])
            for a in range(g.order)
            for b in range(g.order)
        ):
            out.append(img)
    return sorted(out)


@pytest.mark.parametrize("factors", [(5,), (2, 2), (4,), (6,), (2, 4), (2, 2, 2)])
def test_automorphism_group_matches_bruteforce(factors):
    g = direct_product([cyclic(k) for k in factors])
    fast = [p.image for p in automorphism_group(g)]
    assert fast == brute_force_automorphisms(g)


def test_automorphism_counts():
    assert len(automorphism_group(cyclic(5))) == 4
    assert len(automorphism_group(direct_product([cyclic(2), cyclic(2)]))) == 6
    assert len(automorphism_group(cyclic(1))) == 1


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_automorphisms_are_totient(n):
    assert len(automorphism_group(cyclic(n))) == euler_phi(n)


ABELIAN_UP_TO_16 = [g for n in range(1, 17) for g in enumerate_abelian_groups(n)]


def test_there_are_25_abelian_groups_up_to_order_16():
    assert len(ABELIAN_UP_TO_16) == 25


@pytest.mark.parametrize("g", ABELIAN_UP_TO_16, ids=lambda g: g.label)
def test_automorphism_group_of_a_relabeled_group_matches_hillar_rhea(g):
    n = g.order
    perm = np.random.default_rng(n).permutation(n)
    inv = np.argsort(perm)
    table = perm[g.table[np.ix_(inv, inv)]]
    relabeled = AbelianGroup(table)
    auts = automorphism_group(relabeled)
    assert len(auts) == abelian_automorphism_count(g.factors)
    assert structure.automorphisms(relabeled) == auts     # the group read as a quasigroup
    imgs = [p.image for p in auts]
    assert all(a < b for a, b in zip(imgs, imgs[1:]))      # sorted, so distinct
    rows = np.array(imgs, dtype=np.int64).reshape(len(imgs), n)
    assert (np.sort(rows, axis=1) == np.arange(n)).all()
    # the lazily built arrays, which is_autotopy, decompose_autotopy and relabel read
    arrays = np.array([p.array for p in auts]).reshape(len(auts), n)
    assert arrays.dtype == np.int64 and (arrays == rows).all()
    assert not any(p.array.flags.writeable for p in auts)
    for start in range(0, len(rows), 1024):
        th = rows[start:start + 1024]
        assert (th[:, table] == table[th[:, :, None], th[:, None, :]]).all()


def test_automorphism_bound():
    with pytest.raises(OrderTooLarge):
        automorphism_group(cyclic(17))


def test_group_constructions_refuse_before_allocating():
    # the associativity check of an order-n group spans n^3 cells, so the
    # evaluation budget of 2^24 admits groups up to order 256
    factors = [cyclic(17), cyclic(16)]
    tracemalloc.start()
    try:
        for build in (lambda: cyclic(10**9), lambda: cyclic(257),
                      lambda: direct_product(factors)):
            with pytest.raises(OrderTooLarge, match="budget"):
                build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert direct_product([cyclic(16), cyclic(16)]).order == 256


# -- subtraction quasigroups and recovery ----------------------------------------------


def test_subtraction_z3():
    assert subtraction_quasigroup(cyclic(3)).to_lists() == [[0, 2, 1], [1, 0, 2], [2, 1, 0]]


def test_subtraction_exponent_two_equals_addition():
    k4 = direct_product([cyclic(2), cyclic(2)])
    assert np.array_equal(subtraction_quasigroup(k4).table, k4.table)


def test_every_subtraction_quasigroup_is_neumann():
    neumann = builtin("neumann")
    for n in range(1, 9):
        for g in enumerate_abelian_groups(n):
            assert holds(subtraction_quasigroup(g), neumann)


def test_recover_round_trip_identical_tables():
    for n in range(1, 9):
        for g in enumerate_abelian_groups(n):
            r = recover_group(subtraction_quasigroup(g))
            assert r.zero == 0
            assert np.array_equal(r.table, g.table)


def test_recover_addition_table_mismatches(z3_add):
    # x*(e*y) = x + y is a fine group, but then x*y = x + y != x - y.
    with pytest.raises(RepresentationMismatch):
        recover_group(z3_add)


def test_recover_without_right_unit(no_right_unit_q5):
    with pytest.raises(NoRightUnit):
        recover_group(no_right_unit_q5)


def test_recover_commutative_loop_fails_associativity():
    # A commutative loop with unit 0: the derived addition x*(0*y) is the
    # table itself, which is not associative.
    q = Quasigroup([
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 3, 4, 5, 0, 1],
        [3, 2, 5, 4, 1, 0],
        [4, 5, 0, 1, 3, 2],
        [5, 4, 1, 0, 2, 3],
    ])
    with pytest.raises(NotAbelianGroup) as exc:
        recover_group(q)
    assert exc.value.axiom == "associativity"
    assert exc.value.witness == (2, 2, 4)


# -- two-torsion and core ----------------------------------------------------------------


def test_two_torsion_values():
    assert two_torsion(cyclic(4)) == {0, 2}
    assert two_torsion(cyclic(5)) == {0}
    assert two_torsion(direct_product([cyclic(2), cyclic(2)])) == {0, 1, 2, 3}


def test_two_torsion_equals_right_nucleus_of_subtraction():
    for n in range(1, 9):
        for g in enumerate_abelian_groups(n):
            assert two_torsion(g) == nucleus(subtraction_quasigroup(g), "right")


def test_core_of_z3_subtraction(z3_sub):
    expected = [[(2 * x - y) % 3 for y in range(3)] for x in range(3)]
    assert core_groupoid(z3_sub).tolist() == expected


def test_core_of_z4_subtraction_not_latin(z4_sub):
    core = core_groupoid(z4_sub)
    col0 = [int(core[x, 0]) for x in range(4)]
    assert len(set(col0)) < 4          # 2x mod 4 hits {0, 2} twice


def test_core_order_one():
    assert core_groupoid(Quasigroup([[0]])).tolist() == [[0]]


def test_core_distributive_for_all_small_neumann():
    from quasilab import core_distributive

    for n in range(1, 9):
        for g in enumerate_abelian_groups(n):
            d = core_distributive(subtraction_quasigroup(g))
            assert d.left and d.right


def test_recover_group_checks_only_the_group_axioms(monkeypatch):
    # the recovered addition permutes the columns of a Latin square, so the
    # Latin and symbol checks of the constructor are not run again
    sub = subtraction_quasigroup(direct_product([cyclic(2), cyclic(4)]))
    loop = Quasigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])   # Z3 addition: not x - y
    for check in ("_check_latin", "_check_symbols"):
        monkeypatch.setattr(Quasigroup, check, lambda *a: pytest.fail(f"{check} ran"))
    g = recover_group(sub)
    assert g.label == f"recovered from {sub.label}" and g.factors is None and g.zero == 0
    assert np.array_equal(g.table[:, g.neg], sub.table)
    with pytest.raises(RepresentationMismatch):
        recover_group(loop)
