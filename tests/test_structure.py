import itertools
import random
import re

import numpy as np
import pytest

from quasilab import (
    Autotopy,
    DegreeMismatch,
    EmptyList,
    NotDecomposable,
    OrderMismatch,
    OrderTooLarge,
    Permutation,
    PseudoautomorphismWitness,
    Quasigroup,
    SearchOptions,
    a_pseudoautomorphisms,
    automorphism_count,
    automorphism_group,
    automorphisms,
    autotopies,
    canonical_key,
    check_left_bol,
    check_moufang,
    component_transitive,
    core_distributive,
    decompose_autotopy,
    enumerate_abelian_groups,
    find_all,
    is_autotopy,
    is_g,
    is_ga,
    isomorphic,
    left_bol_counterexample,
    lp_isotope,
    moufang_counterexample,
    nuclei,
    nucleus,
    parse_group_spec,
    pseudoautomorphisms,
    recover_group,
    relabel,
    subtraction_quasigroup,
)
from quasilab import quasigroup, structure
from quasilab.structure import GAProfile, GProfile
from quasilab import OutOfRange, builtin, holds
from quasilab.verification import NEUMANN_INSTANCES
from quasilab.cli import _analyze_report
from oracles import (
    abelian_automorphism_count,
    all_latin_squares,
    first_isomorphism,
    left_bol_first_failure,
    moufang_first_failure,
    naive_automorphisms,
    naive_autotopies,
    naive_canonical_form,
    naive_core_distributive,
    naive_nucleus,
    naive_pseudoautomorphisms,
    relabel_table,
)


# -- autotopy enumeration -----------------------------------------------------------


def test_order_one_has_single_autotopy():
    ats = autotopies(Quasigroup([[0]]))
    assert len(ats) == 1
    assert ats[0] == Autotopy.identity(1)


def test_autotopy_counts(z4_sub, z5_sub):
    assert len(autotopies(z4_sub)) == 32      # 16 * |Aut(Z4)|
    assert len(autotopies(z5_sub)) == 100     # 25 * |Aut(Z5)|


@pytest.mark.parametrize("spec", ["Z3", "Z4", "Z2xZ2"])
def test_autotopies_match_naive_scan(spec):
    q = subtraction_quasigroup(parse_group_spec(spec))
    fast = {(t.alpha.image, t.beta.image, t.gamma.image) for t in autotopies(q)}
    assert fast == naive_autotopies(q.to_lists())


def test_autotopies_match_naive_scan_on_small_squares():
    # every square of order <= 3, and the first order-4 square of each of the
    # 35 isomorphism classes (isomorphic squares have conjugate autotopy groups)
    reps: dict = {}
    for sq in all_latin_squares(4):
        reps.setdefault(canonical_key(Quasigroup(sq)), sq)
    assert len(reps) == 35
    for sq in [sq for n in (1, 2, 3) for sq in all_latin_squares(n)] + list(reps.values()):
        fast = [t.sort_key() for t in autotopies(Quasigroup(sq))]
        assert fast == sorted(naive_autotopies(sq)), sq


def test_autotopies_sorted_and_duplicate_free(z4_sub):
    ats = autotopies(z4_sub)
    keys = [t.sort_key() for t in ats]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("q", [subtraction_quasigroup(parse_group_spec("Z4")),
                               Quasigroup([[(2 * x + y) % 5 for y in range(5)] for x in range(5)])])
def test_autotopy_group_rows_come_in_sort_key_order(q):
    # the cached array is sorted once; autotopies() only converts its rows
    rows = [tuple(map(tuple, row)) for row in structure._autotopy_group(q).tolist()]
    assert rows == sorted(rows)
    assert rows == [t.sort_key() for t in autotopies(q)]


def test_autotopy_group_closure(z4_sub):
    ats = autotopies(z4_sub)
    pool = {t.sort_key() for t in ats}
    for t1, t2 in itertools.islice(itertools.product(ats, ats), 300):
        assert (t1 * t2).sort_key() in pool
    for t in ats:
        assert t.inverse().sort_key() in pool
        assert is_autotopy(z4_sub, t)


def test_autotopies_enumerated_once_per_analyze_report(z5_sub):
    structure._autotopy_group.cache_clear()
    _analyze_report(z5_sub, None)
    assert structure._autotopy_group.cache_info().misses == 1


def test_autotopies_returns_a_fresh_list(z4_sub):
    first = autotopies(z4_sub)
    first.clear()
    again = autotopies(z4_sub)
    assert len(again) == 32


def test_autotopy_bound(z5_sub):
    with pytest.raises(OrderTooLarge):
        autotopies(z5_sub, max_order=4)


# -- automorphisms ---------------------------------------------------------------------


def test_automorphisms_equal_group_automorphisms(z5_sub, z22_sub):
    for q in (z5_sub, z22_sub):
        quasi = automorphisms(q)
        group = automorphism_group(recover_group(q))
        assert quasi == group          # both sorted by image


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_automorphisms_match_naive_scan_on_every_latin_square(n):
    for sq in all_latin_squares(n):
        assert [p.image for p in automorphisms(Quasigroup(sq))] == naive_automorphisms(sq), sq


def test_automorphism_counts(z5_sub, z22_sub):
    assert len(automorphisms(z5_sub)) == 4
    assert len(automorphisms(z22_sub)) == 6
    assert len(automorphisms(Quasigroup([[0]]))) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_automorphism_count_equals_the_listed_group_on_every_latin_square(n):
    for sq in all_latin_squares(n):
        q = Quasigroup(sq)
        assert automorphism_count(q) == len(automorphisms(q)), sq


@pytest.mark.parametrize("g", [g for n in range(1, 17) for g in enumerate_abelian_groups(n)],
                         ids=lambda g: g.label)
def test_automorphism_count_matches_hillar_rhea(g):
    # |Aut| from the transversal sizes alone, for the group table and for
    # its subtraction table (T7: the two groups are equal)
    expected = abelian_automorphism_count(g.factors)
    assert automorphism_count(Quasigroup(g.table)) == expected
    assert automorphism_count(subtraction_quasigroup(g)) == expected


def test_queries_on_one_quasigroup_label_it_once(monkeypatch, z5_sub):
    labeled = []
    init = quasigroup._Labeled.__init__

    def counted(self, t):
        labeled.append(t)
        init(self, t)

    monkeypatch.setattr(quasigroup._Labeled, "__init__", counted)
    target = relabel(z5_sub, Permutation([1, 0, 3, 4, 2]))
    for _ in range(2):
        assert automorphism_count(z5_sub) == len(automorphisms(z5_sub)) == 4
        assert pseudoautomorphisms(z5_sub, "right") and not pseudoautomorphisms(z5_sub, "left")
        assert isomorphic(z5_sub, target) is not None
    assert len(labeled) == 1 and labeled[0] is z5_sub.table


def test_automorphisms_share_the_group_automorphism_bound():
    # T7: Aut(Q,*) = Aut(Q,+) for x*y = x - y, here at order 16
    g = parse_group_spec("Z4xZ4")
    auts = automorphisms(subtraction_quasigroup(g))
    assert len(auts) == 96
    assert auts == automorphism_group(g)
    with pytest.raises(OrderTooLarge):
        automorphisms(subtraction_quasigroup(parse_group_spec("Z17")))


def _tables_of_orders_5_to_8() -> list[tuple[str, list[list[int]]]]:
    """The group and subtraction tables of every abelian group of order 5-8,
    and a seeded isotope of each subtraction table of order 5-7."""
    rng = random.Random(58)
    out = []
    for n in range(5, 9):
        for g in enumerate_abelian_groups(n):
            sub = subtraction_quasigroup(g)
            out += [(f"{g.label}+", g.table.tolist()), (f"{g.label}-", sub.to_lists())]
            if n <= 7:
                iso = sub.isotope(*(Permutation(rng.sample(range(n), n)) for _ in range(3)))
                out.append((f"{g.label}-isotope", iso.to_lists()))
    return out


TABLES_5_TO_8 = _tables_of_orders_5_to_8()


@pytest.mark.parametrize("name, table", TABLES_5_TO_8, ids=[name for name, _ in TABLES_5_TO_8])
def test_automorphisms_match_naive_scan_at_orders_5_to_8(name, table):
    assert [p.image for p in automorphisms(Quasigroup(table))] == naive_automorphisms(table)


@pytest.mark.parametrize("name, table", TABLES_5_TO_8, ids=[name for name, _ in TABLES_5_TO_8])
def test_isomorphic_returns_the_lexicographically_first_map_at_orders_5_to_8(name, table):
    # onto a seeded relabeling of the table itself and of every other table
    # of its order, isomorphic or not
    rng = random.Random(name)
    n = len(table)
    for _, other in (entry for entry in TABLES_5_TO_8 if len(entry[1]) == n):
        other = relabel_table(other, rng.sample(range(n), n))
        found = isomorphic(Quasigroup(table), Quasigroup(other))
        assert (found.image if found else None) == first_isomorphism(table, other), other


def test_isomorphism_searches_label_the_source_once(monkeypatch):
    # one labeling of the source and one search of each target; the
    # automorphism group of the source, built once, takes at most
    # (floor(log2 n) + 1) * n prefix searches
    calls = []
    labelings = quasigroup._labelings

    def counted(t, target=None, prefix=()):
        calls.append("source" if target is None else "prefix" if prefix else "target")
        return labelings(t, target, prefix)

    monkeypatch.setattr(quasigroup, "_labelings", counted)
    rng = random.Random(6)
    sub = subtraction_quasigroup(parse_group_spec("Z6"))
    q = sub.isotope(*(Permutation(rng.sample(range(6), 6)) for _ in range(3)))
    # a Quasigroup keeps its record, so each call here gets a fresh one
    for table in (sub, q):
        for side in ("left", "right"):
            calls.clear()
            pseudoautomorphisms(Quasigroup(table.table), side)
            assert calls.count("source") == 1
            assert calls.count("target") == 6
            assert calls.count("prefix") <= 3 * 6
    calls.clear()
    assert len(pseudoautomorphisms(Quasigroup(sub.table), "right")) == 12   # all 6 companions match
    assert 0 < calls.count("prefix") <= 3 * 6
    structure._autotopy_group.cache_clear()
    calls.clear()
    assert len(autotopies(q)) == 36 * 2
    assert calls.count("source") == 1
    assert calls.count("target") == 36
    assert 0 < calls.count("prefix") <= 3 * 6


def _isomorphisms_by_loop(labeled, targets):
    """Reference for ``_Labeled.isomorphisms``: one first match per target,
    composed with the sorted automorphism images."""
    which, rows = [], []
    for k, t2 in enumerate(targets):
        gamma0 = labeled.match(t2)
        if gamma0 is not None:
            which += [k] * len(labeled.images)
            rows += np.asarray(gamma0)[labeled.images].tolist()
    return which, rows


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_isomorphisms_onto_a_stack_equal_one_match_per_target(n):
    # relabelings of the source, which always match, shuffled with random
    # isotopes of Z_n, which match only when isomorphic to the source
    rng = np.random.default_rng(n)
    idx = np.arange(n)
    add = (idx[:, None] + idx) % n
    source = add[np.ix_(rng.permutation(n), rng.permutation(n))]
    targets = [np.asarray(relabel_table(source, rng.permutation(n))) for _ in range(4)]
    targets += [rng.permutation(n)[add[np.ix_(rng.permutation(n), rng.permutation(n))]] for _ in range(8)]
    stack = np.stack(targets)[rng.permutation(len(targets))]
    labeled = quasigroup._Labeled(source)
    which, rows = labeled.isomorphisms(stack)
    assert (which.tolist(), rows.tolist()) == _isomorphisms_by_loop(labeled, stack)
    assert set(which.tolist()) < set(range(len(stack))) or n < 3


def test_isomorphisms_onto_a_stack_without_a_match_build_no_part_of_aut(z3_add):
    labeled = quasigroup._Labeled(z3_add.table)
    which, rows = labeled.isomorphisms(np.stack([subtraction_quasigroup(parse_group_spec("Z3")).table] * 2))
    assert (which.shape, rows.shape) == ((0,), (0, 3))
    assert "transversals" not in vars(labeled) and "images" not in vars(labeled)


def test_automorphism_group_of_z2_4_visits_few_leaves(monkeypatch):
    # one source labeling, one match of the identity and at most one leaf
    # per prefix search, (floor(log2 16) + 1) * 16 of them, for 20160 maps
    leaves = []
    labelings = quasigroup._labelings

    def counted(t, target=None, prefix=()):
        for leaf in labelings(t, target, prefix):
            leaves.append(prefix)
            yield leaf

    monkeypatch.setattr(quasigroup, "_labelings", counted)
    assert len(automorphism_group(parse_group_spec("Z2xZ2xZ2xZ2"))) == 20160
    assert len(leaves) <= 2 + 5 * 16


# -- decomposition -----------------------------------------------------------------------


@pytest.mark.parametrize("which, image, message", [
    (0, [0, 2, 1, 3, 4], "residual map is not a group automorphism"),
    (1, [0, 2, 1, 3, 4], "second component is not L+_(-b) . theta"),
    (2, [1, 2, 3, 4, 0], "third component is not L+_(a+b) . theta"),
])
def test_decomposition_names_the_component_that_fails(z5_sub, which, image, message):
    comps = [Permutation.identity(5)] * 3
    comps[which] = Permutation(image)
    t = Autotopy(*comps)
    assert not is_autotopy(z5_sub, t)
    with pytest.raises(NotDecomposable, match=f"^{re.escape(message)}$"):
        decompose_autotopy(z5_sub, t)


def test_pseudoautomorphism_witnesses_of_both_sides_are_autotopies():
    tables = [subtraction_quasigroup(parse_group_spec(s)) for s in ("Z3", "Z2xZ2", "Z5")]
    tables.append(Quasigroup([[(y - x) % 3 for y in range(3)] for x in range(3)]))   # y - x
    seen = {"left": 0, "right": 0}
    for q in tables:
        for side in seen:
            for w in pseudoautomorphisms(q, side):
                t = w.to_autotopy(q)
                assert is_autotopy(q, t)
                # (L_c.theta, theta, L_c.theta) on the left, (theta, R_c.theta, R_c.theta) on the right
                kept, paired = (t.beta, (t.alpha, t.gamma)) if side == "left" else (t.alpha, (t.beta, t.gamma))
                assert kept == w.theta and paired[0] == paired[1]
                seen[side] += 1
    assert seen == {"left": 30, "right": 50}


@pytest.mark.parametrize("degree", [3, 7])
def test_wrong_degree_triples_are_refused(z5_sub, degree):
    for check in (is_autotopy, decompose_autotopy):
        with pytest.raises(DegreeMismatch, match=f"permutation degree {degree} != order 5"):
            check(z5_sub, Autotopy.identity(degree))


@pytest.mark.parametrize("degree", [3, 5])
def test_relabel_refuses_a_wrong_degree(z4_sub, degree):
    with pytest.raises(DegreeMismatch, match=f"permutation degree {degree} != order 4"):
        relabel(z4_sub, Permutation.identity(degree))


def test_identity_autotopy_decomposes_trivially(z5_sub):
    d = decompose_autotopy(z5_sub, Autotopy.identity(5))
    assert (d.a, d.b) == (0, 0)
    assert d.theta.is_identity()


def test_known_translation_triple_decomposes(z5_sub):
    # alpha = +1, beta = +4, gamma = +2: gamma(x-y) = (x+1) - (y+4) mod 5
    alpha = Permutation([(x + 1) % 5 for x in range(5)])
    beta = Permutation([(x + 4) % 5 for x in range(5)])
    gamma = Permutation([(x + 2) % 5 for x in range(5)])
    t = Autotopy(alpha, beta, gamma)
    assert is_autotopy(z5_sub, t)
    d = decompose_autotopy(z5_sub, t)
    assert (d.a, d.b) == (1, 1)
    assert d.theta.is_identity()


def test_decomposition_is_bijective_onto_parameters(z4_sub):
    g = recover_group(z4_sub)
    auts = automorphism_group(g)
    seen = set()
    for t in autotopies(z4_sub):
        d = decompose_autotopy(z4_sub, t, group=g)
        assert d.theta in auts
        seen.add((d.a, d.b, d.theta.image))
    assert len(seen) == 4 * 4 * len(auts) == 32


@pytest.mark.parametrize("n", [4, 6])
def test_decompose_refuses_a_group_of_another_order(z5_sub, n):
    with pytest.raises(OrderMismatch, match=f"orders differ: 5 vs {n}"):
        decompose_autotopy(z5_sub, Autotopy.identity(5), group=parse_group_spec(f"Z{n}"))


GROUPS_TO_7 = [g for n in range(1, 8) for g in enumerate_abelian_groups(n)]


@pytest.mark.parametrize("g", GROUPS_TO_7, ids=lambda g: g.label)
def test_built_group_is_the_autotopy_list(g):
    assert np.array_equal(structure._subtraction_images(g), structure._autotopy_group(subtraction_quasigroup(g)))


@pytest.mark.parametrize("g", GROUPS_TO_7, ids=lambda g: g.label)
def test_built_group_of_a_relabeled_table_is_its_autotopy_list(g):
    rng = random.Random(g.label)
    q = relabel(subtraction_quasigroup(g), Permutation(rng.sample(range(g.order), g.order)))
    assert np.array_equal(structure._subtraction_images(recover_group(q)), structure._autotopy_group(q))


def test_z2_cubed_subtraction_autotopies_at_order_8():
    # 8^2 * |GL(3, 2)| = 64 * 168 autotopies, above the default bound of 7
    q = subtraction_quasigroup(parse_group_spec("Z2xZ2xZ2"))
    ats = autotopies(q, max_order=8)
    assert len(ats) == 10752
    assert np.array_equal(structure._subtraction_images(recover_group(q)), structure._autotopy_group(q))
    assert is_ga(q, max_order=8).ga
    assert is_g(q, max_order=8) == GProfile(left_g=True, right_g=True)    # exponent 2
    assert not structure._autotopy_group(q).flags.writeable


def test_alternative_product_translation_form(z5_sub):
    """Each autotopy also factors as (L*_a, L*_Ib, L*_(a*Ib)) . (I theta)
    with the quasigroup's own left translations and I the negation."""
    g = recover_group(z5_sub)
    neg = Permutation(g.neg)
    for t in autotopies(z5_sub)[:25]:
        d = decompose_autotopy(z5_sub, t, group=g)
        theta1 = neg * d.theta
        ib = int(g.neg[d.b])
        a_ib = z5_sub.mul(d.a, ib)
        assert z5_sub.left_translation(d.a) * theta1 == t.alpha
        assert z5_sub.left_translation(ib) * theta1 == t.beta
        assert z5_sub.left_translation(a_ib) * theta1 == t.gamma


def test_two_translation_form_is_autotopy(z5_sub, z4_sub):
    """Spot check: (L*_s, L*_t, L*_s . Rinv_t) . theta is always an autotopy."""
    for q in (z5_sub, z4_sub):
        thetas = automorphisms(q)
        for s, t_el in itertools.product(range(q.order), repeat=2):
            theta = thetas[-1]
            triple = Autotopy(
                q.left_translation(s) * theta,
                q.left_translation(t_el) * theta,
                q.left_translation(s) * q.right_translation(t_el).inverse() * theta,
            )
            assert is_autotopy(q, triple)


# -- pseudoautomorphisms --------------------------------------------------------------


def test_group_identity_is_right_pseudoautomorphism(z3_add):
    ws = pseudoautomorphisms(z3_add, "right")
    assert any(w.theta.is_identity() and w.companion == 0 for w in ws)
    for w in ws:
        assert is_autotopy(z3_add, w.to_autotopy(z3_add))


def test_z5_subtraction_right_companions_cover_carrier(z5_sub):
    ws = pseudoautomorphisms(z5_sub, "right")
    assert {w.companion for w in ws} == set(range(5))
    for w in ws:
        assert is_autotopy(z5_sub, w.to_autotopy(z5_sub))


def test_z5_subtraction_has_no_left_pseudoautomorphisms(z5_sub):
    assert pseudoautomorphisms(z5_sub, "left") == []


def test_pseudoautomorphism_witness_refuses_an_unknown_side():
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'top'"):
        PseudoautomorphismWitness(Permutation.identity(3), 0, "top")


def test_pseudoautomorphism_witness_refuses_a_theta_of_another_degree(z3_add):
    w = PseudoautomorphismWitness(Permutation.identity(4), 0, "right")
    with pytest.raises(DegreeMismatch, match="permutation degree 4 != order 3"):
        w.to_autotopy(z3_add)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pseudoautomorphisms_match_oracle_on_every_small_square(n):
    for rows in all_latin_squares(n):
        q = Quasigroup(rows)
        for side in ("right", "left"):
            ws = pseudoautomorphisms(q, side)
            assert all(w.side == side for w in ws)
            assert [(w.theta.image, w.companion) for w in ws] == \
                naive_pseudoautomorphisms(rows, side), (rows, side)


def _pseudoautomorphisms_by_autotopy_filter(q, side):
    """The beta = gamma (right) or alpha = gamma (left) autotopies whose
    translation part is R_c with c = alpha(0) \\ beta(0), resp. L_c with
    c = alpha(0) / beta(0), as sorted (theta image, c) pairs."""
    out = []
    for t in autotopies(q):
        if side == "right" and t.beta == t.gamma:
            c = q.ldiv(t.alpha(0), t.beta(0))
            if (t.beta.array == q.table[t.alpha.array, c]).all():
                out.append((t.alpha.image, c))
        elif side == "left" and t.alpha == t.gamma:
            c = q.rdiv(t.alpha(0), t.beta(0))
            if (t.alpha.array == q.table[c, t.beta.array]).all():
                out.append((t.beta.image, c))
    return sorted(out)


@pytest.mark.parametrize("spec", ["Z5", "Z6", "Z7"])
def test_pseudoautomorphisms_match_autotopy_filter_at_orders_5_to_7(spec):
    g = parse_group_spec(spec)
    n = g.order
    rng = random.Random(n)
    for base in (Quasigroup(g.table), subtraction_quasigroup(g)):
        perms = [Permutation(rng.sample(range(n), n)) for _ in range(3)]
        for q in (base, relabel(base, perms[0]), base.isotope(*perms)):
            for side in ("right", "left"):
                got = [(w.theta.image, w.companion) for w in pseudoautomorphisms(q, side)]
                assert got == _pseudoautomorphisms_by_autotopy_filter(q, side), (q, side)


def test_pseudoautomorphisms_bound_and_side():
    q = subtraction_quasigroup(parse_group_spec("Z8"))
    with pytest.raises(OrderTooLarge):
        pseudoautomorphisms(q, "right")
    assert pseudoautomorphisms(q, "right", max_order=8)
    with pytest.raises(ValueError):
        pseudoautomorphisms(q, "top", max_order=8)


def test_a_pseudoautomorphism_filters_match_decomposition(z4_sub, z6_sub):
    for q in (z4_sub, z6_sub):
        g = recover_group(q)
        right = {t.sort_key() for t in a_pseudoautomorphisms(q, "right")}
        left = {t.sort_key() for t in a_pseudoautomorphisms(q, "left")}
        expected_right, expected_left = set(), set()
        for t in autotopies(q):
            d = decompose_autotopy(q, t, group=g)
            if d.a == g.negate(g.add(d.b, d.b)):    # a = -2b
                expected_right.add(t.sort_key())
            if d.b == g.zero:
                expected_left.add(t.sort_key())
        assert right == expected_right
        assert left == expected_left


def test_identity_triple_in_both_a_pseudo_lists(z4_sub):
    e = Autotopy.identity(4)
    assert e in a_pseudoautomorphisms(z4_sub, "right")
    assert e in a_pseudoautomorphisms(z4_sub, "left")


def test_a_pseudoautomorphisms_match_naive_filters_on_small_squares():
    # every square of order <= 3 and one square of each of the 35 order-4
    # classes, not only Neumann tables: the beta = gamma (right) and
    # alpha = gamma (left) rows of the all-triples scan, in sort_key order
    classes = [q.to_lists() for q in find_all(SearchOptions(4, up_to_isomorphism=True))]
    assert len(classes) == 35
    for sq in [sq for n in (1, 2, 3) for sq in all_latin_squares(n)] + classes:
        q = Quasigroup(sq)
        naive = sorted(naive_autotopies(sq))
        assert [t.sort_key() for t in a_pseudoautomorphisms(q, "right")] == \
            [t for t in naive if t[1] == t[2]], sq
        assert [t.sort_key() for t in a_pseudoautomorphisms(q, "left")] == \
            [t for t in naive if t[0] == t[2]], sq


# -- transitivity and G / GA profiles -----------------------------------------------------


def test_component_transitive(z5_sub):
    rights = a_pseudoautomorphisms(z5_sub, "right")
    lefts = a_pseudoautomorphisms(z5_sub, "left")
    assert component_transitive(rights, 3)
    assert component_transitive(lefts, 3)
    assert not component_transitive([Autotopy.identity(5)], 3)
    with pytest.raises(EmptyList):
        component_transitive([], 3)
    with pytest.raises(ValueError):
        component_transitive(rights, 4)


def test_component_transitive_refuses_components_of_mixed_degree():
    with pytest.raises(DegreeMismatch, match="permutation degree 3 != order 2"):
        component_transitive([Autotopy.identity(2), Autotopy.identity(3)], 1)


def test_ga_profile(z5_sub):
    p = is_ga(z5_sub)
    assert p.left_ga and p.right_ga and p.ga


def test_g_profile_sides(z5_sub, z22_sub):
    p5 = is_g(z5_sub)
    assert p5.right_g and not p5.left_g      # companions exist only on the right
    p22 = is_g(z22_sub)
    assert p22.left_g and p22.right_g


def _orbit_is_everything(gammas, n: int) -> bool:
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for gamma in gammas:
            if gamma[x] not in seen:
                seen.add(gamma[x])
                frontier.append(gamma[x])
    return len(seen) == n


def test_g_and_ga_profiles_match_oracles_on_every_order_4_class():
    # G: third components R_c.theta (right) and L_c.theta (left) of the
    # pseudoautomorphisms; GA: those of the autotopies with beta = gamma
    # (right) and alpha = gamma (left)
    classes = [q.to_lists() for q in find_all(SearchOptions(4, up_to_isomorphism=True))]
    assert len(classes) == 35
    no_right = 0
    for t in classes:
        q = Quasigroup(t)
        right = [tuple(t[theta[x]][c] for x in range(4))
                 for theta, c in naive_pseudoautomorphisms(t, "right")]
        left = [tuple(t[c][theta[x]] for x in range(4))
                for theta, c in naive_pseudoautomorphisms(t, "left")]
        no_right += not right
        assert is_g(q) == GProfile(left_g=_orbit_is_everything(left, 4),
                                   right_g=_orbit_is_everything(right, 4)), t
        atp = naive_autotopies(t)
        right_ga = _orbit_is_everything([g for _, b, g in atp if b == g], 4)
        left_ga = _orbit_is_everything([g for a, _, g in atp if a == g], 4)
        assert is_ga(q) == GAProfile(left_ga=left_ga, right_ga=right_ga,
                                     ga=left_ga and right_ga), t
    assert no_right == 28       # the empty-list path of pseudoautomorphisms


def test_order_one_everything_trivially_true():
    q = Quasigroup([[0]])
    assert is_ga(q).ga
    gp = is_g(q)
    assert gp.left_g and gp.right_g


# -- nuclei -------------------------------------------------------------------------------


def test_nuclei(z4_sub, z5_sub, z3_add):
    assert nucleus(z4_sub, "right") == {0, 2}
    assert nucleus(z5_sub, "right") == {0}
    for side in ("left", "right", "middle"):
        assert nucleus(z3_add, side) == {0, 1, 2}
    with pytest.raises(ValueError):
        nucleus(z3_add, "top")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nucleus_matches_oracle_on_every_small_square(n):
    for rows in all_latin_squares(n):
        q = Quasigroup(rows)
        all_sides = nuclei(q)
        for side in ("left", "middle", "right"):
            assert nucleus(q, side) == naive_nucleus(rows, side), (rows, side)
            assert all_sides[side] == naive_nucleus(rows, side), (rows, side)


# -- Bol, Moufang, core ---------------------------------------------------------------------


def test_bol_and_moufang_on_z4_subtraction(z4_sub):
    assert check_left_bol(z4_sub)
    assert check_moufang(z4_sub)


def test_bol_moufang_on_groups(z3_add, z5_add):
    for q in (z3_add, z5_add):
        assert check_left_bol(q)
        assert check_moufang(q)


FAILING_BOL_SQUARE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_bol_counterexample_reported():
    q = Quasigroup(FAILING_BOL_SQUARE)
    cx = left_bol_counterexample(q)
    assert cx == (1, 0, 2)
    # verify the reported triple by hand: x(y*xz) vs Rinv_{e_x}(x*yx) * z
    x, y, z = cx
    t = q.to_lists()
    e_x = next(e for e in range(5) if t[x][e] == x)
    col = [t[r][e_x] for r in range(5)]
    lhs = t[x][t[y][t[x][z]]]
    rhs = t[col.index(t[x][t[y][x]])][z]
    assert lhs != rhs
    assert not check_left_bol(q)


def test_moufang_counterexample_reported(no_right_unit_q5):
    cx = moufang_counterexample(no_right_unit_q5)
    assert cx == (0, 1, 0)
    assert not check_moufang(no_right_unit_q5)


def test_bol_moufang_counterexamples_match_oracles():
    squares = [t for n in range(1, 5) for t in all_latin_squares(n)]
    assert len(squares) == 591
    for table in squares:
        q = Quasigroup(table)
        assert left_bol_counterexample(q) == left_bol_first_failure(table)
        assert moufang_counterexample(q) == moufang_first_failure(table)


def test_core_distributive(z4_sub, z5_sub):
    for q in (z4_sub, z5_sub):
        d = core_distributive(q)
        assert d.left and d.right
    d1 = core_distributive(Quasigroup([[0]]))
    assert d1.left and d1.right


def test_core_distributive_matches_oracle_on_every_small_square():
    squares = [t for n in range(1, 5) for t in all_latin_squares(n)]
    assert len(squares) == 591
    left_fails = right_fails = 0
    for table in squares:
        d = core_distributive(Quasigroup(table))
        assert d.left == naive_core_distributive(table, "left"), table
        assert d.right == naive_core_distributive(table, "right"), table
        left_fails += not d.left
        right_fails += not d.right
    assert (left_fails, right_fails) == (475, 532)


# -- isomorphism -------------------------------------------------------------------------


def test_isomorphic_to_self(z4_sub):
    phi = isomorphic(z4_sub, z4_sub)
    assert phi is not None and phi.is_identity()


def test_isomorphic_distinguishes_z4_and_klein(z4_sub, z22_sub):
    assert isomorphic(z4_sub, z22_sub) is None


def test_isomorphic_finds_relabeling(z3_sub):
    phi = Permutation([1, 2, 0])
    other = relabel(z3_sub, phi)
    assert other.to_lists() == [list(r) for r in relabel_table(z3_sub.to_lists(), phi.image)]
    found = isomorphic(z3_sub, other)
    assert found is not None
    t1, t2 = z3_sub.to_lists(), other.to_lists()
    assert all(
        found(t1[x][y]) == t2[found(x)][found(y)] for x in range(3) for y in range(3)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_isomorphic_returns_the_lexicographically_first_map(n):
    rng = random.Random(n)
    targets = []
    if n == 4:
        targets = [subtraction_quasigroup(parse_group_spec(s)).to_lists() for s in ("Z4", "Z2xZ2")]
    for sq in all_latin_squares(n):
        phi = list(range(n))
        rng.shuffle(phi)
        for other in [relabel_table(sq, phi)] + targets:
            found = isomorphic(Quasigroup(sq), Quasigroup(other))
            assert (found.image if found else None) == first_isomorphism(sq, other), (sq, other)


def test_isomorphic_order_mismatch(z3_sub, z4_sub):
    with pytest.raises(OrderMismatch):
        isomorphic(z3_sub, z4_sub)


# -- canonical form ----------------------------------------------------------------------


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 1), (3, 5), (4, 35)])
def test_canonical_key_splits_squares_like_the_naive_scan(n, classes):
    pairs = {(canonical_key(Quasigroup(sq)), naive_canonical_form(sq)) for sq in all_latin_squares(n)}
    # equal keys exactly when equal naive forms: the pairing is a bijection
    assert len({k for k, _ in pairs}) == len({f for _, f in pairs}) == len(pairs) == classes


@pytest.mark.parametrize("spec, isotope", [
    ("Z8", False), ("Z2xZ4", False), ("Z2xZ2xZ2", False), ("Z5", True), ("Z6", True), ("Z7", True),
])
def test_canonical_key_is_invariant_under_relabeling(spec, isotope):
    rng = random.Random(8)
    q = subtraction_quasigroup(parse_group_spec(spec))
    n = q.order
    if isotope:
        q = q.isotope(*(Permutation(rng.sample(range(n), n)) for _ in range(3)))
    key = canonical_key(q)
    for _ in range(3):
        assert canonical_key(relabel(q, Permutation(rng.sample(range(n), n)))) == key


def _matrix_group_table(gens) -> list[list[int]]:
    """Cayley table of the finite group that 2x2 matrices over Z[i] generate."""
    def mul(m, k):
        return tuple(tuple(m[r][0] * k[0][c] + m[r][1] * k[1][c] for c in range(2)) for r in range(2))

    elems = [((1, 0), (0, 1))]
    for m in elems:  # grows while it is walked: a breadth-first closure
        for g in gens:
            p = mul(m, g)
            if p not in elems:
                elems.append(p)
    return [[elems.index(mul(x, y)) for y in elems] for x in elems]


def test_canonical_key_separates_the_groups_of_order_8():
    # the subtraction tables of the three abelian groups, and the Cayley
    # tables of all five groups (Z8, Z2xZ4, Z2^3, dihedral D4, quaternion Q8);
    # x - y = x + y in Z2^3, so its two tables are one
    abelian = [parse_group_spec(s) for s in ("Z8", "Z2xZ4", "Z2xZ2xZ2")]
    tables = [subtraction_quasigroup(g) for g in abelian] + [Quasigroup(g.table) for g in abelian[:2]]
    d4 = _matrix_group_table([((0, -1), (1, 0)), ((1, 0), (0, -1))])
    q8 = _matrix_group_table([((1j, 0), (0, -1j)), ((0, 1), (-1, 0))])
    tables += [Quasigroup(d4), Quasigroup(q8)]
    assert all(q.order == 8 for q in tables)
    assert len({canonical_key(q) for q in tables}) == len(tables) == 7


def test_canonical_key_at_order_16():
    rng = random.Random(16)
    z2z8 = subtraction_quasigroup(parse_group_spec("Z2xZ8"))
    r1, r2 = (relabel(z2z8, Permutation(rng.sample(range(16), 16))) for _ in range(2))
    key = canonical_key(r1)
    assert canonical_key(r2) == key
    assert canonical_key(subtraction_quasigroup(parse_group_spec("Z4xZ4"))) != key


def test_canonical_key_bound():
    with pytest.raises(OrderTooLarge):
        canonical_key(subtraction_quasigroup(parse_group_spec("Z17")))


# -- principal loop isotopes ------------------------------------------------------------------


def test_every_small_neumann_model_has_translation_autotopy_structure():
    """Not just the named instances: every labeled Neumann model up to order 5
    has n^2 * |Aut| autotopies, all of which decompose, and its automorphism
    group is the group's."""
    from quasilab import SearchOptions, builtin, find_all

    for n in range(1, 6):
        for q in find_all(SearchOptions(order=n, identities=(builtin("neumann"),))):
            g = recover_group(q)
            group_auts = automorphism_group(g)
            ats = autotopies(q)
            assert len(ats) == n * n * len(group_auts)
            for t in ats:
                decompose_autotopy(q, t, group=g)
            assert automorphisms(q) == group_auts


def test_every_small_subtraction_table_is_medial_bol_moufang():
    from quasilab import builtin, enumerate_abelian_groups, holds, subtraction_quasigroup

    medial = builtin("medial")
    for n in range(1, 9):
        for g in enumerate_abelian_groups(n):
            q = subtraction_quasigroup(g)
            assert holds(q, medial)
            assert check_left_bol(q)
            assert check_moufang(q)


def test_lp_isotopes_of_neumann_are_commutative_groups(z5_sub):
    for a in range(5):
        for b in range(5):
            loop = lp_isotope(z5_sub, a, b)
            u = loop.unit_predicates()
            assert u.is_loop and u.is_commutative and u.is_associative
            assert u.left_unit == z5_sub.mul(b, a)


# -- principal isotopes -----------------------------------------------------------


def _principal_isotope_sources() -> list[Quasigroup]:
    """The five Neumann instances, then one seeded Latin square of each order
    1 to 6, a random isotope of one of the first 64 squares of that order,
    redrawn from order 3 on until it is not Neumann."""
    out = [subtraction_quasigroup(parse_group_spec(spec)) for spec in NEUMANN_INSTANCES]
    rng = np.random.default_rng(25)
    for n in range(1, 7):
        squares = find_all(SearchOptions(order=n, limit=64))
        while True:
            t = squares[rng.integers(len(squares))].table
            rows, cols, symbols = (rng.permutation(n) for _ in range(3))
            q = Quasigroup(symbols[t[np.ix_(rows, cols)]])
            if n < 3 or not holds(q, builtin("neumann")):
                break
        out.append(q)
    return out


def test_principal_isotopes_are_the_isotopes_by_inverse_translations():
    for q in _principal_isotope_sources():
        n = q.order
        e = Permutation.identity(n)
        # the construction lp_isotope used: Rinv_a, Linv_b and the identity
        expected = np.array([q.isotope(q.right_translation(a).inverse(), q.left_translation(b).inverse(),
                                       e).table for a in range(n) for b in range(n)])
        a, b = np.divmod(np.arange(n * n), n)
        assert np.array_equal(structure._principal_isotopes(q, a, b), expected)
        grid = structure._principal_isotopes(q, np.arange(n)[:, None], np.arange(n))
        assert np.array_equal(grid, expected.reshape(n, n, n, n))
        for (x, y), t in zip(itertools.product(range(n), repeat=2), expected):
            assert np.array_equal(structure._principal_isotopes(q, x, y), t)
            assert np.array_equal(lp_isotope(q, x, y).table, t)


@pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (5, 0), (0, 5), (True, 0), (0, 1.0)])
def test_lp_isotope_refuses_an_element_outside_the_carrier(z5_sub, a, b):
    with pytest.raises(OutOfRange):
        lp_isotope(z5_sub, a, b)
