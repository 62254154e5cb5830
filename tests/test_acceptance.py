"""Acceptance suite: each test is one exit criterion, exhaustive at desk
scale with zero tolerance, and prints its own pass/fail line (visible with
``pytest -s`` or ``-v``)."""

import itertools

import numpy as np
import pytest

from quasilab import (
    Quasigroup,
    QuasilabError,
    SearchOptions,
    automorphism_group,
    automorphisms,
    autotopies,
    builtin,
    check_left_bol,
    check_moufang,
    component_transitive,
    core_distributive,
    count,
    decompose_autotopy,
    enumerate_abelian_groups,
    equivalence_report,
    find_all,
    holds,
    nucleus,
    parse_group_spec,
    pseudoautomorphisms,
    recover_group,
    subtraction_quasigroup,
    two_torsion,
)
from oracles import all_latin_squares, holds_bruteforce, naive_autotopies

ORDERS = (1, 2, 3, 4, 5)
INSTANCE_SPECS = ("Z3", "Z4", "Z5", "Z6", "Z2xZ2")


def _report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def models():
    out = {}
    for name in ("neumann", "schweizer", "eq5"):
        for n in ORDERS:
            out[name, n] = find_all(SearchOptions(order=n, identities=(builtin(name),)))
    return out


@pytest.fixture(scope="module")
def instances():
    return [subtraction_quasigroup(parse_group_spec(spec)) for spec in INSTANCE_SPECS]


def test_criterion_01_schweizer_neumann_equivalence():
    ok = True
    for n in ORDERS:
        rep = equivalence_report(n, builtin("neumann"), builtin("schweizer"))
        ok = ok and rep.same_models and rep.only_id1 == 0 and rep.only_id2 == 0
    _report(1, "Schweizer <-> Neumann model sets at orders 1..5", ok)


def test_criterion_02_representation_both_directions(models):
    ok = True
    for n in ORDERS:
        for q in models["neumann", n]:
            try:
                recover_group(q)
            except QuasilabError:
                ok = False
    neumann = builtin("neumann")
    for n in range(1, 9):
        for g in enumerate_abelian_groups(n):
            ok = ok and holds(subtraction_quasigroup(g), neumann)
    _report(2, "Neumann models recover groups; x - y tables are Neumann", ok)


def test_criterion_03_eq5_models_are_abelian_groups(models):
    ok = True
    for n in ORDERS:
        for q in models["eq5", n]:
            u = q.unit_predicates()
            ok = ok and u.is_commutative and u.is_associative and u.is_loop
    _report(3, "eq5 models are abelian groups at orders 1..5", ok)


def test_criterion_04_parastrophe_bijection(models):
    ok = True
    for n in ORDERS:
        eq5_keys = {q.key() for q in models["eq5", n]}
        neumann_keys = {q.key() for q in models["neumann", n]}
        image = {q.parastrophe("(13)").key() for q in models["eq5", n]}
        preimage = {q.parastrophe("(13)").key() for q in models["neumann", n]}
        ok = ok and image == neumann_keys and preimage == eq5_keys
    _report(4, "(13)-parastrophe maps eq5 models onto Neumann models", ok)


def test_criterion_05_autotopy_counts_and_decomposition(instances):
    ok = True
    for q in instances:
        n = q.order
        g = recover_group(q)
        group_auts = automorphism_group(g)
        ats = autotopies(q)
        ok = ok and len(ats) == n * n * len(group_auts)
        if q.label.startswith("Z5"):
            ok = ok and len(ats) == 100
        if q.label.startswith("Z4"):
            ok = ok and len(ats) == 32
        seen = set()
        for t in ats:
            try:
                d = decompose_autotopy(q, t, group=g)
            except QuasilabError:
                ok = False
                break
            seen.add((d.a, d.b, d.theta.image))
        ok = ok and len(seen) == len(ats)
        ok = ok and set(automorphisms(q)) == set(group_auts)
        # independent oracle at order <= 4: all-triples scan
        if n <= 4:
            fast = {(t.alpha.image, t.beta.image, t.gamma.image) for t in ats}
            ok = ok and fast == naive_autotopies(q.to_lists())
    _report(5, "|autotopies| = n^2|Aut|, all decompose, Aut(Q,*) = Aut(Q,+)", ok)


def test_criterion_06_structural_property_suite(instances):
    expected_nuclei = {
        "Z3": {0},
        "Z4": {0, 2},
        "Z5": {0},
        "Z6": {0, 3},
        "Z2xZ2": {0, 1, 2, 3},
    }
    medial = builtin("medial")
    ok = True
    for spec, q in zip(INSTANCE_SPECS, instances):
        u = q.unit_predicates()
        g = recover_group(q)
        exponent_two = bool((g.neg == np.arange(q.order)).all())
        ok = ok and u.is_unipotent
        ok = ok and u.right_unit is not None
        ok = ok and (u.left_unit is not None) == exponent_two
        ok = ok and holds(q, medial)
        ok = ok and check_left_bol(q)
        ok = ok and check_moufang(q)
        dist = core_distributive(q)
        ok = ok and dist.left and dist.right
        nuc = nucleus(q, "right")
        ok = ok and nuc == expected_nuclei[spec] == two_torsion(g)
    _report(6, "unipotent/right unit/medial/Bol/Moufang/core/nucleus suite", ok)


def test_criterion_07_a_pseudoautomorphism_conditions(instances):
    ok = True
    for q in instances:
        if not (3 <= q.order <= 6):
            continue
        g = recover_group(q)
        ats = autotopies(q)
        right = [t for t in ats if t.beta == t.gamma]
        left = [t for t in ats if t.alpha == t.gamma]
        want_right, want_left = set(), set()
        for t in ats:
            d = decompose_autotopy(q, t, group=g)
            if d.a == g.negate(g.add(d.b, d.b)):
                want_right.add(t.sort_key())
            if d.b == g.zero:
                want_left.add(t.sort_key())
        ok = ok and {t.sort_key() for t in right} == want_right
        ok = ok and {t.sort_key() for t in left} == want_left
        ok = ok and component_transitive(right, 3)
        ok = ok and component_transitive(left, 3)
    _report(7, "beta=gamma <-> a=-2b, alpha=gamma <-> b=0, GA transitivity", ok)


def test_criterion_08_pseudoautomorphism_forces_unit():
    ok = True
    for n in (2, 3, 4):
        for q in find_all(SearchOptions(order=n)):
            profile = q.unit_predicates()
            for side, unit in (("right", profile.right_unit), ("left", profile.left_unit)):
                witnesses = pseudoautomorphisms(q, side)
                if any(not w.theta.is_identity() for w in witnesses):
                    ok = ok and unit is not None
    _report(8, "nontrivial one-sided pseudoautomorphism forces that unit (full census 2..4)", ok)


def test_criterion_09_search_engine_oracle_equivalence():
    ok = count(SearchOptions(order=4)) == 576
    squares = {n: all_latin_squares(n) for n in (1, 2, 3, 4)}
    for name in ("neumann", "schweizer", "eq5", "eq5_parastrophe", "medial",
                 "commutative", "associative", "unipotent", "schweizer_swapped"):
        ident = builtin(name)
        for n in (1, 2, 3, 4):
            fast = {q.key() for q in find_all(SearchOptions(order=n, identities=(ident,)))}
            naive = {
                Quasigroup([list(r) for r in sq]).key()
                for sq in squares[n]
                if holds_bruteforce([list(r) for r in sq], ident)
            }
            ok = ok and fast == naive
    _report(9, "propagating search equals naive Latin-square filter; census(4) = 576", ok)


def _neumann_checks_pass(q: Quasigroup) -> bool:
    """The criterion 2/5/6 checks specialized to one order-5 table."""
    try:
        g = recover_group(q)
    except QuasilabError:
        return False
    ats = autotopies(q)
    if len(ats) != 100:
        return False
    try:
        for t in ats:
            decompose_autotopy(q, t, group=g)
    except QuasilabError:
        return False
    u = q.unit_predicates()
    if not (u.is_unipotent and u.right_unit is not None):
        return False
    if not holds(q, builtin("medial")):
        return False
    if not (check_left_bol(q) and check_moufang(q)):
        return False
    dist = core_distributive(q)
    if not (dist.left and dist.right):
        return False
    return nucleus(q, "right") == two_torsion(g)


def test_criterion_10_mutation_sensitivity():
    """Flipping any cell of the Z5 subtraction table, repaired to stay Latin,
    must break the suite.  Setting cell (r, c) to v' and repairing means
    swapping row r with the unique row holding v' in column c, so the 10 row
    swaps cover every possible single-cell flip."""
    base = subtraction_quasigroup(parse_group_spec("Z5"))
    ok = _neumann_checks_pass(base)          # the unmutated table must pass
    for r1, r2 in itertools.combinations(range(5), 2):
        t = base.table.copy()
        t[[r1, r2]] = t[[r2, r1]]
        mutant = Quasigroup(t)
        ok = ok and not _neumann_checks_pass(mutant)
    _report(10, "every repaired single-cell mutation of Z5 subtraction is caught", ok)
