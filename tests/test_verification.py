import itertools
import json

import pytest

from quasilab import OrderTooLarge, Permutation, Quasigroup, quasigroup, run_verification, structure, verification
from quasilab.abelian import ENUMERATION_MAX_ORDER
from quasilab.cli import _analyze_report
from quasilab.verification import NEUMANN_INSTANCES, ClaimRecord
import sys

import numpy as np

from quasilab import OutOfRange, QuasilabError, abelian, builtin, cyclic, recover_group, subtraction_quasigroup
from oracles import all_latin_squares


EXPECTED_CLAIMS = {
    "T1", "T5", "T6", "T7_C1",
    "C3_1", "C3_2", "C3_3", "C3_4", "C3_5", "C3_6", "C3_7",
    "T10", "L1_T11", "T4", "G_NOTE",
}


def test_default_run_passes():
    report = run_verification()
    assert report.overall
    assert {r.claim_id for r in report.records} == EXPECTED_CLAIMS
    assert all(r.status == "pass" for r in report.records)
    t4 = next(r for r in report.records if r.claim_id == "T4")
    assert t4.detail == "checked 41 isomorphism classes (590 tables) at orders [2, 3, 4]"


def _count_calls(monkeypatch, name: str) -> list:
    """Patch ``structure.<name>`` to record the first argument of each call."""
    calls = []
    wrapped = getattr(structure, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(structure, name, counting)
    return calls


def test_default_run_and_analyze_build_no_autotopy_list(monkeypatch, z5_sub):
    # the claims and the CLI count and compare the cached image array;
    # only the public list functions turn it into Autotopy objects
    calls = _count_calls(monkeypatch, "_autotopy_list")
    assert run_verification().overall
    assert _analyze_report(z5_sub, None)["decomposition_ok"] is True
    assert calls == []


def _t4() -> ClaimRecord:
    # the census orders 2-4 need only max_order >= 2
    report = run_verification(max_order=2, max_autotopy_order=1, max_construction_order=1)
    return next(r for r in report.records if r.claim_id == "T4")


def test_t4_fails_when_orbits_do_not_cover_the_census(monkeypatch):
    count = structure.automorphism_count
    monkeypatch.setattr(structure, "automorphism_count",
                        lambda q, **kw: count(q, **kw) + (q.order == 4))
    t4 = _t4()
    assert t4.status == "fail"
    assert t4.detail.startswith("order 4: class orbits cover ")
    assert t4.detail.endswith(" tables, expected 576")


def test_t4_fails_when_a_class_is_missing(monkeypatch):
    search = verification.find_all

    def drop_last_order_3_class(opts, **kw):
        found = search(opts, **kw)
        return found[:-1] if opts.up_to_isomorphism and opts.order == 3 else found

    monkeypatch.setattr(verification, "find_all", drop_last_order_3_class)
    t4 = _t4()
    assert (t4.status, t4.detail) == ("fail", "order 3: 4 isomorphism classes, expected 5")


def test_t4_fails_on_a_nontrivial_witness_without_a_unit(monkeypatch):
    # claim a nontrivial pseudoautomorphism on both sides of every table;
    # the first class without a right unit is x*y = y - x mod 3 (left unit 0)
    def witness(q, side):
        return np.zeros(1, dtype=np.intp), np.array([[1, 0, *range(2, q.order)]])

    monkeypatch.setattr(structure, "_companion_thetas", witness)
    t4 = _t4()
    assert (t4.status, t4.detail) == (
        "fail", "order-3 table with nontrivial right pseudoautomorphism lacks a right unit")


def test_t7_fails_when_the_stack_search_drops_the_last_target(monkeypatch):
    # Z3 subtraction: each of the 9 principal isotopes P_ab matches P_00 in
    # |Aut| = 2 ways, so losing P_22 loses 2 of the 18 autotopies
    isomorphisms = quasigroup._Labeled.isomorphisms

    def drop_last(self, targets):
        which, rows = isomorphisms(self, targets)
        keep = which != len(targets) - 1
        return which[keep], rows[keep]

    structure._autotopy_group.cache_clear()
    monkeypatch.setattr(quasigroup._Labeled, "isomorphisms", drop_last)
    report = run_verification(max_order=1, max_autotopy_order=3, max_construction_order=1)
    structure._autotopy_group.cache_clear()      # drop the short group the patch built
    t7 = _record(report, "T7_C1")
    assert (t7.status, t7.detail) == ("fail", "Z3 subtraction: 16 autotopies, expected 18")


def test_cold_default_run_searches_one_stack_per_query_and_builds_no_witness(monkeypatch):
    # 5 autotopy groups, both sides of the 41 T4 classes and of the 5 G_NOTE
    # instances: one stack search each, read as arrays
    structure._autotopy_group.cache_clear()
    pseudo = _count_calls(monkeypatch, "pseudoautomorphisms")
    calls = {"isomorphisms": 0, "rows": 0}
    isomorphisms, rows = quasigroup._Labeled.isomorphisms, Permutation.rows.__func__

    def counted_isomorphisms(self, targets):
        calls["isomorphisms"] += 1
        return isomorphisms(self, targets)

    def counted_rows(cls, images):
        calls["rows"] += 1
        return rows(cls, images)

    monkeypatch.setattr(quasigroup._Labeled, "isomorphisms", counted_isomorphisms)
    monkeypatch.setattr(Permutation, "rows", classmethod(counted_rows))
    callers = []
    unit_predicates = Quasigroup.unit_predicates

    def recording(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return unit_predicates(self)

    monkeypatch.setattr(Quasigroup, "unit_predicates", recording)
    assert run_verification().overall
    assert pseudo == [] and calls["rows"] == 0
    assert callers == ["c3_1"] * len(NEUMANN_INSTANCES)
    assert calls["isomorphisms"] <= len(NEUMANN_INSTANCES) + 2 * 41 + 2 * len(NEUMANN_INSTANCES)


def test_default_run_builds_each_instance_group_once(monkeypatch):
    # T7_C1 compares the autotopy array with one built group per instance;
    # no claim factors the autotopies one at a time
    decomposed = _count_calls(monkeypatch, "decompose_autotopy")
    built = _count_calls(monkeypatch, "_subtraction_images")
    assert run_verification().overall
    assert decomposed == []
    # Z3, Z4, Z2xZ2, Z5 and Z6
    assert [g.order for g in built] == [3, 4, 4, 5, 6]


def test_t7_fails_on_an_autotopy_outside_the_built_group(forged_autotopies):
    report = run_verification(max_order=1, max_autotopy_order=3, max_construction_order=1)
    t7 = next(r for r in report.records if r.claim_id == "T7_C1")
    assert (t7.status, t7.detail) == (
        "fail", "Z3 subtraction: autotopies are not the (L+_a, L+_(-b), L+_(a+b)).theta")


def test_instance_catalog():
    assert NEUMANN_INSTANCES == ("Z3", "Z4", "Z2xZ2", "Z5", "Z6")


def test_report_is_deterministic():
    a = run_verification(max_order=2, max_autotopy_order=4, max_construction_order=4)
    b = run_verification(max_order=2, max_autotopy_order=4, max_construction_order=4)
    assert a.to_text() == b.to_text()
    assert a.to_json() == b.to_json()


def test_json_schema():
    report = run_verification(max_order=2, max_autotopy_order=2, max_construction_order=2)
    payload = json.loads(report.to_json())
    assert payload["schema"] == 1
    assert payload["overall"] == report.overall
    for record in payload["claims"]:
        assert set(record) == {"claim_id", "anchor", "orders_tested", "status", "detail"}


@pytest.mark.parametrize("order", range(3, 7))
def test_mutation_hook_breaks_t6_for_every_pair_of_rows(order):
    # the swap reaches the tables of orders above its larger row, order 3 at least
    for rows in itertools.combinations(range(order), 2):
        report = run_verification(max_order=0, max_autotopy_order=0,
                                  max_construction_order=order, mutate_rows=rows)
        assert _record(report, "T6").status == "fail", rows


def test_mutation_hook_breaks_t6():
    report = run_verification(
        max_order=2, max_autotopy_order=3, max_construction_order=4, mutate_rows=(0, 1)
    )
    assert not report.overall
    failed = {r.claim_id for r in report.records if r.status == "fail"}
    assert "T6" in failed


def test_small_bounds_skip_instead_of_fail():
    report = run_verification(max_order=1, max_autotopy_order=1, max_construction_order=1)
    assert report.overall
    statuses = {r.claim_id: r.status for r in report.records}
    assert statuses["T4"] == "skipped"          # census needs order >= 2
    assert statuses["T7_C1"] == "skipped"       # no instances fit order <= 1
    assert statuses["T1"] == "pass"


@pytest.mark.parametrize("max_order", [0, -1])
def test_no_search_orders_skip_the_search_claims(max_order):
    report = run_verification(max_order=max_order, max_autotopy_order=1, max_construction_order=1)
    statuses = {r.claim_id: r.status for r in report.records}
    assert [statuses[c] for c in ("T1", "T5", "T10")] == ["skipped"] * 3


def test_t6_is_skipped_only_when_it_has_nothing_to_test():
    report = run_verification(max_order=0, max_autotopy_order=1, max_construction_order=0)
    t6 = next(r for r in report.records if r.claim_id == "T6")
    assert (t6.status, t6.orders_tested) == ("skipped", ())
    # Neumann models alone, or constructed tables alone, are something to test
    for max_order, construction in ((1, 0), (0, 1)):
        report = run_verification(max_order=max_order, max_autotopy_order=1,
                                  max_construction_order=construction)
        assert next(r for r in report.records if r.claim_id == "T6").status == "pass"


def test_law_claim_failure_names_law_and_witness(monkeypatch):
    # with the addition table of Z3 as the instance, the core is 2x + y,
    # which fails left distributivity first at (x, y, z) = (1, 0, 0)
    monkeypatch.setattr(verification, "subtraction_quasigroup",
                        lambda g: Quasigroup(g.table, label=f"{g.label} addition"))
    report = run_verification(max_order=1, max_autotopy_order=3, max_construction_order=1)
    c3_6 = next(r for r in report.records if r.claim_id == "C3_6")
    assert c3_6.status == "fail"
    assert c3_6.detail == "Z3 addition: core_left_distributive fails at (1, 0, 0)"


def test_claim_orders_are_the_search_bound(monkeypatch):
    # the env bound is the default for find_all, not a cap on the claim orders
    monkeypatch.setenv("QUASILAB_MAX_ORDER", "2")
    report = run_verification(max_order=3, max_autotopy_order=3, max_construction_order=3)
    assert [r.claim_id for r in report.records if r.status != "pass"] == []


def test_construction_order_above_enumeration_bound_raises():
    with pytest.raises(OrderTooLarge):
        run_verification(max_order=1, max_autotopy_order=1,
                         max_construction_order=ENUMERATION_MAX_ORDER + 1)


def test_mutation_hook_refuses_construction_orders_below_3():
    # the one table it would swap, x - y over Z2, stays Neumann under a row swap
    for order in (2, 1):
        with pytest.raises(OutOfRange):
            run_verification(max_order=1, max_autotopy_order=1, max_construction_order=order, mutate_rows=(0, 1))
    with pytest.raises(OutOfRange, match="at least 3"):
        run_verification(max_order=1, max_autotopy_order=1, max_construction_order=2, mutate_rows=(0, 1))
    report = run_verification(max_order=1, max_autotopy_order=1, max_construction_order=3, mutate_rows=(0, 1))
    assert {r.claim_id: r.status for r in report.records}["T6"] == "fail"


def _record(report, claim_id: str) -> ClaimRecord:
    return next(r for r in report.records if r.claim_id == claim_id)


def test_default_run_checks_c3_2_and_t5_without_lp_isotope_or_unit_predicates(monkeypatch):
    isotopes = _count_calls(monkeypatch, "lp_isotope")
    callers = []
    unit_predicates = Quasigroup.unit_predicates

    def recording(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return unit_predicates(self)

    monkeypatch.setattr(Quasigroup, "unit_predicates", recording)
    assert run_verification().overall
    assert isotopes == []
    assert callers and not {"c3_2", "t5"} & set(callers)


def test_c3_2_names_the_first_principal_isotope_in_c_order_that_is_not_a_group(monkeypatch):
    principal_isotopes = structure._principal_isotopes

    def with_two_broken(q, a, b):
        stack = principal_isotopes(q, a, b)
        if np.ndim(a) == 1 and q.order == 4:
            stack = stack.copy()
            for i in (3 * 4 + 0, 2 * 4 + 3):        # (a=3, b=0), then (a=2, b=3)
                stack[i, [0, 1]] = stack[i, [1, 0]]      # no two-sided unit is left
        return stack

    monkeypatch.setattr(structure, "_principal_isotopes", with_two_broken)
    report = run_verification(max_order=1, max_autotopy_order=4, max_construction_order=1)
    c3_2 = _record(report, "C3_2")
    assert c3_2.status == "fail"
    assert c3_2.detail == "Z4 subtraction: principal isotope at (a=2, b=3) is not a commutative group"


def _with_eq5_models(monkeypatch, order: int, extra: list) -> None:
    """Patch the suite's search so that the eq5 models of ``order`` are ``extra``."""
    find_all = verification.find_all

    def patched(opts, max_order=None):
        if opts.order == order and opts.identities == (builtin("eq5"),):
            return list(extra)
        return find_all(opts, max_order=max_order)

    monkeypatch.setattr(verification, "find_all", patched)


def test_t5_names_the_order_of_an_eq5_model_that_is_not_an_abelian_group(monkeypatch):
    _with_eq5_models(monkeypatch, 3, [Quasigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
                                      subtraction_quasigroup(cyclic(3))])
    t5 = _record(run_verification(max_order=4, max_autotopy_order=1, max_construction_order=1), "T5")
    assert t5.status == "fail"
    assert t5.detail == "order-3 eq5 model is not an abelian group"


def test_t5_passes_an_order_with_no_eq5_model(monkeypatch):
    _with_eq5_models(monkeypatch, 2, [])
    t5 = _record(run_verification(max_order=3, max_autotopy_order=1, max_construction_order=1), "T5")
    assert t5.status == "pass"
    assert t5.detail.startswith("all 4 eq5 models are abelian groups")     # 1 at order 1, 3 at order 3


def test_default_run_compares_model_stacks_without_parastrophe_or_key(monkeypatch):
    calls = []      # (method, calling function)

    def recording(name):
        method = getattr(Quasigroup, name)

        def wrapped(self, *args, **kwargs):
            calls.append((name, sys._getframe(1).f_code.co_name))
            return method(self, *args, **kwargs)
        return wrapped

    for name in ("__init__", "parastrophe", "key"):
        monkeypatch.setattr(Quasigroup, name, recording(name))
    assert run_verification().overall
    assert not [c for c in calls if c[0] == "parastrophe"]
    assert len([c for c in calls if c[0] == "__init__"]) <= 45
    assert not {"t1", "t10", "<setcomp>"} & {caller for name, caller in calls if name == "key"}


def _with_model_lists(monkeypatch, edit) -> None:
    """Patch the suite's search so that each model list is ``edit(opts, list)``."""
    find_all = verification.find_all

    def patched(opts, max_order=None):
        return edit(opts, find_all(opts, max_order=max_order))

    monkeypatch.setattr(verification, "find_all", patched)


def test_t1_and_t10_fail_when_a_neumann_model_is_missing(monkeypatch):
    neumann = (builtin("neumann"),)
    _with_model_lists(monkeypatch, lambda opts, found:
                      found[:-1] if opts.order == 3 and opts.identities == neumann else found)
    report = run_verification(max_order=3, max_autotopy_order=1, max_construction_order=1)
    t1, t10 = _record(report, "T1"), _record(report, "T10")
    assert (t1.status, t1.detail) == ("fail", "(13)-parastrophe image differs from Neumann models at order 3")
    assert (t10.status, t10.detail) == ("fail", "model sets differ at order 3")


def test_t1_t5_and_t10_pass_on_reversed_model_lists(monkeypatch):
    _with_model_lists(monkeypatch, lambda opts, found: found[::-1])
    report = run_verification(max_order=4, max_autotopy_order=1, max_construction_order=1)
    assert [_record(report, c).status for c in ("T1", "T5", "T10")] == ["pass"] * 3


def test_t6_names_the_sorted_index_of_a_neumann_model_that_is_not_x_minus_y(monkeypatch):
    # the Z3 addition table sorts first among the order-3 models; its
    # (13)-parastrophe x - y has no two-sided unit
    z3_add = Quasigroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    neumann = (builtin("neumann"),)
    _with_model_lists(monkeypatch, lambda opts, found:
                      found + [z3_add] if opts.order == 3 and opts.identities == neumann else found)
    t6 = _record(run_verification(max_order=3, max_autotopy_order=1, max_construction_order=1), "T6")
    assert (t6.status, t6.detail) == ("fail", "order-3 Neumann model 0 is not x - y over an abelian group")


def test_parastrophe_group_test_is_recover_group_on_every_square_to_order_4():
    for n in range(1, 5):
        squares = np.array(all_latin_squares(n), dtype=np.int64).reshape(-1, n, n)
        recovered = []
        for t in squares:
            try:
                recover_group(Quasigroup(t))
                recovered.append(True)
            except QuasilabError:
                recovered.append(False)
        mask = abelian._abelian_in_each(quasigroup._parastrophes(squares, "(13)"))
        assert mask.tolist() == recovered


def test_default_run_recovers_only_the_instance_groups(monkeypatch):
    # T6 reads x - y off each stack's (13)-parastrophe; only the instances'
    # shared group_of recovers a group
    orders = []
    recover = verification.recover_group

    def counting(q):
        orders.append(q.order)
        return recover(q)

    monkeypatch.setattr(verification, "recover_group", counting)
    assert run_verification().overall
    assert orders == [3, 4, 4, 5, 6]
