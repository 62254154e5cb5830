import json

import pytest

from quasilab import OrderTooLarge, Quasigroup, run_verification, structure, verification
from quasilab.abelian import ENUMERATION_MAX_ORDER
from quasilab.verification import NEUMANN_INSTANCES


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


def test_default_run_lists_autotopies_once_per_instance_and_claim(monkeypatch):
    # T7_C1 and L1_T11 each list the autotopies of every instance once;
    # pseudoautomorphisms and the G profile must not list them at all
    calls = []
    listed = structure.autotopies

    def counting(*args, **kwargs):
        calls.append(args[0])
        return listed(*args, **kwargs)

    monkeypatch.setattr(structure, "autotopies", counting)
    assert run_verification().overall
    assert len(calls) <= 2 * len(NEUMANN_INSTANCES)


def test_default_run_decomposes_each_autotopy_once(monkeypatch):
    # T7_C1 and L1_T11 share one decomposition per autotopy of each instance
    calls = []
    decompose = structure.decompose_autotopy

    def counting(*args, **kwargs):
        calls.append(args[1])
        return decompose(*args, **kwargs)

    monkeypatch.setattr(structure, "decompose_autotopy", counting)
    assert run_verification().overall
    # n^2 * |Aut| over Z3, Z4, Z2xZ2, Z5 and Z6
    assert len(calls) == 18 + 32 + 96 + 100 + 72


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
