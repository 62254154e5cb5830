"""One-shot verification suite for the structural claims the library is built on.

Each claim is checked exhaustively at desk scale (model enumeration to order
5, autotopy analysis to order 6, constructions to order 8 by default) and
reported as an independent record, so a failure localizes to one statement.
T1, T5, T6 and T10 test each order's models as one sorted (m, n, n) stack;
T6 reads x - y off the (13)-parastrophe, which is the hidden abelian group.
The claim catalog (ids T1, T5, T6, T7_C1, C3_1..C3_7, T10, L1_T11, T4,
G_NOTE) is documented in the README.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from . import structure
from .abelian import (
    ENUMERATION_MAX_ORDER,
    _abelian_in_each,
    enumerate_abelian_groups,
    recover_group,
    subtraction_quasigroup,
    two_torsion,
)
from .errors import OrderTooLarge, OutOfRange, QuasilabError
from .identities import _first_violation, _holds_in_each, builtin
from .quasigroup import Quasigroup, _lex_sorted, _parastrophes, _units
from .search import SearchOptions, find_all
from .tables import parse_group_spec

__all__ = ["ClaimRecord", "VerificationReport", "run_verification", "NEUMANN_INSTANCES"]

NEUMANN_INSTANCES = ("Z3", "Z4", "Z2xZ2", "Z5", "Z6")


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    anchor: str
    orders_tested: tuple[int, ...]
    status: str              # pass | fail | skipped
    detail: str


@dataclass
class VerificationReport:
    records: list[ClaimRecord] = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "claims": [
                {
                    "claim_id": r.claim_id,
                    "anchor": r.anchor,
                    "orders_tested": list(r.orders_tested),
                    "status": r.status,
                    "detail": r.detail,
                }
                for r in self.records
            ],
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        wid = max(len(r.claim_id) for r in self.records) if self.records else 8
        for r in self.records:
            orders = ",".join(str(o) for o in r.orders_tested) or "-"
            lines.append(f"{r.claim_id:<{wid}}  {r.status:<7}  orders {orders:<12}  {r.detail}")
        n_fail = sum(r.status == "fail" for r in self.records)
        n_skip = sum(r.status == "skipped" for r in self.records)
        verdict = "PASS" if self.overall else "FAIL"
        lines.append(
            f"overall: {verdict} ({len(self.records)} claims, {n_fail} failed, {n_skip} skipped)"
        )
        return "\n".join(lines) + "\n"


def run_verification(
    max_order: int = 5,
    max_autotopy_order: int = 6,
    max_construction_order: int = 8,
    mutate_rows: Optional[tuple[int, int]] = None,
) -> VerificationReport:
    """Run every claim and collect a report.

    ``mutate_rows`` is a testing hook: it swaps the given rows in every
    constructed subtraction table large enough to have both before the T6
    checks, which must make the suite fail (demonstrating it is not
    vacuous).  Raises :class:`OutOfRange` unless the rows are distinct and
    below ``max_construction_order``, since any other pair changes no table,
    and unless ``max_construction_order`` is at least 3, since below it the
    one table swapped, x - y over Z2, stays Neumann.
    Raises :class:`OrderTooLarge` if ``max_construction_order`` is above the
    abelian-group enumeration bound, before any claim runs.
    """
    if max_construction_order > ENUMERATION_MAX_ORDER:
        raise OrderTooLarge(f"construction order {max_construction_order} above "
                            f"enumeration bound {ENUMERATION_MAX_ORDER}")
    if mutate_rows is not None and (
        mutate_rows[0] == mutate_rows[1] or max(mutate_rows) >= max_construction_order
    ):
        raise OutOfRange(f"rows to swap must be two distinct rows below the construction "
                         f"order {max_construction_order}, got {mutate_rows}")
    if mutate_rows is not None and max_construction_order < 3:
        raise OutOfRange(f"rows to swap need a construction order of at least 3, got "
                         f"{max_construction_order}: a row swap keeps x - y over Z2 Neumann")
    report = VerificationReport()
    neumann = builtin("neumann")

    @functools.cache
    def models(name: str, n: int) -> np.ndarray:
        """The order-n models of a catalog identity as a sorted int64 (m, n, n) stack."""
        found = find_all(SearchOptions(order=n, identities=(builtin(name),)), max_order=max_order)
        return _lex_sorted(np.array([q.table for q in found], dtype=np.int64).reshape(-1, n, n))

    instances: list[Quasigroup] = []
    for spec in NEUMANN_INSTANCES:
        g = parse_group_spec(spec)
        if g.order <= max_autotopy_order:
            instances.append(subtraction_quasigroup(g))
    instance_orders = tuple(sorted({q.order for q in instances}))

    # Per-instance structure shared by the claims below; a failure raises
    # again inside every claim that asks, as a fresh computation would.
    group_of = functools.cache(recover_group)

    def claim(claim_id: str, anchor: str, orders: tuple[int, ...],
              fn: Callable[[], str], vacuous: bool = False) -> None:
        if vacuous:
            report.records.append(ClaimRecord(claim_id, anchor, orders, "skipped", "nothing to test under these bounds"))
            return
        try:
            detail = fn()
            status = "pass"
        except (QuasilabError, AssertionError) as exc:
            detail = str(exc) or exc.__class__.__name__
            status = "fail"
        report.records.append(ClaimRecord(claim_id, anchor, orders, status, detail))

    search_orders = tuple(range(1, max_order + 1))

    # T1 -- parastrophe transfer
    def t1() -> str:
        counts = []
        for n in search_orders:
            eq5, neu = models("eq5", n), models("neumann", n)
            assert np.array_equal(_lex_sorted(_parastrophes(eq5, "(13)")), neu), \
                f"(13)-parastrophe image differs from Neumann models at order {n}"
            assert np.array_equal(_lex_sorted(_parastrophes(neu, "(13)")), eq5), \
                f"reverse direction differs at order {n}"
            counts.append(len(neu))
        return f"(13)-parastrophe is a bijection between eq5 and Neumann models; counts {counts}"

    claim("T1", "models of (x*y)*z = y*(z*x) map onto Neumann models under the (13)-parastrophe",
          search_orders, t1, vacuous=not search_orders)

    # T5 -- eq5 forces an abelian group
    def t5() -> str:
        total = 0
        for n in search_orders:
            tables = models("eq5", n)
            assert _abelian_in_each(tables).all(), f"order-{n} eq5 model is not an abelian group"
            total += len(tables)
        return f"all {total} eq5 models are abelian groups (commutative, associative, two-sided unit)"

    claim("T5", "every finite model of (x*y)*z = y*(z*x) is an abelian group", search_orders, t5,
          vacuous=not search_orders)

    # T6 -- subtraction representation, both directions: if the (13)-parastrophe P
    # of q is an abelian group, q(a + b, b) = a, so q = x - y; if q = x - y, P is +.
    def t6() -> str:
        recovered = 0
        for n in search_orders:
            ok = _abelian_in_each(_parastrophes(models("neumann", n), "(13)"))
            assert ok.all(), f"order-{n} Neumann model {np.argmin(ok)} is not x - y over an abelian group"
            recovered += len(ok)
        built = 0
        for n in range(1, max_construction_order + 1):
            groups = enumerate_abelian_groups(n)
            stack = np.array([subtraction_quasigroup(g).table for g in groups])
            if mutate_rows is not None and max(mutate_rows) < n:
                stack[:, list(mutate_rows)] = stack[:, list(mutate_rows[::-1])]
            ok = _holds_in_each(stack, neumann)
            assert ok.all(), f"x - y over {groups[np.argmin(ok)].label} fails the Neumann identity"
            ok = _abelian_in_each(_parastrophes(stack, "(13)"))
            assert ok.all(), f"x - y over {groups[np.argmin(ok)].label} does not recover an abelian group"
            built += len(groups)
        return (f"{recovered} Neumann models recover their abelian group; "
                f"{built} subtraction tables (orders <= {max_construction_order}) satisfy Neumann")

    claim("T6", "Neumann quasigroups are exactly the x - y quasigroups of abelian groups",
          tuple(range(1, max(max_order, max_construction_order) + 1)), t6,
          vacuous=not search_orders and max_construction_order < 1)

    # T7 + C1 -- autotopy group size, bijective decomposition, automorphism equality
    def t7() -> str:
        parts = []
        for q in instances:
            g = group_of(q)
            images = structure._autotopy_images(q, max_autotopy_order)
            expect = q.order ** 2 * len(g.labeled.images)
            assert len(images) == expect, f"{q.label}: {len(images)} autotopies, expected {expect}"
            assert np.array_equal(images, structure._subtraction_images(g)), \
                f"{q.label}: autotopies are not the (L+_a, L+_(-b), L+_(a+b)).theta"
            assert np.array_equal(q.labeled.images, g.labeled.images), f"{q.label}: Aut(Q,*) differs from Aut(Q,+)"
            parts.append(f"{q.label.split()[0]}:{len(images)}")
        return "autotopy counts n^2*|Aut| with bijective decompositions: " + " ".join(parts)

    claim("T7_C1", "autotopies factor as (L+_a, L+_(-b), L+_(a+b)).theta; Aut(Q,*) = Aut(Q,+)",
          instance_orders, t7, vacuous=not instances)

    # C3 -- the property suite, one record per item
    def c3_1() -> str:
        for q in instances:
            u = q.unit_predicates()
            assert u.is_unipotent, f"{q.label} is not unipotent"
            assert u.right_unit is not None, f"{q.label} has no right unit"
            assert (u.left_unit is not None) == (len(two_torsion(group_of(q))) == q.order), \
                f"{q.label}: left unit iff exponent 2 violated"
        return "all instances unipotent with right unit; left unit exactly for exponent 2"

    claim("C3_1", "Neumann quasigroups are unipotent and have a right unit", instance_orders,
          c3_1, vacuous=not instances)

    def c3_2() -> str:
        checked = 0
        for q in instances:
            a, b = np.divmod(np.arange(q.order ** 2), q.order)    # (a, b) in C order
            ok = _abelian_in_each(structure._principal_isotopes(q, a, b))
            assert ok.all(), f"{q.label}: principal isotope at (a={a[~ok][0]}, b={b[~ok][0]}) is not a commutative group"
            checked += len(ok)
        return f"all {checked} principal loop isotopes are commutative groups"

    claim("C3_2", "every loop isotope of a Neumann quasigroup is a commutative group",
          instance_orders, c3_2, vacuous=not instances)

    # C3_3..C3_6 -- catalog laws, each checked on every instance
    for claim_id, anchor, laws, passed in (
        ("C3_3", "Neumann quasigroups are medial", ("medial",),
         "medial identity holds on all instances"),
        ("C3_4", "Neumann quasigroups are left Bol", ("left_bol",),
         "left Bol law (with local right units e_x) holds on all instances"),
        ("C3_5", "Neumann quasigroups are Moufang", ("moufang",),
         "Moufang law (with local left units f_x) holds on all instances"),
        ("C3_6", "the core of a Neumann quasigroup is a distributive groupoid",
         ("core_left_distributive", "core_right_distributive"),
         "core x o y = x*(y*x) satisfies both distributive laws"),
    ):
        def c3_law() -> str:  # claim() calls it before the next iteration rebinds laws
            for q in instances:
                for law in laws:
                    bad = _first_violation(q, builtin(law))
                    assert bad is None, f"{q.label}: {law} fails at {bad}"
            return passed

        claim(claim_id, anchor, instance_orders, c3_law, vacuous=not instances)

    def c3_7() -> str:
        parts = []
        for q in instances:
            nuc = structure.nucleus(q, "right")
            tor = two_torsion(group_of(q))
            assert nuc == tor, f"{q.label}: right nucleus {sorted(nuc)} != 2-torsion {sorted(tor)}"
            parts.append(f"{q.label.split()[0]}:{sorted(nuc)}")
        return "right nucleus equals the 2-torsion of the group: " + " ".join(parts)

    claim("C3_7", "the right nucleus consists of the elements with a = -a",
          instance_orders, c3_7, vacuous=not instances)

    # T10 -- Schweizer <-> Neumann
    def t10() -> str:
        counts = []
        for n in search_orders:
            neu = models("neumann", n)
            assert np.array_equal(models("schweizer", n), neu), f"model sets differ at order {n}"
            counts.append(len(neu))
        return f"Schweizer and Neumann model sets coincide; counts {counts}"

    claim("T10", "the Schweizer identity yz*yx = xz and the Neumann identity have the same models",
          search_orders, t10, vacuous=not search_orders)

    # L1 + T11 -- A-pseudoautomorphism filters and GA transitivity
    def l1_t11() -> str:
        tested = []
        for q in instances:
            g = group_of(q)
            images = structure._autotopy_images(q, max_autotopy_order)
            a, nb = images[:, 0, g.zero], images[:, 1, g.zero]    # a = alpha(0) and -b = beta(0)
            assert np.array_equal((images[:, 1] == images[:, 2]).all(axis=1), a == g.table[nb, nb]), \
                f"{q.label}: beta=gamma filter differs from a = -2b"
            assert np.array_equal((images[:, 0] == images[:, 2]).all(axis=1), nb == g.zero), \
                f"{q.label}: alpha=gamma filter differs from b = 0"
            ga = structure.is_ga(q, max_order=max_autotopy_order)
            assert ga.right_ga, f"{q.label}: right side not transitive"
            assert ga.left_ga, f"{q.label}: left side not transitive"
            tested.append(q.order)
        return f"filters match a = -2b and b = 0; third components transitive (orders {sorted(tested)})"

    claim("L1_T11", "A-pseudoautomorphisms are the a = -2b (right) and b = 0 (left) autotopies; "
                    "their third components act transitively (GA)",
          instance_orders, l1_t11, vacuous=not instances)

    # T4 -- nontrivial pseudoautomorphism forces a one-sided unit
    census_orders = tuple(range(2, 5)) if max_order >= 2 else ()
    # isomorphism classes and labeled tables of the Latin squares of each
    # order (McKay-Meynert-Myrvold, J. Combin. Des. 15, 2007; OEIS A002860)
    census_counts = {2: (1, 2), 3: (5, 12), 4: (35, 576)}

    def t4() -> str:
        classes = tables = 0
        for n in census_orders:
            reps = find_all(SearchOptions(order=n, up_to_isomorphism=True), max_order=4)
            want_classes, want_tables = census_counts[n]
            assert len(reps) == want_classes, \
                f"order {n}: {len(reps)} isomorphism classes, expected {want_classes}"
            # orbit formula: the class of Q holds n!/|Aut(Q)| labeled tables
            labeled = sum(Fraction(math.factorial(n), structure.automorphism_count(q)) for q in reps)
            assert labeled == want_tables, \
                f"order {n}: class orbits cover {labeled} tables, expected {want_tables}"
            # One table per class decides the claim for the whole class.  An
            # isomorphism phi: Q -> Q' conjugates each pseudoautomorphism
            # (theta, c) of Q to (phi.theta.phi^-1, phi(c)) of Q', so the
            # identity to the identity and a nontrivial theta to a nontrivial
            # one, and it maps a one-sided unit of Q to one of Q'.
            for q in reps:
                left_units, right_units = _units(q.table)
                for side, units in (("right", right_units), ("left", left_units)):
                    thetas = structure._companion_thetas(q, side)[1]
                    assert units.any() or (thetas == np.arange(n)).all(), \
                        f"order-{n} table with nontrivial {side} pseudoautomorphism lacks a {side} unit"
            classes += len(reps)
            tables += int(labeled)
        return (f"checked {classes} isomorphism classes ({tables} tables) "
                f"at orders {list(census_orders)}")

    claim("T4", "a nontrivial one-sided pseudoautomorphism forces the matching one-sided unit",
          census_orders, t4, vacuous=not census_orders)

    # G-note -- empirical G-property of the instances
    def g_note() -> str:
        for q in instances:
            gp = structure.is_g(q, max_order=max_autotopy_order)
            assert gp.right_g, f"{q.label}: expected right G (companions on the right)"
            assert gp.left_g == (len(two_torsion(group_of(q))) == q.order), \
                f"{q.label}: left G should hold iff exponent 2"
        return ("right G in the convention used here (translate after theta on the right); "
                "left G only for exponent-2 instances -- under the swapped naming convention "
                "this reads: left G but not right G")

    claim("G_NOTE", "empirical G-property: which pseudoautomorphism side acts transitively",
          instance_orders, g_note, vacuous=not instances)

    return report
