"""The four benchmark workloads: seeded inputs, job lists and output checks.

A workload's ``setup`` builds its inputs from the seed and returns the job
list of one pass.  A job's ``run`` is the call into quasilab that is timed;
its ``check`` compares the result with a reference from ``oracles`` (which
does not use quasilab) and raises ``CheckFailed`` on a mismatch.

``tiny=True`` gives the same jobs at small orders, for the self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import quasilab as ql
from quasilab import cli

import oracles
from oracles import table_key


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    id: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _keys(models) -> set[bytes]:
    return {table_key(q.table) for q in models}


# -- verify -----------------------------------------------------------------------


def setup_verify(seed: int, workdir: Path, tiny: bool, mutate: bool = False) -> list[Job]:
    """``quasilab verify-paper`` at its default bounds.  It takes no input, so
    the seed is unused.  ``mutate`` swaps rows 0 and 1 of every constructed
    table, which must make the job fail its check."""
    argv = ["verify-paper"]
    if tiny:
        argv = ["--max-order", "1", "verify-paper",
                "--max-autotopy-order", "4", "--max-construction-order", "4"]
    if mutate:
        argv += ["--debug-mutate-rows", "0,1"]
    first_report: list[str] = []

    def check(result) -> None:
        rc, text = result
        expect(rc == 0, f"exit code {rc}")
        expect(text.splitlines()[-1].startswith("overall: PASS"), "report does not end in PASS")
        if not first_report:
            first_report.append(text)
        expect(text == first_report[0], "report bytes differ from the first pass")

    return [Job("verify-paper", lambda: _cli(argv), check)]


# -- find -------------------------------------------------------------------------

CATALOG = {
    "neumann": "x*((y*z)*(y*x)) = z",
    "schweizer": "(y*z)*(y*x) = x*z",
    "eq5": "(x*y)*z = y*(z*x)",
    "medial": "(x*y)*(u*v) = (x*u)*(y*v)",
    "commutative": "x*y = y*x",
    "associative": "(x*y)*z = x*(y*z)",
}

_NAME_POOL = [chr(c) for c in range(ord("a"), ord("z") + 1)] + \
             [f"{chr(c)}{d}" for c in range(ord("a"), ord("z") + 1) for d in range(10)]


def renamed_identity(name: str, rng: np.random.Generator) -> ql.Identity:
    """A catalog identity with its variables renamed to seeded fresh names."""
    text = CATALOG[name]
    old = sorted(set(re.findall(r"[a-z][a-z0-9]*", text)))
    new = rng.choice(len(_NAME_POOL), size=len(old), replace=False)
    mapping = {o: _NAME_POOL[i] for o, i in zip(old, new)}
    return ql.parse_identity(re.sub(r"[a-z][a-z0-9]*", lambda m: mapping[m.group()], text))


def setup_find(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    """Model enumeration through ``find_all`` / ``count``.  The seed picks the
    job order and a renaming of every identity's variables."""
    rng = np.random.default_rng(seed)
    big, mid, small, limit = (4, 3, 3, 100) if tiny else (6, 5, 4, 8000)
    latin = 4 if tiny else 5
    ident = {name: renamed_identity(name, rng) for name in CATALOG}
    so = ql.SearchOptions

    subtraction_models = oracles.labeled_groups(big, subtraction=True)
    group_models = oracles.labeled_groups(mid, subtraction=False)
    medial_tables = oracles.medial_models(oracles.latin_squares(small))
    medial_models = {table_key(t) for t in medial_tables}
    medial_classes = len({oracles.canonical_form(t) for t in medial_tables})

    def same_models(expected: set[bytes]):
        def check(models) -> None:
            got = _keys(models)
            expect(len(got) == len(models), "duplicate models")
            expect(got == expected, f"{len(got)} models, expected {len(expected)} "
                                    f"({len(got - expected)} unexpected)")
        return check

    def classes(count: int, within: set[bytes] | None):
        def check(models) -> None:
            expect(len(models) == count, f"{len(models)} classes, expected {count}")
            expect(within is None or _keys(models) <= within, "representative is not a model")
        return check

    def exactly(count: int):
        def check(n) -> None:
            expect(n == count, f"count {n}, expected {count}")
        return check

    def distinct(count: int):
        def check(models) -> None:
            expect(len(_keys(models)) == len(models) == count,
                   f"{len(models)} models ({len(_keys(models))} distinct), expected {count}")
        return check

    jobs = [
        # Schweizer and Neumann checked against one set: T10 at this order.
        Job(f"neumann@{big}", lambda: ql.find_all(so(big, (ident["neumann"],))),
            same_models(subtraction_models)),
        Job(f"schweizer@{big}", lambda: ql.find_all(so(big, (ident["schweizer"],))),
            same_models(subtraction_models)),
        Job(f"eq5@{mid}", lambda: ql.find_all(so(mid, (ident["eq5"],))),
            same_models(group_models)),
        Job(f"commutative+associative@{mid}",
            lambda: ql.find_all(so(mid, (ident["commutative"], ident["associative"]))),
            same_models(group_models)),
        # The renamed and the catalog medial identity must give one model set.
        Job(f"medial@{small}", lambda: ql.find_all(so(small, (ident["medial"],))),
            same_models(medial_models)),
        Job(f"medial@{small}-catalog", lambda: ql.find_all(so(small, (ql.builtin("medial"),))),
            same_models(medial_models)),
        Job(f"medial@{small}-up-to-iso",
            lambda: ql.find_all(so(small, (ident["medial"],), up_to_isomorphism=True)),
            classes(medial_classes, medial_models)),
        Job(f"latin@{small}-up-to-iso",
            lambda: ql.find_all(so(small, up_to_isomorphism=True)),
            classes(oracles.QUASIGROUP_CLASSES[small], None)),
        Job(f"count-latin@{small}", lambda: ql.count(so(small)),
            exactly(oracles.LATIN_SQUARE_COUNT[small])),
        # Pure bitmask search, no identities: the first `limit` Latin squares.
        Job(f"latin@{latin}-limit-{limit}", lambda: ql.find_all(so(latin, limit=limit)),
            distinct(limit)),
    ]
    return [jobs[i] for i in rng.permutation(len(jobs))]


# -- analyze ----------------------------------------------------------------------

# (group, table kinds); see BENCHMARK.json for why these orders.
ANALYZE_TABLES = [
    ((5,), ("isotope", "subtraction")),
    ((6,), ("isotope", "subtraction")),
    ((7,), ("subtraction",)),
    ((2, 2, 2), ("subtraction",)),
    ((2, 16), ("isotope",)),
    ((48,), ("subtraction",)),
]
ANALYZE_TABLES_TINY = [
    ((3,), ("isotope", "subtraction")),
    ((2, 2), ("isotope", "subtraction")),
    ((9,), ("subtraction",)),
]


def _table_text(table: np.ndarray) -> str:
    rows = "\n".join(" ".join(str(int(v)) for v in row) for row in table)
    return f"order {table.shape[0]}\n{rows}\n"


def setup_analyze(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    """``quasilab analyze`` on seeded table files: a random isotope of a
    group table or a random relabeling of its subtraction table.  Tables of
    order <= 8 also get ``canonical_key`` on two relabelings and
    ``isomorphic`` between them."""
    rng = np.random.default_rng(seed)
    jobs = []
    for factors, kinds in (ANALYZE_TABLES_TINY if tiny else ANALYZE_TABLES):
        add = oracles.group_table(factors)
        n = add.shape[0]
        aut = oracles.automorphism_count(factors)
        label = oracles.type_label(factors)
        for kind in kinds:
            if kind == "isotope":
                table = oracles.isotope(add, *(rng.permutation(n) for _ in range(3)))
                torsion = None
            else:
                perm = rng.permutation(n)
                table = oracles.relabel(oracles.subtraction_table(add), perm)
                torsion = sorted(int(perm[a]) for a in oracles.two_torsion(add))
            path = workdir / f"{label}-{kind}.txt"
            path.write_text(_table_text(table))
            pair = None
            if n <= 8:
                r1, r2 = (oracles.relabel(table, rng.permutation(n)) for _ in range(2))
                pair = (r1, r2, ql.Quasigroup(r1), ql.Quasigroup(r2))
            jobs.append(Job(f"analyze-{label}-{kind}",
                            _analyze_run(str(path), pair),
                            _analyze_check(n, aut, torsion, pair)))
    return jobs


def _analyze_run(path: str, pair):
    def run():
        rc, out = _cli(["analyze", path])
        extra = None
        if pair is not None:
            q1, q2 = pair[2], pair[3]
            extra = (ql.canonical_key(q1), ql.canonical_key(q2), ql.isomorphic(q1, q2))
        return rc, out, extra
    return run


def _analyze_check(n: int, aut: int, torsion, pair):
    def check(result) -> None:
        rc, out, extra = result
        expect(rc == 0, f"exit code {rc}")
        report = json.loads(out)
        expect(report["order"] == n, "wrong order")
        if n <= 7:
            expect(report["autotopy_count"] == n * n * aut,
                   f"{report['autotopy_count']} autotopies, expected {n * n * aut}")
        if torsion is not None:
            expect(report["identities"]["neumann"] is True, "subtraction table is not Neumann")
            expect(report["unipotent"] is True, "subtraction table is not unipotent")
            expect(report["nuclei"]["right"] == torsion, "right nucleus is not the 2-torsion")
            if n <= 8:
                expect(report["automorphism_count"] == aut,
                       f"{report['automorphism_count']} automorphisms, expected {aut}")
            if n <= 7:
                expect(report["decomposition_ok"] is True, "autotopies do not decompose")
        if pair is not None:
            key1, key2, phi = extra
            expect(key1 == key2, "relabelings have different canonical keys")
            expect(phi is not None and oracles.is_isomorphism(pair[0], pair[1], phi.array),
                   "isomorphic() did not return an isomorphism")
    return check


# -- groups -----------------------------------------------------------------------


def setup_groups(seed: int, workdir: Path, tiny: bool) -> list[Job]:
    """Abelian-group machinery on seeded relabelings of every abelian group:
    ``automorphism_group`` up to order 16, and for every group up to order 64
    the ``subtraction_quasigroup`` / ``recover_group`` round trip and
    ``holds(neumann)``."""
    rng = np.random.default_rng(seed)
    max_aut, max_order = (8, 12) if tiny else (16, 64)
    neumann = ql.builtin("neumann")
    jobs = []
    for n in range(1, max_order + 1):
        for factors in oracles.abelian_types(n):
            table = oracles.relabel(oracles.group_table(factors), rng.permutation(n))
            label = oracles.type_label(factors)
            g = ql.AbelianGroup(table, label=label)
            if n <= max_aut:
                jobs.append(Job(f"aut-{label}", lambda g=g: ql.automorphism_group(g),
                                _aut_check(table, oracles.automorphism_count(factors))))
            jobs.append(Job(f"roundtrip-{label}", lambda g=g: _round_trip(g, neumann),
                            _round_trip_check(table)))
    return jobs


def _round_trip(g, neumann):
    sq = ql.subtraction_quasigroup(g)
    return ql.recover_group(sq).table, ql.holds(sq, neumann)


def _round_trip_check(table: np.ndarray):
    def check(result) -> None:
        recovered, is_neumann = result
        expect(np.array_equal(recovered, table), "recovered addition table differs")
        expect(is_neumann, "x - y table fails the Neumann identity")
    return check


def _aut_check(table: np.ndarray, expected: int):
    n = table.shape[0]

    def check(auts) -> None:
        expect(len(auts) == expected, f"{len(auts)} automorphisms, expected {expected}")
        imgs = np.array([p.image for p in auts], dtype=np.int64).reshape(len(auts), n)
        expect(len(np.unique(imgs, axis=0)) == len(auts), "repeated automorphism")
        expect((np.sort(imgs, axis=1) == np.arange(n)).all(), "not a bijection")
        for chunk in range(0, len(imgs), 1024):
            th = imgs[chunk:chunk + 1024]
            expect((th[:, table] == table[th[:, :, None], th[:, None, :]]).all(),
                   "map does not preserve addition")
    return check


SETUPS = {
    "verify": setup_verify,
    "find": setup_find,
    "analyze": setup_analyze,
    "groups": setup_groups,
}
