"""Command-line interface.

Subcommands: check, find, analyze, construct, verify-paper.
Exit codes: 0 success / identity holds; 1 semantic failure (identity fails,
counter-model found, claim failed); 2 usage, parse or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import logging
import sys
from typing import Iterator, Optional, Sequence

import numpy as np

from . import structure
from .abelian import recover_group, subtraction_quasigroup
from .errors import OrderTooLarge, QuasilabError
from .identities import Identity, builtin, builtin_names, counterexample, holds, parse_identity
from .quasigroup import Quasigroup
from .search import SearchOptions, count as count_models, find_all
from .tables import format_table, parse_group_spec, read_table
from .verification import run_verification

# Search nodes (branching assignments, or placed rows with no identity)
# between progress records under --verbose.
VERBOSE_PROGRESS_INTERVAL = 1000


def _int_at_least(low: int):
    """argparse ``type=``: an integer >= low, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _row_pair(text: str) -> tuple[int, int]:
    """argparse ``type=`` for R1,R2: two nonnegative row indices."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected R1,R2, got {text!r}")
    return tuple(map(_int_at_least(0), parts))


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: ``parse_args`` keeps no state between
    calls, and ``append`` options copy their default list."""
    p = argparse.ArgumentParser(
        prog="quasilab",
        description="Finite quasigroup laboratory: identity checking, model search, structure analysis.",
    )
    p.add_argument("--max-order", type=_int_at_least(0), default=None,
                   help="override the search/analysis order bound (env QUASILAB_MAX_ORDER: search default only)")
    p.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    p.add_argument("-v", "--verbose", action="store_true",
                   help="log progress to stderr (stdout is unchanged)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="check an identity against a Cayley table file")
    c.add_argument("table", help="path to a table in the 'order n' text format")
    g = c.add_mutually_exclusive_group(required=True)
    g.add_argument("--identity", help=f"builtin identity name ({', '.join(builtin_names())})")
    g.add_argument("--identity-expr", help="identity as text, e.g. 'x*(y*x) = y'")

    f = sub.add_parser("find", help="enumerate quasigroups satisfying identities")
    f.add_argument("--order", type=_int_at_least(1), required=True)
    f.add_argument("--identity", action="append", default=[], help="builtin name (repeatable)")
    f.add_argument("--identity-expr", action="append", default=[], help="identity text (repeatable)")
    f.add_argument("--up-to-iso", action="store_true", help="one representative per isomorphism class")
    f.add_argument("--limit", type=_int_at_least(0), default=None)
    f.add_argument("--count-only", action="store_true")

    a = sub.add_parser("analyze", help="full structural report for a table file")
    a.add_argument("table")

    k = sub.add_parser("construct", help="build a group or its subtraction quasigroup")
    k.add_argument("--group", required=True, help="group spec, e.g. Z4 or Z2xZ2")
    k.add_argument("--subtraction", action="store_true", help="emit x*y = x - y instead of x + y")
    k.add_argument("--output", default=None, help="write to a file instead of stdout")

    v = sub.add_parser("verify-paper", help="run the built-in claim verification suite")
    v.add_argument("--max-autotopy-order", type=_int_at_least(0))
    v.add_argument("--max-construction-order", type=_int_at_least(0))
    v.add_argument("--debug-mutate-rows", type=_row_pair, default=None, metavar="R1,R2",
                   help="testing hook: swap two rows in constructed tables (must cause failures)")
    return p


def _resolve_identities(names: Sequence[str], exprs: Sequence[str]) -> list[Identity]:
    idents = [builtin(name) for name in names]
    idents.extend(parse_identity(expr) for expr in exprs)
    return idents


def _cmd_check(args) -> int:
    q = read_table(args.table)
    ident = _resolve_identities(
        [args.identity] if args.identity else [],
        [args.identity_expr] if args.identity_expr else [],
    )[0]
    cx = counterexample(q, ident)
    if args.format == "json":
        print(json.dumps({"holds": cx is None, "counterexample": cx}))
    elif cx is None:
        print("HOLDS")
    else:
        spot = ",".join(f"{v}={cx[v]}" for v in ident.vars)
        print(f"FAILS at {spot}")
    return 0 if cx is None else 1


def _cmd_find(args) -> int:
    idents = _resolve_identities(args.identity, args.identity_expr)
    opts = SearchOptions(
        order=args.order,
        identities=tuple(idents),
        up_to_isomorphism=args.up_to_iso,
        limit=args.limit,
        progress_interval=VERBOSE_PROGRESS_INTERVAL if args.verbose else None,
    )
    if args.count_only:
        n = count_models(opts, max_order=args.max_order)
        print(json.dumps({"count": n}) if args.format == "json" else n)
        return 0
    models = find_all(opts, max_order=args.max_order)
    if args.format == "json":
        print(json.dumps({"count": len(models), "tables": [m.to_lists() for m in models]}))
        return 0
    blocks = [format_table(m) for m in models]
    sys.stdout.write("\n".join(blocks))
    return 0


def _analyze_report(q: Quasigroup, max_order: Optional[int]) -> dict:
    n = q.order
    # the 4-variable laws meet the evaluation budget first, before any n^3 scan
    identities = {name: holds(q, builtin(name)) for name in builtin_names()}
    units = q.unit_predicates()
    nuclei = structure.nuclei(q)
    report: dict = {
        "schema": 1,
        "order": n,
        "units": {"left": units.left_unit, "right": units.right_unit, "is_loop": units.is_loop},
        "unipotent": units.is_unipotent,
        "identities": identities,
        "nuclei": {side: sorted(nuclei[side]) for side in ("left", "right", "middle")},
        "core_distributive": {"left": identities["core_left_distributive"],
                              "right": identities["core_right_distributive"]},
        "bol": identities["left_bol"],
        "moufang": identities["moufang"],
        "autotopy_count": None,
        "automorphism_count": None,
        "ga": None,
        "g": None,
        "decomposition_ok": None,
    }
    # the default bounds live with the walks; a walk that refuses leaves its counts null
    bound = {} if max_order is None else {"max_order": max_order}
    with contextlib.suppress(OrderTooLarge):
        report["automorphism_count"] = structure.automorphism_count(q, **bound)
    try:
        images = structure._autotopy_images(q, **bound)
    except OrderTooLarge:
        return report
    report["autotopy_count"] = len(images)
    report["ga"] = dataclasses.asdict(structure.is_ga(q, **bound))
    report["g"] = dataclasses.asdict(structure.is_g(q, **bound))
    if report["identities"]["neumann"]:
        # the n^2 * |Aut| built triples are autotopies of x - y: equal iff all decompose
        try:
            report["decomposition_ok"] = np.array_equal(images, structure._subtraction_images(recover_group(q)))
        except QuasilabError:
            report["decomposition_ok"] = False
    return report


def _cmd_analyze(args) -> int:
    q = read_table(args.table)
    report = _analyze_report(q, args.max_order)
    indent = 2 if args.format == "text" else None
    print(json.dumps(report, indent=indent))
    return 0


def _cmd_construct(args) -> int:
    g = parse_group_spec(args.group)
    if args.subtraction:
        q = subtraction_quasigroup(g)
        comment = f"group: {g.label} (subtraction, x*y = x - y)"
    else:
        q = g
        comment = f"group: {g.label}"
    text = format_table(q, comments=[comment])
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    # the default bounds live in run_verification; pass only those the user set
    bounds = {"max_order": args.max_order,
              "max_autotopy_order": args.max_autotopy_order,
              "max_construction_order": args.max_construction_order}
    report = run_verification(
        **{name: value for name, value in bounds.items() if value is not None},
        mutate_rows=args.debug_mutate_rows,
    )
    sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
    return 0 if report.overall else 1


_HANDLERS = {
    "check": _cmd_check,
    "find": _cmd_find,
    "analyze": _cmd_analyze,
    "construct": _cmd_construct,
    "verify-paper": _cmd_verify,
}


@contextlib.contextmanager
def _log_to_stderr(enabled: bool) -> Iterator[None]:
    """While active, show the ``quasilab`` logger's INFO records on stderr."""
    if not enabled:
        yield
        return
    logger = logging.getLogger("quasilab")
    handler = logging.StreamHandler(sys.stderr)
    saved_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(saved_level)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _log_to_stderr(args.verbose):
            return _HANDLERS[args.command](args)
    except QuasilabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
