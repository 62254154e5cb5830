"""Per-layer spans recorded from outside quasilab.

The layers are the modules of ``src/quasilab``.  ``Tracer.install`` wraps
each layer's public functions (and ``Quasigroup.__init__`` for the
``quasigroup`` layer) in memory.  The package's modules import these names
directly (``from .search import find_all``), so every module attribute that
is bound to an original function is replaced, not only the one on the
defining module.  ``permutations`` is not wrapped: its constructor runs in the
inner loops of ``structure``, so its time stays in ``structure`` self time.

A span is (name, start, end, parent, job, ok).  A layer's self time is the
duration of its spans minus the time covered by their child spans; its busy
time is the duration of its outermost spans, so nested calls within a layer
are not counted twice.

Search nodes are counted exactly by running every search with
``progress_interval=1`` and counting the records the existing
``quasilab.search`` logger emits, one per node.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import logging
import math
import sys
import time
from typing import Callable

LAYERS = ("cli", "verification", "search", "identities", "structure",
          "abelian", "quasigroup", "tables")

HOT_FUNCTIONS = (
    ("search.find_all", "self_s"),
    ("search.count", "self_s"),
    ("identities.holds", "calls"),
    ("identities.holds", "self_s"),
    ("structure.autotopies", "calls"),
    ("structure.autotopies", "self_s"),
    ("structure.automorphisms", "self_s"),
    ("structure.canonical_key", "self_s"),
    ("structure.isomorphic", "self_s"),
    ("abelian.automorphism_group", "self_s"),
    ("abelian.recover_group", "self_s"),
)

# Work counters.  "computed" ones are derived from input sizes, not observed.
COUNTERS = {
    "search.nodes": "observed",
    "search.models": "observed",
    "identities.cells": "computed",
    "structure.autotopy_seeds": "computed",
    "structure.autotopies_found": "observed",
    "structure.relabelings": "computed",
    "abelian.automorphisms_found": "observed",
    "quasigroup.cells_validated": "computed",
}


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _cells(args, kwargs, result):
    q = _first_arg(args, kwargs, "q")
    ident = args[1] if len(args) > 1 else kwargs["ident"]
    return {"identities.cells": q.order ** len(ident.vars)}


def _autotopies(args, kwargs, result):
    n = _first_arg(args, kwargs, "q").order
    return {"structure.autotopy_seeds": math.factorial(n) * n,
            "structure.autotopies_found": len(result)}


def _relabelings(args, kwargs, result):
    return {"structure.relabelings": math.factorial(_first_arg(args, kwargs, "q").order)}


# Observers turn a call's arguments and result into counter increments.
OBSERVERS: dict[str, Callable] = {
    "identities.holds": _cells,
    "identities.counterexample": _cells,
    "structure.autotopies": _autotopies,
    "structure.automorphisms": _relabelings,
    "structure.canonical_key": _relabelings,
    "abelian.automorphism_group":
        lambda a, k, r: {"abelian.automorphisms_found": len(r)},
    "search.find_all": lambda a, k, r: {"search.models": len(r)},
    "search.count": lambda a, k, r: {"search.models": r},
    "quasigroup.Quasigroup":
        lambda a, k, r: {"quasigroup.cells_validated": a[0].order ** 2},
}


class _NodeCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        self.tracer.counters["search.nodes"] += 1


def _progress_every_node(args, kwargs):
    opts = _first_arg(args, kwargs, "opts")
    if opts.progress_interval is None:
        opts = dataclasses.replace(opts, progress_interval=1)
    return (opts,) + tuple(args[1:]), {k: v for k, v in kwargs.items() if k != "opts"}


# Argument rewrites applied before the wrapped call.
REWRITES: dict[str, Callable] = {
    "search.find_all": _progress_every_node,
    "search.count": _progress_every_node,
}


class Tracer:
    """Spans and counters of the current pass, and the wrappers that record them."""

    def __init__(self):
        self.job = None
        self.start_pass()
        self._restore: list[Callable[[], None]] = []

    def start_pass(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        observe = OBSERVERS.get(name)
        rewrite = REWRITES.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rewrite is not None:
                args, kwargs = rewrite(args, kwargs)
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.job, ok)
            if observe is not None:
                for key, val in observe(args, kwargs, result).items():
                    tracer.counters[key] += val
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions at every binding site."""
        from quasilab import quasigroup, search

        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"quasilab.{layer}"]
            public = getattr(mod, "__all__", None) or [a for a in vars(mod) if not a.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for key, mod in list(sys.modules.items()):
            if key != "quasilab" and not key.startswith("quasilab."):
                continue
            for attr, val in list(vars(mod).items()):
                wrapped = wrappers.get(id(val))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)
                    self._restore.append(lambda m=mod, a=attr, v=val: setattr(m, a, v))

        cls = quasigroup.Quasigroup
        init = cls.__init__
        cls.__init__ = self._wrap("quasigroup.Quasigroup", init)
        self._restore.append(lambda: setattr(cls, "__init__", init))

        log = logging.getLogger(search.__name__)
        handler = _NodeCounter(self)
        saved = (log.level, log.propagate)
        log.addHandler(handler)
        log.setLevel(logging.INFO)
        log.propagate = False

        def restore_log():
            log.removeHandler(handler)
            log.setLevel(saved[0])
            log.propagate = saved[1]

        self._restore.append(restore_log)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


def summarize(spans: list, counters: dict, pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all except trace.overhead_s)."""
    n = len(spans)
    child = [0.0] * n
    layer_of = [s[0].split(".", 1)[0] for s in spans]
    outer_mask = [0] * n   # layers present among each span's ancestors
    bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    for i, (name, t0, t1, parent, _job, _ok) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            outer_mask[i] = outer_mask[parent] | bit[layer_of[parent]]

    out: dict[str, float] = {}
    for layer in LAYERS:
        for m in ("calls", "busy_s", "self_s", "failed"):
            out[f"{layer}.{m}"] = 0 if m in ("calls", "failed") else 0.0
    fn_self: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    for i, (name, t0, t1, parent, _job, ok) in enumerate(spans):
        layer = layer_of[i]
        dur = t1 - t0
        self_s = dur - child[i]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
        if not outer_mask[i] & bit[layer]:
            out[f"{layer}.busy_s"] += dur
        if not ok:
            out[f"{layer}.failed"] += 1
        fn_self[name] = fn_self.get(name, 0.0) + self_s
        fn_calls[name] = fn_calls.get(name, 0) + 1

    for fn, m in HOT_FUNCTIONS:
        out[f"{fn}.{m}"] = fn_calls.get(fn, 0) if m == "calls" else fn_self.get(fn, 0.0)
    for key in COUNTERS:
        out[key] = counters[key]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    out["search.nodes_per_s"] = rate(counters["search.nodes"], out["search.self_s"])
    eval_self = fn_self.get("identities.holds", 0.0) + fn_self.get("identities.counterexample", 0.0)
    out["identities.cells_per_s"] = rate(counters["identities.cells"], eval_self)
    out["structure.autotopy_yield"] = rate(counters["structure.autotopies_found"],
                                           counters["structure.autotopy_seeds"])
    layer_self = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.pass_s"] = pass_s
    out["trace.layer_self_s"] = layer_self
    out["trace.harness_s"] = pass_s - layer_self
    return out
