#!/usr/bin/env python3
"""quasilab benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload find --seed 1 --seconds 25 --trace 0

measures one workload (``verify``, ``find``, ``analyze`` or ``groups``; see
BENCHMARK.json for why each) and prints, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.

    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0|1

runs every workload and prints each metric by name with its unit; with
``--trace 1`` also the sum of layer self times and the harness time left over.

    python3 bench/run.py --self-test

runs every workload once at tiny sizes on two seeds, checks that every
metric is emitted and no job fails, and checks that ``verify-paper`` with
mutated tables is counted as a failure.

Load model: a closed loop with one client.  This process runs one job at a
time, with no worker threads; the set-up probes are separate processes that
run one after another before measuring starts.

A pass runs the workload's job list once; a job's time is the time of its
call into quasilab (output checks are not timed).  Times are reported on the
reference host (see calibration.py): the host is shared, and other tenants
slow this process by up to 85% for a minute or more.  ``wall_s`` is, summed
over the jobs, the median over passes of the job's time divided by the
calibration kernel's time measured around it, times the kernel's reference
time.  ``setup_s`` is the median over several fresh processes of the time to
import numpy and quasilab, build the seeded inputs and their reference
outputs, and parse the identities, each scaled by a kernel run just after.
The measured times are printed on a comment line before the result.
``peak_rss_mb`` is the peak resident memory of this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One core: numpy must not start its own thread pools.
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 6
MIN_PASSES = 3
MIN_TRACE_PASSES = 2
CALIBRATE_EVERY_S = 0.1
MAX_REPORTED_FAILURES = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_checkout() -> None:
    if not (SRC / "quasilab" / "__init__.py").is_file():
        sys.exit(f"error: no quasilab sources under {SRC}; run from a full checkout")


def timed_setup(args, workdir: Path):
    """Import quasilab, build the inputs and the job list.

    Returns the jobs and (measured seconds, host factor measured just after).
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    import quasilab

    if Path(quasilab.__file__).resolve().parent != SRC / "quasilab":
        sys.exit(f"error: imported quasilab from {quasilab.__file__}, not from {SRC}")
    extra = {"mutate": True} if args.mutate_verify else {}
    jobs = workloads.SETUPS[args.workload](args.seed, workdir, args.tiny, **extra)
    elapsed = time.perf_counter() - t0
    from calibration import host_factor

    return jobs, (elapsed, host_factor())


def probe_setup(args) -> tuple[float, float]:
    """Set-up time and host factor of one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        sys.exit(f"error: set-up probe failed:\n{done.stderr}")
    seconds, factor = done.stdout.split()[-2:]
    return float(seconds), float(factor)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, job_id: str, exc: BaseException) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"job {job_id} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def run_job(job, tally: Tally, tracer=None) -> float:
    """Run and check one job; return the time of its call into quasilab."""
    if tracer is not None:
        tracer.job = job.id
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:  # a raising job is a failed job, not a crash
        tally.fail(job.id, exc)
        return time.perf_counter() - t0
    elapsed = time.perf_counter() - t0
    try:
        job.check(result)
    except Exception as exc:
        tally.fail(job.id, exc)
    return elapsed


def run_passes(jobs, seconds: float, min_passes: int, tally: Tally, tracer=None) -> list[dict]:
    """Run whole passes until the next one would overrun ``seconds``.

    The calibration kernel runs before a pass's first job, after its last,
    and between jobs once CALIBRATE_EVERY_S has passed since it last ran;
    each job is paired with the mean kernel time just before and after it.
    """
    from calibration import kernel_seconds

    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_pass()
        pass_start = time.perf_counter()
        job_s: list[float] = []
        cal_s: list[float] = []
        before = kernel_seconds()
        last = time.perf_counter()
        for i, job in enumerate(jobs):
            job_s.append(run_job(job, tally, tracer))
            if i == len(jobs) - 1 or time.perf_counter() - last >= CALIBRATE_EVERY_S:
                after = kernel_seconds()
                cal_s += [(before + after) / 2] * (len(job_s) - len(cal_s))
                before, last = after, time.perf_counter()
        record = {"pass_s": sum(job_s), "job_s": job_s, "cal_s": cal_s,
                  "wall": time.perf_counter() - pass_start}
        if tracer is not None:
            record.update(spans=tracer.spans, counters=tracer.counters, start=pass_start)
        passes.append(record)
        elapsed = time.perf_counter() - start
        next_pass = statistics.median(p["wall"] for p in passes)
        if len(passes) >= min_passes and elapsed + next_pass > seconds:
            return passes


def calibrated_pass_s(passes: list[dict]) -> float:
    """Time of one pass on the reference host: for each job the median, over
    passes, of its time over the kernel time around it, summed and scaled."""
    from calibration import REFERENCE_S

    ratios = zip(*([t / c for t, c in zip(p["job_s"], p["cal_s"])] for p in passes))
    return REFERENCE_S * sum(statistics.median(r) for r in ratios)


def measure(args) -> None:
    spec = load_spec()
    require_checkout()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"error: unknown workload {args.workload!r}")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
        jobs, own_setup = timed_setup(args, workdir)
        setups.append(own_setup)
        raw_setups = [s for s, _ in setups]
        setups = [s * f for s, f in setups]
        tally = Tally()
        if args.trace:
            metrics = traced_metrics(args, jobs, tally, spec)
        else:
            passes = run_passes(jobs, args.seconds, MIN_PASSES, tally)
            times = [p["pass_s"] for p in passes]
            q1, _, q3 = statistics.quantiles(times, n=4)
            kernel = [c for p in passes for c in p["cal_s"]]
            print(f"# {args.workload}: {len(times)} passes of {len(jobs)} jobs; measured pass "
                  f"times: median {statistics.median(times):.4f} s, quartiles {q1:.4f} / "
                  f"{q3:.4f} s ({', '.join(f'{t:.3f}' for t in times)}); calibration kernel "
                  f"median {statistics.median(kernel) * 1e3:.2f} ms; measured setup "
                  f"{', '.join(f'{s:.4f}' for s in raw_setups)} s")
            values = {
                "wall_s": calibrated_pass_s(passes),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.workload == "verify":
        print("# verify: the seed is unused; verify-paper takes no input")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def traced_metrics(args, jobs, tally: Tally, spec: dict) -> dict:
    """Untraced passes for half the time, then traced passes.  The layer
    metrics come from the fastest traced pass; the overhead compares the
    calibrated pass times of the traced and untraced passes."""
    import tracer as tracing

    start = time.perf_counter()
    plain = run_passes(jobs, args.seconds / 2, MIN_TRACE_PASSES, tally)
    tr = tracing.Tracer()
    tr.install()
    try:
        remaining = args.seconds - (time.perf_counter() - start)
        traced = run_passes(jobs, remaining, MIN_TRACE_PASSES, tally, tracer=tr)
    finally:
        tr.uninstall()
    fastest = min(traced, key=lambda p: p["pass_s"])
    values = tracing.summarize(fastest["spans"], fastest["counters"], fastest["pass_s"])
    values["trace.overhead_s"] = calibrated_pass_s(traced) - calibrated_pass_s(plain)
    write_trace(args, traced)
    print(f"# {args.workload}: traced pass {values['trace.pass_s']:.4f} s = layer self "
          f"{values['trace.layer_self_s']:.4f} s + harness {values['trace.harness_s']:.4f} s; "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def write_trace(args, traced: list[dict]) -> None:
    """Spans of every traced pass, times relative to the pass start."""
    out = []
    for p in traced:
        t = p["start"]
        out.append({"pass_s": p["pass_s"], "counters": p["counters"],
                    "spans": [[name, t0 - t, t1 - t, parent, job, ok]
                              for name, t0, t1, parent, job, ok in p["spans"]]})
    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                "span_fields": ["name", "start", "end", "parent", "job", "ok"],
                                "passes": out}))
    print(f"# trace written to {path.relative_to(ROOT)}")


def child_run(workload: str, seed: int, seconds: float, trace: int, *flags: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *flags]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report_all(args) -> None:
    """Every metric of every workload, by name with its unit."""
    spec = load_spec()
    require_checkout()
    import tracer as tracing

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    for w in spec["workloads"]:
        result = child_run(w["name"], args.seed, args.seconds, args.trace)
        ratio = result["failed"] / result["attempted"]
        print(f"\n{w['name']}: {result['attempted']} jobs attempted, {result['failed']} failed "
              f"(failed_ratio {ratio:g})")
        for m in metrics:
            got = result["metrics"][m["name"]]
            kind = " (computed)" if tracing.COUNTERS.get(m["name"]) == "computed" else ""
            print(f"  {m['name']:<36} {got['value']:>16.6g} {got['unit']}{kind}")
        if args.trace:
            vals = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"  sum of layer self times {vals['trace.layer_self_s']:.4f} s + harness "
                  f"{vals['trace.harness_s']:.4f} s = traced pass {vals['trace.pass_s']:.4f} s")


def self_test() -> int:
    spec = load_spec()
    require_checkout()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for w in spec["workloads"]:
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            res = child_run(w["name"], seed, 1, trace, "--tiny")
            want = layer if trace else e2e
            if set(res["metrics"]) != want:
                problems.append(f"{w['name']} trace {trace}: metrics "
                                f"{sorted(set(res['metrics']) ^ want)} missing or extra")
            if res["failed"] or not res["correct"] or res["attempted"] < 1:
                problems.append(f"{w['name']} seed {seed} trace {trace}: "
                                f"{res['failed']} of {res['attempted']} jobs failed")
            print(f"{w['name']:<8} seed {seed} trace {trace}: {res['attempted']} jobs, "
                  f"{res['failed']} failed, {len(res['metrics'])} metrics")
    res = child_run("verify", 1, 1, 0, "--tiny", "--mutate-verify")
    if res["failed"] != res["attempted"] or res["correct"]:
        problems.append(f"mutated verify-paper: {res['failed']} of {res['attempted']} "
                        f"jobs counted as failed, expected all")
    print(f"verify with mutated tables: {res['failed']} of {res['attempted']} jobs failed")
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--tiny", action="store_true", help="small orders (self-test)")
    p.add_argument("--mutate-verify", action="store_true",
                   help="verify-paper --debug-mutate-rows 0,1 (self-test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if not args.workload:
        p.error("--workload is required")
    if args.setup_probe:
        require_checkout()
        WORK.mkdir(exist_ok=True)
        workdir = WORK / f"probe-{os.getpid()}"
        workdir.mkdir()
        try:
            print(*timed_setup(args, workdir)[1])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    if args.workload == "all":
        report_all(args)
    else:
        measure(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
