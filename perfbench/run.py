"""Benchmark of the ``wqsym`` calculator and checker.

    python3 perfbench/run.py --workload series-deep --seed 1 --seconds 20 --trace 0

Run from the repository root.  Workloads (see BENCHMARK.json for why each was
chosen, and README.md for the layer each metric should move):

- ``series-deep``: ``wqsym expand`` of e_2, e_1 (JSON) and Psi^3 at degree 7;
- ``internal-dense``: ``wqsym eval "e(i) @ e(j)"`` at cutoff 5 for i, j in
  1..4, and ``(x @ e(i)) @ e(i) == x @ e(i)`` on seeded dense series x;
- ``battery``: ``wqsym verify all --seed 0 --cases 100`` at degree 5, run as
  one ``verify <suite>`` command per suite.

One process makes every call, each after the previous one returned.  Passes
repeat until ``--seconds`` is spent (at least two); timings are medians
over passes.  During each pass a short fixed reference loop is timed ten
times a second, and ``pass_cost`` is the pass in reference loops (see
``workloads.HostGauge``).  With ``--trace 0`` the end-to-end metrics are
reported; set-up time and peak memory are measured in fresh child
interpreters, one at a time.
With ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics come from the traced ones.  Every output of every pass is checked;
the last line of stdout is the JSON result.  ``--workload all`` runs the
three in turn and prints each one's report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import workloads
from workloads import DEFAULT_CASES, DEFAULT_DEGREE, PassResult, Session, SetupError

HERE = Path(__file__).resolve().parent
SPEC_FILE = workloads.ROOT / "BENCHMARK.json"
TRACE_DIR = workloads.ROOT / ".perfbench"

MIN_PASSES = 2
#: cold child interpreters timed for ``setup_s``, SETUP_BATCH at a time
#: before the first pass and after each pass, so that they sample the
#: host's state across the run; the median is reported
SETUP_CHILDREN = 6
SETUP_BATCH = 2
CHILD_TIMEOUT_S = 170

#: reported beside the gated metrics; none can be gated, see README.md
EXTRA_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "ref_ms": "ms",
    "checks_per_s": "1/s",
    "terms_per_s": "1/s",
    "fail_ratio": "ratio",
}


def load_spec() -> dict:
    if not SPEC_FILE.is_file():
        raise SetupError(f"missing {SPEC_FILE}")
    return json.loads(SPEC_FILE.read_text())


def run_child(mode: str, args) -> tuple[float, dict]:
    """Run this script as a fresh child interpreter; return its wall time and
    its last stdout line as JSON."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--child", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--degree", str(args.degree), "--cases", str(args.cases),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=workloads.ROOT)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {mode} exited with {proc.returncode}: {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(args) -> int:
    """``setup``: import and make the inputs, then exit.  ``pass``: also run
    one pass and report its outcome, its times and the peak resident memory."""
    session = Session(args.workload, args.seed, args.degree, args.cases, workloads.load_reference())
    if args.child == "setup":
        print(json.dumps({}))
        return 0
    result, _ = timed_pass(session)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rss_mb": rss_kb / 1024, "result": asdict(result)}))
    return 0


def timed_pass(session: Session, gauge: bool = True) -> tuple[PassResult, float]:
    """One pass and its elapsed time, reference loops included."""
    t0 = time.perf_counter()
    result = session.run_pass(gauge)
    return result, time.perf_counter() - t0


def median_line(name, value, unit, n, note="") -> str:
    return f"  {name:<14} {value:>14.6g} {unit:<6} n={n}{note}"


def measure(session: Session, passes: list, start: float, seconds: float, between) -> list:
    """Add untraced passes until ``seconds`` since ``start`` is spent (at
    least MIN_PASSES in all), calling ``between()`` after each."""
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p[1] for p in passes) <= seconds
    ):
        passes.append(timed_pass(session))
        between()
    return passes


def end_to_end(args, spec, session: Session) -> tuple[dict, list[PassResult], list[str]]:
    setup: list[float] = []

    def time_setups(n=SETUP_BATCH):
        for _ in range(min(n, SETUP_CHILDREN - len(setup))):
            setup.append(run_child("setup", args)[0])

    start = time.perf_counter()
    time_setups()
    # the fresh child's pass gives the peak memory and is also the first sample
    t0 = time.perf_counter()
    _, child = run_child("pass", args)
    first = (PassResult(**child["result"]), time.perf_counter() - t0)
    time_setups()
    passes = measure(session, [first], start, args.seconds, time_setups)
    time_setups(SETUP_CHILDREN)
    results = [p[0] for p in passes]
    refs = [t for r in results for t in r.ref_s]
    values = {
        "setup_s": statistics.median(setup),
        "pass_cost": statistics.median(r.cost for r in results),
        "peak_rss_mb": child["rss_mb"],
        "wall_s": statistics.median(r.wall_s for r in results),
        "cpu_s": statistics.median(r.cpu_s for r in results),
        "ref_ms": statistics.fmean(refs) * 1000,
        "checks_per_s": statistics.median(r.checks / r.wall_s for r in results),
        "terms_per_s": statistics.median(r.terms / r.wall_s for r in results),
    }
    attempted = sum(r.attempted for r in results)
    values["fail_ratio"] = sum(r.failed for r in results) / attempted
    counts = {"setup_s": len(setup), "peak_rss_mb": 1, "ref_ms": len(refs), "fail_ratio": attempted}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | EXTRA_UNITS
    lines = []
    for name in [m["name"] for m in spec["end_to_end"]] + list(EXTRA_UNITS):
        note = ""
        if name == "terms_per_s" and not any(r.terms for r in results):
            note = "  (no terms rendered on this workload)"
        lines.append(median_line(name, values[name], units[name], counts.get(name, len(passes)), note))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    lines.insert(0, f"  {len(passes)} passes, the first in a fresh child; set-up from fresh children between passes")
    lines.append("  samples of pass_cost: " + " ".join(f"{r.cost:.2f}" for r in results))
    lines.append("  samples of wall_s: " + " ".join(f"{r.wall_s:.3f}" for r in results))
    return metrics, results, lines


def traced(args, spec, session: Session) -> tuple[dict, list[PassResult], list[str]]:
    import spans

    tracer = spans.Tracer()
    suite_names = list(sys.modules["wqsym.suites"].SUITES)
    untraced_walls, traced_walls, per_pass, results = [], [], [], []
    start = time.perf_counter()
    while True:
        result, _ = timed_pass(session, gauge=False)
        untraced_walls.append(result.wall_s)
        results.append(result)
        tracer.clear()
        spans.install(tracer, session.modules)
        try:
            result, _ = timed_pass(session, gauge=False)
        finally:
            tracer.uninstall()
        traced_walls.append(result.wall_s)
        results.append(result)
        per_pass.append(spans.layer_metrics(tracer, session.caches, suite_names, result.bytes_out))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(untraced_walls) + statistics.median(traced_walls) > args.seconds:
            break
    path = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.bin"
    tracer.write(path)
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    lines = [f"  {len(traced_walls)} untraced and {len(traced_walls)} traced passes; per-layer medians over traced passes"]
    lines += [f"  {m['name']:<32} {values[m['name']]:>14.6g} {m['unit']}" for m in spec["per_layer"]]
    verdict = "holds" if spans.rationale_holds(args.workload, values) else "DOES NOT HOLD"
    shares = ", ".join(f"{k[6:]} {v:.1%}" for k, v in values.items() if k.startswith("share."))
    lines.append(f"  rationale ({spans.RATIONALE[args.workload]}): {verdict}; self-time shares: {shares}")
    lines.append(f"  spans of the last traced pass: {path} ({len(tracer.start)} spans)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    return metrics, results, lines


def run_workload(args, spec) -> dict:
    session = Session(args.workload, args.seed, args.degree, args.cases, workloads.load_reference())
    measure_fn = traced if args.trace else end_to_end
    metrics, results, lines = measure_fn(args, spec, session)
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(
        f"workload {args.workload}: seed {args.seed}, degree {args.degree}, cases {args.cases}, "
        f"run seconds {args.seconds}, "
        f"python {platform.python_version()}, nproc {os.cpu_count()}, trace {args.trace}"
    )
    for line in lines:
        print(line)
    for message in sorted({m for r in results for m in r.failures}):
        print(f"  FAILED: {message}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_DEGREE) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--degree", type=int, default=None, help="workload size (smoke test only)")
    parser.add_argument("--cases", type=int, default=DEFAULT_CASES, help="battery cases (smoke test only)")
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.child:
            return child_main(args)
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        names = sorted(DEFAULT_DEGREE) if args.workload == "all" else [args.workload]
        degree = args.degree
        results = {}
        for name in names:
            args.workload = name
            args.degree = DEFAULT_DEGREE[name] if degree is None else degree
            results[name] = run_workload(args, spec)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (combined,) = results.values()
    else:
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
