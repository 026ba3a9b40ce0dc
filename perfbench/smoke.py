"""Smoke test of the benchmark at tiny sizes (degree 4, three battery cases).

    python3 perfbench/smoke.py

Run from the repository root.  It checks that
- every workload runs untraced and traced, with ``correct`` true and no
  failed operation;
- every metric named in BENCHMARK.json, and those reported beside them, is
  printed by name with its unit, and the JSON result holds exactly the
  listed metrics;
- the gates report a failure when given a corrupted reference digest or
  check count;
- in a directory holding only BENCHMARK.json and the benchmark, the run
  exits nonzero without printing a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from record_reference import SMOKE_CASES, SMOKE_DEGREE

DEGREE, CASES = str(SMOKE_DEGREE), str(SMOKE_CASES)


def bench(*extra, cwd=workloads.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--degree", DEGREE, "--cases", CASES, *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


def check_reports(spec: dict) -> None:
    for workload in sorted(workloads.DEFAULT_DEGREE):
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench("--workload", workload, "--seed", "5", "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            assert set(result["metrics"]) == {m["name"] for m in listed}
            units = {m["name"]: m["unit"] for m in listed}
            if trace == 0:
                units |= run.EXTRA_UNITS
            for name, unit in units.items():
                if name in result["metrics"]:
                    assert result["metrics"][name]["unit"] == unit
                assert any(line.split()[:1] == [name] and unit in line.split()[2:3] for line in lines[:-1]), (
                    f"{workload}: {name} not printed with unit {unit}"
                )
            print(f"ok  {workload} trace {trace}: {len(units)} metrics with units")


def check_gates() -> None:
    reference = workloads.load_reference()
    cases = {
        "series-deep": ("series-deep", lambda ref: ref[DEGREE].update({k: "0" * 64 for k in ref[DEGREE]})),
        "internal-dense": ("internal-dense", lambda ref: ref[DEGREE].update({"2": "0" * 64})),
        "battery": ("battery", lambda ref: [t.update(hopf=t["hopf"] + 1) for t in ref[f"{DEGREE}/{CASES}"].values()]),
    }
    for workload, (section, corrupt) in cases.items():
        bad = copy.deepcopy(reference)
        corrupt(bad[section])
        session = workloads.Session(workload, 0, int(DEGREE), int(CASES), bad)
        result = session.run_pass()
        assert result.failed >= 1 and result.failures, f"{workload}: corrupted reference passed"
        good = workloads.Session(workload, 0, int(DEGREE), int(CASES), reference).run_pass()
        assert good.failed == 0, good.failures
        print(f"ok  {workload}: corrupted reference reported as {result.failed} failed operation(s)")


def check_without_program() -> None:
    bare = workloads.ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.SPEC_FILE, bare / "BENCHMARK.json")
        shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "battery", "--seed", "0", "--trace", "0", cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
        print(f"ok  without the program: exit {proc.returncode}, {proc.stderr.strip()}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = run.load_spec()
    check_reports(spec)
    check_gates()
    check_without_program()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
