"""Record ``reference.json``: the outputs every benchmark pass is checked against.

Run from the repository root, at the commit whose behaviour is the reference:

    python3 perfbench/record_reference.py

It records
- ``series-deep``: the SHA-256 of the stdout of each command, per degree;
- ``internal-dense``: the SHA-256 of ``str(e(i))`` per degree, after checking
  that ``wqsym eval "e(i) @ e(i)"`` prints exactly that;
- ``battery``: the check count of every suite of ``verify all`` at the
  workload's verify seed, per (degree, cases), after checking that every
  suite passes.

The benchmark's sizes and the smoke test's tiny sizes are both recorded.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    BATTERY_VERIFY_SEED,
    DEFAULT_CASES,
    DEFAULT_DEGREE,
    IDEMPOTENTS,
    REFERENCE_FILE,
    Caches,
    call_cli,
    digest,
    import_wqsym,
    series_deep_commands,
    wqsym_modules,
)

SMOKE_DEGREE = 4
SMOKE_CASES = 3


def checked_cli(caches: Caches, argv) -> str:
    caches.reset()
    rc, out = call_cli(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited with {rc}")
    return out


def main() -> int:
    wq = import_wqsym()
    caches = Caches(wqsym_modules())
    ref: dict = {"series-deep": {}, "internal-dense": {}, "battery": {}}

    for degree in (DEFAULT_DEGREE["series-deep"], SMOKE_DEGREE):
        ref["series-deep"][str(degree)] = {
            " ".join(argv): digest(checked_cli(caches, argv))
            for argv in series_deep_commands(degree)
        }

    for degree in (DEFAULT_DEGREE["internal-dense"], SMOKE_DEGREE):
        table = {}
        for i in IDEMPOTENTS:
            out = checked_cli(caches, ["eval", f"e({i}) @ e({i})", "--degree", str(degree)])
            expected = str(wq.eulerian_idempotent(i, degree)) + "\n"
            if out != expected:
                raise SystemExit(f"e({i}) @ e({i}) != e({i}) at degree {degree}")
            table[str(i)] = digest(expected)
        ref["internal-dense"][str(degree)] = table

    seed = BATTERY_VERIFY_SEED
    for degree, cases in ((DEFAULT_DEGREE["battery"], DEFAULT_CASES), (SMOKE_DEGREE, SMOKE_CASES)):
        out = checked_cli(
            caches,
            ["verify", "all", "--seed", str(seed), "--cases", str(cases), "--degree", str(degree)],
        )
        counts = {}
        for line in out.splitlines():
            name, rest = line[len("suite "):].split(": ", 1)
            if not line.endswith(": PASS"):
                raise SystemExit(f"suite {name} failed at seed {seed}")
            counts[name] = int(rest.split()[0])
        ref["battery"][f"{degree}/{cases}"] = {str(seed): counts}

    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
