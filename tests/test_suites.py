"""Every ``verify`` suite checks exactly as many identities as the benchmark's
reference records.

``perfbench/reference.json`` holds, per suite, the check count of ``verify
all --seed 0 --cases C --degree D`` under the key ``"D/C"``: ``"4/3"`` and
``"5/100"``, the counts the benchmark's battery gates on.  A change to a suite
body that drops, adds or reorders nothing keeps these counts; one that
silently changes what is checked does not.  The reference file is only read.
"""

import json
from pathlib import Path

import pytest

from wqsym.suites import SUITES, run_suite

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
BATTERY = json.loads(REFERENCE.read_text())["battery"]
KEYS = ("4/3", "5/100")


def test_the_reference_names_every_suite():
    for key in KEYS:
        assert sorted(BATTERY[key]["0"]) == sorted(SUITES), key


# a "4/3" case is named by its suite alone, a "5/100" case by suite and key
@pytest.mark.parametrize(
    "suite,key",
    [pytest.param(s, k, id=s if k == "4/3" else f"{s}-{k}") for k in KEYS for s in sorted(SUITES)],
)
def test_suite_check_count_matches_the_reference(suite, key):
    degree, cases = map(int, key.split("/"))
    report = run_suite(suite, degree=degree, seed=0, cases=cases)
    assert report.passed, report.failures
    assert report.count == BATTERY[key]["0"][suite]
