"""Every ``verify`` suite checks exactly as many identities as the benchmark's
reference records.

``perfbench/reference.json`` holds, per suite, the check count of ``verify
all --seed 0 --cases 3 --degree 4`` (its ``"4/3"`` entry).  A change to a
suite body that drops, adds or reorders nothing keeps these counts; one that
silently changes what is checked does not.  The reference file is only read.
"""

import json
from pathlib import Path

import pytest

from wqsym.suites import SUITES, run_suite

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
COUNTS = json.loads(REFERENCE.read_text())["battery"]["4/3"]["0"]


def test_the_reference_names_every_suite():
    assert sorted(COUNTS) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(COUNTS))
def test_suite_check_count_matches_the_reference(suite):
    report = run_suite(suite, degree=4, seed=0, cases=3)
    assert report.passed, report.failures
    assert report.cases_run == COUNTS[suite]
