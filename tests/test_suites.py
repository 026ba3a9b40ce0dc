"""Every ``verify`` suite checks exactly as many identities as the benchmark's
reference records.

``perfbench/reference.json`` holds, per suite, the check count of ``verify
all --seed 0 --cases C --degree D`` under the key ``"D/C"``: ``"4/3"`` and
``"5/100"``, the counts the benchmark's battery gates on.  A change to a suite
body that drops, adds or reorders nothing keeps these counts; one that
silently changes what is checked does not.  The reference file is only read.

Two properties are also checked: the fixed checks and seeded draws of
crucial, action, convolution and adams build nothing above the degree asked
for, and eulerian reports a wrong ascent table, which every closed form
and ``wqsym expand`` share.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from wqsym import series
from wqsym.algebra import WQSymElement
from wqsym.cli import main
from wqsym.params import SparseCombination
from wqsym.qsym import QSymElement
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
    report = run_suite(suite, degree=degree, seed=0, cases=cases, generators=5)
    assert report.passed, report.failures
    assert report.count == BATTERY[key]["0"][suite]


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("suite", ["crucial", "action", "convolution", "adams"])
def test_fixed_checks_stay_within_the_degree(monkeypatch, suite, degree):
    # the degree of every packed word and composition built through _raw
    raw = SparseCombination._raw.__func__
    built = []

    def recording(cls, data):
        if cls is WQSymElement:
            built.extend(map(len, data))
        elif cls is QSymElement:
            built.extend(map(sum, data))
        return raw(cls, data)

    monkeypatch.setattr(SparseCombination, "_raw", classmethod(recording))
    report = run_suite(suite, degree=degree, seed=0, cases=20, generators=5)
    assert report.passed, report.failures
    assert built and max(built) <= degree


def _expand_e1_degree_3() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["expand", "e", "1", "--degree", "3"]) == 0
    return out.getvalue()


def test_eulerian_checks_the_ascent_table_against_convolutions(monkeypatch):
    # count one ascent too many on the word 21: every closed form agrees with
    # every other, but not with the convolution powers of I; the streamed
    # ``expand`` reads the same enumeration, so its output changes too
    real = series.packed_words_with_ascents

    def wrong(n, max_non_ascents):
        return ((w, a + (w == (2, 1))) for w, a in real(n, max_non_ascents))

    right = _expand_e1_degree_3()
    monkeypatch.setattr(series, "packed_words_with_ascents", wrong)
    for cached in (series.adams, series.eulerian_idempotent):
        cached.cache_clear()
    try:
        report = run_suite("eulerian", degree=4, seed=0, cases=1, generators=5)
        assert _expand_e1_degree_3() != right
    finally:
        for cached in (series.adams, series.eulerian_idempotent):
            cached.cache_clear()
    details = [f.detail for f in report.failures]
    assert "idempotents sum to the identity" in details
    assert "spectral decomposition at k=2" in details
    assert report.count == BATTERY["4/3"]["0"]["eulerian"]
