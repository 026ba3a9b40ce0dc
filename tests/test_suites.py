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
from wqsym.algebra import TensorSquare, WQSymElement
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


# -- the internal and hopf suites memoise products; a broken one still shows --


def test_a_wrong_internal_product_fails_associativity(monkeypatch):
    # mono[u] @ mono[v] is built once per pair: a wrong value for one pair
    # must still fail every check that reads it
    real = WQSymElement.__matmul__
    u, v = (1, 2, 1), (2, 1)

    def wrong(self, other):
        out = real(self, other)
        return out + out if list(self.terms) == [u] and list(other.terms) == [v] else out

    monkeypatch.setattr(WQSymElement, "__matmul__", wrong)
    report = run_suite("internal", 4, 0, 3, 5)
    details = [f.detail for f in report.failures]
    assert f"associativity at {u},{v},(1, 1)" in details
    assert all(d.startswith("associativity at ") for d in details)
    assert report.count == BATTERY["4/3"]["0"]["internal"]


def test_a_wrong_coproduct_fails_coassociativity(monkeypatch):
    # the coproduct of each leg word is built once per run: one split dropped
    # from one word must fail wherever that word is a leg (the wrong
    # coproduct of (1, 2, 1) alone is still coassociative)
    real = WQSymElement.coproduct
    u = (1, 2, 1)

    def wrong(self):
        out = real(self)
        if list(self.terms) == [u]:
            terms = dict(out.terms)
            del terms[(1, 1), (1,)]
            return TensorSquare._raw(terms)
        return out

    monkeypatch.setattr(WQSymElement, "coproduct", wrong)
    report = run_suite("hopf", 4, 0, 3, 5)
    details = [f.detail for f in report.failures]
    # (1, 2, 1, 3) splits into the legs (1, 2, 1) and (1,)
    assert "coassociativity at (1, 2, 1, 3)" in details


def _calls(monkeypatch, name, suite):
    """The calls of ``WQSymElement.<name>`` in ``suite`` at degree 5, 100 cases."""
    real, calls = getattr(WQSymElement, name), [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(WQSymElement, name, counted)
    report = run_suite(suite, 5, 0, 100, 5)
    assert report.passed, report.failures
    return calls[0]


def test_internal_builds_each_product_of_two_monomials_once(monkeypatch):
    # 182 094 calls when mono[v] @ mono[w] was rebuilt for every u
    assert _calls(monkeypatch, "__matmul__", "internal") <= 122_294


def test_hopf_builds_each_leg_coproduct_once(monkeypatch):
    # 7 565 calls when each leg word's coproduct was rebuilt at each appearance
    assert _calls(monkeypatch, "coproduct", "hopf") <= 2_249
