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
from fractions import Fraction
from pathlib import Path

import pytest

from wqsym import series, words
from wqsym.algebra import TensorSquare, WQSymElement
from wqsym.cli import main
from wqsym.params import SparseCombination, mono_mul, monomial
from wqsym.qshuffle import QSElement
from wqsym.qsym import QSymElement
from wqsym.suites import SUITES, SuiteReport, run_suite

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
    # ``expand`` follows the same rule from state to state, so its output
    # changes too.  The prefix 2 of 21 is the one state with last letter 2,
    # maximum 2, letter 1 missing, one letter to come and no non-ascent.
    real = words._children

    def wrong(state, budget):
        for child in real(state, budget):
            if state == (2, 2, 0b10, 1, 1, 0) and child[0] == 1:
                child = (*child[:5], child[5] - 1)
            yield child

    right = _expand_e1_degree_3()
    monkeypatch.setattr(words, "_children", wrong)
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


def _internal_failures(monkeypatch, wrong):
    """The failure texts of internal at 4/3 when ``mono[u] @ mono[v]`` for
    ``u, v = (1, 2, 1), (2, 1)`` (the monomial of (2, 1, 2)) is replaced by
    ``wrong(right value)``; every other product stays right."""
    real = WQSymElement.__matmul__
    u, v = (1, 2, 1), (2, 1)

    def patched(self, other):
        out = real(self, other)
        return wrong(out) if list(self.terms) == [u] and list(other.terms) == [v] else out

    monkeypatch.setattr(WQSymElement, "__matmul__", patched)
    report = run_suite("internal", 4, 0, 3, 5)
    assert report.count == BATTERY["4/3"]["0"]["internal"]
    details = [f.detail for f in report.failures]
    assert all(d.startswith("associativity at ") for d in details)
    return details


def test_a_wrong_internal_product_fails_associativity(monkeypatch):
    # mono[u] @ mono[v] is built once per pair: a wrong value for one pair
    # must still fail every check that reads it
    assert "associativity at (1, 2, 1),(2, 1),(1, 1)" in _internal_failures(monkeypatch, lambda out: out + out)


def test_a_wrong_unit_monomial_product_fails_associativity(monkeypatch):
    # a product that is a basis monomial mono[x] is followed by the memo's
    # product with x: a wrong monomial for one pair takes that path
    assert WQSymElement.monomial((1, 2, 1)) @ WQSymElement.monomial((2, 1)) == WQSymElement.monomial((2, 1, 2))
    details = _internal_failures(monkeypatch, lambda out: WQSymElement.monomial((1, 1, 1)))
    assert "associativity at (1, 2, 1),(2, 1),(1, 1)" in details


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


def test_a_fractional_coproduct_fails_coassociativity(monkeypatch):
    # one split of (1, 2, 1) carries 1/2 instead of 1: coassociativity sums
    # the legs' coefficients as int numerators, so a route that dropped their
    # denominators would read 1/2 as 1 and pass
    real = WQSymElement.coproduct
    u = (1, 2, 1)

    def wrong(self):
        out = real(self)
        if list(self.terms) == [u]:
            terms = dict(out.terms)
            terms[(1, 1), (1,)] = Fraction(1, 2)
            return TensorSquare._raw(terms)
        return out

    monkeypatch.setattr(WQSymElement, "coproduct", wrong)
    report = run_suite("hopf", 4, 0, 3, 5)
    details = [f.detail for f in report.failures]
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
    # 182 094 calls when mono[v] @ mono[w] was rebuilt for every u, and
    # 122 294 when a product that is a basis monomial was multiplied again
    assert _calls(monkeypatch, "__matmul__", "internal") <= 2_871


def test_hopf_builds_each_leg_coproduct_once(monkeypatch):
    # 7 565 calls when each leg word's coproduct was rebuilt at each
    # appearance, and 2 249 when multiplicativity rebuilt both factors'
    assert _calls(monkeypatch, "coproduct", "hopf") <= 961


# -- e1-kernel merges each pair of letters once per action; a wrong merge still shows --


def _merges(monkeypatch, merge):
    """The report of e1-kernel at degree 5, 100 cases, with ``QSElement._merge``
    replaced by ``merge``, and the number of its calls."""
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return merge(a, b)

    monkeypatch.setattr(QSElement, "_merge", staticmethod(counted))
    return run_suite("e1-kernel", 5, 0, 100, 5), calls[0]


def test_e1_kernel_merges_each_pair_of_letters_once_per_action(monkeypatch):
    # 25 472 calls when each key of x * y merged its own letters
    report, calls = _merges(monkeypatch, mono_mul)
    assert report.passed, report.failures
    assert calls <= 6_064


def test_a_wrong_letter_product_fails_e1_kernel(monkeypatch):
    # g1 * g2, wrong in both orders: the merge stays commutative but is no
    # longer associative, so e_1 no longer kills the products that meet it
    g1, g2 = monomial(("g1", 1)), monomial(("g2", 1))

    def wrong(a, b):
        out = mono_mul(a, b)
        return mono_mul(out, g1) if {a, b} == {g1, g2} else out

    report, _ = _merges(monkeypatch, wrong)
    assert [f.detail for f in report.failures] == [
        "kernel at (3,2)",
        "kernel at (2,3)",
        "kernel at (3,2)",
        "kernel at (1,3)",
        "kernel at (3,1)",
        "kernel at (3,1)",
        "kernel at (1,2)",
        "kernel at (2,3)",
        "kernel at (2,2)",
    ]


# -- SuiteReport.check formats a failure's text only when the check fails --


def test_a_passing_check_formats_nothing():
    formatted = []

    class Loud:
        def __format__(self, spec):
            formatted.append(spec)
            return "loud"

    report = SuiteReport("internal", 4, 0, 3, 5)
    report.check(True, "associativity at {},{},{}", Loud(), Loud(), Loud())
    assert formatted == [] and report.passed and report.count == 1


def test_a_failing_check_gives_the_f_string_text():
    u, v, w = (1, 2, 1), (2, 1), ()
    report = SuiteReport("internal", 4, 0, 3, 5)
    report.check(False, "associativity at {},{},{}", u, v, w)
    report.check(False, "a {literal} text")
    assert [f.detail for f in report.failures] == [f"associativity at {u},{v},{w}", "a {literal} text"]
    assert [f.check for f in report.failures] == [0, 1]
