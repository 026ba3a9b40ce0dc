"""Every test starts from the default degree cap, whatever the shell exports;
a test that needs another cap sets ``WQSYM_MAX_DEGREE`` itself.

The ``staircase`` fixture builds the identity series I word by word, so that
the tests of the closed forms that I is one of do not take I from them.  The
``reduced`` fixture checks the form every element is held in."""

import math

import pytest

from wqsym.algebra import WQSymElement
from wqsym.series import TruncatedSeries


@pytest.fixture(autouse=True)
def default_degree_cap(monkeypatch):
    monkeypatch.delenv("WQSYM_MAX_DEGREE", raising=False)


@pytest.fixture
def staircase():
    """``staircase(n)``: the series with the word 1 2 .. d in each degree d <= n."""

    def build(n):
        return TruncatedSeries(n, {d: WQSymElement.monomial(tuple(range(1, d + 1))) for d in range(n + 1)})

    return build


@pytest.fixture(scope="session")
def reduced():
    """``reduced(x)``: whether the element ``x`` holds nonzero int numerators
    over a positive int denominator that shares no factor with them all."""

    def check(x):
        numerators = list(x.terms.values())
        return (
            type(x.den) is int
            and x.den >= 1
            and all(type(n) is int and n for n in numerators)
            and math.gcd(x.den, *numerators) == 1
        )

    return check
