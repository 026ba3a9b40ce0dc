"""Expression parser and evaluator used by the eval command."""

from fractions import Fraction

import pytest

from wqsym.algebra import WQSymElement, embed_sym_hat, embed_sym_standard, ribbon_standard
from wqsym.errors import BasisMismatch, CapExceeded, ExpressionError
from wqsym.expressions import evaluate, parse
from wqsym.series import Characteristic, TruncatedSeries, adams, eulerian_idempotent, identity_series

E = WQSymElement.monomial


def ev(text, cutoff=5):
    """``evaluate``, with a value held as coordinates built as its series."""
    value = evaluate(text, cutoff=cutoff)
    return value.series() if isinstance(value, Characteristic) else value


def test_product_examples():
    got = ev("M[1,1] * M[2,1]")
    assert got == E((1, 1)) * E((2, 1))
    assert ev("M[1,1] @ M[1,2]") == WQSymElement.zero()
    assert ev("(M[1,1] & M[2,1]) @ hatS[1,2]") == ev("M[1,1] * M[2,1]")


def test_literals():
    assert ev("M[]") == WQSymElement.unit()
    assert ev("S[2,1]") == embed_sym_standard((2, 1))
    assert ev("R[1,1]") == ribbon_standard((1, 1))
    assert ev("hatS[3]") == embed_sym_hat((3,))
    assert ev("hatR[2]") == ev("hatS[2]")
    assert ev("hatR[1,1]") == ev("hatS[1,1] - hatS[2]")
    assert ev("I") == identity_series(5)
    assert ev("Psi(2)", cutoff=3) == adams(2, 3)
    assert ev("e(1)", cutoff=3) == eulerian_idempotent(1, 3)


def test_scalars_and_precedence():
    assert ev("1/2 + 1/3") == Fraction(5, 6)
    assert ev("2 * M[1] - M[1]") == E((1,))
    assert ev("-M[1] + M[1]") == WQSymElement.zero()
    assert ev("M[1] * M[1] * M[1] - M[1] * (M[1] * M[1])") == WQSymElement.zero()
    assert ev("1/2 * (M[1,2] + M[2,1])") == Fraction(1, 2) * (E((1, 2)) + E((2, 1)))


def test_scalars_embed_as_unit_multiples():
    assert ev("2 + M[1]") == 2 * WQSymElement.unit() + E((1,))
    assert ev("2 @ M[]") == 2 * WQSymElement.unit()
    assert ev("M[1,1] @ 3") == WQSymElement.zero()  # arity mismatch against the unit


def test_series_arithmetic():
    assert ev("I * I", cutoff=3) == adams(2, 3)
    assert ev("Psi(2) @ Psi(3)", cutoff=3) == adams(6, 3)
    assert ev("I - I", cutoff=2) == TruncatedSeries.zero(2)
    # finite elements promote to the series cutoff
    assert ev("M[] + I - I", cutoff=2) == TruncatedSeries.unit(2)
    got = ev("M[1] * I", cutoff=3)
    assert got == TruncatedSeries.from_element(E((1,)), 3) * identity_series(3)


def test_bullet_with_series_is_rejected():
    with pytest.raises(BasisMismatch):
        ev("M[1,1] & I")
    with pytest.raises(BasisMismatch):
        ev("I & M[1,1]")


def test_parse_errors():
    for bad in ("M[1,", "M[1,3]", "Q[1]", "M[1] +", "(M[1]", "M[1] ** M[1]", "Psi(1,2)", "1/0"):
        with pytest.raises(ExpressionError):
            ev(bad)


def test_degree_cap(monkeypatch):
    monkeypatch.setenv("WQSYM_MAX_DEGREE", "7")
    with pytest.raises(CapExceeded):
        ev("M[1,2,3,4] * M[1,2,3,4]")
    with pytest.raises(CapExceeded):
        ev("M[1,2,3,4,5,6,7,8]")
    monkeypatch.setenv("WQSYM_MAX_DEGREE", "8")
    assert ev("M[1,2,3,4] * M[1,2,3,4]").degrees() == [8]


def test_parse_tree_shape():
    tree = parse("M[1] + 2 * M[2,1]")
    assert tree[0] == "add"
    assert tree[1] == ("literal", "M", (1,))
    assert tree[2][0] == "outer"
