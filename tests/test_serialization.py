"""The JSON output: canonical order and exact coefficient strings."""

from fractions import Fraction

from wqsym.algebra import WQSymElement
from wqsym.params import ParamPoly
from wqsym.serialization import coeff_to_str, element_to_obj, series_to_obj
from wqsym.series import adams

E = WQSymElement.monomial


def test_element_round_trip_and_order():
    f = E((2, 1)) - Fraction(1, 2) * E((1, 1)) + 3 * E((1,))
    obj = element_to_obj(f)
    assert obj["basis"] == "WQSym-M"
    assert [t["word"] for t in obj["terms"]] == [[1], [1, 1], [2, 1]]
    assert obj["terms"][0]["coeff"] == "3/1"
    assert obj["terms"][1]["coeff"] == "-1/2"


def test_series_round_trip():
    s = adams(2, 3)
    obj = series_to_obj(s)
    assert obj["cutoff"] == 3
    assert list(obj["components"]) == ["0", "1", "2", "3"]


def test_param_coefficients_serialize_as_strings():
    t = ParamPoly.var("t")
    f = E((1, 2), t * t)
    obj = element_to_obj(f)
    assert obj["terms"][0]["coeff"] == "t^2"


def test_integer_and_fraction_coefficients_serialize_as_quotients():
    coeffs = (3, -2, 0, Fraction(-1, 2), Fraction(4, 2))
    assert [coeff_to_str(c) for c in coeffs] == ["3/1", "-2/1", "0/1", "-1/2", "2/1"]


def test_empty_element():
    assert element_to_obj(WQSymElement.zero()) == {"basis": "WQSym-M", "terms": []}
