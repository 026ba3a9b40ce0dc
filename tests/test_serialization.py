"""JSON wire formats: canonical order and exact round-trips."""

import json
from fractions import Fraction

import pytest

from wqsym.algebra import WQSymElement
from wqsym.params import ParamPoly
from wqsym.qshuffle import AElement, QSElement, tensor
from wqsym.qsym import QSymElement, lyndon_generator_report
from wqsym.serialization import (
    coeff_to_str,
    element_from_obj,
    element_to_obj,
    qs_element_from_obj,
    qs_element_to_obj,
    qsym_from_obj,
    qsym_to_obj,
    series_from_obj,
    series_to_obj,
    weight_report_to_obj,
)
from wqsym.series import adams

E = WQSymElement.monomial


def test_element_round_trip_and_order():
    f = E((2, 1)) - Fraction(1, 2) * E((1, 1)) + 3 * E((1,))
    obj = element_to_obj(f)
    assert obj["basis"] == "WQSym-M"
    assert [t["word"] for t in obj["terms"]] == [[1], [1, 1], [2, 1]]
    assert obj["terms"][0]["coeff"] == "3/1"
    assert obj["terms"][1]["coeff"] == "-1/2"
    assert element_from_obj(obj) == f
    assert element_from_obj(json.loads(json.dumps(obj))) == f


def test_element_obj_rejects_wrong_basis():
    with pytest.raises(ValueError):
        element_from_obj({"basis": "QSym-M", "terms": []})


def test_series_round_trip():
    s = adams(2, 3)
    obj = series_to_obj(s)
    assert obj["cutoff"] == 3
    assert list(obj["components"]) == ["0", "1", "2", "3"]
    assert series_from_obj(json.loads(json.dumps(obj))) == s


def test_qsym_round_trip():
    f = QSymElement.monomial((2, 1)) - QSymElement.monomial((3,), Fraction(5, 3))
    obj = qsym_to_obj(f)
    assert obj["basis"] == "QSym-M"
    assert qsym_from_obj(json.loads(json.dumps(obj))) == f


def test_qs_element_round_trip():
    a, b = AElement.generator("g1"), AElement.generator("g2")
    x = tensor(a * a * b, b) - 2 * tensor(b)
    obj = qs_element_to_obj(x, ["g1", "g2"])
    assert obj["generators"] == ["g1", "g2"]
    first = obj["terms"][0]
    assert first["tensor"] == [[["g2", 1]]]
    assert qs_element_from_obj(json.loads(json.dumps(obj))) == x


def test_qs_element_generator_validation():
    x = tensor(AElement.generator("g9"))
    with pytest.raises(ValueError):
        qs_element_to_obj(x, ["g1"])
    with pytest.raises(ValueError):
        qs_element_from_obj(
            {"generators": ["g1"], "terms": [{"tensor": [[["g7", 1]]], "coeff": "1/1"}]}
        )


def test_param_coefficients_serialize_as_strings():
    t = ParamPoly.var("t")
    f = E((1, 2), t * t)
    obj = element_to_obj(f)
    assert obj["terms"][0]["coeff"] == "t^2"


def test_integer_and_fraction_coefficients_serialize_as_quotients():
    coeffs = (3, -2, 0, Fraction(-1, 2), Fraction(4, 2))
    assert [coeff_to_str(c) for c in coeffs] == ["3/1", "-2/1", "0/1", "-1/2", "2/1"]


def test_weight_report_obj():
    reports = lyndon_generator_report(3)
    obj = weight_report_to_obj(reports[-1])
    assert obj == {
        "weight": 3,
        "lyndon": [[1, 2], [3]],
        "rank": 4,
        "dimension": 4,
        "full_rank": True,
    }


def test_empty_element():
    assert element_to_obj(WQSymElement.zero()) == {"basis": "WQSym-M", "terms": []}
    assert element_from_obj({"basis": "WQSym-M", "terms": []}) == WQSymElement.zero()
