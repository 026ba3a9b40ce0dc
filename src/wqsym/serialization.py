"""JSON wire formats shared by the library and the command line.

Coefficients are strings in lowest terms ("p/q"); parameter-polynomial
coefficients serialize through their canonical string form and are meant for
display, not round-tripping.  All term lists are emitted in canonical order
so identical values produce identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import WQSymElement
from .params import ParamPoly
from .qshuffle import QSElement
from .qsym import QSymElement, WeightReport
from .series import TruncatedSeries


def coeff_to_str(c) -> str:
    if isinstance(c, ParamPoly):
        return str(c)
    if type(c) is not Fraction:
        c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def coeff_from_str(s: str) -> Fraction:
    return Fraction(s)


def _terms_to_obj(basis: str, sorted_terms) -> dict:
    terms = [{"word": list(key), "coeff": coeff_to_str(c)} for key, c in sorted_terms]
    return {"basis": basis, "terms": terms}


def _terms_from_obj(obj: dict, basis: str, cls):
    if obj.get("basis") != basis:
        raise ValueError(f"expected basis {basis}, got {obj.get('basis')!r}")
    terms: dict = {}
    for t in obj["terms"]:
        key = tuple(t["word"])
        terms[key] = terms.get(key, Fraction(0)) + coeff_from_str(t["coeff"])
    return cls(terms)


def element_to_obj(f: WQSymElement) -> dict:
    return _terms_to_obj("WQSym-M", f.sorted_terms())


def element_from_obj(obj: dict) -> WQSymElement:
    return _terms_from_obj(obj, "WQSym-M", WQSymElement)


def qsym_to_obj(f: QSymElement) -> dict:
    return _terms_to_obj("QSym-M", f.sorted_terms())


def qsym_from_obj(obj: dict) -> QSymElement:
    return _terms_from_obj(obj, "QSym-M", QSymElement)


def series_to_obj(s: TruncatedSeries) -> dict:
    return {
        "cutoff": s.cutoff,
        "components": {str(d): _terms_to_obj("WQSym-M", terms) for d, terms in s.graded_terms()},
    }


def series_from_obj(obj: dict) -> TruncatedSeries:
    comps = {int(d): element_from_obj(el) for d, el in obj["components"].items()}
    return TruncatedSeries(int(obj["cutoff"]), comps)


def qs_element_to_obj(x: QSElement, generators) -> dict:
    generators = sorted(str(g) for g in generators)
    known = set(generators)
    for word, _ in x.terms.items():
        for mono in word:
            for name, _e in mono:
                if name not in known:
                    raise ValueError(f"term uses generator {name!r} outside {generators}")
    return {
        "generators": generators,
        "terms": [
            {
                "tensor": [[[name, e] for name, e in mono] for mono in word],
                "coeff": coeff_to_str(c),
            }
            for word, c in x.sorted_terms()
        ],
    }


def qs_element_from_obj(obj: dict) -> QSElement:
    known = set(obj.get("generators", []))
    terms: dict = {}
    for t in obj["terms"]:
        word = tuple(tuple((name, int(e)) for name, e in mono) for mono in t["tensor"])
        for mono in word:
            for name, _e in mono:
                if known and name not in known:
                    raise ValueError(f"unknown generator {name!r}")
        terms[word] = terms.get(word, Fraction(0)) + coeff_from_str(t["coeff"])
    return QSElement(terms)


def weight_report_to_obj(r: WeightReport) -> dict:
    return {
        "weight": r.weight,
        "lyndon": [list(I) for I in r.lyndon],
        "rank": r.rank,
        "dimension": r.dimension,
        "full_rank": r.full_rank,
    }
