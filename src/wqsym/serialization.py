"""The JSON of elements and series that ``wqsym --format json`` prints.

Coefficients are strings in lowest terms ("p/q"); parameter-polynomial
coefficients print their canonical string form.  All term lists are emitted in
canonical order so identical values produce identical bytes.  Nothing reads
this JSON back.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import WQSymElement
from .params import ParamPoly
from .series import TruncatedSeries


def coeff_to_str(c) -> str:
    if isinstance(c, ParamPoly):
        return str(c)
    if type(c) is not Fraction:
        c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def _terms_to_obj(basis: str, sorted_terms) -> dict:
    terms = [{"word": list(key), "coeff": coeff_to_str(c)} for key, c in sorted_terms]
    return {"basis": basis, "terms": terms}


def element_to_obj(f: WQSymElement) -> dict:
    return _terms_to_obj("WQSym-M", f.sorted_terms())


def series_to_obj(s: TruncatedSeries) -> dict:
    return {
        "cutoff": s.cutoff,
        "components": {str(d): _terms_to_obj("WQSym-M", terms) for d, terms in s.graded_terms()},
    }

