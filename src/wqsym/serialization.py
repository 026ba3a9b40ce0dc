"""The JSON of elements and series that ``wqsym --format json`` prints.

The JSON is written as compact text (``json.dumps`` with
``separators=(",", ":")`` of the objects described below), in chunks of
terms in canonical order, by the writer that comes with each degree's
coefficient table: :func:`series_json` renders a series from its graded
terms, so ``wqsym expand`` streams a named series from the packed-word
enumeration without building it, one chunk per prefix of a word, and a
built element or series is one chunk per degree.  :func:`element_to_obj`
and :func:`series_to_obj` join the chunks of a built value; they keep their
names because the benchmark's tracer patches them by name.  An element is
``{"basis": "WQSym-M", "terms": [{"word": [...], "coeff": "p/q"}, ...]}``
and a series is ``{"cutoff": n, "components": {"d": element, ...}}`` over
its nonzero degrees.
Coefficients are strings in lowest terms ("p/q"); the powers of t that
``expand sigma_t`` prints are strings in their canonical form ("t^2").  All term lists are emitted
in canonical order so identical values produce identical bytes.  Nothing
reads this JSON back.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import WQSymElement
from .params import ParamPoly
from .series import TruncatedSeries, indexed_terms


def coeff_to_str(c) -> str:
    if isinstance(c, ParamPoly):
        return str(c)
    if type(c) is not Fraction:
        c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def _terms_json(table, chunks):
    """The element object of terms given as a coefficient table and their
    writer, as a series' ``graded_terms`` yields them, in chunks of text.  The
    text after each word is made once per coefficient index."""
    yield '{"basis":"WQSym-M","terms":['
    texts = [("", ",", '],"coeff":' + json.dumps(coeff_to_str(c)) + "}") if c else None for c in table]
    yield from chunks('{"word":[', texts)
    yield "]}"


def series_json(cutoff: int, graded):
    """The series object, in chunks of text, from its cutoff and its graded
    terms as :meth:`wqsym.series.Characteristic.graded_terms` or
    :meth:`TruncatedSeries.graded_terms` yields them."""
    yield '{"cutoff":' + str(cutoff) + ',"components":{'
    sep = ""
    for d, table, chunks in graded:
        yield f'{sep}"{d}":'
        yield from _terms_json(table, chunks)
        sep = ","
    yield "}}"


def element_to_obj(f: WQSymElement) -> str:
    return "".join(_terms_json(*indexed_terms(f.sorted_keys(), f.terms)))


def series_to_obj(s: TruncatedSeries) -> str:
    return "".join(series_json(s.cutoff, s.graded_terms()))
