"""The JSON of elements and series that ``wqsym --format json`` prints.

The JSON is written as compact text (``json.dumps`` with
``separators=(",", ":")`` of the objects described below), in chunks, one
per term, straight from an iterator over the terms in canonical order:
:func:`series_json` renders a series from its graded terms, so ``wqsym
expand`` streams a named series from the packed-word enumeration without
building it.  :func:`element_to_obj` and :func:`series_to_obj` join the
chunks of a built value; they keep their names because the benchmark's
tracer patches them by name.  An element is ``{"basis": "WQSym-M", "terms":
[{"word": [...], "coeff": "p/q"}, ...]}`` and a series is ``{"cutoff": n,
"components": {"d": element, ...}}`` over its nonzero degrees.
Coefficients are strings in lowest terms ("p/q"); parameter-polynomial
coefficients print their canonical string form.  All term lists are emitted
in canonical order so identical values produce identical bytes.  Nothing
reads this JSON back.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import WQSymElement, letters_str
from .params import ParamPoly
from .series import TruncatedSeries


def coeff_to_str(c) -> str:
    if isinstance(c, ParamPoly):
        return str(c)
    if type(c) is not Fraction:
        c = Fraction(c)
    return f"{c.numerator}/{c.denominator}"


def _terms_json(sorted_terms):
    """The element object of ``(word, coefficient)`` pairs, in chunks of text,
    one per term.  The text after each word is made once per distinct
    coefficient object; ``tails`` holds the object, so no id is reused while
    the chunks are made."""
    yield '{"basis":"WQSym-M","terms":['
    tails: dict = {}
    sep = ""
    for w, c in sorted_terms:
        entry = tails.get(id(c))
        if entry is None:
            entry = tails[id(c)] = ('],"coeff":' + json.dumps(coeff_to_str(c)) + "}", c)
        yield sep + '{"word":[' + letters_str(w) + entry[0]
        sep = ","
    yield "]}"


def series_json(cutoff: int, graded):
    """The series object, in chunks of text, from its cutoff and its graded
    terms as :meth:`TruncatedSeries.graded_terms` yields them."""
    yield '{"cutoff":' + str(cutoff) + ',"components":{'
    sep = ""
    for d, terms in graded:
        yield f'{sep}"{d}":'
        yield from _terms_json(terms)
        sep = ","
    yield "}}"


def element_to_obj(f: WQSymElement) -> str:
    return "".join(_terms_json(f.sorted_terms()))


def series_to_obj(s: TruncatedSeries) -> str:
    return "".join(series_json(s.cutoff, s.graded_terms()))
