"""The JSON of elements and series that ``wqsym --format json`` prints.

:func:`element_to_obj` and :func:`series_to_obj` return that JSON as compact
text (``json.dumps`` with ``separators=(",", ":")`` of the objects described
below), written in one pass over the canonically sorted words; they keep
their names because the benchmark's tracer patches them by name.  An element
is ``{"basis": "WQSym-M", "terms": [{"word": [...], "coeff": "p/q"}, ...]}``
and a series is ``{"cutoff": n, "components": {"d": element, ...}}`` over its
nonzero degrees.  Coefficients are strings in lowest terms ("p/q");
parameter-polynomial coefficients print their canonical string form.  All
term lists are emitted in canonical order so identical values produce
identical bytes.  Nothing reads this JSON back.
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


def _terms_json(sorted_terms) -> str:
    """The element object of ``(word, coefficient)`` pairs.  The text after
    each word is made once per distinct coefficient object; ``tails`` holds
    the object, so no id is reused during the call."""
    tails: dict = {}
    parts = []
    for w, c in sorted_terms:
        entry = tails.get(id(c))
        if entry is None:
            entry = tails[id(c)] = ('],"coeff":' + json.dumps(coeff_to_str(c)) + "}", c)
        parts.append('{"word":[' + letters_str(w) + entry[0])
    return '{"basis":"WQSym-M","terms":[' + ",".join(parts) + "]}"


def element_to_obj(f: WQSymElement) -> str:
    return _terms_json(f.sorted_terms())


def series_to_obj(s: TruncatedSeries) -> str:
    components = ",".join(f'"{d}":' + _terms_json(terms) for d, terms in s.graded_terms())
    return '{"cutoff":' + str(s.cutoff) + ',"components":{' + components + "}}"
