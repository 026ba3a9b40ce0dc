"""The text and JSON output: canonical order, exact coefficient strings, and
byte equality with the per-term renderers they replaced.

The oracles below are the former renderers: a per-term loop that formats
every coefficient anew, and a dict per term passed to ``json.dumps``.  The
renderers under test format each distinct coefficient object once, so the
strategies draw terms that share coefficient objects.
"""

import json
from fractions import Fraction
from itertools import groupby

from hypothesis import given
from hypothesis import strategies as st

from wqsym.algebra import TensorSquare, WQSymElement, format_terms
from wqsym.params import ParamPoly
from wqsym.qshuffle import AElement, QSElement
from wqsym.qsym import QSymElement, sigma_hat_series
from wqsym.serialization import coeff_to_str, element_to_obj, series_to_obj
from wqsym.series import TruncatedSeries, adams, eulerian_idempotent
from wqsym.words import pack

E = WQSymElement.monomial


# -- the oracles -------------------------------------------------------------


def format_terms_oracle(sorted_terms, key_fmt) -> str:
    chunks = []
    for key, coeff in sorted_terms:
        if isinstance(coeff, ParamPoly):
            body = f"({coeff})*{key_fmt(key)}"
        elif coeff == 1:
            body = key_fmt(key)
        elif coeff == -1:
            body = f"-{key_fmt(key)}"
        else:
            body = f"{coeff}*{key_fmt(key)}"
        if chunks:
            if body.startswith("-"):
                chunks.append(" - " + body[1:])
            else:
                chunks.append(" + " + body)
        else:
            chunks.append(body)
    return "".join(chunks) or "0"


def letters_oracle(w) -> str:
    return ",".join(map(str, w))


def word_str_oracle(w) -> str:
    return "M[%s]" % letters_oracle(w)


def monomial_oracle(m) -> str:
    return "*".join(name if e == 1 else "%s^%d" % (name, e) for name, e in m)


def tensor_word_oracle(word) -> str:
    return "(%s)" % " x ".join(map(monomial_oracle, word)) if word else "1"


def sorted_terms_oracle(f):
    return sorted(f.terms.items(), key=lambda kv: f._sort_key(kv[0]))


def graded_oracle(s: TruncatedSeries):
    return groupby(sorted_terms_oracle(s.element), key=lambda t: len(t[0]))


def series_text_oracle(s: TruncatedSeries) -> str:
    if not s.element:
        return f"0 (cutoff {s.cutoff})"
    return "\n".join(f"{d}: {format_terms_oracle(terms, word_str_oracle)}" for d, terms in graded_oracle(s))


def terms_obj_oracle(sorted_terms) -> dict:
    terms = [{"word": list(key), "coeff": coeff_to_str(c)} for key, c in sorted_terms]
    return {"basis": "WQSym-M", "terms": terms}


def compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def element_json_oracle(f: WQSymElement) -> str:
    return compact(terms_obj_oracle(sorted_terms_oracle(f)))


def series_json_oracle(s: TruncatedSeries) -> str:
    components = {str(d): terms_obj_oracle(terms) for d, terms in graded_oracle(s)}
    return compact({"cutoff": s.cutoff, "components": components})


# -- strategies --------------------------------------------------------------

packed_words = st.lists(st.integers(1, 4), max_size=4).map(pack)
rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 12))
unit_signs = st.sampled_from([Fraction(1), Fraction(-1)])
polys = st.dictionaries(
    st.sampled_from([(), (("t", 1),), (("t", 2),), (("x", 1), ("y", 2))]),
    rationals,
    min_size=1,
    max_size=3,
).map(ParamPoly)
coefficients = st.one_of(unit_signs, rationals, polys)


@st.composite
def shared_terms(draw, words=packed_words, max_size=12):
    """A dict of terms whose coefficients are drawn from a pool of at most
    three objects, so that many terms share one coefficient object."""
    pool = draw(st.lists(coefficients, min_size=1, max_size=3))
    keys = draw(st.lists(words, max_size=max_size, unique=True))
    return {w: pool[draw(st.integers(0, len(pool) - 1))] for w in keys}


elements = shared_terms().map(WQSymElement._raw)
monomials = st.dictionaries(st.sampled_from("abc"), st.integers(1, 3), min_size=1).map(lambda d: tuple(sorted(d.items())))


@st.composite
def series(draw):
    cutoff = draw(st.integers(0, 4))
    terms = draw(shared_terms(st.lists(st.integers(1, 4), max_size=cutoff).map(pack)))
    return TruncatedSeries._raw(cutoff, WQSymElement._raw(terms))


# -- agreement with the oracles ----------------------------------------------


@given(elements)
def test_element_text_and_json_equal_the_oracles(f):
    assert str(f) == format_terms_oracle(sorted_terms_oracle(f), word_str_oracle)
    assert element_to_obj(f) == element_json_oracle(f)


@given(series())
def test_series_text_and_json_equal_the_oracles(s):
    assert str(s) == series_text_oracle(s)
    assert series_to_obj(s) == series_json_oracle(s)


@given(shared_terms())
def test_fresh_coefficient_objects_render_like_the_oracle(terms):
    # each coefficient is a new object that nothing else holds: an id freed
    # by one term must not be read back as another term's coefficient
    pairs = [(w, c if isinstance(c, ParamPoly) else (c.numerator, c.denominator)) for w, c in terms.items()]

    def fresh():
        for w, c in pairs:
            yield w, c if isinstance(c, ParamPoly) else Fraction(*c)

    assert "".join(format_terms(fresh(), WQSymElement._key_str)) == format_terms_oracle(fresh(), word_str_oracle)


@given(shared_terms(st.tuples(packed_words, packed_words)))
def test_tensor_square_text_equals_the_oracle(terms):
    f = TensorSquare._raw(terms)
    fmt = lambda p: "M[%s]xM[%s]" % (letters_oracle(p[0]), letters_oracle(p[1]))
    assert str(f) == format_terms_oracle(sorted_terms_oracle(f), fmt)


@given(shared_terms(st.lists(st.integers(1, 12), max_size=4).map(tuple)))
def test_composition_text_equals_the_oracle(terms):
    f = QSymElement._raw(terms)
    fmt = lambda I: "M(%s)" % letters_oracle(I)
    assert str(f) == format_terms_oracle(sorted_terms_oracle(f), fmt)


@given(shared_terms(monomials))
def test_base_algebra_text_equals_the_oracle(terms):
    f = AElement._raw(terms)
    assert str(f) == format_terms_oracle(sorted_terms_oracle(f), monomial_oracle)


@given(shared_terms(st.lists(monomials, max_size=3).map(tuple)))
def test_tensor_word_text_equals_the_oracle(terms):
    f = QSElement._raw(terms)
    assert str(f) == format_terms_oracle(sorted_terms_oracle(f), tensor_word_oracle)


def test_quasi_shuffle_text():
    x, y = AElement.generator("x"), AElement.generator("y")
    a, b = QSElement.generator("a"), QSElement.generator("b")
    assert str(x * y * y - 2 * x) == "-2*x + x*y^2"
    assert str(QSElement.unit() - a * b) == "1 - (a*b) - (a x b) - (b x a)"
    assert str(QSElement.zero()) == "0"


def test_built_series_equal_the_oracles():
    t = ParamPoly.var("t")
    for s in (adams(3, 5), eulerian_idempotent(2, 5), sigma_hat_series(t, 4), TruncatedSeries.zero(0)):
        assert str(s) == series_text_oracle(s)
        assert series_to_obj(s) == series_json_oracle(s)


# -- the expected objects ----------------------------------------------------


def test_element_round_trip_and_order():
    f = E((2, 1)) - Fraction(1, 2) * E((1, 1)) + 3 * E((1,))
    obj = json.loads(element_to_obj(f))
    assert obj["basis"] == "WQSym-M"
    assert [t["word"] for t in obj["terms"]] == [[1], [1, 1], [2, 1]]
    assert obj["terms"][0]["coeff"] == "3/1"
    assert obj["terms"][1]["coeff"] == "-1/2"


def test_series_round_trip():
    s = adams(2, 3)
    obj = json.loads(series_to_obj(s))
    assert obj["cutoff"] == 3
    assert list(obj["components"]) == ["0", "1", "2", "3"]


def test_param_coefficients_serialize_as_strings():
    t = ParamPoly.var("t")
    f = E((1, 2), t * t)
    obj = json.loads(element_to_obj(f))
    assert obj["terms"][0]["coeff"] == "t^2"


def test_integer_and_fraction_coefficients_serialize_as_quotients():
    coeffs = (3, -2, 0, Fraction(-1, 2), Fraction(4, 2))
    assert [coeff_to_str(c) for c in coeffs] == ["3/1", "-2/1", "0/1", "-1/2", "2/1"]


def test_empty_element():
    assert json.loads(element_to_obj(WQSymElement.zero())) == {"basis": "WQSym-M", "terms": []}


def test_series_with_no_components():
    s = TruncatedSeries.zero(0)
    assert json.loads(series_to_obj(s)) == {"cutoff": 0, "components": {}}
    assert str(s) == "0 (cutoff 0)"
