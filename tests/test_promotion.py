"""The one scalar-promotion rule: for every combination whose unit is the
empty key, a scalar operand of ``+``, ``-`` or ``==`` is that multiple of the
unit; a series refuses the bullet product; and ``eval`` computes what the
operators compute when each scalar literal is read as ``c*M[]``."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.algebra import WQSymElement
from wqsym.errors import BasisMismatch
from wqsym.expressions import evaluate
from wqsym.params import ParamPoly
from wqsym.qshuffle import QSElement
from wqsym.qsym import QSymElement
from wqsym.series import TruncatedSeries, adams, eulerian_idempotent, identity_series
from wqsym.words import pack

T = ParamPoly.var("t")

# zero, ints and Fractions from a small range, so that x == c is sometimes true
rationals = st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2)))
param_polys = st.builds(lambda a, b: a * T + b, rationals, rationals)

KEYS = {
    WQSymElement: st.lists(st.integers(1, 3), max_size=3).map(pack),
    QSElement: st.lists(st.sampled_from([(("a", 1),), (("b", 1),), (("a", 2),)]), max_size=2).map(tuple),
    QSymElement: st.lists(st.integers(1, 3), max_size=3).map(tuple),
    ParamPoly: st.dictionaries(st.sampled_from("tu"), st.integers(0, 2), max_size=2).map(
        lambda exps: tuple(sorted(exps.items()))
    ),
}
UNITAL = list(KEYS)


def scalars(cls):
    """The scalars of ``cls``: a ParamPoly is a scalar of every other class."""
    return rationals if cls is ParamPoly else st.one_of(rationals, param_polys)


def elements(cls):
    """Elements of ``cls``, some of them scalar multiples of the unit."""
    coeffs = scalars(cls)
    return st.one_of(
        st.dictionaries(KEYS[cls], coeffs, max_size=4).map(cls),
        coeffs.map(lambda c: c * cls.unit()),
    )


@pytest.mark.parametrize("cls", UNITAL, ids=lambda cls: cls.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_scalar_is_that_multiple_of_the_unit(cls, data):
    x = data.draw(elements(cls), label="x")
    c = data.draw(scalars(cls), label="c")
    lifted = c * cls.unit()
    assert type(lifted) is cls
    assert x + c == x + lifted and type(x + c) is cls
    assert c + x == lifted + x
    assert x - c == x - lifted and type(x - c) is cls
    assert c - x == lifted - x
    assert (x == c) == (x == lifted)
    assert (c == x) == (lifted == x)
    assert (x != c) == (x != lifted)


@pytest.mark.parametrize("cls", UNITAL, ids=lambda cls: cls.__name__)
def test_unit_is_the_empty_key(cls):
    assert cls.unit().terms == {(): Fraction(1)}
    assert cls.unit() == 1 and cls.zero() == 0 and cls.unit() != 0
    assert cls.unit() + 1 == 2 * cls.unit()


@st.composite
def series(draw):
    cutoff = draw(st.integers(0, 3))
    words = st.lists(st.integers(1, 3), max_size=cutoff).map(pack)
    return TruncatedSeries.from_element(WQSymElement(draw(st.dictionaries(words, rationals, max_size=5))), cutoff)


@settings(max_examples=50, deadline=None)
@given(series(), st.one_of(elements(WQSymElement), series(), rationals))
def test_series_refuse_the_bullet_product(s, x):
    with pytest.raises(BasisMismatch):
        s & x
    with pytest.raises(BasisMismatch):
        x & s


# -- eval against the operators ---------------------------------------------------

CUTOFF = 3
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "@": operator.matmul, "&": operator.and_}


def _apply(fn, *values):
    """``fn`` of the values, or the exception class the first refusal raises."""
    for v in values:
        if isinstance(v, type):
            return v
    try:
        return fn(*values)
    except BasisMismatch:
        return BasisMismatch


leaves = st.one_of(
    st.fractions(min_value=0, max_value=3, max_denominator=3).map(lambda c: (str(c), c * WQSymElement.unit())),
    st.lists(st.integers(1, 2), max_size=2).map(pack).map(
        lambda w: ("M[%s]" % ",".join(map(str, w)), WQSymElement.monomial(w))
    ),
    st.just(("I", identity_series(CUTOFF))),
    st.integers(0, 3).map(lambda k: (f"Psi({k})", adams(k, CUTOFF))),
    st.integers(0, 2).map(lambda i: (f"e({i})", eulerian_idempotent(i, CUTOFF))),
)


def _binary(args):
    sym, (ta, va), (tb, vb) = args
    return f"({ta} {sym} {tb})", _apply(OPERATORS[sym], va, vb)


expressions = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(list(OPERATORS)), children, children).map(_binary),
        children.map(lambda tv: (f"-{tv[0]}", _apply(operator.neg, tv[1]))),
    ),
    max_leaves=3,
)


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_eval_matches_the_operators(expr):
    text, expected = expr
    got = _apply(evaluate, text, CUTOFF)
    assert type(got) is type(expected) and got == expected
