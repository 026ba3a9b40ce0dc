"""The right action of packed words on tensors and on QSym, against a
per-pair oracle and through the paper's view of QSym as a quasi-shuffle
algebra.

The oracle pairs every key of the module element with every operator word of
the same length and builds the image letter by letter: for tensors the
blockwise product of monomials, for compositions the blockwise sum of parts.
It accumulates with ``Fraction`` (or ``ParamPoly``) arithmetic, one term at a
time, and shares nothing with ``QuasiShuffle.act`` but the element types.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.algebra import WQSymElement, _add_term
from wqsym.errors import CapExceeded
from wqsym.params import ParamPoly
from wqsym.qshuffle import QSElement, mono_mul
from wqsym.qsym import QSymElement
from wqsym.series import TruncatedSeries, adams, eulerian_idempotent

# -- the oracle -------------------------------------------------------------------


def _act_word(word, u):
    """The tensor of monomial products over the blocks of ``u``."""
    if not u:
        return ()
    bins = [None] * max(u)
    for mono, letter in zip(word, u):
        i = letter - 1
        bins[i] = mono if bins[i] is None else mono_mul(bins[i], mono)
    return tuple(bins)  # every bin filled: u is surjective


def _regroup(I, u):
    """The parts of ``I`` summed over the blocks of ``u``."""
    parts = [0] * (max(u) if u else 0)
    for part, letter in zip(I, u):
        parts[letter - 1] += part
    return tuple(parts)


def oracle_act(x, op):
    image = _act_word if isinstance(x, QSElement) else _regroup
    if isinstance(op, TruncatedSeries):
        for key in x.terms:
            if len(key) > op.cutoff:
                raise CapExceeded(f"series cutoff {op.cutoff} cannot act on degree {len(key)}")
        op = op.element
    out = {}
    for key, c in x.terms.items():
        for u, d in op.terms.items():
            if len(u) == len(key):
                _add_term(out, image(key, u), c * d)
    return type(x)._raw(out)


# -- strategies -------------------------------------------------------------------

T = ParamPoly.var("t")

fractions = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
param_polys = st.builds(lambda a, b: a * T + b, fractions, st.integers(-1, 1))
coefficients = {
    "fraction": fractions,
    "parampoly": param_polys,
    "mixed": st.one_of(fractions, param_polys),
}


@st.composite
def packed_words(draw, length):
    word, top = [], 0
    for _ in range(length):
        letter = draw(st.integers(1, top + 1))
        word.append(letter)
        top = max(top, letter)
    return tuple(word)


# few generators and small exponents, so that distinct keys collide and cancel
monomials = st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 2)), min_size=1, max_size=2).map(
    lambda pairs: tuple(sorted(dict(pairs).items()))
)

#: the keys of each element type, by length
KEYS = {
    "word": packed_words,
    "tensor": lambda n: st.lists(monomials, min_size=n, max_size=n).map(tuple),
    "qsym": lambda n: st.lists(st.integers(1, 3), min_size=n, max_size=n).map(tuple),
}
CLASSES = {"word": WQSymElement, "tensor": QSElement, "qsym": QSymElement}
KINDS = ["tensor", "qsym"]


def elements(kind, coeffs, length, max_length=5, max_size=6):
    """Elements of up to ``max_size`` terms, most keys of length ``length``
    (so that images collide) and the others of any length up to ``max_length``."""
    any_key = st.integers(0, max_length).flatmap(KEYS[kind])
    keys = st.one_of(KEYS[kind](length), KEYS[kind](length), any_key)
    return st.dictionaries(keys, coeffs, max_size=max_size).map(CLASSES[kind])


def pairs(kind, coeffs, max_length=5):
    """A module element and an operator whose keys mostly share one length."""
    return st.integers(0, max_length).flatmap(
        lambda n: st.tuples(elements(kind, coeffs, n, max_length), elements("word", coeffs, n, max_length))
    )


# -- the action against the oracle --------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ring", sorted(coefficients))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_action_matches_the_oracle(kind, ring, data):
    x, op = data.draw(pairs(kind, coefficients[ring]))
    got = x.act(op)
    assert got == oracle_act(x, op)
    assert all(c for c in got.terms.values())
    if ring == "fraction":
        assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_term_operands(kind, data):
    x = data.draw(elements(kind, fractions, data.draw(st.integers(0, 5)), max_size=1))
    key = next(iter(x.terms), ())
    op = WQSymElement.monomial(data.draw(packed_words(len(key))), data.draw(fractions))
    got = x.act(op)
    assert got == oracle_act(x, op)
    assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_empty_operands_act_by_zero(kind, data):
    x, op = data.draw(pairs(kind, coefficients["mixed"]))
    zero_x, zero_op = type(x).zero(), WQSymElement.zero()
    assert zero_x.act(op) == zero_x
    assert x.act(zero_op) == zero_x


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lengths_that_never_match_act_by_zero(kind, data):
    x, op = data.draw(pairs(kind, fractions))
    lengths = {len(key) for key in x.terms}
    op = WQSymElement._raw({u: c for u, c in op.terms.items() if len(u) not in lengths})
    assert x.act(op) == type(x).zero() == oracle_act(x, op)


def test_sums_that_cancel_to_zero():
    ab = ((("a", 1),), (("b", 1),))
    ba = ((("b", 1),), (("a", 1),))
    x = QSElement({ab: 1, ba: -1})
    assert x.act(WQSymElement.monomial((1, 1))) == QSElement.zero()
    # M[1,2] + M[2,1] symmetrises: both images of x cancel
    assert x.act(WQSymElement({(1, 2): 1, (2, 1): 1})) == QSElement.zero()
    half = WQSymElement({(1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2)})
    assert x.act(half) == QSElement.zero()
    F = QSymElement({(1, 2): 1, (2, 1): -1})
    assert F.act(WQSymElement.monomial((1, 1))) == QSymElement.zero()
    G = QSymElement({(1, 2): T, (2, 1): -T})
    assert G.act(WQSymElement.monomial((1, 1))) == QSymElement.zero()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ring", ["fraction", "mixed"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_series_operators(kind, ring, data):
    x = data.draw(elements(kind, coefficients[ring], data.draw(st.integers(0, 5))))
    series = data.draw(st.sampled_from([adams(2, 3), adams(3, 5), eulerian_idempotent(1, 4)]))
    cutoff = series.cutoff
    if ring == "mixed":
        series = series * data.draw(param_polys)
    too_long = [len(key) for key in x.terms if len(key) > cutoff]
    if too_long:
        message = f"series cutoff {cutoff} cannot act on degree {too_long[0]}"
        for act in (x.act, lambda s: oracle_act(x, s)):
            with pytest.raises(CapExceeded) as refused:
                act(series)
            assert str(refused.value) == message
    else:
        got = x.act(series)
        assert got == oracle_act(x, series)
        if ring == "fraction":
            assert all(type(c) is Fraction for c in got.terms.values())


def test_series_refusal_names_the_cutoff_and_the_degree():
    x = QSElement.monomial([(("a", 1),)] * 3)
    with pytest.raises(CapExceeded, match=r"^series cutoff 2 cannot act on degree 3$"):
        x.act(adams(2, 2))
    with pytest.raises(CapExceeded, match=r"^series cutoff 1 cannot act on degree 2$"):
        QSymElement.monomial((1, 1)).act(TruncatedSeries.unit(1))


# -- QSym as the quasi-shuffle algebra over one generator -----------------------------


def as_tensors(F: QSymElement) -> QSElement:
    """The composition I as the tensor x^I1 (x) ... (x) x^Ik over one generator."""
    return QSElement._raw({tuple((("x", p),) for p in I): c for I, c in F.terms.items()})


@settings(max_examples=50, deadline=None)
@given(pair=pairs("qsym", coefficients["mixed"]))
def test_qsym_action_is_the_tensor_action_over_one_generator(pair):
    F, op = pair
    assert as_tensors(F.act(op)) == as_tensors(F).act(op)


def test_qsym_product_is_the_tensor_product_over_one_generator():
    F = QSymElement({(1, 2): 1, (3,): Fraction(1, 2)})
    G = QSymElement({(2,): -1, (1, 1): 3})
    assert as_tensors(F * G) == as_tensors(F) * as_tensors(G)
    e1 = eulerian_idempotent(1, 5)
    assert as_tensors((F * G).act(e1)) == as_tensors(F * G).act(e1)
