"""Every product and coproduct that goes through the kernels ``_bilinear`` and
``_linear``, against a per-class loop kept here as its oracle.

Each oracle pairs every key of one operand with every key of the other,
accumulates one term at a time, and counts repeated keys in its own way:
with ``_add_term`` per key, or with a ``Counter`` and one multiple.  The
operands draw ``Fraction`` coefficients from few keys, so that images collide
and cancel; empty operands are included.  The "wide" ring draws integers far
outside the shared ``Fraction`` objects and fractions over several
denominators, for the int-numerator route that every kernel takes.
"""

import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.algebra import TensorSquare, WQSymElement, _add_multiple, _add_term
from wqsym.params import mono_mul
from wqsym.qshuffle import AElement, QSElement, QSTensor, concat, tensor
from wqsym.qsym import QSymElement, commutative_image
from wqsym.words import breadth, evaluation, pack, quasi_shuffle, quasi_shuffle_words, shifted_concat

# -- the oracles -------------------------------------------------------------------


def wqsym_mul_oracle(f, g):
    out = {}
    for u, cu in f.terms.items():
        for v, cv in g.terms.items():
            c = cu * cv
            for w in quasi_shuffle_words(u, v):
                _add_term(out, w, c)
    return WQSymElement._raw(out)


def bullet_oracle(f, g):
    out = {}
    for u, cu in f.terms.items():
        for v, cv in g.terms.items():
            _add_term(out, shifted_concat(u, v), cu * cv)
    return WQSymElement._raw(out)


def coproduct_oracle(f):
    out = {}
    for u, c in f.terms.items():
        for i in range(breadth(u) + 1):
            left = tuple(x for x in u if x <= i)
            right = pack(tuple(x for x in u if x > i))
            _add_term(out, (left, right), c)
    return TensorSquare._raw(out)


def tensor_square_mul_oracle(x, y):
    out = {}
    for (a, b), c1 in x.terms.items():
        for (u, v), c2 in y.terms.items():
            c = c1 * c2
            for left in quasi_shuffle_words(a, u):
                for right in quasi_shuffle_words(b, v):
                    _add_term(out, (left, right), c)
    return TensorSquare._raw(out)


def a_mul_oracle(x, y):
    out = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            _add_term(out, mono_mul(m1, m2), c1 * c2)
    return AElement._raw(out)


def _counted_product(cls, merge):
    def oracle(x, y):
        out = {}
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                c = c1 * c2
                for w, mult in Counter(quasi_shuffle(w1, w2, merge)).items():
                    _add_term(out, w, c * mult)
        return cls._raw(out)

    return oracle


qs_mul_oracle = _counted_product(QSElement, mono_mul)
qsym_mul_oracle = _counted_product(QSymElement, operator.add)


def qs_tensor_mul_oracle(x, y):
    out = {}
    for (a, b), c1 in x.terms.items():
        for (u, v), c2 in y.terms.items():
            c = c1 * c2
            rights = Counter(quasi_shuffle(b, v, mono_mul)).items()
            for left, ml in Counter(quasi_shuffle(a, u, mono_mul)).items():
                for right, mr in rights:
                    _add_term(out, (left, right), c * ml * mr)
    return QSTensor._raw(out)


def multiply_legs_oracle(t):
    out = {}
    for (a, b), c in t.terms.items():
        _add_multiple(out, Counter(quasi_shuffle(a, b, mono_mul)), c)
    return QSElement._raw(out)


def concat_oracle(x, y):
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            _add_term(out, w1 + w2, c1 * c2)
    return QSElement._raw(out)


def tensor_oracle(*factors):
    out = {(): Fraction(1)}
    for f in factors:
        new = {}
        for word, c in out.items():
            for m, d in f.terms.items():
                _add_term(new, word + (m,), c * d)
        out = new
    return QSElement._raw(out)


def deconcatenate_oracle(x):
    out = {}
    for word, c in x.terms.items():
        for i in range(len(word) + 1):
            _add_term(out, (word[:i], word[i:]), c)
    return QSTensor._raw(out)


def reduced_deconcatenate_oracle(x):
    out = deconcatenate_oracle(x).terms.copy()
    for word, c in x.terms.items():
        _add_term(out, ((), word), -c)
        _add_term(out, (word, ()), -c)
    return QSTensor._raw(out)


def commutative_image_oracle(f):
    out = {}
    for u, c in f.terms.items():
        _add_term(out, evaluation(u), c)
    return QSymElement._raw(out)


# -- strategies -------------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
wide = st.builds(Fraction, st.sampled_from([1, -2, 65, -1000, 10**20]), st.sampled_from([1, 1, 3, 6]))
RINGS = {"fraction": fractions, "wide": wide}

words = st.lists(st.integers(1, 3), max_size=3).map(pack)
monomials = st.lists(st.tuples(st.sampled_from("ab"), st.integers(1, 2)), min_size=1, max_size=2).map(
    lambda pairs: tuple(sorted(dict(pairs).items()))
)
tensor_words = st.lists(monomials, max_size=3).map(tuple)
short_tensor_words = st.lists(monomials, max_size=2).map(tuple)
compositions = st.lists(st.integers(1, 3), max_size=3).map(tuple)

#: basis keys of each element type
KEYS = {
    WQSymElement: words,
    TensorSquare: st.tuples(st.lists(st.integers(1, 2), max_size=2).map(pack), words),
    AElement: monomials,
    QSElement: tensor_words,
    QSTensor: st.tuples(short_tensor_words, short_tensor_words),
    QSymElement: compositions,
}


def elements(cls, coeffs, max_size=4):
    return st.dictionaries(KEYS[cls], coeffs, max_size=max_size).map(cls)


def positive(x):
    """``x`` without its constant term."""
    return type(x)._raw({w: c for w, c in x.terms.items() if w})


#: name -> (routed operation, oracle, operand classes)
OPERATIONS = {
    "WQSym *": (operator.mul, wqsym_mul_oracle, (WQSymElement, WQSymElement)),
    "WQSym &": (operator.and_, bullet_oracle, (WQSymElement, WQSymElement)),
    "WQSym coproduct": (WQSymElement.coproduct, coproduct_oracle, (WQSymElement,)),
    "TensorSquare *": (operator.mul, tensor_square_mul_oracle, (TensorSquare, TensorSquare)),
    "AElement *": (operator.mul, a_mul_oracle, (AElement, AElement)),
    "QSElement *": (operator.mul, qs_mul_oracle, (QSElement, QSElement)),
    "QSTensor *": (operator.mul, qs_tensor_mul_oracle, (QSTensor, QSTensor)),
    "QSymElement *": (operator.mul, qsym_mul_oracle, (QSymElement, QSymElement)),
    "concat": (concat, concat_oracle, (QSElement, QSElement)),
    "tensor": (tensor, tensor_oracle, (AElement, AElement, AElement)),
    "multiply_legs": (QSTensor.multiply_legs, multiply_legs_oracle, (QSTensor,)),
    "deconcatenate": (QSElement.deconcatenate, deconcatenate_oracle, (QSElement,)),
    "reduced_deconcatenate": (QSElement.reduced_deconcatenate, reduced_deconcatenate_oracle, (QSElement,)),
    "commutative_image": (commutative_image, commutative_image_oracle, (WQSymElement,)),
}


def operands(name, coeffs):
    classes = OPERATIONS[name][2]
    drawn = st.tuples(*(elements(cls, coeffs) for cls in classes))
    if name == "reduced_deconcatenate":
        drawn = drawn.map(lambda xs: tuple(map(positive, xs)))
    if name == "tensor":
        drawn = st.integers(0, 3).flatmap(lambda k: st.tuples(*(elements(AElement, coeffs),) * k))
    return drawn


# -- the routed operations against their oracles ---------------------------------------


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("name", sorted(OPERATIONS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_operation_matches_the_oracle(name, ring, data):
    op, oracle, _ = OPERATIONS[name]
    xs = data.draw(operands(name, RINGS[ring]))
    got = op(*xs)
    assert got == oracle(*xs)
    assert type(got) is type(oracle(*xs))
    assert all(c for c in got.terms.values())
    assert all(type(c) is Fraction for c in got.terms.values())


@pytest.mark.parametrize("name", sorted(OPERATIONS))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_empty_operands_give_zero(name, data):
    op, oracle, classes = OPERATIONS[name]
    if name == "tensor":
        assert op() == oracle() == QSElement.unit()
        return
    xs = list(data.draw(operands(name, RINGS["fraction"])))
    i = data.draw(st.integers(0, len(xs) - 1))
    xs[i] = classes[i].zero()
    got = op(*xs)
    assert got == oracle(*xs) and not got.terms


# -- repeated keys and cancellation ------------------------------------------------------

a, b = (("a", 1),), (("b", 1),)
a2 = (("a", 2),)


def test_repeated_keys_are_counted():
    M = QSymElement.monomial
    assert M((1,)) * M((1,)) == QSymElement({(1, 1): 2, (2,): 1})
    assert M((1,)) * M((1,)) * M((1,)) == QSymElement({(1, 1, 1): 6, (1, 2): 3, (2, 1): 3, (3,): 1})
    x = QSElement.monomial([a])
    assert x * x == QSElement({(a, a): 2, (a2,): 1})
    assert x * (x * Fraction(1, 3)) == QSElement({(a, a): Fraction(2, 3), (a2,): Fraction(1, 3)})
    legs = QSTensor({((a,), (a,)): Fraction(1, 2)})
    assert legs.multiply_legs() == QSElement({(a, a): 1, (a2,): Fraction(1, 2)})
    left = QSTensor({((a,), ()): 1})
    assert left * left == QSTensor({((a, a), ()): 2, ((a2,), ()): 1})


def test_sums_that_cancel_to_zero():
    # M(2) M(1) and M(1,1) M(1) share M(2,1) and M(1,2)
    F = QSymElement({(2,): 1, (1, 1): -1})
    assert F * QSymElement.monomial((1,)) == QSymElement({(3,): 1, (1, 1, 1): -3})
    # (1,2) & (1) and (1) & (1,2) are both (1,2,3)
    f = WQSymElement({(1,): 1, (1, 2): 1})
    g = WQSymElement({(1,): 1, (1, 2): -1})
    assert f & g == WQSymElement({(1, 2): 1, (1, 2, 3, 4): -1}) == bullet_oracle(f, g)
    assert commutative_image(WQSymElement({(1, 2): 1, (2, 1): -1})) == QSymElement.zero()
    assert commutative_image(WQSymElement({(1, 2): Fraction(-5, 3), (2, 1): Fraction(5, 3)})) == QSymElement.zero()
    antisymmetric = QSTensor({((a,), (b,)): 1, ((b,), (a,)): -1})
    assert antisymmetric.multiply_legs() == QSElement.zero()


# -- laws on multi-term elements ---------------------------------------------------------


def operators(coeffs, lengths):
    """Elements of one to four terms whose words mostly have one of
    ``lengths``, so that they act on operands of those lengths."""
    matching = st.sampled_from(sorted(lengths)).flatmap(
        lambda n: st.lists(st.integers(1, max(n, 1)), min_size=n, max_size=n).map(pack)
    )
    keys = st.one_of(matching, matching, words) if lengths else words
    return st.dictionaries(keys, coeffs, min_size=1, max_size=4).map(WQSymElement)


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("cls", [QSElement, QSymElement], ids=lambda c: c.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_module_law_on_multi_term_operators(cls, ring, data):
    coeffs = RINGS[ring]
    x = data.draw(elements(cls, coeffs), label="x")
    f = data.draw(operators(coeffs, {len(w) for w in x.terms}), label="f")
    g = data.draw(operators(coeffs, {breadth(u) for u in f.terms}), label="g")
    assert x.act(f).act(g) == x.act(f @ g)


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_coproduct_is_multiplicative_on_multi_term_elements(ring, data):
    coeffs = RINGS[ring]
    f = data.draw(elements(WQSymElement, coeffs), label="f")
    room = 5 - max(map(len, f.terms), default=0)
    short_words = st.lists(st.integers(1, max(room, 1)), max_size=room).map(pack)
    g = data.draw(st.dictionaries(short_words, coeffs, max_size=4).map(WQSymElement), label="g")
    assert (f * g).coproduct() == f.coproduct() * g.coproduct()


# -- the int-numerator route on sums that cancel at a large scale ------------------------

M, QS, QSym = WQSymElement.monomial, QSElement.monomial, QSymElement.monomial
#: name -> operands two of whose terms' images meet at one key and cancel
#: there, and that key
CANCELLING = {
    "WQSym &": ((M((1, 2)) - M((1,)), M((1,)) + M((1, 2))), (1, 2, 3)),
    "WQSym coproduct": ((M((1, 2)) - M((2, 1)),), ((1,), (1,))),
    "QSElement *": ((QS([a]) - QS([b]), QS([a]) + QS([b])), (a, b)),
    "QSymElement *": ((QSym((2,)) - QSym((1, 1)), QSym((1,))), (2, 1)),
}


@pytest.mark.parametrize("name", sorted(CANCELLING))
@pytest.mark.parametrize("scale", [Fraction(1), Fraction(-7, 6), Fraction(10**20, 3)])
def test_numerator_route_prunes_sums_that_cancel(name, scale):
    op, oracle, _ = OPERATIONS[name]
    operands, cancelled = CANCELLING[name]
    xs = [scale * x for x in operands]
    got = op(*xs)
    assert got == oracle(*xs)
    assert got and cancelled not in got.terms
    assert all(got.terms.values())
