"""Every sparse-combination class keeps one canonical key per basis element.

For each of the seven classes: the key check is idempotent, every spelling
of a basis element builds the element of its canonical key, a malformed key
raises ``ValueError``, and a scalar multiplies from either side.  A monomial
is spelled with repeated names, zero exponents and permuted pairs, and must
build the product of its generator powers; a word or a composition has one
spelling.
"""

from fractions import Fraction
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.algebra import Algebra, Tensor, TensorSquare, WQSymElement
from wqsym.params import Monomials, ParamPoly, SparseCombination, Unital
from wqsym.qshuffle import AElement, QSElement, QSTensor, QuasiShuffle
from wqsym.qsym import QSymElement
from wqsym.words import compositions, enumerate_packed_words

names = st.sampled_from("xyz")
monomials = st.dictionaries(names, st.integers(1, 3), max_size=3).map(lambda d: tuple(sorted(d.items())))
a_monomials = monomials.filter(bool)
packed_words = st.integers(0, 4).flatmap(lambda n: st.sampled_from(enumerate_packed_words(n)))
tensor_words = st.lists(a_monomials, max_size=3).map(tuple)


def respell_monomial(data, mono):
    """``mono`` with each exponent split in two (one part may be zero), a few
    zero exponents added, and the pairs shuffled."""
    pairs = [(n, 0) for n in data.draw(st.lists(names, max_size=2))]
    for name, e in mono:
        cut = data.draw(st.integers(0, e))
        pairs += [(name, cut), (name, e - cut)]
    return tuple(data.draw(st.permutations(pairs)))


def respell_tensor_word(data, word):
    return tuple(respell_monomial(data, m) for m in word)


def same(data, key):
    return key


#: per class: a strategy of canonical keys, and a respelling of a key
KEYS = {
    ParamPoly: (monomials, respell_monomial),
    AElement: (a_monomials, respell_monomial),
    WQSymElement: (packed_words, same),
    TensorSquare: (st.tuples(packed_words, packed_words), same),
    QSymElement: (st.integers(0, 5).flatmap(lambda n: st.sampled_from(compositions(n))), same),
    QSElement: (tensor_words, respell_tensor_word),
    QSTensor: (
        st.tuples(tensor_words, tensor_words),
        lambda data, key: tuple(respell_tensor_word(data, leg) for leg in key),
    ),
}

#: per class: malformed keys, each to be refused with ValueError
MALFORMED = {
    ParamPoly: [(("x", -1),), (("x", 1.5),), (("x", 2.0),), (("x", Fraction(1)),), (("x", "1"),), (("x", True),)],
    AElement: [(), (("x", 0),), (("x", -1),), (("x", 1.5),), (("x", 1), ("y", 2.0))],
    WQSymElement: [(2,), (0,), (1, 2.0), ("1",), (True,)],
    TensorSquare: [((1.0,), ()), ((), (1, 3))],
    QSymElement: [(0,), (2, -1), (1.7, 2), ("1", 2.9), (2.0,), (2, True)],
    QSElement: [((),), ((("x", -1),),), ((("x", 1.5),),)],
    QSTensor: [(((("x", 1.5),),), ()), ((), ((),))],
}

CLASSES = list(KEYS)


def concrete_subclasses(cls):
    """The concrete subclasses that the package defines (tests define their own)."""
    for sub in cls.__subclasses__():
        if sub not in (Unital, Monomials, Algebra, Tensor, QuasiShuffle) and sub.__module__.startswith("wqsym."):
            yield sub
        yield from concrete_subclasses(sub)


def test_every_class_is_covered():
    assert set(concrete_subclasses(SparseCombination)) == set(KEYS) == set(MALFORMED)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_key_check_is_idempotent(cls, data):
    keys, respell = KEYS[cls]
    key = cls._check_key(respell(data, data.draw(keys)))
    assert cls._check_key(key) == key


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), coeff=st.integers(1, 3))
def test_spellings_build_one_element(cls, data, coeff):
    keys, respell = KEYS[cls]
    key = data.draw(keys)
    spelling = respell(data, key)
    assert cls._check_key(spelling) == key
    assert cls({spelling: coeff}) == cls({key: coeff}) == cls._raw({key: Fraction(coeff)})


@pytest.mark.parametrize(
    "cls, generator", [(ParamPoly, ParamPoly.var), (AElement, AElement.generator)], ids=["ParamPoly", "AElement"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monomial_spelling_is_the_product_of_its_generator_powers(cls, generator, data):
    spelling = respell_monomial(data, data.draw(a_monomials))
    # A has no unit, so its zeroth powers are left out
    powers = [generator(name) ** e for name, e in spelling if e or cls is ParamPoly]
    assert cls({spelling: 1}) == reduce(mul, powers)


@pytest.mark.parametrize(
    "cls, key",
    [pytest.param(cls, key, id=f"{cls.__name__}-{key!r}") for cls, keys in MALFORMED.items() for key in keys],
)
def test_malformed_keys_raise(cls, key):
    with pytest.raises(ValueError):
        cls._check_key(key)
    with pytest.raises(ValueError):
        cls({key: 1})


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_scalars_multiply_from_either_side(cls, data):
    keys, _ = KEYS[cls]
    x = cls({data.draw(keys): data.draw(st.integers(-3, 3)), data.draw(keys): Fraction(1, 2)})
    for c in (3, Fraction(-2, 5)):
        assert x * c == c * x == cls._raw({key: c * a for key, a in x.terms.items()})
