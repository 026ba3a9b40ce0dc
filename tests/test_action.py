"""The right action of packed words on tensors and on QSym, against a
per-pair oracle and through the paper's view of QSym as a quasi-shuffle
algebra.

The oracle pairs every key of the module element with every operator word of
the same length and builds the image letter by letter: for tensors the
blockwise product of monomials, for compositions the blockwise sum of parts.
It reads the ``Fraction`` coefficients (``coefficients()``), accumulates with
``Fraction`` arithmetic, one term at a time, and shares nothing with
``QuasiShuffle.act`` but the element types.
"""

import random
from fractions import Fraction
from itertools import permutations
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym import algebra, qshuffle, words
from wqsym.algebra import WQSymElement
from wqsym.errors import CapExceeded
from wqsym.qshuffle import QSElement, QuasiShuffle, mono_mul, monomial
from wqsym.qsym import QSymElement
from wqsym.series import TruncatedSeries, adams, eulerian_idempotent
from wqsym.words import compositions, enumerate_packed_words

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


class Clash:
    """A positive integer as a letter whose hash is the same for every value:
    an action that told letters apart by hash would merge distinct ones."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return 0

    def __eq__(self, other):
        return isinstance(other, Clash) and self.value == other.value

    def __repr__(self):
        return f"Clash({self.value})"


class ClashShuffle(QuasiShuffle):
    """The quasi-shuffle algebra of QSym, spelled with :class:`Clash` letters."""

    __slots__ = ()

    _merge = staticmethod(lambda a, b: Clash(a.value + b.value))

    @staticmethod
    def _check_key(word):
        return tuple(word)


def _regroup_clashes(word, u):
    return tuple(map(Clash, _regroup([letter.value for letter in word], u)))


def oracle_act(x, op):
    image = {QSElement: _act_word, QSymElement: _regroup, ClashShuffle: _regroup_clashes}[type(x)]
    if isinstance(op, TruncatedSeries):
        for key in x.terms:
            if len(key) > op.cutoff:
                raise CapExceeded(f"series cutoff {op.cutoff} cannot act on degree {len(key)}")
        op = op.element
    out = {}
    for key, c in x.coefficients().items():
        for u, d in op.coefficients().items():
            if len(u) == len(key):
                w = image(key, u)
                out[w] = out.get(w, 0) + c * d
    return type(x)(out)


# -- strategies -------------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))
coefficients = {"fraction": fractions}


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
def test_action_matches_the_oracle(kind, ring, data, reduced):
    x, op = data.draw(pairs(kind, coefficients[ring]))
    got = x.act(op)
    assert got == oracle_act(x, op)
    assert reduced(got)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_term_operands(kind, data, reduced):
    x = data.draw(elements(kind, fractions, data.draw(st.integers(0, 5)), max_size=1))
    key = next(iter(x.terms), ())
    op = WQSymElement.monomial(data.draw(packed_words(len(key))), data.draw(fractions))
    got = x.act(op)
    assert got == oracle_act(x, op)
    assert reduced(got)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_empty_operands_act_by_zero(kind, data):
    x, op = data.draw(pairs(kind, fractions))
    zero_x, zero_op = type(x).zero(), WQSymElement.zero()
    assert zero_x.act(op) == zero_x
    assert x.act(zero_op) == zero_x


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lengths_that_never_match_act_by_zero(kind, data):
    x, op = data.draw(pairs(kind, fractions))
    lengths = {len(key) for key in x.terms}
    op = WQSymElement({u: c for u, c in op.coefficients().items() if len(u) not in lengths})
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
    G = QSymElement({(1, 2): Fraction(2, 3), (2, 1): Fraction(-2, 3)})
    assert G.act(WQSymElement.monomial((1, 1))) == QSymElement.zero()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ring", sorted(coefficients))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_series_operators(kind, ring, data, reduced):
    x = data.draw(elements(kind, coefficients[ring], data.draw(st.integers(0, 5))))
    series = data.draw(st.sampled_from([adams(2, 3), adams(3, 5), eulerian_idempotent(1, 4)]))
    cutoff = series.cutoff
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
        assert reduced(got)


def test_series_refusal_names_the_cutoff_and_the_degree():
    x = QSElement.monomial([(("a", 1),)] * 3)
    with pytest.raises(CapExceeded, match=r"^series cutoff 2 cannot act on degree 3$"):
        x.act(adams(2, 2))
    with pytest.raises(CapExceeded, match=r"^series cutoff 1 cannot act on degree 2$"):
        QSymElement.monomial((1, 1)).act(TruncatedSeries.unit(1))


# -- letters are numbered by equality, within one action -------------------------------


def as_clashes(F: QSymElement) -> ClashShuffle:
    return ClashShuffle._raw({tuple(map(Clash, I)): c for I, c in F.terms.items()}, F.den)


@pytest.mark.parametrize("ring", sorted(coefficients))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_letters_with_one_hash_stay_apart(ring, data):
    F, op = data.draw(pairs("qsym", coefficients[ring]))
    got = as_clashes(F).act(op)
    assert got == oracle_act(as_clashes(F), op) == as_clashes(F.act(op))


def _rebuilt(mono):
    """An equal monomial that is not the same object, nor are its pairs."""
    return tuple(tuple(list(pair)) for pair in mono)


def test_equal_letters_built_apart_are_one_letter():
    a, b = monomial(("a", 1)), monomial(("b", 1))
    a2, b2 = _rebuilt(a), _rebuilt(b)
    assert (a2, b2) == (a, b) and a2 is not a and a2[0] is not a[0]
    ab, aa = monomial(("a", 1), ("b", 1)), monomial(("a", 2))
    M = WQSymElement.monomial
    # (a, b) and (b2, a2) have one image under M[1,1]: the sums must meet
    # built raw, as numerators over 2, since the constructor would respell them
    x = QSElement._raw({(a, b): 2, (b2, a2): 2, (a, a2): 1}, 2)
    op = M((1, 1)) + M((1, 2))
    expected = QSElement(
        {(ab,): Fraction(2), (a, b): Fraction(1), (b, a): Fraction(1), (aa,): Fraction(1, 2), (a, a): Fraction(1, 2)}
    )
    assert x.act(op) == oracle_act(x, op) == expected
    cancelling = QSElement._raw({(a, b): 1, (b2, a2): -1})
    assert cancelling.act(M((1, 1))) == QSElement.zero()


# -- operator words of one block or none ----------------------------------------------

RING_SCALARS = {"fraction": Fraction(-2, 3)}


@pytest.mark.parametrize("ring", sorted(RING_SCALARS))
def test_words_of_no_block_or_one_block(ring):
    c = RING_SCALARS[ring]
    M = WQSymElement.monomial
    a, b = QSElement.generator("a"), QSElement.generator("b")
    unit = QSElement.unit()
    assert unit.act(M((), c)) == c * unit
    assert (c * unit).act(M((1,))) == QSElement.zero()
    assert (c * a).act(M((1,))) == c * a
    assert (a + c * b).act(M((1,), c)) == c * a + (c * c) * b
    x = c * unit + a - c * b + QSElement.monomial([(("a", 1),), (("b", 1),)], c)
    op = M(()) + c * M((1,)) + M((1, 1)) + c * M((1, 1, 1))
    assert x.act(op) == oracle_act(x, op)
    ab = monomial(("a", 1), ("b", 1))
    assert x.act(op) == c * unit + c * a - (c * c) * b + QSElement.monomial([ab], c)
    F = QSymElement({(): c, (2,): 1, (1, 2): c, (1, 1, 3): 1})
    assert F.act(op) == oracle_act(F, op) == QSymElement({(): c, (2,): c, (3,): c, (5,): c})


# -- QSym as the quasi-shuffle algebra over one generator -----------------------------


def as_tensors(F: QSymElement) -> QSElement:
    """The composition I as the tensor x^I1 (x) ... (x) x^Ik over one generator."""
    return QSElement._raw({tuple((("x", p),) for p in I): c for I, c in F.terms.items()}, F.den)


@settings(max_examples=50, deadline=None)
@given(pair=pairs("qsym", fractions))
def test_qsym_action_is_the_tensor_action_over_one_generator(pair):
    F, op = pair
    assert as_tensors(F.act(op)) == as_tensors(F).act(op)


def test_qsym_product_is_the_tensor_product_over_one_generator():
    F = QSymElement({(1, 2): 1, (3,): Fraction(1, 2)})
    G = QSymElement({(2,): -1, (1, 1): 3})
    assert as_tensors(F * G) == as_tensors(F) * as_tensors(G)
    e1 = eulerian_idempotent(1, 5)
    assert as_tensors((F * G).act(e1)) == as_tensors(F * G).act(e1)


# -- the bucket route: dense operators on many keys of one length -------------------


def route_calls(monkeypatch):
    """A counter of the runs of the bucket route, one per length it takes."""
    real, calls = qshuffle._Length.route, [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(qshuffle._Length, "route", counted)
    return calls


def every_word(lengths, rng):
    """Every packed word of the given lengths, with random nonzero ``Fraction``
    coefficients."""
    return WQSymElement(
        {
            w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            for n in lengths
            for w in enumerate_packed_words(n)
        }
    )


def tensor_word(rng, n):
    """A tensor word of ``n`` letters among a, b and ab, so letters repeat."""
    return tuple(rng.choice([monomial(("a", 1)), monomial(("b", 1)), monomial(("a", 1), ("b", 1))]) for _ in range(n))


@pytest.mark.parametrize(
    "op", [eulerian_idempotent(1, 6), adams(6, 6), every_word(range(7), random.Random(6))], ids=["e1", "psi6", "every"]
)
def test_dense_operators_on_a_product_take_the_route(monkeypatch, op, reduced):
    # the product of two words of three letters has keys of lengths 3 to 6,
    # many of them rearrangements of each other
    rng = random.Random(3)
    x = QSElement({tensor_word(rng, 3): Fraction(1, 2), tensor_word(rng, 3): Fraction(-2)})
    y = QSElement({tensor_word(rng, 3): Fraction(3)})
    xy = x * y
    assert {len(key) for key in xy.terms} >= {4, 5, 6}
    calls = route_calls(monkeypatch)
    got = xy.act(op)
    assert calls[0] >= 3
    assert got == oracle_act(xy, op)
    assert reduced(got)


@pytest.mark.parametrize("kind", ["qsym", "clash"])
def test_compositions_and_clashing_letters_take_the_route(monkeypatch, kind):
    # every composition of 4 and 5 with parts 1 to 3 and repeated parts,
    # as compositions and as letters that share one hash
    rng = random.Random(5)
    F = QSymElement(
        {I: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for n in (4, 5) for I in compositions(n) if max(I) <= 3}
    )
    x = as_clashes(F) if kind == "clash" else F
    op = every_word((3, 4, 5), rng)
    calls = route_calls(monkeypatch)
    got = x.act(op)
    assert calls[0] == 2
    assert got == oracle_act(x, op)
    if kind == "clash":
        assert got == as_clashes(F.act(op))
    assert x.act(eulerian_idempotent(1, 5)) == oracle_act(x, eulerian_idempotent(1, 5))


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("excess,route", [(0, 1), (1, 0)], ids=["at-the-bound", "one-over"])
def test_the_lane_bound_of_the_route(monkeypatch, sign, excess, route, reduced):
    # the two keys rearrange each other, so they share one table and every
    # lane of their sum is 1 + 6 times an operator coefficient: exactly
    # +-(2^63 - 1) at the bound; one unit more takes the pair loop
    F = QSymElement._raw({(1, 2, 3, 4, 5): 1, (2, 1, 3, 4, 5): 6})
    top = sign * (((1 << 63) - 1) // 7 + excess)
    op = WQSymElement._raw({w: top for w in enumerate_packed_words(5)})
    calls = route_calls(monkeypatch)
    got = F.act(op)
    assert calls[0] == route
    assert got == oracle_act(F, op)
    assert reduced(got)


def test_the_product_and_the_action_share_one_record_per_length(monkeypatch):
    # a dense @ bucket of length 5, then e_1 and Psi^5 on keys of length 5,
    # all through the bucket routes: one record of length 5 serves them all
    algebra._space.cache_clear()
    permutation_calls, real = [0], algebra._permuted

    def counted(*args):
        permutation_calls[0] += 1
        return real(*args)

    monkeypatch.setattr(algebra, "_permuted", counted)
    f = WQSymElement({u: Fraction(1) for u in permutations(range(1, 6))})
    g = WQSymElement({v: Fraction(i % 7 + 1) for i, v in enumerate(enumerate_packed_words(5))})
    f @ g
    assert permutation_calls[0] == 1
    F = QSymElement._raw({I: 1 for I in iproduct((1, 2, 3), repeat=5)})
    calls = route_calls(monkeypatch)
    for op in (eulerian_idempotent(1, 5), adams(5, 5)):
        assert F.act(op) == oracle_act(F, op)
    assert calls[0] == 2
    info = algebra._space.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert "groups" in vars(algebra._space(5))  # made by the action on that record


def test_a_lowered_cap_leaves_both_bucket_routes_to_built_operands(monkeypatch):
    # operands of length 5 built at the default cap; under a cap of 3 the
    # bucket routes of @ and of the action still lay them out over the
    # packed words of length 5, made anew, and agree with the pair loops
    rng = random.Random(8)
    x, y = every_word((5,), rng), every_word((5,), rng)
    F = QSymElement._raw({I: rng.randint(1, 9) for I in iproduct((1, 2, 3), repeat=5)})
    with monkeypatch.context() as mp:
        mp.setattr(algebra, "_compose_bucket", lambda *args: False)
        product = x @ y
    words._packed_words.cache_clear()
    algebra._space.cache_clear()
    monkeypatch.setenv("WQSYM_MAX_DEGREE", "3")
    permutation_calls, real = [0], algebra._permuted

    def counted(*args):
        permutation_calls[0] += 1
        return real(*args)

    monkeypatch.setattr(algebra, "_permuted", counted)
    assert x @ y == product and len(product.terms) == 541
    assert permutation_calls[0] == 1
    calls = route_calls(monkeypatch)
    assert F.act(y) == oracle_act(F, y)
    assert calls[0] == 1


def test_a_one_word_operator_on_length_seven_keys_builds_no_record():
    algebra._space.cache_clear()
    F = QSymElement._raw({I: 1 for I in iproduct((1, 2), repeat=7)})
    op = WQSymElement.monomial((1, 2, 1, 3, 2, 4, 1))
    assert F.act(op) == oracle_act(F, op)
    assert algebra._space.cache_info().currsize == 0


def test_one_word_operators_keep_the_pair_loop(monkeypatch):
    F = QSymElement._raw({I: 1 for I in compositions(5)})
    calls = route_calls(monkeypatch)
    assert F.act(WQSymElement.monomial((1, 2, 1, 3, 2))) == oracle_act(F, WQSymElement.monomial((1, 2, 1, 3, 2)))
    assert calls[0] == 0


class Lopsided(QuasiShuffle):
    """Positive integers under a commutative merge that is not associative:
    a block's product depends on the order in which its letters meet."""

    __slots__ = ()

    _merge = staticmethod(lambda a, b: a * b + 1)

    @staticmethod
    def _check_key(word):
        return tuple(word)


def _lopsided_image(word, u):
    """The image of ``word`` under ``u`` in :class:`Lopsided`: each block's
    letters merged from its last position down to its first."""
    blocks = [[] for _ in range(max(u, default=0))]
    for letter, i in zip(word, u):
        blocks[i - 1].append(letter)
    image = []
    for block in blocks:
        product = block[-1]
        for letter in reversed(block[:-1]):
            product = Lopsided._merge(letter, product)
        image.append(product)
    return tuple(image)


def test_the_route_is_the_pair_loop_under_a_non_associative_merge(monkeypatch):
    # the dense operator takes the route at all three lengths; a one-word and a
    # sparse operator take the pair loop, on the same block-product tables
    rng = random.Random(8)
    x = Lopsided(
        {
            tuple(rng.randint(1, 3) for _ in range(n)): Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 2))
            for n in (4, 5, 5, 5, 6, 6)
            for _ in range(12)
        }
    )
    op = every_word((4, 5, 6), rng)
    one_word = WQSymElement.monomial((2, 2, 1, 2, 2), Fraction(3, 2))  # a block of four
    sparse = WQSymElement({u: c for u, c in op.coefficients().items() if rng.random() < 0.1})
    assert Lopsided._merge(Lopsided._merge(1, 2), 3) != Lopsided._merge(1, Lopsided._merge(2, 3))
    calls = route_calls(monkeypatch)
    for operator, routes in [(op, 3), (one_word, 0), (sparse, 0)]:
        expected = {}
        for key, c in x.coefficients().items():
            for u, d in operator.coefficients().items():
                if len(u) == len(key):
                    w = _lopsided_image(key, u)
                    expected[w] = expected.get(w, 0) + c * d
        calls[0] = 0
        assert x.act(operator) == Lopsided(expected)
        assert calls[0] == routes
    routed = x.act(op)
    monkeypatch.setattr(qshuffle, "_route_pays", lambda *sizes: False)
    calls[0] = 0
    assert x.act(op) == routed and calls[0] == 0
