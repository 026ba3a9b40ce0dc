"""Quasi-shuffle algebra over the free commutative algebra without unit:
the right action, convolution compatibility, naturality, and the kernel
facts about the first idempotent."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.algebra import WQSymElement, embed_sym_hat
from wqsym.errors import CapExceeded
from wqsym.qshuffle import (
    AElement,
    QSElement,
    QSTensor,
    adams_on_indecomposables_check,
    apply_generator_map,
    car_coproduct_compatibility_check,
    concat,
    convolution_of_operators,
    e1_kills_products_check,
    elements_act_equally,
    monomial,
    naturality_check,
    tensor,
)
from wqsym.series import TruncatedSeries, adams, eulerian_idempotent, identity_series
from wqsym.suites import random_qs_element, random_tensor_word
from wqsym.words import enumerate_packed_words

E = WQSymElement.monomial

a = AElement.generator("a")
b = AElement.generator("b")
c = AElement.generator("c")
GENS = ("a", "b", "c")


def test_monomial_basics():
    m = monomial(("a", 1), ("b", 2), ("a", 1))
    assert m == (("a", 2), ("b", 2))
    with pytest.raises(ValueError):
        monomial()  # no unit in the base algebra
    assert (a * b) * a == AElement({(("a", 2), ("b", 1)): 1})
    assert a**3 == AElement({(("a", 3),): 1})
    with pytest.raises(ValueError):
        a**0  # no unit in the base algebra


def test_action_examples():
    x = tensor(a, b, c)
    assert x.act(E((1, 2, 1))) == tensor(a * c, b)
    for n in range(4):
        y = tensor(*[a] * n)
        assert y.act(E(tuple(range(1, n + 1)))) == y
    assert tensor(a, b).act(E((1,))) == QSElement.zero()
    assert tensor(a, b).act(E((1, 1))) == tensor(a * b)


def test_action_is_linear_in_both_arguments():
    x = tensor(a, b) - 2 * tensor(b, a)
    f = E((1, 1)) + Fraction(1, 2) * E((2, 1))
    expected = (
        tensor(a * b)
        + Fraction(1, 2) * tensor(b, a)
        - 2 * tensor(a * b)
        - 1 * tensor(a, b)
    )
    assert x.act(f) == expected


def test_quasi_shuffle_examples():
    ta, tb = tensor(a), tensor(b)
    assert ta * tb == tensor(a, b) + tensor(b, a) + tensor(a * b)
    y = tensor(a, c) + 2 * tensor(b)
    assert QSElement.unit() * y == y
    assert tensor(a, b) * tb == (
        tensor(a, b, b) * 2  # a x b x b arises twice among the interleavings
        + tensor(b, a, b)
        + tensor(a, b * b)
        + tensor(a * b, b)
    )


def test_quasi_shuffle_commutative_associative():
    rng = random.Random(3)
    for _ in range(80):
        x = random_qs_element(rng, GENS, rng.randint(0, 2), rng.randint(1, 2))
        y = random_qs_element(rng, GENS, rng.randint(0, 2), rng.randint(1, 2))
        z = random_qs_element(rng, GENS, rng.randint(0, 2), rng.randint(1, 2))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)


def test_quasi_shuffle_is_the_staircase_pair_action():
    rng = random.Random(4)
    for _ in range(60):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        x = QSElement.monomial(random_tensor_word(rng, GENS, n))
        y = QSElement.monomial(random_tensor_word(rng, GENS, m))
        assert x * y == concat(x, y).act(embed_sym_hat(tuple(p for p in (n, m) if p)))


def test_deconcatenation_examples():
    ta = tensor(a)
    assert ta.deconcatenate() == QSTensor(
        {((), (((("a", 1),),))): 1, ((((("a", 1),),)), ()): 1}
    )
    assert QSElement.unit().deconcatenate() == QSTensor({((), ()): 1})
    ab = tensor(a, b)
    got = ab.deconcatenate()
    word_a, word_b = (((("a", 1),),)), (((("b", 1),),))
    assert got == QSTensor(
        {((), word_a + word_b): 1, (word_a, word_b): 1, (word_a + word_b, ()): 1}
    )


def test_hopf_compatibility_of_deconcatenation():
    rng = random.Random(9)
    for _ in range(50):
        x = QSElement.monomial(random_tensor_word(rng, GENS, rng.randint(0, 2)))
        y = QSElement.monomial(random_tensor_word(rng, GENS, rng.randint(0, 2)))
        assert (x * y).deconcatenate() == x.deconcatenate() * y.deconcatenate()


def test_module_law():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randint(0, 4)
        x = QSElement.monomial(random_tensor_word(rng, GENS, n))
        lf = n if rng.random() < 0.7 else rng.randint(0, 4)
        f = _random_word_elem(rng, lf)
        word_f = next(iter(f.terms))
        lg = (max(word_f) if word_f else 0) if rng.random() < 0.7 else rng.randint(0, 4)
        g = _random_word_elem(rng, lg)
        assert x.act(f).act(g) == x.act(f @ g)


def _random_word_elem(rng, length):
    word, mx = [], 0
    for _ in range(length):
        letter = rng.randint(1, mx + 1)
        word.append(letter)
        mx = max(mx, letter)
    return E(tuple(word))


def test_convolution_examples():
    m1 = E((1,))
    ab = tensor(a, b)
    assert convolution_of_operators(m1, m1, ab) == tensor(a, b) + tensor(b, a) + tensor(a * b)
    g = E((2, 1))
    x = tensor(a, c)
    assert convolution_of_operators(WQSymElement.unit(), g, x) == x.act(g)
    abc = tensor(a, b, c)
    m12 = E((1, 2))
    assert convolution_of_operators(m1, m12, abc) == abc.act(m1 * m12)


def test_convolution_matches_outer_product_seeded():
    rng = random.Random(31)
    for _ in range(120):
        n, m = rng.randint(0, 3), rng.randint(0, 2)
        f, g = _random_word_elem(rng, n), _random_word_elem(rng, m)
        d = n + m if rng.random() < 0.7 else rng.randint(0, 5)
        x = random_qs_element(rng, GENS, d, rng.randint(1, 2))
        assert x.act(f * g) == convolution_of_operators(f, g, x)


def test_recognition_principle_harness():
    f = E((1, 2)) + 2 * E((1, 1))
    assert elements_act_equally(f, f, GENS, 3)
    perturbed = f + E((2, 1), Fraction(1, 7))
    assert not elements_act_equally(f, perturbed, GENS, 3)
    # a single-term perturbation in any degree <= 3 is caught
    rng = random.Random(13)
    for _ in range(10):
        g = _random_word_elem(rng, rng.randint(0, 3))
        assert not elements_act_equally(f, f + g, GENS, 3)


def test_naturality_identity_and_example():
    x = tensor(AElement.generator("g1"), AElement.generator("g1"))
    ident = {"g1": AElement.generator("g1"), "g2": AElement.generator("g2")}
    assert naturality_check(ident, (1, 1), x)
    f_spec = {
        "g1": AElement.generator("g1") + AElement.generator("g2") ** 2,
        "g2": AElement.generator("g2"),
    }
    assert naturality_check(f_spec, (1, 1), x)
    assert apply_generator_map(f_spec, x.act(E((1, 1)))) == apply_generator_map(
        f_spec, x
    ).act(E((1, 1)))


def test_naturality_seeded():
    rng = random.Random(41)
    for _ in range(60):
        f_spec = {}
        for g in GENS:
            terms = {}
            for _ in range(rng.randint(1, 2)):
                m = monomial(*[(rng.choice(GENS), 1) for _ in range(rng.randint(1, 2))])
                terms[m] = terms.get(m, 0) + rng.choice([-2, -1, 1, 2])
            f_spec[g] = AElement(terms)
        n = rng.randint(0, 3)
        u = tuple(next(iter(_random_word_elem(rng, n).terms)))
        x = random_qs_element(rng, GENS, n if rng.random() < 0.7 else rng.randint(0, 3))
        assert naturality_check(f_spec, u, x)


def test_naturality_rejects_bad_maps():
    with pytest.raises(ValueError):
        apply_generator_map({"a": tensor(b)}, tensor(a))
    with pytest.raises(ValueError):
        apply_generator_map({"b": AElement.generator("b")}, tensor(a))


#: the series of the car-compat suite, each of which meets the car identity
CAR_SERIES = [identity_series(4), adams(2, 4), adams(3, 4), eulerian_idempotent(1, 4), eulerian_idempotent(2, 4)]


def test_car_compatibility_examples():
    I = identity_series(4)
    x, y = tensor(a), tensor(b, c)
    assert car_coproduct_compatibility_check(I, x, y)
    assert car_coproduct_compatibility_check(eulerian_idempotent(1, 4), tensor(a), tensor(b))
    # and the first-idempotent case is the zero identity on both sides
    assert not (tensor(a) * tensor(b)).act(eulerian_idempotent(1, 4))


def test_car_compatibility_seeded():
    rng = random.Random(55)
    for i in range(40):
        sigma = CAR_SERIES[i % len(CAR_SERIES)]
        x = random_qs_element(rng, GENS, rng.randint(0, 2), rng.randint(1, 2))
        y = random_qs_element(rng, GENS, rng.randint(0, 2), rng.randint(1, 2))
        assert car_coproduct_compatibility_check(sigma, x, y)


def unrestricted_car_check(sigma, x, y) -> bool:
    """The car identity summed over every pair of sigma's coproduct: the
    oracle of the check's filter on degrees and word lengths."""
    rhs = QSElement.zero()
    for (u, v), coeff in sigma.element.coproduct().terms.items():
        rhs = rhs + coeff * (x.act(E(u)) * y.act(E(v)))
    return (x * y).act(sigma) == rhs


def _inhomogeneous(rng, degrees):
    # one term in each degree, so the degrees cannot cancel
    return sum((random_qs_element(rng, GENS, d) for d in degrees), QSElement.zero())


WORDS_TO_4 = [w for n in range(5) for w in enumerate_packed_words(n)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CAR_SERIES),
    st.dictionaries(st.sampled_from(WORDS_TO_4), st.integers(-2, 2), max_size=2),
    st.sets(st.integers(0, 2), min_size=2, max_size=2),
    st.sets(st.integers(0, 2), min_size=2, max_size=2),
    st.randoms(use_true_random=False),
)
def test_car_check_matches_the_unrestricted_formula(series, wrong, xdeg, ydeg, rng):
    # a series of the suite meets the identity, so a check that drops a
    # needed word fails it; a few wrong coefficients mostly break it
    sigma = TruncatedSeries.from_element(series.element + WQSymElement(wrong), 4)
    x, y = _inhomogeneous(rng, sorted(xdeg)), _inhomogeneous(rng, sorted(ydeg))
    assert car_coproduct_compatibility_check(sigma, x, y) == unrestricted_car_check(sigma, x, y)


def test_one_wrong_coefficient_at_a_met_length_fails_the_car_check():
    # x has degrees 1 and 2 and y degrees 0 and 1, so x * y meets the word
    # lengths 1, 2 and 3: one wrong coefficient of I at any such word fails
    x, y = tensor(a) + tensor(b, c), QSElement.unit() + tensor(c)
    I = identity_series(4)
    assert car_coproduct_compatibility_check(I, x, y)
    for n in (1, 2, 3):
        for w in enumerate_packed_words(n):
            wrong = TruncatedSeries.from_element(I.element + E(w), 4)
            assert not car_coproduct_compatibility_check(wrong, x, y), w


def test_e1_kills_products():
    assert e1_kills_products_check(tensor(a), tensor(b), 4)
    rng = random.Random(77)
    for _ in range(25):
        x = random_qs_element(rng, GENS, rng.randint(1, 2), rng.randint(1, 2))
        y = random_qs_element(rng, GENS, rng.randint(1, 2), rng.randint(1, 2))
        if x and y:
            assert e1_kills_products_check(x, y, 4)
    with pytest.raises(ValueError):
        e1_kills_products_check(QSElement.unit(), tensor(a), 3)


def test_adams_on_indecomposables():
    assert tensor(a).act(adams(2, 3)) == 2 * tensor(a)
    assert adams_on_indecomposables_check(tensor(a), 3)
    lhs = tensor(a, b).act(adams(2, 3)) - 2 * tensor(a, b)
    assert lhs == tensor(a) * tensor(b)
    assert adams_on_indecomposables_check(tensor(a, b), 3)
    rng = random.Random(99)
    for _ in range(25):
        x = random_qs_element(rng, GENS, rng.randint(1, 3), rng.randint(1, 2))
        if x:
            assert adams_on_indecomposables_check(x, 4)


def test_series_action_respects_cutoff():
    x = tensor(a, b, c)
    with pytest.raises(CapExceeded):
        x.act(identity_series(2))
    assert x.act(identity_series(3)) == x


def test_reduced_deconcatenation_requires_positive_degree():
    with pytest.raises(ValueError):
        QSElement.unit().reduced_deconcatenate()
    red = tensor(a, b).reduced_deconcatenate()
    assert red.multiply_legs() == tensor(a) * tensor(b)
