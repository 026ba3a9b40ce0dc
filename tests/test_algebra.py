"""Element layer: the three products, the coproduct, and the two embeddings."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.algebra import (
    TensorSquare,
    WQSymElement,
    crucial_factorization_check,
    embed_sym_hat,
    embed_sym_hat_closed,
    embed_sym_standard,
    ribbon_hat,
    ribbon_standard,
)
from wqsym.params import ParamPoly
from wqsym.words import compositions, enumerate_packed_words, pack, reverse

E = WQSymElement.monomial


def elem(*words):
    out = WQSymElement.zero()
    for w in words:
        out = out + E(w)
    return out


def random_packed(rng, length):
    word, mx = [], 0
    for _ in range(length):
        letter = rng.randint(1, mx + 1)
        word.append(letter)
        mx = max(mx, letter)
    return tuple(word)


# -- outer product -----------------------------------------------------------


def test_product_paper_examples():
    assert E((1, 1)) * E((2, 1)) == elem(
        (1, 1, 3, 2), (1, 1, 2, 1), (2, 2, 3, 1), (2, 2, 2, 1), (3, 3, 2, 1)
    )
    assert E((1,)) * E((1, 2)) == elem(
        (1, 2, 3), (1, 1, 2), (2, 1, 3), (2, 1, 2), (3, 1, 2)
    )
    g = elem((1, 2), (2, 1)) - WQSymElement.unit() * Fraction(1, 2)
    assert WQSymElement.unit() * g == g


def test_product_degree_three_table():
    # frozen from the set-composition recursion, checked by hand
    assert E((1, 2)) * E((1,)) == elem((1, 2, 3), (1, 3, 2), (1, 2, 2), (2, 3, 1), (1, 2, 1))
    assert E((1,)) * E((2, 1)) == elem((1, 3, 2), (2, 3, 1), (3, 2, 1), (2, 2, 1), (1, 2, 1))
    assert E((1,)) * E((1, 1)) == elem((1, 2, 2), (2, 1, 1), (1, 1, 1))
    assert E((1, 1)) * E((1,)) == elem((1, 1, 2), (2, 2, 1), (1, 1, 1))
    assert E((2, 1)) * E((1,)) == elem((2, 1, 3), (3, 1, 2), (2, 1, 2), (3, 2, 1), (2, 1, 1))
    cube = E((1,)) * E((1,)) * E((1,))
    assert cube == elem(*enumerate_packed_words(3))


def test_product_associative_and_unital_seeded():
    rng = random.Random(11)
    for _ in range(220):
        lengths = [rng.randint(0, 2) for _ in range(3)]
        while sum(lengths) > 6:
            lengths[rng.randrange(3)] = 0
        f, g, h = (E(random_packed(rng, l)) for l in lengths)
        assert (f * g) * h == f * (g * h)
        assert WQSymElement.unit() * f == f
        assert f * WQSymElement.unit() == f


def test_product_grading():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        f, g = E(random_packed(rng, a)), E(random_packed(rng, b))
        assert (f * g).degrees() in ([], [a + b])


# -- coproduct ----------------------------------------------------------------


def test_coproduct_examples():
    assert E((1, 2, 1)).coproduct() == TensorSquare(
        {((), (1, 2, 1)): 1, ((1, 1), (1,)): 1, ((1, 2, 1), ()): 1}
    )
    assert WQSymElement.unit().coproduct() == TensorSquare({((), ()): 1})
    for n in range(6):
        stair = tuple(range(1, n + 1))
        expected = TensorSquare(
            {(stair[:i], tuple(range(1, n - i + 1))): 1 for i in range(n + 1)}
        )
        assert E(stair).coproduct() == expected


def coassociative(el):
    delta = el.coproduct()
    left, right = {}, {}
    for (a, b), c in delta.terms.items():
        for (a1, a2), c2 in E(a).coproduct().terms.items():
            key = (a1, a2, b)
            left[key] = left.get(key, 0) + c * c2
        for (b1, b2), c2 in E(b).coproduct().terms.items():
            key = (a, b1, b2)
            right[key] = right.get(key, 0) + c * c2
    return {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}


def test_coassociativity_exhaustive():
    for n in range(6):
        for u in enumerate_packed_words(n):
            assert coassociative(E(u))


def test_bialgebra_compatibility_exhaustive():
    for total in range(6):
        for a in range(total + 1):
            for u in enumerate_packed_words(a):
                mu = E(u)
                du = mu.coproduct()
                for v in enumerate_packed_words(total - a):
                    mv = E(v)
                    assert (mu * mv).coproduct() == du * mv.coproduct()


# -- internal product ----------------------------------------------------------


def test_internal_examples():
    assert E((2, 1)) @ E((2, 1)) == E((1, 2))
    for n in range(5):
        stair = tuple(range(1, n + 1))
        for v in enumerate_packed_words(n):
            assert E(stair) @ E(v) == E(v)
    assert E((1, 1)) @ E((1, 2)) == WQSymElement.zero()


def test_internal_identities_and_associativity():
    words_by_len = {n: enumerate_packed_words(n) for n in range(5)}
    for n, words_ in words_by_len.items():
        for u in words_:
            mu = E(u)
            k = max(u) if u else 0
            assert mu @ E(tuple(range(1, k + 1))) == mu
    for n in range(5):
        for u in words_by_len[n]:
            mu = E(u)
            k = max(u) if u else 0
            for v in words_by_len[k]:
                mv = E(v)
                kk = max(v) if v else 0
                for w in words_by_len[kk]:
                    mw = E(w)
                    assert (mu @ mv) @ mw == mu @ (mv @ mw)


def test_internal_mixed_degree_termwise():
    f = E((1,)) + E((1, 2))
    g = E((1,)) + E((2, 1))
    # only the length-matching pairs survive
    assert f @ g == E((1,)) + E((2, 1))


def matmul_oracle(f, g):
    """Internal product by the pairwise loop: every pair of terms, composed
    when the arity matches, each product added to the running sum in turn."""
    out = {}
    for u, cu in f.terms.items():
        k = max(u, default=0)
        for v, cv in g.terms.items():
            if len(v) == k:
                w = tuple(v[x - 1] for x in u)
                c = out[w] + cu * cv if w in out else cu * cv
                if c:
                    out[w] = c
                else:
                    del out[w]
    return WQSymElement._raw(out)


packed_words = st.lists(st.integers(1, 4), max_size=4).map(pack)
rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 12))
polys = st.dictionaries(
    st.sampled_from([(), (("x", 1),), (("y", 1),), (("x", 1), ("y", 2))]),
    rationals,
    min_size=1,
    max_size=3,
).map(ParamPoly)
COEFFS = {"fraction": rationals, "param": polys, "mixed": st.one_of(rationals, polys)}


def elements(coeffs, words=packed_words, min_size=0, max_size=6):
    return st.dictionaries(words, coeffs, min_size=min_size, max_size=max_size).map(WQSymElement)


def assert_matches_oracle(f, g, kind="fraction"):
    product = f @ g
    assert product == matmul_oracle(f, g)
    if kind == "fraction":
        # an int coefficient would compare equal; exactness means Fraction
        assert all(type(c) is Fraction for c in product.terms.values())
    return product


@pytest.mark.parametrize("kind", COEFFS)
@given(data=st.data())
def test_internal_product_matches_pairwise_oracle(kind, data):
    coeffs = COEFFS[kind]
    one_term = elements(coeffs, min_size=1, max_size=1)
    f = data.draw(st.one_of(elements(coeffs), one_term), label="f")
    g = data.draw(elements(coeffs), label="g")
    assert_matches_oracle(f, g, kind)


@given(elements(rationals), elements(rationals, st.lists(st.integers(1, 2), min_size=5, max_size=6).map(pack)))
def test_internal_product_with_lengths_that_never_match(f, g):
    # every word of f has breadth <= 4, every word of g length >= 5
    assert not assert_matches_oracle(f, g)


@pytest.mark.parametrize("kind", COEFFS)
@given(data=st.data())
def test_internal_product_that_cancels_to_zero(kind, data):
    # u and its reverse have one length and one breadth, so both compose with
    # the constant word 1^k to the same word, with opposite signs
    coeffs = COEFFS[kind]
    f = WQSymElement.zero()
    for u, c in data.draw(st.dictionaries(packed_words, coeffs, max_size=4), label="pairs").items():
        f = f + c * (E(u) - E(reverse(u)))
    ones = data.draw(st.dictionaries(st.integers(0, 4), coeffs), label="ones")
    g = WQSymElement({(1,) * k: c for k, c in ones.items()})
    assert not assert_matches_oracle(f, g, kind)
    assert not assert_matches_oracle(WQSymElement.zero(), g, kind)
    assert not assert_matches_oracle(f, WQSymElement.zero(), kind)


T = ParamPoly.var("t")


@pytest.mark.parametrize(
    "cu",
    [Fraction(1), Fraction(-1), Fraction(2, 3), ParamPoly({(): 1}), T],
    ids=["one", "minus-one", "two-thirds", "param-one", "t"],
)
@pytest.mark.parametrize(
    "g",
    [
        WQSymElement({(2, 1): 3, (1, 2): Fraction(-1, 2), (1, 1): 1, (1, 1, 1): 5}),
        WQSymElement({(2, 1): ParamPoly({(): 3}), (1, 2): T + 1, (1, 1): ParamPoly({(): 1}), (1,): T}),
    ],
    ids=["fraction", "param"],
)
def test_one_term_internal_product_keeps_each_coefficient(cu, g):
    # a Fraction 1 may pass g's coefficients through; a ParamPoly 1 must
    # still multiply, or 3*M[2,1,2] would print instead of (3)*M[2,1,2]
    f = WQSymElement({(1, 2, 1): cu})
    product, oracle = f @ g, matmul_oracle(f, g)
    assert product == oracle
    types = [(w, type(c)) for w, c in product.sorted_terms()]
    assert types == [(w, type(c)) for w, c in oracle.sorted_terms()]
    assert str(product) == str(oracle)


# -- bullet product --------------------------------------------------------------


def test_bullet_examples():
    assert E((1, 1)) & E((2, 1)) == E((1, 1, 3, 2))
    g = elem((1, 2), (1, 1))
    assert WQSymElement.unit() & g == g
    assert E((1,)) & E((1,)) == E((1, 2))


def test_distributivity_of_bullet_over_internal():
    rng = random.Random(17)
    for _ in range(200):
        while True:
            u = random_packed(rng, rng.randint(0, 2))
            t = random_packed(rng, rng.randint(0, 2))
            ku, kt = max(u, default=0), max(t, default=0)
            if len(u) + len(t) + ku + kt <= 6:
                break
        v = random_packed(rng, ku)
        w = random_packed(rng, kt)
        assert (E(u) & E(t)) @ (E(v) & E(w)) == (E(u) @ E(v)) & (E(t) @ E(w))


# -- crucial factorization --------------------------------------------------------


def test_crucial_paper_instance():
    five = elem((1, 1, 3, 2), (1, 1, 2, 1), (2, 2, 3, 1), (2, 2, 2, 1), (3, 3, 2, 1))
    assert (E((1, 1)) & E((2, 1))) @ embed_sym_hat((1, 2)) == five
    assert crucial_factorization_check([(1, 1), (2, 1)])


def test_crucial_single_word_and_seeded():
    rng = random.Random(23)
    for _ in range(60):
        u = random_packed(rng, rng.randint(0, 4))
        assert crucial_factorization_check([u])
    for _ in range(120):
        budget = 6
        ws = []
        for _ in range(rng.randint(1, 3)):
            l = rng.randint(0, budget)
            ws.append(random_packed(rng, l))
            budget -= l
        assert crucial_factorization_check(ws)
    with pytest.raises(ValueError):
        crucial_factorization_check([])


@st.composite
def word_lists(draw, total=6):
    """One to three packed words of total length at most ``total``."""
    ws = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.integers(0, total))
        ws.append(pack(tuple(draw(st.lists(st.integers(1, 6), min_size=length, max_size=length)))))
        total -= length
    return ws


@settings(max_examples=60, deadline=None)
@given(word_lists())
def test_crucial_factorization_on_drawn_words(ws):
    assert crucial_factorization_check(ws)


# -- embeddings -------------------------------------------------------------------


def test_embed_sym_standard_examples():
    for n in range(1, 5):
        sn = embed_sym_standard((n,))
        assert sn == elem(*(u for u in enumerate_packed_words(n) if not _descents(u)))
    assert embed_sym_standard(()) == WQSymElement.unit()
    assert embed_sym_standard((1, 1)) == elem((1, 1), (1, 2), (2, 1))


def _descents(u):
    return {i for i in range(1, len(u)) if u[i - 1] > u[i]}


def test_ribbon_standard_examples():
    assert ribbon_standard((2,)) == elem((1, 1), (1, 2))
    assert ribbon_standard((1, 1)) == E((2, 1))
    assert ribbon_standard((3,)) == embed_sym_standard((3,))


def test_ribbon_standard_moebius():
    # S^I is the sum of ribbons over all coarsenings of I
    for n in range(1, 6):
        for I in compositions(n):
            total = WQSymElement.zero()
            for J in compositions(n):
                if _partial_sums(J) <= _partial_sums(I):
                    total = total + ribbon_standard(J)
            assert total == embed_sym_standard(I)


def _partial_sums(I):
    s, out = 0, set()
    for p in I[:-1]:
        s += p
        out.add(s)
    return out


def test_embed_sym_hat_examples():
    for n in range(5):
        assert embed_sym_hat((n,) if n else ()) == E(tuple(range(1, n + 1)))
    assert embed_sym_hat((1, 2)) == elem(
        (1, 2, 3), (1, 1, 2), (2, 1, 3), (2, 1, 2), (3, 1, 2)
    )


def test_embed_sym_hat_closed_form_matches():
    for n in range(6):
        for I in compositions(n):
            assert embed_sym_hat_closed(I) == embed_sym_hat(I)


def test_ribbon_hat_examples_and_moebius():
    for n in range(1, 5):
        assert ribbon_hat((n,)) == E(tuple(range(1, n + 1)))
    assert ribbon_hat((1, 1)) == embed_sym_hat((1, 1)) - embed_sym_hat((2,))
    assert ribbon_hat(()) == WQSymElement.unit()
    for n in range(1, 6):
        for I in compositions(n):
            total = WQSymElement.zero()
            for J in compositions(n):
                if _partial_sums(tuple(reversed(J))) <= _partial_sums(tuple(reversed(I))):
                    total = total + ribbon_hat(J)
            assert total == embed_sym_hat(I)


def test_hat_embedding_is_coalgebra_map():
    for n in range(6):
        lhs = embed_sym_hat((n,) if n else ()).coproduct()
        rhs = TensorSquare.zero()
        for i in range(n + 1):
            rhs = rhs + TensorSquare(
                {(tuple(range(1, i + 1)), tuple(range(1, n - i + 1))): 1}
            )
        assert lhs == rhs


# -- housekeeping --------------------------------------------------------------


def test_zero_pruning_and_equality():
    f = E((1, 2)) - E((1, 2))
    assert f == WQSymElement.zero()
    assert not f.terms
    g = E((1,), Fraction(1, 3)) * 3
    assert g == E((1,))
    assert (g / 3) * 3 == g


def test_validation():
    with pytest.raises(ValueError):
        WQSymElement.monomial((1, 3))  # not packed
    with pytest.raises(TypeError):
        WQSymElement.monomial((1,), 0.5)  # floats are not exact


def test_component_access():
    f = E((1,)) + E((1, 2)) + E((2, 1))
    assert f.degrees() == [1, 2]
    assert f.component(2) == elem((1, 2), (2, 1))
    assert f.counit() == 0
    assert (f + WQSymElement.unit()).counit() == 1


def test_str_output():
    f = E((1, 2)) - E((1, 1)) * Fraction(1, 2)
    assert str(f) == "-1/2*M[1,1] + M[1,2]"
    assert str(WQSymElement.zero()) == "0"
    assert str(WQSymElement.unit()) == "M[]"
