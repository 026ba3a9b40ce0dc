"""Element layer: the three products, the coproduct, and the two embeddings."""

import random
import tracemalloc
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym import algebra, qshuffle
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
from wqsym.qshuffle import AElement, QSElement, QSTensor
from wqsym.qsym import QSymElement, sigma_hat_series
from wqsym.series import eulerian_idempotent, identity_series
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


# -- shared integral coefficients --------------------------------------------


def test_integral_coefficients_are_shared_objects():
    # dict == compares values by identity first, so equal shared coefficients
    # never reach Fraction.__eq__
    one = E((1, 2)).terms[(1, 2)]
    assert E((2, 1, 1)).terms[(2, 1, 1)] is one
    assert WQSymElement.unit().terms[()] is one
    square = E((1,)) * E((1,))
    assert square == elem((1, 1), (1, 2), (2, 1))
    assert all(c is one for c in square.terms.values())
    assert WQSymElement.zero().counit() is E((1,), 0).counit() == 0
    # a kernel's integral sum is shared, whatever its operand's coefficient is
    twice = E((1,)) + E((1,))
    assert twice.coproduct().terms[(), (1,)] is E((1,), 2).terms[(1,)]


def test_coefficients_outside_the_shared_ones_still_compare_equal():
    big = E((1,), 10**10) * E((1,), 10**10)
    assert big == E((1,)) * E((1,), 10**20) == 10**20 * elem((1, 1), (1, 2), (2, 1))
    assert E((1,), 65) == WQSymElement({(1,): Fraction(130, 2)})
    half = E((1,), Fraction(1, 2)) * E((1,), 2)
    assert half == E((1,)) * E((1,))
    assert E((1,), Fraction(1, 3)) == WQSymElement({(1,): Fraction(2, 6)})


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
COEFFS = {"fraction": rationals}


def elements(coeffs, words=packed_words, min_size=0, max_size=6):
    return st.dictionaries(words, coeffs, min_size=min_size, max_size=max_size).map(WQSymElement)


def assert_matches_oracle(f, g):
    product = f @ g
    assert product == matmul_oracle(f, g)
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
    assert_matches_oracle(f, g)


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
    assert not assert_matches_oracle(f, g)
    assert not assert_matches_oracle(WQSymElement.zero(), g)
    assert not assert_matches_oracle(f, WQSymElement.zero())


@given(data=st.data())
def test_bucket_route_matches_pairwise_oracle_on_every_draw(data):
    # a huge pair cost sends every Fraction bucket, down to lengths 0 and 1,
    # through the permutation tables
    f = data.draw(st.one_of(elements(rationals), elements(rationals, min_size=1, max_size=1)), label="f")
    g = data.draw(elements(rationals), label="g")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_PAIR", 10**9)
        assert_matches_oracle(f, g)


# -- dense operands: the bucket route of @, checked against the pair loop ----


def dense(rng, lengths, keep=1.0):
    """Every packed word of the given lengths, each kept with probability
    ``keep``, with a random nonzero ``Fraction``."""
    return WQSymElement(
        {
            w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
            for n in lengths
            for w in enumerate_packed_words(n)
            if rng.random() < keep
        }
    )


def permutation_calls(monkeypatch):
    """A counter of the bucket route's runs: one call of ``_permuted`` each."""
    real, calls = algebra._permuted, [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(algebra, "_permuted", counted)
    return calls


@pytest.mark.parametrize("sides,route", [("left", False), ("right", True), ("both", True)])
def test_full_buckets_match_the_oracle(monkeypatch, sides, route):
    # every packed word of length <= 5 on the full sides, a tenth of them on
    # the other; a sparse right operand keeps every bucket on the pair loop
    rng = random.Random(len(sides))
    f = dense(rng, range(6), keep=0.1 if sides == "right" else 1.0)
    g = dense(rng, range(6), keep=0.1 if sides == "left" else 1.0)
    calls = permutation_calls(monkeypatch)
    assert assert_matches_oracle(f, g)
    assert (calls[0] > 0) == route


@pytest.mark.parametrize("kept,route", [(100, 0), (250, 1)], ids=["pair-loop", "bucket"])
def test_thinned_buckets_on_either_side_of_the_selection(monkeypatch, kept, route):
    # the 120 permutations of length 5 against kept of the 541 packed words
    # of length 5: the route pays off from about 164 of them
    rng = random.Random(kept)
    f = WQSymElement({u: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 3)) for u in permutations(range(1, 6))})
    g = WQSymElement({v: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for v in rng.sample(enumerate_packed_words(5), kept)})
    calls = permutation_calls(monkeypatch)
    assert assert_matches_oracle(f, g)
    assert calls[0] == route


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("excess,route", [(0, 1), (1, 0)], ids=["at-the-bound", "one-over"])
def test_the_lane_bound_of_the_bucket_route(monkeypatch, sign, excess, route):
    # 12345 and 21345 share their standardisation, so every lane of their
    # sum is g(w) + 6 g(w o 21345) = 7 g: exactly +-(2^63 - 1) at the bound,
    # which the packed route must read back; one unit more takes the pair loop
    f = WQSymElement({(1, 2, 3, 4, 5): Fraction(1), (2, 1, 3, 4, 5): Fraction(6)})
    top = sign * (((1 << 63) - 1) // 7 + excess)
    g = WQSymElement({v: Fraction(top) for v in enumerate_packed_words(5)})
    calls = permutation_calls(monkeypatch)
    product = assert_matches_oracle(f, g)
    assert calls[0] == route
    assert set(product.terms.values()) == {7 * top} and len(product.terms) == 541


def test_a_packed_vector_has_one_64_bit_lane_per_entry():
    # the 13 packed words of length 3, with the edges of a lane among them
    v = [-(1 << 63), (1 << 63) - 1, 0, -1, 5, 1 << 40, 0, 0, -(1 << 62), 3, 0, 1, (1 << 63) - 1]
    space = algebra._space(3)
    lanes = space.lay_out(space.ranks, v)
    assert space.lanes.size == len(lanes) == 8 * len(v)
    packed = space.packed(lanes)
    assert packed == sum(x << 64 * i for i, x in enumerate(v))
    assert space.decode(packed) == tuple(v)


#: the edges of a lane, and 0
LANE_EDGES = (-(1 << 63), -((1 << 63) - 1), (1 << 63) - 1, 0)


@pytest.mark.parametrize("n", range(2, 7))
def test_a_lane_swap_gathers_the_entries_of_the_swapped_words(n):
    rng = random.Random(n)
    space = algebra._space(n)
    ws = list(space.ranks)
    x = [*LANE_EDGES, *(rng.randrange(-(1 << 63), 1 << 63) for _ in ws)][: len(ws)]
    rng.shuffle(x)
    lanes = space.lay_out(ws, x)
    for a in range(n):
        for b in range(a + 1, n):
            order = list(range(n))
            order[a], order[b] = b, a
            gathered = tuple(x[space.ranks[tuple(w[i] for i in order)]] for w in ws)
            assert space.decode(space.packed(space.lane_swap(a, b)(lanes))) == gathered


@pytest.mark.parametrize("k", range(6))
def test_permuted_yields_each_order_once_and_the_action_lays_out_masks_by_it(k):
    # the lanes of g permuted by each sigma, and the action's layout by each
    # sigma of a table over the sets of positions
    rng = random.Random(k)
    space = algebra._space(k)
    ws = list(space.ranks)
    g = [rng.randint(-99, 99) for _ in ws]
    by_mask = [rng.randint(-99, 99) for _ in range(1 << k)]
    sigmas = list(permutations(range(1, k + 1)))
    rng.shuffle(sigmas)
    lanes = list(algebra._permuted(space, space.lay_out(ws, g), sigmas))
    assert [sigma for sigma, _ in lanes] == sorted(sigmas, key=reverse)
    assert sorted(sigma for sigma, _ in lanes) == sorted(sigmas)
    for sigma, permuted in lanes:
        g_sigma = space.decode(space.packed(permuted))
        assert all(g_sigma[space.ranks[tuple(v[s - 1] for s in sigma)]] == x for v, x in zip(ws, g))
    for sigma in sigmas:
        laid_out = map(by_mask.__getitem__, qshuffle._layout_masks(sigma))
        images = (sum(1 << (sigma[j] - 1) for j in range(k) if m >> j & 1) for m in range(1 << k))
        assert list(laid_out) == list(map(by_mask.__getitem__, images))


def lane_swap_plans_size(n):
    """The bytes that all swap plans of length ``n`` take, on a record of
    their own (the shared one may hold some already)."""
    space = algebra._Space(n)
    tracemalloc.start()
    try:
        for a in range(n):
            for b in range(a + 1, n):
                space.lane_swap(a, b)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_the_swap_plans_of_length_six_take_under_two_megabytes():
    # each run of one lane reads the record's shared slice; about 1.1 MB
    assert lane_swap_plans_size(6) < 2 << 20


@pytest.mark.slow
def test_the_swap_plans_of_length_seven_take_under_24_megabytes():
    # about 12 MB, with runs of one lane sharing the record's slices
    assert lane_swap_plans_size(7) < 24 << 20


def test_dense_coefficients_that_cancel(monkeypatch):
    # u and its reverse share their breadth, so against the constant word
    # 1^k both land on 1^n and cancel; against a full bucket the other words
    # survive
    rng = random.Random(4)
    f = WQSymElement.zero()
    for n in range(6):
        for u in enumerate_packed_words(n):
            f = f + Fraction(rng.randint(1, 5), rng.randint(1, 3)) * (E(u) - E(reverse(u)))
    g = dense(rng, range(6))
    calls = permutation_calls(monkeypatch)
    product = assert_matches_oracle(f, g)
    assert calls[0] >= 2
    assert product and not any(len(set(w)) == 1 for w in product.terms)


def test_a_sparse_length_seven_product_builds_no_table():
    f = E((1, 2, 3, 4, 5, 6, 7)) + E((7, 6, 5, 4, 3, 2, 1))
    algebra._space.cache_clear()
    assert f @ E((2, 1, 3, 4, 5, 6, 7)) == E((2, 1, 3, 4, 5, 6, 7)) + E((7, 6, 5, 4, 3, 1, 2))
    assert algebra._space.cache_info().currsize == 0


def test_dense_idempotent_products_take_the_bucket_route(monkeypatch):
    # 633 calls, one per left word, on the pair loop alone; one per distinct
    # first-occurrence standardisation on the bucket route
    real, calls = algebra._gather, [0]

    def counted(indices):
        calls[0] += 1
        return real(indices)

    e1 = eulerian_idempotent(1, 5)
    assert len(e1.element.terms) == 633
    monkeypatch.setattr(algebra, "_gather", counted)
    assert e1 @ e1 == e1
    assert calls[0] <= 101


@pytest.mark.parametrize("cu", [Fraction(1), Fraction(-1), Fraction(2, 3)], ids=["one", "minus-one", "two-thirds"])
@pytest.mark.parametrize(
    "g", [WQSymElement({(2, 1): 3, (1, 2): Fraction(-1, 2), (1, 1): 1, (1, 1, 1): 5})], ids=["fraction"]
)
def test_one_term_internal_product_keeps_each_coefficient(cu, g):
    # a 1 passes g's coefficients through: each must still be the oracle's
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


#: a valid key of each element class
VALID_KEYS = {
    WQSymElement: (1, 2, 1),
    TensorSquare: ((1,), (1, 1)),
    QSElement: ((("a", 1),),),
    QSTensor: (((("a", 1),),), ()),
    QSymElement: (2, 1),
    AElement: (("a", 1),),
}


@pytest.mark.parametrize("coeff", [0.5, ParamPoly.var("t")], ids=["half", "t"])
@pytest.mark.parametrize("cls", list(VALID_KEYS), ids=lambda cls: cls.__name__)
def test_validation(cls, coeff):
    with pytest.raises(ValueError):
        WQSymElement.monomial((1, 3))  # not packed
    # only an int or a Fraction is an exact coefficient: not a float, nor a
    # polynomial in a parameter
    x = cls({VALID_KEYS[cls]: 1})
    for refused in (lambda: cls({VALID_KEYS[cls]: coeff}), lambda: x * coeff, lambda: coeff * x):
        with pytest.raises(TypeError):
            refused()
    M1 = WQSymElement.monomial((1,))
    for refused in (lambda: M1 * coeff, lambda: coeff * M1, lambda: identity_series(2) * coeff):
        with pytest.raises(TypeError):
            refused()
    with pytest.raises(TypeError):
        sigma_hat_series(coeff, 3)


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
