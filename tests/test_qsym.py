"""Composition algebra: product, action, Adams operations, deformed
operators, commutative image, and free-generator extraction."""

import math
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.algebra import WQSymElement
from wqsym.errors import CapExceeded
from wqsym import qsym
from wqsym.qsym import (
    QSymElement,
    commutative_image,
    e1_projection_check,
    lyndon_generator_report,
    qsym_adams,
    qsym_adams_oracle,
    rank_of_elements,
    sigma_hat_series,
)
from wqsym.series import adams, eulerian_idempotent, identity_series
from wqsym.words import compositions, lyndon_compositions

E = WQSymElement.monomial
Q = QSymElement.monomial


def test_product_examples():
    for i, j in ((1, 1), (1, 2), (2, 5)):
        assert Q((i,)) * Q((j,)) == Q((i, j)) + Q((j, i)) + Q((i + j,))
    g = Q((2, 1)) - 3 * Q((4,))
    assert QSymElement.unit() * g == g


def test_product_weight_additivity():
    rng = random.Random(2)
    for _ in range(40):
        I = _random_comp(rng, rng.randint(0, 4))
        J = _random_comp(rng, rng.randint(0, 4))
        prod = Q(I) * Q(J)
        assert {sum(K) for K in prod.terms} <= {sum(I) + sum(J)}


def _random_comp(rng, weight):
    parts = []
    while weight:
        p = rng.randint(1, weight)
        parts.append(p)
        weight -= p
    return tuple(parts)


def test_action_examples():
    assert Q((2, 1, 3, 2, 2)).act(E((1, 2, 1, 2, 1))) == Q((7, 3))
    I = (4, 1, 2)
    assert Q(I).act(E((1, 2, 3))) == Q(I)
    assert Q((1, 1)).act(E((1, 1))) == Q((2,))
    assert Q((1, 1)).act(E((1,))) == QSymElement.zero()


def test_action_is_a_module_law():
    rng = random.Random(8)
    for _ in range(80):
        I = _random_comp(rng, rng.randint(0, 5))
        f = _random_word_elem(rng, len(I) if rng.random() < 0.7 else rng.randint(0, 4))
        word_f = next(iter(f.terms))
        g = _random_word_elem(rng, max(word_f) if word_f else 0)
        assert Q(I).act(f).act(g) == Q(I).act(f @ g)


def _random_word_elem(rng, length):
    word, mx = [], 0
    for _ in range(length):
        letter = rng.randint(1, mx + 1)
        word.append(letter)
        mx = max(mx, letter)
    return E(tuple(word))


def test_adams_worked_examples():
    for n in (1, 2, 3):
        assert qsym_adams(2, Q((n,)), 5) == 2 * Q((n,))
    for i, j in ((1, 1), (1, 2), (2, 3)):
        assert qsym_adams(2, Q((i, j)), 5) == 3 * Q((i, j)) + Q((j, i)) + Q((i + j,))
    F = Q((2, 1)) - Q((3,))
    assert qsym_adams(1, F, 5) == F
    assert qsym_adams(0, F, 5) == QSymElement.zero()


def test_adams_matches_oracle_exhaustively():
    for n in range(6):
        for I in compositions(n):
            F = Q(I)
            for k in range(4):
                assert qsym_adams(k, F, 5) == qsym_adams_oracle(k, F)


def test_adams_is_an_algebra_endomorphism():
    rng = random.Random(14)
    for _ in range(40):
        F = Q(_random_comp(rng, rng.randint(0, 2)))
        G = Q(_random_comp(rng, rng.randint(0, 2)))
        for k in range(4):
            assert qsym_adams_oracle(k, F * G) == qsym_adams_oracle(k, F) * qsym_adams_oracle(k, G)


def test_adams_composition_law():
    for n in range(5):
        for I in compositions(n):
            for k in range(4):
                for l in range(4):
                    lhs = qsym_adams(l, qsym_adams(k, Q(I), 4), 4)
                    assert lhs == qsym_adams(k * l, Q(I), 4)


def test_commutative_image():
    assert commutative_image(E((1, 3, 1, 3, 2))) == Q((2, 1, 2))
    assert commutative_image(E(tuple(range(1, 5)))) == Q((1, 1, 1, 1))
    f = E((1, 1))
    g = E((2, 1))
    assert commutative_image(f * g) == commutative_image(f) * commutative_image(g)


def test_commutative_image_is_multiplicative_seeded():
    rng = random.Random(19)
    for _ in range(60):
        f = _random_word_elem(rng, rng.randint(0, 3))
        g = _random_word_elem(rng, rng.randint(0, 2))
        assert commutative_image(f * g) == commutative_image(f) * commutative_image(g)


def test_sigma_hat_scaling():
    # each coefficient has degree <= 5 in t, so six points prove the identity
    # for every t
    for t in range(6):
        s = sigma_hat_series(t, 5)
        for I in ((3,), (1, 2), (2, 1, 1)):
            assert Q(I).act(s) == Q(I, t ** len(I))


def test_sigma_hat_specializations():
    assert sigma_hat_series(Fraction(1), 5) == identity_series(5)
    s0 = sigma_hat_series(Fraction(0), 5)
    assert Q((2, 1)).act(s0) == QSymElement.zero()
    assert QSymElement.unit().act(s0) == QSymElement.unit()
    with pytest.raises(TypeError):
        sigma_hat_series(0.5, 3)


def test_deformed_adams_identity():
    # each coefficient has degree <= 2 in x and in y, so a 3 x 3 grid proves
    # the identity for all x and y (Alon, CPC 8, 1999, Lemma 2.1)
    for x, y in iproduct(range(3), repeat=2):
        op = sigma_hat_series(x, 4) * sigma_hat_series(y, 4)
        for i, j in ((1, 2), (2, 3), (1, 1)):
            got = Q((i, j)).act(op)
            expected = Q((i, j), x * x + x * y + y * y) + Q((j, i), x * y) + Q((i + j,), x * y)
            assert got == expected


def test_rank_helper():
    one = Fraction(1)
    basis = [(2,), (1, 1)]
    rows = [
        QSymElement({(2,): one}),
        QSymElement({(1, 1): one, (2,): one}),
        QSymElement({(1, 1): 2, (2,): 2}),
    ]
    assert rank_of_elements(rows, basis) == 2
    assert rank_of_elements([QSymElement.zero()], basis) == 0
    assert rank_of_elements([], basis) == 0
    with pytest.raises(ValueError):
        rank_of_elements([QSymElement({(3,): one})], basis)


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Fraction-free (Bareiss) row reduction; exact division throughout."""
    m = [row[:] for row in rows if any(row)]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank, row, prev = 0, 0, 1
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col]), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[r][c] * m[row][col] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def _oracle_rank(elements, basis) -> int:
    """Rank by Bareiss elimination, each row scaled to integers by the lcm
    of its denominators."""
    rows = []
    for el in elements:
        row = [el.terms.get(I, Fraction(0)) for I in basis]
        denom = math.lcm(*(f.denominator for f in row))
        rows.append([int(f * denom) for f in row])
    return _bareiss_rank(rows)


_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _families(draw):
    """0-6 elements over the compositions of n <= 4: fresh rows, zero rows,
    scaled (or repeated) earlier rows and sums of two earlier rows."""
    basis = compositions(draw(st.integers(0, 4)))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["fresh", "zero", "scaled", "sum"])) if rows else "fresh"
        if kind == "zero":
            rows.append(QSymElement.zero())
        elif kind == "scaled":
            rows.append(draw(st.sampled_from(rows)) * draw(_coeffs))
        elif kind == "sum":
            rows.append(draw(st.sampled_from(rows)) + draw(st.sampled_from(rows)))
        else:
            rows.append(QSymElement(draw(st.dictionaries(st.sampled_from(basis), _coeffs))))
    return rows, basis


@settings(max_examples=200, deadline=None)
@given(_families())
def test_rank_matches_the_bareiss_oracle(family):
    rows, basis = family
    assert rank_of_elements(rows, basis) == _oracle_rank(rows, basis)


def test_lyndon_generator_report():
    reports = lyndon_generator_report(5)
    assert [len(r.lyndon) for r in reports] == [1, 1, 2, 3, 6]
    for r in reports:
        assert r.lyndon == lyndon_compositions(r.weight)
        assert r.dimension == 2 ** (r.weight - 1)
        assert r.full_rank and r.rank == r.dimension
    with pytest.raises(CapExceeded):
        lyndon_generator_report(8)


def test_lyndon_generator_report_builds_each_product_once(monkeypatch):
    # QSym is free on the Lyndon compositions, so weight t has 2^(t-1)
    # products of generator images, each one multiplication
    calls = []
    mul = QSymElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QSymElement, "__mul__", counted)
    for n in range(1, 7):
        calls.clear()
        lyndon_generator_report(n)
        assert len(calls) == 2**n - 1


def test_e1_projection_checks():
    for n in range(1, 6):
        assert e1_projection_check(n)


@pytest.mark.parametrize(
    "projection",
    [
        lambda i, n: adams(2, n),  # not idempotent
        lambda i, n: identity_series(n),  # idempotent, but keeps products and has full rank
    ],
    ids=["adams", "identity"],
)
def test_e1_projection_check_fails_on_other_operators(monkeypatch, projection):
    monkeypatch.setattr(qsym, "eulerian_idempotent", projection)
    for n in range(2, 6):
        assert not e1_projection_check(n)


def test_e1_projection_check_fails_when_products_survive(monkeypatch):
    # the identity is idempotent; with its rank granted, only the products fail
    monkeypatch.setattr(qsym, "eulerian_idempotent", lambda i, n: identity_series(n))
    monkeypatch.setattr(qsym, "rank_of_elements", lambda images, basis: len(lyndon_compositions(sum(basis[0]))))
    for n in range(2, 6):
        assert not e1_projection_check(n)


def test_e1_on_low_weights():
    e1 = eulerian_idempotent(1, 2)
    assert Q((2,)).act(e1) == Q((2,))
    assert Q((1, 1)).act(e1) == Q((2,)) * Fraction(-1, 2)
    assert (Q((1,)) * Q((1,))).act(e1) == QSymElement.zero()


def test_act_with_series_respects_cutoff():
    with pytest.raises(CapExceeded):
        Q((1, 1, 1)).act(adams(2, 2))


def test_validation():
    for I in [(1, 0), (1.7, 2), ("1", 2.9)]:
        with pytest.raises(ValueError):
            QSymElement.monomial(I)
    assert Q(()) == QSymElement.unit()
