"""Truncated-series calculus: convolution, inverse, log/exp, Adams powers,
quasi-Eulerian idempotents."""

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wqsym.algebra import WQSymElement
from wqsym.errors import CapExceeded, NotInvertible
from wqsym.qshuffle import QSElement
from wqsym.qsym import QSymElement, qsym_adams, qsym_adams_oracle, sigma_hat_series
from wqsym.series import (
    Characteristic,
    TruncatedSeries,
    _ascent_polynomial,
    adams,
    check_degree_cap,
    eulerian_e1_closed_form,
    eulerian_idempotent,
    format_graded,
    identity_series,
    log_identity,
    unipotence_check,
)
from wqsym.words import enumerate_packed_words, pack

E = WQSymElement.monomial
half = Fraction(1, 2)
sixth = Fraction(1, 6)


def elem(d):
    return WQSymElement(d)


def test_identity_series(staircase):
    I = identity_series(5)
    assert I.component(0) == WQSymElement.unit()
    assert I.component(2) == E((1, 2))
    assert I.degrees() == [0, 1, 2, 3, 4, 5]
    assert identity_series(0) == TruncatedSeries.unit(0)
    for n in range(8):
        assert identity_series(n) == staircase(n), n


def test_convolution_square_low_degrees():
    sq = adams(2, 3)
    assert sq.component(0) == WQSymElement.unit()
    assert sq.component(1) == 2 * E((1,))
    assert sq.component(2) == elem({(1, 2): 3, (2, 1): 1, (1, 1): 1})
    assert sq.component(3) == elem(
        {
            (1, 2, 3): 4,
            (1, 1, 2): 1,
            (2, 1, 3): 1,
            (2, 1, 2): 1,
            (3, 1, 2): 1,
            (1, 2, 1): 1,
            (1, 2, 2): 1,
            (1, 3, 2): 1,
            (2, 3, 1): 1,
        }
    )


def test_convolution_unit_and_cross_term():
    I = identity_series(4)
    assert I * TruncatedSeries.unit(4) == I
    x = I - TruncatedSeries.unit(4)
    assert (x * x).component(2) == E((1,)) * E((1,))


def test_min_cutoff_is_recorded():
    a = identity_series(5)
    b = identity_series(3)
    assert (a * b).cutoff == 3
    assert (a + b).cutoff == 3
    assert (a @ b).cutoff == 3


def test_inverse():
    assert TruncatedSeries.unit(4).inverse() == TruncatedSeries.unit(4)
    I = identity_series(6)
    assert I.inverse().component(1) == -E((1,))
    assert I * I.inverse() == TruncatedSeries.unit(6)
    assert I.inverse() * I == TruncatedSeries.unit(6)
    with pytest.raises(NotInvertible):
        (I - TruncatedSeries.unit(6)).inverse()


def test_log_exp_round_trip():
    assert TruncatedSeries.unit(4).log() == TruncatedSeries.zero(4)
    L = log_identity(5)
    assert L.exp() == identity_series(5)
    assert L.component(2) == elem({(1, 2): half, (1, 1): -half, (2, 1): -half})
    with pytest.raises(ValueError):
        (identity_series(3) * 2).log()
    with pytest.raises(ValueError):
        identity_series(3).exp()


def ascents(w):
    return sum(x < y for x, y in zip(w, w[1:]))


def test_adams_basics(staircase):
    assert adams(1, 4) == staircase(4)
    assert adams(0, 4) == TruncatedSeries.unit(4)
    assert adams(2, 4).component(1) == 2 * E((1,))
    assert adams(3, 4) == adams(1, 4) * adams(2, 4)
    # Psi^k is C(k + a, d) on a word of length d with a ascents
    words = [w for d in range(7) for w in enumerate_packed_words(d)]
    for k in (*range(7), 10**6):
        binomial = elem({w: math.comb(ascents(w) + k, len(w)) for w in words})
        assert adams(k, 6).element == binomial, k


def test_adams_power_laws():
    # at cutoff n both sides are polynomials of degree <= n in k and in l, so
    # agreeing on the grid {0..n}^2 proves both laws for every integer k and
    # l (Alon, "Combinatorial Nullstellensatz", CPC 8, 1999, Lemma 2.1)
    n = 5
    psi = {k: adams(k, n) for k in range(n * n + 1)}
    for k in range(n + 1):
        for l in range(n + 1):
            assert psi[k] * psi[l] == psi[k + l], (k, l)
            assert psi[k] @ psi[l] == psi[k * l], (k, l)


# printed degree-<=3 expansions; the degree-3 coefficient table for e1 was
# recomputed independently by the alternating ribbon formula (it has all 13
# basis words; the words 132 and 312 both carry -1/6)
E1_DEGREE_3 = {
    (1, 2, 3): 2 * sixth,
    (1, 2, 2): -sixth,
    (1, 1, 2): -sixth,
    (1, 1, 1): 2 * sixth,
    (2, 3, 1): -sixth,
    (1, 3, 2): -sixth,
    (2, 2, 1): 2 * sixth,
    (1, 2, 1): -sixth,
    (2, 1, 3): -sixth,
    (2, 1, 2): -sixth,
    (2, 1, 1): 2 * sixth,
    (3, 2, 1): 2 * sixth,
    (3, 1, 2): -sixth,
}


def test_eulerian_idempotent_expansions():
    e1 = eulerian_idempotent(1, 3)
    assert e1.component(1) == E((1,))
    assert e1.component(2) == elem({(1, 2): half, (1, 1): -half, (2, 1): -half})
    assert e1.component(3) == elem(E1_DEGREE_3)

    e2 = eulerian_idempotent(2, 3)
    assert e2.component(1) == WQSymElement.zero()
    assert e2.component(2) == elem({(1, 2): half, (1, 1): half, (2, 1): half})
    assert e2.component(3) == elem(
        {(1, 2, 3): half, (1, 1, 1): -half, (2, 2, 1): -half, (2, 1, 1): -half, (3, 2, 1): -half}
    )

    e3 = eulerian_idempotent(3, 3)
    assert e3.component(3) == elem({u: sixth for u in enumerate_packed_words(3)})
    assert eulerian_idempotent(0, 4) == TruncatedSeries.unit(4)


def test_ascent_polynomial_is_the_binomial_in_k():
    # d! * C(k + a, d) as a polynomial in k with int coefficients, the source
    # of every closed form
    for d in range(9):
        for a in range(d + 1):
            poly = _ascent_polynomial(a, d)
            assert len(poly) == d + 1 and all(type(c) is int for c in poly)
            for k in range(d + 2):
                assert sum(c * k**i for i, c in enumerate(poly)) == math.factorial(d) * math.comb(k + a, d), (k, a, d)


def test_e1_closed_form_matches_log_route():
    assert eulerian_e1_closed_form(5) == identity_series(5).log()


def test_ascent_closed_forms_match_the_convolution_route(staircase):
    # Psi^k = I^(*k), log I by the log series, e_i = log(I)^(*i) / i!
    for d in range(7):
        I = staircase(d)
        power = TruncatedSeries.unit(d)
        for k in range(9):
            assert adams(k, d) == power, (k, d)
            power = power * I
        log = I.log()
        assert log_identity(d) == log, d
        power = TruncatedSeries.unit(d)
        for i in range(d + 2):
            assert eulerian_idempotent(i, d) == power / math.factorial(i), (i, d)
            power = power * log
    I = staircase(7)
    assert adams(2, 7) == I * I
    assert adams(3, 7) == I * I * I


def test_idempotents_are_orthogonal():
    # e_i @ e_j = delta_ij e_i at cutoff 5, one degree beyond the eulerian
    # verify suite's clamp
    e = [eulerian_idempotent(i, 5) for i in range(6)]
    for i in range(6):
        assert e[i]
        for j in range(6):
            assert e[i] @ e[j] == (e[i] if i == j else TruncatedSeries.zero(5)), (i, j)


@pytest.mark.slow
def test_idempotents_are_orthogonal_at_cutoff_six():
    # one degree past the tier-1 check above; each dense product goes
    # through the bucket route of @
    e = {i: eulerian_idempotent(i, 6) for i in (1, 2, 3)}
    for i in e:
        for j in e:
            assert e[i] @ e[j] == (e[i] if i == j else TruncatedSeries.zero(6)), (i, j)


def test_eulerian_coordinates_follow_the_dense_operators():
    # each rule of Characteristic against the dense series operators
    rng = random.Random(5)
    for n in range(6):
        e = [eulerian_idempotent(i, n) for i in range(n + 1)]
        x = [Characteristic.eulerian(i, n) for i in range(n + 1)]
        for i in range(n + 1):
            for j in range(n + 1):
                # e_i * e_j = C(i + j, i) e_{i+j} and e_i @ e_j = delta_ij e_i
                assert (x[i] * x[j]).series() == e[i] * e[j], (n, i, j)
                assert (x[i] @ x[j]).series() == e[i] @ e[j], (n, i, j)
        for k in range(n + 2):
            # Psi^k = sum_i k^i e_i
            dense = TruncatedSeries.zero(n)
            for i in range(n + 1):
                dense = dense + e[i] * Fraction(k**i)
            assert Characteristic.adams(k, n).series() == dense, (n, k)
        for c in (0, 3, Fraction(-1, 2)):
            # c*M[] = c*e_0, on either side of every operator
            scalar = c * WQSymElement.unit()
            assert Characteristic(n, [c] + [0] * n).series() == TruncatedSeries.from_element(scalar, n)
            y = Characteristic(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n + 1)])
            for op in (operator.add, operator.sub, operator.mul, operator.matmul):
                assert op(y, scalar).series() == op(y.series(), scalar), (n, c, op)
                assert op(scalar, y).series() == op(scalar, y.series()), (n, c, op)
        # the antipode, Psi^{-1} = (1, -1, 1, ...), is the convolution inverse of I
        assert Characteristic(n, [(-1) ** i for i in range(n + 1)]).series() == identity_series(n).inverse(), n


def test_sparse_coordinates_match_the_convolution_route(staircase):
    # sum_i c_i log(I)^(*i) / i! with most c_i zero, I built word by word:
    # the built series and the text streamed from the coordinates
    rng = random.Random(11)
    for n in range(6):
        log = staircase(n).log()
        for _ in range(4):
            draws = (rng.random() < 2 / 3 for _ in range(n + 1))
            c = [0 if zero else Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for zero in draws]
            expected, power = TruncatedSeries.zero(n), TruncatedSeries.unit(n)
            for i in range(n + 1):
                expected = expected + power * (Fraction(c[i]) / math.factorial(i))
                power = power * log
            x = Characteristic(n, c)
            assert x.series() == expected, (n, c)
            assert "".join(format_graded(n, x.graded_terms())) == str(expected), (n, c)


def test_idempotents_sum_to_identity():
    total = TruncatedSeries.zero(4)
    for i in range(5):
        total = total + eulerian_idempotent(i, 4)
    assert total == identity_series(4)


def test_adams_spectral_decomposition():
    for k in (0, 1, 2, 3, 5):
        total = TruncatedSeries.zero(4)
        for i in range(5):
            total = total + eulerian_idempotent(i, 4) * Fraction(k**i)
        assert total == adams(k, 4)


def test_vandermonde_inversion_recovers_idempotents():
    # solve Psi^k = sum_i k^i e_i for the e_i from the Adams values at k=0..3
    n = 3
    powers = [adams(k, n) for k in range(n + 1)]
    matrix = [[Fraction(k**i) for i in range(n + 1)] for k in range(n + 1)]
    # invert by Gaussian elimination on an augmented identity
    aug = [row[:] + [Fraction(int(i == j)) for j in range(n + 1)] for i, row in enumerate(matrix)]
    for col in range(n + 1):
        piv = next(r for r in range(col, n + 1) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        scale = aug[col][col]
        aug[col] = [v / scale for v in aug[col]]
        for r in range(n + 1):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    inverse = [row[n + 1 :] for row in aug]
    for i in range(n + 1):
        combo = TruncatedSeries.zero(n)
        for k in range(n + 1):
            combo = combo + powers[k] * inverse[i][k]
        assert combo == eulerian_idempotent(i, n)


def test_unipotence():
    for n in range(6):
        assert unipotence_check(n)
    x = identity_series(3) - TruncatedSeries.unit(3)
    assert x.power(4) == TruncatedSeries.zero(3)


def test_series_validation_and_caps():
    with pytest.raises(ValueError):
        TruncatedSeries(2, {3: E((1, 2, 3))})
    with pytest.raises(ValueError):
        TruncatedSeries(3, {2: E((1,)) + E((1, 2))})
    with pytest.raises(TypeError):
        TruncatedSeries(2.5)
    with pytest.raises(TypeError):
        TruncatedSeries(3, {"2": E((1, 1))})
    with pytest.raises(CapExceeded):
        identity_series(99)
    with pytest.raises(ValueError):
        identity_series(3).component(4)


def test_every_constructor_checks_the_cutoff():
    builders = (
        TruncatedSeries,
        TruncatedSeries.zero,
        TruncatedSeries.unit,
        lambda n: TruncatedSeries.from_element(E((1,)), n),
        lambda n: identity_series(2).truncate(n),
        identity_series,
        lambda n: adams(2, n),
        lambda n: eulerian_idempotent(1, n),
        log_identity,
        eulerian_e1_closed_form,
        lambda n: sigma_hat_series(Fraction(1), n),
    )
    # an untyped memo would answer 2.0 and True from the entries of 2 and 1
    refused = ((2.5, TypeError), (2.0, TypeError), ("3", TypeError), (True, TypeError), (-3, ValueError))
    for build in builders:
        for cutoff, error in refused:
            with pytest.raises(error):
                build(cutoff)
        assert build(2).cutoff == 2
    # a series built above the cap would make every product on it unbounded
    with pytest.raises(CapExceeded):
        sigma_hat_series(Fraction(1), 9)


def test_every_builder_checks_the_index():
    F = QSymElement.monomial((1, 2))
    builders = (
        lambda k: adams(k, 2),
        lambda k: Characteristic.adams(k, 2).graded_terms(),
        lambda k: eulerian_idempotent(k, 3),
        lambda k: Characteristic.eulerian(k, 3).graded_terms(),
        lambda k: qsym_adams(k, F, 3),
        lambda k: qsym_adams_oracle(k, F),
    )
    # unchecked, True would be read as 1, and 2.0 would build float
    # coefficients or die in range
    for build in builders:
        for k in (True, False, 2.0, 2.5, "2", Fraction(2), -1):
            with pytest.raises(ValueError):
                build(k)
        build(2)


def test_degree_cap_env_override(monkeypatch):
    monkeypatch.setenv("WQSYM_MAX_DEGREE", "11")
    assert check_degree_cap(11) == 11
    monkeypatch.delenv("WQSYM_MAX_DEGREE")
    with pytest.raises(CapExceeded):
        check_degree_cap(11)


def test_from_element_truncates():
    f = E((1,)) + E((1, 2, 3))
    s = TruncatedSeries.from_element(f, 2)
    assert s.degrees() == [1]
    assert s.element == E((1,))


# -- the series operations against the per-degree representation ---------------
#
# The oracles below are the per-degree loops of the former representation (a
# dict from degree to homogeneous component): the convolution summing
# f_a * g_(d-a) degree by degree, the internal product of each component with
# the whole truncated right operand, and the action regrouping a module
# element by degree.


def components(el):
    """Degree -> nonzero homogeneous component of an element."""
    comps = {}
    for w, c in el.coefficients().items():
        comps.setdefault(len(w), {})[w] = c
    return {d: WQSymElement(terms) for d, terms in comps.items()}


def linear_oracle(f, g, sign):
    n = min(f.cutoff, g.cutoff)
    a, b = components(f.element), components(g.element)
    zero = WQSymElement.zero()
    if sign > 0:
        return TruncatedSeries(n, {d: a.get(d, zero) + b.get(d, zero) for d in range(n + 1)})
    return TruncatedSeries(n, {d: a.get(d, zero) - b.get(d, zero) for d in range(n + 1)})


def convolution_oracle(f, g):
    n = min(f.cutoff, g.cutoff)
    a, b = components(f.element), components(g.element)
    comps = {}
    for d in range(n + 1):
        acc = WQSymElement.zero()
        for i in range(d + 1):
            if i in a and d - i in b:
                acc = acc + a[i] * b[d - i]
        comps[d] = acc
    return TruncatedSeries(n, comps)


def internal_oracle(f, g):
    n = min(f.cutoff, g.cutoff)
    total = WQSymElement.zero()
    for d, el in components(g.element).items():
        if d <= n:
            total = total + el
    return TruncatedSeries(n, {d: el @ total for d, el in components(f.element).items() if d <= n})


def action_oracle(x, sigma):
    by_degree = {}
    for key, c in x.coefficients().items():
        by_degree.setdefault(len(key), {})[key] = c
    comps = components(sigma.element)
    out = x.zero()
    for d, terms in by_degree.items():
        if d > sigma.cutoff:
            raise CapExceeded(f"series cutoff {sigma.cutoff} cannot act on degree {d}")
        out = out + type(x)(terms).act(comps.get(d, WQSymElement.zero()))
    return out


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of the cap it hits."""
    try:
        return fn(*args)
    except CapExceeded as exc:
        return str(exc)


rationals = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 12))
COEFFS = {"fraction": rationals}


@st.composite
def series(draw, coeffs):
    """A random series at cutoff 0..4, possibly empty, built from its
    components."""
    cutoff = draw(st.integers(0, 4))
    words = st.lists(st.integers(1, 4), max_size=cutoff).map(pack)
    el = WQSymElement(draw(st.dictionaries(words, coeffs, max_size=8)))
    return TruncatedSeries(cutoff, components(el))


tensor_words = st.lists(
    st.sampled_from([(("a", 1),), (("b", 1),), (("a", 2),), (("a", 1), ("b", 1))]), max_size=4
).map(tuple)
qs_elements = st.dictionaries(tensor_words, rationals, max_size=4).map(QSElement)
qsym_elements = st.dictionaries(st.lists(st.integers(1, 3), max_size=4).map(tuple), rationals, max_size=4).map(
    QSymElement
)


@pytest.mark.parametrize("kind", COEFFS)
@given(data=st.data())
def test_series_operations_match_per_degree_oracles(kind, data):
    f = data.draw(series(COEFFS[kind]), label="f")
    g = data.draw(series(COEFFS[kind]), label="g")
    assert f + g == linear_oracle(f, g, 1)
    assert f - g == linear_oracle(f, g, -1)
    assert f * g == convolution_oracle(f, g)
    assert f @ g == internal_oracle(f, g)
    # a finite element meets a series at the series' cutoff, on either side
    el = g.element
    promoted = TruncatedSeries.from_element(el, f.cutoff)
    assert f * el == convolution_oracle(f, promoted)
    assert el * f == convolution_oracle(promoted, f)
    assert el @ f == internal_oracle(promoted, f)
    assert el - f == linear_oracle(promoted, f, -1)
    for s in (f + g, f * g, f @ g):
        assert max(s.degrees(), default=0) <= s.cutoff
    x = data.draw(qs_elements, label="x")
    assert outcome(x.act, f) == outcome(action_oracle, x, f)
    F = data.draw(qsym_elements, label="F")
    assert outcome(F.act, f) == outcome(action_oracle, F, f)


@given(series(rationals))
def test_series_operations_with_an_empty_series(f):
    for empty in (TruncatedSeries.zero(0), TruncatedSeries.zero(4)):
        assert f + empty == linear_oracle(f, empty, 1)
        assert not f * empty and f * empty == convolution_oracle(f, empty)
        assert not f @ empty and not empty @ f
        assert (f * empty).cutoff == min(f.cutoff, empty.cutoff)
