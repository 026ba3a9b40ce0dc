"""The form every element is held in: nonzero int numerators over one positive
denominator, reduced, so that ``==`` compares them literally.

Every kernel that does coefficient arithmetic runs here on seeded random
operands of every element class, in two rings: small fractions, and the
"wide" ring of integers far beyond a machine word over 1, 3 and 6.  Each
result must be reduced (the ``reduced`` fixture), and its coefficients
(``coefficients()``) must equal a ``Fraction`` oracle that reads only the
operands' coefficients.  Equal elements built by different routes must hold
identical numerators and denominators.
"""

import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

from wqsym import suites
from wqsym.algebra import TensorSquare, WQSymElement, truncated_product
from wqsym.expressions import evaluate
from wqsym.qshuffle import AElement, QSElement, QSTensor, convolution_of_operators, mono_mul
from wqsym.qsym import QSymElement, qsym_adams, qsym_adams_oracle
from wqsym.series import (
    Characteristic,
    TruncatedSeries,
    eulerian_e1_closed_form,
    identity_series,
    log_identity,
)
from wqsym.words import enumerate_packed_words, quasi_shuffle_words

RINGS = {
    "fraction": lambda rng: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)),
    "wide": lambda rng: Fraction(rng.choice([1, -2, 65, -1000, 10**20]), rng.choice([1, 1, 3, 6])),
}
SEEDS = range(8)


def packed_word(rng, n):
    word, top = [], 0
    for _ in range(n):
        word.append(rng.randint(1, top + 1))
        top = max(top, word[-1])
    return tuple(word)


def monomial(rng):
    return tuple(sorted({rng.choice("ab"): rng.randint(1, 2) for _ in range(rng.randint(1, 2))}.items()))


#: a random basis key of each class, of at most ``n`` letters
KEYS = {
    WQSymElement: lambda rng, n: packed_word(rng, rng.randint(0, n)),
    TensorSquare: lambda rng, n: (packed_word(rng, rng.randint(0, 2)), packed_word(rng, rng.randint(0, 2))),
    AElement: lambda rng, n: monomial(rng),
    QSElement: lambda rng, n: tuple(monomial(rng) for _ in range(rng.randint(0, n))),
    QSTensor: lambda rng, n: tuple(tuple(monomial(rng) for _ in range(rng.randint(0, 2))) for _ in "lr"),
    QSymElement: lambda rng, n: tuple(rng.randint(1, 3) for _ in range(rng.randint(0, n))),
}


def element(cls, rng, ring, size=4, n=3):
    return cls({KEYS[cls](rng, n): RINGS[ring](rng) for _ in range(rng.randint(0, size))})


def add(out, key, c):
    out[key] = out.get(key, 0) + c


def nonzero(out):
    return {key: c for key, c in out.items() if c}


def cases(ring, seed):
    return random.Random(f"{ring}-{seed}")


# -- the linear structure, on every class ------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("cls", list(KEYS), ids=lambda cls: cls.__name__)
def test_linear_operations_are_reduced_and_exact(cls, ring, seed, reduced):
    rng = cases(ring, seed)
    x, y = element(cls, rng, ring), element(cls, rng, ring)
    a, b = x.coefficients(), y.coefficients()
    assert reduced(x) and reduced(y)
    assert x == cls(a) and (x.terms, x.den) == (cls(a).terms, cls(a).den)
    s = RINGS[ring](rng)
    expected = {
        "+": nonzero({k: a.get(k, 0) + b.get(k, 0) for k in a.keys() | b.keys()}),
        "-": nonzero({k: a.get(k, 0) - b.get(k, 0) for k in a.keys() | b.keys()}),
        "neg": {k: -c for k, c in a.items()},
        "int": {k: 6 * c for k, c in a.items()},
        "scalar": {k: s * c for k, c in a.items()},
        "divided": {k: c / s for k, c in a.items()},
        "x - x": {},
    }
    got = {"+": x + y, "-": x - y, "neg": -x, "int": 6 * x, "scalar": x * s, "divided": x / s, "x - x": x - x}
    for name, value in got.items():
        assert reduced(value), name
        assert value.coefficients() == expected[name], name
    assert (x - x).den == 1


# -- the kernels with a loop of their own ------------------------------------------


def matmul_oracle(f, g):
    out = {}
    for u, cu in f.coefficients().items():
        for v, cv in g.coefficients().items():
            if len(v) == max(u, default=0):
                add(out, tuple(v[x - 1] for x in u), cu * cv)
    return nonzero(out)


def dense(rng, ring, lengths, keep=1.0):
    return WQSymElement(
        {w: RINGS[ring](rng) for n in lengths for w in enumerate_packed_words(n) if rng.random() < keep}
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_internal_product_on_both_routes(ring, seed, reduced):
    rng = cases(ring, seed)
    one_term = element(WQSymElement, rng, ring, size=1)
    for f, g in [
        (element(WQSymElement, rng, ring), element(WQSymElement, rng, ring)),
        (one_term, element(WQSymElement, rng, ring)),
        # full buckets of length 3 and 4 take the bucket route in the
        # fraction ring; the wide ring's sums would leave a lane, so its
        # buckets take the pair loop
        (dense(rng, ring, (3, 4), keep=0.5), dense(rng, ring, (3, 4))),
    ]:
        got = f @ g
        assert reduced(got)
        assert got.coefficients() == matmul_oracle(f, g)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_truncated_product_and_the_series_constructor(ring, seed, reduced):
    rng = cases(ring, seed)
    f, g = element(WQSymElement, rng, ring), element(WQSymElement, rng, ring)
    n = rng.randint(0, 4)
    out = {}
    for u, cu in f.coefficients().items():
        for v, cv in g.coefficients().items():
            if len(u) + len(v) <= n:
                for w in quasi_shuffle_words(u, v):
                    add(out, w, cu * cv)
    got = truncated_product(f, g, n)
    assert reduced(got) and got.coefficients() == nonzero(out)
    a = f.coefficients()
    for d in range(4):
        component = f.component(d)
        assert reduced(component)
        assert component.coefficients() == {w: c for w, c in a.items() if len(w) == d}
    series = TruncatedSeries(3, {d: f.component(d) for d in range(4)})
    assert reduced(series.element)
    assert series.element.coefficients() == {w: c for w, c in a.items() if len(w) <= 3}
    assert reduced(TruncatedSeries.from_element(f, 1).element)


def act_oracle(x, op):
    """The blockwise letter products of each key under each operator word of
    its length, for tensor words and compositions."""
    merge = mono_mul if isinstance(x, QSElement) else (lambda a, b: a + b)
    out = {}
    for key, c in x.coefficients().items():
        for u, d in op.coefficients().items():
            if len(u) == len(key):
                blocks = [None] * max(u, default=0)
                for letter, i in zip(key, u):
                    blocks[i - 1] = letter if blocks[i - 1] is None else merge(blocks[i - 1], letter)
                add(out, tuple(blocks), c * d)
    return nonzero(out)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("cls", [QSElement, QSymElement], ids=lambda cls: cls.__name__)
def test_the_right_action_on_both_routes(cls, ring, seed, reduced):
    rng = cases(ring, seed)
    x = element(cls, rng, ring, size=6)
    # many keys of length 4 meet the dense operator on its bucket route in
    # the fraction ring, and on the pair loop in the wide one
    letter = monomial if cls is QSElement else (lambda rng: rng.randint(1, 3))
    keys = cls({tuple(letter(rng) for _ in range(4)): RINGS[ring](rng) for _ in range(40)})
    for op in (element(WQSymElement, rng, ring), dense(rng, ring, range(5))):
        for y in (x, keys):
            got = y.act(op)
            assert reduced(got)
            assert got.coefficients() == act_oracle(y, op)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_power_sums_add_each_multiple_exactly(ring, seed, reduced):
    rng = cases(ring, seed)
    n = 3
    x = TruncatedSeries.from_element(element(WQSymElement, rng, ring), n)
    coeffs = [RINGS[ring](rng) if rng.random() < 0.7 else 0 for _ in range(n + 1)]
    expected, p = {}, TruncatedSeries.unit(n)
    for j, a in enumerate(coeffs):
        if j:
            p = p * x
        for w, c in p.element.coefficients().items():
            add(expected, w, a * c)
    got = x._power_sum(coeffs)
    assert reduced(got.element)
    assert got.element.coefficients() == nonzero(expected)
    z = TruncatedSeries.from_element(x.element - x.element.component(0), n)
    y = z + WQSymElement.unit()
    assert reduced(z.exp().element) and reduced(y.log().element) and reduced(y.inverse().element)
    assert same(y.log().exp().element, y.element)
    assert same((y.inverse() * y).element, WQSymElement.unit())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ring", sorted(RINGS))
def test_the_adams_oracle_and_the_convolution(ring, seed, reduced):
    rng = cases(ring, seed)
    F = element(QSymElement, rng, ring)
    for k in range(4):
        got = qsym_adams_oracle(k, F)
        assert reduced(got)
        if all(sum(I) <= 3 for I in F.terms):
            assert got == qsym_adams(k, F, 3)
    x = element(QSElement, rng, ring)
    f = WQSymElement.monomial(packed_word(rng, rng.randint(0, 2)), RINGS[ring](rng))
    g = WQSymElement.monomial(packed_word(rng, rng.randint(0, 2)), RINGS[ring](rng))
    got = convolution_of_operators(f, g, x)
    assert reduced(got)
    assert got == x.act(f * g)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_coassociativity_reads_the_legs_denominators(ring):
    # every leg scaled by one fraction: both sides scale by its square
    rng = cases(ring, 0)
    scale = RINGS[ring](rng)
    legs = lambda a: scale * WQSymElement.monomial(a).coproduct()  # noqa: E731
    assert all(suites._coassociative(u, legs) for n in range(5) for u in enumerate_packed_words(n))


@pytest.mark.parametrize("i,n", [(1, 4), (2, 5), (0, 3)])
def test_series_built_from_coordinates_are_reduced(i, n, reduced):
    for x in (Characteristic.eulerian(i, n), Characteristic(n, [Fraction(1, 3), 0, Fraction(-5, 2), 7, 0, 0][: n + 1])):
        built = x.series()
        assert reduced(built.element)
        expected = {}
        for d, table, chunks in x.graded_terms():
            for w in enumerate_packed_words(d):
                ascents = sum(a < b for a, b in zip(w, w[1:]))
                if table[ascents]:
                    expected[w] = table[ascents]
        assert built.element.coefficients() == expected


# -- equal elements built by different routes ----------------------------------------


def same(x, y):
    return (x.terms, x.den) == (y.terms, y.den)


def test_equal_elements_hold_identical_numerators():
    M1 = WQSymElement.monomial((1,))
    assert same(Fraction(1, 2) * M1 * 2, M1)
    assert same(evaluate("(1/2)*M[1]*2", 3), M1)
    assert same(M1 / 3 + M1 * Fraction(2, 3), M1)
    for n in range(5):
        assert same(log_identity(n).exp().element, identity_series(n).element)
        assert same(eulerian_e1_closed_form(n).element, identity_series(n).log().element)
    q = QSymElement({(1,): Fraction(1, 6), (2,): Fraction(1, 3)}) + QSymElement({(2,): Fraction(1, 6)})
    assert same(q, QSymElement({(1,): 1, (2,): 3}) / 6)
    assert q.den == 6 and q.terms == {(1,): 1, (2,): 3}


def test_a_fraction_is_handed_out_only_by_the_view():
    x = QSElement({((("a", 1),),): Fraction(2, 4), (): 3})
    assert (x.terms, x.den) == ({((("a", 1),),): 1, (): 6}, 2)
    assert x.coefficients() == {((("a", 1),),): Fraction(1, 2), (): Fraction(3)}
    assert all(type(c) is Fraction for c in x.coefficients().values())
    assert x.counit() == 3 and type(x.counit()) is Fraction
    assert all(type(n) is int for f, g in iproduct([x, x * x], repeat=2) for n in (f + g).terms.values())
