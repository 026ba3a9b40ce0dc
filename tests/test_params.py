"""The linear structure, product, powers and text of ``AElement``, the base
algebra A: combinations of nonempty monomials on the sparse-combination
base of :mod:`wqsym.algebra`."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.qshuffle import AElement, mono_mul

x = AElement.generator("x")
y = AElement.generator("y")
t = AElement.generator("t")


def test_canonical_equality():
    assert x * (x + y) == x * x + x * y
    assert (x + y) * (x - y) == x * x - y * y
    assert x - x == AElement.zero()
    assert not (x - x)


def test_scalar_mixing():
    assert 2 * x + x == 3 * x
    assert Fraction(1, 2) * (x + x) == x
    assert x * 0 == AElement.zero()
    assert (x + y) / Fraction(3, 4) == Fraction(4, 3) * x + Fraction(4, 3) * y
    # A has no unit, so a scalar is no element of it
    with pytest.raises(TypeError):
        x + 1


def test_powers():
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert t**1 == t
    for k in (0, -1):
        with pytest.raises(ValueError):
            x**k


def test_str_forms():
    assert str(x * x + x * y + y * y) == "x*y + x^2 + y^2"
    assert str(AElement.zero()) == "0"
    assert str(2 * t) == "2*t"
    assert str(-t) == "-t"
    assert str(t - Fraction(1, 2) * x * x) == "t - 1/2*x^2"


def test_rejects_floats():
    with pytest.raises(TypeError):
        AElement({(("x", 1),): 0.5})


# -- the hand-written ring operations, kept as oracles ---------------------------
#
# Before the sparse-combination base was shared, a polynomial type wrote out
# its own sum, product, equality and rendering; those loops are kept here, on
# plain dicts from monomial to Fraction, as the oracle of the shared code,
# which they read through its coefficients().


def _exact(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


def init_oracle(terms) -> dict:
    data = {}
    for mono, coeff in terms.items():
        mono = tuple(sorted((str(n), int(e)) for n, e in mono if e))
        coeff = _exact(coeff)
        if coeff:
            c = data.get(mono, Fraction(0)) + coeff
            if c:
                data[mono] = c
            else:
                del data[mono]
    return data


def _terms(value) -> dict:
    """An element's coefficients, an oracle's dict as it is, or a scalar as
    a factor with the empty monomial."""
    if isinstance(value, AElement):
        return value.coefficients()
    if isinstance(value, dict):
        return value
    value = _exact(value)
    return {(): value} if value else {}


def add_oracle(p, q) -> dict:
    data = dict(_terms(p))
    for mono, coeff in _terms(q).items():
        c = data.get(mono, Fraction(0)) + coeff
        if c:
            data[mono] = c
        else:
            del data[mono]
    return data


def neg_oracle(p) -> dict:
    return {m: -c for m, c in _terms(p).items()}


def mul_oracle(p, q) -> dict:
    data = {}
    for m1, c1 in _terms(p).items():
        for m2, c2 in _terms(q).items():
            mono = mono_mul(m1, m2)
            c = data.get(mono, Fraction(0)) + c1 * c2
            if c:
                data[mono] = c
            else:
                del data[mono]
    return data


def pow_oracle(p, k) -> dict:
    out = _terms(p)
    for _ in range(k - 1):
        out = mul_oracle(out, p)
    return out


def str_oracle(p) -> str:
    parts = []
    for mono, coeff in sorted(_terms(p).items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0])):
        factors = "*".join(name if e == 1 else f"{name}^{e}" for name, e in mono)
        body = factors if coeff == 1 else f"-{factors}" if coeff == -1 else f"{coeff}*{factors}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts) or "0"


# -- strategies --------------------------------------------------------------------

# int, Fraction and zero coefficients over two names and low exponents, so that
# sums and products collide and cancel; a zero exponent is dropped from a key,
# which keeps another name
scalars = st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)
monomials = (
    st.dictionaries(st.sampled_from("xy"), st.integers(0, 2), max_size=2)
    .filter(lambda exps: any(exps.values()))
    .map(lambda exps: tuple(sorted(exps.items())))
)
polys = st.dictionaries(monomials, scalars, max_size=4).map(AElement)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(monomials, scalars, max_size=4))
def test_construction_matches_the_oracle(reduced, terms):
    p = AElement(terms)
    assert p.coefficients() == init_oracle(terms)
    assert all(type(c) is Fraction and c for c in p.coefficients().values())
    assert reduced(p)


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_ring_operations_match_the_oracle(p, q):
    assert (p + q).coefficients() == add_oracle(p, q)
    assert (p - q).coefficients() == add_oracle(p, neg_oracle(q))
    assert (-p).coefficients() == neg_oracle(p)
    assert (p * q).coefficients() == mul_oracle(p, q)
    assert (p == q) == (p.coefficients() == q.coefficients())
    assert (p != q) == (p.coefficients() != q.coefficients())
    # cancelling sums leave the zero element
    assert not (p - p) and (p - p).coefficients() == {} and p - p == AElement.zero()
    assert (p + (-p)).coefficients() == {}


@settings(max_examples=200, deadline=None)
@given(polys, scalars)
def test_scalars_match_the_oracle(p, c):
    assert (p * c).coefficients() == mul_oracle(p, c)
    assert (c * p).coefficients() == mul_oracle(p, c)
    if c:
        assert (p / c).coefficients() == mul_oracle(p, 1 / Fraction(c))


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(1, 3))
def test_powers_match_the_oracle(p, k):
    assert (p**k).coefficients() == pow_oracle(p, k)


@settings(max_examples=200, deadline=None)
@given(polys)
def test_str_matches_the_oracle(p):
    assert str(p) == str_oracle(p)
    assert repr(p) == f"<AElement {str_oracle(p)}>"


@pytest.mark.parametrize("bad", [x, 0.5, "1"], ids=["var", "float", "str"])
def test_rejects_inexact_coefficients_and_values(bad):
    with pytest.raises(TypeError):
        AElement({(("x", 1),): bad})
    with pytest.raises(TypeError):
        x / bad
