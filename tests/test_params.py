"""Exact parameter-polynomial ring."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.params import ParamPoly, mono_mul

x = ParamPoly.var("x")
y = ParamPoly.var("y")
t = ParamPoly.var("t")


def test_canonical_equality():
    assert x * (x + 1) == x * x + x
    assert (x + y) * (x - y) == x * x - y * y
    assert x - x == ParamPoly.const(0)
    assert not (x - x)


def test_scalar_mixing():
    assert 2 * x + x == 3 * x
    assert Fraction(1, 2) * (x + x) == x
    assert x * 0 == ParamPoly.const(0)
    assert ParamPoly.const(Fraction(3, 4)) == Fraction(3, 4)
    assert Fraction(3, 4) == ParamPoly.const(Fraction(3, 4))


def test_powers():
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert t ** 0 == 1
    with pytest.raises(ValueError):
        x ** -1


def test_substitute():
    p = x * x + x * y + y * y
    assert p.substitute({"x": 1, "y": 1}) == 3
    assert p.substitute({"x": Fraction(1, 2)}) == Fraction(1, 4) + Fraction(1, 2) * y + y * y


def test_str_forms():
    assert str(x * x + x * y + y * y) == "x*y+x^2+y^2"
    assert str(ParamPoly.const(0)) == "0"
    assert str(2 * t) == "2*t"
    assert str(-t) == "-t"
    assert str(t - 1) == "-1+t"


def test_rejects_floats():
    with pytest.raises(TypeError):
        ParamPoly.const(0.5)


# -- the hand-written ring operations, kept as oracles ---------------------------
#
# Before ParamPoly shared the sparse-combination base it wrote out its own sum,
# product, equality and rendering; those loops are kept here, on plain dicts
# from monomial to Fraction, as the oracle of the shared code, which they read
# through its coefficients().


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
    """A ParamPoly's coefficients, an oracle's dict as it is, or a scalar as
    a constant polynomial."""
    if isinstance(value, ParamPoly):
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
    out = {(): Fraction(1)}
    for _ in range(k):
        out = mul_oracle(out, p)
    return out


def substitute_oracle(p, values) -> dict:
    out = {}
    for mono, coeff in _terms(p).items():
        factor = {(): coeff}
        for name, e in mono:
            base = _terms(values[name]) if name in values else {((name, 1),): Fraction(1)}
            for _ in range(e):
                factor = mul_oracle(factor, base)
        out = add_oracle(out, factor)
    return out


def str_oracle(p) -> str:
    if not p:
        return "0"
    parts = []
    for mono, coeff in sorted(_terms(p).items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0])):
        factors = ["*".join(name if e == 1 else f"{name}^{e}" for name, e in mono)] if mono else []
        if not factors:
            body = str(coeff)
        elif coeff == 1:
            body = factors[0]
        elif coeff == -1:
            body = f"-{factors[0]}"
        else:
            body = f"{coeff}*{factors[0]}"
        if parts and not body.startswith("-"):
            parts.append("+" + body)
        else:
            parts.append(body)
    return "".join(parts)


# -- strategies --------------------------------------------------------------------

# int, Fraction and zero coefficients over two names and low exponents, so that
# sums and products collide and cancel
scalars = st.one_of(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)
monomials = st.dictionaries(st.sampled_from("xy"), st.integers(0, 2), max_size=2).map(
    lambda exps: tuple(sorted(exps.items()))
)
polys = st.dictionaries(monomials, scalars, max_size=4).map(ParamPoly)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(monomials, scalars, max_size=4))
def test_construction_matches_the_oracle(reduced, terms):
    p = ParamPoly(terms)
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
    # cancelling sums leave the zero polynomial, equal to the scalar 0
    assert not (p - p) and (p - p).coefficients() == {} and p - p == 0
    assert (p + (-p)).coefficients() == {}


@settings(max_examples=200, deadline=None)
@given(polys, scalars)
def test_scalars_match_the_oracle(p, c):
    assert (p + c).coefficients() == add_oracle(p, c)
    assert (c + p).coefficients() == add_oracle(p, c)
    assert (p - c).coefficients() == add_oracle(p, -c)
    assert (c - p).coefficients() == add_oracle(neg_oracle(p), c)
    assert (p * c).coefficients() == mul_oracle(p, c)
    assert (c * p).coefficients() == mul_oracle(p, c)
    assert (p == c) == (p.coefficients() == _terms(c))
    assert (c == p) == (p.coefficients() == _terms(c))
    assert ParamPoly.const(c) == c and ParamPoly.const(c).coefficients() == _terms(c)


@settings(max_examples=100, deadline=None)
@given(polys, st.integers(0, 3))
def test_powers_match_the_oracle(p, k):
    assert (p**k).coefficients() == pow_oracle(p, k)


@settings(max_examples=200, deadline=None)
@given(polys, st.dictionaries(st.sampled_from("xyz"), scalars, max_size=3))
def test_substitute_and_str_match_the_oracle(p, values):
    assert p.substitute(values).coefficients() == substitute_oracle(p, values)
    assert str(p) == str_oracle(p)
    assert repr(p) == f"ParamPoly({str_oracle(p)})"


@pytest.mark.parametrize("bad", [x, ParamPoly.const(1), 0.5, "1"], ids=["var", "const", "float", "str"])
def test_rejects_inexact_coefficients_and_values(bad):
    with pytest.raises(TypeError):
        ParamPoly({(): bad})
    with pytest.raises(TypeError):
        ParamPoly.const(bad)
    with pytest.raises(TypeError):
        (x + y).substitute({"x": bad})
