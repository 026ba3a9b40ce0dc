"""Tiny exact polynomial ring in named parameters.

Coefficients of algebra elements are usually ``fractions.Fraction``; the
deformed diagonal operators need polynomials in formal parameters (x, y, t)
instead.  ``ParamPoly`` keeps a canonical expanded form (monomial -> Fraction
in lowest terms) so equality of identities in the parameters is literal dict
equality, with no normalization discipline left to the caller.
"""

from __future__ import annotations

from fractions import Fraction

Monomial = tuple[tuple[str, int], ...]  # ((name, exponent), ...) sorted by name


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: exponents of each name add."""
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact scalar: {value!r}")


class ParamPoly:
    """Polynomial in named parameters with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(sorted((str(n), int(e)) for n, e in mono if e))
            coeff = _coerce(coeff)
            if coeff:
                c = data.get(mono, Fraction(0)) + coeff
                if c:
                    data[mono] = c
                else:
                    del data[mono]
        self.terms = data

    @classmethod
    def _raw(cls, data: dict) -> "ParamPoly":
        poly = object.__new__(cls)
        poly.terms = data
        return poly

    @classmethod
    def var(cls, name: str) -> "ParamPoly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def const(cls, value) -> "ParamPoly":
        return cls({(): value})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
            if not other:
                return not self.terms
            return self.terms == {(): other}
        return NotImplemented

    def __add__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        data = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = data.get(mono, Fraction(0)) + coeff
            if c:
                data[mono] = c
            else:
                del data[mono]
        return ParamPoly._raw(data)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, ParamPoly) else ParamPoly.const(-other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, (int, Fraction)):
            other = _coerce(other)
            if not other:
                return ParamPoly._raw({})
            return ParamPoly._raw({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, ParamPoly):
            return NotImplemented
        data: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = mono_mul(m1, m2)
                c = data.get(mono, Fraction(0)) + c1 * c2
                if c:
                    data[mono] = c
                else:
                    del data[mono]
        return ParamPoly._raw(data)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ParamPoly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        out = ParamPoly.const(1)
        for _ in range(exponent):
            out = out * self
        return out

    def substitute(self, values: dict) -> "ParamPoly":
        """Replace parameters by exact scalars (partial substitution allowed)."""
        out = ParamPoly._raw({})
        for mono, coeff in self.terms.items():
            factor = ParamPoly.const(coeff)
            for name, e in mono:
                if name in values:
                    factor = factor * (_coerce(values[name]) ** e)
                else:
                    factor = factor * (ParamPoly.var(name) ** e)
            out = out + factor
        return out

    def _sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: (sum(e for _, e in kv[0]), kv[0])
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            factors = ["*".join(
                name if e == 1 else f"{name}^{e}" for name, e in mono
            )] if mono else []
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

    def __repr__(self) -> str:
        return f"ParamPoly({self})"
