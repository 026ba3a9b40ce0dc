"""Sparse exact linear combinations, and the ring of polynomials in named
parameters built on them.

:class:`SparseCombination` is the one base class of every sparse element type
in the package (packed words in :mod:`wqsym.algebra`, tensor words and
base-algebra monomials in :mod:`wqsym.qshuffle`, compositions in
:mod:`wqsym.qsym`, and parameter monomials here): a dict from canonical basis
keys to nonzero exact coefficients, with the linear structure, equality and
sorted rendering written once.  Each subclass supplies its key check, its sort
key and its products.  Every product and coproduct is the extension of a map
on basis keys by one of two kernels, :func:`_bilinear` and :func:`_linear`.

:class:`Unital` is the base of the combinations whose unit is the empty key
(packed words, tensor words, compositions and parameter polynomials).  It
holds the one rule that promotes scalars: a scalar operand of ``+``, ``-`` or
``==`` is that multiple of the unit.

:class:`ParamPoly` is the coefficient ring of the parameter-deformed
operators: polynomials in formal parameters (x, y, t) with ``Fraction``
coefficients, stored expanded over monomials, with the bilinear extension of
:func:`mono_mul` as product.  Its canonical form makes equality of identities
in the parameters literal dict equality.  Coefficients elsewhere are
``Fraction`` or ``ParamPoly`` (:data:`SCALAR_TYPES`, with ``int``).
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


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def mono_str(m: Monomial) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in m)


def _rational(c) -> Fraction:
    """``c`` as a ``Fraction``; raises ``TypeError`` unless it is an exact
    rational."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


def _coerce_coeff(c):
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, (Fraction, ParamPoly)):
        return c
    raise TypeError(f"coefficients must be exact (int/Fraction/ParamPoly), got {c!r}")


def _add_term(data: dict, key, coeff) -> None:
    c = data.get(key)
    c = coeff if c is None else c + coeff
    if c:
        data[key] = c
    else:
        data.pop(key, None)


def _bilinear(cls, f: dict, g: dict, keys):
    """The ``cls`` element summing ``cf * cg`` over every key of ``keys(u,
    v)``, repeats counted, for each key ``u`` of ``f`` and ``v`` of ``g``."""
    out: dict = {}
    for u, cu in f.items():
        for v, cv in g.items():
            c = cu * cv
            for w in keys(u, v):
                _add_term(out, w, c)
    return cls._raw(out)


def _linear(cls, f: dict, keys):
    """The ``cls`` element summing ``c`` over every key of ``keys(u)``,
    repeats counted, for each key ``u`` of ``f``."""
    out: dict = {}
    for u, c in f.items():
        for w in keys(u):
            _add_term(out, w, c)
    return cls._raw(out)


class SparseCombination:
    """A finite exact linear combination of basis keys, stored as a dict from
    canonical key to nonzero coefficient.

    Binary operations accept only operands of the same class (anything else
    gets ``NotImplemented``); scalars multiply from either side and divide.
    """

    __slots__ = ("terms",)

    #: the canonical form of a coefficient; raises ``TypeError`` if inexact
    _coefficient = staticmethod(_coerce_coeff)

    def __init__(self, terms=None):
        data: dict = {}
        for key, c in (terms or {}).items():
            key = self._check_key(key)
            c = self._coefficient(c)
            if c:
                _add_term(data, key, c)
        self.terms = data

    @staticmethod
    def _check_key(key):
        """The canonical form of a basis key; raises ``ValueError`` if invalid."""
        raise NotImplementedError

    @staticmethod
    def _sort_key(key):
        """Ordering key of basis keys in :meth:`sorted_keys`."""
        return key

    @classmethod
    def _raw(cls, data: dict):
        el = object.__new__(cls)
        el.terms = data
        return el

    @classmethod
    def zero(cls):
        return cls._raw({})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        data = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(data, key, c)
        return self._raw(data)

    def __neg__(self):
        return self._raw({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def _scaled(self, scalar):
        scalar = self._coefficient(scalar)
        if not scalar:
            return self.zero()
        return self._raw({key: scalar * c for key, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        return NotImplemented

    def __truediv__(self, scalar):
        if isinstance(scalar, int):
            scalar = Fraction(scalar)
        if isinstance(scalar, Fraction):
            return self._scaled(1 / scalar)
        return NotImplemented

    def sorted_keys(self) -> list:
        return sorted(self.terms, key=self._sort_key)

    def sorted_terms(self) -> list:
        """``(key, coefficient)`` pairs in canonical key order."""
        keys = self.sorted_keys()
        return list(zip(keys, map(self.terms.__getitem__, keys)))

    def counit(self):
        return self.terms.get((), Fraction(0))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class Unital(SparseCombination):
    """A combination whose unit is the empty key.  A scalar operand of ``+``,
    ``-`` or ``==`` is that multiple of the unit; two elements of the class
    compare in one frame."""

    __slots__ = ()

    @classmethod
    def unit(cls):
        return cls._raw({(): Fraction(1)})

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.terms == other.terms
        if isinstance(other, SCALAR_TYPES):
            return self.terms == self.unit()._scaled(other).terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, type(self)) and isinstance(other, SCALAR_TYPES):
            other = self.unit()._scaled(other)
        return SparseCombination.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, type(self)) and isinstance(other, SCALAR_TYPES):
            other = self.unit()._scaled(other)
        return SparseCombination.__sub__(self, other)

    def __rsub__(self, other):
        return (-self) + other


class ParamPoly(Unital):
    """Polynomial in named parameters with exact rational coefficients; a
    coefficient or substituted value that is not an ``int`` or ``Fraction``
    raises ``TypeError``."""

    __slots__ = ()

    _coefficient = staticmethod(_rational)

    @staticmethod
    def _check_key(mono):
        return tuple(sorted((str(n), int(e)) for n, e in mono if e))

    @staticmethod
    def _sort_key(mono):
        return (mono_degree(mono), mono)

    @classmethod
    def var(cls, name: str) -> "ParamPoly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def const(cls, value) -> "ParamPoly":
        return cls({(): value})

    def __mul__(self, other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            return _bilinear(ParamPoly, self.terms, other.terms, lambda a, b: (mono_mul(a, b),))
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ParamPoly":
        if exponent < 0:
            raise ValueError("negative powers are not polynomials")
        out = ParamPoly.unit()
        for _ in range(exponent):
            out = out * self
        return out

    def substitute(self, values: dict) -> "ParamPoly":
        """Replace parameters by exact scalars (partial substitution allowed)."""
        out = ParamPoly.zero()
        for mono, coeff in self.terms.items():
            factor = ParamPoly.const(coeff)
            for name, e in mono:
                if name in values:
                    factor = factor * (_rational(values[name]) ** e)
                else:
                    factor = factor * (ParamPoly.var(name) ** e)
            out = out + factor
        return out

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            if not mono:
                body = str(coeff)
            elif coeff == 1:
                body = mono_str(mono)
            elif coeff == -1:
                body = f"-{mono_str(mono)}"
            else:
                body = f"{coeff}*{mono_str(mono)}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"ParamPoly({self})"


SCALAR_TYPES = (int, Fraction, ParamPoly)
