"""Sparse exact linear combinations, the monomials of the package, and the
ring of polynomials in named parameters built on them.

:class:`SparseCombination` is the one base class of every sparse element type
in the package (packed words in :mod:`wqsym.algebra`, tensor words and
base-algebra monomials in :mod:`wqsym.qshuffle`, compositions in
:mod:`wqsym.qsym`, and parameter monomials here): a dict from canonical basis
keys to nonzero exact coefficients, with the linear structure, equality and
sorted rendering written once.  Each subclass supplies its key check, its sort
key and its products.  Every product and coproduct is the extension of a map
on basis keys by one of two kernels, :func:`_bilinear` and :func:`_linear`.

It owns the one exact-coefficient rule: with ``Fraction`` coefficients
throughout, the kernels, ``@``, the product of series and the right action
add int numerators over one common denominator (:func:`_numerators`) and make
one ``Fraction`` per output key (:func:`_collect`), a small integer being one
shared object (:data:`_INTEGERS`); ``ParamPoly`` coefficients add in their ring.

:class:`Unital` is the base of the combinations whose unit is the empty key
(packed words, tensor words, compositions and parameter polynomials).  It
holds the one rule that promotes scalars: a scalar operand of ``+``, ``-`` or
``==`` is that multiple of the unit.

This module owns monomials in named generators: :func:`monomial` is their one
canonical form and :func:`mono_mul` their product.  :class:`Monomials` holds
the key check, order, product and powers of their combinations: the base
algebra A of :mod:`wqsym.qshuffle` (monomials of positive degree) and
:class:`ParamPoly`, the coefficient ring of the deformed operators, with
parameters (x, y, t).  Coefficients elsewhere are ``Fraction`` or
``ParamPoly`` (:data:`SCALAR_TYPES`, with ``int``).
"""

from __future__ import annotations

import math
from fractions import Fraction

Monomial = tuple[tuple[str, int], ...]  # ((name, exponent), ...) sorted by name


def monomial(*pairs) -> Monomial:
    """The canonical monomial of (name, exponent) pairs: the exponents of a
    repeated name add, zero exponents drop and the names sort.  Raises
    ``ValueError`` on an exponent that is negative or not an ``int`` (a
    ``bool`` is not)."""
    exps: dict[str, int] = {}
    for name, e in pairs:
        if type(e) is not int or e < 0:
            raise ValueError(f"exponents must be nonnegative ints, got {e!r}")
        if e:
            exps[str(name)] = exps.get(str(name), 0) + e
    return tuple(sorted(exps.items()))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: exponents of each name add."""
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


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


#: one shared ``Fraction`` per small int: the integral coefficients that
#: construction and the kernels make are then the same objects, and dict
#: ``==`` finds two equal by identity, without calling ``Fraction.__eq__``
_INTEGERS = {i: Fraction(i) for i in range(-64, 65)}


def _coerce_coeff(c):
    if isinstance(c, int):
        return _INTEGERS[c] if c in _INTEGERS else Fraction(c)
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


def _over_lcm(terms: dict):
    """``(numerators, d)``: the ``Fraction`` coefficients of ``terms`` as int
    numerators over ``d``, the lcm of their denominators, under the same
    keys; None if one is not a ``Fraction``."""
    if not all(type(c) is Fraction for c in terms.values()):
        return None
    d = math.lcm(*[c.denominator for c in terms.values()])
    return {key: c.numerator * (d // c.denominator) for key, c in terms.items()}, d


def _numerators(*operands):
    """``(*operands, d)``: with only ``Fraction`` coefficients, each operand
    over the lcm of its denominators (:func:`_over_lcm`) and ``d`` the product
    of those lcms, so a sum of products of one numerator from each operand,
    over ``d``, is exact; otherwise the operands and ``d = None``."""
    scaled = list(map(_over_lcm, operands))
    if None in scaled:
        return (*operands, None)
    numerators, lcms = zip(*scaled)
    return (*numerators, math.prod(lcms))


def _collect(cls, out: dict, d):
    """The ``cls`` element of the nonzero sums in ``out``, over ``d`` if not
    None; over 1, each small sum is its shared ``Fraction``."""
    if d is None:
        return cls._raw({w: c for w, c in out.items() if c})
    if d == 1:
        shared = _INTEGERS
        return cls._raw({w: shared[n] if n in shared else Fraction(n) for w, n in out.items() if n})
    return cls._raw({w: Fraction(n, d) for w, n in out.items() if n})


def _bilinear(cls, f: dict, g: dict, keys):
    """The ``cls`` element summing ``cf * cg`` over every key of ``keys(u,
    v)``, repeats counted, for each key ``u`` of ``f`` and ``v`` of ``g``:
    as int numerators (:func:`_numerators`) when every coefficient is a
    ``Fraction``, else in the coefficient ring."""
    f, g, d = _numerators(f, g)
    out: dict = {}
    get = out.get
    for u, cu in f.items():
        for v, cv in g.items():
            c = cu * cv
            for w in keys(u, v):
                o = get(w)
                out[w] = c if o is None else o + c
    return _collect(cls, out, d)


def _linear(cls, f: dict, keys):
    """The ``cls`` element summing ``c`` over every key of ``keys(u)``,
    repeats counted, for each key ``u`` of ``f``, as :func:`_bilinear` adds."""
    f, d = _numerators(f)
    out: dict = {}
    get = out.get
    for u, c in f.items():
        for w in keys(u):
            o = get(w)
            out[w] = c if o is None else o + c
    return _collect(cls, out, d)


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
        return self.terms.get((), _INTEGERS[0])

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class Unital(SparseCombination):
    """A combination whose unit is the empty key.  A scalar operand of ``+``,
    ``-`` or ``==`` is that multiple of the unit; two elements of the class
    compare in one frame."""

    __slots__ = ()

    @classmethod
    def unit(cls):
        return cls._raw({(): _INTEGERS[1]})

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


class Monomials(SparseCombination):
    """A combination of monomials, ordered by degree, with the bilinear
    extension of :func:`mono_mul` as product; a scalar factor scales."""

    __slots__ = ()

    @staticmethod
    def _check_key(m):
        return monomial(*m)

    @staticmethod
    def _sort_key(m):
        return (sum(e for _, e in m), m)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return _bilinear(type(self), self.terms, other.terms, lambda a, b: (mono_mul(a, b),))
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        """The product of ``exponent`` factors ``self``; the unit if none."""
        if exponent == 0 and isinstance(self, Unital):
            return self.unit()
        if exponent < 1:
            raise ValueError(f"no power {exponent} in {type(self).__name__}")
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


class ParamPoly(Unital, Monomials):
    """Polynomial in named parameters with exact rational coefficients; a
    coefficient or substituted value that is not an ``int`` or ``Fraction``
    raises ``TypeError``."""

    __slots__ = ()

    _coefficient = staticmethod(_rational)

    @classmethod
    def var(cls, name: str) -> "ParamPoly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def const(cls, value) -> "ParamPoly":
        return cls({(): value})

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
