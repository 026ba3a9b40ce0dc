"""Sparse exact linear combinations, and the monomials of the package.

:class:`SparseCombination` is the one base class of every sparse element type
in the package (packed words in :mod:`wqsym.algebra`, tensor words and
base-algebra monomials in :mod:`wqsym.qshuffle`, compositions in
:mod:`wqsym.qsym`): canonical basis keys with nonzero exact coefficients,
with the linear structure, equality and sorted keys written once.  Each
subclass supplies its key check, its sort key and its products.  Every
product and coproduct is the extension of a map on basis keys by one of two
kernels, :func:`_bilinear` and :func:`_linear`.

It owns the one exact-coefficient rule: every coefficient is an ``int`` or a
``Fraction`` (:data:`SCALAR_TYPES`), and an element holds its coefficients as
int numerators (``terms``) over one positive denominator (``den``), reduced,
so ``==`` compares the two literally.  The kernels, ``+``, ``-``, scaling,
``@``, the product of series and the right action add int numerators over
the operands' denominators and end with one gcd reduction (:func:`_collect`,
:func:`_reduced`); :func:`_add_multiple` adds a multiple of an element into
such a sum.  A ``Fraction`` is made only to print a coefficient or to hand
one out (:meth:`SparseCombination.coefficients`).

This module also owns monomials in named generators: :func:`monomial` is
their one canonical form, :func:`mono_mul` their product and :func:`mono_str`
their text.  The base algebra A of :mod:`wqsym.qshuffle` combines those of
positive degree.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

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


#: the scalars that multiply, divide and promote to every element
SCALAR_TYPES = (int, Fraction)


def _coerce_coeff(c):
    """``c``, an ``int`` or a ``Fraction``; raises ``TypeError`` otherwise."""
    if isinstance(c, SCALAR_TYPES):
        return c
    raise TypeError(f"coefficients must be exact (int/Fraction), got {c!r}")


def _reduced(cls, out: dict, d: int):
    """The ``cls`` element of the nonzero int sums in ``out`` over ``d >=
    1``, with ``d`` and the sums divided by their gcd.  The last sums are
    read first: in a series they are the longest words', whose numerators
    usually settle the gcd at once."""
    if d != 1:
        g = math.gcd(d, *islice(reversed(out.values()), 32))
        if g != 1:
            g = math.gcd(g, *out.values())
            if g != 1:
                out = {w: n // g for w, n in out.items()}
                d //= g
    return cls._raw(out, d)


def _collect(cls, out: dict, d: int):
    """:func:`_reduced` of the int sums in ``out``, its zero sums first
    dropped in place."""
    if 0 in out.values():
        for w in [w for w, n in out.items() if not n]:
            del out[w]
    return _reduced(cls, out, d)


def _add_multiple(data: dict, d: int, x, scalar=1) -> int:
    """Add ``scalar``, nonzero, times the element ``x`` into ``data``, the
    nonzero int sums over ``d``, in place, and return their denominator
    after: ``data`` is first brought over the lcm of ``d`` and the
    denominator of ``scalar / x.den`` when that is larger.  A sum that
    cancels is dropped, so :func:`_reduced` finishes."""
    q = scalar.denominator * x.den
    m = math.lcm(d, q)
    if m != d:
        k = m // d
        for key, n in data.items():
            data[key] = n * k
    p = scalar.numerator * (m // q)
    get = data.get
    for key, n in x.terms.items():
        s = get(key, 0) + p * n
        if s:
            data[key] = s
        else:
            del data[key]
    return m


def _bilinear(cls, f, g, keys):
    """The ``cls`` element summing ``cf * cg`` over every key of ``keys(u,
    v)``, repeats counted, for each key ``u`` of the element ``f`` and ``v``
    of ``g``, as int numerators over ``f.den * g.den``."""
    out: dict = {}
    get = out.get
    pairs = g.terms.items()
    for u, cu in f.terms.items():
        for v, cv in pairs:
            c = cu * cv
            for w in keys(u, v):
                o = get(w)
                out[w] = c if o is None else o + c
    return _collect(cls, out, f.den * g.den)


def _linear(cls, f, keys):
    """The ``cls`` element summing ``c`` over every key of ``keys(u)``,
    repeats counted, for each key ``u`` of the element ``f``, as
    :func:`_bilinear` adds."""
    out: dict = {}
    get = out.get
    for u, c in f.terms.items():
        for w in keys(u):
            o = get(w)
            out[w] = c if o is None else o + c
    return _collect(cls, out, f.den)


class SparseCombination:
    """A finite exact linear combination of basis keys: ``terms`` maps each
    canonical key to its nonzero int numerator and ``den`` is their one
    denominator, reduced: ``den >= 1`` and ``gcd(den, *terms.values()) ==
    1``, so the zero element is ``{}`` over 1 and two equal elements hold
    equal ``terms`` and ``den``.  :meth:`coefficients` hands out the
    coefficients as ``Fraction`` values.

    Binary operations accept only operands of the same class (anything else
    gets ``NotImplemented``); scalars multiply from either side and divide.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None):
        data: dict = {}
        for key, c in (terms or {}).items():
            key = self._check_key(key)
            data[key] = data.get(key, 0) + _coerce_coeff(c)
        # over the lcm of reduced denominators, the numerators share no
        # factor with it
        d = math.lcm(*[c.denominator for c in data.values()])
        self.terms = {key: c.numerator * (d // c.denominator) for key, c in data.items() if c}
        self.den = d

    @staticmethod
    def _check_key(key):
        """The canonical form of a basis key; raises ``ValueError`` if invalid."""
        raise NotImplementedError

    @staticmethod
    def _sort_key(key):
        """Ordering key of basis keys in :meth:`sorted_keys`."""
        return key

    @classmethod
    def _raw(cls, data: dict, den: int = 1):
        """The element of the reduced int numerators ``data`` over ``den``."""
        el = object.__new__(cls)
        el.terms = data
        el.den = den
        return el

    @classmethod
    def zero(cls):
        return cls._raw({})

    def _select(self, keep):
        """The element of the terms whose keys satisfy ``keep``."""
        return _reduced(type(self), {key: n for key, n in self.terms.items() if keep(key)}, self.den)

    def coefficients(self) -> dict:
        """Each key's coefficient, as a ``Fraction``."""
        d = self.den
        return {key: Fraction(n, d) for key, n in self.terms.items()}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.den == other.den and self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        data = dict(self.terms)
        return _reduced(type(self), data, _add_multiple(data, self.den, other))

    def __neg__(self):
        return self._raw({key: -n for key, n in self.terms.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        data = dict(self.terms)
        return _reduced(type(self), data, _add_multiple(data, self.den, other, -1))

    def _scaled(self, scalar):
        scalar = _coerce_coeff(scalar)
        if not scalar:
            return self.zero()
        p = scalar.numerator
        return _reduced(type(self), {key: p * n for key, n in self.terms.items()}, self.den * scalar.denominator)

    def __rmul__(self, other):
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        return NotImplemented

    def __truediv__(self, scalar):
        if isinstance(scalar, SCALAR_TYPES):
            return self._scaled(1 / Fraction(scalar))
        return NotImplemented

    def sorted_keys(self) -> list:
        return sorted(self.terms, key=self._sort_key)

    def counit(self) -> Fraction:
        return Fraction(self.terms.get((), 0), self.den)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"
