"""Degree-truncated series over the packed-word algebra.

A :class:`TruncatedSeries` is one :class:`WQSymElement` holding every word of
length at most a cutoff, together with that cutoff.  The completion of the
packed-word algebra is graded by word length, and the element carries that
grading itself: its degree-d component is its words of length d.  Binary
operations truncate both operands to the smaller cutoff and the result
records that cutoff, so a series never claims precision that was not
computed.  No word is longer than the cutoff, so truncating to the series'
own cutoff or above is free.

The distinguished series is the diagonal/identity series ``I`` with the
staircase word in each degree.  Its convolution powers are the Adams
operations Psi^k, and the convolution powers of ``log(I)`` divided by
factorials are the quasi-Eulerian idempotents e_i.  Those convolutions are
the definitions; :meth:`TruncatedSeries.power` and :meth:`TruncatedSeries.log`
compute them, and the tests use them as the oracle of the closed forms that
:func:`adams`, :func:`log_identity` and :func:`eulerian_idempotent` build.
I is the image of sigma = sum S_n under the hat embedding of noncommutative
symmetric functions (Gelfand, Krob, Lascoux, Leclerc, Retakh, Thibon, Adv.
Math. 112, 1995), so Psi^k is the image of sigma^k, and its coefficient on a
packed word of length d with a ascents (positions j with w(j) < w(j+1)) is
the binomial C(a + k, d).  As a polynomial in k this is sum_i k^i e_i, so
e_i has the k^i coefficient of C(k + a, d), and log I is e_1.
:func:`adams_terms` and :func:`eulerian_terms` yield these coefficients
degree by degree straight from the packed-word enumeration, and the closed
forms are built from them; ``wqsym expand`` renders them without building
anything.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby

from .algebra import (
    WQSymElement,
    _add_multiple,
    _by_length,
    _collect,
    _numerators,
    format_terms,
    ribbon_hat,
    truncated_product,
    word_str,
)
from .errors import BasisMismatch, CapExceeded, NotInvertible
from .params import SCALAR_TYPES
from .words import block_masks, check_degree_cap, compositions, packed_words_with_ascents


def _binary(op, scalars=False):
    """A series operation applying ``op(f, g, n)`` to the elements of both
    operands truncated to the smaller cutoff ``n``.  An element operand is
    promoted to a series at this series' cutoff; with ``scalars``, a scalar
    operand scales the series."""

    def method(self, other):
        if scalars and isinstance(other, SCALAR_TYPES):
            return TruncatedSeries._raw(self.cutoff, self.element._scaled(other))
        if isinstance(other, WQSymElement):
            other = TruncatedSeries.from_element(other, self.cutoff)
        elif not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = min(self.cutoff, other.cutoff)
        return TruncatedSeries._raw(n, op(self.truncate(n).element, other.truncate(n).element, n))

    return method


def _check_cutoff(cutoff, *degrees) -> int:
    """The cutoff of a new series, refused unless it and the degrees given
    with it are ints (a ``bool`` is not) and it is nonnegative."""
    if not all(type(n) is int for n in (cutoff, *degrees)):
        raise TypeError("a cutoff and its degrees must be ints")
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    return cutoff


class TruncatedSeries:
    """Graded element of the completion, stored up to a cutoff degree as one
    element with no word longer than the cutoff."""

    __slots__ = ("cutoff", "element")

    def __init__(self, cutoff: int, components=None):
        """The series with the homogeneous element ``components[d]`` in each
        degree ``d <= cutoff``; absent degrees are zero."""
        self.cutoff = _check_cutoff(cutoff, *(components or ()))
        terms: dict = {}
        for d, el in (components or {}).items():
            if not isinstance(el, WQSymElement):
                raise TypeError("components must be WQSymElement values")
            if d > self.cutoff:
                raise ValueError(f"component degree {d} above cutoff {self.cutoff}")
            if el and el.degrees() != [d]:
                raise ValueError(f"component at degree {d} is not homogeneous")
            terms.update(el.terms)
        self.element = WQSymElement._raw(terms)

    @classmethod
    def _raw(cls, cutoff: int, element: WQSymElement) -> "TruncatedSeries":
        s = object.__new__(cls)
        s.cutoff = cutoff
        s.element = element
        return s

    @classmethod
    def zero(cls, cutoff: int) -> "TruncatedSeries":
        return cls._raw(_check_cutoff(cutoff), WQSymElement.zero())

    @classmethod
    def unit(cls, cutoff: int) -> "TruncatedSeries":
        return cls._raw(_check_cutoff(cutoff), WQSymElement.unit())

    @classmethod
    def from_element(cls, el: WQSymElement, cutoff: int) -> "TruncatedSeries":
        """View a finite element as a series, truncating above the cutoff."""
        cutoff = _check_cutoff(cutoff)
        return cls._raw(cutoff, WQSymElement._raw({w: c for w, c in el.terms.items() if len(w) <= cutoff}))

    def component(self, d: int) -> WQSymElement:
        if d > self.cutoff:
            raise ValueError(f"degree {d} was not computed (cutoff {self.cutoff})")
        return self.element.component(d)

    def degrees(self) -> list[int]:
        return self.element.degrees()

    def truncate(self, cutoff: int) -> "TruncatedSeries":
        if _check_cutoff(cutoff) >= self.cutoff:
            return self
        return TruncatedSeries.from_element(self.element, cutoff)

    def __bool__(self) -> bool:
        return bool(self.element)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.cutoff == other.cutoff and self.element == other.element
        return NotImplemented

    __hash__ = None

    __add__ = __radd__ = _binary(lambda f, g, n: f + g)
    __sub__ = _binary(lambda f, g, n: f - g)
    __rsub__ = _binary(lambda f, g, n: g - f)

    def __neg__(self):
        return TruncatedSeries._raw(self.cutoff, -self.element)

    #: convolution product: the outer product truncated at the cutoff
    __mul__ = _binary(truncated_product, scalars=True)
    __rmul__ = _binary(lambda f, g, n: truncated_product(g, f, n), scalars=True)

    def __truediv__(self, scalar):
        return TruncatedSeries._raw(self.cutoff, self.element / scalar)

    #: internal product: a word keeps its length under ``@``, so one product
    #: of the truncated elements is the truncated product of the series
    __matmul__ = _binary(lambda f, g, n: f @ g)
    __rmatmul__ = _binary(lambda f, g, n: g @ f)

    def __and__(self, other):
        raise BasisMismatch("the bullet product is only defined on finite elements")

    __rand__ = __and__

    def power(self, k: int) -> "TruncatedSeries":
        """k-th convolution power."""
        if k < 0:
            raise ValueError("negative convolution powers go through inverse()")
        out = TruncatedSeries.unit(self.cutoff)
        for _ in range(k):
            out = out * self
        return out

    def _power_sum(self, coeffs) -> "TruncatedSeries":
        """``sum_j coeffs[j] * self^j`` (convolution powers), accumulated in
        one dict."""
        out: dict = {}
        p = TruncatedSeries.unit(self.cutoff)
        for j, a in enumerate(coeffs):
            if j:
                p = p * self
            _add_multiple(out, p.element.terms, a)
        return TruncatedSeries._raw(self.cutoff, WQSymElement._raw(out))

    def inverse(self) -> "TruncatedSeries":
        """Convolution inverse, defined when the constant term is nonzero."""
        c = self.element.counit()
        if not c:
            raise NotInvertible("series with zero constant term has no inverse")
        x = self * (Fraction(1) / c) - TruncatedSeries.unit(self.cutoff)
        return x._power_sum([Fraction((-1) ** j) / c for j in range(self.cutoff + 1)])

    def log(self) -> "TruncatedSeries":
        """Convolution logarithm; requires constant term exactly the unit."""
        if self.element.component(0) != WQSymElement.unit():
            raise ValueError("log needs constant term equal to the unit")
        x = self - TruncatedSeries.unit(self.cutoff)
        return x._power_sum([0] + [Fraction((-1) ** (j + 1), j) for j in range(1, self.cutoff + 1)])

    def exp(self) -> "TruncatedSeries":
        """Convolution exponential; requires zero constant term."""
        if self.element.counit():
            raise ValueError("exp needs zero constant term")
        return self._power_sum([Fraction(1, math.factorial(j)) for j in range(self.cutoff + 1)])

    def graded_terms(self):
        """``(d, terms)`` for each nonzero degree ``d`` in increasing order,
        ``terms`` the ``(word, coefficient)`` pairs of degree ``d`` in
        canonical order: one sort, no scan per degree."""
        terms = self.element.terms
        for d, words in groupby(self.element.sorted_keys(), key=len):
            words = list(words)
            yield d, zip(words, map(terms.__getitem__, words))

    def __str__(self) -> str:
        return "".join(format_graded(self.cutoff, self.graded_terms()))

    def __repr__(self) -> str:
        return f"<TruncatedSeries cutoff={self.cutoff} degrees={self.degrees()}>"


def format_graded(cutoff: int, graded):
    """The text of a series, in chunks, from its cutoff and its graded terms
    as :meth:`TruncatedSeries.graded_terms` yields them: one line
    ``d: <terms>`` per nonzero degree, or ``0 (cutoff n)`` for none."""
    sep = ""
    for d, terms in graded:
        yield f"{sep}{d}: "
        yield from format_terms(terms, word_str)
        sep = "\n"
    if not sep:
        yield f"0 (cutoff {cutoff})"


class _BlockProducts(dict):
    """The products of the letters of one key over sets of positions, indexed
    by bitmask; each is computed with ``merge`` on first use, from the product
    over all but the lowest position."""

    __slots__ = ("merge",)

    def __init__(self, key, merge):
        super().__init__((1 << i, letter) for i, letter in enumerate(key))
        self.merge = merge

    def __missing__(self, mask):
        low = mask & -mask
        value = self[mask] = self.merge(self[low], self[mask ^ low])
        return value


def right_action(x, op, merge):
    """Right action of a packed-word element or series ``op`` on a module
    element ``x`` whose keys are words over a commutative semigroup with
    product ``merge``.

    A word ``u`` sends a key of its own length to the word of blockwise
    products: its i-th letter is the product of the key's letters at the
    positions where ``u`` has the letter i.  Every other length is killed, so
    a series acts by its whole element; lengths above its cutoff were not
    computed and are refused.  The operator is bucketed by length rather than
    paired with every key through :func:`wqsym.algebra._bilinear`.  Each
    block product is computed once per key, and with ``Fraction`` coefficients
    throughout the sums accumulate as int numerators over one common
    denominator."""
    if isinstance(op, TruncatedSeries):
        for key in x.terms:
            if len(key) > op.cutoff:
                raise CapExceeded(f"series cutoff {op.cutoff} cannot act on degree {len(key)}")
        return x.act(op.element)
    if not isinstance(op, WQSymElement):
        raise TypeError("operators are WQSymElement or TruncatedSeries values")
    lengths = {len(key) for key in x.terms}
    xs, ops, d = _numerators(x.terms, {u: c for u, c in op.terms.items() if len(u) in lengths})
    buckets = {n: (list(map(block_masks, us)), cs) for n, (us, cs) in _by_length(ops).items()}
    out: dict = {}
    get = out.get
    for key, c in xs.items():
        bucket = buckets.get(len(key))
        if bucket is None:
            continue
        product = _BlockProducts(key, merge).__getitem__
        for masks, cu in zip(*bucket):
            w = tuple(map(product, masks))
            out[w] = get(w, 0) + c * cu
    return _collect(type(x), out, d)


# -- the characteristic family ------------------------------------------------


@lru_cache(maxsize=None)
def identity_series(cutoff: int) -> TruncatedSeries:
    """The diagonal series: staircase word 1 2 .. d in each degree d."""
    check_degree_cap(cutoff)
    return TruncatedSeries._raw(
        cutoff, WQSymElement._raw({tuple(range(1, d + 1)): Fraction(1) for d in range(cutoff + 1)})
    )


def _ascent_polynomial(a: int, d: int) -> list[Fraction]:
    """Coefficients in k, from k^0 up, of C(k + a, d) = (k+a)(k+a-1)...(k+a-d+1) / d!."""
    poly = [Fraction(1, math.factorial(d))]
    for j in range(d):
        # multiply by (k + a - j)
        poly = [(a - j) * x + y for x, y in zip(poly + [0], [0] + poly)]
    return poly


def _adams_entry(k: int, a: int, d: int) -> Fraction:
    """The coefficient of Psi^k on a word of length d with a ascents: C(a + k, d)."""
    return Fraction(math.comb(a + k, d))


def _eulerian_entry(i: int, a: int, d: int):
    """The coefficient of e_i on a word of length d with a ascents: the k^i
    coefficient of the polynomial C(k + a, d)."""
    poly = _ascent_polynomial(a, d)
    return poly[i] if i < len(poly) else 0


def _ascent_terms(cutoff: int, entry):
    """``(d, terms)`` for each degree d <= cutoff with a nonzero term, in
    increasing order, ``terms`` an iterator over the ``(word, coefficient)``
    pairs of degree d in canonical order, with coefficient ``entry(a, d)`` on
    a word with a ascents: the graded terms of the series, straight from the
    enumeration, with nothing built or stored.  As with ``groupby``, each
    degree's terms are read before the next degree is drawn.

    One table per degree, indexed by a.  The enumeration never visits a word
    with fewer ascents than the smallest a with a nonzero entry, the words of
    one ascent count share one coefficient object, and the words whose entry
    is zero are dropped."""
    for d in range(cutoff + 1):
        table = [entry(a, d) for a in range(max(d, 1))]
        nonzero = list(map(bool, table))
        if True not in nonzero:
            continue
        pairs = packed_words_with_ascents(d, len(table) - 1 - nonzero.index(True))
        yield d, ((w, table[a]) for w, a in pairs if nonzero[a])


def _ascent_series(cutoff: int, graded) -> TruncatedSeries:
    """The series of the graded terms of :func:`_ascent_terms`."""
    terms: dict = {}
    for _, pairs in graded:
        terms.update(pairs)
    return TruncatedSeries._raw(cutoff, WQSymElement._raw(terms))


def adams_terms(k: int, cutoff: int):
    """The graded terms of the k-th Adams operation up to ``cutoff``, as
    :func:`_ascent_terms` yields them; ``k`` and the cap are checked at the
    call."""
    if k < 0:
        raise ValueError("Adams operations are indexed by nonnegative integers")
    check_degree_cap(cutoff)
    return _ascent_terms(cutoff, partial(_adams_entry, k))


@lru_cache(maxsize=None)
def adams(k: int, cutoff: int) -> TruncatedSeries:
    """k-th Adams operation I^(*k): coefficient C(a + k, d) on a word of
    length d with a ascents (the convolution power is the definition and the
    oracle)."""
    return _ascent_series(cutoff, adams_terms(k, cutoff))


def log_identity(cutoff: int) -> TruncatedSeries:
    """log I, which is the first idempotent e_1."""
    return eulerian_idempotent(1, cutoff)


def eulerian_terms(i: int, cutoff: int):
    """The graded terms of the i-th quasi-Eulerian idempotent up to
    ``cutoff``, as :func:`_ascent_terms` yields them; ``i`` and the cap are
    checked at the call."""
    if i < 0:
        raise ValueError("idempotent index must be nonnegative")
    check_degree_cap(cutoff)
    return _ascent_terms(cutoff, partial(_eulerian_entry, i))


@lru_cache(maxsize=None)
def eulerian_idempotent(i: int, cutoff: int) -> TruncatedSeries:
    """i-th quasi-Eulerian idempotent log(I)^(*i) / i!.  Since Psi^k =
    sum_i k^i e_i, its coefficient on a word of length d with a ascents is
    the k^i coefficient of the polynomial C(k + a, d) (the convolution route
    is the definition and the oracle)."""
    return _ascent_series(cutoff, eulerian_terms(i, cutoff))


def eulerian_e1_closed_form(cutoff: int) -> TruncatedSeries:
    """First idempotent by the explicit alternating ribbon formula: in degree n,
    (1/n) * sum over compositions I of n of (-1)^(len(I)-1) / C(n-1, len(I)-1)
    times the hat-embedded ribbon of I."""
    check_degree_cap(cutoff)
    out: dict = {}
    for n in range(1, cutoff + 1):
        for I in compositions(n):
            l = len(I)
            coeff = Fraction((-1) ** (l - 1), math.comb(n - 1, l - 1) * n)
            _add_multiple(out, ribbon_hat(I).terms, coeff)
    return TruncatedSeries._raw(cutoff, WQSymElement._raw(out))


def unipotence_check(n: int) -> bool:
    """(I - unit)^(n+1) has no component in degrees <= n."""
    x = identity_series(n) - TruncatedSeries.unit(n)
    return not x.power(n + 1)
