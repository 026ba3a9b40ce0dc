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
the binomial C(k + a, d).  As a polynomial in k this is sum_i k^i e_i, so
e_i has the k^i coefficient of C(k + a, d), and log I is e_1.  That one
polynomial, :func:`_ascent_polynomial`, is the source of every
characteristic series: Psi^k takes its value at k, e_i its k^i coefficient,
and I is Psi^1.  :class:`Characteristic` holds a series sum_i c_i e_i as its
coordinates (c_0, ..., c_n): Psi^k is (1, k, ..., k^n) and e_i the i-th unit
vector.  Since e_i @ e_j = delta_ij e_i and e_i * e_j = C(i + j, i) e_{i+j},
sums and both products of such series are computed on the coordinates alone,
which is how ``wqsym eval`` combines I, Psi(k) and e(i).  A word of length d
with a ascents has the coefficient sum_i c_i [k^i] C(k + a, d), the one
coefficient rule, with one table of these coefficients per degree.
:meth:`Characteristic.series` builds the closed forms from the tables and
the packed-word enumeration's batches of words.
:meth:`Characteristic.graded_terms` hands each table to a writer,
:func:`_ascent_chunks`, which makes the text of the terms of each state of
a word's last letters once per degree, straight from the enumeration and
the coefficient texts, so that ``wqsym expand`` renders a series without
building it or any word.  :meth:`TruncatedSeries.graded_terms` yields the
same stream for a built series, with the writer of every element's text,
:func:`wqsym.algebra._indexed_chunks`.
:meth:`TruncatedSeries.unit` is Psi^0 but is built directly, as the one
series that no degree cap bounds.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, partial
from itertools import groupby

from .algebra import (
    SCALAR_TYPES,
    WQSymElement,
    _add_multiple,
    _reduced,
    _term_prefixes,
    indexed_terms,
    letters_str,
    ribbon_hat,
    truncated_product,
)
from .errors import BasisMismatch, NotInvertible
from .words import _ascent_batches, _tail_values, check_degree_cap, compositions


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


def _check_index(k) -> int:
    """The index of an Adams operation or an idempotent, refused unless it is
    a nonnegative int (a ``bool`` is not)."""
    if type(k) is not int or k < 0:
        raise ValueError(f"indices are nonnegative ints, got {k!r}")
    return k


class TruncatedSeries:
    """Graded element of the completion, stored up to a cutoff degree as one
    element with no word longer than the cutoff."""

    __slots__ = ("cutoff", "element")

    def __init__(self, cutoff: int, components=None):
        """The series with the homogeneous element ``components[d]`` in each
        degree ``d <= cutoff``; absent degrees are zero."""
        self.cutoff = _check_cutoff(cutoff, *(components or ()))
        terms: dict = {}
        den = 1
        for d, el in (components or {}).items():
            if not isinstance(el, WQSymElement):
                raise TypeError("components must be WQSymElement values")
            if d > self.cutoff:
                raise ValueError(f"component degree {d} above cutoff {self.cutoff}")
            if el and el.degrees() != [d]:
                raise ValueError(f"component at degree {d} is not homogeneous")
            den = _add_multiple(terms, den, el)
        self.element = _reduced(WQSymElement, terms, den)

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
        return cls._raw(cutoff, el._select(lambda w: len(w) <= cutoff))

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
        return self._power_sum([0] * k + [1])

    def _power_sum(self, coeffs) -> "TruncatedSeries":
        """``sum_j coeffs[j] * self^j`` (convolution powers), accumulated in
        one dict; a zero coefficient adds nothing."""
        out: dict = {}
        d = 1
        p = TruncatedSeries.unit(self.cutoff)
        for j, a in enumerate(coeffs):
            if j:
                p = p * self
            if a:
                d = _add_multiple(out, d, p.element, a)
        return TruncatedSeries._raw(self.cutoff, _reduced(WQSymElement, out, d))

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
        """The graded terms of the series, as
        :meth:`Characteristic.graded_terms` yields them: for each nonzero
        degree, its words in canonical order, written as one chunk
        (:func:`~wqsym.algebra.indexed_terms`).  One sort, no scan per degree."""
        for d, words in groupby(self.element.sorted_keys(), key=len):
            yield d, *indexed_terms(words, self.element, letters_str)

    def __str__(self) -> str:
        return "".join(format_graded(self.cutoff, self.graded_terms()))

    def __repr__(self) -> str:
        return f"<TruncatedSeries cutoff={self.cutoff} degrees={self.degrees()}>"


#: marks where a term's key opens in the text of a tail state, before the
#: letters that follow it; no text of a coefficient or a letter contains it
_HEAD = "\0"


def _ascent_chunks(d: int, budget: int, key_open: str, texts):
    """The text of the terms of the packed words of length ``d`` with at most
    ``budget`` non-ascents, a word with a ascents having the coefficient of
    index a, in chunks; ``texts`` is as for
    :func:`wqsym.algebra._indexed_chunks`, one entry per ascent count.

    A state with at most ``_TAIL`` letters to come
    (:func:`wqsym.words._tail_values`) has one text per call, each term's key
    opened by _HEAD: a whole word's is the term of its ascent count, and any
    other state's joins its children's texts in letter order, each child's
    letter put after every _HEAD.  Each prefix that reaches the state writes
    that text as one chunk, its key openings and letters put in by one
    replace.  The first word, 1^(budget+1) 2 3 ..., has the fewest ascents of
    any word written, so its entry is nonzero and the degree's text opens
    with its ``first``."""
    top = len(texts) - 1  # the ascents of a word with no non-ascent

    def leaf(non_ascents):
        entry = texts[top - non_ascents]
        return entry[1] + _HEAD + entry[2] if entry else ""

    def join(remaining, parts):
        comma = "," if remaining > 1 else ""
        return "".join([text.replace(_HEAD, _HEAD + str(letter) + comma) for letter, text in parts if text])

    first, later, _ = texts[top - budget]
    opened = False
    for prefix, text in _tail_values(d, budget, leaf, join):
        if text:
            text = text.replace(_HEAD, key_open + letters_str(prefix) + "," if prefix else key_open)
            if not opened:
                text, opened = first + text[len(later):], True
            yield text


def format_graded(cutoff: int, graded):
    """The text of a series, in chunks, from its cutoff and its graded terms
    as :meth:`Characteristic.graded_terms` or
    :meth:`TruncatedSeries.graded_terms` yields them: one line ``d: <terms>``
    per nonzero degree, or ``0 (cutoff n)`` for none."""
    sep = ""
    for d, table, chunks in graded:
        yield f"{sep}{d}: "
        yield from chunks("M[", [(*_term_prefixes(c), "]") if c else None for c in table])
        sep = "\n"
    if not sep:
        yield f"0 (cutoff {cutoff})"


# -- the characteristic family ------------------------------------------------


def _ascent_polynomial(a: int, d: int) -> list[int]:
    """Coefficients in k, from k^0 up, of d! * C(k + a, d) = (k+a)(k+a-1)...(k+a-d+1):
    ints, so a table entry sums int products and is divided by d! once."""
    poly = [1]
    for j in range(d):
        # multiply by (k + a - j)
        poly = [(a - j) * x + y for x, y in zip(poly + [0], [0] + poly)]
    return poly


def _coordinate_rules(rule, op):
    """The :class:`Characteristic` operations ``self op other`` and ``other
    op self``: ``rule(a, b)`` of the left and right operands' coordinates,
    truncated to the smaller cutoff, when the other operand has coordinates;
    ``op`` of the operands, this one built as a series, when the other is
    another element or a series."""

    def apply(self, other, reflected):
        if isinstance(other, Characteristic):
            n = min(self.cutoff, other.cutoff)
            theirs = other.coords[: n + 1]
        elif isinstance(other, WQSymElement) and other.terms.keys() <= {()}:
            n = self.cutoff
            theirs = (other.counit(),) + (0,) * n
        elif isinstance(other, (WQSymElement, TruncatedSeries)):
            return op(other, self.series()) if reflected else op(self.series(), other)
        else:
            return NotImplemented
        ours = self.coords[: n + 1]
        return Characteristic(n, rule(theirs, ours) if reflected else rule(ours, theirs))

    return (lambda self, other: apply(self, other, False)), (lambda self, other: apply(self, other, True))


def _binomial_convolution(a, b):
    """The coordinates of the convolution product: e_i * e_j = C(i + j, i) e_{i+j}."""
    return [sum(math.comb(k, i) * a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


class Characteristic:
    """The series ``sum_i coords[i] * e_i`` up to ``cutoff``, held as its
    ``cutoff + 1`` coordinates in the quasi-Eulerian idempotents.

    Since e_i @ e_j = delta_ij e_i and e_i * e_j = C(i + j, i) e_{i+j}, these
    series are closed under ``+``, ``-``, ``*`` and ``@``, and none of them
    builds a word: ``@`` multiplies the coordinates pointwise and ``*``
    convolves them binomially.  Psi^k is (1, k, ..., k^n), I is Psi^1, and a
    ``WQSymElement`` whose only word is the empty one, or zero, is c * e_0.
    Any other element or series operand meets :meth:`series`, built once
    from the coordinates, under the series' own operator; the bullet product
    is refused as a series refuses it."""

    __slots__ = ("cutoff", "coords")

    def __init__(self, cutoff: int, coords):
        self.cutoff = cutoff
        self.coords = tuple(coords)

    @classmethod
    def adams(cls, k: int, cutoff: int) -> "Characteristic":
        """Psi^k; ``k`` and the cap are checked at the call."""
        _check_index(k)
        check_degree_cap(_check_cutoff(cutoff))
        return cls(cutoff, [k**i for i in range(cutoff + 1)])

    @classmethod
    def eulerian(cls, i: int, cutoff: int) -> "Characteristic":
        """e_i, zero when i is above the cutoff; ``i`` and the cap are checked
        at the call."""
        _check_index(i)
        check_degree_cap(_check_cutoff(cutoff))
        return cls(cutoff, [int(j == i) for j in range(cutoff + 1)])

    def _tables(self):
        """``(d, table, budget)`` for each degree d <= cutoff with a nonzero
        term, in increasing order.  ``table[a]`` is the coefficient of the
        words of length d with a ascents, ``sum_i coords[i] * poly[i] / d!``
        with ``poly`` the int coefficients in k of d! * C(k + a, d), one
        ``Fraction`` object per entry.  No word with fewer ascents than the
        smallest a with a nonzero entry has a term, so its words take at most
        ``budget`` non-ascents."""
        for d in range(self.cutoff + 1):
            scale = math.factorial(d)
            table = [Fraction(sum(map(operator.mul, self.coords, _ascent_polynomial(a, d))), scale)
                     for a in range(max(d, 1))]
            nonzero = list(map(bool, table))
            if True in nonzero:
                yield d, table, len(table) - 1 - nonzero.index(True)

    def graded_terms(self):
        """The graded terms of the series, straight from the enumeration, with
        nothing built or stored: ``(d, table, chunks)`` for each degree d <=
        cutoff with a nonzero term, in increasing order, with ``table[a]`` the
        coefficient of the words of length d with a ascents; ``chunks(key_open,
        texts)`` writes the degree's terms in canonical order from the texts
        of each entry (:func:`_ascent_chunks`), a zero entry putting no term
        on its words."""
        for d, table, budget in self._tables():
            yield d, table, partial(_ascent_chunks, d, budget)

    def series(self) -> TruncatedSeries:
        """The series of :meth:`graded_terms`, built from the enumeration's
        batches (:func:`wqsym.words._ascent_batches`) as int numerators over
        the lcm of the tables' denominators.  Every nonzero entry of a table
        is the coefficient of some word, so the numerators share no factor
        with that lcm."""
        tables = list(self._tables())
        den = math.lcm(*[c.denominator for _, table, _ in tables for c in table])
        terms: dict = {}
        for d, table, budget in tables:
            table = [c.numerator * (den // c.denominator) for c in table]
            for prefix, pairs in _ascent_batches(d, budget):
                terms.update([(prefix + s, table[a]) for s, a in pairs if table[a]])
        return TruncatedSeries._raw(self.cutoff, WQSymElement._raw(terms, den))

    def __neg__(self):
        return Characteristic(self.cutoff, map(operator.neg, self.coords))

    __add__, __radd__ = _coordinate_rules(partial(map, operator.add), operator.add)
    __sub__, __rsub__ = _coordinate_rules(partial(map, operator.sub), operator.sub)
    __mul__, __rmul__ = _coordinate_rules(_binomial_convolution, operator.mul)
    __matmul__, __rmatmul__ = _coordinate_rules(partial(map, operator.mul), operator.matmul)
    __and__ = __rand__ = TruncatedSeries.__and__


@lru_cache(maxsize=None, typed=True)
def adams(k: int, cutoff: int) -> TruncatedSeries:
    """k-th Adams operation I^(*k): coefficient C(a + k, d) on a word of
    length d with a ascents (the convolution power is the definition and the
    oracle)."""
    return Characteristic.adams(k, cutoff).series()


def identity_series(cutoff: int) -> TruncatedSeries:
    """The diagonal series I = Psi^1: staircase word 1 2 .. d in each degree
    d, the one word of length d with d - 1 ascents."""
    return adams(1, cutoff)


def log_identity(cutoff: int) -> TruncatedSeries:
    """log I, which is the first idempotent e_1."""
    return eulerian_idempotent(1, cutoff)


@lru_cache(maxsize=None, typed=True)
def eulerian_idempotent(i: int, cutoff: int) -> TruncatedSeries:
    """i-th quasi-Eulerian idempotent log(I)^(*i) / i!.  Since Psi^k =
    sum_i k^i e_i, its coefficient on a word of length d with a ascents is
    the k^i coefficient of the polynomial C(k + a, d) (the convolution route
    is the definition and the oracle)."""
    return Characteristic.eulerian(i, cutoff).series()


def eulerian_e1_closed_form(cutoff: int) -> TruncatedSeries:
    """First idempotent by the explicit alternating ribbon formula: in degree n,
    (1/n) * sum over compositions I of n of (-1)^(len(I)-1) / C(n-1, len(I)-1)
    times the hat-embedded ribbon of I."""
    check_degree_cap(_check_cutoff(cutoff))
    out: dict = {}
    d = 1
    for n in range(1, cutoff + 1):
        for I in compositions(n):
            l = len(I)
            coeff = Fraction((-1) ** (l - 1), math.comb(n - 1, l - 1) * n)
            d = _add_multiple(out, d, ribbon_hat(I), coeff)
    return TruncatedSeries._raw(cutoff, _reduced(WQSymElement, out, d))


def unipotence_check(n: int) -> bool:
    """(I - unit)^(n+1) has no component in degrees <= n."""
    x = identity_series(n) - TruncatedSeries.unit(n)
    return not x.power(n + 1)
