"""The packed-word algebra on sparse exact linear combinations.

:class:`Algebra` holds the product and the text of every algebra of words
(packed words here, tensor words and compositions in :mod:`wqsym.qshuffle`
and :mod:`wqsym.qsym`), and :class:`Tensor` those of their tensor squares,
read from the leg algebra.  Both derive from the sparse-combination base of
:mod:`wqsym.params`, which also holds the kernels :func:`_bilinear` and
:func:`_linear` and the rule that promotes scalars.  Every product and
coproduct is the extension of a map on basis keys by a kernel; the
quasi-shuffle products merge letters by their semigroup product (Hoffman,
"Quasi-shuffle products", J. Algebraic Combin. 11, 2000).  Three loops pair
only keys of matching lengths and stay outside the kernels, which would call
the key map once per pair: ``@``, :func:`truncated_product` (the product of
series) and the right action (:meth:`wqsym.qshuffle.QuasiShuffle.act`).

The three products of packed words carry distinct operators so expressions
read like the algebra they compute in:

    f * g    outer product (shifted quasi-shuffle of set compositions)
    f @ g    internal product (composition of surjections, zero on arity
             mismatch)
    f & g    bullet product (shifted concatenation of basis words)

Coefficients are exact: ``Fraction`` everywhere, or :class:`ParamPoly` for
the parameter-deformed operators.  When both operands have only ``Fraction``
coefficients, the three bucketed loops accumulate integer numerators over a
common denominator and make one ``Fraction`` per output key; the kernels add
each product's coefficient as it is, which is cheaper on small operands.
Zero coefficients are pruned after every operation, so ``==`` is literal
term-by-term equality.  Elements are immutable by convention; nothing here
mutates a constructed value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iproduct
from operator import eq, ge, itemgetter, le

from . import words
from .params import (
    SCALAR_TYPES,
    ParamPoly,
    SparseCombination,
    Unital,
    _add_term,
    _bilinear,
    _linear,
)
from .words import (
    Word,
    breadth,
    descents,
    enumerate_packed_words,
    pack,
    quasi_shuffle_words,
    reverse,
    shifted_concat,
    word_sort_key,
)


def _add_multiple(data: dict, terms: dict, scalar) -> None:
    """Add ``scalar`` times the combination ``terms`` into ``data`` in place."""
    for key, c in terms.items():
        _add_term(data, key, scalar * c)


def _numerators(f: dict, g: dict):
    """``(f, g, d)``: when every coefficient of both is a ``Fraction``, each
    as int numerators over the lcm of its denominators and ``d`` the product
    of the two lcms, so a sum of products of numerators over ``d`` is the
    exact sum; otherwise the two unchanged and ``d = None``."""
    if not all(type(c) is Fraction for terms in (f, g) for c in terms.values()):
        return f, g, None
    df = math.lcm(*[c.denominator for c in f.values()])
    dg = math.lcm(*[c.denominator for c in g.values()])
    f = {key: c.numerator * (df // c.denominator) for key, c in f.items()}
    g = {key: c.numerator * (dg // c.denominator) for key, c in g.items()}
    return f, g, df * dg


def _collect(cls, out: dict, d):
    """The ``cls`` element of the nonzero sums in ``out``, over ``d`` if not
    None."""
    if d is None:
        return cls._raw({w: c for w, c in out.items() if c})
    return cls._raw({w: Fraction(n, d) for w, n in out.items() if n})


def _by_length(terms: dict) -> dict[int, tuple[list, list]]:
    """The keys of ``terms`` and their coefficients as parallel lists, grouped
    by key length: the operand of every product or action that pairs only
    matching lengths."""
    buckets: dict[int, tuple[list, list]] = {}
    for key, c in terms.items():
        keys, coeffs = buckets.setdefault(len(key), ([], []))
        keys.append(key)
        coeffs.append(c)
    return buckets


def _composer(u: Word):
    """The map ``v -> v o u`` on words ``v`` of length ``breadth(u)``."""
    if len(u) > 1:
        return itemgetter(*[x - 1 for x in u])
    return lambda v: tuple(v[x - 1] for x in u)


class Algebra(Unital):
    """A combination of words whose product extends bilinearly ``_product``,
    a product of basis words, and whose text joins ``_key_str`` term by term."""

    __slots__ = ()

    @classmethod
    def monomial(cls, word, coeff=1):
        return cls({tuple(word): coeff})

    def degrees(self) -> list[int]:
        return sorted({len(w) for w in self.terms})

    def __mul__(self, other):
        """The product of the algebra, or a scalar multiple."""
        if isinstance(other, type(self)):
            return _bilinear(type(self), self.terms, other.terms, self._product)
        if isinstance(other, SCALAR_TYPES):
            return self._scaled(other)
        return NotImplemented

    def __str__(self) -> str:
        return "".join(format_terms(self.sorted_terms(), self._key_str))


class WQSymElement(Algebra):
    """A finite linear combination of packed words."""

    __slots__ = ()

    _check_key = staticmethod(words.check_packed)
    _sort_key = staticmethod(word_sort_key)
    # bound in the class body, where perfbench/spans.py wraps them
    __mul__ = Algebra.__mul__
    __str__ = Algebra.__str__

    @staticmethod
    def _key_str(w: Word) -> str:
        return "M[" + letters_str(w) + "]"

    # -- the three products -------------------------------------------------

    @staticmethod
    def _product(u, v):
        """Outer product of two words, the kernel looked up in the module at
        each call, where perfbench/spans.py wraps it."""
        return quasi_shuffle_words(u, v)

    def __matmul__(self, other):
        """Internal product: compose basis surjections, zero on arity mismatch.

        Word ``v`` of ``other`` composes with word ``u`` of ``self`` only if
        ``len(v) == breadth(u)``, so ``other`` is bucketed by length once,
        and the pairs do not go through :func:`_bilinear`, which would visit
        every pair.  With ``Fraction`` coefficients throughout, the products
        accumulate as int numerators over one common denominator, divided out
        at the end.  A one-term ``self`` whose coefficient is the ``Fraction``
        1 passes each coefficient of ``other`` through unmultiplied; a
        ``ParamPoly`` 1 still multiplies, so the product stays a ``ParamPoly``.
        """
        if not isinstance(other, WQSymElement):
            return NotImplemented
        f, g = self.terms, other.terms
        out: dict[Word, object] = {}
        if len(f) == 1:
            # v -> v o u is injective for a single surjection u, so no two
            # products land on the same word and nothing can cancel.  The
            # composer is built on the first match: many calls match nothing.
            ((u, cu),) = f.items()
            k, compose = breadth(u), None
            one = type(cu) is Fraction and cu == 1
            for v, cv in g.items():
                if len(v) == k:
                    compose = compose or _composer(u)
                    out[compose(v)] = cv if one else cu * cv
            return WQSymElement._raw(out)
        f, g, d = _numerators(f, g)
        buckets = _by_length(g)
        get = out.get
        for u, cu in f.items():
            bucket = buckets.get(breadth(u))
            if bucket is None:
                continue
            vs, cs = bucket
            for w, cv in zip(map(_composer(u), vs), cs):
                out[w] = get(w, 0) + cu * cv
        return _collect(WQSymElement, out, d)

    def __and__(self, other):
        """Bullet product: shifted concatenation of basis words."""
        if not isinstance(other, WQSymElement):
            return NotImplemented
        return _bilinear(WQSymElement, self.terms, other.terms, lambda u, v: (shifted_concat(u, v),))

    # -- coalgebra ----------------------------------------------------------

    def coproduct(self) -> "TensorSquare":
        """Split each basis word by letter value: letters <= i on the left,
        the rest repacked on the right, summed over i = 0..breadth."""

        def splits(u):
            for i in range(breadth(u) + 1):
                yield tuple(x for x in u if x <= i), pack(tuple(x for x in u if x > i))

        return _linear(TensorSquare, self.terms, splits)

    # -- inspection ---------------------------------------------------------

    def component(self, d: int) -> "WQSymElement":
        return WQSymElement._raw({w: c for w, c in self.terms.items() if len(w) == d})


def truncated_product(f: WQSymElement, g: WQSymElement, n: int) -> WQSymElement:
    """The words of length at most ``n`` of the outer product ``f * g``.

    Every word of the product of ``u`` and ``v`` has length ``len(u) +
    len(v)``, so only the pairs with ``len(u) + len(v) <= n`` are multiplied;
    ``g`` is bucketed by length to find them instead of visiting every pair
    through :func:`_bilinear`, and ``Fraction`` coefficients accumulate as int
    numerators.
    """
    f, g, d = _numerators(f.terms, g.terms)
    buckets = _by_length(g)
    out: dict[Word, object] = {}
    get = out.get
    for u, cu in f.items():
        room = n - len(u)
        for k, (vs, cs) in buckets.items():
            if k > room:
                continue
            for v, cv in zip(vs, cs):
                c = cu * cv
                for w in quasi_shuffle_words(u, v):
                    out[w] = get(w, 0) + c
    return _collect(WQSymElement, out, d)


def _term_prefixes(coeff) -> tuple[str, str]:
    """What precedes a key in the text of a term with coefficient ``coeff``,
    as the first term and as a later one: ``""``/``" + "``, ``"-"``/``" - "``,
    ``"2*"``/``" + 2*"``, ``"(t^2)*"``/``" + (t^2)*"``."""
    if isinstance(coeff, ParamPoly):
        first = f"({coeff})*"
    elif coeff == 1:
        first = ""
    elif coeff == -1:
        first = "-"
    else:
        first = f"{coeff}*"
    if first.startswith("-"):
        return first, " - " + first[1:]
    return first, " + " + first


def format_terms(sorted_terms, key_fmt):
    """The shared pretty-printer for sparse elements, '2*M[1,2] - M[1,1]', as
    one chunk of text per term ('0' for no term).

    Terms of large series share few coefficient objects, so each distinct
    object is formatted once: ``memo`` maps its id to the prefix of a later
    term and holds the object itself, so no id is reused while the chunks
    are made."""
    terms = iter(sorted_terms)
    first = next(terms, None)
    if first is None:
        yield "0"
        return
    key, coeff = first
    yield _term_prefixes(coeff)[0] + key_fmt(key)
    memo: dict = {}
    for key, coeff in terms:
        entry = memo.get(id(coeff))
        if entry is None:
            entry = memo[id(coeff)] = (_term_prefixes(coeff)[1], coeff)
        yield entry[0] + key_fmt(key)


class _LetterStrings(dict):
    """The decimal string of each letter, made on first use."""

    def __missing__(self, letter):
        text = self[letter] = str(letter)
        return text


_LETTER_STRINGS = _LetterStrings()


def letters_str(w) -> str:
    """The letters of a word or composition joined by commas: '1,2,1'."""
    return ",".join(map(_LETTER_STRINGS.__getitem__, w))


class Tensor(SparseCombination):
    """A combination of pairs of basis words of the algebra ``_leg``, with its
    key check, order, product and text on each leg.  It has no unit, so it
    binds ``str``, and each subclass ``*``, from :class:`Algebra`."""

    __slots__ = ()

    __str__ = Algebra.__str__

    @classmethod
    def _check_key(cls, key):
        a, b = key
        return (cls._leg._check_key(a), cls._leg._check_key(b))

    @classmethod
    def _sort_key(cls, key):
        return tuple(map(cls._leg._sort_key, key))

    @classmethod
    def _product(cls, p, q):
        product = cls._leg._product
        return iproduct(product(p[0], q[0]), product(p[1], q[1]))

    @classmethod
    def _key_str(cls, key) -> str:
        return "x".join(map(cls._leg._key_str, key))


class TensorSquare(Tensor):
    """Finite linear combination of ordered pairs of packed words."""

    __slots__ = ()

    _leg = WQSymElement
    # bound in the class body, where perfbench/spans.py wraps it
    __mul__ = Algebra.__mul__


# -- embeddings of the free algebra on complete functions --------------------


def _partial_sums(I) -> frozenset[int]:
    total, out = 0, []
    for part in I[:-1]:
        total += part
        out.append(total)
    return frozenset(out)


def _reversed_complement(I) -> frozenset[int]:
    # positions 1..n-1 minus the partial sums of I read from the right
    return frozenset(range(1, sum(I))) - _partial_sums(I[::-1])


def _descent_class(I, relation, hat=False) -> WQSymElement:
    """The sum of the packed words of length ``sum(I)`` whose descent set
    stands in ``relation`` to the partial sums of ``I``; with ``hat``, to the
    complement of the right-to-left partial sums, each word reversed
    (reversal is injective, so no two words collide)."""
    I = tuple(I)
    target = _reversed_complement(I) if hat else _partial_sums(I)
    chosen = (u for u in enumerate_packed_words(sum(I)) if relation(descents(u), target))
    return WQSymElement._raw({reverse(u) if hat else u: Fraction(1) for u in chosen})


def embed_sym_standard(I) -> WQSymElement:
    """Complete-function product S^I as the descent-subset sum over packed words."""
    return _descent_class(I, le)


def ribbon_standard(I) -> WQSymElement:
    """Ribbon basis element: descent set exactly the partial sums of I."""
    return _descent_class(I, eq)


def embed_sym_hat(I) -> WQSymElement:
    """Image of S^I under the embedding sending S_n to the staircase word 1..n.

    Defined multiplicatively; see :func:`embed_sym_hat_closed` for the
    closed-form descent-superset expansion used as a cross-check.
    """
    out = WQSymElement.unit()
    for part in I:
        out = out * WQSymElement.monomial(tuple(range(1, part + 1)))
    return out


def embed_sym_hat_closed(I) -> WQSymElement:
    """Oracle of :func:`embed_sym_hat`, in closed form: reversed words whose
    descent set contains the complement of the right-to-left partial sums."""
    return _descent_class(I, ge, hat=True)


def ribbon_hat(I) -> WQSymElement:
    """Hat-embedded ribbon: reversed words with descent set exactly the
    complement of the right-to-left partial sums."""
    return _descent_class(I, eq, hat=True)


def crucial_factorization_check(us) -> bool:
    """Outer product of basis words == their bullet product, internally
    multiplied by the staircase image of the breadth composition."""
    factors = [words.check_packed(u) for u in us]
    if not factors:
        raise ValueError("need at least one word")
    factors = [u for u in factors if u] or [()]
    lhs = WQSymElement.unit()
    bullet = WQSymElement.unit()
    for u in factors:
        m = WQSymElement.monomial(u)
        lhs = lhs * m
        bullet = bullet & m
    I = tuple(breadth(u) for u in factors if u)
    return lhs == bullet @ embed_sym_hat(I)
