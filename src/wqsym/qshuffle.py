"""Quasi-shuffle algebras, and the one over a free commutative algebra
without unit.

:class:`QuasiShuffle` is the base of every quasi-shuffle algebra in the
package: words over a commutative semigroup of letters, with the empty word
as unit, the quasi-shuffle product (interleave or merge leading letters) and
a right action of packed-word elements.  A basis word u of length n sends a
key of length n to the word whose i-th letter is the semigroup product of the
letters at the positions where u has the letter i, and kills every other
length.  Each subclass names its semigroup product once, as ``_merge``, and
the product is the shared kernel :func:`wqsym.words.quasi_shuffle` with that
merge (Hoffman, "Quasi-shuffle products", J. Algebraic Combin. 11, 2000).
Within one action the letters are numbered by equality (:class:`_Letters`),
so the pairs of keys and operator words hash tuples of small ints; each
operator word becomes one ``itemgetter`` over its blocks (:func:`_image`),
each pair of letter numbers is merged once per action, and only the images
with a nonzero sum are spelled back into letters.

Here the base algebra A is spanned by the monomials of positive degree in a
finite set of generators, as A has no unit; its product merges exponent
vectors, so these monomials form a commutative semigroup.
:mod:`wqsym.params` owns monomials and their product; :class:`AElement`
derives from its :class:`~wqsym.params.Monomials`, :class:`QSElement`, the
tensor space over A with the monomial product as merge, from
:class:`QuasiShuffle`, and :class:`QSTensor`, which carries the
deconcatenation coproduct, from :class:`~wqsym.algebra.Tensor` with
:class:`QSElement` on each leg.

Tensor words are stored over monomials only: general tensor factors are
expanded multilinearly at construction, so keys stay canonical and equality
is exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from operator import itemgetter

from .algebra import Algebra, Tensor, WQSymElement, _add_multiple, _by_length, _collect, _numerators
from .errors import CapExceeded
from .params import (
    Monomial,
    Monomials,
    _bilinear,
    _linear,
    mono_mul,
    mono_str,
    monomial as canonical_monomial,
)
from .series import TruncatedSeries, adams, eulerian_idempotent
from .words import block_masks, quasi_shuffle

TensorWord = tuple[Monomial, ...]  # over nonempty monomials


def monomial(*pairs) -> Monomial:
    """The canonical monomial of (generator, exponent) pairs
    (:func:`wqsym.params.monomial`), which must have positive degree."""
    mono = canonical_monomial(*pairs)
    if not mono:
        raise ValueError("monomials must have positive total degree (A has no unit)")
    return mono


def _tensor_word(word) -> TensorWord:
    return tuple(monomial(*m) for m in word)


def _cuts(lo: int):
    """The keys of the deconcatenation of a word at cut points ``lo`` to
    ``len - lo``."""
    return lambda word: [(word[:i], word[i:]) for i in range(lo, len(word) + 1 - lo)]


class AElement(Monomials):
    """Element of the base algebra: rational combination of nonempty monomials."""

    __slots__ = ()

    _key_str = staticmethod(mono_str)
    __str__ = Algebra.__str__

    @staticmethod
    def _check_key(m):
        return monomial(*m)

    @classmethod
    def generator(cls, name: str) -> "AElement":
        return cls._raw({((str(name), 1),): Fraction(1)})


class _Letters(dict):
    """The letters met in one action, each numbered in order of first sight
    (by equality, so equal letters built apart share a number), with
    ``spelled`` mapping numbers back to letters.  ``product`` merges the
    letters of two numbers with ``merge`` once per pair and numbers the
    result."""

    __slots__ = ("spelled", "merge", "pairs")

    def __init__(self, merge):
        super().__init__()
        self.spelled: list = []
        self.merge = merge
        self.pairs: dict[tuple[int, int], int] = {}

    def __missing__(self, letter):
        i = self[letter] = len(self.spelled)
        self.spelled.append(letter)
        return i

    def product(self, i: int, j: int) -> int:
        pair = (i, j)
        k = self.pairs.get(pair)
        if k is None:
            k = self.pairs[pair] = self[self.merge(self.spelled[i], self.spelled[j])]
        return k


class _BlockProducts(dict):
    """The products of the letters of one key over sets of positions, indexed
    by bitmask; each is computed with ``merge`` on first use, from the product
    over all but the lowest position.  In :meth:`QuasiShuffle.act` the
    letters are numbers and ``merge`` is :meth:`_Letters.product`."""

    __slots__ = ("merge",)

    def __init__(self, key, merge):
        super().__init__((1 << i, letter) for i, letter in enumerate(key))
        self.merge = merge

    def __missing__(self, mask):
        low = mask & -mask
        value = self[mask] = self.merge(self[low], self[mask ^ low])
        return value


def _image(u):
    """The map from a key's :class:`_BlockProducts` to the image of the key
    under the word ``u``: one product per letter of ``u``, over its block."""
    masks = block_masks(u)
    if len(masks) > 1:
        return itemgetter(*masks)
    return lambda products: tuple(products[m] for m in masks)  # itemgetter needs two


class QuasiShuffle(Algebra):
    """A combination of words over a commutative semigroup of letters, whose
    product ``_merge`` each subclass names."""

    __slots__ = ()

    @classmethod
    def _product(cls, u, v):
        """Quasi-shuffle product, the commutative product of the algebra."""
        return quasi_shuffle(u, v, cls._merge)

    def act(self, op):
        """Right action of a packed-word element or series ``op``.

        A word ``u`` sends a key of its own length to the word of blockwise
        products: its i-th letter is the ``_merge`` of the key's letters at
        the positions where ``u`` has the letter i.  Every other length is
        killed, so a series acts by its whole element; lengths above its
        cutoff were not computed and are refused.  The operator is bucketed
        by length rather than paired with every key through
        :func:`wqsym.params._bilinear`.  Letters are numbered in order of
        first sight, keys' letters and block products alike, so images are
        tuples of ints until the nonzero sums are spelled at the end.  Each
        operator word is one ``itemgetter`` of its block masks, applied to a
        key's :class:`_BlockProducts`, which fills each block product on
        first use; the merge of two letter numbers is memoised for the
        whole call, as the keys of a product share their letters.  With
        ``Fraction`` coefficients throughout the sums accumulate as int
        numerators over one common denominator."""
        if isinstance(op, TruncatedSeries):
            for key in self.terms:
                if len(key) > op.cutoff:
                    raise CapExceeded(f"series cutoff {op.cutoff} cannot act on degree {len(key)}")
            return self.act(op.element)
        if not isinstance(op, WQSymElement):
            raise TypeError("operators are WQSymElement or TruncatedSeries values")
        lengths = {len(key) for key in self.terms}
        xs, ops, d = _numerators(self.terms, {u: c for u, c in op.terms.items() if len(u) in lengths})
        buckets = {n: (list(map(_image, us)), cs) for n, (us, cs) in _by_length(ops).items()}
        letters = _Letters(self._merge)
        number, product = letters.__getitem__, letters.product
        out: dict = {}
        get = out.get
        for key, c in xs.items():
            bucket = buckets.get(len(key))
            if bucket is None:
                continue
            products = _BlockProducts(map(number, key), product)
            for image, cu in zip(*bucket):
                w = image(products)
                out[w] = get(w, 0) + c * cu
        spell = letters.spelled.__getitem__
        return _collect(type(self), {tuple(map(spell, w)): n for w, n in out.items() if n}, d)


class QSElement(QuasiShuffle):
    """Element of the quasi-shuffle algebra: combination of tensor words."""

    __slots__ = ()

    _check_key = staticmethod(_tensor_word)
    _merge = staticmethod(mono_mul)
    # bound in the class body, where perfbench/spans.py wraps them
    __mul__ = QuasiShuffle.__mul__
    act = QuasiShuffle.act

    @staticmethod
    def _sort_key(word):
        return (len(word), word)

    @staticmethod
    def _key_str(word):
        return "(" + " x ".join(map(mono_str, word)) + ")" if word else "1"

    @classmethod
    def generator(cls, name: str) -> "QSElement":
        """Degree-1 tensor word on a single generator."""
        return cls._raw({(((str(name), 1),),): Fraction(1)})

    # -- coalgebra -----------------------------------------------------------

    def deconcatenate(self) -> "QSTensor":
        return _linear(QSTensor, self.terms, _cuts(0))

    def reduced_deconcatenate(self) -> "QSTensor":
        """Deconcatenation with the two unit-sided terms removed, that is at
        the inner cut points only; only meaningful for elements with zero
        constant term."""
        if self.counit():
            raise ValueError("reduced coproduct needs zero constant term")
        return _linear(QSTensor, self.terms, _cuts(1))


def tensor(*factors: AElement) -> QSElement:
    """Multilinear expansion of a tensor of base-algebra elements."""
    out = QSElement.unit()
    for f in factors:
        out = concat(out, QSElement._raw({(m,): c for m, c in f.terms.items()}))
    return out


def concat(x: QSElement, y: QSElement) -> QSElement:
    """Bilinear concatenation of tensor words (not the algebra product)."""
    return _bilinear(QSElement, x.terms, y.terms, lambda a, b: (a + b,))


class QSTensor(Tensor):
    """Combination of ordered pairs of tensor words (coproduct values)."""

    __slots__ = ()

    _leg = QSElement
    # bound in the class body, where perfbench/spans.py wraps it
    __mul__ = Algebra.__mul__

    def multiply_legs(self) -> QSElement:
        """Quasi-shuffle the two legs together (the product-of-coproduct map)."""
        return _linear(QSElement, self.terms, lambda legs: QSElement._product(*legs))


# -- the identity battery ------------------------------------------------------


def _convolve(pairs, left, right) -> QSElement:
    """The sum of ``c * left(a) * right(b)`` over the ``((a, b), c)`` of
    ``pairs``; ``right`` is not applied where ``left`` gives zero."""
    out: dict[TensorWord, object] = {}
    for (a, b), c in pairs:
        lhs = left(a)
        if not lhs:
            continue
        rhs = right(b)
        if rhs:
            _add_multiple(out, (lhs * rhs).terms, c)
    return QSElement._raw(out)


def convolution_of_operators(f, g, x: QSElement) -> QSElement:
    """Deconcatenate, act componentwise, quasi-shuffle back together."""
    return _convolve(
        x.deconcatenate().terms.items(),
        lambda a: QSElement._raw({a: Fraction(1)}).act(f),
        lambda b: QSElement._raw({b: Fraction(1)}).act(g),
    )


def apply_generator_map(f_spec: dict, x: QSElement) -> QSElement:
    """Extend a substitution generator -> AElement to tensor words.

    The substitution has no constant terms by construction (the base algebra
    has no unit), so it is an algebra map; unknown generators are rejected.
    """
    images = {str(k): v for k, v in f_spec.items()}
    for v in images.values():
        if not isinstance(v, AElement):
            raise ValueError("generator images must be AElement values")
    out: dict[TensorWord, object] = {}
    for word, c in x.terms.items():
        factors = []
        for mono in word:
            acc: AElement | None = None
            for name, e in mono:
                if name not in images:
                    raise ValueError(f"no image for generator {name!r}")
                piece = images[name] ** e
                acc = piece if acc is None else acc * piece
            factors.append(acc)
        _add_multiple(out, tensor(*factors).terms, c)
    return QSElement._raw(out)


def naturality_check(f_spec: dict, u, x: QSElement) -> bool:
    """Substitution commutes with the action of a basis word."""
    op = WQSymElement.monomial(u)
    return apply_generator_map(f_spec, x.act(op)) == apply_generator_map(f_spec, x).act(op)


def car_coproduct_compatibility_check(
    sigma: TruncatedSeries, x: QSElement, y: QSElement
) -> bool:
    """(x # y) . sigma  ==  sum (x . sigma') # (y . sigma'') over the coproduct.

    ``x . M(a)`` is zero unless ``len(a)`` is a degree of x, so only the
    pairs with a degree of x on the left and one of y on the right are kept;
    a word splits into legs whose lengths sum to its own, so only the words
    of sigma whose length is such a sum are split.
    """
    lhs = (x * y).act(sigma)
    xdeg, ydeg = set(x.degrees()), set(y.degrees())
    lengths = {a + b for a in xdeg for b in ydeg}
    met = WQSymElement._raw({w: c for w, c in sigma.element.terms.items() if len(w) in lengths})
    pairs = met.coproduct().terms.items()
    pairs = (((a, b), c) for (a, b), c in pairs if len(a) in xdeg and len(b) in ydeg)
    M = WQSymElement.monomial
    return lhs == _convolve(pairs, lambda a: x.act(M(a)), lambda b: y.act(M(b)))


def e1_kills_products_check(x: QSElement, y: QSElement, cutoff: int) -> bool:
    """Products of positive-degree elements lie in the kernel of the first
    idempotent."""
    if x.counit() or y.counit():
        raise ValueError("both factors must have zero constant term")
    return not (x * y).act(eulerian_idempotent(1, cutoff))


def adams_on_indecomposables_check(x: QSElement, cutoff: int) -> bool:
    """The square Adams operation minus twice the identity is exactly the
    product of the reduced coproduct legs."""
    if x.counit():
        raise ValueError("needs zero constant term")
    lhs = x.act(adams(2, cutoff)) - x._scaled(2)
    return lhs == x.reduced_deconcatenate().multiply_legs()


def elements_act_equally(f: WQSymElement, g: WQSymElement, generators, max_degree: int) -> bool:
    """Compare two operators on every tensor word of generators up to a degree
    (the recognition principle: on the free algebra this detects equality)."""
    gens = [QSElement.generator(name) for name in generators]
    for n in range(max_degree + 1):
        for combo in iproduct(range(len(gens)), repeat=n):
            word = QSElement.unit()
            for i in combo:
                word = concat(word, gens[i])
            if word.act(f) != word.act(g):
                return False
    return True
