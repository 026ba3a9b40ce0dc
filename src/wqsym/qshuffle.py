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
so images are tuples of small ints, each pair of letter numbers is merged
once per action, and only the images with a nonzero sum are spelled back
into letters.

The keys of one length take one of two routes, both over one table of a
key's block products per key, filled by one loop (:func:`_fill`) from the
key's lowest position up as planned once per set of block masks
(:func:`_layers`).  The pair loop is the reference: each operator word is
one gather of its blocks' entries of the table, one update per pair.  The
bucket route (:meth:`_Length.route`), for operators dense in the packed
words of that length (:func:`_route_pays`), is the one of ``@``
(:func:`wqsym.algebra._compose_bucket`) with its own classes and scatter: a
key's table is laid out by its letters sorted, with one gather per letter
order (:func:`_layout_masks`), and that layout is the key's class; the
operator, laid out once as the lanes of one int vector over the packed
words, is permuted once per letter order, the keys of a class sum it with
one big-int multiply-add each, and each class is unpacked once, all by the
accumulator of ``@`` (:meth:`wqsym.algebra._Space.sums`), and scattered
once.  A length takes the route only while no sum can leave its 64-bit lane
(:func:`wqsym.algebra._fits`).  A class holds only keys whose tables agree
entry for entry, so the route is exact under any merge; keys that
rearrange each other share a class when the merge is associative and
commutative, as the keys of a quasi-shuffle product do.  What an operator
needs for either route is kept on it, one record per length of its words
(:class:`_Length`); what depends on the length alone, the layout of the
packed words, their swap plans, lanes and breadth groups, is the record
of that length that ``@`` shares (:func:`wqsym.algebra._space`).

Here the base algebra A is spanned by the monomials of positive degree in a
finite set of generators, as A has no unit; its product merges exponent
vectors, so these monomials form a commutative semigroup.  A monomial is
the sorted tuple of its (generator, exponent) pairs: :func:`monomial` is its
one canonical form, which refuses degree 0, :func:`mono_mul` the product and
:func:`mono_str` the text.  :class:`AElement` combines monomials with that
product; :class:`QSElement`, the tensor space over A
with the monomial product as merge, derives from :class:`QuasiShuffle`, and
:class:`QSTensor`, which carries the deconcatenation coproduct, from
:class:`~wqsym.algebra.Tensor` with :class:`QSElement` on each leg.

Tensor words are stored over monomials only: general tensor factors are
expanded multilinearly at construction, so keys stay canonical and equality
is exact.  Coefficients are exact too: an element holds int numerators over
one reduced denominator (:mod:`wqsym.algebra`).  Both routes of the action
add products of a key's numerator and an operator word's, as ints, and the
sums are reduced once over the product of the two denominators; the
convolution and the substitution of generators add their multiples the same
way (:func:`wqsym.algebra._add_multiple`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, compress, groupby
from itertools import product as iproduct
from operator import itemgetter

from .algebra import (
    Algebra,
    SparseCombination,
    Tensor,
    WQSymElement,
    _add_multiple,
    _bilinear,
    _bucket_pays,
    _by_length,
    _fits,
    _gather,
    _linear,
    _reduced,
    _space,
)
from .errors import CapExceeded
from .series import TruncatedSeries, adams, eulerian_idempotent
from .words import FUBINI, block_masks, quasi_shuffle

Monomial = tuple[tuple[str, int], ...]  # ((name, exponent), ...) sorted by name
TensorWord = tuple[Monomial, ...]  # over nonempty monomials


def monomial(*pairs) -> Monomial:
    """The canonical monomial of (generator, exponent) pairs: the exponents
    of a repeated generator add, zero exponents drop and the generators sort.
    Raises ``ValueError`` on an exponent that is negative or not an ``int``
    (a ``bool`` is not), and on degree 0: A has no unit."""
    exps: dict[str, int] = {}
    for name, e in pairs:
        if type(e) is not int or e < 0:
            raise ValueError(f"exponents must be nonnegative ints, got {e!r}")
        if e:
            exps[str(name)] = exps.get(str(name), 0) + e
    if not exps:
        raise ValueError("monomials must have positive total degree (A has no unit)")
    return tuple(sorted(exps.items()))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: exponents of each name add."""
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


def mono_str(m: Monomial) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in m)


def _tensor_word(word) -> TensorWord:
    return tuple(monomial(*m) for m in word)


def _cuts(lo: int):
    """The keys of the deconcatenation of a word at cut points ``lo`` to
    ``len - lo``."""
    return lambda word: [(word[:i], word[i:]) for i in range(lo, len(word) + 1 - lo)]


class AElement(SparseCombination):
    """Element of the base algebra: rational combination of nonempty
    monomials, ordered by degree.  It has no unit, so it binds ``*`` and
    ``str`` from :class:`~wqsym.algebra.Algebra`, as
    :class:`~wqsym.algebra.Tensor` does; the product of two keys is the one
    key :func:`mono_mul` makes."""

    __slots__ = ()

    _key_str = staticmethod(mono_str)
    __mul__ = Algebra.__mul__
    __str__ = Algebra.__str__

    @staticmethod
    def _check_key(m):
        return monomial(*m)

    @staticmethod
    def _sort_key(m):
        return (sum(e for _, e in m), m)

    @staticmethod
    def _product(a, b):
        return (mono_mul(a, b),)

    @classmethod
    def generator(cls, name: str) -> "AElement":
        return cls._raw({((str(name), 1),): 1})

    def __pow__(self, exponent: int):
        """The product of ``exponent`` factors ``self``, at least one."""
        if exponent < 1:
            raise ValueError(f"no power {exponent} in AElement")
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out


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


@lru_cache(maxsize=1 << 12)
def _layers(n: int, needed: frozenset) -> tuple[list, dict]:
    """The plan of the block-product tables (:func:`_fill`) of the keys of
    length ``n`` that hold the products over the masks of ``needed``.

    A table is a list: a key's letters, then the product over each mask
    that the masks of ``needed`` reach by dropping their lowest positions
    one by one, each from its lowest position and the rest, one layer per
    number of positions.  ``layers`` holds each layer's entries of those
    lowest positions and of those rests, and ``position`` maps each mask
    to its entry."""
    filled = set()
    for mask in needed:
        while mask & (mask - 1) and mask not in filled:
            filled.add(mask)
            mask &= mask - 1
    filled = sorted(filled, key=lambda m: (m.bit_count(), m))
    position = {m: i for i, m in enumerate([1 << i for i in range(n)] + filled)}
    layers = [
        ([position[m & -m] for m in layer], [position[m & (m - 1)] for m in layer])
        for layer in (list(group) for _, group in groupby(filled, int.bit_count))
    ]
    return layers, position


def _fill(table: list, layers: list, product) -> list:
    """``table``, a key's letters, extended by its block products as
    :func:`_layers` plans them, each merged with ``product``."""
    get = table.__getitem__
    for lows, rests in layers:  # each reads the layers before it
        table += map(product, map(get, lows), map(get, rests))
    return table


def _layout_masks(sigma) -> list:
    """The set ``{sigma[j] - 1 : j in S}`` for each set ``S`` of positions
    0..n-1 of a permutation ``sigma`` of 1..n, both as bitmasks, in the
    order of ``S``: made by doubling, letter by letter."""
    masks = [0]
    for s in sigma:
        masks += [m | 1 << s - 1 for m in masks]
    return masks


def _route_pays(n: int, words: int, keys: int) -> bool:
    """Whether the bucket route (:meth:`_Length.route`) costs less than the
    pair loop for ``keys`` keys of length ``n`` against ``words`` operator
    words, by the model of :func:`wqsym.algebra._bucket_pays`: per key, a
    table of 2^n gathers and one table to scatter, and one gather of the
    operator per letter order, of which there are at most n! and at most one
    per key."""
    if not 2 <= n < len(FUBINI):
        return False
    return _bucket_pays(FUBINI[n], keys, keys * words, 1 << n, min(keys, math.factorial(n)), keys)


class _Length:
    """The words of one length ``n`` of an operator, and what their action
    on the keys of that length needs: one record per length, made on the
    operator's first action and kept on it (:func:`_acting`), which never
    changes once built.

    ``coeffs`` are the int numerators of ``words``, over the operator's
    denominator.  ``layers`` and
    ``position`` plan the block-product table of a key (:func:`_layers`),
    one plan per distinct set of the words' block masks.  The plan and the
    pair loop's map from a table to each word's image (``images``) are made
    when a key of this length first needs them, so a length that no key has
    costs nothing.  So are the bucket route's fields (:meth:`route`):
    ``top``, the largest numerator in size, and ``g``, the lanes of the
    numerators laid out over the packed words W_n
    (:meth:`wqsym.algebra._Space.lay_out`), made only once some keys fit
    the lanes (:func:`wqsym.algebra._fits`), as every numerator then does."""

    __slots__ = ("n", "words", "coeffs", "layers", "position", "images", "g", "top")

    def __init__(self, n: int, words: list, coeffs: list):
        self.n, self.words, self.coeffs = n, words, coeffs
        self.layers = self.position = self.images = self.g = self.top = None

    def act(self, out: dict, keys: list, coeffs: list, letters: _Letters) -> None:
        """Add ``c`` times the image of each key of ``keys`` under these
        words, its int numerator ``c`` in ``coeffs``, into ``out``, keys and
        images spelled in the numbers of ``letters``.

        The keys take the bucket route (:meth:`route`) when its cost model
        says so (:func:`_route_pays`) and their sums fit the lanes of a
        packed vector (:func:`wqsym.algebra._fits`).  Else the pair loop
        fills each key's table, reads each word's image from it with one
        gather of the entries of its blocks, and adds one product of
        coefficients per pair."""
        if self.layers is None:
            needed = frozenset(chain.from_iterable(map(block_masks, self.words)))
            self.layers, self.position = _layers(self.n, needed)
        if _route_pays(self.n, len(self.words), len(keys)):
            if self.top is None:
                self.top = max(map(abs, self.coeffs))
            if _fits(self.top, coeffs):
                if self.g is None:  # every numerator fits a lane now
                    self.g = _space(self.n).lay_out(self.words, self.coeffs)
                self.route(out, keys, coeffs, letters)
                return
        if self.images is None:
            position = self.position
            self.images = [_gather([position[m] for m in block_masks(u)]) for u in self.words]
        pairs = list(zip(self.images, self.coeffs))
        number, product, layers, get = letters.__getitem__, letters.product, self.layers, out.get
        for key, c in zip(keys, coeffs):
            table = _fill(list(map(number, key)), layers, product)
            for image, cu in pairs:
                w = image(table)
                out[w] = get(w, 0) + c * cu

    def route(self, out: dict, keys: list, coeffs: list, letters: _Letters) -> None:
        """The bucket route of :meth:`act`, its int coefficients in
        ``coeffs``.

        Let ``sigma`` be the permutation that sorts a key ``x``, so that
        ``x o sigma`` is its letters sorted.  Its table holds at each set
        ``S`` of positions the block product of ``x`` over ``{sigma[j] - 1 :
        j in S}`` (:func:`_layout_masks`), as the pair loop makes it, or the
        sentinel -1 where the plan fills none.  The image of ``x`` under
        ``u`` is that of ``u o sigma`` on the table, so the image of ``x``
        under the operator is ``g_sigma`` (:func:`wqsym.algebra._permuted`)
        on it.  Keys whose tables agree, entry for entry, share the sum of
        ``c * g_sigma`` over them (:meth:`wqsym.algebra._Space.sums`), which
        is unpacked and scattered once.  The caller has checked that ``top``
        times the sum of every ``abs(c)`` is below 2^63
        (:func:`wqsym.algebra._fits`), so no entry of a sum leaves its lane,
        and the result is exact under any merge; under an associative and
        commutative one, the table holds the products of the sorted letters
        over each S, and keys that rearrange each other share it."""
        n, number, product, layers = self.n, letters.__getitem__, letters.product, self.layers
        by_sigma: dict[tuple, list] = {}
        for key, c in zip(keys, coeffs):
            key = list(map(number, key))
            sigma = tuple(i + 1 for i in sorted(range(n), key=key.__getitem__))
            by_sigma.setdefault(sigma, []).append((key, c))
        position, sentinel = self.position.get, len(self.position)
        for sigma, group in by_sigma.items():
            layout = itemgetter(*[position(m, sentinel) for m in _layout_masks(sigma)])
            for i, (table, c) in enumerate(group):
                table = _fill(table, layers, product)
                table.append(-1)  # the sentinel: no letter is numbered -1
                group[i] = layout(table), c
        space, get = _space(n), out.get
        for table, total in space.sums(self.g, by_sigma):
            for k, select, blocks in space.groups:
                part = select(total)
                images = zip(*[iter(blocks(table))] * k)
                for w, c in zip(compress(images, part), filter(None, part)):
                    out[w] = get(w, 0) + c


def _acting(op: WQSymElement) -> dict:
    """The :class:`_Length` of each length of ``op``'s words: made on its
    first action and kept on it."""
    try:
        return op._acting
    except AttributeError:
        op._acting = {n: _Length(n, *bucket) for n, bucket in _by_length(op.terms).items()}
        return op._acting


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
        cutoff were not computed and are refused.  Keys and operator words
        are paired by length only.  Letters are numbered in order of first
        sight, keys' letters and block products alike, so images are tuples
        of ints until the nonzero sums are spelled at the end, and the merge
        of two letter numbers is memoised for the whole call, as the keys of
        a product share their letters.

        Each length of the operator has one record (:class:`_Length`),
        prepared once and kept on it, which picks one of two routes.  Both
        fill each key's table of block products (:func:`_fill`) as one plan
        says, from the lowest position up, so the result is exact under any
        merge.  The pair loop reads each operator word's image from the
        table with one gather and adds one product of coefficients per
        pair.  The sums accumulate as int numerators over the product of the
        two denominators, and a length whose cost model (:func:`_route_pays`)
        says so takes the bucket route (:meth:`_Length.route`) instead: each
        key's table is laid out by its letters sorted, keys whose tables
        agree share one, and the operator, as a vector over the packed
        words, is permuted once per letter order and scattered once per
        table.
        """
        if isinstance(op, TruncatedSeries):
            for key in self.terms:
                if len(key) > op.cutoff:
                    raise CapExceeded(f"series cutoff {op.cutoff} cannot act on degree {len(key)}")
            return self.act(op.element)
        if not isinstance(op, WQSymElement):
            raise TypeError("operators are WQSymElement or TruncatedSeries values")
        lengths = _acting(op)
        letters, out = _Letters(self._merge), {}
        for n, (keys, cs) in _by_length(self.terms).items():
            if n in lengths:
                lengths[n].act(out, keys, cs, letters)
        spell = letters.spelled.__getitem__
        spelled = {tuple(map(spell, w)): n for w, n in out.items() if n}
        return _reduced(type(self), spelled, self.den * op.den)


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
        return cls._raw({(((str(name), 1),),): 1})

    # -- coalgebra -----------------------------------------------------------

    def deconcatenate(self) -> "QSTensor":
        return _linear(QSTensor, self, _cuts(0))

    def reduced_deconcatenate(self) -> "QSTensor":
        """Deconcatenation with the two unit-sided terms removed, that is at
        the inner cut points only; only meaningful for elements with zero
        constant term."""
        if self.counit():
            raise ValueError("reduced coproduct needs zero constant term")
        return _linear(QSTensor, self, _cuts(1))


def tensor(*factors: AElement) -> QSElement:
    """Multilinear expansion of a tensor of base-algebra elements."""
    out = QSElement.unit()
    for f in factors:
        out = concat(out, QSElement._raw({(m,): c for m, c in f.terms.items()}, f.den))
    return out


def concat(x: QSElement, y: QSElement) -> QSElement:
    """Bilinear concatenation of tensor words (not the algebra product)."""
    return _bilinear(QSElement, x, y, lambda a, b: (a + b,))


class QSTensor(Tensor):
    """Combination of ordered pairs of tensor words (coproduct values)."""

    __slots__ = ()

    _leg = QSElement
    # bound in the class body, where perfbench/spans.py wraps it
    __mul__ = Algebra.__mul__

    def multiply_legs(self) -> QSElement:
        """Quasi-shuffle the two legs together (the product-of-coproduct map)."""
        return _linear(QSElement, self, lambda legs: QSElement._product(*legs))


# -- the identity battery ------------------------------------------------------


def _convolve(delta, left, right) -> QSElement:
    """The sum of ``c * left(a) * right(b)`` over the terms ``c (a, b)`` of
    ``delta``; ``right`` is not applied where ``left`` gives zero."""
    out: dict[TensorWord, int] = {}
    d = 1
    for (a, b), c in delta.terms.items():
        lhs = left(a)
        if not lhs:
            continue
        rhs = right(b)
        if rhs:
            d = _add_multiple(out, d, lhs * rhs, c)
    return _reduced(QSElement, out, d * delta.den)


def convolution_of_operators(f, g, x: QSElement) -> QSElement:
    """Deconcatenate, act componentwise, quasi-shuffle back together."""
    return _convolve(
        x.deconcatenate(),
        lambda a: QSElement._raw({a: 1}).act(f),
        lambda b: QSElement._raw({b: 1}).act(g),
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
    out: dict[TensorWord, int] = {}
    d = 1
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
        d = _add_multiple(out, d, tensor(*factors), c)
    return _reduced(QSElement, out, d * x.den)


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
    met = sigma.element._select(lambda w: len(w) in lengths)
    delta = met.coproduct()._select(lambda legs: len(legs[0]) in xdeg and len(legs[1]) in ydeg)
    M = WQSymElement.monomial
    return lhs == _convolve(delta, lambda a: x.act(M(a)), lambda b: y.act(M(b)))


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
