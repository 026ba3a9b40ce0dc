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

``@`` has two routes per length bucket, the words ``u`` of ``self`` of one
breadth k against the words ``v`` of ``other`` of length k.  The pair loop
composes each pair and adds its product into a dict; it is the reference, and
it takes one-term operands and sparse buckets.  The bucket route
(:func:`_compose_bucket`) writes each ``u`` as a permutation of its letters
after its first-occurrence standardisation (a surjection is a set partition
and an order of its blocks; Reutenauer, *Free Lie Algebras*, 1993, ch. 9),
lays the bucket of ``other`` out once as one int vector over the packed words
of length k, held as its bytes, a 64-bit lane per word, permutes those bytes
once per permutation (:func:`_permuted`), a few runs of lanes per swap rather
than word by word, reads each permuted vector as one int, so that adding a
multiple of it is one big-int multiply-add, unpacks one sum per
standardisation, and scatters it.  The right action's bucket route is the same
computation with its own classes and scatter: both call one accumulator
(:meth:`_Space.sums`) on the one record of the packed words of each length,
their order, swap plans and lanes, made once (:func:`_space`).  A bucket takes
the route when its estimated cost, from the bucket's sizes and its numbers of
distinct permutations and standardisations, is below the pair loop's, and when
no sum can leave its lane (:func:`_fits`), which keeps the route exact.

The three products of packed words carry distinct operators so expressions
read like the algebra they compute in:

    f * g    outer product (shifted quasi-shuffle of set compositions)
    f @ g    internal product (composition of surjections, zero on arity
             mismatch)
    f & g    bullet product (shifted concatenation of basis words)

Coefficients are exact, each an ``int`` or ``Fraction`` held as a
``Fraction``.  The kernels and the three bucketed loops accumulate integer
numerators over a common denominator and make one ``Fraction`` per output
key, by the one rule of :mod:`wqsym.params`.  Zero coefficients are pruned
after every operation, so ``==`` is literal term-by-term equality.  Elements
are immutable by convention; nothing here mutates a constructed value.
"""

from __future__ import annotations

import struct
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from itertools import product as iproduct
from operator import eq, ge, itemgetter, le, ne

from . import words
from .params import (
    SCALAR_TYPES,
    ParamPoly,
    SparseCombination,
    Unital,
    _add_term,
    _bilinear,
    _collect,
    _linear,
    _numerators,
)
from .words import (
    FUBINI,
    Word,
    breadth,
    descents,
    enumerate_packed_words,
    quasi_shuffle_words,
    reverse,
    shifted_concat,
    word_sort_key,
)


def _add_multiple(data: dict, terms: dict, scalar) -> None:
    """Add ``scalar`` times the combination ``terms`` into ``data`` in place."""
    for key, c in terms.items():
        _add_term(data, key, scalar * c)


def _by_length(terms: dict, measure=len) -> dict[int, tuple[list, list]]:
    """The keys of ``terms`` and their coefficients as parallel lists, grouped
    by key length, or by ``measure`` of the key: the operand of every product
    or action that pairs only matching lengths."""
    buckets: dict[int, tuple[list, list]] = {}
    get = buckets.get
    for key, c in terms.items():
        m = measure(key)
        bucket = get(m)
        if bucket is None:
            buckets[m] = ([key], [c])
        else:
            bucket[0].append(key)
            bucket[1].append(c)
    return buckets


def _gather(indices):
    """The map from a sequence to the tuple of its entries at ``indices``;
    with ``indices`` the letters of a word ``u`` less one, the map ``v -> v
    o u`` on words ``v`` of length ``breadth(u)``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda seq: tuple(seq[i] for i in indices)  # itemgetter needs two


#: the costs of a length bucket of ``@`` or of the right action by either
#: route (:func:`_bucket_pays`), in multiply-adds of ints done by ``map`` over
#: a list (a gather costs about one): a pair-loop update (compose two words,
#: hash, add, store) costs _PAIR, an update of the bucket route's scatter
#: _SCATTER, and factoring an item and starting its products _FACTOR.  Fitted
#: to the times of both routes of ``@`` on 144 buckets of lengths 2 to 6, full
#: and thinned on each side (Python 3.11, 2-vCPU host), when the route added
#: its vectors entry by entry and permuted them word by word.  It now adds
#: each as one packed int (:meth:`_Space.packed`), and a permutation moves
#: runs of lanes (:meth:`_Space.lane_swap`), over all of them about 100 runs
#: at length 5 and 300 at length 6 against the 541 and 4 683 gathers the
#: model charges.  So the model overstates the route, which is chosen
#: conservatively; the constants are deliberately not refit, and every
#: bucket takes the route it took before.
_PAIR, _SCATTER, _FACTOR = 7, 4, 48


def _bucket_pays(size: int, items: int, pairs: int, table: int = 0, orders: int = 0, classes: int = 0) -> bool:
    """Whether the bucket route, over vectors of ``size`` entries, costs
    less than the pair loop's ``pairs`` updates.  The route pays for each of
    ``items`` left words or keys a vector's multiply-add, ``table`` gathers
    and a start, for each of ``orders`` permutations a vector's gather, and
    for each of ``classes`` sums a vector's scatter."""
    return (size + _FACTOR + table) * items + size * (orders + _SCATTER * classes) < _PAIR * pairs


#: a lane of a packed vector holds one 64-bit entry; its sums must lie
#: strictly between -_LANE and _LANE
_LANE = 1 << 63


class _Space:
    """Int vectors over the packed words W_n of one length n, as both bucket
    routes lay them out: ``@``'s (:func:`_compose_bucket`) and the right
    action's (:meth:`wqsym.qshuffle._Length.route`).  One record per n
    (:func:`_space`); its swap plans and ``groups`` are made on first use.

    ``ranks`` maps each word of W_n to its entry, its keys in the order of
    :func:`~wqsym.words.enumerate_packed_words`, and :meth:`lay_out` lays a
    combination out by it.  :meth:`lane_swap` is the swap of
    :func:`_permuted`, and :meth:`sums` the one accumulator of both routes.
    ``groups`` holds, for each breadth k, the map from a vector to its
    entries at the words of breadth k, and the map from a key's table laid
    out by mask to those words' block products, k per word.

    A vector is held as its lanes (:meth:`lay_out`): 8 little-endian bytes
    per entry, lane i holding entry i, in [-2^63, 2^63), plus 2^63.  Read
    as one int, less ``bias`` (2^63 in each lane), they give the vector's
    packed int, the sum of ``vector[i] << 64 * i`` (:meth:`packed`).  A sum
    of int multiples of packed vectors is then the packing of the same sum
    of the vectors, one big-int multiply-add per vector instead of one per
    entry, and :meth:`decode` reads it back exactly while every entry of
    that sum lies strictly between -2^63 and 2^63: biased by 2^63, each lane
    lies in [0, 2^64), so none borrows from or carries into the next, and
    flipping its top bit leaves the entry in two's complement, as ``lanes``
    reads it.  Such are the sums of ``c`` times vectors with entries of at
    most ``top`` in size when ``top`` times the sum of every ``abs(c)`` is
    below 2^63 (:func:`_fits`)."""

    def __init__(self, n: int):
        self.n = n
        self.ranks = {w: i for i, w in enumerate(words._packed_words(n))}
        self.lanes = struct.Struct(f"<{len(self.ranks)}q")
        self.bias = int.from_bytes((bytes(7) + b"\x80") * len(self.ranks), "little")
        self.lane_swaps: dict[tuple[int, int], object] = {}

    def lay_out(self, keys, coeffs) -> bytes:
        """The lanes of the vector over W_n holding each coefficient of
        ``coeffs``, each in [-2^63, 2^63), at its word of ``keys``, and 0
        elsewhere."""
        g = [0] * len(self.ranks)
        for w, c in zip(keys, coeffs):
            g[self.ranks[w]] = c
        buffer = bytearray(self.lanes.size)
        self.lanes.pack_into(buffer, 0, *g)
        return (int.from_bytes(buffer, "little") ^ self.bias).to_bytes(self.lanes.size, "little")

    def packed(self, lanes: bytes) -> int:
        """The packed int of the vector whose lanes are ``lanes``."""
        return int.from_bytes(lanes, "little") - self.bias

    def decode(self, total: int) -> tuple:
        """The vector whose packed int is ``total``."""
        return self.lanes.unpack(((total + self.bias) ^ self.bias).to_bytes(self.lanes.size, "little"))

    @cached_property
    def single(self) -> tuple:
        """The byte slice of each lane, shared by every plan of
        :meth:`lane_swap`."""
        bounds = list(range(0, self.lanes.size + 1, 8))
        return tuple(map(slice, bounds, bounds[1:]))

    def lane_swap(self, a: int, b: int):
        """The map from the lanes of a vector ``x`` to those of the vector
        holding at each word of W_n the entry of ``x`` at that word with its
        letters at positions ``a < b`` (from 0) exchanged.

        Its plan is the lanes it reads, in order, cut into runs: a run is a
        stretch of words that the swap sends to consecutive words, read as
        one byte slice, so applying the plan is one gather of slices and one
        join.  The words are in lexicographic order, so a swap of early
        positions moves few long runs: swapping positions 0 and 1 takes 24
        runs at n = 5 and 35 at n = 6, where swapping n - 2 and n - 1 takes
        419 and 3 469.  A run of one lane reads its slice of ``single``."""
        plan = self.lane_swaps.get((a, b))
        if plan is None:
            order = list(range(self.n))
            order[a], order[b] = b, a
            table = list(map(self.ranks.__getitem__, map(itemgetter(*order), self.ranks)))
            # the entries where a run starts, and the end of the last
            starts = [0, *compress(range(1, len(table)), map(ne, table[1:], map((1).__add__, table))), len(table)]
            single = self.single
            slices = [
                single[table[i]] if j - i == 1 else slice(single[table[i]].start, single[table[j - 1]].stop)
                for i, j in zip(starts, starts[1:])
            ]
            gather, join = itemgetter(*slices), b"".join  # a swap moves two runs or more
            plan = self.lane_swaps[a, b] = lambda lanes: join(gather(lanes))
        return plan

    def sums(self, g: bytes, by_sigma: dict):
        """``(cls, vector)`` for each class ``cls`` of ``by_sigma``, which
        maps permutations ``sigma`` of 1..n to their items ``(cls, c)``: the
        sum of ``c * g_sigma`` over the items of ``cls``, each ``g_sigma``
        (:func:`_permuted`) read as one int, decoded.  The caller has checked
        that no such sum leaves its lanes (:func:`_fits`)."""
        sums: dict = {}
        get = sums.get
        for sigma, lanes in _permuted(self, g, by_sigma):
            packed = self.packed(lanes)
            for cls, c in by_sigma[sigma]:
                sums[cls] = get(cls, 0) + c * packed
        return zip(sums, map(self.decode, sums.values()))

    @cached_property
    def groups(self) -> list:
        by_breadth: dict[int, list] = {}
        for u, rank in self.ranks.items():
            by_breadth.setdefault(breadth(u), []).append((rank, words.block_masks(u)))
        return [
            (k, _gather([rank for rank, _ in group]), _gather([m for _, masks in group for m in masks]))
            for k, group in sorted(by_breadth.items())
        ]


@cache
def _space(n: int) -> _Space:
    """The record of the packed words of length ``n`` (:class:`_Space`)."""
    return _Space(n)


def _fits(top: int, coeffs: list) -> bool:
    """Whether every sum of ``c`` times vectors with entries of at most
    ``top`` in size, over the ``c`` of ``coeffs``, stays inside the lanes
    of a packed vector (:meth:`_Space.packed`)."""
    return top * sum(map(abs, coeffs)) < _LANE


def _compose_bucket(out: dict, us: list, cus: list, k: int, vs: list, cs: list) -> bool:
    """Add ``cu * cv`` at ``v o u`` into ``out`` for every word ``u`` of
    breadth ``k`` in ``us`` and ``v`` of length ``k`` in ``vs``, their int
    coefficients in ``cus`` and ``cs``, through whole vectors over the packed
    words W_k of length ``k``, and return True; or add nothing and return
    False when the pair loop is the cheaper route or the sums might leave
    the lanes of a packed vector.

    Each ``u`` is ``sigma o c`` for ``sigma`` the permutation of its letters
    in order of first appearance and ``c`` its first-occurrence
    standardisation (a surjection is a set partition and an order of its
    blocks), so ``v o u = (v o sigma) o c``.  ``g``, the right operand laid
    out over W_k, is put in lanes (:meth:`_Space.lay_out`) once the bucket
    is known to fit them.  ``h_c``, the sum of ``cu * g_sigma`` over the
    ``u`` with one ``c``, is one big-int multiply-add per ``u`` and is
    unpacked once (:meth:`_Space.sums`, the accumulator that the right
    action shares), then scattered through ``c``.  Every entry of ``h_c``
    is at most max|cv| times the sum of every |cu| in size, so when that is
    below 2^63 (:func:`_fits`) no lane overflows and the route is exact;
    any other bucket takes the pair loop.

    The cost model (:func:`_bucket_pays`) charges |W_k| multiply-adds per
    ``u``, |W_k| gathers per ``sigma`` and |W_k| scatter updates per ``c``,
    whatever ``vs`` holds, where the pair loop pays one update per pair.
    The multiply-adds are weighed before any word is factored, so a bucket
    whose ``vs`` is sparse in W_k leaves at once and builds no record.
    Beyond the lengths of ``FUBINI`` the swap plans would take a hundred MB
    or more, and the pair loop always runs.
    """
    if k >= len(FUBINI):
        return False
    size, pairs = FUBINI[k], len(us) * len(vs)
    if not _bucket_pays(size, len(us), pairs) or not _fits(max(map(abs, cs)), cus):
        return False
    by_sigma: dict[Word, list] = {}
    for u, cu in zip(us, cus):
        sigma = tuple(dict.fromkeys(u))
        first = {x: i for i, x in enumerate(sigma, 1)}
        by_sigma.setdefault(sigma, []).append((tuple(map(first.__getitem__, u)), cu))
    n_c = len({c for group in by_sigma.values() for c, _ in group})
    if not _bucket_pays(size, len(us), pairs, orders=len(by_sigma), classes=n_c):
        return False
    space, get = _space(k), out.get
    for c, sums in space.sums(space.lay_out(vs, cs), by_sigma):
        for w, n in zip(map(_gather([x - 1 for x in c]), compress(space.ranks, sums)), filter(None, sums)):
            out[w] = get(w, 0) + n
    return True


def _permuted(space: _Space, g: bytes, sigmas):
    """``(sigma, g_sigma)`` for each permutation ``sigma`` of 1..k in
    ``sigmas``, in the order of their reversed tuples, where ``g`` is the
    lanes of a vector over the packed words of length k, ``space`` their
    record (:func:`_space`), and ``g_sigma`` the lanes of the vector holding
    at ``v o sigma`` what ``g`` holds at ``v``.

    ``sigma`` is reached from the identity by at most k - 1 lane swaps
    (:meth:`_Space.lane_swap`) of positions p and j, fixing positions
    j = k - 1 down to 1, the one for j bringing ``sigma[j]`` from p to j;
    the steps down to j depend only on ``sigma[j:]``, so a stack keeps each
    step's arrangement and vector for the next ``sigma`` sharing that suffix,
    at most k vectors at a time.  The most frequent step is then the last, a
    swap of positions 0 and 1, the one with the fewest runs."""
    k, swap = space.n, space.lane_swap
    stack = [(list(range(1, k + 1)), g)]
    previous: Word = ()
    for sigma in sorted(sigmas, key=reverse):
        depth = 0
        for a, b in zip(reversed(sigma), reversed(previous)):
            if a != b:
                break
            depth += 1
        del stack[depth + 1 :]
        arrangement, vector = stack[-1]
        for j in range(k - 1 - depth, 0, -1):
            p = arrangement.index(sigma[j])
            if p != j:
                arrangement = arrangement.copy()
                arrangement[j], arrangement[p] = arrangement[p], arrangement[j]
                vector = swap(p, j)(vector)
            stack.append((arrangement, vector))
        previous = sigma
        yield sigma, vector


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
    """A finite linear combination of packed words.  ``_acting`` holds what
    the right action (:meth:`wqsym.qshuffle.QuasiShuffle.act`) prepares of
    an operator, made on its first use as one; it is unset until then."""

    __slots__ = ("_acting",)

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
        every pair.  The products accumulate as int numerators over one
        common denominator, divided out at the end, and ``self`` is bucketed
        by breadth too: each pair of buckets goes through
        :func:`_compose_bucket` when its cost model says that whole permuted
        vectors are cheaper than the pair loop, which takes every other
        bucket.  A one-term ``self`` whose coefficient is 1 passes each
        coefficient of ``other`` through unmultiplied.
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
            one = cu == 1
            for v, cv in g.items():
                if len(v) == k:
                    compose = compose or _gather([x - 1 for x in u])
                    out[compose(v)] = cv if one else cu * cv
            return WQSymElement._raw(out)
        f, g, d = _numerators(f, g)
        buckets = _by_length(g)
        get = out.get
        for k, (us, cus) in _by_length(f, breadth).items():
            bucket = buckets.get(k)
            if bucket is None:
                continue
            vs, cs = bucket
            if _compose_bucket(out, us, cus, k, vs, cs):
                continue
            for u, cu in zip(us, cus):
                for w, cv in zip(map(_gather([x - 1 for x in u]), vs), cs):
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
        the rest repacked on the right, summed over i = 0..breadth.  A packed
        word's letters above i are exactly i+1..breadth, so repacking them
        subtracts i."""

        def splits(u):
            for i in range(breadth(u) + 1):
                yield tuple(x for x in u if x <= i), tuple(x - i for x in u if x > i)

        return _linear(TensorSquare, self.terms, splits)

    # -- inspection ---------------------------------------------------------

    def component(self, d: int) -> "WQSymElement":
        return WQSymElement._raw({w: c for w, c in self.terms.items() if len(w) == d})


def truncated_product(f: WQSymElement, g: WQSymElement, n: int) -> WQSymElement:
    """The words of length at most ``n`` of the outer product ``f * g``.

    Every word of the product of ``u`` and ``v`` has length ``len(u) +
    len(v)``, so only the pairs with ``len(u) + len(v) <= n`` are multiplied;
    ``g`` is bucketed by length to find them instead of visiting every pair
    through :func:`_bilinear`, and the coefficients accumulate as int
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
