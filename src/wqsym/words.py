"""Packed words, set compositions, and integer compositions.

A word over the positive integers is *packed* when its set of letters is
exactly {1, ..., k} for some k >= 0.  Packed words of length n are in
bijection with ordered set partitions (set compositions) of {1, ..., n}
and with surjections [n] -> [k].  Words are the one representation here; the
set-composition view appears only inside kernels, as the blocks of
:func:`block_masks` and the blocks that :func:`quasi_shuffle_words` merges.

:func:`quasi_shuffle` is the one quasi-shuffle kernel of the package: Hoffman's
product of words over a commutative semigroup of letters (Hoffman,
"Quasi-shuffle products", J. Algebraic Combin. 11, 2000), parametrised by the
merge of two letters.  Packed words use it with union of blocks, tensor words
with the product of monomials, compositions with the sum of parts.

This module also owns the degree cap: :func:`check_degree_cap` refuses
degrees above ``WQSYM_MAX_DEGREE`` (default 7), and
:func:`enumerate_packed_words` checks it on every call.  The bucket routes of
``@`` and of the right action read the words of a length through
:func:`_packed_words`, which does not: their operands are already built.

Everything in this module is a pure function on tuples, so results can be
shared freely; :func:`enumerate_packed_words` and the product kernels keep
memo tables whose observable behaviour is identical to recomputation.  The
tables with which the internal product and the right action permute whole
vectors over the packed words of one length live in one record per length,
:func:`wqsym.algebra._space`.

Every packed word is enumerated by one rule, :func:`_children`, which steps
from the state of a prefix to the states one letter longer.
:func:`_tail_values` walks it depth first and makes one value per state of a
word's last ``_TAIL`` letters, shared by every prefix that reaches the state.
Only this module reads the layout of a state: the makers of values get a
whole word's non-ascent count, or the number of letters still to come.
:func:`_ascent_batches` takes as values the lists of completions with their
ascent counts, so it streams the packed words of a length in batches that
share their last letters and keeps none of them but those lists; the
memoised tuples are collected from it.  The series writer
:func:`wqsym.series._ascent_chunks` takes as values the text of the terms of
those completions.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from functools import lru_cache

from .errors import CapExceeded, ExpressionError

Word = tuple[int, ...]
Composition = tuple[int, ...]

#: number of packed words of length n = 0, 1, 2, ... (ordered Bell numbers)
FUBINI = (1, 1, 3, 13, 75, 541, 4683, 47293)

#: default degree cap; override with the WQSYM_MAX_DEGREE environment variable
HARD_DEGREE_CAP = 7


def max_degree_cap() -> int:
    raw = os.environ.get("WQSYM_MAX_DEGREE")
    if raw is None:
        return HARD_DEGREE_CAP
    if not raw.strip().isdecimal():
        raise ExpressionError(f"WQSYM_MAX_DEGREE must be a nonnegative integer, got {raw!r}")
    return int(raw)


def check_degree_cap(n: int) -> int:
    cap = max_degree_cap()
    if n > cap:
        raise CapExceeded(
            f"degree {n} exceeds the cap {cap}; raise WQSYM_MAX_DEGREE if you "
            f"really want this (packed-word counts grow like n! / (2 (ln 2)^(n+1)))"
        )
    return n


def pack(word) -> Word:
    """Relabel the distinct letters of ``word`` order-preservingly by 1, 2, ...

    >>> pack((4, 7, 4, 7, 5))
    (1, 3, 1, 3, 2)
    """
    word = tuple(word)
    if any(x < 1 for x in word):
        raise ValueError(f"letters must be positive integers: {word!r}")
    rank = {b: i + 1 for i, b in enumerate(sorted(set(word)))}
    return tuple(rank[x] for x in word)


def breadth(u: Word) -> int:
    """Largest letter of ``u`` (0 for the empty word)."""
    return max(u) if u else 0


def is_packed(word) -> bool:
    """Whether ``word``'s letters are ints forming exactly 1..max(word); a
    letter above the length cannot be, and is refused before any set of
    letters is built."""
    word = tuple(word)
    if any(type(x) is not int or x < 1 for x in word):
        return False
    top = max(word, default=0)
    return top <= len(word) and set(word) == set(range(1, top + 1))


def check_packed(word) -> Word:
    """Return ``word`` as a tuple, raising ``ValueError`` if it is not packed."""
    word = tuple(word)
    if not is_packed(word):
        raise ValueError(f"not a packed word: {word!r}")
    return word


def check_composition(I) -> Composition:
    """``I`` as a tuple; raises ``ValueError`` unless every part is an ``int``
    (a ``bool`` is not) of at least 1."""
    I = tuple(I)
    if not all(type(p) is int and p >= 1 for p in I):
        raise ValueError(f"not a composition: {I!r}")
    return I


def descents(w) -> frozenset[int]:
    """Positions i in 1..n-1 with w(i) > w(i+1)."""
    w = tuple(w)
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def evaluation(u: Word) -> Composition:
    """Multiplicity of each letter 1..k, as a composition of len(u)."""
    counts = [0] * breadth(u)
    for x in u:
        counts[x - 1] += 1
    return tuple(counts)


@lru_cache(maxsize=None)
def block_masks(u: Word) -> tuple[int, ...]:
    """For each letter 1..breadth(u), the bitmask of the positions of ``u``
    holding it: the blocks of the set composition, as bit sets."""
    masks = [0] * breadth(u)
    for position, letter in enumerate(u):
        masks[letter - 1] |= 1 << position
    return tuple(masks)


def reverse(u: Word) -> Word:
    return tuple(reversed(u))


def shifted_concat(u: Word, v: Word) -> Word:
    """Concatenate ``u`` with ``v`` shifted up by the breadth of ``u``.

    The result is packed whenever both inputs are; lengths and breadths add.
    """
    k = breadth(u)
    return u + tuple(x + k for x in v)


def quasi_shuffle(a: tuple, b: tuple, merge) -> list[tuple]:
    """Hoffman's quasi-shuffle of two letter sequences, with repeats.

    Every interleaving of ``a`` and ``b`` in which some pairs of letters, one
    from each, are replaced by ``merge(x, y)``:
    (x a') # (y b') = x (a' # y b') + y (x a' # b') + merge(x, y) (a' # b').
    """
    if not a:
        return [b]
    if not b:
        return [a]
    x, y = a[0], b[0]
    out = [(x,) + t for t in quasi_shuffle(a[1:], b, merge)]
    out += [(y,) + t for t in quasi_shuffle(a, b[1:], merge)]
    z = (merge(x, y),)
    out += [z + t for t in quasi_shuffle(a[1:], b[1:], merge)]
    return out


@lru_cache(maxsize=None)
def _relabellings(k: int, l: int) -> tuple[dict[int, int], ...]:
    """The quasi-shuffle of the singleton blocks {1}..{k} with {k+1}..{k+l},
    merging by union, each term read as a map from old letter to new letter."""
    left = tuple(frozenset((i,)) for i in range(1, k + 1))
    right = tuple(frozenset((i,)) for i in range(k + 1, k + l + 1))
    return tuple(
        {old: new for new, block in enumerate(blocks, start=1) for old in block}
        for blocks in quasi_shuffle(left, right, frozenset.union)
    )


@lru_cache(maxsize=65536)
def quasi_shuffle_words(u: Word, v: Word) -> tuple[Word, ...]:
    """All packed words indexing the product of the basis elements of u and v.

    The product quasi-shuffles the set compositions of u and of v (its blocks
    shifted by len(u)), merging blocks by union.  Which blocks merge depends
    only on the breadths, so the terms are the relabellings of the letters of
    u and of v shifted by breadth(u) from :func:`_relabellings`.  The outputs
    are pairwise distinct and are returned in canonical order (by length,
    then lexicographically).
    """
    letters = shifted_concat(u, v)
    labels = _relabellings(breadth(u), breadth(v))
    return tuple(sorted([tuple(map(label.__getitem__, letters)) for label in labels]))


def enumerate_packed_words(n: int) -> tuple[Word, ...]:
    """All packed words of length ``n`` in lexicographic order.

    Counts grow like the ordered Bell numbers, so lengths above the degree
    cap raise :class:`CapExceeded` instead of silently eating memory.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    check_degree_cap(n)
    return _packed_words(n)


@lru_cache(maxsize=None)
def _packed_words(n: int) -> tuple[Word, ...]:
    """The packed words of length ``n``, whatever the degree cap: the
    callers that reach here with a larger ``n`` hold operands already built
    at that length."""
    return tuple(prefix + s for prefix, pairs in _ascent_batches(n, n) for s, _ in pairs)


def _ascent_batches(n: int, budget: int) -> Iterator[tuple[Word, list[tuple[Word, int]]]]:
    """The packed words of length ``n`` with at most ``budget`` non-ascents
    (positions j with w(j) >= w(j+1)), in lexicographic order, each with its
    ascent count (positions with w(j) < w(j+1)), factored in batches
    ``(prefix, pairs)``: the words ``prefix + s`` with ascent count ``a`` for
    each ``(s, a)`` in ``pairs``, in order; a prefix with no completion has no
    batch.  Every prefix in one tail state (:func:`_tail_values`) gets the same
    list object.  The degree cap is not checked here."""
    top = max(n - 1, 0)
    # one object per distinct (s, a) pair, however many lists hold it
    shared: dict = {}

    def join(remaining, parts):
        pairs = [((letter,) + s, a) for letter, completions in parts for s, a in completions]
        return [shared.setdefault(pair, pair) for pair in pairs]

    for prefix, pairs in _tail_values(n, budget, lambda non_ascents: [((), top - non_ascents)], join):
        if pairs:
            yield prefix, pairs


#: the number of last letters of a word whose values :func:`_tail_values`
#: makes once per state.  ``wqsym expand`` at degree 7 takes about as long
#: with 3 letters as with 4, and 1.6 times as long with 2, whose prefixes
#: are each written on their own; at degree 8, 4 letters are a fifth faster
#: but hold two to four times the text (5-9 MB against 2-3 MB).
_TAIL = 3


def _children(state, budget: int):
    """The states one letter on from ``state``, in ascending order of that
    letter: the one rule by which every packed word is enumerated.

    A state ``(last, mx, missing, gaps, remaining, non_asc)`` is what the
    completions of a prefix depend on: its last letter (0 for none), its
    maximum, the bits of the ``gaps`` letters below the maximum that have not
    appeared yet, the number of letters still to come and the prefix's
    non-ascents.  A prefix can be completed iff its missing letters still fit
    in the remaining positions.  Non-ascents only accumulate, so a prefix that
    has spent ``budget`` continues with ascents only."""
    last, mx, missing, gaps, remaining, non_asc = state
    remaining -= 1
    for letter in range(last + 1 if non_asc == budget else 1, mx + remaining - gaps + 2):
        if letter > mx:
            yield letter, letter, missing | ((1 << letter) - (2 << mx)), gaps + letter - mx - 1, remaining, non_asc
        elif missing >> letter & 1:
            yield letter, mx, missing ^ (1 << letter), gaps - 1, remaining, non_asc + (letter <= last)
        elif gaps <= remaining:
            yield letter, mx, missing, gaps, remaining, non_asc + (letter <= last)


def _tail_values(n: int, budget: int, leaf, join):
    """For each prefix of the packed words of length ``n`` with at most
    ``budget`` non-ascents that leaves ``min(n, _TAIL)`` letters to come, in
    lexicographic order, ``(prefix, value)`` with the value of the prefix's
    state (:func:`_children`): ``leaf(non_ascents)`` of a whole word's
    non-ascents, else ``join(remaining, parts)`` of the number of letters
    still to come and the pairs ``(letter, value)`` of the state's children in
    letter order.

    A depth-first search over letters in ascending order, which gives
    lexicographic output.  The value of each state with at most ``_TAIL``
    letters to come is made once per call, however many prefixes reach it,
    and no other state is kept."""
    if budget < 0:
        return
    memo: dict = {}

    def value(state):
        v = memo.get(state)
        if v is None:
            if state[4]:
                v = join(state[4], [(child[0], value(child)) for child in _children(state, budget)])
            else:
                v = leaf(state[5])
            memo[state] = v
        return v

    def walk(prefix: Word, state):
        for child in _children(state, budget):
            if child[4] > _TAIL:
                yield from walk(prefix + (child[0],), child)
            else:
                yield prefix + (child[0],), value(child)

    root = (0, 0, 0, 0, n, 0)
    try:
        if n <= _TAIL:
            yield (), value(root)
        else:
            yield from walk((), root)
    finally:
        # value and walk refer to themselves: dropping them frees the memo
        # now, where the cycle would wait for the collector and the next
        # call's memo would join it
        del value, walk


@lru_cache(maxsize=None)
def compositions(n: int) -> tuple[Composition, ...]:
    """All compositions of ``n`` (2^(n-1) of them for n >= 1)."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    if n == 0:
        return ((),)
    return tuple(
        (part,) + rest for part in range(1, n + 1) for rest in compositions(n - part)
    )


def is_lyndon(I) -> bool:
    """True iff the part sequence is strictly smaller than all proper suffixes."""
    I = tuple(I)
    if not I:
        raise ValueError("the empty composition is neither Lyndon nor not")
    return all(I < I[j:] for j in range(1, len(I)))


def lyndon_compositions(n: int) -> tuple[Composition, ...]:
    """Lyndon compositions of weight ``n``, in enumeration order."""
    return tuple(I for I in compositions(n) if I and is_lyndon(I))


def word_sort_key(u: Word):
    """Canonical ordering key: by length, then lexicographic."""
    return (len(u), u)
