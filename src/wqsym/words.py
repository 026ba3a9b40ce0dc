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
degrees above ``WQSYM_MAX_DEGREE`` (default 7), and packed-word enumeration
checks it on every call.

Everything in this module is a pure function on tuples, so results can be
shared freely; :func:`enumerate_packed_words` and the product kernels keep
memo tables whose observable behaviour is identical to recomputation, and so
do the rank and position-swap tables over the packed words of one length
with which the internal product and the right action permute whole vectors
(:func:`packed_word_ranks`, :func:`position_swap_table`), and the same swaps
on sets of positions (:func:`mask_swap_table`).  The one
enumeration kernel, :func:`_ascent_batches`, streams the packed words of a
length with their ascent counts in batches that share their last letters,
and keeps none of them but the few lists of those shared last letters;
:func:`packed_words_with_ascents` flattens it, and the memoised tuples are
collected from that.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from functools import lru_cache
from operator import itemgetter

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


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError("length must be nonnegative")
    check_degree_cap(n)


def enumerate_packed_words(n: int) -> tuple[Word, ...]:
    """All packed words of length ``n`` in lexicographic order.

    Counts grow like the ordered Bell numbers, so lengths above the degree
    cap raise :class:`CapExceeded` instead of silently eating memory.
    """
    _check_length(n)
    return _packed_words(n)


@lru_cache(maxsize=None)
def _packed_words(n: int) -> tuple[Word, ...]:
    return tuple(w for w, _ in packed_words_with_ascents(n, n))


@lru_cache(maxsize=None)
def packed_word_ranks(n: int) -> dict[Word, int]:
    """The index of each packed word of length ``n`` in the order of
    :func:`enumerate_packed_words`, its keys in that order.  Shared: do not
    mutate it."""
    return {w: i for i, w in enumerate(_packed_words(n))}


@lru_cache(maxsize=None)
def position_swap_table(n: int, a: int, b: int) -> tuple[int, ...]:
    """For each packed word of length ``n``, in order, the index of the word
    with its letters at positions ``a < b`` (from 0) exchanged: gathering a
    vector ``x`` over those words through it, ``[x[i] for i in table]``, gives
    each word the entry of its swapped word."""
    order = list(range(n))
    order[a], order[b] = b, a
    return tuple(map(packed_word_ranks(n).__getitem__, map(itemgetter(*order), _packed_words(n))))


@lru_cache(maxsize=None)
def mask_swap_table(n: int, a: int, b: int) -> tuple[int, ...]:
    """For each set of positions 0..n-1 as a bitmask, in order, the mask with
    positions ``a < b`` exchanged: the tables of :func:`position_swap_table`
    for the sets of positions of a word, gathered the same way."""
    bits = (1 << a) | (1 << b)
    return tuple(m ^ bits if (m >> a ^ m >> b) & 1 else m for m in range(1 << n))


def packed_words_with_ascents(n: int, max_non_ascents: int) -> Iterator[tuple[Word, int]]:
    """An iterator over the packed words of length ``n`` with at most
    ``max_non_ascents`` non-ascents (positions j with w(j) >= w(j+1)), in
    lexicographic order, each paired with its ascent count (positions with
    w(j) < w(j+1)): the batches of :func:`_ascent_batches` flattened.  No
    word is kept once it is passed on, so memory stays flat at any length;
    the degree cap is checked at the call, like :func:`enumerate_packed_words`.
    """
    _check_length(n)
    return (
        (prefix + s, a + shift)
        for prefix, pairs, shift in _ascent_batches(n, max_non_ascents)
        for s, a in pairs
    )


#: the number of last letters of a word that :func:`_ascent_batches` lists
#: once per prefix state.  At lengths 6 to 9, 3 letters were about the
#: fastest, and their table stays at a few MB where 4 letters take up to 30 MB.
_TAIL = 3


def _ascent_batches(n: int, budget: int) -> Iterator[tuple[Word, Sequence[tuple[Word, int]], int]]:
    """The words of :func:`packed_words_with_ascents`, factored in batches
    ``(prefix, pairs, shift)``: the words ``prefix + s`` with ascent count
    ``a + shift`` for each ``(s, a)`` in ``pairs``, in order.  The degree cap
    is not checked here.

    A depth-first search over letters in ascending order, which gives
    lexicographic output.  A prefix can be completed iff the ``gaps`` letters
    below its maximum that have not appeared yet (the bits of ``missing``)
    still fit in the remaining positions.  Non-ascents only accumulate, so a
    prefix that has spent the budget continues with ascents only.  The last
    letter of each word is chosen in one list, a batch ``((), pairs, 0)`` of
    whole words.

    The last _TAIL letters of a word depend on its prefix only through the
    prefix's last letter, maximum, missing letters and spare non-ascents.
    Prefixes at least as long as the tail share these few states, so
    ``tails`` lists the completions of each state once, and every prefix in
    a state gets that same list object as its batch, none if it is empty: a
    consumer may key what it derives from a tail list on the list's identity
    while it holds the list.  Shorter prefixes are too few to repay the
    table."""
    if budget < 0:
        return
    if n == 0:
        yield (), (((), 0),), 0
        return
    top = n - 1
    tails: dict = {}
    # one object per distinct (s, a) pair, however many tails hold it
    shared: dict = {}

    def rec(prefix: Word, last: int, mx: int, missing: int, gaps: int, remaining: int, non_asc: int):
        if remaining == _TAIL and len(prefix) >= _TAIL:
            # a tail has at most _TAIL non-ascents, so every prefix with as
            # many spare shares the one listed at budget - spare non-ascents;
            # ``shift`` moves its ascent counts to this prefix's
            spare = min(budget - non_asc, _TAIL)
            key = (last, mx, missing, spare)
            tail = tails.get(key)
            if tail is None:
                listed = rec((), last, mx, missing, gaps, _TAIL, budget - spare)
                tail = tails[key] = [shared.setdefault(pair, pair) for _, pairs, _ in listed for pair in pairs]
            if tail:
                yield prefix, tail, budget - spare - non_asc
            return
        remaining -= 1
        low = last + 1 if non_asc == budget else 1
        if not remaining:
            # the last letter: the one missing letter, or with no gap any
            # letter up to a new maximum
            ascents = top - non_asc
            if not gaps:
                yield (), [(prefix + (letter,), ascents - (letter <= last)) for letter in range(low, mx + 2)], 0
            else:
                letter = missing.bit_length() - 1
                if letter >= low:
                    yield (), ((prefix + (letter,), ascents - (letter <= last)),), 0
            return
        for letter in range(low, mx + remaining - gaps + 2):
            if letter > mx:
                new_missing = missing | ((1 << letter) - (2 << mx))
                yield from rec(prefix + (letter,), letter, letter, new_missing, gaps + letter - mx - 1, remaining,
                               non_asc)
            elif missing >> letter & 1:
                yield from rec(prefix + (letter,), letter, mx, missing ^ (1 << letter), gaps - 1, remaining,
                               non_asc + (letter <= last))
            elif gaps <= remaining:
                yield from rec(prefix + (letter,), letter, mx, missing, gaps, remaining,
                               non_asc + (letter <= last))

    yield from rec((), 0, 0, 0, 0, n, 0)


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
