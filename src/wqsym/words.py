"""Packed words, set compositions, and integer compositions.

A word over the positive integers is *packed* when its set of letters is
exactly {1, ..., k} for some k >= 0.  Packed words of length n are in
bijection with ordered set partitions (set compositions) of {1, ..., n}
and with surjections [n] -> [k]; all three views are used below, and the
conversion functions are exact inverses of each other.

:func:`quasi_shuffle` is the one quasi-shuffle kernel of the package: Hoffman's
product of words over a commutative semigroup of letters (Hoffman,
"Quasi-shuffle products", J. Algebraic Combin. 11, 2000), parametrised by the
merge of two letters.  Packed words use it with union of blocks, tensor words
with the product of monomials, compositions with the sum of parts.

This module also owns the degree cap: :func:`check_degree_cap` refuses
degrees above ``WQSYM_MAX_DEGREE`` (default 7), and packed-word enumeration
checks it on every call.

Everything in this module is a pure function on tuples, so results can be
shared freely; the enumeration and product kernels keep memo tables whose
observable behaviour is identical to recomputation.
"""

from __future__ import annotations

import os
from functools import lru_cache

from .errors import CapExceeded, ExpressionError

Word = tuple[int, ...]
SetComposition = tuple[frozenset[int], ...]
Composition = tuple[int, ...]

#: number of packed words of length n = 0, 1, 2, ... (ordered Bell numbers)
FUBINI = (1, 1, 3, 13, 75, 541, 4683, 47293)

#: default degree cap; override with the WQSYM_MAX_DEGREE environment variable
HARD_DEGREE_CAP = 7


def max_degree_cap() -> int:
    raw = os.environ.get("WQSYM_MAX_DEGREE")
    if raw is None:
        return HARD_DEGREE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ExpressionError(f"WQSYM_MAX_DEGREE must be an integer, got {raw!r}") from None


def check_degree_cap(n: int) -> int:
    cap = max_degree_cap()
    if n > cap:
        raise CapExceeded(
            f"degree {n} exceeds the cap {cap}; raise WQSYM_MAX_DEGREE if you "
            f"really want this (packed-word counts grow like n! / (2 log 2^(n+1)))"
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
    word = tuple(word)
    if not word:
        return True
    if any(not isinstance(x, int) or x < 1 for x in word):
        return False
    return set(word) == set(range(1, max(word) + 1))


def check_packed(word) -> Word:
    """Return ``word`` as a tuple, raising ``ValueError`` if it is not packed."""
    word = tuple(word)
    if not is_packed(word):
        raise ValueError(f"not a packed word: {word!r}")
    return word


def to_set_composition(u: Word) -> SetComposition:
    """Blocks of positions: block i collects the 1-based positions j with u(j) = i."""
    k = breadth(u)
    blocks = [[] for _ in range(k)]
    for pos, letter in enumerate(u, start=1):
        blocks[letter - 1].append(pos)
    return tuple(frozenset(b) for b in blocks)


def from_set_composition(blocks) -> Word:
    """Inverse of :func:`to_set_composition`; validates the block family."""
    blocks = tuple(frozenset(b) for b in blocks)
    n = sum(len(b) for b in blocks)
    letters = [0] * n
    for i, block in enumerate(blocks, start=1):
        if not block:
            raise ValueError("empty block in set composition")
        for pos in block:
            if not 1 <= pos <= n or letters[pos - 1]:
                raise ValueError(f"blocks do not partition 1..{n}: {blocks!r}")
            letters[pos - 1] = i
    return tuple(letters)


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


def reverse(u: Word) -> Word:
    return tuple(reversed(u))


def shifted_concat(u: Word, v: Word) -> Word:
    """Concatenate ``u`` with ``v`` shifted up by the breadth of ``u``.

    The result is packed whenever both inputs are; lengths and breadths add.
    """
    k = breadth(u)
    return u + tuple(x + k for x in v)


def compose_surjections(u: Word, v: Word):
    """Apply ``v`` after ``u`` pointwise, or ``None`` when len(v) != max(u).

    The ``None`` outcome is a value of the theory (the zero of the internal
    product), not an error.
    """
    if len(v) != breadth(u):
        return None
    return tuple(v[x - 1] for x in u)


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
    if n == 0:
        return ((),)
    out: list[Word] = []
    prefix: list[int] = []

    # DFS over letters in ascending order (gives lexicographic output).  A
    # prefix can be completed iff the letters below the running maximum that
    # have not appeared yet still fit in the remaining positions.
    def rec(mx: int, missing: frozenset[int], remaining: int) -> None:
        if remaining == 0:
            if not missing:
                out.append(tuple(prefix))
            return
        for letter in range(1, n + 1):
            if letter <= mx:
                new_mx = mx
                new_missing = missing - {letter}
            else:
                new_mx = letter
                new_missing = missing | frozenset(range(mx + 1, letter))
            if len(new_missing) <= remaining - 1:
                prefix.append(letter)
                rec(new_mx, new_missing, remaining - 1)
                prefix.pop()

    rec(0, frozenset(), n)
    return tuple(out)


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
