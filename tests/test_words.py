"""Combinatorics kernel: packing, shuffles, enumeration, Lyndon tests."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wqsym.errors import CapExceeded
from wqsym.words import (
    FUBINI,
    block_masks,
    breadth,
    compositions,
    descents,
    enumerate_packed_words,
    evaluation,
    is_lyndon,
    is_packed,
    lyndon_compositions,
    pack,
    packed_words_with_ascents,
    quasi_shuffle_words,
    reverse,
    shifted_concat,
)

small_words = st.lists(st.integers(min_value=1, max_value=6), max_size=6).map(tuple)


def test_pack_examples():
    assert pack((4, 7, 4, 7, 5)) == (1, 3, 1, 3, 2)
    assert pack(()) == ()
    assert pack((1, 3, 1, 3, 2)) == (1, 3, 1, 3, 2)


@given(small_words)
def test_pack_idempotent(w):
    assert pack(pack(w)) == pack(w)
    assert is_packed(pack(w))


def test_pack_rejects_nonpositive():
    with pytest.raises(ValueError):
        pack((0, 1))


def test_descents_examples():
    assert descents((3, 2, 1)) == {1, 2}
    assert descents((1, 2, 3)) == frozenset()
    assert descents((1, 3, 1, 3, 2)) == {2, 4}


def test_evaluation_examples():
    assert evaluation((1, 3, 1, 3, 2)) == (2, 1, 2)
    assert evaluation(tuple(range(1, 6))) == (1,) * 5
    assert evaluation((1, 1, 1)) == (3,)
    assert evaluation(()) == ()


def test_reverse_examples():
    assert reverse((1, 1, 3, 2)) == (2, 3, 1, 1)
    assert reverse(()) == ()
    assert reverse((1, 2, 3)) == (3, 2, 1)


@given(small_words.map(pack))
def test_reverse_involution_and_descent_mirror(u):
    assert reverse(reverse(u)) == u
    n = len(u)
    rises = {i for i in range(1, n) if u[i - 1] < u[i]}
    assert descents(reverse(u)) == {n - i for i in rises}


def test_shifted_concat():
    assert shifted_concat((1, 1), (2, 1)) == (1, 1, 3, 2)
    assert shifted_concat((), (2, 1)) == (2, 1)
    assert shifted_concat((1, 2), (1,)) == (1, 2, 3)


@given(small_words.map(pack), small_words.map(pack), small_words.map(pack))
def test_shifted_concat_associative(u, v, w):
    assert shifted_concat(shifted_concat(u, v), w) == shifted_concat(u, shifted_concat(v, w))
    uv = shifted_concat(u, v)
    assert is_packed(uv)
    assert max(uv, default=0) == max(u, default=0) + max(v, default=0)


def test_enumeration_counts_and_brute_force_oracle():
    for n in range(7):
        assert len(enumerate_packed_words(n)) == FUBINI[n]
    for n in range(6):
        brute = sorted(
            w
            for w in itertools.product(range(1, max(n, 1) + 1), repeat=n)
            if is_packed(w)
        )
        assert list(enumerate_packed_words(n)) == brute


def test_enumeration_is_lexicographic_and_capped():
    for n in range(6):
        ws = enumerate_packed_words(n)
        assert list(ws) == sorted(ws)
    with pytest.raises(CapExceeded):
        enumerate_packed_words(8)


def test_pruned_enumeration_matches_an_ascent_filter():
    for n in range(8):
        every = enumerate_packed_words(n)
        non_ascents = [sum(x >= y for x, y in zip(w, w[1:])) for w in every]
        for budget in range(-1, n + 1):
            words, ascents = packed_words_with_ascents(n, budget)
            assert words == tuple(w for w, b in zip(every, non_ascents) if b <= budget), (n, budget)
            assert ascents == tuple(sum(x < y for x, y in zip(w, w[1:])) for w in words), (n, budget)
    with pytest.raises(CapExceeded):
        packed_words_with_ascents(8, 0)


def test_enumeration_checks_the_degree_cap_on_every_call(monkeypatch):
    assert len(enumerate_packed_words(4)) == FUBINI[4]  # now cached
    monkeypatch.setenv("WQSYM_MAX_DEGREE", "3")
    with pytest.raises(CapExceeded):
        enumerate_packed_words(4)


def _split_oracle(max_total):
    """Expand products the long way: all packed words w = u'v' split by prefix
    length, grouped by (pack(u'), pack(v'))."""
    table = {}
    for s in range(max_total + 1):
        for w in enumerate_packed_words(s):
            for a in range(s + 1):
                table.setdefault((pack(w[:a]), pack(w[a:])), []).append(w)
    return table


def test_quasi_shuffle_against_split_oracle():
    table = _split_oracle(6)
    for total in range(7):
        for a in range(total + 1):
            for u in enumerate_packed_words(a):
                for v in enumerate_packed_words(total - a):
                    got = quasi_shuffle_words(u, v)
                    assert len(set(got)) == len(got)  # all multiplicities are 1
                    assert list(got) == sorted(table.get((u, v), []))


def test_quasi_shuffle_examples():
    assert set(quasi_shuffle_words((1, 1), (2, 1))) == {
        (1, 1, 3, 2),
        (1, 1, 2, 1),
        (2, 2, 3, 1),
        (2, 2, 2, 1),
        (3, 3, 2, 1),
    }
    assert quasi_shuffle_words((), (2, 1)) == ((2, 1),)
    assert set(quasi_shuffle_words((1,), (1, 2))) == {
        (1, 2, 3),
        (1, 1, 2),
        (2, 1, 3),
        (2, 1, 2),
        (3, 1, 2),
    }


def test_compositions():
    for n in range(1, 8):
        assert len(compositions(n)) == 2 ** (n - 1)
    assert compositions(0) == ((),)
    assert set(compositions(3)) == {(3,), (1, 2), (2, 1), (1, 1, 1)}


def test_is_lyndon_examples():
    assert is_lyndon((1, 2))
    assert not is_lyndon((1, 1))
    assert not is_lyndon((2, 1))
    assert is_lyndon((5,))
    with pytest.raises(ValueError):
        is_lyndon(())


def _rotation_oracle(n):
    out = []
    for I in compositions(n):
        if I and all(I < I[j:] + I[:j] for j in range(1, len(I))):
            out.append(I)
    return tuple(out)


def test_lyndon_counts_match_rotation_oracle():
    counts = []
    for n in range(1, 6):
        oracle = _rotation_oracle(n)
        assert lyndon_compositions(n) == oracle
        counts.append(len(oracle))
    assert counts == [1, 1, 2, 3, 6]
    assert lyndon_compositions(3) == ((1, 2), (3,))


def test_block_masks_are_the_blocks_as_bit_sets():
    assert block_masks(()) == ()
    assert block_masks((2, 1, 2, 3)) == (0b0010, 0b0101, 0b1000)
    for u in enumerate_packed_words(4):
        masks = block_masks(u)
        assert len(masks) == breadth(u)
        assert sum(masks) == (1 << len(u)) - 1
        assert all(u[i] == letter for letter, m in enumerate(masks, 1) for i in range(len(u)) if m >> i & 1)
