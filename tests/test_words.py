"""Core word/permutation operations against independent oracles."""

import itertools

import pytest
from hypothesis import given, strategies as st

import oracles
from permstack.words import (
    PatternSet,
    _extend_occurrences,
    _tightest_bounds,
    avoids_all,
    catalan,
    complement,
    contains,
    enumerate_avoiders,
    enumerate_permutations,
    identity,
    is_permutation,
    pattern_set,
    reduce_patterns,
    reverse,
    reverse_identity,
    swap_first_two,
)

S3 = list(itertools.permutations((1, 2, 3)))
S2 = list(itertools.permutations((1, 2)))


words4 = [w for w in itertools.product((1, 2, 3, 4), repeat=4)]


def first_hit(w, p, from_right=False):
    chosen = []
    found = _extend_occurrences(w, *_tightest_bounds(p), chosen, 0, from_right)
    return tuple(chosen) if found else None


def test_contains_examples():
    assert contains((1, 3, 2, 4, 5, 6), (1, 3, 2))
    assert contains((2, 4, 3, 5, 6, 1), (1, 3, 2))
    assert contains((1, 2, 5, 6, 4, 3), (1, 3, 2))
    assert not contains((4, 5, 3, 1, 2), (1, 3, 2))


def test_contains_length_one_pattern():
    assert contains((3, 1), (1,))
    assert not contains((), (1,))


@pytest.mark.parametrize("n", range(0, 7))
def test_contains_matches_exhaustive_scan(n):
    patterns = S2 + S3
    for w in enumerate_permutations(n):
        for p in patterns:
            assert contains(w, p) == oracles.contains(w, p)


def test_contains_with_repeats_matches_scan():
    for w in words4:
        for p in S2 + S3:
            assert contains(w, p) == oracles.contains(w, p)


def test_anchored_occurrences_are_those_at_index_zero():
    # the one search against the combination scan, on words with repeats:
    # the first hit the first scanned occurrence, an anchored hit exactly
    # when a scanned occurrence starts at index 0, and the first hit from
    # the right the last scanned occurrence
    patterns = [p for m in range(1, 5) for p in itertools.permutations(range(1, m + 1))]
    for length in range(6):
        for w in itertools.product((1, 2, 3, 4), repeat=length):
            for p in patterns:
                expected = list(oracles.occurrences(w, p))
                assert first_hit(w, p) == (expected[0] if expected else None)
                assert contains(w, p, anchored=True) == any(i[0] == 0 for i in expected)
                assert first_hit(w, p, from_right=True) == (expected[-1] if expected else None)
    # length 6: only the anchored answer, against the patterns of the
    # subwords that start at index 0 (the full scan would take seconds)
    for w in itertools.product((1, 2, 3, 4), repeat=6):
        at_zero = {
            oracles.pattern_of(tuple(w[i] for i in (0, *rest)))
            for m in range(1, 5)
            for rest in itertools.combinations(range(1, 6), m - 1)
        }
        for p in patterns:
            assert contains(w, p, anchored=True) == (p in at_zero)


@given(
    st.lists(st.integers(1, 6), max_size=12),
    st.integers(1, 5).flatmap(lambda m: st.permutations(range(1, m + 1))),
    st.booleans(),
)
def test_contains_agrees_with_occurrences(w, p, anchored):
    # the search's first hit is the first occurrence, and from the right
    # the last; all against the combination scan, up to pattern length 5
    w, p = tuple(w), tuple(p)
    expected = list(oracles.occurrences(w, p))
    assert first_hit(w, p) == (expected[0] if expected else None)
    assert contains(w, p, anchored) == any(i[0] == 0 or not anchored for i in expected)
    assert first_hit(w, p, from_right=True) == (expected[-1] if expected else None)


def test_avoids_all():
    assert avoids_all((3, 1, 2), [(1, 2, 3), (1, 3, 2)])
    assert not avoids_all((1, 4, 2, 5), [(1, 3, 2)])
    assert avoids_all((), [(1, 2, 3)])
    assert avoids_all((3, 1, 2), [])


def test_reverse():
    assert reverse((5, 2, 4, 1, 3)) == (3, 1, 4, 2, 5)
    assert reverse((3, 2, 1)) == (1, 2, 3)
    assert reverse(()) == ()


def test_complement():
    assert complement((2, 3, 1, 4, 5)) == (4, 3, 5, 2, 1)
    assert complement((1,)) == (1,)
    with pytest.raises(ValueError):
        complement((1, 1))


def test_swap_first_two():
    assert swap_first_two((1, 3, 2)) == (3, 1, 2)
    assert swap_first_two((2, 1, 3)) == (1, 2, 3)
    with pytest.raises(ValueError):
        swap_first_two((1,))


@pytest.mark.parametrize("n", range(0, 9))
def test_involutions_on_sn(n):
    for p in enumerate_permutations(n):
        assert reverse(reverse(p)) == p
        assert complement(complement(p)) == p
        if n >= 2:
            assert swap_first_two(swap_first_two(p)) == p


@given(st.lists(st.integers(1, 9), max_size=10))
def test_reverse_involution_on_words(letters):
    w = tuple(letters)
    assert reverse(reverse(w)) == w


def test_pattern_set_validation():
    with pytest.raises(ValueError):
        PatternSet(frozenset())
    with pytest.raises(ValueError):
        pattern_set("1")
    with pytest.raises(ValueError):
        pattern_set((1, 1, 2))
    assert pattern_set("21").min_len == 2
    assert pattern_set("21", "123").min_len == 2


def test_pattern_set_transforms():
    t = pattern_set("123", "132")
    assert sorted(t.reversed()) == [(2, 3, 1), (3, 2, 1)]
    assert sorted(t.complemented()) == [(3, 1, 2), (3, 2, 1)]


def test_reduce_patterns():
    assert sorted(reduce_patterns(["123", "1234"])) == [(1, 2, 3)]
    assert sorted(reduce_patterns(["123", "132"])) == [(1, 2, 3), (1, 3, 2)]
    assert sorted(reduce_patterns(["21", "321", "231"])) == [(2, 1)]
    with pytest.raises(ValueError):
        reduce_patterns([])


def test_catalan_small_values():
    import math

    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(4) == 14
    assert catalan(5) == 42
    # independent closed form
    for n in range(0, 20):
        assert catalan(n) == math.comb(2 * n, n) // (n + 1)
    with pytest.raises(ValueError):
        catalan(31)
    with pytest.raises(ValueError):
        catalan(-1)


def test_enumerate_permutations():
    assert list(enumerate_permutations(0)) == [()]
    assert len(list(enumerate_permutations(3))) == 6
    assert len(list(enumerate_permutations(5))) == 120
    assert list(enumerate_permutations(3))[:3] == [(1, 2, 3), (1, 3, 2), (2, 1, 3)]
    with pytest.raises(ValueError):
        enumerate_permutations(13)


def test_enumerate_avoiders():
    assert len(list(enumerate_avoiders(4, [(2, 3, 1)]))) == 14
    assert len(list(enumerate_avoiders(5, [(2, 1, 3)]))) == 42
    assert len(list(enumerate_avoiders(3, []))) == 6


@pytest.mark.parametrize("sigma", S3)
def test_avoider_counts_are_catalan(sigma):
    for n in range(0, 9):
        assert sum(1 for _ in enumerate_avoiders(n, [sigma])) == catalan(n)


def test_identity_helpers():
    assert identity(4) == (1, 2, 3, 4)
    assert reverse_identity(4) == (4, 3, 2, 1)
    assert identity(0) == ()
    assert is_permutation(identity(5))
    assert is_permutation(reverse_identity(5))
