"""Words, permutations, and pattern containment.

Conventions shared by the whole package:

- A *word* is a tuple of positive integers; repeats are allowed.
- A *permutation* of length n is a word whose letters are exactly 1..n,
  in one-line notation: (5, 2, 4, 1, 3) is 52413.
- A *pattern* is a permutation of length at least 2.  PatternSet collects
  the configurations a sorting stack must avoid (see machine).

Everything here is a pure function on immutable tuples, so it is safe to
call concurrently or from worker processes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

Word = tuple[int, ...]

#: Exhaustive S_n sweeps refuse to go past this length.  It is a refusal
#: bound, not a promise that a sweep this long finishes: sort_map holds
#: about 320 B per permutation, some 13 GB at n = 11.
MAX_ENUM_N = 12

#: catalan() stays within 64-bit range up to this index.
MAX_CATALAN_N = 30


def is_permutation(w: Word) -> bool:
    """True when w uses each of 1..len(w) exactly once.

    >>> is_permutation((5, 2, 4, 1, 3))
    True
    >>> is_permutation((1, 1, 2))
    False
    >>> is_permutation(())
    True
    """
    return sorted(w) == list(range(1, len(w) + 1))


@lru_cache(maxsize=4096)
def _tightest_bounds(p: Word) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # For each position t: the earlier position holding the closest letter
    # below (resp. above) p[t], or -1.  A candidate letter satisfying these
    # two strict bounds satisfies every pairwise relation by transitivity.
    lo, hi = [], []
    for t, v in enumerate(p):
        lo_j = hi_j = -1
        for j in range(t):
            if p[j] < v and (lo_j < 0 or p[j] > p[lo_j]):
                lo_j = j
            if p[j] > v and (hi_j < 0 or p[j] < p[hi_j]):
                hi_j = j
        lo.append(lo_j)
        hi.append(hi_j)
    return tuple(lo), tuple(hi)


def occurrences(w: Word, p: Word, anchored: bool = False) -> Iterator[tuple[int, ...]]:
    """Yield every ascending index tuple whose letters in w form the pattern p;
    when anchored, only those starting at index 0.

    p must be a permutation.  Tuples come out in lexicographic order of the
    index sequence.
    """
    m, n = len(p), len(w)
    if m == 0:
        yield ()
        return
    lo, hi = _tightest_bounds(p)
    chosen: list[int] = []

    def extend(start: int) -> Iterator[tuple[int, ...]]:
        t = len(chosen)
        for i in range(start, n - (m - t) + 1):
            x = w[i]
            if lo[t] >= 0 and w[chosen[lo[t]]] >= x:
                continue
            if hi[t] >= 0 and w[chosen[hi[t]]] <= x:
                continue
            chosen.append(i)
            if len(chosen) == m:
                yield tuple(chosen)
            else:
                yield from extend(i + 1)
            chosen.pop()

    if not anchored:
        yield from extend(0)
    elif m == 1:
        if n:
            yield (0,)
    elif n >= m:  # p's first letter has no bound to meet
        chosen.append(0)
        yield from extend(1)


def contains(w: Word, p: Word, anchored: bool = False) -> bool:
    """True when some (not necessarily contiguous) subsequence of w is
    order-isomorphic to the permutation p; when anchored, one starting at
    w's first letter.

    >>> contains((1, 3, 2, 4, 5, 6), (1, 3, 2))
    True
    >>> contains((4, 5, 3, 1, 2), (1, 3, 2))
    False
    """
    # occurrences' depth-first search, stopping at the first match: each
    # level keeps the letters chosen so far and admits a letter strictly
    # between its two tightest bounds
    m, n = len(p), len(w)
    if m == 0:
        return True
    if n < m:
        return False
    lo, hi = _tightest_bounds(p)
    chosen = [0] * m

    def extend(t: int, start: int) -> bool:
        low = chosen[lo[t]] if lo[t] >= 0 else -math.inf
        high = chosen[hi[t]] if hi[t] >= 0 else math.inf
        last = t + 1 == m
        for i in range(start, n - m + t + 1):
            x = w[i]
            if low < x < high:
                if last:
                    return True
                chosen[t] = x
                if extend(t + 1, i + 1):
                    return True
        return False

    if not anchored:
        return extend(0, 0)
    chosen[0] = w[0]  # p's first letter has no bound to meet
    return m == 1 or extend(1, 1)


def avoids(w: Word, p: Word) -> bool:
    """True when w has no occurrence of the pattern p."""
    return not contains(w, p)


def avoids_all(w: Word, patterns: Iterable[Word]) -> bool:
    """True when w avoids every pattern in the collection (vacuously true
    for an empty collection)."""
    return not any(contains(w, p) for p in patterns)


def reverse(w: Word) -> Word:
    """The word read right to left; an involution.

    >>> reverse((5, 2, 4, 1, 3))
    (3, 1, 4, 2, 5)
    """
    return w[::-1]


def complement(p: Word) -> Word:
    """Replace each letter m of a permutation by len(p) + 1 - m.

    >>> complement((2, 3, 1, 4, 5))
    (4, 3, 5, 2, 1)
    """
    if not is_permutation(p):
        raise ValueError(f"complement is defined on permutations, got {p!r}")
    n = len(p)
    return tuple(n + 1 - x for x in p)


def swap_first_two(p: Word) -> Word:
    """Swap the first two letters; the closure operation deciding whether
    the sorting map is a bijection.

    >>> swap_first_two((1, 3, 2))
    (3, 1, 2)
    """
    if len(p) < 2:
        raise ValueError("need at least two letters to swap")
    return (p[1], p[0]) + p[2:]


def identity(n: int) -> Word:
    """The increasing permutation 1, 2, ..., n."""
    return tuple(range(1, n + 1))


def reverse_identity(n: int) -> Word:
    """The decreasing permutation n, ..., 2, 1."""
    return tuple(range(n, 0, -1))


def _as_pattern(p) -> Word:
    if isinstance(p, str):
        return tuple(int(ch) for ch in p)
    return tuple(p)


@dataclass(frozen=True)
class PatternSet:
    """The set of patterns a sorting stack must avoid.

    Every pattern is a permutation of length at least 2: a length-1 pattern
    would forbid the stack from ever holding a letter, making the machine's
    pop-from-empty undefined, so construction rejects it.  The set need not
    be reduced; use reduce_patterns for the canonical reduced equivalent,
    which drives the same machine.
    """

    patterns: frozenset[Word]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise ValueError("pattern set must not be empty")
        for p in self.patterns:
            if not is_permutation(p):
                raise ValueError(f"pattern {p!r} is not a permutation")
            if len(p) < 2:
                raise ValueError(f"pattern {p!r} is shorter than 2 letters")

    @property
    def min_len(self) -> int:
        return min(len(p) for p in self.patterns)

    @property
    def is_reduced(self) -> bool:
        """True when no member contains another member."""
        return not any(
            p != q and contains(p, q) for p in self.patterns for q in self.patterns
        )

    def reversed(self) -> "PatternSet":
        return PatternSet(frozenset(reverse(p) for p in self.patterns))

    def complemented(self) -> "PatternSet":
        return PatternSet(frozenset(complement(p) for p in self.patterns))

    def __iter__(self) -> Iterator[Word]:
        return iter(sorted(self.patterns))

    def __len__(self) -> int:
        return len(self.patterns)

    def __contains__(self, p: object) -> bool:
        return p in self.patterns


def pattern_set(*patterns) -> PatternSet:
    """Build a PatternSet from tuples or compact digit strings.

    >>> pattern_set("123", "132").min_len
    3
    """
    return PatternSet(frozenset(_as_pattern(p) for p in patterns))


def reduce_patterns(patterns: Iterable) -> PatternSet:
    """Drop every pattern that contains another member.

    The reduced set drives the same machine as the original, which the test
    suite checks by exhaustive sweep.

    >>> sorted(reduce_patterns([(2, 1), (3, 2, 1), (2, 3, 1)]))
    [(2, 1)]
    """
    pats = {_as_pattern(p) for p in patterns}
    kept = {p for p in pats if not any(q != p and contains(p, q) for q in pats)}
    return PatternSet(frozenset(kept))


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """The n-th Catalan number, via the convolution recurrence.

    >>> [catalan(n) for n in range(7)]
    [1, 1, 2, 5, 14, 42, 132]
    """
    if not 0 <= n <= MAX_CATALAN_N:
        raise ValueError(f"catalan(n) supports 0 <= n <= {MAX_CATALAN_N}, got {n}")
    if n == 0:
        return 1
    return sum(catalan(i) * catalan(n - 1 - i) for i in range(n))


def enumerate_permutations(n: int) -> Iterator[Word]:
    """All of S_n, each exactly once, in lexicographic order."""
    if not 0 <= n <= MAX_ENUM_N:
        raise ValueError(f"exhaustive enumeration is capped at n <= {MAX_ENUM_N}")
    return itertools.permutations(range(1, n + 1))


def enumerate_avoiders(n: int, patterns: Iterable[Word]) -> Iterator[Word]:
    """The permutations in S_n avoiding every given pattern, in lexicographic
    order.  An empty collection places no constraint and yields all of S_n."""
    pats = [_as_pattern(p) for p in patterns]
    return (p for p in enumerate_permutations(n) if avoids_all(p, pats))
