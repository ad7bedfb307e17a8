"""Words, permutations, and pattern containment.

Conventions shared by the whole package:

- A *word* is a tuple of positive integers; repeats are allowed.
- A *permutation* of length n is a word whose letters are exactly 1..n,
  in one-line notation: (5, 2, 4, 1, 3) is 52413.
- A *pattern* is a permutation of length at least 2.  PatternSet collects
  the configurations a sorting stack must avoid (see machine).

Containment is one depth-first search over pattern positions, a plain
recursion that stops at its first hit.  It can also try its candidates
from the right, so that its first hit is the lexicographically greatest
occurrence; machine.clumping finds its witness that way.

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


def _extend_occurrences(
    w: Word,
    lo: tuple[int, ...],
    hi: tuple[int, ...],
    chosen: list[int],
    start: int,
    from_right: bool = False,
) -> bool:
    """Search depth first for an occurrence whose first indices are
    `chosen`, taking the next index from `start` on.  A letter is admitted
    when it lies strictly between the letters at its two tightest bounds.

    Return True at the first hit and leave its indices in `chosen`, or
    False when there is none.  The first hit is the lexicographically least
    such occurrence, or the greatest when from_right tries the candidates
    from the right."""
    t, m = len(chosen), len(lo)
    if t == m:
        return True
    low = w[chosen[lo[t]]] if lo[t] >= 0 else -math.inf
    high = w[chosen[hi[t]]] if hi[t] >= 0 else math.inf
    stop = len(w) - m + t + 1
    for i in range(stop - 1, start - 1, -1) if from_right else range(start, stop):
        if low < w[i] < high:
            chosen.append(i)
            if _extend_occurrences(w, lo, hi, chosen, i + 1, from_right):
                return True
            chosen.pop()
    return False


def contains(w: Word, p: Word, anchored: bool = False) -> bool:
    """True when some (not necessarily contiguous) subsequence of w is
    order-isomorphic to the permutation p; when anchored, one starting at
    w's first letter.  The search stops at its first hit.

    >>> contains((1, 3, 2, 4, 5, 6), (1, 3, 2))
    True
    >>> contains((4, 5, 3, 1, 2), (1, 3, 2))
    False
    """
    # p's first letter has no bound to meet, so an anchored search fixes
    # index 0 and goes on from there.  An empty w or p has nothing to
    # anchor: the plain search answers it.
    chosen, start = ([0], 1) if anchored and w and p else ([], 0)
    return _extend_occurrences(w, *_tightest_bounds(p), chosen, start)


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
    be reduced: a member that contains another forbids no stack the other
    allows, so dropping it drives the same machine.
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
