"""Global behaviour of the sorting map on S_n.

Bijectivity and the reverse-conjugate inverse, the two-stage machine and
its identity-preimage counts, preimage (fertility) enumeration against the
Catalan bound, the extremal constructions that meet the bound, complement
conjugation, and periodic-orbit structure.  Everything is exhaustive and
desk scale: sweeps refuse n beyond words.MAX_ENUM_N.

Sweeps walk the permutation prefix tree so machine state is shared across
inputs with a common prefix; results are identical to sorting each
permutation separately (the tests compare the two).  Every such walk, and
the preimage search too, is a plain recursion over a bitmask of the
letters left to enter, least first, that backs out with _Stack.undo.  The
stack compares letters only by < and >, so below a node what the machine
outputs depends only on the order pattern of the letters not yet out: how
many are still to enter, and where the stack's letters rank among them.
A sweep walks each such subtree once per first letter and copies its
images, relabelled onto the letters at hand and behind the current
output, wherever the pattern recurs; it does so from MEMO_MIN_LEFT letters
left up.  From n = WALK_MIN_N up, the two-stage machine's counts
(sort_count, and so the 15-pair table) come from a memoised walk over both
stacks' states instead, which keeps no image, and whose second stage, the
classical stack, is a plain list; the sweep, machine_images, is its oracle
in the tests.  Each walk's memo is a plain dict private to one first
letter, freed when that letter's job returns.  Functions taking a
``workers`` argument split the tree by first letter across processes and
merge deterministically, so output never depends on the worker count.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import factorial
from operator import itemgetter

from .machine import (
    _enter,
    _Stack,
    legal_movement_sequences,
    reconstruct_input,
    sort,
)
from .words import (
    MAX_ENUM_N,
    PatternSet,
    Word,
    catalan,
    complement,
    enumerate_avoiders,
    enumerate_permutations,
    identity,
    is_permutation,
    pattern_set,
    reverse,
    reverse_identity,
    swap_first_two,
)

#: The classical stack: forbid a descent, read top to bottom.
CLASSICAL_STACK = pattern_set("21")

#: All six length-3 patterns, lexicographically.
LENGTH3_PATTERNS = tuple(itertools.permutations((1, 2, 3)))


# ---------------------------------------------------------------------------
# exhaustive sweeps


#: The sweep looks a subtree up in its memo only while at least this many
#: letters are left to enter.  Measured on a 2-vCPU guest against the
#: memo keyed by exact letters at three, interleaved in one process
#: (median of 9).  At three, sort_images at n = 8 took 0.51x for {21},
#: 0.64x for {123,132} and 0.54x for {132,312}; single length-4 patterns
#: at n = 7-8, whose calls last 25-270 ms, took 0.89-1.15x, about this
#: guest's run-to-run noise.  At four the first three took 0.67x, 0.86x
#: and 0.94x.  At two they took 0.45x, 0.61x and 0.50x, but the length-4
#: patterns took 1.07-1.19x: their deep stacks rarely repeat a pattern, so
#: there the lookups cost more than the copies save.
MEMO_MIN_LEFT = 3


def _copy_images(
    seen: tuple[int, int, int], alive: int, out: list[int], images: list[Word]
) -> None:
    """Append images[start:end] again, seen being (start, end, was), with
    `out` in place of the output they start with and the letters of `was`,
    the alive letters then, carried in order onto those of `alive`."""
    start, end, was = seen
    first = images[start]
    tr = [0] * (len(first) + 1)
    for x, y in zip(first, out):  # the output they start with
        tr[x] = y
    while was:
        x, y = was & -was, alive & -alive
        tr[x.bit_length() - 1] = y.bit_length() - 1
        was ^= x
        alive ^= y
    # images here have at least MEMO_MIN_LEFT letters, so itemgetter gives
    # a tuple
    images.extend([itemgetter(*img)(tr) for img in images[start:end]])


def _extend_images(
    rest: int,
    stack: _Stack,
    out: list[int],
    images: list[Word],
    memo: dict[tuple, tuple[int, int, int]],
) -> None:
    """Append the images of every completion of the current input prefix,
    in lexicographic order; bit x of `rest` is set while x has not entered.

    The stack compares letters only by < and >, so what comes out after
    `out` depends only on the order pattern of the alive letters: how many
    are left to enter, and the rank of each stack letter among them.  Those
    fix every frame's push-table state, and so every later step.  So while
    MEMO_MIN_LEFT or more letters are left, memo maps that pattern to the
    slice of images its first walk appended and to the alive letters then,
    and a repeat copies that slice behind its own output instead of
    walking, each image's tail carried over by the order-preserving map
    from those alive letters onto its own.  The map keeps the order in
    which the walk enters letters, least first, so the copies stay in input
    order; and the key fixes len(out), so every image in the slice carries
    the repeat's part of the output past that length.
    """
    letters = stack.letters
    if not rest:
        images.append((*out, *reversed(letters)))
        return
    key = None
    count = rest.bit_count()
    if count >= MEMO_MIN_LEFT:
        alive = rest  # the letters not yet out
        for y in letters:
            alive |= 1 << y
        # each stack letter's rank among the alive letters, from the top
        key = (count, *[(alive >> y).bit_count() for y in letters])
        seen = memo.get(key)
        if seen is not None:
            _copy_images(seen, alive, out, images)
            return
    start = len(images)
    left = rest
    while left:
        bit = left & -left  # the least letter left, so inputs stay in order
        left ^= bit
        popped = _enter(bit.bit_length() - 1, stack, out)
        _extend_images(rest ^ bit, stack, out, images, memo)
        stack.undo(popped, out)
    if key is not None:
        memo[key] = (start, len(images), alive)


def _subtree_images(args: tuple[PatternSet, int, int]) -> list[Word]:
    tset, n, first = args
    stack = _Stack(tset.patterns)
    images: list[Word] = []
    _enter(first, stack, [])
    rest = ((1 << (n + 1)) - 2) ^ (1 << first)  # bits 1..n but first
    # the memo lives for this one first letter, so no part depends on how
    # the jobs are split over workers
    _extend_images(rest, stack, [], images, {})
    return images


def _fan_out(subtree, tset: PatternSet, n: int, workers: int) -> list:
    """Run subtree((tset, n, first)) for each first letter of S_n, over at
    most min(workers, n, CPUs) processes, and concatenate the parts in
    lexicographic input order."""
    if not 0 <= n <= MAX_ENUM_N:
        raise ValueError(f"exhaustive sweeps are capped at n <= {MAX_ENUM_N}")
    if n == 0:
        return [()]
    jobs = [(tset, n, first) for first in range(1, n + 1)]
    workers = min(workers, n, os.cpu_count() or 1)
    if workers > 1 and factorial(n) >= 5000:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(subtree, jobs))
    else:
        parts = [subtree(job) for job in jobs]
    return [img for part in parts for img in part]


def sort_images(tset: PatternSet, n: int, workers: int = 1) -> list[Word]:
    """Machine outputs across S_n, in lexicographic input order.

    Equal to [sort(p, tset) for p in enumerate_permutations(n)] but shares
    stack state across inputs with a common prefix.
    """
    return _fan_out(_subtree_images, tset, n, workers)


def sort_map(tset: PatternSet, n: int, workers: int = 1) -> dict[Word, Word]:
    """The map as a finite function table on S_n."""
    return dict(zip(enumerate_permutations(n), sort_images(tset, n, workers)))


def image_size(tset: PatternSet, n: int, workers: int = 1) -> int:
    """How many distinct outputs the map has on S_n (n! exactly when the
    bijectivity criterion holds)."""
    return len(set(sort_images(tset, n, workers)))


# ---------------------------------------------------------------------------
# bijectivity


def bijectivity_criterion(tset: PatternSet) -> bool:
    """True exactly when swapping the first two letters of any member lands
    back in the set; such maps are bijections and only such maps are."""
    return all(swap_first_two(p) in tset for p in tset)


def verify_bijective(tset: PatternSet, n: int, workers: int = 1):
    """Exhaustively check injectivity on S_n.

    Returns True, or the first pair (in input order) of distinct
    permutations sharing an image.
    """
    seen: dict[Word, Word] = {}
    for p, img in zip(enumerate_permutations(n), sort_images(tset, n, workers)):
        if img in seen:
            return (seen[img], p)
        seen[img] = p
    return True


def inverse_sort(p: Word, tset: PatternSet) -> Word:
    """The inverse map reverse . sort . reverse; only defined when the
    bijectivity criterion holds."""
    if not bijectivity_criterion(tset):
        raise ValueError("the sorting map is not bijective for this pattern set")
    return reverse(sort(reverse(p), tset))


# ---------------------------------------------------------------------------
# the two-stage machine


def _machine_subtree(args: tuple[PatternSet, int, int]) -> list[Word]:
    tset, n, start = args
    return [sort(img, CLASSICAL_STACK) for img in _subtree_images((tset, n, start))]


def machine_images(first: Word, second: Word, n: int, workers: int = 1) -> list[Word]:
    """Two-stage machine outputs across S_n in lexicographic input order."""
    return _fan_out(_machine_subtree, pattern_set(first, second), n, workers)


def _feed(ys, two: list[int], m: int) -> int:
    """Pass letters ys into the classical stack `two`, after m letters have
    come out of it: pop while the top is below the incoming letter, then
    push.  Return how many letters have come out, or -1 as soon as one is
    not the next of 1, 2, ...."""
    for y in ys:
        while two and two[-1] < y:
            m += 1
            if two.pop() != m:
                return -1
        two.append(y)
    return m


def _count_sorted(
    rest: int, one: _Stack, out1: list[int], two: list[int], m: int, memo: dict
) -> int:
    """How many completions of the current input prefix the two-stage
    machine sorts; bit x of `rest` is set while x has not entered.  Stage 1
    is `one`, its pops appended to out1 and passed on at once to stage 2,
    which holds `two` and has given out 1..m."""
    if not rest:
        # stage 1 drains through stage 2; if no pop breaks the order,
        # stage 2 then holds the rest, which it gives out in order
        return _feed(reversed(one.letters), two[:], m) >= 0
    # the letters entered are 1..m and the stacks' letters, so this key
    # fixes what is left to count
    key = (m, *one.letters, 0, *two)
    total = memo.get(key)
    if total is not None:
        return total
    total = 0
    left = rest
    while left:
        bit = left & -left
        left ^= bit
        popped = _enter(bit.bit_length() - 1, one, out1)
        after, k = two, m
        if popped:
            after = two[:]
            k = _feed(out1[len(out1) - popped :], after, m)
        if k >= 0:
            total += _count_sorted(rest ^ bit, one, out1, after, k, memo)
        one.undo(popped, out1)
    memo[key] = total
    return total


def _subtree_count(args: tuple[PatternSet, int, int]) -> list[int]:
    """How many permutations starting with `first` the two-stage machine
    sorts, as a one-element part for _fan_out."""
    tset, n, first = args
    one = _Stack(tset.patterns)
    out1: list[int] = []
    _enter(first, one, out1)
    rest = ((1 << (n + 1)) - 2) ^ (1 << first)  # bits 1..n but first
    return [_count_sorted(rest, one, out1, [], 0, {})]


#: sort_count walks from this n up.  Over all 15 pairs the walk takes
#: 0.85x the time of sorting the sweep's images at n = 1, 0.73x at n = 2,
#: 0.74x at n = 3 and 0.34x at n = 7, so it would be faster at every n.
#: Below three the table's rows stay on machine_images because that is
#: where the sweep workloads reach machine.sort, the function
#: perfbench/selftest.py breaks to check that a workload notices a wrong
#: result; walked, those workloads never call sort, and the self-test
#: fails for sweep and sweep-par2.
WALK_MIN_N = 3


def sort_count(first: Word, second: Word, n: int, workers: int = 1) -> int:
    """How many permutations of S_n the two-stage machine sorts.

    From n = WALK_MIN_N up, a depth-first walk over input prefixes that
    runs both stacks.  Each pop of the first passes at once into the
    classical stack, a plain list, which pops in increasing order, so a
    prefix is dropped as soon as it pops a letter other than the next of
    1, 2, ....  What is left to count depends only on how many letters came
    out and on the two stacks' letters, so each such state is counted once.
    A complete prefix drains the first stack through the classical one and
    is sorted when no pop breaks that order.  Below WALK_MIN_N it counts
    the identity among machine_images, the walk's oracle in the tests.

    >>> sort_count((1, 2, 3), (3, 2, 1), 8)
    112
    """
    if n < WALK_MIN_N:
        return machine_images(first, second, n, workers).count(identity(n))
    return sum(_fan_out(_subtree_count, pattern_set(first, second), n, workers))


#: Previously reported counts for |sort_n| over all pairs of length-3
#: patterns, n = 1..4, kept for cross-checking.  The reference tabulation
#: is flawed: it lists (1,2,3),(2,3,1) twice, gives two conflicting rows
#: for (2,1,3),(2,3,1), and omits (1,3,2),(2,3,1) and (2,1,3),(3,1,2);
#: entries here keep every printed candidate so the mismatch handling can
#: be exercised.
REFERENCE_COUNTS: dict[tuple[Word, Word], tuple[tuple[int, ...], ...]] = {
    ((1, 2, 3), (1, 3, 2)): ((1, 2, 5, 14),),
    ((1, 2, 3), (2, 1, 3)): ((1, 2, 5, 14),),
    ((1, 2, 3), (2, 3, 1)): ((1, 2, 6, 21), (1, 2, 6, 21)),
    ((1, 2, 3), (3, 1, 2)): ((1, 2, 5, 15),),
    ((1, 2, 3), (3, 2, 1)): ((1, 2, 4, 7),),
    ((1, 3, 2), (2, 1, 3)): ((1, 2, 5, 15),),
    ((1, 3, 2), (2, 3, 1)): (),
    ((1, 3, 2), (3, 1, 2)): ((1, 2, 5, 14),),
    ((1, 3, 2), (3, 2, 1)): ((1, 2, 4, 10),),
    ((2, 1, 3), (2, 3, 1)): ((1, 2, 5, 16), (1, 2, 6, 23)),
    ((2, 1, 3), (3, 1, 2)): (),
    ((2, 1, 3), (3, 2, 1)): ((1, 2, 4, 12),),
    ((2, 3, 1), (3, 1, 2)): ((1, 2, 6, 23),),
    ((2, 3, 1), (3, 2, 1)): ((1, 2, 5, 14),),
    ((3, 1, 2), (3, 2, 1)): ((1, 2, 4, 10),),
}


@dataclass(frozen=True)
class SortTableRow:
    sigma: Word
    tau: Word
    counts: tuple[int, ...]
    is_catalan: bool
    reference: tuple[tuple[int, ...], ...]
    note: str


@dataclass(frozen=True)
class SortTable:
    max_n: int
    rows: tuple[SortTableRow, ...]


def _reference_note(counts: tuple[int, ...], refs, max_n: int) -> str:
    window = min(max_n, 4)
    mine = counts[:window]
    if not refs:
        return "no reference value; computed from scratch"
    if len(set(refs)) > 1:
        listed = " vs ".join(str(r) for r in refs)
        return f"reference values conflict ({listed}); computed value is authoritative"
    dup = " (reference lists this pair twice, one row likely mislabeled)" if len(refs) > 1 else ""
    if mine == refs[0][:window]:
        return "matches reference" + dup
    return f"DIFFERS from reference {refs[0]}" + dup


def build_sort_table(max_n: int, workers: int = 1) -> SortTable:
    """Identity-preimage counts of the two-stage machine over all 15 pairs
    of distinct length-3 patterns, for n = 1..max_n, with notes comparing
    against the previously reported values."""
    if not 1 <= max_n <= MAX_ENUM_N:
        raise ValueError(f"table size must be 1..{MAX_ENUM_N}")
    cat_prefix = tuple(catalan(i) for i in range(1, max_n + 1))
    rows = []
    for sigma, tau in itertools.combinations(LENGTH3_PATTERNS, 2):
        counts = tuple(sort_count(sigma, tau, n, workers) for n in range(1, max_n + 1))
        refs = REFERENCE_COUNTS[(sigma, tau)]
        rows.append(
            SortTableRow(
                sigma=sigma,
                tau=tau,
                counts=counts,
                is_catalan=counts == cat_prefix,
                reference=refs,
                note=_reference_note(counts, refs, max_n),
            )
        )
    return SortTable(max_n, tuple(rows))


# ---------------------------------------------------------------------------
# preimages and fertility


def preimages(gamma: Word, tset: PatternSet) -> set[Word]:
    """All permutations the machine sends to gamma.

    A depth-first walk over input prefixes that runs the machine itself
    and follows only prefixes gamma can still come out of.  Every pop must
    be gamma's next letter, and the stack, read top to bottom, must keep
    gamma's order, since it empties in that order; so while the top is not
    gamma's next letter, only letters gamma puts before the top may enter.
    The first k-2 letters never leave the stack bottom, so they are gamma's
    last k-2 reversed.  Every complete prefix is a preimage.

    The walk costs what the prefixes it follows cost, so it gains most on
    targets with few preimages, as most targets are.  Near the
    catalan(n - k + 2) bound it follows about as many prefixes as there
    are shaped movement sequences and gains little (README gives times).
    The movement-sequence strategy, _preimages_by_moves, is its oracle in
    the tests.

    >>> from permstack.words import pattern_set
    >>> len(preimages((1, 2, 3, 4), pattern_set("21")))
    14
    """
    if not is_permutation(gamma):
        raise ValueError("preimages are computed for permutations")
    n = len(gamma)
    if not 0 <= n <= MAX_ENUM_N:
        raise ValueError(f"preimage search is capped at n <= {MAX_ENUM_N}")
    at = [0] * (n + 1)  # at[v]: v's index in gamma
    for i, v in enumerate(gamma):
        at[v] = i
    stack = _Stack(tset.patterns)
    out: list[int] = []
    # the first k-2 letters stay at the stack bottom and come out last
    word = list(reversed(gamma[max(n - tset.min_len + 2, 0) :]))
    rest = (1 << (n + 1)) - 2  # bits 1..n
    for x in word:
        _enter(x, stack, out)
        rest ^= 1 << x
    found: set[Word] = set()
    _extend_preimages(rest, stack, out, word, gamma, at, found)
    return found


def _extend_preimages(
    rest: int, stack: _Stack, out: list[int], word: list[int],
    gamma: Word, at: list[int], found: set[Word],
) -> None:
    """Add to found every completion of the input prefix `word` that the
    machine sends to gamma, at[v] being v's index in gamma; bit x of
    `rest` is set while x has not entered."""
    if not rest:
        found.add(tuple(word))
        return
    letters = stack.letters
    nxt = len(out)
    top = at[letters[-1]] if letters else len(gamma)
    # gamma's letters from nxt up to the top have not entered yet
    for i in range(nxt, len(gamma) if top == nxt else top):
        x = gamma[i]
        if not rest >> x & 1:
            continue
        popped = _enter(x, stack, out)
        if (not popped or at[out[-1]] == len(out) - 1) and (
            len(letters) < 2 or i < at[letters[-2]]
        ):
            word.append(x)
            _extend_preimages(rest ^ (1 << x), stack, out, word, gamma, at, found)
            word.pop()
        stack.undo(popped, out)


def _preimages_by_moves(gamma: Word, tset: PatternSet) -> set[Word]:
    """The slow oracle of preimages: rebuild one candidate from each shaped
    movement sequence and keep those that really sort to gamma (distinct
    preimages always follow distinct sequences, so nothing is missed)."""
    n, k = len(gamma), tset.min_len
    if n < k - 2:
        # no pattern can ever fit in the stack: the machine just reverses
        return {reverse(gamma)}
    found = set()
    for steps in legal_movement_sequences(n, k):
        cand = reconstruct_input(gamma, steps)
        if sort(cand, tset) == gamma:
            found.add(cand)
    return found


def preimage_map(tset: PatternSet, n: int, workers: int = 1) -> dict[Word, set[Word]]:
    """Every image with its full preimage set, from a single sweep of S_n."""
    table: dict[Word, set[Word]] = {}
    for p, img in zip(enumerate_permutations(n), sort_images(tset, n, workers)):
        table.setdefault(img, set()).add(p)
    return table


@dataclass(frozen=True)
class FertilityReport:
    """The largest preimage count on S_n and everything attaining it."""

    patterns: PatternSet
    n: int
    max_count: int
    bound: int
    witnesses: frozenset[Word]


def fertility_max(tset: PatternSet, n: int, workers: int = 1) -> FertilityReport:
    """Histogram the images of one S_n sweep and report the maximum preimage
    count with all its witnesses; bound is catalan(n - k + 2), the number of
    shaped movement sequences."""
    k = tset.min_len
    if n < k - 2:
        raise ValueError(f"fertility bound needs n >= {k - 2} for these patterns")
    counts = Counter(sort_images(tset, n, workers))
    top = max(counts.values())
    witnesses = frozenset(g for g, c in counts.items() if c == top)
    return FertilityReport(tset, n, top, catalan(n - k + 2), witnesses)


# ---------------------------------------------------------------------------
# extremal constructions meeting the fertility bound


def _extremal_pins(pattern: Word, n: int) -> Word:
    """The k-2 letters that pin the stack bottom in the extremal fertility
    construction, defined when the pattern's first two letters are
    consecutive integers: each pattern letter v past the second stays v when
    below the first letter and becomes v + n - k otherwise."""
    if not is_permutation(pattern) or len(pattern) < 3:
        raise ValueError("need a permutation pattern of length at least 3")
    if abs(pattern[0] - pattern[1]) != 1:
        raise ValueError("first two pattern letters must be consecutive")
    if n < len(pattern):
        raise ValueError("target length must be at least the pattern length")
    shift = n - len(pattern)
    return tuple(v if v < pattern[0] else v + shift for v in pattern[2:])


def extremal_target(pattern: Word, n: int) -> Word:
    """The length-n permutation whose preimage count meets the Catalan bound
    for a single forbidden pattern with consecutive first letters: its last
    k-2 entries are the pinned letters and the rest run increasing (first
    letter above second) or decreasing (below)."""
    tail = _extremal_pins(pattern, n)
    rest = sorted(set(range(1, n + 1)) - set(tail), reverse=pattern[0] < pattern[1])
    return tuple(rest) + tail


def extremal_family(pattern: Word, n: int) -> set[Word]:
    """The catalan(n - k + 2) permutations whose first k-2 entries are the
    pinned letters reversed and whose remaining entries avoid 231 (first
    pattern letter above second) or 213 (below); exactly the preimages of
    extremal_target(pattern, n)."""
    head = _extremal_pins(pattern, n)[::-1]
    rest_letters = sorted(set(range(1, n + 1)) - set(head))
    avoided = (2, 3, 1) if pattern[0] > pattern[1] else (2, 1, 3)
    family = set()
    for rho in enumerate_avoiders(n - len(pattern) + 2, [avoided]):
        family.add(head + tuple(rest_letters[r - 1] for r in rho))
    return family


# ---------------------------------------------------------------------------
# complement conjugation


def complement_conjugation_check(tset: PatternSet, n: int, workers: int = 1) -> bool:
    """Sorting the complement under the complemented patterns must equal the
    complement of the sorted original, across all of S_n."""
    comp_tset = tset.complemented()
    return all(
        sort(complement(p), comp_tset) == complement(img)
        for p, img in zip(enumerate_permutations(n), sort_images(tset, n, workers))
    )


# ---------------------------------------------------------------------------
# periodic structure


def is_half_decreasing(p: Word) -> bool:
    """True when position n-1 holds 1, position n-3 holds 2, and so on down
    to position 2 or 3; order isomorphism is not enough, the letters must be
    literally 1, 2, ...  Vacuously true for n <= 2."""
    if not is_permutation(p):
        raise ValueError("half-decreasing is defined on permutations")
    n = len(p)
    return all(p[n - 2 * t] == t for t in range(1, (n - 1) // 2 + 1))


def is_half_increasing(p: Word) -> bool:
    """True when the complement is half-decreasing."""
    return is_half_decreasing(complement(p))


def half_decreasing_step(p: Word) -> Word:
    """Closed form for one application of the {123, 132}-avoiding stack to a
    half-decreasing permutation: the pinned letters stay put and the free
    letters shift cyclically one slot left.  Must equal the simulation."""
    if len(p) < 3:
        raise ValueError("closed form needs length at least 3")
    if not is_half_decreasing(p):
        raise ValueError("closed form only applies to half-decreasing permutations")
    n = len(p)
    pinned = {n - 2 * t for t in range(1, (n - 1) // 2 + 1)}
    free = [i for i in range(n) if i not in pinned]
    out = list(p)
    for j, i in enumerate(free):
        out[i] = p[free[(j + 1) % len(free)]]
    return tuple(out)


@dataclass(frozen=True)
class OrbitReport:
    """Trajectory of one permutation under repeated sorting: the pre-periodic
    tail, then the cycle it falls into."""

    start: Word
    tail: tuple[Word, ...]
    cycle: tuple[Word, ...]

    @property
    def cycle_length(self) -> int:
        return len(self.cycle)


def orbit(p: Word, tset: PatternSet) -> OrbitReport:
    """Iterate the map from p until a repeat; S_n is finite so this always
    terminates."""
    if not is_permutation(p):
        raise ValueError("orbits are computed for permutations")
    if len(p) > MAX_ENUM_N:
        raise ValueError(f"orbit iteration is capped at n <= {MAX_ENUM_N}")
    seen = {p: 0}
    seq = [p]
    cur = p
    while True:
        cur = sort(cur, tset)
        if cur in seen:
            i = seen[cur]
            return OrbitReport(p, tuple(seq[:i]), tuple(seq[i:]))
        seen[cur] = len(seq)
        seq.append(cur)


def orbit_partition(tset: PatternSet, n: int, workers: int = 1) -> tuple[tuple[Word, ...], ...]:
    """The periodic points grouped into their disjoint cycles; each cycle
    starts at its lexicographically least member, cycles sorted by that
    member."""
    f = sort_map(tset, n, workers)
    walk: dict[Word, Word] = {}  # point -> start of the walk that first reached it
    cycles = []
    for start in f:
        path = []
        cur = start
        while cur not in walk:
            walk[cur] = start
            path.append(cur)
            cur = f[cur]
        if walk[cur] == start:  # this walk closed a cycle of its own
            cycle = path[path.index(cur) :]
            least = cycle.index(min(cycle))
            cycles.append(tuple(cycle[least:] + cycle[:least]))
    return tuple(sorted(cycles))


def periodic_points(tset: PatternSet, n: int, workers: int = 1) -> set[Word]:
    """All permutations of S_n lying on a cycle of the map."""
    return {p for cycle in orbit_partition(tset, n, workers) for p in cycle}


def trivial_periodic_points_only(
    tset: PatternSet, n: int, workers: int = 1
) -> tuple[bool, Word | None]:
    """Check that nothing but the identity and its reverse is periodic;
    returns (verdict, counterexample), the counterexample being the least
    other periodic point when the check fails."""
    extras = sorted(
        periodic_points(tset, n, workers) - {identity(n), reverse_identity(n)}
    )
    return (not extras, extras[0] if extras else None)
