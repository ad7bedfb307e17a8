"""The pattern-avoiding stack machine and its movement-sequence calculus.

The machine reads its input left to right over a single stack.  Each step
either pushes the next input letter, when the stack read top to bottom
with that letter on top still avoids every forbidden pattern, or pops the
stack top to the output.  Once the input runs dry the stack drains.  With
the single forbidden pattern 21 this is the classical stack sort.

A run of length n takes exactly 2n steps, recorded as a movement sequence
over N (enter) and X (exit); movement sequences are balanced Dyck words.

The push test is a table lookup.  The order pattern of the stack with a
letter x on top depends only on the stack's own pattern and on x's slot
among the stack letters, so the stack patterns a pattern set allows form a
generating tree: a state (one stack pattern) maps each slot to its child
state, or to False when the push would form a forbidden pattern.  Every
stack frame carries its state, so a push test costs one slot count and
one dict lookup.  Every stack is plain lists: its letters bottom to top
and their states.  sort and sort_with_trace, which take words with
repeats and letters of any size, share one run, _run, which steps with
_enter; its push test, _can_push, bisects a third list, the stack letters
sorted, for the slot.  A walk over permutations, whose letters are
distinct, steps with _push, which counts the slot on a bitmask of the
stack letters.  Both pop inline.

The stack itself avoids the set, as each of its letters passed this test,
so a push can only form occurrences that start at x.  Those that skip the
top letter y are the ones x would form one frame down, whose entry for x
decides them; only those with y as second letter need a search, and only
for patterns whose first two letters compare as x and y do.  So a slot
never tried from a state walks down the frames, without recursion, to the
highest one that knows x, and fills the missing entries upward.  The slow
oracle, _push_keeps_avoiding, searches the whole stack for occurrences
anchored at x; the tests compare the tables with it.  The tables memoise
it and, like an lru_cache, report their hits and misses through
_push_keeps_avoiding.cache_info(), each entry filled being one miss.  They
grow lazily, one per pattern set, shared by all runs in a process.  Once
they hold more than STATE_BUDGET states in all, the next run starts fresh
tables; a run under way keeps the table it started with and holds
whatever states it reaches.

A walk over inputs (the prefix-tree sweep, the table walk, the preimage
search) keeps the states of the frames _push pops in a list of its own,
and the output keeps their letters, so _back takes a step back by
restoring those frames, with no push test.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .words import (
    PatternSet,
    Word,
    _extend_occurrences,
    _tightest_bounds,
    contains,
    reverse,
)

ENTER = "N"
EXIT = "X"


#: Most stack-pattern states the push tables may hold, summed over all
#: pattern sets; once past it, the next run starts fresh tables.
STATE_BUDGET = 1 << 18

_tables: dict[frozenset, dict] = {}  # pattern set -> state of the empty stack
_states_held = 0
_lookups = 0  # push tests, ever
_misses = 0   # table entries filled, ever

CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def _root(patterns: frozenset) -> dict:
    """The state of the empty stack under `patterns`, where every run
    starts; past STATE_BUDGET states held, all tables start fresh first."""
    global _states_held
    if _states_held > STATE_BUDGET:
        _tables.clear()
        _states_held = 0
    return _tables.setdefault(patterns, {})


def _push_keeps_avoiding(x: int, patterns: frozenset, letters: list[int]) -> bool:
    """The oracle: do the stack letters, read top to bottom with x on top,
    still avoid every forbidden pattern?  The stack alone avoids them, as
    every push passed this test, so only occurrences starting at x can be
    new."""
    top_down = (x, *reversed(letters))
    return not any(contains(top_down, p, anchored=True) for p in patterns)


def _table_info() -> CacheInfo:
    return CacheInfo(_lookups - _misses, _misses, STATE_BUDGET, _states_held)


# The tables are this oracle's cache; report them as an lru_cache would.
_push_keeps_avoiding.cache_info = _table_info


def _can_push(
    x: int, patterns: frozenset, letters: list[int], states: list, ranked: list[int]
):
    """The push test: the state of the stack with x pushed, or False when
    x may not be pushed (a fresh state is an empty dict, so test `is False`).

    Every call counts as one lookup.  A miss is one (state, slot) entry
    resolved, so a lookup that fills the entries of frames below the top
    counts one miss for each of them."""
    global _lookups
    _lookups += 1
    # x's slot among the stack letters: those below x plus those not above
    # x.  It grows strictly as x moves up past or onto a letter, so with
    # the state it fixes the new pattern, repeats included.
    slot = bisect_left(ranked, x) + bisect_right(ranked, x)
    state = states[-1].get(slot)
    if state is None:
        state = _resolve(x, slot, patterns, letters, states)
    return state


@lru_cache(maxsize=None)
def _second_letter_bounds(patterns: frozenset) -> tuple[tuple, tuple]:
    """The occurrence-search bounds of the patterns whose first letter is
    below their second, and of those whose first letter is above it."""
    rising = tuple(_tightest_bounds(p) for p in sorted(patterns) if p[0] < p[1])
    falling = tuple(_tightest_bounds(p) for p in sorted(patterns) if p[0] > p[1])
    return rising, falling


def _resolve(x: int, slot: int, patterns: frozenset, letters: list[int], states: list):
    """Fill the top frame's missing entry for x, at `slot`, and return it.

    An occurrence starting at x on frame i either skips that frame's top
    letter y, and then frame i-1's entry for x decides it, or takes y as
    its second letter, which only patterns whose first two letters compare
    as x and y do can.  So walk down to the highest frame whose entry for
    x is known (the empty stack admits any letter), then fill the entries
    upward, searching each frame only for occurrences through its top."""
    global _misses, _states_held
    i, state = len(letters), None
    while state is None and i:
        i -= 1
        y = letters[i]
        slot -= 2 * (y < x) + (y == x)
        state = states[i].get(slot)
    if state is None:  # x onto the empty stack, which admits any letter
        state = states[0][slot] = {}
        _misses += 1
        _states_held += 1
    # `state` is frame i's entry for x, at `slot`; fill the ones above
    rising, falling = _second_letter_bounds(patterns)
    top_down = None
    m = len(letters)
    while i < m:
        y = letters[i]
        slot += 2 * (y < x) + (y == x)
        i += 1
        if state is not False and y != x:
            if top_down is None:
                top_down = (x, *reversed(letters))
            at = m - i + 1  # y's index in top_down
            for lo, hi in rising if x < y else falling:
                if _extend_occurrences(top_down, lo, hi, [0, at], at + 1):
                    state = False
                    break
        if state is not False:
            state = {}
            _states_held += 1
        states[i][slot] = state
        _misses += 1
    return state


def _enter(
    x: int, patterns: frozenset, letters: list[int], states: list, ranked: list[int],
    out: list[int],
) -> int:
    """The one step rule on a word stack, `ranked` being its letters
    sorted: pop until x may be pushed, each popped letter onto out, push x,
    and return the pops."""
    popped = 0
    while (state := _can_push(x, patterns, letters, states, ranked)) is False:
        y = letters.pop()
        states.pop()
        ranked.remove(y)
        out.append(y)
        popped += 1
    letters.append(x)
    states.append(state)
    insort(ranked, x)
    return popped


def _push(
    x: int, mask: int, patterns: frozenset, letters: list[int], states: list,
    spent: list, out: list[int],
) -> int:
    """The one step rule on a stack of distinct letters, x not among them,
    bit y of `mask` set while y is on it: pop until x may be pushed, each
    popped letter onto out and its frame's state onto spent, push x, and
    return the new mask.

    x's slot is twice the number of stack letters below it, and every
    state looked up counts as one lookup, as a _can_push call does."""
    global _lookups
    slot = 2 * (mask & ((1 << x) - 1)).bit_count()
    tests = 1
    state = states[-1].get(slot)
    if state is None:
        state = _resolve(x, slot, patterns, letters, states)
    while state is False:
        y = letters.pop()
        out.append(y)
        spent.append(states.pop())
        mask ^= 1 << y
        if y < x:
            slot -= 2
        tests += 1
        state = states[-1].get(slot)
        if state is None:
            state = _resolve(x, slot, patterns, letters, states)
    _lookups += tests
    letters.append(x)
    states.append(state)
    return mask | 1 << x


def _back(h: int, letters: list[int], states: list, spent: list, out: list[int]) -> None:
    """Take back the last _push onto a stack that was h letters high: drop
    the letter it pushed and put the letters it popped back from out with
    their states from spent, so no push test runs."""
    letters.pop()
    states.pop()
    while len(letters) < h:
        letters.append(out.pop())
        states.append(spent.pop())


def _run(w: Word, patterns: frozenset) -> tuple[Word, list[int]]:
    """Run the machine on w: its output, and how many letters each letter
    of w popped as it entered.  The stack is its letters bottom to top, the
    state of each frame, and its letters sorted, which place the next
    letter among repeats."""
    letters, states, ranked, out, pops = [], [_root(patterns)], [], [], []
    for x in w:
        pops.append(_enter(x, patterns, letters, states, ranked, out))
    return (*out, *reversed(letters)), pops


def sort(w: Word, tset: PatternSet) -> Word:
    """Run the machine on w and return the output, a rearrangement of w.

    >>> from permstack.words import pattern_set
    >>> sort((1, 3, 2), pattern_set("21"))
    (1, 2, 3)
    >>> sort((5, 2, 4, 1, 3), pattern_set("123", "132"))
    (4, 2, 3, 1, 5)
    """
    return _run(w, tset.patterns)[0]


@dataclass(frozen=True)
class TraceEvent:
    """One machine step: what moved, and the state just after."""

    step: str     # ENTER or EXIT
    letter: int
    stack: Word   # top to bottom
    output: Word  # output so far


def sort_with_trace(
    w: Word, tset: PatternSet
) -> tuple[Word, str, tuple[TraceEvent, ...]]:
    """Like sort, but also return the N/X step string and the full event log."""
    out, pops = _run(w, tset.patterns)
    steps = "".join(EXIT * k + ENTER for k in pops) + EXIT * (len(w) - sum(pops))
    return out, steps, _replay(w, steps)


def _replay(w: Word, steps: str) -> tuple[TraceEvent, ...]:
    """Play steps forwards over w, logging each state (reconstruct_input's twin)."""
    letters = iter(w)
    stack: list[int] = []
    out: list[int] = []
    events = []
    for ch in steps:
        if ch == ENTER:
            x = next(letters)
            stack.append(x)
        else:
            x = stack.pop()
            out.append(x)
        events.append(TraceEvent(ch, x, tuple(reversed(stack)), tuple(out)))
    return tuple(events)


@dataclass(frozen=True)
class Clumping:
    """Decomposition of a word around its earliest blocking occurrence.

    segments holds (a_0, ..., a_k): a_0 is the (possibly empty) prefix before
    the first witness letter, each later segment starts at a witness letter,
    and the segments concatenate back to the source word.  witness_indices
    are the 0-based positions of the witness letters; their letters, read
    left to right, form an occurrence of reverse(witness_pattern).
    """

    segments: tuple[Word, ...]
    witness_pattern: Word
    witness_indices: tuple[int, ...]


def clumping(w: Word, tset: PatternSet) -> Clumping | None:
    """None when w avoids every reversed pattern of the set; otherwise the
    unique decomposition induced by the colexicographically least occurrence
    of some reversed pattern.

    Index tuples compare by last index, then second-to-last, and so on; a
    tuple exhausted while still tied is the smaller (this extends the order
    to sets with patterns of mixed lengths).  Should two patterns ever match
    the same least tuple, the lexicographically least pattern is stored; in
    fact one index tuple determines its pattern, so this is cosmetic.

    The colex-least occurrence of reverse(sigma) in w is, read with each
    index j as n-1-j, the lex-greatest occurrence of sigma in reverse(w):
    the first hit of the occurrence search tried from the right.  So each
    pattern costs one search that stops at its first hit.
    """
    n, rev = len(w), reverse(w)
    best_key = None
    best: tuple[Word, tuple[int, ...]] | None = None
    for sigma in tset:  # sorted, so the pattern tie-break is deterministic
        chosen: list[int] = []
        if _extend_occurrences(rev, *_tightest_bounds(sigma), chosen, 0, from_right=True):
            key = tuple(n - 1 - j for j in chosen)
            if best_key is None or key < best_key:
                best_key, best = key, (sigma, key[::-1])
    if best is None:
        return None
    sigma, idxs = best
    cuts = list(idxs) + [len(w)]
    segments = [w[: idxs[0]]]
    segments.extend(w[cuts[j] : cuts[j + 1]] for j in range(len(idxs)))
    return Clumping(tuple(segments), sigma, idxs)


def sort_recursive(w: Word, tset: PatternSet) -> Word:
    """Evaluate the machine through its clumping recurrence instead of
    simulating it: a word avoiding all reversed patterns just reverses;
    otherwise the next-to-last segment pops out reversed and the rest
    re-enters as a fresh input."""
    c = clumping(w, tset)
    if c is None:
        return reverse(w)
    segs = c.segments
    rest = sum(segs[:-2], ()) + segs[-1]
    return reverse(segs[-2]) + sort_recursive(rest, tset)


def is_movement_sequence(steps: str) -> bool:
    """Dyck validity: no prefix pops more than it pushed, totals balance."""
    h = 0
    for ch in steps:
        if ch == ENTER:
            h += 1
        elif ch == EXIT:
            h -= 1
            if h < 0:
                return False
        else:
            return False
    return h == 0


def movement_sequences(semilength: int) -> Iterator[str]:
    """All balanced step strings of the given semilength, lexicographically
    (N before X); there are catalan(semilength) of them."""
    if semilength < 0:
        raise ValueError("semilength must be nonnegative")
    yield from _balanced_completions("", semilength, 0)


def _balanced_completions(prefix: str, enters: int, height: int) -> Iterator[str]:
    """Every balanced completion of prefix, N before X, with `enters` enters
    still to make over a stack `height` high."""
    if not enters and not height:
        yield prefix
    if enters:
        yield from _balanced_completions(prefix + ENTER, enters - 1, height + 1)
    if height:
        yield from _balanced_completions(prefix + EXIT, enters, height - 1)


def legal_movement_sequences(n: int, k: int) -> Iterator[str]:
    """Every candidate step string for sorting a length-n word when the
    shortest forbidden pattern has length k; catalan(n - k + 2) in all."""
    pad = k - 2
    if n < pad:
        raise ValueError(f"no shaped sequences of semilength {n} for k={k}")
    head, tail = ENTER * pad, EXIT * pad
    for core in movement_sequences(n - pad):
        yield head + core + tail


def reconstruct_input(out: Word, steps: str) -> Word:
    """Play steps backwards from an output, rebuilding the one input that
    yields `out` if the machine were to follow `steps` on it.

    The result is only a candidate: the greedy machine may refuse to follow
    `steps` on it, so callers must re-sort it and compare.
    """
    if len(steps) != 2 * len(out) or not is_movement_sequence(steps):
        raise ValueError("steps must be balanced and match the output length")
    output = list(out)
    stack: list[int] = []
    rev_input: list[int] = []
    for ch in reversed(steps):
        if ch == EXIT:
            stack.append(output.pop())
        else:
            rev_input.append(stack.pop())
    return tuple(reversed(rev_input))
