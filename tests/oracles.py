"""Brute-force oracles the tests compare the library with.

Each is a straight transcription of a definition, written once.  Only
machine_sort runs permstack's machine, for its first stage, the pattern
stack that naive_sort checks.  The pattern-set oracles build permstack
pattern sets, and is_legal_movement_sequence takes permstack's Dyck test
for its core.
"""

import itertools

from permstack.machine import ENTER, EXIT, is_movement_sequence, sort
from permstack.words import pattern_set


def isomorphic(u, v):
    # the definition, verbatim: both relation families must transfer
    if len(u) != len(v):
        return False
    idx = range(len(u))
    return all(
        (u[i] < u[j]) == (v[i] < v[j]) and (u[i] > u[j]) == (v[i] > v[j])
        for i in idx
        for j in idx
    )


def pattern_of(w):
    # rank the letters to 1..u, ties kept equal: two words are order
    # isomorphic exactly when their patterns agree
    rank = {v: i + 1 for i, v in enumerate(sorted(set(w)))}
    return tuple(rank[x] for x in w)


def occurrences(w, p):
    # exhaustive index-subset scan, in lexicographic order
    return (
        idx
        for idx in itertools.combinations(range(len(w)), len(p))
        if isomorphic(tuple(w[i] for i in idx), p)
    )


def contains(w, p):
    return next(occurrences(w, p), None) is not None


def naive_trace(w, patterns):
    # straight transcription of the push rule: keep the stack (read top to
    # bottom, candidate on top) free of every pattern, else pop; logs
    # (step, letter, stack top to bottom, output) after every move
    out, stack, events = [], [], []  # stack[0] is the top
    for x in w:
        while stack and any(contains([x] + stack, p) for p in patterns):
            out.append(stack.pop(0))
            events.append(("X", out[-1], tuple(stack), tuple(out)))
        stack.insert(0, x)
        events.append(("N", x, tuple(stack), tuple(out)))
    while stack:
        out.append(stack.pop(0))
        events.append(("X", out[-1], tuple(stack), tuple(out)))
    return events


def naive_sort(w, patterns):
    events = naive_trace(w, patterns)
    return events[-1][3] if events else ()


def textbook_stack_sort(w):
    # the classical stack: pop while the top is smaller than the incoming
    # letter, then push; drain at the end
    out, stack = [], []
    for x in w:
        while stack and stack[-1] < x:
            out.append(stack.pop())
        stack.append(x)
    out.extend(reversed(stack))
    return tuple(out)


def machine_sort(w, first, second):
    # the two-stage machine: the stack avoiding {first, second}, then the
    # classical stack
    return textbook_stack_sort(sort(w, pattern_set(first, second)))


def naive_machine_count(first, second, n):
    # an independent two-stage machine: list-based stack, combinations scan
    target = tuple(range(1, n + 1))
    return sum(
        1
        for p in itertools.permutations(range(1, n + 1))
        if naive_sort(naive_sort(p, [first, second]), [(2, 1)]) == target
    )


def reversed_patterns(tset):
    # each forbidden pattern read right to left
    return {p[::-1] for p in tset}


def reduce_patterns(patterns):
    """Drop every pattern that contains another member; the reduced set
    drives the same machine.

    >>> sorted(reduce_patterns([(2, 1), (3, 2, 1), (2, 3, 1)]))
    [(2, 1)]
    """
    pats = pattern_set(*patterns).patterns
    return pattern_set(*(p for p in pats if not any(q != p and contains(p, q) for q in pats)))


def is_legal_movement_sequence(steps, n, tset):
    # the shape of a length-n sort's steps: with k the shortest forbidden
    # pattern length, the first k-2 steps enter, the last k-2 exit, and the
    # core in between is balanced on its own
    pad = tset.min_len - 2
    return (
        len(steps) == 2 * n
        and n >= pad
        and steps[:pad] == ENTER * pad
        and steps[len(steps) - pad :] == EXIT * pad
        and is_movement_sequence(steps[pad : len(steps) - pad])
    )
