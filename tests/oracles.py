"""Brute-force oracles the tests compare the library with.

Each is a straight transcription of a definition, written once.  Only
machine_sort calls into permstack, for its first stage, the pattern stack
that naive_sort checks.
"""

import itertools

from permstack.machine import sort
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
