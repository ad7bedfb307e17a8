"""The stack machine, its trace, the clumping recurrence, and movement
sequences, checked against hand traces and independent oracles."""

import itertools
import operator
import time

import pytest
from hypothesis import given, strategies as st

from oracles import naive_sort, naive_trace, pattern_of, textbook_stack_sort
from permstack import machine
from permstack.dynamics import MEMO_MIN_LEFT, preimages, sort_images
from permstack.machine import (
    TraceEvent,
    _back,
    _can_push,
    _enter,
    _push,
    _push_keeps_avoiding,
    clumping,
    is_legal_movement_sequence,
    is_movement_sequence,
    legal_movement_sequences,
    movement_sequences,
    reconstruct_input,
    sort,
    sort_recursive,
    sort_with_trace,
)
from permstack.words import (
    avoids_all,
    catalan,
    contains,
    enumerate_permutations,
    pattern_set,
    reverse,
)

T_MAIN = pattern_set("123", "132")
CLASSICAL = pattern_set("21")


def test_sort_hand_traces():
    assert sort((1, 3, 2), CLASSICAL) == (1, 2, 3)
    assert sort((5, 2, 4, 1, 3), T_MAIN) == (4, 2, 3, 1, 5)
    assert sort((7, 3, 1, 4, 2, 6), T_MAIN) == (3, 4, 6, 2, 1, 7)
    assert sort((), T_MAIN) == ()
    assert sort((1,), T_MAIN) == (1,)


def test_sort_reverses_when_no_reversed_pattern_fits():
    for tset in (T_MAIN, pattern_set("213", "231"), CLASSICAL):
        rev = tset.reversed()
        for n in range(0, 6):
            for p in enumerate_permutations(n):
                if avoids_all(p, rev):
                    assert sort(p, tset) == reverse(p)


def test_sort_accepts_words_with_repeats():
    assert sort((1, 1), CLASSICAL) == (1, 1)
    assert sort((2, 2, 1), CLASSICAL) == (1, 2, 2)
    assert sort((3, 1, 3, 2), T_MAIN) == sort_recursive((3, 1, 3, 2), T_MAIN)


def test_trace_figure_steps():
    out, steps, events = sort_with_trace((1, 3, 2), CLASSICAL)
    assert out == (1, 2, 3)
    assert steps == "NXNNXX"
    assert len(events) == 6
    assert events[0] == TraceEvent("N", 1, (1,), ())
    assert events[-1].stack == ()
    assert events[-1].output == (1, 2, 3)


def test_trace_two_letter_word():
    out, steps, _ = sort_with_trace((2, 1), T_MAIN)
    assert steps == "NNXX"
    assert out == (1, 2)


@pytest.mark.parametrize("n", range(0, 6))
def test_trace_invariants(n):
    for p in enumerate_permutations(n):
        out, steps, events = sort_with_trace(p, T_MAIN)
        assert sorted(out) == sorted(p)
        assert len(steps) == 2 * n
        assert is_movement_sequence(steps)
        assert "".join(ev.step for ev in events) == steps
        assert out == sort(p, T_MAIN)
        if n:
            assert events[-1].stack == ()
            assert events[-1].output == out


def test_padded_steps_for_long_min_pattern():
    tset = pattern_set("3241", "2143")
    for p in enumerate_permutations(5):
        steps = sort_with_trace(p, tset)[1]
        assert steps.startswith("NN") and steps.endswith("XX")
        # the first two letters sit at the stack bottom until the end
        assert sort(p, tset)[-2:] == (p[1], p[0])


@given(st.lists(st.integers(1, 6), max_size=7))
def test_sort_is_rearrangement(letters):
    w = tuple(letters)
    out, steps, _ = sort_with_trace(w, T_MAIN)
    assert sorted(out) == sorted(w)
    assert is_movement_sequence(steps)


def test_classical_specialization_matches_textbook():
    for n in range(0, 8):
        for p in enumerate_permutations(n):
            assert sort(p, CLASSICAL) == textbook_stack_sort(p)


TRACE_SETS = st.sampled_from(
    [pattern_set("123", "2143"), pattern_set("21", "1234"), T_MAIN, pattern_set("3241")]
)


def assert_runs_as_naive_machine(w, tset):
    out, steps, events = sort_with_trace(w, tset)
    expected = naive_trace(w, sorted(tset))
    assert [(ev.step, ev.letter, ev.stack, ev.output) for ev in events] == expected
    assert steps == "".join(ev[0] for ev in expected)
    assert out == sort(w, tset) == (expected[-1][3] if expected else ())


@given(st.lists(st.integers(1, 5), max_size=9), TRACE_SETS)
def test_trace_matches_naive_machine_step_by_step(letters, tset):
    assert_runs_as_naive_machine(tuple(letters), tset)


@given(st.lists(st.sampled_from([1, 2, 2**64, 2**64 + 1, 10**30]), max_size=9), TRACE_SETS)
def test_letters_past_any_bitmask_width_sort_as_the_naive_machine(letters, tset):
    # the word stack slots letters by bisecting its sorted letters, which
    # takes repeats and letters of any size, where 1 << x could not
    assert_runs_as_naive_machine(tuple(letters), tset)


def word_stack(patterns):
    # the lists of an empty word stack: letters, states, letters sorted
    return [], [machine._root(patterns)], []


def oracle_admits(x, letters, tset):
    # the push test before push tables: rank the whole stack, x on top
    return not any(contains(pattern_of((x, *reversed(letters))), p) for p in tset)


@given(
    st.lists(st.one_of(st.integers(1, 6), st.none()), max_size=30),
    st.sampled_from(
        [pattern_set("21", "1234"), pattern_set("123", "2143"), pattern_set("3241"),
         pattern_set("2413", "3142")]
    ),
)
def test_push_table_matches_pattern_of_oracle(moves, tset):
    # moves: a letter enters (popping as the machine does), None pops the top.
    # On fresh tables every entry checked comes from the miss path, and the
    # repeated letters reach the odd slots, where x equals a stack letter.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine, "_tables", {})
        mp.setattr(machine, "_states_held", 0)
        patterns = tset.patterns
        stack, states, ranked = word_stack(patterns)
        for move in moves:
            letters = list(stack)
            if move is None:
                if letters:
                    ranked.remove(stack.pop())
                    states.pop()
                continue
            for x in range(1, 8):  # every candidate, letters on the stack included
                admits = oracle_admits(x, letters, tset)
                assert _push_keeps_avoiding(x, patterns, stack) == admits
                assert (_can_push(x, patterns, stack, states, ranked) is not False) == admits
            assert stack == letters
            expected, expected_out = list(letters), []
            while expected and not oracle_admits(move, expected, tset):
                expected_out.append(expected.pop())
            out = []
            _enter(move, patterns, stack, states, ranked, out)
            assert out == expected_out
            assert stack == expected + [move]
            assert ranked == sorted(stack)
            assert len(states) == len(stack) + 1


def entered(mp, root, tset, word):
    # the word stack's lists from `root`, (letters, states, ranked), and the
    # output, once _enter has run on each letter of word
    mp.setattr(machine, "_tables", {tset.patterns: root})
    stack, out = word_stack(tset.patterns), []
    for x in word:
        _enter(x, tset.patterns, *stack, out)
    return stack, out


def counters():
    return machine._lookups, machine._misses


@given(
    st.permutations(range(1, 8)),
    st.lists(st.one_of(st.integers(0, 6), st.none()), max_size=30),
    st.sampled_from(
        [pattern_set("21", "1234"), pattern_set("123", "2143"), pattern_set("3241"),
         pattern_set("2413", "3142")]
    ),
)
def test_push_and_back_match_stack_and_enter(perm, moves, tset):
    # moves: an integer i pushes the letter of perm at index i among those
    # not yet entered, None takes the last push back.  _push fills the
    # table at `root`; _enter, replaying the input so far, fills a twin
    # table in step with it, so both start each push from the same
    # entries, and a replay on `root`, all hits, gives the states _push
    # must have reached
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(machine, "_states_held", 0)
        root, twin = {}, {}
        letters, states, spent, out = [], [root], [], []
        mask, word, saved = 0, [], []
        for move in moves:
            if move is None:
                if saved:
                    h, mask, before = saved.pop()
                    word.pop()
                    _back(h, letters, states, spent, out)
                    assert (letters, out) == (before[0], before[3])
                    for now, was in zip((states, spent), before[1:3]):
                        assert len(now) == len(was)
                        assert all(map(operator.is_, now, was))
                continue
            left = [x for x in perm if x not in word]
            if not left:
                continue
            x = left[move % len(left)]
            stack, expected_out = entered(mp, twin, tset, word)
            start = counters()
            _enter(x, tset.patterns, *stack, expected_out)
            expected = [b - a for a, b in zip(start, counters())]
            saved.append((len(letters), mask, (letters[:], states[:], spent[:], out[:])))
            word.append(x)
            start = counters()
            mask = _push(x, mask, tset.patterns, letters, states, spent, out)
            assert [b - a for a, b in zip(start, counters())] == expected
            assert (letters, out) == (stack[0], expected_out)
            assert mask == sum(1 << y for y in letters)
            (_, replayed, _), _ = entered(mp, root, tset, word)
            assert len(states) == len(replayed)
            assert all(map(operator.is_, states, replayed))


def fresh_tables(monkeypatch):
    monkeypatch.setattr(machine, "_tables", {})
    monkeypatch.setattr(machine, "_states_held", 0)


def test_deep_chain_resolves_without_scanning_the_stack(monkeypatch):
    # each even letter lands on a 2134-free decreasing chain, and 1 then
    # misses on every one of its 1,200 frames; the search for occurrences
    # through each frame's top is all that runs, so this takes milliseconds
    # where a search of the whole stack per push takes seconds
    fresh_tables(monkeypatch)
    start = time.perf_counter()
    out = sort(tuple(range(2, 2401, 2)) + (1,), pattern_set("2134"))
    assert time.perf_counter() - start < 1
    assert out == (1, *range(2400, 1, -2))


EXHAUSTIVE_SETS = [
    pattern_set(*subset)
    for size in range(1, 7)
    for subset in itertools.combinations(itertools.permutations((1, 2, 3)), size)
] + [pattern_set(p) for p in itertools.permutations((1, 2, 3, 4))]


@pytest.mark.parametrize("tset", EXHAUSTIVE_SETS, ids=lambda t: ",".join(
    "".join(map(str, p)) for p in t))
def test_push_tables_from_scratch_match_oracles(monkeypatch, tset):
    # fresh tables, so every entry the sweep and the preimage walks read
    # was filled by the miss path with distinct letters
    fresh_tables(monkeypatch)
    pats = sorted(tset)
    for n in range(7):
        perms = list(enumerate_permutations(n))
        images = sort_images(tset, n)
        assert images == [naive_sort(p, pats) for p in perms]
        table = {}
        for p, img in zip(perms, images):
            table.setdefault(img, set()).add(p)
        assert all(preimages(gamma, tset) == table.get(gamma, set()) for gamma in perms)


def test_push_table_reports_hits_and_misses(monkeypatch):
    w = (4, 1, 4, 2, 4, 3, 1, 5, 2, 6)
    steps = sort_with_trace(w, T_MAIN)[1]
    # one push test per letter, one more per pop before the stack drains
    tests = len(w) + steps[: steps.rindex("N")].count("X")
    monkeypatch.setattr(machine, "_tables", {})
    monkeypatch.setattr(machine, "_states_held", 0)
    info = machine._push_keeps_avoiding.cache_info
    start = info()
    sort(w, T_MAIN)
    first = info()
    sort(w, T_MAIN)  # the same push tests again: every one a hit
    second = info()
    assert first.hits + first.misses - start.hits - start.misses == tests
    assert second.misses == first.misses
    assert second.hits - first.hits == tests
    assert 0 < second.currsize == first.currsize <= first.misses - start.misses
    assert second.maxsize == machine.STATE_BUDGET


def test_state_budget_reset_keeps_outputs(monkeypatch):
    sets = [pattern_set("2134"), T_MAIN]
    words = [(3, 1, 3, 2, 2, 5, 1, 4), (2, 2, 1, 1, 3, 3), (4, 1, 4, 2, 4, 3, 1, 5, 2)]

    def outputs():
        images = [sort_images(tset, n) for tset in sets for n in range(8)]
        return images, [sort_with_trace(w, tset) for tset in sets for w in words]

    expected = outputs()
    resets = []

    class Tables(dict):
        def clear(self):
            resets.append(len(self))
            super().clear()

    monkeypatch.setattr(machine, "STATE_BUDGET", 8)
    monkeypatch.setattr(machine, "_tables", Tables())
    monkeypatch.setattr(machine, "_states_held", 0)
    assert outputs() == expected
    assert resets
    # a run under way keeps its table when another run starts fresh ones
    w = words[2]
    stack, out = word_stack(T_MAIN.patterns), []
    for x in w[:4]:
        _enter(x, T_MAIN.patterns, *stack, out)
    before = len(resets)
    sort_images(T_MAIN, 5)
    assert len(resets) > before
    for x in w[4:]:
        _enter(x, T_MAIN.patterns, *stack, out)
    assert tuple(out) + tuple(reversed(stack[0])) == sort(w, T_MAIN)


def classical_sweep_push_tests(n):
    # the prefix tree of S_n replayed on a plain list stack: each entered
    # letter costs one test per pop it forces plus the test that admits it.
    # Like the sweep, each first letter's subtree keeps a memo, and a
    # subtree whose order pattern (how many letters are left, and each
    # stack letter's rank among the letters left and stacked) was seen
    # before with MEMO_MIN_LEFT or more letters left is not walked again,
    # so it costs no test
    tests = 0

    def walk(rest, stack, seen):
        nonlocal tests
        if len(rest) >= MEMO_MIN_LEFT:
            key = (len(rest), tuple(sorted(rest | set(stack)).index(y) for y in stack))
            if key in seen:
                return
            seen.add(key)
        for x in sorted(rest):
            below = list(stack)
            while below and below[-1] < x:
                below.pop()
                tests += 1
            tests += 1
            walk(rest - {x}, below + [x], seen)

    for first in range(1, n + 1):
        tests += 1
        walk(frozenset(range(1, n + 1)) - {first}, [first], set())
    return tests


def test_sweep_undo_makes_no_push_test():
    for n in (6, 8):
        before = machine._lookups
        sort_images(CLASSICAL, n)
        assert machine._lookups - before == classical_sweep_push_tests(n)


@pytest.mark.parametrize(
    "tset",
    [
        CLASSICAL,
        pattern_set("12"),
        T_MAIN,
        pattern_set("213", "231"),
        pattern_set("3241"),
        pattern_set("21", "123"),
    ],
)
def test_sort_matches_definition_transcription(tset):
    pats = sorted(tset)
    for n in range(0, 6):
        for p in enumerate_permutations(n):
            assert sort(p, tset) == naive_sort(p, pats)


# --- clumping ---------------------------------------------------------------


def colex_key(idxs):
    return tuple(reversed(idxs))


def oracle_clumping_witness(w, tset):
    # exhaustive scan over all occurrences of every reversed pattern
    best = None
    for sigma in tset:
        for idxs in itertools.combinations(range(len(w)), len(sigma)):
            letters = tuple(w[i] for i in idxs)
            if sorted(letters) != sorted(set(letters)):
                continue
            rank = {v: r + 1 for r, v in enumerate(sorted(letters))}
            if tuple(rank[v] for v in letters) != reverse(sigma):
                continue
            if best is None or colex_key(idxs) < colex_key(best[1]):
                best = (sigma, idxs)
    return best


def test_clumping_hand_cases():
    c = clumping((7, 3, 1, 4, 2, 6), T_MAIN)
    assert c.segments == ((), (7,), (3,), (1, 4, 2, 6))
    assert c.witness_pattern == (1, 2, 3)
    assert c.witness_indices == (0, 1, 2)

    assert clumping((3, 1, 2), pattern_set("123")) is None

    c = clumping((3, 2, 1), pattern_set("123"))
    assert c.segments == ((), (3,), (2,), (1,))
    assert c.witness_indices == (0, 1, 2)


def test_clumping_none_iff_avoiding_reversed():
    for tset in (T_MAIN, pattern_set("213", "231")):
        rev = tset.reversed()
        for p in enumerate_permutations(5):
            assert (clumping(p, tset) is None) == avoids_all(p, rev)


CLUMPING_SETS = [
    T_MAIN,
    pattern_set("213", "231"),
    pattern_set("132"),
    pattern_set("21", "321"),
    pattern_set("123", "2143"),
    pattern_set("2413", "3142"),
]


@pytest.mark.parametrize("tset", CLUMPING_SETS)
def test_clumping_well_formed_small(tset):
    for n in range(0, 7):
        for p in enumerate_permutations(n):
            c = clumping(p, tset)
            if c is None:
                continue
            assert sum(c.segments, ()) == p
            witness = tuple(p[i] for i in c.witness_indices)
            rank = {v: r + 1 for r, v in enumerate(sorted(witness))}
            assert tuple(rank[v] for v in witness) == reverse(c.witness_pattern)
            sigma, idxs = oracle_clumping_witness(p, tset)
            assert c.witness_indices == idxs


@pytest.mark.parametrize("tset", CLUMPING_SETS)
def test_clumping_matches_scan_on_words_with_repeats(tset):
    for length in range(7):
        for w in itertools.product((1, 2, 3, 4), repeat=length):
            c = clumping(w, tset)
            expected = oracle_clumping_witness(w, tset)
            assert (c and (c.witness_pattern, c.witness_indices)) == expected


@given(
    st.integers(8, 16).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.sampled_from(CLUMPING_SETS),
)
def test_clumping_matches_scan_on_long_permutations(p, tset):
    p = tuple(p)
    c = clumping(p, tset)
    expected = oracle_clumping_witness(p, tset)
    assert (c and (c.witness_pattern, c.witness_indices)) == expected


def test_clumping_colex_scan_at_seven():
    for p in itertools.islice(enumerate_permutations(7), 0, 5040, 7):
        c = clumping(p, T_MAIN)
        expected = oracle_clumping_witness(p, T_MAIN)
        if c is None:
            assert expected is None
            continue
        assert (c.witness_pattern, c.witness_indices) == expected


def test_mixed_length_pattern_sets_clump_and_sort_consistently():
    tset = pattern_set("21", "321")  # not reduced: 321 can never fire first
    reduced = pattern_set("21")
    for p in enumerate_permutations(5):
        assert sort(p, tset) == sort(p, reduced)
        assert sort_recursive(p, tset) == sort(p, reduced)


def test_reduction_preserves_sorting():
    from permstack.words import reduce_patterns

    tset = pattern_set("21", "321", "231")
    reduced = reduce_patterns(["21", "321", "231"])
    assert sorted(reduced) == [(2, 1)]
    for n in range(0, 7):
        for p in enumerate_permutations(n):
            assert sort(p, tset) == sort(p, reduced)


def test_sort_recursive_hand_case():
    assert sort_recursive((3, 2, 1), pattern_set("123")) == (2, 1, 3)
    assert sort_recursive((5, 2, 4, 1, 3), T_MAIN) == (4, 2, 3, 1, 5)


def test_bottom_of_stack_law():
    # min pattern length k: the first k-2 letters come out last, reversed
    for tset, k in ((pattern_set("3241", "2143"), 4), (T_MAIN, 3)):
        for n in range(k - 2, 7):
            for p in enumerate_permutations(n):
                out = sort(p, tset)
                head = p[: k - 2]
                assert out[len(out) - (k - 2) :] == tuple(reversed(head))


# --- movement sequences ------------------------------------------------------


def test_is_movement_sequence():
    assert is_movement_sequence("")
    assert is_movement_sequence("NX")
    assert is_movement_sequence("NNXX")
    assert not is_movement_sequence("XN")
    assert not is_movement_sequence("NXX")
    assert not is_movement_sequence("NXQ")
    assert not is_movement_sequence("N")


@pytest.mark.parametrize("h", range(0, 8))
def test_movement_sequence_counts(h):
    seqs = list(movement_sequences(h))
    assert len(seqs) == catalan(h)
    assert len(set(seqs)) == len(seqs)
    assert all(is_movement_sequence(s) for s in seqs)
    assert seqs == sorted(seqs)


def test_legal_movement_sequences():
    tset = pattern_set("3241", "2143")
    assert is_legal_movement_sequence("NNNXNXNXXX", 5, tset)
    assert not is_legal_movement_sequence("NXNNNXNXXX", 5, tset)
    assert not is_legal_movement_sequence("NNXXNNNXXX", 5, tset)  # core dips below pad
    assert not is_legal_movement_sequence("NNNXNXNXXX", 4, tset)
    for n, k in ((4, 2), (5, 3), (6, 4), (2, 4)):
        seqs = list(legal_movement_sequences(n, k))
        assert len(seqs) == catalan(n - k + 2)
        ts = pattern_set("".join(str(i) for i in range(k, 0, -1)))
        assert all(is_legal_movement_sequence(s, n, ts) for s in seqs)
    with pytest.raises(ValueError):
        list(legal_movement_sequences(1, 4))


def test_every_trace_is_legal():
    for tset in (T_MAIN, pattern_set("3241", "2143")):
        k = tset.min_len
        for n in range(k - 2, 6):
            for p in enumerate_permutations(n):
                assert is_legal_movement_sequence(sort_with_trace(p, tset)[1], n, tset)


def test_reconstruct_input_hand_case():
    assert reconstruct_input((1, 2, 3), "NXNNXX") == (1, 3, 2)


def test_reconstruct_all_in_all_out_reverses():
    for n in range(0, 6):
        for p in enumerate_permutations(n):
            assert reconstruct_input(reverse(p), "N" * n + "X" * n) == p


@pytest.mark.parametrize("tset", [pattern_set("213", "231"), T_MAIN, CLASSICAL])
def test_reconstruct_round_trips_through_trace(tset):
    for n in range(0, 5):
        for p in enumerate_permutations(n):
            out, steps, _ = sort_with_trace(p, tset)
            assert reconstruct_input(out, steps) == p


def test_reconstruct_input_validates():
    with pytest.raises(ValueError):
        reconstruct_input((1, 2), "NX")
    with pytest.raises(ValueError):
        reconstruct_input((1, 2), "XXNN")
