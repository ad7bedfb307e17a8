"""Global map analysis: bijectivity, the two-stage machine, preimages and
fertility, extremal constructions, complement conjugation, and orbits."""

import gc
import itertools
import multiprocessing
import os
from collections import Counter
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import machine_sort
from permstack import dynamics as dyn, machine, words
from permstack.machine import clumping, legal_movement_sequences, sort, sort_recursive
from permstack.verify import (
    COMPLEMENT_SETS,
    RECURSION_SETS,
    SUITES,
    _small_pattern_sets,
    run_suites,
)
from permstack.words import (
    catalan,
    complement,
    contains,
    enumerate_avoiders,
    enumerate_permutations,
    identity,
    pattern_set,
    reverse,
    reverse_identity,
)

T_MAIN = pattern_set("123", "132")
S3 = list(itertools.permutations((1, 2, 3)))


# --- sweeps -------------------------------------------------------------------


@pytest.mark.parametrize(
    "tset",
    [T_MAIN, pattern_set("213"), pattern_set("21"), pattern_set("123", "2143")]
    + [t for t in RECURSION_SETS if t not in (T_MAIN, pattern_set("21"))],
)
def test_sort_images_matches_pointwise(tset):
    for n in range(0, 8):
        assert dyn.sort_images(tset, n) == [sort(p, tset) for p in enumerate_permutations(n)]


@pytest.mark.parametrize("tset", [pattern_set("21"), pattern_set("132", "312")])
def test_sort_images_matches_pointwise_at_8(tset):
    # n = 8 is where the sweep's memo copies the most subtrees
    images = [sort(p, tset) for p in enumerate_permutations(8)]
    assert dyn.sort_images(tset, 8) == images


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.integers(2, 5).flatmap(lambda m: st.permutations(range(1, m + 1))),
        min_size=1,
        max_size=3,
    ),
    st.integers(0, 7),
)
def test_sort_images_matches_pointwise_random_sets(patterns, n):
    # the sweep copies a repeated subtree through the order-preserving map
    # between two different sets of letters not yet out; random sets reach
    # stack shapes the fixed sets above do not
    tset = pattern_set(*map(tuple, patterns))
    assert dyn.sort_images(tset, n) == [sort(p, tset) for p in enumerate_permutations(n)]


def test_sort_images_guard():
    with pytest.raises(ValueError):
        dyn.sort_images(T_MAIN, 13)


# --- bijectivity ----------------------------------------------------------------


def test_bijectivity_criterion_examples():
    assert dyn.bijectivity_criterion(pattern_set("132", "312"))
    assert not dyn.bijectivity_criterion(pattern_set("123"))
    assert dyn.bijectivity_criterion(pattern_set("123", "213", "132", "312"))
    assert not dyn.bijectivity_criterion(pattern_set("21"))


def test_verify_bijective_finds_known_collisions():
    res = dyn.verify_bijective(pattern_set("123"), 3)
    assert res is not True
    a, b = res
    assert a != b and sort(a, pattern_set("123")) == sort(b, pattern_set("123"))
    # the reversed pattern and its swapped form collide onto the swap
    table = dyn.preimage_map(pattern_set("123"), 3)
    assert {(3, 2, 1), (3, 1, 2)} <= table[(2, 1, 3)]

    res = dyn.verify_bijective(pattern_set("21"), 3)
    assert res is not True
    # the classical stack sends all five 231-avoiders to the identity
    table = dyn.preimage_map(pattern_set("21"), 3)
    assert table[(1, 2, 3)] == {(1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (3, 2, 1)}
    assert table[(2, 1, 3)] == {(2, 3, 1)}


# {123}, not swap-closed, and {123,213}, swap-closed, each id its place in
# _small_pattern_sets(); criterion 4 checks all 22 small sets to n = 7
@pytest.mark.parametrize(
    "tset", [pytest.param(_small_pattern_sets()[i], id=f"tset{i}") for i in (0, 7)]
)
def test_criterion_matches_exhaustive_sweep(tset):
    crit = dyn.bijectivity_criterion(tset)
    injective = all(dyn.verify_bijective(tset, n) is True for n in range(1, 6))
    assert crit == injective


def test_inverse_sort_round_trip():
    tset = pattern_set("123", "213")
    for n in range(0, 7):
        for p in enumerate_permutations(n):
            assert dyn.inverse_sort(sort(p, tset), tset) == p
            assert sort(dyn.inverse_sort(p, tset), tset) == p


def test_inverse_sort_hand_case():
    tset = pattern_set("132", "312")
    assert sort((5, 2, 4, 1, 3), tset) == (4, 1, 3, 2, 5)
    assert dyn.inverse_sort((4, 1, 3, 2, 5), tset) == (5, 2, 4, 1, 3)


def test_inverse_sort_on_reversed_avoider():
    tset = pattern_set("123", "213")
    rev = tset.reversed()
    for w in enumerate_avoiders(5, rev):
        assert dyn.inverse_sort(reverse(w), tset) == w


def test_inverse_sort_rejects_non_bijective_sets():
    with pytest.raises(ValueError):
        dyn.inverse_sort((1, 2, 3), pattern_set("123"))


# --- two-stage machine ---------------------------------------------------------


def test_machine_sort_composition():
    out = machine_sort((5, 2, 4, 1, 3), (1, 3, 2), (3, 1, 2))
    assert out == identity(5)
    stage = sort((5, 2, 4, 1, 3), pattern_set("132", "312"))
    assert out == sort(stage, dyn.CLASSICAL_STACK)
    assert machine_sort((1,), (1, 3, 2), (3, 1, 2)) == (1,)


def test_machine_identity_iff_stage_avoids_231():
    # the classical stack sorts a word to the identity iff it avoids 231
    tset = pattern_set("132", "312")
    for p in enumerate_permutations(5):
        stage = sort(p, tset)
        hit = machine_sort(p, (1, 3, 2), (3, 1, 2)) == identity(5)
        assert hit == (not oracles.contains(stage, (2, 3, 1)))


def test_machine_images_match_machine_sort():
    # the prefix-tree sweep against its definition, pointwise, for all 15 pairs
    for first, second in itertools.combinations(S3, 2):
        tset = pattern_set(first, second)
        for n in range(0, 7):
            assert dyn.machine_images(tset, n) == [
                machine_sort(p, first, second) for p in enumerate_permutations(n)
            ], (first, second, n)


def test_sort_count_matches_machine_images():
    # the walk against its oracle, the sweep through both stacks, also
    # below dyn.WALK_MIN_N where sort_count takes the sweep
    for first, second in itertools.combinations(S3, 2):
        tset = pattern_set(first, second)
        for n in range(0, 8):
            want = dyn.machine_images(tset, n).count(identity(n))
            assert dyn.sort_count(tset, n) == want, (first, second, n)
            if n:
                walk = sum(dyn._sweep(dyn._subtree_count, tset, n, 1))
                assert walk == want, (first, second, n)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.integers(2, 5).flatmap(lambda m: st.permutations(range(1, m + 1))),
        min_size=1,
        max_size=3,
    ),
)
def test_table_walk_matches_machine_images_random_sets(patterns):
    # the walk runs for any pattern set, not only the 15 pairs above
    tset = pattern_set(*map(tuple, patterns))
    for n in range(1, 7):
        walk = sum(dyn._sweep(dyn._subtree_count, tset, n, 1))
        assert walk == dyn.machine_images(tset, n).count(identity(n)), n


def test_sort_count_row_at_eight():
    # frozen from the walk, which agreed once with machine_images at n = 8
    # for all 15 pairs
    row = [dyn.sort_count(pattern_set(*pair), 8) for pair in itertools.combinations(S3, 2)]
    assert row == [1430, 1430, 5168, 2950, 112, 5882, 8558, 1430, 606, 12978, 5882, 4677,
                   13254, 1430, 925]


def test_build_sort_table_small_window():
    # comparison window shrinks with max_n and still matches
    table = dyn.build_sort_table(2)
    for row in table.rows:
        assert row.counts == (1, 2)


def test_build_sort_table_extends_past_reference_window():
    table = dyn.build_sort_table(5)
    rows = {(r.sigma, r.tau): r for r in table.rows}
    # the catalan rows keep tracking catalan(n) beyond the reference window
    for pair in (
        ((1, 2, 3), (1, 3, 2)),
        ((1, 2, 3), (2, 1, 3)),
        ((1, 3, 2), (3, 1, 2)),
        ((2, 3, 1), (3, 2, 1)),
    ):
        assert rows[pair].counts == (1, 2, 5, 14, 42)
        assert rows[pair].is_catalan
    assert sum(r.is_catalan for r in table.rows) == 4


# --- preimages ------------------------------------------------------------------


def test_classical_identity_preimages_are_catalan():
    for n in range(0, 7):
        assert len(dyn.preimages(identity(n), pattern_set("21"))) == catalan(n)


def test_reverse_identity_preimage_structure_for_231_tau():
    tset = pattern_set("231", "213")
    for n in range(3, 6):
        expected = {(1,) + rho for rho in enumerate_avoiders(n - 1, [(2, 1, 3)])}
        shifted = {(p[0],) + tuple(x + 1 for x in p[1:]) for p in expected}
        assert dyn.preimages(reverse_identity(n), tset) == shifted


def brute_preimages(gamma, tset):
    """The slow oracle for preimages: filter all of S_n through sort."""
    return {p for p in enumerate_permutations(len(gamma)) if sort(p, tset) == gamma}


@pytest.mark.parametrize(
    "tset",
    [
        T_MAIN,
        pattern_set("213", "231"),
        pattern_set("213"),
        pattern_set("132"),
        pattern_set("21"),
        pattern_set("2134"),
        pattern_set("1234", "2134"),
        pattern_set("123", "2143"),
        pattern_set("2413", "3142"),
    ],
)
def test_preimage_strategies_agree(tset):
    for n in range(0, 6):
        table = dyn.preimage_map(tset, n)
        k = tset.min_len
        for gamma in enumerate_permutations(n):
            found = dyn.preimages(gamma, tset)
            assert found == dyn._preimages_by_moves(gamma, tset)
            assert found == brute_preimages(gamma, tset) == table.get(gamma, set())
            assert len(found) <= catalan(max(n - k + 2, 0))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(7, 10).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.sampled_from(["itself", "its image", "identity", "reverse identity"]),
    st.sampled_from(
        [pattern_set("21"), pattern_set("213"), pattern_set("2134"), T_MAIN,
         pattern_set("213", "231"), pattern_set("2413", "3142"), pattern_set("123", "2143")]
    ),
)
def test_preimages_match_movement_oracle_at_seven_to_ten(perm, target, tset):
    n = len(perm)
    gamma = {
        "itself": tuple(perm),
        "its image": sort(tuple(perm), tset),
        "identity": identity(n),
        "reverse identity": reverse_identity(n),
    }[target]
    assert dyn.preimages(gamma, tset) == dyn._preimages_by_moves(gamma, tset)


@pytest.mark.parametrize("tset", [pattern_set("132"), pattern_set("21")])
def test_preimage_strategies_agree_at_six(tset):
    # the acceptance gate sweeps the other pattern sets at n = 6
    table = dyn.preimage_map(tset, 6)
    bound = catalan(6 - tset.min_len + 2)
    for i, gamma in enumerate(enumerate_permutations(6)):
        found = dyn.preimages(gamma, tset)
        assert found == table.get(gamma, set())
        assert len(found) <= bound
        if i % 48 in (0, 47):  # the oracle sorts all of S_6 per target: 30 targets
            assert found == brute_preimages(gamma, tset)


def test_preimages_validates():
    with pytest.raises(ValueError):
        dyn.preimages((1, 1), T_MAIN)


def test_preimages_below_pattern_length_is_reverse():
    tset = pattern_set("3241", "2143")
    for n in range(0, 4):
        for gamma in enumerate_permutations(n):
            assert dyn.preimages(gamma, tset) == {reverse(gamma)}


def _cyclic_garbage(call) -> int:
    """How many objects the cycle collector finds after call(), run once
    before to warm up: the push tables are kept across calls."""
    call()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize(
    "call",
    [
        lambda: dyn._subtree_images((pattern_set("2134"), 7, 2)),
        lambda: dyn._subtree_count((pattern_set("132", "231"), 6, 2)),
        lambda: dyn.preimages(identity(8), pattern_set("21")),
    ],
    ids=["image-walk", "table-walk", "preimages"],
)
def test_prefix_walks_leave_no_reference_cycles(call):
    # the walks are plain recursions, not closures that refer to themselves,
    # so reference counting alone frees a memo or a result set on return
    assert _cyclic_garbage(call) == 0


SEARCHED = (3, 1, 2, 5, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: contains(SEARCHED, (2, 1, 3)),
        lambda: contains(SEARCHED, (3, 1, 2), anchored=True),
        lambda: clumping(SEARCHED, T_MAIN),
        lambda: sort_recursive(SEARCHED, T_MAIN),
        lambda: list(legal_movement_sequences(6, 3)),
    ],
    ids=["contains", "contains-anchored", "clumping", "sort_recursive", "movement-sequences"],
)
def test_searches_leave_no_reference_cycles(call):
    # the occurrence search and the movement-sequence enumeration are
    # module-level recursions too
    assert _cyclic_garbage(call) == 0


def test_clumping_stops_at_each_first_hit(monkeypatch):
    # the colex-least witness is one first hit of the search per pattern:
    # 321 in the decreasing word of length 30 takes a few calls, where
    # listing every occurrence visits all C(30, 3) = 4,060 of them
    search, calls = words._extend_occurrences, []

    def counted(*args, **kwargs):
        calls.append(args[4])
        return search(*args, **kwargs)

    monkeypatch.setattr(words, "_extend_occurrences", counted)
    monkeypatch.setattr(machine, "_extend_occurrences", counted)
    c = clumping(reverse_identity(30), pattern_set("123"))
    assert c.witness_indices == (0, 1, 2)
    assert 0 < len(calls) <= 2 * 30


def test_push_misses_leave_no_reference_cycles(monkeypatch):
    # on fresh tables every push test misses, so the sort runs the
    # occurrence search of the miss path
    def sort_on_fresh_tables():
        monkeypatch.setattr(machine, "_tables", {})
        sort((5, 2, 4, 1, 3, 6), pattern_set("2134"))

    assert _cyclic_garbage(sort_on_fresh_tables) == 0


# --- fertility -------------------------------------------------------------------


def test_fertility_bound_guard():
    with pytest.raises(ValueError):
        dyn.fertility_max(pattern_set("3241"), 1)


# --- extremal constructions -------------------------------------------------------


def test_extremal_rejects():
    for build in (dyn.extremal_target, dyn.extremal_family):
        with pytest.raises(ValueError):
            build((1, 3, 2), 5)  # first two letters not consecutive
        with pytest.raises(ValueError):
            build((2, 1), 5)  # shorter than 3
        with pytest.raises(ValueError):
            build((2, 1, 3), 2)  # n below the pattern length


def test_extremal_target_values():
    assert dyn.extremal_target((2, 1, 3), 5) == (1, 2, 3, 4, 5)
    assert dyn.extremal_target((2, 3, 1), 5) == (5, 4, 3, 2, 1)
    assert dyn.extremal_target((3, 2, 4, 1), 6) == (2, 3, 4, 5, 6, 1)
    from permstack.words import is_permutation

    for sigma in [(2, 1, 3), (2, 3, 1), (3, 2, 1), (1, 2, 3), (3, 2, 4, 1)]:
        for n in range(len(sigma), 8):
            assert is_permutation(dyn.extremal_target(sigma, n))


@pytest.mark.parametrize("n", range(3, 8))
def test_extremal_family_213_shape(n):
    # with the sharpness suite's preimages(target) == family, this gives the
    # identity's preimages under {213}: n, then a 231-avoider
    assert dyn.extremal_target((2, 1, 3), n) == identity(n)
    fam = dyn.extremal_family((2, 1, 3), n)
    assert fam == {(n,) + rho for rho in enumerate_avoiders(n - 1, [(2, 3, 1)])}


# --- complement conjugation ---------------------------------------------------------


def test_complement_conjugation_pointwise():
    # the complement suite sweeps n >= 1; the empty word is checked here
    assert all(dyn.complement_conjugation_check(t, 0) for t in COMPLEMENT_SETS)
    tset = pattern_set("123", "132")
    comp = tset.complemented()
    assert sorted(comp) == [(3, 1, 2), (3, 2, 1)]
    for p in enumerate_permutations(5):
        assert sort(complement(p), comp) == complement(sort(p, tset))


# --- periodicity ------------------------------------------------------------------


def test_half_decreasing_examples():
    assert dyn.is_half_decreasing((5, 6, 3, 4, 2, 7, 1, 8))
    assert dyn.is_half_decreasing((9, 4, 7, 3, 8, 2, 6, 1, 5))
    assert not dyn.is_half_decreasing((7, 8, 9, 3, 4, 2, 6, 1, 5))
    assert not dyn.is_half_decreasing((6, 3, 4, 2, 5, 1))
    assert dyn.is_half_decreasing(())
    assert dyn.is_half_decreasing((1,))
    assert dyn.is_half_decreasing((1, 2)) and dyn.is_half_decreasing((2, 1))
    assert dyn.is_half_decreasing((2, 1, 3)) and dyn.is_half_decreasing((3, 1, 2))
    assert not dyn.is_half_decreasing((1, 2, 3))


def test_half_increasing_is_complement():
    for p in enumerate_permutations(5):
        assert dyn.is_half_increasing(p) == dyn.is_half_decreasing(complement(p))


def test_half_decreasing_step():
    assert dyn.half_decreasing_step((2, 1, 3)) == (3, 1, 2)
    with pytest.raises(ValueError):
        dyn.half_decreasing_step((1, 2, 3))
    with pytest.raises(ValueError):
        dyn.half_decreasing_step((2, 1))


def test_orbit_hand_case():
    rep = dyn.orbit((2, 1, 3), T_MAIN)
    assert rep.tail == ()
    assert set(rep.cycle) == {(2, 1, 3), (3, 1, 2)}
    assert rep.cycle_length == 2


def test_orbit_invariants():
    for p in enumerate_permutations(5):
        rep = dyn.orbit(p, T_MAIN)
        assert rep.start == p
        chain = rep.tail + rep.cycle
        assert chain[0] == p
        for a, b in zip(chain, chain[1:]):
            assert sort(a, T_MAIN) == b
        assert sort(rep.cycle[-1], T_MAIN) == rep.cycle[0]
        assert len(set(rep.tail)) == len(rep.tail)
        assert not set(rep.tail) & set(rep.cycle)
        if dyn.is_half_decreasing(p):
            assert rep.tail == ()
            assert rep.cycle_length == (5 + 2) // 2
        else:
            assert rep.tail != ()


def test_image_size():
    assert dyn.image_size(pattern_set("123"), 3) == 5
    for n in range(1, 6):
        assert dyn.image_size(pattern_set("123", "213"), n) == factorial(n)
        assert dyn.image_size(T_MAIN, n) <= factorial(n)


def test_trivial_periodic_points_only():
    assert dyn.trivial_periodic_points_only(pattern_set("132", "213"), 5) == (True, None)
    ok, witness = dyn.trivial_periodic_points_only(T_MAIN, 5)
    assert not ok
    assert dyn.is_half_decreasing(witness)
    assert witness not in {identity(5), reverse_identity(5)}


# --- parallel workers ---------------------------------------------------------------


def test_parallel_sweeps_match_serial():
    # n = 8, where each worker's sweep memo sees only its own first letters
    imgs = dyn.sort_images(T_MAIN, 8, workers=2)
    assert imgs == dyn.sort_images(T_MAIN, 8)
    rep2 = dyn.fertility_max(pattern_set("213", "231"), 7, workers=2)
    rep1 = dyn.fertility_max(pattern_set("213", "231"), 7)
    assert rep2 == rep1


def test_workers_clamped_to_jobs_and_cpus(monkeypatch):
    # a fake pool records the worker count and maps in this process, so no
    # worker process is ever started
    requested = []

    class RecordingPool:
        def __init__(self, max_workers, initializer):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(dyn, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(dyn.os, "cpu_count", lambda: 64)
    assert dyn.sort_images(T_MAIN, 7, workers=10_000) == dyn.sort_images(T_MAIN, 7)
    monkeypatch.setattr(dyn.os, "cpu_count", lambda: 3)
    assert dyn.image_size(T_MAIN, 7, workers=10_000) == dyn.image_size(T_MAIN, 7)
    monkeypatch.setattr(dyn.os, "cpu_count", lambda: None)
    dyn.sort_images(T_MAIN, 7, workers=10_000)
    monkeypatch.setattr(dyn.os, "cpu_count", lambda: 64)
    # one job per pattern pair
    assert dyn.build_sort_table(7, workers=10_000) == dyn.build_sort_table(7)
    assert requested == [7, 3, 15]


@pytest.fixture
def pools(monkeypatch):
    """Count the pools started and the maps run over them.  Two CPUs, so a
    workers=2 sweep from n = 7 (7! = 5040) up runs over a pool anywhere."""
    counts = Counter()

    class CountingPool(dyn.ProcessPoolExecutor):
        def __init__(self, max_workers, initializer):
            counts["starts"] += 1
            super().__init__(max_workers=max_workers, initializer=initializer)

        def map(self, fn, jobs):
            counts["maps"] += 1
            return super().map(fn, jobs)

    monkeypatch.setattr(dyn, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(dyn.os, "cpu_count", lambda: 2)
    yield counts
    assert multiprocessing.active_children() == []


def test_table_is_one_request_with_one_pool(pools):
    # the 15 rows at max_n = 7 are the jobs of one map
    assert dyn.build_sort_table(7, 2) == dyn.build_sort_table(7)
    assert pools == {"starts": 1, "maps": 1}
    assert multiprocessing.active_children() == []


def test_suite_run_is_one_request_with_one_pool(pools):
    # every suite at max-n 6, the least that pools: sharpness takes its
    # length-4 patterns to n = 7
    names = list(SUITES)
    pooled = run_suites(names, 6, 2)
    assert pools == {"starts": 1, "maps": 1}
    assert multiprocessing.active_children() == []
    # names, verdicts and failure details
    assert pooled == run_suites(names, 6)


def _pid(_):
    return os.getpid()


def _asks_for_workers(n):
    return os.getpid(), dyn._fan_out(_pid, [0, 0], 2, n)


def test_job_asking_for_workers_runs_serially(pools):
    # a worker's own fan-out runs in that worker, so --parallel bounds the
    # process count
    done = dyn._fan_out(_asks_for_workers, [7, 7], 2, 7)
    assert [inner for _, inner in done] == [[pid, pid] for pid, _ in done]
    assert pools == {"starts": 1, "maps": 1}


def test_serial_sweeps_stay_serial_inside_a_request(pools):
    imgs = dyn.sort_images(T_MAIN, 7)
    assert pools["starts"] == 0
    dyn.sort_images(T_MAIN, 6, workers=2)  # 6! is below the pool's threshold
    assert pools["starts"] == 0
    assert dyn.sort_images(T_MAIN, 7, workers=2) == imgs
    assert pools == {"starts": 1, "maps": 1}
    assert multiprocessing.active_children() == []


def _sweep_size(n):
    return len(dyn.sort_images(pattern_set("21"), n))


def test_failed_request_stops_its_pool(pools):
    # n = 13 is over the cap, so that job raises in its worker
    with pytest.raises(ValueError, match="capped"):
        dyn._fan_out(_sweep_size, [7, 13], 2, 7)
    assert pools["starts"] == 1
    assert multiprocessing.active_children() == []
    # the next fan-out starts a pool of its own
    assert dyn.image_size(T_MAIN, 7, workers=2) == dyn.image_size(T_MAIN, 7)
    assert pools["starts"] == 2
    assert multiprocessing.active_children() == []
