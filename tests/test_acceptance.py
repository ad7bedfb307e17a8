"""Acceptance gate: one test per headline claim, each at its stated size.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Each claim is gated here at its stated size; three small-n
sweeps elsewhere restate one: criterion 4 to n=5 in test_dynamics.py,
criterion 5 to n=6 in test_machine.py, and every suite at --max-n 4 in
test_verify.py.
Criteria 3-7, 9, 10 and 12 are thin callers of the verify suite that
states the claim (src/permstack/verify.py), so each is coded once; what a
suite does not assert stays here as a direct line.  Criteria 1, 2, 8 and
11 have no suite and are stated here in full.  Every other expected value
is either a hand-traced constant, a value verified against an independent
oracle from tests/oracles.py, or a closed-form count (catalan / factorial).

The other test files keep what no claim covers: hand cases, unit
properties, error paths, and each fast path compared with its oracle.
test_cli.py pins the stdout of every suite at --max-n 3, and
test_verify.py pins each suite's FAIL details under injected faults.
"""

from math import factorial

from oracles import naive_machine_count
from permstack import dynamics as dyn
from permstack import verify
from permstack.machine import sort, sort_with_trace
from permstack.textio import format_word
from permstack.words import (
    catalan,
    enumerate_avoiders,
    enumerate_permutations,
    identity,
    pattern_set,
    reverse_identity,
)


def passing_suite(name, max_n):
    """Run one verify suite and require every one of its checks to pass."""
    checks = verify.SUITES[name](max_n)
    failed = [(c.name, c.detail) for c in checks if not c.ok]
    assert not failed, failed
    return checks


def test_criterion_01_figure_regression():
    assert sort((1, 3, 2), pattern_set("21")) == (1, 2, 3)
    assert sort_with_trace((1, 3, 2), pattern_set("21"))[1] == "NXNNXX"
    print("PASS criterion 1: classical sort of 132 gives 123 via NXNNXX")


# --- criterion 2: the 15-pair count table ------------------------------------


#: The table at n <= 4 in its printed order: each row's pair, counts,
#: catalan marker and note.  The reference prints ten rows correctly, and
#: their note is exactly "matches reference"; each of the other five need
#: only carry its flag in the note.
TABLE_4 = (
    ("123", "132", (1, 2, 5, 14), True, "matches reference"),
    ("123", "213", (1, 2, 5, 14), True, "matches reference"),
    ("123", "231", (1, 2, 6, 21), False, "twice"),
    ("123", "312", (1, 2, 5, 15), False, "matches reference"),
    ("123", "321", (1, 2, 4, 7), False, "matches reference"),
    ("132", "213", (1, 2, 5, 16), False, "DIFFERS"),
    ("132", "231", (1, 2, 6, 22), False, "no reference"),
    ("132", "312", (1, 2, 5, 14), True, "matches reference"),
    ("132", "321", (1, 2, 4, 10), False, "matches reference"),
    ("213", "231", (1, 2, 6, 23), False, "conflict"),
    ("213", "312", (1, 2, 5, 16), False, "no reference"),
    ("213", "321", (1, 2, 4, 12), False, "matches reference"),
    ("231", "312", (1, 2, 6, 23), False, "matches reference"),
    ("231", "321", (1, 2, 5, 14), True, "matches reference"),
    ("312", "321", (1, 2, 4, 10), False, "matches reference"),
)


def test_criterion_02_sort_table_reproduction():
    table = dyn.build_sort_table(4)
    assert len(table.rows) == len(TABLE_4)
    for row, (sigma, tau, counts, is_catalan, note) in zip(table.rows, TABLE_4):
        pair = (format_word(row.sigma), format_word(row.tau))
        assert pair == (sigma, tau)  # the row order
        assert row.counts == counts, pair
        assert row.is_catalan == is_catalan, pair
        if note == "matches reference":
            assert row.note == note, pair
        else:
            assert note in row.note, pair

    # the reference prints 1,2,5,15 for (132,213), row 5, but every computation
    # route gives 1,2,5,16 (the 16-sequence even appears in the reference
    # under a spurious duplicate label), so this row is typo territory:
    # the tool must report the computed value with a visible discrepancy note
    assert table.rows[5].note.startswith("DIFFERS")
    assert naive_machine_count((1, 3, 2), (2, 1, 3), 4) == 16
    # a row absent from the reference still gets its computed value
    assert naive_machine_count((2, 1, 3), (3, 1, 2), 4) == 16
    print("PASS criterion 2: 15-pair table reproduced; typo rows flagged with notes")


def test_criterion_03_catalan_machine_law():
    checks = passing_suite("machine-catalan", 6)
    assert len(checks) == 3  # sigma = 123, 132, 231, each with its first-two swap
    assert tuple(catalan(n) for n in range(1, 7)) == (1, 2, 5, 14, 42, 132)
    print("PASS criterion 3: swap-closed machines sort catalan(n) permutations, n<=6")


def test_criterion_04_bijectivity_dichotomy():
    checks = passing_suite("bijectivity", 7)
    # 6 single patterns, 15 pairs and {21}; exactly the three swap-closed
    # pairs get the inverse round trip
    assert sum(c.name.startswith("bijectivity criterion vs sweep") for c in checks) == 22
    assert sum(c.name.startswith("inverse round-trip") for c in checks) == 3
    print("PASS criterion 4: criterion == exhaustive injectivity (n<=7); inverses round-trip on S_7")


def test_criterion_05_recursion_oracle():
    assert len(passing_suite("recursion", 7)) == 6
    print("PASS criterion 5: simulation == clumping recursion on S_n, n<=7, six pattern sets")


def test_criterion_06_preimage_bound_and_agreement():
    assert len(passing_suite("bound", 6)) == 3
    print("PASS criterion 6: both preimage strategies agree on S_6; counts within the catalan bound")


def test_criterion_07_sharpness_dichotomy():
    checks = passing_suite("sharpness", 7)
    assert len(checks) == 6 + 24  # every pattern of S_3 to n=7 and of S_4 to n=8
    print("PASS criterion 7: bound met exactly for consecutive-start patterns (S_3 to n=7, S_4 to n=8)")


def test_criterion_08_identity_preimages_of_213_machines():
    for tau in ((2, 3, 1), (3, 2, 1)):
        tset = pattern_set((2, 1, 3), tau)
        for n in range(3, 8):
            expected = {(n,) + rho for rho in enumerate_avoiders(n - 1, [(2, 3, 1)])}
            assert dyn.preimages(identity(n), tset) == expected, (tau, n)
            assert len(expected) == catalan(n - 1)
    for n in range(2, 8):
        rep = dyn.fertility_max(pattern_set("213", "231"), n)
        assert rep.max_count == catalan(n - 1) == rep.bound
        assert rep.witnesses == frozenset({identity(n), reverse_identity(n)})
    print("PASS criterion 8: identity preimages are n-prefixed 231-avoiders; max fertility only at id and its reverse")


def test_criterion_09_complement_conjugation():
    assert len(passing_suite("complement", 6)) == 3
    print("PASS criterion 9: complement conjugation holds pointwise on S_6 for three pattern sets")


def test_criterion_10_periodic_structure():
    # the suite covers n = 1..7: periodic = half-decreasing, the cycle
    # counts, the closed form from n = 3, and absorption of every start
    assert len(passing_suite("periodic", 7)) == 26
    tset, n = pattern_set("123", "132"), 8
    half_dec = {p for p in enumerate_permutations(n) if dyn.is_half_decreasing(p)}
    cycles = dyn.orbit_partition(tset, n)
    assert set().union(*cycles) == half_dec
    assert len(cycles) == factorial(n // 2)
    assert all(len(c) == (n + 2) // 2 for c in cycles)
    assert all(dyn.half_decreasing_step(p) == sort(p, tset) for p in half_dec)
    print("PASS criterion 10: periodic = half-decreasing with the stated counts (n=3..8); all of S_7 absorbed")


def test_criterion_11_half_increasing_periodic_points():
    tset = pattern_set("312", "321")
    for n in range(1, 8):
        pts = dyn.periodic_points(tset, n)
        expected = {p for p in enumerate_permutations(n) if dyn.is_half_increasing(p)}
        assert pts == expected, n
    print("PASS criterion 11: periodic points of the {312,321} machine are the half-increasing permutations, n<=7")


def test_criterion_12_conjecture_sweep():
    assert len(passing_suite("conjectures", 7)) == 2
    print("PASS criterion 12: only trivial periodic points found for {132,213} and {231,213}, n<=7")
