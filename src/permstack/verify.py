"""Named exhaustive verification suites behind the CLI ``verify`` command.

Each suite sweeps S_n up to a cap and returns fine-grained Check records;
a suite passes when every check does.  Sweep sizes follow the suite's
subject: the sharpness suite pushes length-4 patterns one length further
than --max-n (capped at 8) because that is where their bound bites, and
the preimage-agreement half of the bound suite stops at n = 6 (see
AGREEMENT_CAP).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from . import dynamics as dyn
from .machine import sort, sort_recursive
from .textio import format_patterns, format_word
from .words import PatternSet, catalan, enumerate_permutations, pattern_set


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _small_pattern_sets() -> list[PatternSet]:
    """Every reduced set of length-3 patterns of size at most 2, plus the
    classical single descent."""
    s3 = sorted(itertools.permutations((1, 2, 3)))
    sets = [PatternSet(frozenset({p})) for p in s3]
    sets += [PatternSet(frozenset(c)) for c in itertools.combinations(s3, 2)]
    sets.append(pattern_set("21"))
    return sets


def suite_bijectivity(max_n: int = 7, workers: int = 1) -> list[Check]:
    """The first-two-swap criterion against exhaustive injectivity, and the
    reverse-conjugate inverse when the criterion holds."""
    checks = []
    for tset in _small_pattern_sets():
        label = format_patterns(tset)
        crit = dyn.bijectivity_criterion(tset)
        collision = None
        for n in range(1, max_n + 1):
            res = dyn.verify_bijective(tset, n, workers)
            if res is not True:
                collision = (n, res)
                break
        agrees = crit == (collision is None)
        detail = "" if agrees else f"criterion={crit} but collision={collision}"
        checks.append(Check(f"bijectivity criterion vs sweep {{{label}}}", agrees, detail))
        if crit:
            bad = None
            for n in range(1, max_n + 1):
                for p in enumerate_permutations(n):
                    if dyn.inverse_sort(sort(p, tset), tset) != p:
                        bad = p
                        break
                if bad:
                    break
            checks.append(
                Check(
                    f"inverse round-trip {{{label}}}",
                    bad is None,
                    "" if bad is None else f"fails at {format_word(bad)}",
                )
            )
    return checks


RECURSION_SETS = (
    pattern_set("21"),
    pattern_set("123"),
    pattern_set("132"),
    pattern_set("123", "132"),
    pattern_set("213", "231"),
    pattern_set("231", "321"),
)


def suite_recursion(max_n: int = 7, workers: int = 1) -> list[Check]:
    """Simulation against the clumping recurrence, letter for letter."""
    checks = []
    for tset in RECURSION_SETS:
        label = format_patterns(tset)
        bad = None
        for n in range(0, max_n + 1):
            for p, img in zip(
                enumerate_permutations(n), dyn.sort_images(tset, n, workers)
            ):
                if sort_recursive(p, tset) != img:
                    bad = (p, img)
                    break
            if bad:
                break
        detail = "" if bad is None else (
            f"{format_word(bad[0])}: simulation {format_word(bad[1])}"
            f" vs recursion {format_word(sort_recursive(bad[0], tset))}"
        )
        checks.append(Check(f"recursion oracle {{{label}}} n<={max_n}", bad is None, detail))
    return checks


BOUND_SETS = (
    pattern_set("123", "132"),
    pattern_set("213", "231"),
    pattern_set("213"),
)

#: The agreement check searches the preimages of every target in S_n, so
#: it grows faster than the sweep: at n = 7 it would cost about ten times
#: the rest of the suite at --max-n 7.  It stays at n <= 6 regardless of
#: --max-n; the bound check itself honours max_n.
AGREEMENT_CAP = 6


def suite_bound(max_n: int = 7, workers: int = 1) -> list[Check]:
    """Preimage counts never exceed catalan(n - k + 2); the output-guided
    preimage search returns, for every target, the preimage set that one
    sweep of S_n tabulates."""
    checks = []
    for tset in BOUND_SETS:
        label = format_patterns(tset)
        k = tset.min_len
        worst = None
        for n in range(max(1, k - 2), max_n + 1):
            bound = catalan(n - k + 2)
            table = dyn.preimage_map(tset, n, workers)
            over = {g: ps for g, ps in table.items() if len(ps) > bound}
            if over:
                worst = (n, next(iter(over)))
                break
            if n <= AGREEMENT_CAP:
                for g in enumerate_permutations(n):
                    if dyn.preimages(g, tset) != table.get(g, set()):
                        worst = (n, g)
                        break
            if worst:
                break
        checks.append(
            Check(
                f"preimage bound and agreement {{{label}}} n<={max_n}",
                worst is None,
                "" if worst is None else f"fails at n={worst[0]}, {format_word(worst[1])}",
            )
        )
    return checks


def _sharpness_checks(pattern, max_n: int, workers: int) -> list[Check]:
    label = format_word(pattern)
    k = len(pattern)
    tset = PatternSet(frozenset({pattern}))
    checks = []
    if abs(pattern[0] - pattern[1]) == 1:
        ok, detail = True, ""
        for n in range(k, max_n + 1):
            rep = dyn.fertility_max(tset, n, workers)
            bound = catalan(n - k + 2)
            target = dyn.extremal_target(pattern, n)
            if rep.max_count != bound:
                ok, detail = False, f"n={n}: max {rep.max_count} != bound {bound}"
                break
            if target not in rep.witnesses:
                ok, detail = False, f"n={n}: target {format_word(target)} not a witness"
                break
            if dyn.preimages(target, tset) != dyn.extremal_family(pattern, n):
                ok, detail = False, f"n={n}: family mismatch"
                break
        checks.append(Check(f"sharp bound met ({label})", ok, detail))
    else:
        ok, detail = True, ""
        for n in range(k + 1, max_n + 1):
            rep = dyn.fertility_max(tset, n, workers)
            bound = catalan(n - k + 2)
            if rep.max_count >= bound:
                ok, detail = False, f"n={n}: max {rep.max_count} reaches bound {bound}"
                break
        checks.append(Check(f"bound unattained ({label})", ok, detail))
    return checks


def suite_sharpness(max_n: int = 7, workers: int = 1) -> list[Check]:
    """Single-pattern fertility: the Catalan bound is met exactly when the
    pattern's first two letters are consecutive, with the extremal target
    and family realizing it."""
    checks = []
    for pattern in itertools.permutations((1, 2, 3)):
        checks.extend(_sharpness_checks(pattern, max_n, workers))
    cap4 = min(max_n + 1, 8)
    for pattern in itertools.permutations((1, 2, 3, 4)):
        checks.extend(_sharpness_checks(pattern, cap4, workers))
    return checks


def suite_periodic(max_n: int = 7, workers: int = 1) -> list[Check]:
    """Orbit structure of the {123,132}-avoiding stack: the periodic points
    are exactly the half-decreasing permutations, in (n//2)! cycles all of
    length ceil((n+1)/2), and every start falls into them."""
    tset = pattern_set("123", "132")
    checks = []
    for n in range(1, max_n + 1):
        cycle_len = (n + 2) // 2
        cycles = dyn.orbit_partition(tset, n, workers)
        points = {p for cycle in cycles for p in cycle}
        half_dec = {p for p in enumerate_permutations(n) if dyn.is_half_decreasing(p)}
        ok = points == half_dec
        checks.append(
            Check(
                f"periodic set is half-decreasing set (n={n})",
                ok,
                "" if ok else f"{len(points)} periodic vs {len(half_dec)} half-decreasing",
            )
        )
        counts_ok = (
            len(half_dec) == factorial((n + 2) // 2)
            and len(cycles) == factorial(n // 2)
            and all(len(c) == cycle_len for c in cycles)
        )
        checks.append(
            Check(
                f"cycle sizes and counts (n={n})",
                counts_ok,
                "" if counts_ok else f"{len(cycles)} cycles of sizes {sorted(set(map(len, cycles)))}",
            )
        )
        if n >= 3:
            bad = next(
                (p for p in half_dec if dyn.half_decreasing_step(p) != sort(p, tset)), None
            )
            checks.append(
                Check(
                    f"closed form matches simulation (n={n})",
                    bad is None,
                    "" if bad is None else f"fails at {format_word(bad)}",
                )
            )
        absorbed = all(
            any(dyn.is_half_decreasing(q) for q in (*rep.tail, *rep.cycle))
            for rep in (dyn.orbit(p, tset) for p in enumerate_permutations(n))
        )
        checks.append(Check(f"every orbit reaches half-decreasing (n={n})", absorbed))
    return checks


COMPLEMENT_SETS = (
    pattern_set("123", "132"),
    pattern_set("213"),
    pattern_set("21"),
)


def suite_complement(max_n: int = 7, workers: int = 1) -> list[Check]:
    """Complementing input and patterns complements the output."""
    checks = []
    for tset in COMPLEMENT_SETS:
        label = format_patterns(tset)
        ok = all(
            dyn.complement_conjugation_check(tset, n, workers)
            for n in range(1, max_n + 1)
        )
        checks.append(Check(f"complement conjugation {{{label}}} n<={max_n}", ok))
    return checks


MACHINE_CATALAN_PATTERNS = ((1, 2, 3), (1, 3, 2), (2, 3, 1))


def suite_machine_catalan(max_n: int = 6, workers: int = 1) -> list[Check]:
    """Pair a pattern with its first-two swap and the two-stage machine
    sorts exactly catalan(n) permutations to the identity."""
    checks = []
    for p in MACHINE_CATALAN_PATTERNS:
        q = (p[1], p[0]) + p[2:]
        counts = [dyn.sort_count(p, q, n, workers) for n in range(1, max_n + 1)]
        expected = [catalan(n) for n in range(1, max_n + 1)]
        ok = counts == expected
        checks.append(
            Check(
                f"machine catalan counts ({format_word(p)},{format_word(q)}) n<={max_n}",
                ok,
                "" if ok else f"got {counts}, expected {expected}",
            )
        )
    return checks


CONJECTURE_SETS = (pattern_set("132", "213"), pattern_set("231", "213"))


def suite_conjectures(max_n: int = 7, workers: int = 1) -> list[Check]:
    """Only the identity and its reverse should be periodic for these maps;
    a counterexample is reported verbatim rather than assumed away."""
    checks = []
    for tset in CONJECTURE_SETS:
        label = format_patterns(tset)
        bad = None
        for n in range(1, max_n + 1):
            ok, witness = dyn.trivial_periodic_points_only(tset, n, workers)
            if not ok:
                bad = (n, witness)
                break
        checks.append(
            Check(
                f"only trivial periodic points {{{label}}} n<={max_n}",
                bad is None,
                "" if bad is None else f"counterexample at n={bad[0]}: {format_word(bad[1])}",
            )
        )
    return checks


SUITES = {
    "bijectivity": suite_bijectivity,
    "recursion": suite_recursion,
    "bound": suite_bound,
    "sharpness": suite_sharpness,
    "periodic": suite_periodic,
    "complement": suite_complement,
    "machine-catalan": suite_machine_catalan,
    "conjectures": suite_conjectures,
}


def run_suites(names: list[str], max_n: int = 7, workers: int = 1) -> list[Check]:
    checks = []
    for name in names:
        checks.extend(SUITES[name](max_n, workers))
    return checks
