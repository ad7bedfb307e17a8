"""Named exhaustive verification suites behind the CLI ``verify`` command.

Each suite sweeps S_n up to a cap and returns fine-grained Check records;
a suite passes when every check does.  A check states its claim as an
ordered, lazy search for counterexamples: it fails with the first one the
search finds, described in its detail, and passes with an empty detail
when the search runs out.  So a failing check stops sweeping at its first
counterexample.

Sweep sizes follow the suite's subject: the sharpness suite pushes
length-4 patterns one length further than --max-n (capped at 8) because
that is where their bound bites, and the preimage-agreement half of the
bound suite stops at n = 6 (see AGREEMENT_CAP).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import factorial

from . import dynamics as dyn
from .machine import sort, sort_recursive
from .textio import format_patterns, format_word
from .words import PatternSet, Word, catalan, enumerate_permutations, pattern_set


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _check(name: str, failures: Iterable[str]) -> Check:
    """The check fails with the first detail ``failures`` yields, and
    passes when it yields none."""
    for detail in failures:
        return Check(name, False, detail)
    return Check(name, True)


def _small_pattern_sets() -> list[PatternSet]:
    """Every set of one or two length-3 patterns, plus the classical stack."""
    sets = [
        PatternSet(frozenset(c))
        for size in (1, 2)
        for c in itertools.combinations(dyn.LENGTH3_PATTERNS, size)
    ]
    return sets + [dyn.CLASSICAL_STACK]


def suite_bijectivity(max_n: int, workers: int = 1) -> list[Check]:
    """The first-two-swap criterion against exhaustive injectivity, and the
    reverse-conjugate inverse when the criterion holds."""
    checks = []
    for tset in _small_pattern_sets():
        label = format_patterns(tset)
        crit = dyn.bijectivity_criterion(tset)
        sweeps = ((n, dyn.verify_bijective(tset, n, workers)) for n in range(1, max_n + 1))
        # the first collision, or None when every sweep is injective
        first = next(((n, pair) for n, pair in sweeps if pair is not True), None)
        if first is None:
            found = f"no collision for n<={max_n}"
        else:
            n, (a, b) = first
            found = f"{format_word(a)} and {format_word(b)} collide at n={n}"
        checks.append(
            _check(
                f"bijectivity criterion vs sweep {{{label}}}",
                [] if crit == (first is None) else [f"criterion={crit} but {found}"],
            )
        )
        if crit:
            checks.append(
                _check(
                    f"inverse round-trip {{{label}}}",
                    (
                        f"fails at {format_word(p)}"
                        for n in range(1, max_n + 1)
                        for p in enumerate_permutations(n)
                        if dyn.inverse_sort(sort(p, tset), tset) != p
                    ),
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


def suite_recursion(max_n: int, workers: int = 1) -> list[Check]:
    """Simulation against the clumping recurrence, letter for letter."""
    return [
        _check(
            f"recursion oracle {{{format_patterns(tset)}}} n<={max_n}",
            (
                f"{format_word(p)}: simulation {format_word(img)}"
                f" vs recursion {format_word(sort_recursive(p, tset))}"
                for n in range(0, max_n + 1)
                for p, img in zip(enumerate_permutations(n), dyn.sort_images(tset, n, workers))
                if sort_recursive(p, tset) != img
            ),
        )
        for tset in RECURSION_SETS
    ]


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


def _bound_failures(tset: PatternSet, max_n: int, workers: int) -> Iterator[str]:
    k = tset.min_len
    for n in range(max(1, k - 2), max_n + 1):
        bound = catalan(n - k + 2)
        table = dyn.preimage_map(tset, n, workers)
        over = (g for g, ps in table.items() if len(ps) > bound)
        disagree = (
            g
            for g in (enumerate_permutations(n) if n <= AGREEMENT_CAP else ())
            if dyn.preimages(g, tset) != table.get(g, set())
        )
        for g in itertools.chain(over, disagree):
            yield f"fails at n={n}, {format_word(g)}"


def suite_bound(max_n: int, workers: int = 1) -> list[Check]:
    """Preimage counts never exceed catalan(n - k + 2); the output-guided
    preimage search returns, for every target, the preimage set that one
    sweep of S_n tabulates."""
    return [
        _check(
            f"preimage bound and agreement {{{format_patterns(tset)}}} n<={max_n}",
            _bound_failures(tset, max_n, workers),
        )
        for tset in BOUND_SETS
    ]


def _sharpness_failures(pattern: Word, sharp: bool, max_n: int, workers: int) -> Iterator[str]:
    """One rule per n: the bound is met exactly when the first two letters
    are consecutive (sharp), and never passed; for sharp patterns the
    extremal target is also a witness whose preimages are the family."""
    k = len(pattern)
    tset = PatternSet(frozenset({pattern}))
    miss = "!=" if sharp else "reaches"
    # at n = k every pattern meets the bound, so only sharp ones start there
    for n in range(k if sharp else k + 1, max_n + 1):
        rep = dyn.fertility_max(tset, n, workers)
        bound = catalan(n - k + 2)
        if rep.max_count > bound or (rep.max_count == bound) != sharp:
            yield f"n={n}: max {rep.max_count} {miss} bound {bound}"
        if sharp:
            target = dyn.extremal_target(pattern, n)
            if target not in rep.witnesses:
                yield f"n={n}: target {format_word(target)} not a witness"
            if dyn.preimages(target, tset) != dyn.extremal_family(pattern, n):
                yield f"n={n}: family mismatch"


def suite_sharpness(max_n: int, workers: int = 1) -> list[Check]:
    """Single-pattern fertility: the Catalan bound is met exactly when the
    pattern's first two letters are consecutive, with the extremal target
    and family realizing it."""
    catalogue = [(p, max_n) for p in dyn.LENGTH3_PATTERNS]
    catalogue += [(p, min(max_n + 1, 8)) for p in itertools.permutations((1, 2, 3, 4))]
    checks = []
    for pattern, cap in catalogue:
        sharp = abs(pattern[0] - pattern[1]) == 1
        name = f"{'sharp bound met' if sharp else 'bound unattained'} ({format_word(pattern)})"
        checks.append(_check(name, _sharpness_failures(pattern, sharp, cap, workers)))
    return checks


def suite_periodic(max_n: int, workers: int = 1) -> list[Check]:
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
        checks.append(
            _check(
                f"periodic set is half-decreasing set (n={n})",
                (
                    f"{format_word(p)} is periodic but not half-decreasing"
                    if p in points
                    else f"{format_word(p)} is half-decreasing but not periodic"
                    for p in sorted(points ^ half_dec)
                ),
            )
        )
        counts_ok = (
            len(half_dec) == factorial((n + 2) // 2)
            and len(cycles) == factorial(n // 2)
            and all(len(c) == cycle_len for c in cycles)
        )
        checks.append(
            _check(
                f"cycle sizes and counts (n={n})",
                [] if counts_ok else [f"{len(cycles)} cycles of sizes {sorted(set(map(len, cycles)))}"],
            )
        )
        if n >= 3:
            checks.append(
                _check(
                    f"closed form matches simulation (n={n})",
                    (
                        f"fails at {format_word(p)}"
                        for p in half_dec
                        if dyn.half_decreasing_step(p) != sort(p, tset)
                    ),
                )
            )
        checks.append(
            _check(
                f"every orbit reaches half-decreasing (n={n})",
                (
                    f"fails at {format_word(rep.start)}"
                    for rep in (dyn.orbit(p, tset) for p in enumerate_permutations(n))
                    if not any(dyn.is_half_decreasing(q) for q in (*rep.tail, *rep.cycle))
                ),
            )
        )
    return checks


COMPLEMENT_SETS = (
    pattern_set("123", "132"),
    pattern_set("213"),
    pattern_set("21"),
)


def suite_complement(max_n: int, workers: int = 1) -> list[Check]:
    """Complementing input and patterns complements the output."""
    return [
        _check(
            f"complement conjugation {{{format_patterns(tset)}}} n<={max_n}",
            (
                f"fails at n={n}"
                for n in range(1, max_n + 1)
                if not dyn.complement_conjugation_check(tset, n, workers)
            ),
        )
        for tset in COMPLEMENT_SETS
    ]


MACHINE_CATALAN_PATTERNS = ((1, 2, 3), (1, 3, 2), (2, 3, 1))


def suite_machine_catalan(max_n: int, workers: int = 1) -> list[Check]:
    """Pair a pattern with its first-two swap and the two-stage machine
    sorts exactly catalan(n) permutations to the identity."""
    expected = [catalan(n) for n in range(1, max_n + 1)]
    checks = []
    for p in MACHINE_CATALAN_PATTERNS:
        q = (p[1], p[0]) + p[2:]
        counts = [dyn.sort_count(p, q, n, workers) for n in range(1, max_n + 1)]
        checks.append(
            _check(
                f"machine catalan counts ({format_word(p)},{format_word(q)}) n<={max_n}",
                [] if counts == expected else [f"got {counts}, expected {expected}"],
            )
        )
    return checks


CONJECTURE_SETS = (pattern_set("132", "213"), pattern_set("231", "213"))


def suite_conjectures(max_n: int, workers: int = 1) -> list[Check]:
    """Only the identity and its reverse should be periodic for these maps;
    a counterexample is reported verbatim rather than assumed away."""
    return [
        _check(
            f"only trivial periodic points {{{format_patterns(tset)}}} n<={max_n}",
            (
                f"counterexample at n={n}: {format_word(witness)}"
                for n in range(1, max_n + 1)
                for ok, witness in [dyn.trivial_periodic_points_only(tset, n, workers)]
                if not ok
            ),
        )
        for tset in CONJECTURE_SETS
    ]


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


def run_suites(names: list[str], max_n: int, workers: int = 1) -> list[Check]:
    checks = []
    for name in names:
        checks.extend(SUITES[name](max_n, workers))
    return checks
