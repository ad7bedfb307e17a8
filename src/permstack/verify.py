"""Named exhaustive verification suites behind the CLI ``verify`` command.

Each suite sweeps S_n up to a cap and gives fine-grained Check records;
a suite passes when every check does.  A check states its claim as an
ordered, lazy search for counterexamples: it fails with the first one the
search finds, described in its detail, and passes with an empty detail
when the search runs out.

A suite lists its checks as units, (fn, n, *args) with fn a module-level
function and n the largest size it sweeps; fn(n, *args) returns one or
more checks, and checks that share a sweep share a unit.  A check that
searches S_1, S_2, ... in turn has one unit per n (periodic's orbit
check one per n and first letter), each a part that searches its
permutations in order and stops at its first counterexample; run_suites
joins consecutive parts of one name into the first part that fails, or
the first part.  run_suites computes every unit of a run as one job of
a single fan-out (see dynamics._fan_out), so the units of all the suites
it runs spread over one pool of workers.

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
from operator import attrgetter

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


def _bijectivity_checks(max_n: int, tset: PatternSet) -> list[Check]:
    label = format_patterns(tset)
    crit = dyn.bijectivity_criterion(tset)
    sweeps = ((n, dyn.verify_bijective(tset, n)) for n in range(1, max_n + 1))
    # the first collision, or None when every sweep is injective
    first = next(((n, pair) for n, pair in sweeps if pair is not True), None)
    if first is None:
        found = f"no collision for n<={max_n}"
    else:
        n, (a, b) = first
        found = f"{format_word(a)} and {format_word(b)} collide at n={n}"
    checks = [
        _check(
            f"bijectivity criterion vs sweep {{{label}}}",
            [] if crit == (first is None) else [f"criterion={crit} but {found}"],
        )
    ]
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


def suite_bijectivity(max_n: int) -> list[tuple]:
    """The first-two-swap criterion against exhaustive injectivity, and the
    reverse-conjugate inverse when the criterion holds."""
    return [(_bijectivity_checks, max_n, tset) for tset in _small_pattern_sets()]


RECURSION_SETS = (
    pattern_set("21"),
    pattern_set("123"),
    pattern_set("132"),
    pattern_set("123", "132"),
    pattern_set("213", "231"),
    pattern_set("231", "321"),
)


def _recursion_checks(n: int, tset: PatternSet, max_n: int) -> list[Check]:
    return [
        _check(
            f"recursion oracle {{{format_patterns(tset)}}} n<={max_n}",
            (
                f"{format_word(p)}: simulation {format_word(img)}"
                f" vs recursion {format_word(sort_recursive(p, tset))}"
                for p, img in zip(enumerate_permutations(n), dyn.sort_images(tset, n))
                if sort_recursive(p, tset) != img
            ),
        )
    ]


def suite_recursion(max_n: int) -> list[tuple]:
    """Simulation against the clumping recurrence, letter for letter."""
    return [
        (_recursion_checks, n, tset, max_n)
        for tset in RECURSION_SETS
        for n in range(0, max_n + 1)
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


def _bound_failures(tset: PatternSet, n: int) -> Iterator[str]:
    k = tset.min_len
    if n < k - 2:
        return
    bound = catalan(n - k + 2)
    table = dyn.preimage_map(tset, n)
    over = (g for g, ps in table.items() if len(ps) > bound)
    disagree = (
        g
        for g in (enumerate_permutations(n) if n <= AGREEMENT_CAP else ())
        if dyn.preimages(g, tset) != table.get(g, set())
    )
    for g in itertools.chain(over, disagree):
        yield f"fails at n={n}, {format_word(g)}"


def _bound_checks(n: int, tset: PatternSet, max_n: int) -> list[Check]:
    return [
        _check(
            f"preimage bound and agreement {{{format_patterns(tset)}}} n<={max_n}",
            _bound_failures(tset, n),
        )
    ]


def suite_bound(max_n: int) -> list[tuple]:
    """Preimage counts never exceed catalan(n - k + 2); the output-guided
    preimage search returns, for every target, the preimage set that one
    sweep of S_n tabulates."""
    return [
        (_bound_checks, n, tset, max_n)
        for tset in BOUND_SETS
        for n in range(1, max_n + 1)
    ]


def _sharpness_failures(pattern: Word, sharp: bool, n: int) -> Iterator[str]:
    """The rule at n: the bound is met exactly when the first two letters
    are consecutive (sharp), and never passed; for sharp patterns the
    extremal target is also a witness whose preimages are the family."""
    k = len(pattern)
    # at n = k every pattern meets the bound, so only sharp ones start there
    if n < (k if sharp else k + 1):
        return
    tset = PatternSet(frozenset({pattern}))
    rep = dyn.fertility_max(tset, n)
    bound = catalan(n - k + 2)
    if rep.max_count > bound or (rep.max_count == bound) != sharp:
        yield f"n={n}: max {rep.max_count} {'!=' if sharp else 'reaches'} bound {bound}"
    if sharp:
        target = dyn.extremal_target(pattern, n)
        if target not in rep.witnesses:
            yield f"n={n}: target {format_word(target)} not a witness"
        if dyn.preimages(target, tset) != dyn.extremal_family(pattern, n):
            yield f"n={n}: family mismatch"


def _sharpness_checks(n: int, pattern: Word) -> list[Check]:
    sharp = abs(pattern[0] - pattern[1]) == 1
    name = f"{'sharp bound met' if sharp else 'bound unattained'} ({format_word(pattern)})"
    return [_check(name, _sharpness_failures(pattern, sharp, n))]


def suite_sharpness(max_n: int) -> list[tuple]:
    """Single-pattern fertility: the Catalan bound is met exactly when the
    pattern's first two letters are consecutive, with the extremal target
    and family realizing it."""
    caps = [(p, max_n) for p in dyn.LENGTH3_PATTERNS]
    caps += [(p, min(max_n + 1, 8)) for p in itertools.permutations((1, 2, 3, 4))]
    # the parts below n = k find nothing; one is kept when cap < k
    return [
        (_sharpness_checks, n, p)
        for p, cap in caps
        for n in range(min(len(p), cap), cap + 1)
    ]


def _periodic_checks(n: int) -> list[Check]:
    """The periodic suite's checks at one n that share one partition."""
    tset = pattern_set("123", "132")
    cycle_len = (n + 2) // 2
    cycles = dyn.orbit_partition(tset, n)
    points = {p for cycle in cycles for p in cycle}
    half_dec = {p for p in enumerate_permutations(n) if dyn.is_half_decreasing(p)}
    checks = [
        _check(
            f"periodic set is half-decreasing set (n={n})",
            (
                f"{format_word(p)} is periodic but not half-decreasing"
                if p in points
                else f"{format_word(p)} is half-decreasing but not periodic"
                for p in sorted(points ^ half_dec)
            ),
        )
    ]
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
    return checks


def _orbit_checks(n: int, first: int) -> list[Check]:
    """The orbit check's part over the permutations starting with `first`,
    (n-1)! consecutive ones in lexicographic order."""
    tset = pattern_set("123", "132")
    starts = itertools.islice(
        enumerate_permutations(n), (first - 1) * factorial(n - 1), first * factorial(n - 1)
    )
    return [
        _check(
            f"every orbit reaches half-decreasing (n={n})",
            (
                f"fails at {format_word(rep.start)}"
                for rep in (dyn.orbit(p, tset) for p in starts)
                if not any(dyn.is_half_decreasing(q) for q in (*rep.tail, *rep.cycle))
            ),
        )
    ]


def suite_periodic(max_n: int) -> list[tuple]:
    """Orbit structure of the {123,132}-avoiding stack: the periodic points
    are exactly the half-decreasing permutations, in (n//2)! cycles all of
    length ceil((n+1)/2), and every start falls into them."""
    return [
        unit
        for n in range(1, max_n + 1)
        for unit in [(_periodic_checks, n), *((_orbit_checks, n, f) for f in range(1, n + 1))]
    ]


COMPLEMENT_SETS = (
    pattern_set("123", "132"),
    pattern_set("213"),
    pattern_set("21"),
)


def _complement_checks(n: int, tset: PatternSet, max_n: int) -> list[Check]:
    return [
        _check(
            f"complement conjugation {{{format_patterns(tset)}}} n<={max_n}",
            [] if dyn.complement_conjugation_check(tset, n) else [f"fails at n={n}"],
        )
    ]


def suite_complement(max_n: int) -> list[tuple]:
    """Complementing input and patterns complements the output."""
    return [
        (_complement_checks, n, tset, max_n)
        for tset in COMPLEMENT_SETS
        for n in range(1, max_n + 1)
    ]


MACHINE_CATALAN_PATTERNS = ((1, 2, 3), (1, 3, 2), (2, 3, 1))


def _machine_catalan_checks(max_n: int, p: Word) -> list[Check]:
    expected = [catalan(n) for n in range(1, max_n + 1)]
    q = (p[1], p[0]) + p[2:]
    tset = pattern_set(p, q)
    counts = [dyn.sort_count(tset, n) for n in range(1, max_n + 1)]
    return [
        _check(
            f"machine catalan counts ({format_word(p)},{format_word(q)}) n<={max_n}",
            [] if counts == expected else [f"got {counts}, expected {expected}"],
        )
    ]


def suite_machine_catalan(max_n: int) -> list[tuple]:
    """Pair a pattern with its first-two swap and the two-stage machine
    sorts exactly catalan(n) permutations to the identity."""
    return [(_machine_catalan_checks, max_n, p) for p in MACHINE_CATALAN_PATTERNS]


CONJECTURE_SETS = (pattern_set("132", "213"), pattern_set("231", "213"))


def _conjecture_checks(n: int, tset: PatternSet, max_n: int) -> list[Check]:
    ok, witness = dyn.trivial_periodic_points_only(tset, n)
    return [
        _check(
            f"only trivial periodic points {{{format_patterns(tset)}}} n<={max_n}",
            [] if ok else [f"counterexample at n={n}: {format_word(witness)}"],
        )
    ]


def suite_conjectures(max_n: int) -> list[tuple]:
    """Only the identity and its reverse should be periodic for these maps;
    a counterexample is reported verbatim rather than assumed away."""
    return [
        (_conjecture_checks, n, tset, max_n)
        for tset in CONJECTURE_SETS
        for n in range(1, max_n + 1)
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


def _run_unit(unit: tuple) -> list[Check]:
    fn, *args = unit
    return fn(*args)


def run_suites(names: list[str], max_n: int, workers: int = 1) -> list[Check]:
    """The named suites' checks in order.  Every unit of every suite named
    is one job of a single fan-out (dynamics._fan_out), sized by the
    largest n any unit sweeps, so the run is one request that maps its
    units once; the sweeps inside a unit run serially.  The parts of a
    check split over several units are joined into the first that fails,
    or the first."""
    units = [unit for name in names for unit in SUITES[name](max_n)]
    parts = dyn._fan_out(_run_unit, units, workers, max((u[1] for u in units), default=0))
    checks = []
    for _, group in itertools.groupby(itertools.chain(*parts), key=attrgetter("name")):
        group = list(group)
        checks.append(next((c for c in group if not c.ok), group[0]))
    return checks
