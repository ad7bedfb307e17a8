"""Named exhaustive verification suites behind the CLI ``verify`` command.

Each suite sweeps S_n up to a cap and gives fine-grained Check records;
a suite passes when every check does.  A check states its claim as an
ordered, lazy search for counterexamples: it fails with the first one the
search finds, described in its detail, and passes with an empty detail
when the search runs out.  Each claim is stated here, in its search, over
the maps and reductions that dynamics computes.

A suite lists its checks as units, (name, n, failures, *args): name is
the check's name, n the largest size the unit sweeps, and failures a
module-level function whose failures(n, *args) is the unit's search; a
unit gives one Check.  A check that searches S_1, S_2, ... in turn has
one unit per n, each a part that shares the check's name and searches
its permutations in order up to its first counterexample; no check is
split below one n.  run_suites joins consecutive parts of one name into
the first part that fails, or the first part.
run_suites computes every unit of a run as one job of a single fan-out
(see dynamics._fan_out), so the units of all the suites it runs spread
over one pool of workers.

Sweep sizes follow the suite's subject: the sharpness suite pushes
length-4 patterns one length further than --max-n (capped at 8) because
that is where their bound bites, and the preimage-agreement half of the
bound suite stops at n = 6 (see AGREEMENT_CAP).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import attrgetter

from . import dynamics as dyn
from .machine import sort, sort_recursive
from .textio import format_patterns, format_word
from .words import (
    PatternSet,
    Word,
    catalan,
    complement,
    enumerate_permutations,
    identity,
    pattern_set,
    reverse_identity,
)


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


def _bijectivity_failures(max_n: int, tset: PatternSet) -> Iterator[str]:
    crit = dyn.bijectivity_criterion(tset)
    sweeps = ((n, dyn.verify_bijective(tset, n)) for n in range(1, max_n + 1))
    # the first collision, or None when every sweep is injective
    first = next(((n, pair) for n, pair in sweeps if pair is not True), None)
    if first is None:
        found = f"no collision for n<={max_n}"
    else:
        n, (a, b) = first
        found = f"{format_word(a)} and {format_word(b)} collide at n={n}"
    if crit != (first is None):
        yield f"criterion={crit} but {found}"


def _round_trip_failures(max_n: int, tset: PatternSet) -> Iterator[str]:
    return (
        f"fails at {format_word(p)}"
        for n in range(1, max_n + 1)
        for p in enumerate_permutations(n)
        if dyn.inverse_sort(sort(p, tset), tset) != p
    )


def suite_bijectivity(max_n: int) -> list[tuple]:
    """The first-two-swap criterion against exhaustive injectivity, and the
    reverse-conjugate inverse when the criterion holds."""
    units = []
    for tset in _small_pattern_sets():
        label = format_patterns(tset)
        name = f"bijectivity criterion vs sweep {{{label}}}"
        units.append((name, max_n, _bijectivity_failures, tset))
        if dyn.bijectivity_criterion(tset):
            units.append((f"inverse round-trip {{{label}}}", max_n, _round_trip_failures, tset))
    return units


def _per_n(claim: str, failures, sets, max_n: int, first_n: int = 1) -> list[tuple]:
    """One unit per set and n, each a part of the set's check, named
    "claim {T} n<=max_n"."""
    units = []
    for tset in sets:
        name = f"{claim} {{{format_patterns(tset)}}} n<={max_n}"
        units += [(name, n, failures, tset) for n in range(first_n, max_n + 1)]
    return units


RECURSION_SETS = (
    pattern_set("21"),
    pattern_set("123"),
    pattern_set("132"),
    pattern_set("123", "132"),
    pattern_set("213", "231"),
    pattern_set("231", "321"),
)


def _recursion_failures(n: int, tset: PatternSet) -> Iterator[str]:
    return (
        f"{format_word(p)}: simulation {format_word(img)}"
        f" vs recursion {format_word(sort_recursive(p, tset))}"
        for p, img in zip(enumerate_permutations(n), dyn.sort_images(tset, n))
        if sort_recursive(p, tset) != img
    )


def suite_recursion(max_n: int) -> list[tuple]:
    """Simulation against the clumping recurrence, letter for letter."""
    return _per_n("recursion oracle", _recursion_failures, RECURSION_SETS, max_n, first_n=0)


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


def _bound_failures(n: int, tset: PatternSet) -> Iterator[str]:
    bound = catalan(n - tset.min_len + 2)
    table = dyn.preimage_map(tset, n)
    over = (g for g, ps in table.items() if len(ps) > bound)
    disagree = (
        g
        for g in (enumerate_permutations(n) if n <= AGREEMENT_CAP else ())
        if dyn.preimages(g, tset) != table.get(g, set())
    )
    for g in itertools.chain(over, disagree):
        yield f"fails at n={n}, {format_word(g)}"


def suite_bound(max_n: int) -> list[tuple]:
    """Preimage counts never exceed catalan(n - k + 2); the output-guided
    preimage search returns, for every target, the preimage set that one
    sweep of S_n tabulates."""
    return _per_n("preimage bound and agreement", _bound_failures, BOUND_SETS, max_n)


def _sharpness_failures(n: int, pattern: Word, sharp: bool) -> Iterator[str]:
    """The rule at n: the bound is met exactly when the first two letters
    are consecutive (sharp), and never passed; for sharp patterns the
    extremal target is also a witness whose preimages are the family."""
    k = len(pattern)
    # at n = k every pattern meets the bound, so only sharp ones start there
    if n < (k if sharp else k + 1):
        return
    tset = PatternSet(frozenset({pattern}))
    rep = dyn.fertility_max(tset, n)
    if rep.max_count > rep.bound or (rep.max_count == rep.bound) != sharp:
        yield f"n={n}: max {rep.max_count} {'!=' if sharp else 'reaches'} bound {rep.bound}"
    if sharp:
        target = dyn.extremal_target(pattern, n)
        if target not in rep.witnesses:
            yield f"n={n}: target {format_word(target)} not a witness"
        if dyn.preimages(target, tset) != dyn.extremal_family(pattern, n):
            yield f"n={n}: family mismatch"


def suite_sharpness(max_n: int) -> list[tuple]:
    """Single-pattern fertility: the Catalan bound is met exactly when the
    pattern's first two letters are consecutive, with the extremal target
    and family realizing it."""
    caps = [(p, max_n) for p in dyn.LENGTH3_PATTERNS]
    caps += [(p, min(max_n + 1, 8)) for p in itertools.permutations((1, 2, 3, 4))]
    units = []
    for p, cap in caps:
        sharp = abs(p[0] - p[1]) == 1
        name = f"{'sharp bound met' if sharp else 'bound unattained'} ({format_word(p)})"
        # the parts below n = k find nothing; one is kept when cap < k
        ns = range(min(len(p), cap), cap + 1)
        units += [(name, n, _sharpness_failures, p, sharp) for n in ns]
    return units


PERIODIC_SET = pattern_set("123", "132")


@lru_cache(maxsize=None)
def _half_decreasing(n: int) -> frozenset[Word]:
    """The half-decreasing permutations of S_n, filtered once per n for the
    set, count and closed-form checks."""
    return frozenset(p for p in enumerate_permutations(n) if dyn.is_half_decreasing(p))


def _periodic_set_failures(n: int) -> Iterator[str]:
    points = dyn.periodic_points(PERIODIC_SET, n)
    return (
        f"{format_word(p)} is periodic but not half-decreasing"
        if p in points
        else f"{format_word(p)} is half-decreasing but not periodic"
        for p in sorted(points ^ _half_decreasing(n))
    )


def _cycle_count_failures(n: int) -> Iterator[str]:
    cycles = dyn.orbit_partition(PERIODIC_SET, n)
    if not (
        len(_half_decreasing(n)) == factorial((n + 2) // 2)
        and len(cycles) == factorial(n // 2)
        and all(len(c) == (n + 2) // 2 for c in cycles)
    ):
        yield f"{len(cycles)} cycles of sizes {sorted(set(map(len, cycles)))}"


def _closed_form_failures(n: int) -> Iterator[str]:
    return (
        f"fails at {format_word(p)}"
        for p in _half_decreasing(n)
        if dyn.half_decreasing_step(p) != sort(p, PERIODIC_SET)
    )


def _orbit_failures(n: int) -> Iterator[str]:
    """Fails at each start, in lexicographic order, whose orbit through one
    table of the map repeats a point before it meets a half-decreasing one."""
    f = dyn.sort_map(PERIODIC_SET, n)
    for start in f:
        seen, cur = set(), start
        while cur not in seen and not dyn.is_half_decreasing(cur):
            seen.add(cur)
            cur = f[cur]
        if cur in seen:
            yield f"fails at {format_word(start)}"


def suite_periodic(max_n: int) -> list[tuple]:
    """Orbit structure of the {123,132}-avoiding stack: the periodic points
    are exactly the half-decreasing permutations, in (n//2)! cycles all of
    length ceil((n+1)/2), and every start falls into them."""
    units = []
    for n in range(1, max_n + 1):
        units += [
            (f"periodic set is half-decreasing set (n={n})", n, _periodic_set_failures),
            (f"cycle sizes and counts (n={n})", n, _cycle_count_failures),
        ]
        if n >= 3:
            units.append((f"closed form matches simulation (n={n})", n, _closed_form_failures))
        units.append((f"every orbit reaches half-decreasing (n={n})", n, _orbit_failures))
    return units


COMPLEMENT_SETS = (
    pattern_set("123", "132"),
    pattern_set("213"),
    pattern_set("21"),
)


def _complement_failures(n: int, tset: PatternSet) -> Iterator[str]:
    """Fails at each permutation, in lexicographic order, whose complement
    sorts under the complemented patterns to other than its image's
    complement."""
    comp = tset.complemented()
    return (
        f"fails at {format_word(p)}"
        for p, img in zip(enumerate_permutations(n), dyn.sort_images(tset, n))
        if sort(complement(p), comp) != complement(img)
    )


def suite_complement(max_n: int) -> list[tuple]:
    """Complementing input and patterns complements the output."""
    return _per_n("complement conjugation", _complement_failures, COMPLEMENT_SETS, max_n)


MACHINE_CATALAN_PATTERNS = ((1, 2, 3), (1, 3, 2), (2, 3, 1))


def _machine_catalan_failures(max_n: int, tset: PatternSet) -> Iterator[str]:
    expected = [catalan(n) for n in range(1, max_n + 1)]
    counts = [dyn.sort_count(tset, n) for n in range(1, max_n + 1)]
    if counts != expected:
        yield f"got {counts}, expected {expected}"


def suite_machine_catalan(max_n: int) -> list[tuple]:
    """Pair a pattern with its first-two swap and the two-stage machine
    sorts exactly catalan(n) permutations to the identity."""
    units = []
    for p in MACHINE_CATALAN_PATTERNS:
        q = (p[1], p[0]) + p[2:]
        name = f"machine catalan counts ({format_word(p)},{format_word(q)}) n<={max_n}"
        units.append((name, max_n, _machine_catalan_failures, pattern_set(p, q)))
    return units


CONJECTURE_SETS = (pattern_set("132", "213"), pattern_set("231", "213"))


def _conjecture_failures(n: int, tset: PatternSet) -> Iterator[str]:
    """Fails at each periodic point, least first, other than the identity
    and its reverse."""
    trivial = {identity(n), reverse_identity(n)}
    return (
        f"counterexample at n={n}: {format_word(p)}"
        for p in sorted(dyn.periodic_points(tset, n) - trivial)
    )


def suite_conjectures(max_n: int) -> list[tuple]:
    """Only the identity and its reverse should be periodic for these maps;
    a counterexample is reported verbatim rather than assumed away."""
    return _per_n("only trivial periodic points", _conjecture_failures, CONJECTURE_SETS, max_n)


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


def _run_unit(unit: tuple) -> Check:
    name, n, failures, *args = unit
    return _check(name, failures(n, *args))


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
    for _, group in itertools.groupby(parts, key=attrgetter("name")):
        group = list(group)
        checks.append(next((c for c in group if not c.ok), group[0]))
    return checks
