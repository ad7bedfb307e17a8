"""How the verify suites report: the FAIL details each suite gives under
injected faults.  The suites' claims are gated at their stated size in
test_acceptance.py and, at --max-n 3, in test_cli.py."""

import dataclasses
import json
from math import factorial
from pathlib import Path

import pytest

from permstack import dynamics as dyn
from permstack import verify
from permstack.textio import format_word
from permstack.words import PatternSet, enumerate_permutations, identity


_criterion = dyn.bijectivity_criterion
_extremal_target = dyn.extremal_target
_fertility_max = dyn.fertility_max


def _max_count(count):
    """fertility_max with its max_count replaced by count(report)."""
    def fertility_max(tset, n, workers=1):
        rep = _fertility_max(tset, n, workers)
        return dataclasses.replace(rep, max_count=count(rep))
    return fertility_max


#: Faults, each a list of (module, attribute, replacement) patches.  Each
#: breaks the claim of one suite, or one branch of the bound or sharpness
#: rule.
FAULTS = {
    "recursion-reversed": [(verify, "sort_recursive", lambda w, tset: w[::-1])],
    "criterion-negated": [(dyn, "bijectivity_criterion", lambda tset: not _criterion(tset))],
    "preimage-map-over-bound": [  # with no agreement search, the bound alone fails
        (verify, "AGREEMENT_CAP", 0),
        (
            dyn,
            "preimage_map",
            lambda tset, n: {identity(n): set(enumerate_permutations(n))},
        ),
    ],
    "preimages-empty": [
        (dyn, "preimages", lambda gamma, tset: set()),
        (dyn, "extremal_family", lambda pattern, n: set()),
    ],
    "family-empty": [(dyn, "extremal_family", lambda pattern, n: set())],
    "target-reversed": [
        (dyn, "extremal_target", lambda pattern, n: _extremal_target(pattern, n)[::-1])
    ],
    "max-at-bound": [(dyn, "fertility_max", _max_count(lambda rep: rep.bound))],
    "max-over-bound": [(dyn, "fertility_max", _max_count(lambda rep: rep.bound + 1))],
    "max-below-best": [(dyn, "fertility_max", _max_count(lambda rep: rep.max_count - 1))],
    "step-identity": [(dyn, "half_decreasing_step", lambda p: p)],
    "no-half-decreasing": [  # past the per-process cache of the filtered sets
        (dyn, "is_half_decreasing", lambda p: False),
        (verify, "_half_decreasing", verify._half_decreasing.__wrapped__),
    ],
    "complement-fails": [(PatternSet, "complemented", lambda tset: tset)],
    "conjecture-refuted": [
        (verify, "_conjecture_failures", lambda n, tset: [f"counterexample at n={n}: 21"])
    ],
    "sort-count-zero": [(dyn, "sort_count", lambda tset, n: 0)],
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_failure_details_pinned(monkeypatch, fault):
    """Under each fault, every suite at max-n 4 reports exactly the pinned
    FAIL (name, detail) pairs: which check fails, and at which
    counterexample its search stops."""
    for module, attribute, replacement in FAULTS[fault]:
        monkeypatch.setattr(module, attribute, replacement)
    checks = verify.run_suites(list(verify.SUITES), 4, 1)
    failed = [[c.name, c.detail] for c in checks if not c.ok]
    pinned = Path(__file__).parent / "golden" / "verify_faults_max_n_4.json"
    assert failed == json.loads(pinned.read_text())[fault]


def test_orbit_search_matches_orbit_oracle(monkeypatch):
    """The orbit check's walk over one table of the map fails at exactly
    the starts, in lexicographic order, whose orbit() tail and cycle hold
    no half-decreasing point, here with one cycle's points rejected."""
    _is_half_decreasing = dyn.is_half_decreasing
    for n in range(1, 7):
        rejected = set(dyn.orbit_partition(verify.PERIODIC_SET, n)[0])
        monkeypatch.setattr(
            dyn, "is_half_decreasing", lambda p: p not in rejected and _is_half_decreasing(p)
        )
        expected = []
        for p in enumerate_permutations(n):
            rep = dyn.orbit(p, verify.PERIODIC_SET)
            if not any(dyn.is_half_decreasing(q) for q in (*rep.tail, *rep.cycle)):
                expected.append(f"fails at {format_word(p)}")
        found = list(verify._orbit_failures(n))
        assert found == expected and found
        # from n = 4 the map has more than one cycle, so some starts pass
        assert n < 4 or len(found) < factorial(n)


@pytest.mark.parametrize("suite", sorted(verify.SUITES))
def test_no_check_split_below_one_n(suite):
    """No two units of a suite share a (name, n) pair: a check has at most
    one unit per n."""
    pairs = [(u[0], u[1]) for u in verify.SUITES[suite](7)]
    assert len(pairs) == len(set(pairs))
