"""How the verify suites report: the FAIL details each suite gives under
injected faults.  The suites' claims are gated at their stated size in
test_acceptance.py and, at --max-n 3, in test_cli.py."""

import dataclasses
import json
from pathlib import Path

import pytest

from permstack import dynamics as dyn
from permstack import verify
from permstack.words import enumerate_permutations, identity


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
    "no-half-decreasing": [(dyn, "is_half_decreasing", lambda p: False)],
    "complement-fails": [(dyn, "complement_conjugation_check", lambda tset, n: False)],
    "conjecture-refuted": [
        (dyn, "trivial_periodic_points_only", lambda tset, n: (False, (2, 1)))
    ],
    "sort-count-zero": [(dyn, "sort_count", lambda tset, n, workers=1: 0)],
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


def test_orbit_parts_start_every_permutation_once(monkeypatch):
    """The orbit check's parts, one per first letter, start from all of
    S_n once each and in lexicographic order."""
    starts = []
    _orbit = dyn.orbit

    def orbit(p, tset):
        starts.append(p)
        return _orbit(p, tset)

    monkeypatch.setattr(dyn, "orbit", orbit)
    for n in range(1, 6):
        starts.clear()
        for first in range(1, n + 1):
            assert not list(verify._orbit_failures(n, first))
        assert starts == list(enumerate_permutations(n))
