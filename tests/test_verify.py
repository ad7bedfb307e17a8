"""The named verification suites must pass at small sizes and report
fine-grained checks."""

import doctest

import pytest

import permstack.dynamics
import permstack.machine
import permstack.textio
import permstack.words
from permstack import verify


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_suite_passes_small(name):
    checks = verify.SUITES[name](4, 1)
    assert checks, name
    bad = [c for c in checks if not c.ok]
    assert not bad, bad


def test_run_suites_concatenates():
    checks = verify.run_suites(["recursion", "complement"], 3, 1)
    names = [c.name for c in checks]
    assert any("recursion" in n for n in names)
    assert any("complement" in n for n in names)


def test_check_details_empty_on_pass():
    for check in verify.suite_machine_catalan(3, 1):
        assert check.ok and check.detail == ""


@pytest.mark.parametrize(
    "module",
    [permstack.words, permstack.machine, permstack.dynamics, permstack.textio, "README.md"],
)
def test_doctests(module):
    if isinstance(module, str):  # a text file at the repository root
        failures, _ = doctest.testfile(f"../{module}")
    else:
        failures, _ = doctest.testmod(module)
    assert failures == 0
