"""Acceptance suite: runs every validation-harness criterion at its stated
tolerance and prints one pass/fail line per criterion.

The checks themselves live in degcount.validation so the CLI `validate`
subcommand and this module exercise identical code.  Trend thresholds marked
oracle-confirmed in the harness were fixed against the exact-count oracle,
not asymptotic statements; their measured values are embedded in the detail
lines printed below.
"""

import pytest

from degcount import validation


@pytest.mark.parametrize("check", validation.FULL_SUITE,
                         ids=[fn.__name__.removeprefix("check_")
                              for fn in validation.FULL_SUITE])
def test_acceptance_criterion(check):
    result = check()
    print(f"{result.name}: {result.detail}")
    assert result.passed, result.detail


def test_suite_runner_small():
    results = validation.run_suite("small")
    for r in results:
        print(f"{r.name}: {r.detail}")
    assert all(r.passed for r in results)
