"""The acceptance gate: every criterion runs at its stated tolerance and
prints one pass/fail line. Run with `pytest -s tests/test_acceptance.py` to
see the lines as they complete; `burnfuse verify all` drives the same suite
from the command line."""

import pytest

from burnfuse import verify


@pytest.mark.parametrize("criterion", verify.ALL_CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    for detail in result.details:
        print(f"        {detail}")
    assert result.passed, "\n".join([result.line()] + result.details)
    assert result.elapsed <= result.budget_seconds


def test_gate_is_complete():
    assert len(verify.ALL_CRITERIA) == 10


def test_verdict_result_defaults_and_own_details():
    a = verify.VerdictResult(1, "first", 5)
    b = verify.VerdictResult(2, "second", 5)
    assert (a.passed, a.elapsed, a.details) == (True, 0.0, [])
    a.fail("broken")
    b.note("fine")
    assert (a.passed, a.details) == (False, ["broken"])
    assert (b.passed, b.details) == (True, ["fine"])
    assert a.line() == "[FAIL] criterion 1: first (0.0s / budget 5s)"
