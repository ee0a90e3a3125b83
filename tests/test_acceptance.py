"""The acceptance battery, one test per criterion, with a pass/fail line
printed for each (run with -s to see them).  A passing criterion's detail
holds no timing, so the selftest report is byte-deterministic."""

import re

import pytest

from ovc.acceptance import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[f.__name__ for f in CRITERIA])
def test_criterion(criterion):
    result = criterion()
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number:02d} [{status}] {criterion.__name__}: "
          f"{result.detail}")
    assert result.passed, f"criterion {result.number}: {result.detail}"
    assert not re.search(r"\d+\.\d\ds", result.detail)
