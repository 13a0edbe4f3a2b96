"""Acceptance suite: one test per criterion of `ermakov_lab.criteria.CRITERIA`,
each printing a pass/fail line per row.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""
import pytest

from ermakov_lab.criteria import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    rows = criterion()
    for name, value, bound, passed in rows:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {value:.3e} (bound {bound:.3e})")
    assert all(passed for *_, passed in rows)
