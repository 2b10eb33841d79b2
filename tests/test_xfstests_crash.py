"""The locks/crash/stress xfstests cases, one pytest item per (case, environment).

The POSIX byte-range lock cases (generic/151-165), the power-fail +
journal-replay cases (generic/166-185) and the seeded shadow-model stress
soups (generic/186-203).  ``check_generic_case`` (``tests/conftest.py``) runs
each through ``run_case``, so a regression names the exact case and
environment.
"""

from __future__ import annotations

import pytest

from repro.xfstests.generic import GENERIC_TESTS

NEW_CASES = [case for case in GENERIC_TESTS if 151 <= case.number <= 203]


def test_the_new_surface_is_at_least_fortyfive_cases():
    assert len(NEW_CASES) >= 45
    by_group = {group: sum(1 for case in NEW_CASES if group in case.groups)
                for group in ("locks", "crash", "stress")}
    assert by_group == {"locks": 15, "crash": 20, "stress": 18}


@pytest.mark.parametrize("case", NEW_CASES, ids=lambda case: case.test_id)
def test_generic_case(check_generic_case, case):
    check_generic_case(case)
