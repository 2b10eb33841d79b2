"""The observability xfstests cases, one pytest item per (case, environment).

The PSI pressure files, the nanosecond-exact stall decompositions, the
``/proc/vmstat`` + per-cgroup ``io.stat`` counters and the tracefs control
surface (generic/204-209).  ``check_generic_case`` (``tests/conftest.py``)
runs each through ``run_case``, so a regression names the exact case and
environment.
"""

from __future__ import annotations

import pytest

from repro.xfstests.generic import GENERIC_TESTS

NEW_CASES = [case for case in GENERIC_TESTS if 204 <= case.number <= 209]


def test_the_new_surface_is_six_cases():
    assert NEW_CASES == [case for case in GENERIC_TESTS if "psi" in case.groups]
    assert len(NEW_CASES) == 6
    for case in NEW_CASES:
        assert "auto" in case.groups and "quick" in case.groups


@pytest.mark.parametrize("case", NEW_CASES, ids=lambda case: case.test_id)
def test_generic_case(check_generic_case, case):
    check_generic_case(case)
