"""The writeback/caching xfstests cases, one pytest item per (case, environment).

The memory-pressure model's conformance cases (generic/091-114), the
reclaim/readahead wave (generic/115-130) and the cgroup memory-controller
wave (generic/131-146).  ``check_generic_case`` (``tests/conftest.py``) runs
each through ``run_case``, so a regression names the exact case and
environment.
"""

from __future__ import annotations

import pytest

from repro.xfstests.generic import GENERIC_TESTS

NEW_CASES = [case for case in GENERIC_TESTS if 91 <= case.number <= 146]


def test_the_new_surface_is_at_least_fiftytwo_cases():
    assert len(NEW_CASES) >= 52
    groups = {group for case in NEW_CASES for group in case.groups}
    # Durability, caching, truncate/rename interactions, sparse semantics,
    # memory-pressure reclaim, per-device readahead, sysctl validation and
    # the cgroup memory controller are all represented.
    assert {"writeback", "caching", "rename", "seek", "prealloc",
            "reclaim", "readahead", "sysctl", "cgroup"} <= groups


@pytest.mark.parametrize("case", NEW_CASES, ids=lambda case: case.test_id)
def test_generic_case(check_generic_case, case):
    check_generic_case(case)
