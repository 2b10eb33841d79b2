"""xfstests-style filesystem regression suite.

The paper's completeness/correctness evaluation (§5.1) runs the ``generic``
group of xfstests against CntrFS mounted on top of tmpfs and reports 90 of 94
tests passing, with the four failures (#375, #228, #391, #426) attributable to
deliberate design choices in CntrFS rather than bugs.  This package contains a
210-test generic group implemented against the simulated syscall interface
(206 of them pass on CntrFS, failing the same four), environment builders
for both the native-filesystem baseline and the CntrFS-over-tmpfs
configuration, :func:`run_case` (one case on one environment, one verdict),
a runner that forks a fresh environment per case, and a CLI
(``python -m repro.xfstests``) that CI runs as a dedicated conformance gate.
"""

from repro.xfstests.harness import (
    TestCase,
    TestEnvironment,
    TestFailure,
    TestResult,
    XfstestsRunner,
    cntrfs_environment,
    native_environment,
    run_case,
)
from repro.xfstests.generic import GENERIC_TESTS, PAPER_FAILING_TESTS

__all__ = [
    "TestCase",
    "TestEnvironment",
    "TestFailure",
    "TestResult",
    "XfstestsRunner",
    "cntrfs_environment",
    "native_environment",
    "run_case",
    "GENERIC_TESTS",
    "PAPER_FAILING_TESTS",
]
