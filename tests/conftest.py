"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.kernel.machine import boot_forked
from repro.xfstests import harness
from repro.xfstests.generic import PAPER_FAILING_TESTS

XFSTESTS_ENVIRONMENTS = {"native": harness.native_environment,
                         "cntrfs": harness.cntrfs_environment}


@pytest.fixture()
def machine():
    """A freshly booted simulated host (cloned from a cached boot image)."""
    return boot_forked()


@pytest.fixture()
def syscalls(machine):
    """A syscall facade for a host process forked off init."""
    return machine.spawn_host_process(["/usr/bin/test-process"])


@pytest.fixture(scope="module", params=list(XFSTESTS_ENVIRONMENTS))
def environment_snapshot(request):
    """A booted native or CntrFS test environment, frozen for cheap forks."""
    return harness.EnvironmentSnapshot(XFSTESTS_ENVIRONMENTS[request.param]())


@pytest.fixture()
def fresh_env(environment_snapshot):
    """A pristine fork of :func:`environment_snapshot`, one per test."""
    return environment_snapshot.fork()


@pytest.fixture(scope="module")
def check_generic_case(environment_snapshot):
    """Run one xfstests generic case and assert its verdict, on each environment.

    The case runs through :func:`harness.run_case` on a fresh fork of the
    module's environment snapshot.  It must pass, except that the four
    ``PAPER_FAILING_TESTS`` must fail on CntrFS (paper §5.1).
    """

    def check(case):
        env = environment_snapshot.fork()
        result = harness.run_case(case, env)
        paper_failure = env.is_cntrfs and case.test_id in PAPER_FAILING_TESTS
        assert result.status == ("fail" if paper_failure else "pass"), result.message

    return check
