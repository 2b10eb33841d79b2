"""Section 5.1: the xfstests generic-group correctness table."""


from repro.xfstests import (
    PAPER_FAILING_TESTS,
    XfstestsRunner,
    cntrfs_environment,
    native_environment,
)


def test_xfstests_cntrfs_pass_rate():
    summary = XfstestsRunner(cntrfs_environment).run()
    assert summary.passed == 206 and summary.total == 210
    assert sorted(summary.failing_ids()) == sorted(PAPER_FAILING_TESTS)


def test_xfstests_native_baseline():
    summary = XfstestsRunner(native_environment).run()
    assert summary.passed == summary.total == 210
