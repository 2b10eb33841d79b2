"""The paper's xfstests generic group, one pytest item per (case, environment).

Cases generic/001-090 plus the four ``PAPER_FAILING_TESTS``: the 94 cases of
paper §5.1, and the rename regression generic/210.  ``check_generic_case``
(``tests/conftest.py``) runs each through :func:`run_case` on a fresh fork, so
a regression names the exact case and environment.  The later waves have
their own modules: ``test_xfstests_writeback`` (091-146),
``test_xfstests_crash`` (151-203) and ``test_xfstests_psi`` (204-209).  The
aggregate pass-rate check is ``benchmarks/test_bench_xfstests.py``.
"""

from __future__ import annotations

import pytest

from repro.xfstests import harness
from repro.xfstests.__main__ import main
from repro.xfstests.generic import GENERIC_TESTS, PAPER_FAILING_TESTS

#: Every case no wave module runs.
CASES = [case for case in GENERIC_TESTS if not 91 <= case.number <= 209]
PAPER_CASES = [case for case in CASES
               if case.number <= 90 or case.test_id in PAPER_FAILING_TESTS]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.test_id)
def test_generic_case(check_generic_case, case):
    check_generic_case(case)


def test_case_census():
    """How the cases are numbered: each row is (what, got, want)."""
    numbers = [case.number for case in GENERIC_TESTS]
    census = [
        ("registered cases", len(numbers), 210),
        ("unique case numbers", len(set(numbers)), 210),
        ("cases of the paper's group", len(PAPER_CASES), 94),
        ("cases after the paper's group",
         [case.test_id for case in CASES if case not in PAPER_CASES], ["generic/210"]),
        ("unregistered paper failures",
         sorted(set(PAPER_FAILING_TESTS) - {case.test_id for case in PAPER_CASES}), []),
    ]
    assert [row for row in census if row[1] != row[2]] == []


def test_run_case_classifies_outcomes():
    """Each row is (case body, expected status, start of the message)."""
    def passes(env):
        env.check(env.test_dir.endswith("/generic-999"), "per-case workdir")
        env.sc.stat(env.test_dir)

    def fails_a_check(env):
        env.check(False, "boom")

    def hits_an_errno(env):
        env.sc.stat(env.path("missing"))

    def crashes(env):
        raise KeyError("oops")

    snapshot = harness.EnvironmentSnapshot(harness.native_environment())
    for body, status, message in ((passes, "pass", ""),
                                  (fails_a_check, "fail", "boom"),
                                  (hits_an_errno, "fail", "[Errno 2]"),
                                  (crashes, "fail", "unexpected error: KeyError('oops')")):
        result = harness.run_case(harness.TestCase(999, body.__name__, (), body),
                                  snapshot.fork())
        assert (result.status, result.message[:len(message)]) == (status, message)


def test_cli_rejects_an_unknown_group(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--group", "nosuchgroup"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuchgroup'" in err
    assert "'psi'" in err and "'writeback'" in err


def test_cli_runs_one_group(capsys):
    assert main(["--group", "psi"]) == 0
    assert "passed 6/6" in capsys.readouterr().out
