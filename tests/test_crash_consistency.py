"""Crash-consistency properties: clean shutdowns, no-op crashes, fuzzer
determinism and the crashed-engine timer lifecycle.

The per-case conformance surface lives in ``tests/test_xfstests_crash.py``;
this module pins the *invariants* of the power-fail engine:

* a clean shutdown (``sync`` then power-fail then remount) is byte-identical
  to never having remounted at all, on both environments;
* a crash with no dirty state anywhere is an observational no-op, however
  many times it happens;
* the seeded differential fuzzer is fully deterministic — same seed, same
  ops, same crash points, same state hashes;
* the fuzzer seeds that renamed a file onto its own inode run clean;
* a crashed writeback engine never fires against the shared clock, and the
  remount re-arms it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs.constants import OpenFlags
from repro.stress import FsStress
from repro.xfstests import harness

CREAT_RW = OpenFlags.O_CREAT | OpenFlags.O_RDWR

#: (op, file index, offset, size) soups for the equivalence properties.
_fs_ops = st.lists(
    st.tuples(st.sampled_from(["write", "write", "write", "truncate",
                               "fsync", "unlink"]),
              st.integers(min_value=0, max_value=3),           # file index
              st.integers(min_value=0, max_value=16384),       # offset / size
              st.integers(min_value=1, max_value=4096)),       # write size
    min_size=1, max_size=30)


def _apply_ops(env, base: str, ops) -> dict[str, int]:
    """Drive the op soup against ``base``; returns the open fds by name."""
    fds: dict[str, int] = {}
    for kind, idx, offset, size in ops:
        name = f"f{idx}"
        path = f"{base}/{name}"
        if kind == "write":
            if name not in fds:
                fds[name] = env.sc.open(path, CREAT_RW, 0o644)
            env.sc.pwrite(fds[name], bytes([65 + idx]) * size, offset)
        elif kind == "truncate" and name in fds:
            env.sc.ftruncate(fds[name], offset)
        elif kind == "fsync" and name in fds:
            env.sc.fsync(fds[name])
        elif kind == "unlink" and name in fds:
            env.sc.close(fds.pop(name))
            env.sc.unlink(path)
    return fds


def _tree(env, base: str) -> dict[str, bytes]:
    return {name: env.read_file(f"{base}/{name}")
            for name in sorted(env.sc.listdir(base))}


def _cleanup(env, base: str, fds: dict[str, int]) -> None:
    for fd in fds.values():
        env.sc.close(fd)
    for name in env.sc.listdir(base):
        env.sc.unlink(f"{base}/{name}")
    env.sc.rmdir(base)
    env.make_durable()


@pytest.fixture(scope="module", params=["native", "cntrfs"])
def xfs_env(request):
    if request.param == "native":
        return harness.native_environment()
    return harness.cntrfs_environment()


class TestCleanShutdownEquivalence:
    """sync() + power-fail + remount must be byte-identical to never having
    remounted: a clean shutdown loses nothing, resurrects nothing."""

    _counter = [0]

    @given(_fs_ops)
    @settings(max_examples=60, deadline=None)
    def test_clean_shutdown_is_byte_identical(self, xfs_env, ops):
        self._counter[0] += 1
        base = xfs_env.path(f"clean-{self._counter[0]}")
        xfs_env.sc.makedirs(base)
        fds = _apply_ops(xfs_env, base, ops)
        for fd in fds.values():
            xfs_env.sc.close(fd)
        xfs_env.make_durable()
        before = _tree(xfs_env, base)
        xfs_env.power_fail()
        assert _tree(xfs_env, base) == before
        _cleanup(xfs_env, base, {})

    @given(_fs_ops, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_crash_with_no_dirty_state_is_a_noop(self, xfs_env, ops, crashes):
        self._counter[0] += 1
        base = xfs_env.path(f"noop-{self._counter[0]}")
        xfs_env.sc.makedirs(base)
        fds = _apply_ops(xfs_env, base, ops)
        for fd in fds.values():
            xfs_env.sc.close(fd)
        xfs_env.make_durable()
        before = _tree(xfs_env, base)
        for _ in range(crashes):
            xfs_env.power_fail()
        assert _tree(xfs_env, base) == before
        _cleanup(xfs_env, base, {})


class TestFuzzerDeterminism:
    """The differential fuzzer is a reproducer: a seed names a run exactly."""

    def test_same_seed_same_trace(self):
        first = FsStress(42, ops_per_round=60, rounds=2).run()
        second = FsStress(42, ops_per_round=60, rounds=2).run()
        assert first.passed and second.passed
        assert first.state_trace == second.state_trace
        assert first.ops_applied == second.ops_applied
        assert first.crashes == second.crashes == 2

    def test_different_seeds_diverge_in_trace(self):
        a = FsStress(1, ops_per_round=60, rounds=1).run()
        b = FsStress(2, ops_per_round=60, rounds=1).run()
        assert a.passed and b.passed
        assert a.state_trace != b.state_trace

    def test_a_seed_range_runs_clean(self):
        for seed in range(1, 4):
            report = FsStress(seed, ops_per_round=80, rounds=2).run()
            assert report.passed, "\n".join(report.divergences)


class TestRenameOntoTheSameInode:
    """Seeds whose op streams rename a file onto its own inode.

    Before the fix, ``rename(x, x)`` deleted ``x`` and then failed with
    ENOENT; after a crash ext4's journal brought the file back while
    CntrFS's backing store kept it gone.  The 16 seeds in 1-200 that
    diverged that way share five op streams; each seed here stands for one.
    """

    @pytest.mark.parametrize("seed", [27, 29, 59, 129, 148])
    def test_seed_runs_clean(self, seed):
        report = FsStress(seed, ops_per_round=100, rounds=3).run()
        assert report.passed, "\n".join(report.divergences)


class TestCrashedEngineTimers:
    """A crashed writeback engine must never fire against the shared clock
    (satellite b: the ClockTimer lifecycle audit made into a regression)."""

    def _armed_env_with_dirty_data(self):
        env = harness.native_environment()
        fd = env.sc.open("/proc/sys/vm/dirty_writeback_centisecs",
                         OpenFlags.O_WRONLY)
        try:
            env.sc.write(fd, b"5\n")
        finally:
            env.sc.close(fd)
        env.make_durable()   # pin testdir itself before the power goes out
        path = env.path("timer-victim")
        wfd = env.sc.open(path, CREAT_RW, 0o644)
        env.sc.write(wfd, b"t" * 8192)
        env.sc.process.fds.pop(wfd, None)     # power loss: no close, no flush
        return env

    def test_crash_disarms_and_remount_rearms(self):
        env = self._armed_env_with_dirty_data()
        engine = env.fs_under_test.writeback
        assert engine._flusher_timer is not None
        env.fs_under_test.crash()
        assert engine._flusher_timer is None
        flushes_before = dict(engine.stats.flushes_by_reason)
        # Whole seconds pass on the shared clock: a live kupdate timer would
        # have fired many times over.  A crashed engine must stay silent.
        env.machine.clock.advance(3_000_000_000)
        assert dict(engine.stats.flushes_by_reason) == flushes_before
        env.fs_under_test.remount()
        assert engine._flusher_timer is not None

    def test_rearmed_flusher_works_after_remount(self):
        env = self._armed_env_with_dirty_data()
        engine = env.fs_under_test.writeback
        env.fs_under_test.crash()
        env.fs_under_test.remount()
        path = env.path("timer-revenant")
        fd = env.sc.open(path, CREAT_RW, 0o644)
        env.sc.write(fd, b"r" * 8192)
        ino = env.sc.fstat(fd).st_ino
        assert engine.pending(ino) > 0
        env.machine.clock.advance(200_000_000)   # several 50ms periods
        assert engine.pending(ino) == 0, \
            "the re-armed kupdate timer writes back again"
        env.sc.close(fd)
