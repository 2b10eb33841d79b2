"""xfstests harness: test registry, environments and the runner."""

from __future__ import annotations

import itertools
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.core.cntrfs import CntrFS
from repro.fs.constants import OpenFlags
from repro.fs.errors import FsError
from repro.fs.tmpfs import TmpFS
from repro.fuse.client import FuseClientFs
from repro.fuse.device import FuseDeviceHandle
from repro.fuse.options import FuseMountOptions
from repro.kernel.machine import Machine, boot
from repro.kernel.syscalls import Syscalls

_env_counter = itertools.count(1)


class TestFailure(AssertionError):
    """Raised by a test when an expectation is violated."""


@dataclass(frozen=True)
class TestCase:
    """One registered generic test."""

    number: int
    name: str
    groups: tuple[str, ...]
    func: Callable[["TestEnvironment"], None]

    @property
    def test_id(self) -> str:
        """xfstests-style identifier, e.g. ``generic/375``."""
        return f"generic/{self.number:03d}"


@dataclass
class TestResult:
    """Outcome of one test."""

    case: TestCase
    status: str              # "pass" | "fail"
    message: str = ""

    @property
    def passed(self) -> bool:
        """True when the test passed."""
        return self.status == "pass"


class TestEnvironment:
    """What a generic test gets to work with."""

    def __init__(self, name: str, machine: Machine, sc: Syscalls, test_dir: str,
                 scratch_dir: str, fs_under_test, is_cntrfs: bool) -> None:
        self.name = name
        self.machine = machine
        self.sc = sc
        self.test_dir = test_dir
        self.scratch_dir = scratch_dir
        self.fs_under_test = fs_under_test
        self.is_cntrfs = is_cntrfs

    # ------------------------------------------------------------- helpers
    def path(self, relative: str) -> str:
        """Absolute path inside the test directory."""
        return f"{self.test_dir}/{relative.lstrip('/')}"

    def scratch(self, relative: str) -> str:
        """Absolute path inside the scratch directory."""
        return f"{self.scratch_dir}/{relative.lstrip('/')}"

    def unique_name(self, prefix: str = "f") -> str:
        """A name guaranteed unique within this environment."""
        return f"{prefix}-{next(_env_counter)}"

    def create_file(self, path: str, content: bytes = b"", mode: int = 0o644) -> None:
        """Create a file with the given content."""
        fd = self.sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY |
                          OpenFlags.O_TRUNC, mode)
        try:
            if content:
                self.sc.write(fd, content)
        finally:
            self.sc.close(fd)

    def read_file(self, path: str, size: int = 1 << 22) -> bytes:
        """Read a whole file."""
        fd = self.sc.open(path, OpenFlags.O_RDONLY)
        try:
            return self.sc.read(fd, size)
        finally:
            self.sc.close(fd)

    def write_file(self, path: str, payload: bytes) -> None:
        """One ``write`` to an existing file — ``echo payload > path`` on a
        procfs, sysfs, cgroupfs or tracefs control file."""
        fd = self.sc.open(path, OpenFlags.O_WRONLY)
        try:
            self.sc.write(fd, payload)
        finally:
            self.sc.close(fd)

    # ------------------------------------------------------------- crash model
    def make_durable(self) -> None:
        """``sync`` the filesystem under test: everything before this call is
        on stable storage and must survive a subsequent :meth:`power_fail`."""
        self.fs_under_test.sync()

    def power_fail(self) -> None:
        """Power-fail the filesystem under test and bring it back.

        Native ext4 drops its volatile state and replays the journal; the
        CntrFS client loses its writeback cache (the backing store and server
        survive — the container-crash scenario the paper's consistency
        trade-off is about).  The mount is usable again on return.
        """
        self.fs_under_test.crash()
        self.fs_under_test.remount()

    # ------------------------------------------------------------- assertions
    def check(self, condition: bool, message: str) -> None:
        """Fail the test when ``condition`` is false."""
        if not condition:
            raise TestFailure(message)

    def check_equal(self, actual, expected, message: str = "") -> None:
        """Fail unless ``actual == expected``."""
        if actual != expected:
            raise TestFailure(f"{message or 'mismatch'}: got {actual!r}, "
                              f"expected {expected!r}")

    def check_errno(self, errno_value: int, func, *args, **kwargs) -> None:
        """Fail unless calling ``func`` raises FsError with ``errno_value``."""
        try:
            func(*args, **kwargs)
        except FsError as exc:
            if exc.errno != errno_value:
                raise TestFailure(f"expected errno {errno_value}, got {exc.errno} "
                                  f"({exc})") from exc
            return
        raise TestFailure(f"expected errno {errno_value}, but the call succeeded")


# ---------------------------------------------------------------------------
# Environment builders
# ---------------------------------------------------------------------------
def native_environment(machine: Machine | None = None) -> TestEnvironment:
    """Tests run directly against the native ext4-like filesystem (baseline)."""
    from repro.fs.ext4 import Ext4Fs

    machine = machine or boot()
    sc = machine.spawn_host_process(["/usr/bin/xfstests", "native"])
    backing = Ext4Fs("xfstests-ext4", machine.kernel.clock, machine.kernel.costs,
                     machine.kernel.tracer)
    sc.makedirs("/mnt/test")
    sc.mount(backing, "/mnt/test")
    sc.makedirs("/mnt/test/testdir")
    sc.makedirs("/mnt/test/scratch")
    return TestEnvironment(name="ext4-native", machine=machine, sc=sc,
                           test_dir="/mnt/test/testdir",
                           scratch_dir="/mnt/test/scratch",
                           fs_under_test=backing, is_cntrfs=False)


def cntrfs_environment(machine: Machine | None = None,
                       options: FuseMountOptions | None = None) -> TestEnvironment:
    """Tests run against CntrFS mounted on top of tmpfs (the paper's setup)."""
    machine = machine or boot()
    kernel = machine.kernel

    # The backing store: a tmpfs mounted on the host, served by CntrFS.
    host_sc = machine.spawn_host_process(["/usr/bin/xfstests", "cntrfs-server"])
    backing = TmpFS("xfstests-backing-tmpfs", kernel.clock, kernel.costs, kernel.tracer)
    host_sc.makedirs("/mnt/backing")
    host_sc.mount(backing, "/mnt/backing")
    host_sc.makedirs("/mnt/backing/testdir")
    host_sc.makedirs("/mnt/backing/scratch")

    # The CntrFS server exports the backing mount; the client mounts it elsewhere.
    fuse_fd = host_sc.open("/dev/fuse", OpenFlags.O_RDWR)
    handle = host_sc.process.get_fd(fuse_fd)
    assert isinstance(handle, FuseDeviceHandle)
    export_root = kernel.vfs.resolve(
        host_sc._ctx(), "/mnt/backing")  # noqa: SLF001 - harness-internal use
    server = CntrFS(kernel, host_sc.process, export_root=export_root)
    handle.connection.attach_server(server)

    client_sc = machine.spawn_host_process(["/usr/bin/xfstests", "cntrfs-client"])
    client = FuseClientFs("xfstests-cntrfs", kernel.clock, kernel.costs,
                          handle.connection,
                          options=options or FuseMountOptions.paper_defaults(),
                          tracer=kernel.tracer)
    client_sc.makedirs("/mnt/cntr")
    client_sc.mount(client, "/mnt/cntr")
    return TestEnvironment(name="cntrfs-over-tmpfs", machine=machine, sc=client_sc,
                           test_dir="/mnt/cntr/testdir",
                           scratch_dir="/mnt/cntr/scratch",
                           fs_under_test=client, is_cntrfs=True)


class EnvironmentSnapshot:
    """A booted :class:`TestEnvironment` frozen for cheap per-case cloning.

    Building an environment boots a machine, spawns processes and mounts the
    filesystem under test — ~2-3x the cost of deep-copying the finished object
    graph.  The snapshot captures the environment once through
    :meth:`repro.kernel.kernel.Kernel.snapshot` (the environment rides along
    as a companion so its syscall handles stay wired to the cloned kernel);
    every :meth:`fork` then yields an independent pristine environment whose
    virtual clock, RNG streams and filesystem state match a fresh build
    exactly.
    """

    def __init__(self, env: TestEnvironment) -> None:
        self.source_name = env.name
        self._snap = env.machine.kernel.snapshot(env)

    @property
    def forks(self) -> int:
        """How many clones have been taken so far."""
        return self._snap.forks

    def fork(self) -> TestEnvironment:
        """An independent clone of the snapshotted environment."""
        _kernel, (env,) = self._snap.fork()
        return env


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------
def run_case(case: TestCase, env: TestEnvironment) -> TestResult:
    """Run one case in its own ``generic-NNN`` directory under ``env``'s test
    directory and classify the outcome.

    The case passes when it returns.  A :class:`TestFailure` or
    :class:`FsError` fails it with the exception's message; any other
    exception fails it with the exception and a short traceback.  ``env``
    should be used for this one case only, e.g. a fresh
    :meth:`EnvironmentSnapshot.fork`.
    """
    workdir = f"{env.test_dir}/{case.test_id.replace('/', '-')}"
    sandboxed = TestEnvironment(name=env.name, machine=env.machine, sc=env.sc,
                                test_dir=workdir, scratch_dir=env.scratch_dir,
                                fs_under_test=env.fs_under_test,
                                is_cntrfs=env.is_cntrfs)
    try:
        env.sc.makedirs(workdir)
        case.func(sandboxed)
    except (TestFailure, FsError) as exc:
        return TestResult(case=case, status="fail", message=str(exc))
    except Exception as exc:  # noqa: BLE001 - report unexpected errors as failures
        return TestResult(case=case, status="fail",
                          message=f"unexpected error: {exc!r}\n"
                                  f"{traceback.format_exc(limit=3)}")
    return TestResult(case=case, status="pass")


@dataclass
class RunSummary:
    """Aggregate result of one xfstests run."""

    environment: str
    results: list[TestResult] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of tests executed."""
        return len(self.results)

    @property
    def passed(self) -> int:
        """Number of passing tests."""
        return sum(1 for r in self.results if r.passed)

    @property
    def failed(self) -> int:
        """Number of failing tests."""
        return self.total - self.passed

    @property
    def pass_rate(self) -> float:
        """Fraction of tests that passed."""
        return self.passed / self.total if self.total else 0.0

    def failing_ids(self) -> list[str]:
        """xfstests identifiers of the failing tests."""
        return [r.case.test_id for r in self.results if not r.passed]

    def format_table(self) -> str:
        """Render the pass count and one line per failing test."""
        lines = [f"xfstests generic group on {self.environment}",
                 f"  passed {self.passed}/{self.total} "
                 f"({self.pass_rate * 100:.2f}%), failed {self.failed}"]
        for result in self.results:
            if not result.passed:
                lines.append(f"  {result.case.test_id} [{result.status}] "
                             f"{result.case.name}: {result.message}")
        return "\n".join(lines)


class XfstestsRunner:
    """Runs generic tests against one environment, each case on its own fork
    of a single pre-booted :class:`EnvironmentSnapshot`."""

    def __init__(self, env_factory: Callable[[], TestEnvironment]) -> None:
        self.env_factory = env_factory

    def run(self, cases=None) -> RunSummary:
        """Run ``cases`` (default: the whole generic group) and summarise."""
        from repro.xfstests.generic import GENERIC_TESTS

        env = self.env_factory()
        snapshot = EnvironmentSnapshot(env)
        return RunSummary(environment=env.name,
                          results=[run_case(case, snapshot.fork())
                                   for case in (GENERIC_TESTS if cases is None else cases)])
