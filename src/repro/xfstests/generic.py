"""The generic test group: 210 filesystem regression tests.

Each test is registered with an xfstests-style number.  Four of them
(generic/228, generic/375, generic/391, generic/426) reproduce the cases the
paper reports as failing on CntrFS because of deliberate design decisions
(RLIMIT_FSIZE not enforced, ACL-aware setgid clearing delegated to the backing
store, O_DIRECT unsupported in favour of mmap, inodes not exportable by
handle); the remaining 206 pass on both the native filesystem and CntrFS.
Generic 91-114 harden the writeback/caching surface grown by the
memory-pressure model: fsync/fdatasync/O_SYNC durability, the procfs
``drop_caches`` file, truncate-vs-dirty-pages interactions, rename over open
files and sparse hole/extent semantics.  Generic 115-130 pin the reclaim and
read-shaping wave: the page-cache budget under ``MemAvailable``, LRU reclaim
flushing dirty pages before dropping them, ``vfs_cache_pressure`` dcache
shrinking, the ``dirty_writeback_centisecs`` periodic flusher, per-device
``read_ahead_kb`` and read-bandwidth shaping, and sysctl input validation.
Generic 131-146 pin the cgroup memory controller behind the synthetic
``/sys/fs/cgroup``: hierarchical charge/uncharge conservation,
tightest-limit-wins, ``memory.max`` honoured by per-cgroup reclaim
(``max``/0 = unlimited, lowering below usage reclaims synchronously),
deterministic ``memory.high`` write throttling, cross-cgroup isolation,
``cgroup.procs`` migration and EINVAL/EACCES/ESRCH input validation.
Generic 151-165 (group ``locks``) pin POSIX byte-range semantics: disjoint
vs overlapping ranges, read/write compatibility, to-EOF locks, same-owner
upgrade/replace, release on close/unlock, lock identity following the inode
through rename, hard links and unlink, and advisoriness.  Generic 166-185
(group ``crash``) exercise the power-fail + journal-replay engine:
fsync/fdatasync/O_SYNC durability promises, ordered truncate/punch replay
(re-extended gaps read zeros, never stale bytes), compound-transaction
commits, uncommitted-change loss semantics (where ext4 rolls back but
CntrFS's synchronous server keeps state — the paper's delayed-sync
trade-off), timer lifecycle across crashes and double power failures.
Generic 186-203 (group ``stress``) run seeded fsstress-style op soups
checked byte-for-byte against a pure in-memory shadow model, the last six
with a mid-soup power failure audited by a durability ledger.  Generic
204-209 (group ``psi``) pin the observability layer: the /proc/pressure and
per-cgroup pressure files in the Linux PSI format, nanosecond-exact
decomposition of each resource's stall total into its stall-site counters
(cpu: runnable wait + ``cpu.max`` throttling; memory: ``memory.high``
throttling + direct reclaim; io: BDI bandwidth shaping + ``vm.dirty_bytes``
throttling + FUSE queue congestion), /proc/vmstat and per-cgroup ``io.stat``
writeback accounting, and the tracefs control files (``set_event`` filters,
``tracing_on``, the bounded ring's drop counters).  Generic 210 (group
``rename``) pins rename onto the source's own inode: a no-op that must
survive a power failure.
"""

from __future__ import annotations

import contextlib
import errno

from repro.fs.acl import AclTag, PosixAcl
from repro.fs.constants import (
    FallocateMode,
    FileMode,
    LockType,
    OpenFlags,
    RenameFlags,
    SeekWhence,
)
from repro.fs.errors import FsError
from repro.kernel.capabilities import CapabilitySet, KNOWN_CAPABILITIES
from repro.kernel.syscalls import Syscalls
from repro.sim.rng import DeterministicRandom
from repro.xfstests.harness import TestCase, TestEnvironment, TestFailure

#: Registry filled by the @generic decorator.
GENERIC_TESTS: list[TestCase] = []

#: The four tests the paper reports as failing on CntrFS.
PAPER_FAILING_TESTS = ("generic/228", "generic/375", "generic/391", "generic/426")

RW = OpenFlags.O_RDWR
CREAT_RW = OpenFlags.O_CREAT | OpenFlags.O_RDWR
CREAT_WR = OpenFlags.O_CREAT | OpenFlags.O_WRONLY


def generic(number: int, *groups: str):
    """Register a generic test under the given xfstests number."""

    def wrap(func):
        GENERIC_TESTS.append(TestCase(number=number, name=func.__name__,
                                      groups=groups or ("auto", "quick"), func=func))
        return func

    return wrap


def unprivileged(env: TestEnvironment, uid: int = 1000, gid: int = 1000,
                 keep_caps: frozenset[str] = frozenset()) -> Syscalls:
    """A syscall facade for an unprivileged user process."""
    child = env.sc.fork(argv=["/usr/bin/xfstests-unpriv"])
    child.uid = uid
    child.gid = gid
    child.groups = frozenset({gid})
    child.caps = CapabilitySet(effective=keep_caps, permitted=keep_caps,
                               inheritable=frozenset(), bounding=keep_caps)
    return Syscalls(env.machine.kernel, child)


# ---------------------------------------------------------------------------
# Basic create / remove / rename
# ---------------------------------------------------------------------------
@generic(1, "auto", "quick")
def test_create_and_read_back(env):
    path = env.path("file1")
    env.create_file(path, b"hello xfstests")
    env.check_equal(env.read_file(path), b"hello xfstests", "content round trip")


@generic(2, "auto", "quick")
def test_new_file_is_empty(env):
    path = env.path("empty")
    env.create_file(path)
    st = env.sc.stat(path)
    env.check_equal(st.st_size, 0, "new file size")
    env.check(st.is_regular, "new file is regular")


@generic(3, "auto", "quick")
def test_unlink_removes_file(env):
    path = env.path("doomed")
    env.create_file(path, b"x")
    env.sc.unlink(path)
    env.check(not env.sc.exists(path), "file gone after unlink")
    env.check_errno(errno.ENOENT, env.sc.stat, path)


@generic(4, "auto", "quick")
def test_mkdir_rmdir(env):
    path = env.path("subdir")
    env.sc.mkdir(path)
    env.check(env.sc.stat(path).is_dir, "mkdir creates a directory")
    env.sc.rmdir(path)
    env.check(not env.sc.exists(path), "rmdir removes it")


@generic(5, "auto", "quick")
def test_rmdir_nonempty_fails(env):
    path = env.path("nonempty")
    env.sc.mkdir(path)
    env.create_file(f"{path}/child", b"x")
    env.check_errno(errno.ENOTEMPTY, env.sc.rmdir, path)


@generic(6, "auto", "quick")
def test_nested_mkdir(env):
    path = env.path("a/b/c/d/e")
    env.sc.makedirs(path)
    env.check(env.sc.stat(path).is_dir, "deep path exists")
    env.create_file(f"{path}/leaf", b"leaf")
    env.check_equal(env.read_file(f"{path}/leaf"), b"leaf")


@generic(7, "auto", "quick")
def test_rename_same_directory(env):
    old, new = env.path("old"), env.path("new")
    env.create_file(old, b"data")
    env.sc.rename(old, new)
    env.check(not env.sc.exists(old), "old name gone")
    env.check_equal(env.read_file(new), b"data")


@generic(8, "auto", "quick")
def test_rename_across_directories(env):
    env.sc.makedirs(env.path("src"))
    env.sc.makedirs(env.path("dst"))
    env.create_file(env.path("src/f"), b"move me")
    env.sc.rename(env.path("src/f"), env.path("dst/f"))
    env.check_equal(env.read_file(env.path("dst/f")), b"move me")
    env.check(not env.sc.exists(env.path("src/f")), "source entry removed")


@generic(9, "auto", "quick")
def test_rename_replaces_target(env):
    a, b = env.path("a"), env.path("b")
    env.create_file(a, b"AAA")
    env.create_file(b, b"BBB")
    env.sc.rename(a, b)
    env.check_equal(env.read_file(b), b"AAA", "target replaced by source")


@generic(10, "auto", "quick")
def test_rename_noreplace(env):
    a, b = env.path("nr-a"), env.path("nr-b")
    env.create_file(a, b"A")
    env.create_file(b, b"B")
    env.check_errno(errno.EEXIST, env.sc.rename, a, b, RenameFlags.RENAME_NOREPLACE)
    env.check_equal(env.read_file(b), b"B", "target untouched")


@generic(11, "auto", "quick")
def test_rename_exchange(env):
    a, b = env.path("xa"), env.path("xb")
    env.create_file(a, b"first")
    env.create_file(b, b"second")
    env.sc.rename(a, b, RenameFlags.RENAME_EXCHANGE)
    env.check_equal(env.read_file(a), b"second", "exchange swapped a")
    env.check_equal(env.read_file(b), b"first", "exchange swapped b")


@generic(12, "auto", "quick")
def test_rename_directory(env):
    env.sc.makedirs(env.path("dir-old/inner"))
    env.create_file(env.path("dir-old/inner/f"), b"deep")
    env.sc.rename(env.path("dir-old"), env.path("dir-new"))
    env.check_equal(env.read_file(env.path("dir-new/inner/f")), b"deep")
    env.check(not env.sc.exists(env.path("dir-old")), "old directory gone")


# ---------------------------------------------------------------------------
# Hard links and symlinks
# ---------------------------------------------------------------------------
@generic(13, "auto", "quick")
def test_hardlink_shares_inode(env):
    a, b = env.path("hl-a"), env.path("hl-b")
    env.create_file(a, b"linked")
    env.sc.link(a, b)
    st_a, st_b = env.sc.stat(a), env.sc.stat(b)
    env.check_equal(st_a.st_ino, st_b.st_ino, "same inode")
    env.check_equal(st_a.st_nlink, 2, "nlink incremented")
    env.check_equal(env.read_file(b), b"linked")


@generic(14, "auto", "quick")
def test_unlink_one_hardlink(env):
    a, b = env.path("hl2-a"), env.path("hl2-b")
    env.create_file(a, b"keep")
    env.sc.link(a, b)
    env.sc.unlink(a)
    env.check_equal(env.read_file(b), b"keep", "survives unlink of other name")
    env.check_equal(env.sc.stat(b).st_nlink, 1, "nlink back to 1")


@generic(15, "auto", "quick")
def test_hardlink_to_directory_forbidden(env):
    env.sc.mkdir(env.path("hl-dir"))
    env.check_errno(errno.EPERM, env.sc.link, env.path("hl-dir"), env.path("hl-dir2"))


@generic(16, "auto", "quick")
def test_symlink_and_readlink(env):
    target, link = env.path("target"), env.path("link")
    env.create_file(target, b"pointed at")
    env.sc.symlink(target, link)
    env.check_equal(env.sc.readlink(link), target, "readlink returns target")
    env.check(env.sc.lstat(link).is_symlink, "lstat sees the link itself")


@generic(17, "auto", "quick")
def test_symlink_resolution(env):
    target, link = env.path("t2"), env.path("l2")
    env.create_file(target, b"via symlink")
    env.sc.symlink(target, link)
    env.check_equal(env.read_file(link), b"via symlink", "open follows the link")
    env.check_equal(env.sc.stat(link).st_size, len(b"via symlink"))


@generic(18, "auto", "quick")
def test_dangling_symlink(env):
    link = env.path("dangling")
    env.sc.symlink(env.path("does-not-exist"), link)
    env.check(env.sc.lstat(link).is_symlink, "lstat works on dangling link")
    env.check_errno(errno.ENOENT, env.sc.stat, link)


@generic(19, "auto", "quick")
def test_symlink_loop(env):
    a, b = env.path("loop-a"), env.path("loop-b")
    env.sc.symlink(a, b)
    env.sc.symlink(b, a)
    env.check_errno(errno.ELOOP, env.sc.stat, a)


# ---------------------------------------------------------------------------
# open(2) flag semantics
# ---------------------------------------------------------------------------
@generic(20, "auto", "quick")
def test_o_excl(env):
    path = env.path("excl")
    env.create_file(path, b"x")
    env.check_errno(errno.EEXIST, env.sc.open, path,
                    CREAT_RW | OpenFlags.O_EXCL, 0o644)


@generic(21, "auto", "quick")
def test_create_mode_respects_umask(env):
    previous = env.sc.umask(0o077)
    try:
        path = env.path("masked")
        fd = env.sc.open(path, CREAT_WR, 0o666)
        env.sc.close(fd)
        env.check_equal(env.sc.stat(path).permissions & 0o777, 0o600,
                        "umask applied at create")
    finally:
        env.sc.umask(previous)


@generic(22, "auto", "quick")
def test_o_trunc(env):
    path = env.path("trunc")
    env.create_file(path, b"long old content")
    fd = env.sc.open(path, OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
    env.sc.close(fd)
    env.check_equal(env.sc.stat(path).st_size, 0, "O_TRUNC emptied the file")


@generic(23, "auto", "quick")
def test_o_append(env):
    path = env.path("append")
    env.create_file(path, b"start-")
    fd = env.sc.open(path, OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
    env.sc.write(fd, b"end")
    env.sc.close(fd)
    env.check_equal(env.read_file(path), b"start-end", "append lands at EOF")


@generic(24, "auto", "quick")
def test_o_directory_on_file(env):
    path = env.path("notadir")
    env.create_file(path, b"x")
    env.check_errno(errno.ENOTDIR, env.sc.open, path,
                    OpenFlags.O_RDONLY | OpenFlags.O_DIRECTORY)


@generic(25, "auto", "quick")
def test_open_missing_file(env):
    env.check_errno(errno.ENOENT, env.sc.open, env.path("missing"), OpenFlags.O_RDONLY)


@generic(26, "auto", "quick")
def test_open_directory_for_write(env):
    path = env.path("wrdir")
    env.sc.mkdir(path)
    env.check_errno(errno.EISDIR, env.sc.open, path, OpenFlags.O_WRONLY)


@generic(27, "auto", "quick")
def test_write_on_readonly_fd(env):
    path = env.path("ro")
    env.create_file(path, b"x")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.check_errno(errno.EBADF, env.sc.write, fd, b"nope")
    finally:
        env.sc.close(fd)


@generic(28, "auto", "quick")
def test_read_on_writeonly_fd(env):
    path = env.path("wo")
    env.create_file(path, b"secret")
    fd = env.sc.open(path, OpenFlags.O_WRONLY)
    try:
        env.check_errno(errno.EBADF, env.sc.read, fd, 10)
    finally:
        env.sc.close(fd)


# ---------------------------------------------------------------------------
# Offsets, truncation, sparse files
# ---------------------------------------------------------------------------
@generic(29, "auto", "quick")
def test_lseek_whences(env):
    path = env.path("seek")
    env.create_file(path, b"0123456789")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.check_equal(env.sc.lseek(fd, 4, SeekWhence.SEEK_SET), 4)
        env.check_equal(env.sc.read(fd, 2), b"45")
        env.check_equal(env.sc.lseek(fd, 2, SeekWhence.SEEK_CUR), 8)
        env.check_equal(env.sc.lseek(fd, -3, SeekWhence.SEEK_END), 7)
        env.check_equal(env.sc.read(fd, 3), b"789")
    finally:
        env.sc.close(fd)


@generic(30, "auto", "quick")
def test_lseek_negative(env):
    path = env.path("seekneg")
    env.create_file(path, b"abc")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.check_errno(errno.EINVAL, env.sc.lseek, fd, -10, SeekWhence.SEEK_SET)
    finally:
        env.sc.close(fd)


@generic(31, "auto", "quick")
def test_pread_pwrite_do_not_move_offset(env):
    path = env.path("positional")
    env.create_file(path, b"AAAAAAAAAA")
    fd = env.sc.open(path, RW)
    try:
        env.sc.pwrite(fd, b"BB", 4)
        env.check_equal(env.sc.pread(fd, 10, 0), b"AAAABBAAAA")
        env.check_equal(env.sc.read(fd, 4), b"AAAA", "offset still at 0")
    finally:
        env.sc.close(fd)


@generic(32, "auto", "quick")
def test_write_beyond_eof_creates_hole(env):
    path = env.path("hole")
    fd = env.sc.open(path, CREAT_RW)
    try:
        env.sc.pwrite(fd, b"tail", 8192)
        env.check_equal(env.sc.fstat(fd).st_size, 8196, "size covers the hole")
        env.check_equal(env.sc.pread(fd, 4, 0), b"\x00" * 4, "hole reads as zeros")
        env.check_equal(env.sc.pread(fd, 4, 8192), b"tail")
    finally:
        env.sc.close(fd)


@generic(33, "auto", "quick")
def test_truncate_grow(env):
    path = env.path("grow")
    env.create_file(path, b"abc")
    env.sc.truncate(path, 10)
    env.check_equal(env.sc.stat(path).st_size, 10)
    env.check_equal(env.read_file(path), b"abc" + b"\x00" * 7, "growth zero-fills")


@generic(34, "auto", "quick")
def test_truncate_shrink(env):
    path = env.path("shrink")
    env.create_file(path, b"a long piece of content")
    env.sc.truncate(path, 6)
    env.check_equal(env.read_file(path), b"a long")


@generic(35, "auto", "quick")
def test_ftruncate(env):
    path = env.path("ftrunc")
    env.create_file(path, b"1234567890")
    fd = env.sc.open(path, RW)
    try:
        env.sc.ftruncate(fd, 4)
        env.check_equal(env.sc.fstat(fd).st_size, 4)
    finally:
        env.sc.close(fd)


# ---------------------------------------------------------------------------
# stat(2) fields and timestamps
# ---------------------------------------------------------------------------
@generic(36, "auto", "quick")
def test_stat_fields(env):
    path = env.path("statf")
    env.create_file(path, b"0123456789abcdef")
    st = env.sc.stat(path)
    env.check_equal(st.st_size, 16)
    env.check_equal(st.st_nlink, 1)
    env.check(st.st_ino > 0, "inode number assigned")
    env.check(st.st_blksize >= 512, "block size sane")


@generic(37, "auto", "quick")
def test_stat_directory_type(env):
    path = env.path("statd")
    env.sc.mkdir(path)
    st = env.sc.stat(path)
    env.check(st.is_dir, "S_IFDIR set")
    env.check(st.st_nlink >= 2, "directory nlink counts . entry")


@generic(38, "auto", "quick")
def test_lstat_vs_stat_on_symlink(env):
    target, link = env.path("ls-t"), env.path("ls-l")
    env.create_file(target, b"0123")
    env.sc.symlink(target, link)
    env.check(env.sc.lstat(link).is_symlink, "lstat reports the link")
    env.check(env.sc.stat(link).is_regular, "stat follows to the file")
    env.check_equal(env.sc.stat(link).st_size, 4)


@generic(39, "auto", "quick")
def test_fstat_matches_stat(env):
    path = env.path("fstat")
    env.create_file(path, b"same inode")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.check_equal(env.sc.fstat(fd).st_ino, env.sc.stat(path).st_ino)
    finally:
        env.sc.close(fd)


@generic(40, "auto", "quick")
def test_chmod_changes_bits(env):
    path = env.path("chmod")
    env.create_file(path, b"x", mode=0o644)
    env.sc.chmod(path, 0o600)
    env.check_equal(env.sc.stat(path).permissions & 0o777, 0o600)
    env.sc.chmod(path, 0o755)
    env.check_equal(env.sc.stat(path).permissions & 0o777, 0o755)


@generic(41, "auto", "quick")
def test_chmod_requires_ownership(env):
    path = env.path("chmod-own")
    env.create_file(path, b"x")
    other = unprivileged(env, uid=4000)
    env.check_errno(errno.EPERM, other.chmod, path, 0o777)


@generic(42, "auto", "quick")
def test_chown_by_root(env):
    path = env.path("chown")
    env.create_file(path, b"x")
    env.sc.chown(path, 1234, 5678)
    st = env.sc.stat(path)
    env.check_equal((st.st_uid, st.st_gid), (1234, 5678))


@generic(43, "auto", "quick")
def test_chown_requires_cap_chown(env):
    path = env.path("chown-unpriv")
    env.create_file(path, b"x")
    env.sc.chown(path, 1000, 1000)
    other = unprivileged(env, uid=1000, gid=1000)
    env.check_errno(errno.EPERM, other.chown, path, 0, 0)


@generic(44, "auto", "quick")
def test_chown_clears_setuid(env):
    path = env.path("suid")
    env.create_file(path, b"x", mode=0o4755)
    env.check(env.sc.stat(path).st_mode & FileMode.S_ISUID, "setuid set initially")
    owner = unprivileged(env, uid=0, gid=0,
                         keep_caps=frozenset({"CAP_CHOWN", "CAP_FOWNER",
                                              "CAP_DAC_OVERRIDE"}))
    owner.chown(path, 2000, 2000)
    env.check(not (env.sc.stat(path).st_mode & FileMode.S_ISUID),
              "setuid cleared by chown without CAP_FSETID")


@generic(45, "auto", "quick")
def test_exec_requires_execute_bit(env):
    path = env.path("noexec")
    env.create_file(path, b"#!/bin/sh\n", mode=0o644)
    from repro.fs.constants import AccessMode
    env.check_errno(errno.EACCES, env.sc.access, path, AccessMode.X_OK)
    env.sc.chmod(path, 0o755)
    env.sc.access(path, AccessMode.X_OK)


@generic(46, "auto", "quick")
def test_sticky_bit_protects_deletion(env):
    shared = env.path("sticky")
    env.sc.mkdir(shared, 0o777)
    env.sc.chmod(shared, 0o1777)
    victim_owner = unprivileged(env, uid=3000)
    fd = victim_owner.open(f"{shared}/victim", CREAT_WR, 0o666)
    victim_owner.close(fd)
    attacker = unprivileged(env, uid=3001)
    env.check_errno(errno.EPERM, attacker.unlink, f"{shared}/victim")
    victim_owner.unlink(f"{shared}/victim")


@generic(47, "auto", "quick")
def test_utimens(env):
    path = env.path("utimens")
    env.create_file(path, b"x")
    env.sc.utimens(path, atime_ns=111_000, mtime_ns=222_000)
    st = env.sc.stat(path)
    env.check_equal(st.st_atime_ns, 111_000)
    env.check_equal(st.st_mtime_ns, 222_000)


@generic(48, "auto", "quick")
def test_mtime_updates_on_write(env):
    path = env.path("mtime")
    env.create_file(path, b"x")
    before = env.sc.stat(path).st_mtime_ns
    fd = env.sc.open(path, OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
    env.sc.write(fd, b"more")
    env.sc.close(fd)
    env.check(env.sc.stat(path).st_mtime_ns > before, "mtime advanced by write")


@generic(49, "auto", "quick")
def test_ctime_updates_on_chmod(env):
    path = env.path("ctime")
    env.create_file(path, b"x")
    before = env.sc.stat(path).st_ctime_ns
    env.sc.chmod(path, 0o640)
    env.check(env.sc.stat(path).st_ctime_ns >= before, "ctime did not go backwards")
    env.check_equal(env.sc.stat(path).permissions & 0o777, 0o640)


@generic(50, "auto", "quick")
def test_atime_monotonic_on_read(env):
    path = env.path("atime")
    env.create_file(path, b"read me")
    before = env.sc.stat(path).st_atime_ns
    env.read_file(path)
    env.check(env.sc.stat(path).st_atime_ns >= before, "atime non-decreasing")


# ---------------------------------------------------------------------------
# Directories
# ---------------------------------------------------------------------------
@generic(51, "auto", "quick")
def test_readdir_contains_dot_entries(env):
    path = env.path("dots")
    env.sc.mkdir(path)
    names = [name for name, _ino, _type in env.sc.readdir(path)]
    env.check("." in names and ".." in names, "dot entries present")


@generic(52, "auto", "quick")
def test_readdir_reflects_changes(env):
    path = env.path("listing")
    env.sc.mkdir(path)
    env.create_file(f"{path}/one", b"1")
    env.create_file(f"{path}/two", b"2")
    env.check_equal(sorted(env.sc.listdir(path)), ["one", "two"])
    env.sc.unlink(f"{path}/one")
    env.check_equal(env.sc.listdir(path), ["two"])


@generic(53, "auto")
def test_many_files_in_directory(env):
    path = env.path("many")
    env.sc.mkdir(path)
    for i in range(200):
        env.create_file(f"{path}/f{i:03d}", b"x")
    names = env.sc.listdir(path)
    env.check_equal(len(names), 200, "all 200 entries listed")
    env.check("f199" in names, "last entry present")


@generic(54, "auto", "quick")
def test_name_max(env):
    ok_name = "n" * 255
    too_long = "n" * 256
    env.create_file(env.path(ok_name), b"x")
    env.check(env.sc.exists(env.path(ok_name)), "255-char name accepted")
    env.check_errno(errno.ENAMETOOLONG, env.sc.open, env.path(too_long), CREAT_WR, 0o644)


@generic(55, "auto")
def test_deep_nesting(env):
    path = env.path("/".join(["d"] * 50))
    env.sc.makedirs(path)
    env.create_file(f"{path}/leaf", b"deep down")
    env.check_equal(env.read_file(f"{path}/leaf"), b"deep down")


@generic(56, "auto")
def test_large_file_integrity(env):
    path = env.path("large")
    pattern = bytes(range(256)) * 4096          # 1 MiB
    fd = env.sc.open(path, CREAT_WR)
    try:
        written = 0
        while written < len(pattern):
            written += env.sc.write(fd, pattern[written:written + 65536])
    finally:
        env.sc.close(fd)
    env.check_equal(env.sc.stat(path).st_size, len(pattern))
    data = env.read_file(path, size=len(pattern))
    env.check_equal(len(data), len(pattern))
    env.check_equal(data[:512], pattern[:512], "head intact")
    env.check_equal(data[-512:], pattern[-512:], "tail intact")


@generic(57, "auto", "quick")
def test_sparse_file_size(env):
    path = env.path("sparse")
    fd = env.sc.open(path, CREAT_WR)
    try:
        env.sc.pwrite(fd, b"end", 1_000_000)
    finally:
        env.sc.close(fd)
    st = env.sc.stat(path)
    env.check_equal(st.st_size, 1_000_003, "logical size includes the hole")


@generic(58, "auto", "quick", "prealloc")
def test_punch_hole(env):
    path = env.path("punch")
    env.create_file(path, b"A" * 8192)
    fd = env.sc.open(path, RW)
    try:
        env.sc.fallocate(fd, FallocateMode.PUNCH_HOLE | FallocateMode.KEEP_SIZE,
                         1024, 2048)
    finally:
        env.sc.close(fd)
    data = env.read_file(path)
    env.check_equal(len(data), 8192, "size unchanged by hole punch")
    env.check_equal(data[1024:3072], b"\x00" * 2048, "punched range zeroed")
    env.check_equal(data[:1024], b"A" * 1024, "prefix intact")


@generic(59, "auto", "quick", "prealloc")
def test_fallocate_extends(env):
    path = env.path("falloc")
    env.create_file(path, b"xy")
    fd = env.sc.open(path, RW)
    try:
        env.sc.fallocate(fd, FallocateMode.DEFAULT, 0, 4096)
    finally:
        env.sc.close(fd)
    env.check_equal(env.sc.stat(path).st_size, 4096, "fallocate grew the file")


@generic(60, "auto", "quick", "prealloc")
def test_fallocate_keep_size(env):
    path = env.path("falloc-keep")
    env.create_file(path, b"xy")
    fd = env.sc.open(path, RW)
    try:
        env.sc.fallocate(fd, FallocateMode.KEEP_SIZE, 0, 4096)
    finally:
        env.sc.close(fd)
    env.check_equal(env.sc.stat(path).st_size, 2, "KEEP_SIZE leaves size alone")


@generic(61, "auto", "quick")
def test_fsync(env):
    path = env.path("fsync")
    fd = env.sc.open(path, CREAT_WR)
    try:
        env.sc.write(fd, b"durable")
        env.sc.fsync(fd)
    finally:
        env.sc.close(fd)
    env.check_equal(env.read_file(path), b"durable")


@generic(62, "auto", "quick")
def test_fdatasync(env):
    path = env.path("fdatasync")
    fd = env.sc.open(path, CREAT_WR)
    try:
        env.sc.write(fd, b"data only")
        env.sc.fdatasync(fd)
    finally:
        env.sc.close(fd)
    env.check_equal(env.read_file(path), b"data only")


@generic(63, "auto", "quick")
def test_statfs(env):
    st = env.sc.statfs(env.test_dir)
    env.check(st.f_bsize >= 512, "block size sane")
    env.check(st.f_blocks > 0, "filesystem reports capacity")
    env.check(st.f_bfree <= st.f_blocks, "free blocks bounded by total")
    env.check(st.f_namemax >= 255, "NAME_MAX at least 255")


# ---------------------------------------------------------------------------
# Extended attributes
# ---------------------------------------------------------------------------
@generic(64, "auto", "quick", "attr")
def test_xattr_roundtrip(env):
    path = env.path("xattr")
    env.create_file(path, b"x")
    env.sc.setxattr(path, "user.comment", b"hello attr")
    env.check_equal(env.sc.getxattr(path, "user.comment"), b"hello attr")


@generic(65, "auto", "quick", "attr")
def test_xattr_replace_missing(env):
    from repro.fs.constants import XattrFlags
    path = env.path("xattr-replace")
    env.create_file(path, b"x")
    env.check_errno(errno.ENODATA, env.sc.setxattr, path, "user.nope", b"v",
                    XattrFlags.XATTR_REPLACE)


@generic(66, "auto", "quick", "attr")
def test_xattr_create_existing(env):
    from repro.fs.constants import XattrFlags
    path = env.path("xattr-create")
    env.create_file(path, b"x")
    env.sc.setxattr(path, "user.key", b"1")
    env.check_errno(errno.EEXIST, env.sc.setxattr, path, "user.key", b"2",
                    XattrFlags.XATTR_CREATE)


@generic(67, "auto", "quick", "attr")
def test_xattr_list(env):
    path = env.path("xattr-list")
    env.create_file(path, b"x")
    env.sc.setxattr(path, "user.a", b"1")
    env.sc.setxattr(path, "user.b", b"2")
    names = env.sc.listxattr(path)
    env.check("user.a" in names and "user.b" in names, "both attributes listed")


@generic(68, "auto", "quick", "attr")
def test_xattr_remove(env):
    path = env.path("xattr-rm")
    env.create_file(path, b"x")
    env.sc.setxattr(path, "user.gone", b"soon")
    env.sc.removexattr(path, "user.gone")
    env.check_errno(errno.ENODATA, env.sc.getxattr, path, "user.gone")


@generic(69, "auto", "attr")
def test_xattr_large_value(env):
    path = env.path("xattr-large")
    env.create_file(path, b"x")
    value = bytes(range(256)) * 16       # 4 KiB
    env.sc.setxattr(path, "user.blob", value)
    env.check_equal(env.sc.getxattr(path, "user.blob"), value)


# ---------------------------------------------------------------------------
# Permissions
# ---------------------------------------------------------------------------
@generic(70, "auto", "quick", "perms")
def test_access_denied_without_read_bit(env):
    from repro.fs.constants import AccessMode
    path = env.path("secret")
    env.create_file(path, b"top secret", mode=0o600)
    other = unprivileged(env, uid=5000)
    env.check_errno(errno.EACCES, other.access, path, AccessMode.R_OK)


@generic(71, "auto", "quick", "perms")
def test_open_denied_without_read_bit(env):
    path = env.path("noread")
    env.create_file(path, b"hidden", mode=0o200)
    other = unprivileged(env, uid=5001)
    env.check_errno(errno.EACCES, other.open, path, OpenFlags.O_RDONLY)


@generic(72, "auto", "quick", "perms")
def test_traverse_requires_execute(env):
    private_dir = env.path("private")
    env.sc.mkdir(private_dir, 0o700)
    env.create_file(f"{private_dir}/inside", b"x")
    other = unprivileged(env, uid=5002)
    env.check_errno(errno.EACCES, other.stat, f"{private_dir}/inside")


@generic(73, "auto", "quick", "perms")
def test_root_overrides_dac(env):
    path = env.path("rootcan")
    env.create_file(path, b"root sees all", mode=0o000)
    env.check_equal(env.read_file(path), b"root sees all",
                    "CAP_DAC_OVERRIDE bypasses mode bits")


# ---------------------------------------------------------------------------
# Open-file semantics
# ---------------------------------------------------------------------------
@generic(74, "auto", "quick")
def test_unlink_while_open(env):
    path = env.path("orphan")
    env.create_file(path, b"still here")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.sc.unlink(path)
        env.check(not env.sc.exists(path), "name removed")
        env.check_equal(env.sc.read(fd, 100), b"still here",
                        "data readable through the open descriptor")
        env.check_equal(env.sc.fstat(fd).st_nlink, 0, "nlink reports zero")
    finally:
        env.sc.close(fd)


@generic(75, "auto", "quick")
def test_rename_while_open(env):
    old, new = env.path("ren-open-a"), env.path("ren-open-b")
    env.create_file(old, b"moving target")
    fd = env.sc.open(old, OpenFlags.O_RDONLY)
    try:
        env.sc.rename(old, new)
        env.check_equal(env.sc.read(fd, 100), b"moving target",
                        "descriptor survives rename")
    finally:
        env.sc.close(fd)


@generic(76, "auto", "quick")
def test_dup_shares_offset(env):
    path = env.path("dup")
    env.create_file(path, b"0123456789")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    fd2 = env.sc.dup(fd)
    try:
        env.check_equal(env.sc.read(fd, 4), b"0123")
        env.check_equal(env.sc.read(fd2, 4), b"4567",
                        "dup'd descriptor shares the file offset")
    finally:
        env.sc.close(fd)
        env.sc.close(fd2)


@generic(77, "auto", "quick")
def test_mknod_fifo(env):
    path = env.path("fifo")
    env.sc.mknod(path, int(FileMode.S_IFIFO) | 0o644)
    st = env.sc.stat(path)
    env.check_equal(st.st_mode & FileMode.S_IFMT, FileMode.S_IFIFO, "FIFO type")


@generic(78, "auto", "quick")
def test_mknod_socket(env):
    path = env.path("sock")
    env.sc.mknod(path, int(FileMode.S_IFSOCK) | 0o644)
    st = env.sc.stat(path)
    env.check_equal(st.st_mode & FileMode.S_IFMT, FileMode.S_IFSOCK, "socket type")


# ---------------------------------------------------------------------------
# Advisory locking
# ---------------------------------------------------------------------------
@generic(79, "auto", "quick", "locks")
def test_conflicting_write_locks(env):
    path = env.path("lock1")
    env.create_file(path, b"locked")
    holder = unprivileged(env, uid=0, keep_caps=frozenset(KNOWN_CAPABILITIES))
    contender = unprivileged(env, uid=0, keep_caps=frozenset(KNOWN_CAPABILITIES))
    fd1 = holder.open(path, RW)
    fd2 = contender.open(path, RW)
    try:
        holder.flock(fd1, LockType.F_WRLCK)
        env.check_errno(errno.EAGAIN, contender.flock, fd2, LockType.F_WRLCK)
    finally:
        holder.close(fd1)
        contender.close(fd2)


@generic(80, "auto", "quick", "locks")
def test_shared_read_locks(env):
    path = env.path("lock2")
    env.create_file(path, b"shared")
    a = unprivileged(env, uid=0, keep_caps=frozenset(KNOWN_CAPABILITIES))
    b = unprivileged(env, uid=0, keep_caps=frozenset(KNOWN_CAPABILITIES))
    fd1, fd2 = a.open(path, OpenFlags.O_RDONLY), b.open(path, OpenFlags.O_RDONLY)
    try:
        a.flock(fd1, LockType.F_RDLCK)
        b.flock(fd2, LockType.F_RDLCK)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(81, "auto", "quick", "locks")
def test_lock_released_on_close(env):
    path = env.path("lock3")
    env.create_file(path, b"serialised")
    first = unprivileged(env, uid=0, keep_caps=frozenset(KNOWN_CAPABILITIES))
    second = unprivileged(env, uid=0, keep_caps=frozenset(KNOWN_CAPABILITIES))
    fd1 = first.open(path, RW)
    first.flock(fd1, LockType.F_WRLCK)
    first.close(fd1)
    fd2 = second.open(path, RW)
    try:
        second.flock(fd2, LockType.F_WRLCK)
    finally:
        second.close(fd2)


# ---------------------------------------------------------------------------
# Modes, set-gid directories, integrity
# ---------------------------------------------------------------------------
@generic(82, "auto", "quick", "perms")
def test_umask_affects_mkdir(env):
    previous = env.sc.umask(0o027)
    try:
        path = env.path("masked-dir")
        env.sc.mkdir(path, 0o777)
        env.check_equal(env.sc.stat(path).permissions & 0o777, 0o750)
    finally:
        env.sc.umask(previous)


@generic(83, "auto", "quick", "perms")
def test_setgid_directory_inherits_group(env):
    shared = env.path("team")
    env.sc.mkdir(shared, 0o775)
    env.sc.chown(shared, 0, 4242)
    env.sc.chmod(shared, 0o2775)
    env.create_file(f"{shared}/report", b"group data")
    env.check_equal(env.sc.stat(f"{shared}/report").st_gid, 4242,
                    "new file inherits the directory group")


@generic(84, "auto", "quick", "perms")
def test_setgid_directory_propagates_to_subdir(env):
    shared = env.path("team2")
    env.sc.mkdir(shared, 0o775)
    env.sc.chown(shared, 0, 4343)
    env.sc.chmod(shared, 0o2775)
    env.sc.mkdir(f"{shared}/sub")
    st = env.sc.stat(f"{shared}/sub")
    env.check_equal(st.st_gid, 4343, "subdirectory inherits the group")
    env.check(st.st_mode & FileMode.S_ISGID, "subdirectory inherits setgid")


@generic(85, "auto")
def test_large_offset_sparse_io(env):
    path = env.path("huge-offset")
    offset = 1 << 30                      # 1 GiB
    fd = env.sc.open(path, CREAT_RW)
    try:
        env.sc.pwrite(fd, b"far away", offset)
        env.check_equal(env.sc.fstat(fd).st_size, offset + 8)
        env.check_equal(env.sc.pread(fd, 8, offset), b"far away")
        env.check_equal(env.sc.pread(fd, 8, offset // 2), b"\x00" * 8)
    finally:
        env.sc.close(fd)


@generic(86, "auto")
def test_many_small_writes_integrity(env):
    path = env.path("chunks")
    fd = env.sc.open(path, CREAT_WR)
    try:
        for i in range(128):
            env.sc.write(fd, bytes([i % 256]) * 97)
    finally:
        env.sc.close(fd)
    data = env.read_file(path, size=97 * 128)
    env.check_equal(len(data), 97 * 128)
    env.check_equal(data[:97], b"\x00" * 97)
    env.check_equal(data[-97:], bytes([127]) * 97)


@generic(87, "auto", "quick")
def test_two_appenders(env):
    path = env.path("two-append")
    env.create_file(path, b"")
    fd1 = env.sc.open(path, OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
    fd2 = env.sc.open(path, OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
    try:
        env.sc.write(fd1, b"aaaa")
        env.sc.write(fd2, b"bbbb")
        env.sc.write(fd1, b"cccc")
    finally:
        env.sc.close(fd1)
        env.sc.close(fd2)
    env.check_equal(env.read_file(path), b"aaaabbbbcccc",
                    "O_APPEND writes always land at EOF")


@generic(88, "auto", "quick")
def test_recreate_after_unlink_open(env):
    path = env.path("recreate")
    env.create_file(path, b"old generation")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.sc.unlink(path)
        env.create_file(path, b"new generation")
        env.check_equal(env.sc.read(fd, 100), b"old generation",
                        "old descriptor still reads the old inode")
        env.check_equal(env.read_file(path), b"new generation")
        env.check(env.sc.fstat(fd).st_ino != env.sc.stat(path).st_ino,
                  "the two names refer to different inodes")
    finally:
        env.sc.close(fd)


@generic(89, "auto", "quick")
def test_empty_directory_listing(env):
    path = env.path("empty-dir")
    env.sc.mkdir(path)
    env.check_equal(env.sc.listdir(path), [], "no entries besides the dots")


@generic(90, "auto", "quick")
def test_mode_preserved_across_rename(env):
    old, new = env.path("mode-old"), env.path("mode-new")
    env.create_file(old, b"x", mode=0o751)
    env.sc.chown(old, 77, 88)
    env.sc.rename(old, new)
    st = env.sc.stat(new)
    env.check_equal(st.permissions & 0o777, 0o751, "mode preserved")
    env.check_equal((st.st_uid, st.st_gid), (77, 88), "ownership preserved")


# ---------------------------------------------------------------------------
# Writeback and caching: fsync durability, O_SYNC, drop_caches, truncate vs
# dirty pages, rename-over-open, sparse hole/extent semantics
# ---------------------------------------------------------------------------
#: Cases drop caches the operator's way, by writing this procfs file.
DROP_CACHES = "/proc/sys/vm/drop_caches"


def _check_write_rejected(env, path: str, payload: bytes, errno_value: int) -> None:
    """Writing ``payload`` to the control file ``path`` fails with
    ``errno_value``; the open itself must succeed."""
    fd = env.sc.open(path, OpenFlags.O_WRONLY)
    try:
        env.check_errno(errno_value, env.sc.write, fd, payload)
    finally:
        env.sc.close(fd)


@generic(91, "auto", "quick", "writeback")
def test_fsync_survives_drop_caches(env):
    path = env.path("durable-fsync")
    fd = env.sc.open(path, CREAT_WR)
    try:
        env.sc.write(fd, b"must survive a cache drop")
        env.sc.fsync(fd)
    finally:
        env.sc.close(fd)
    env.write_file(DROP_CACHES, b"3\n")
    env.check_equal(env.read_file(path), b"must survive a cache drop",
                    "fsynced data intact after drop_caches")
    env.check_equal(env.sc.stat(path).st_size, 25, "size intact")


@generic(92, "auto", "quick", "writeback")
def test_fdatasync_survives_drop_caches(env):
    path = env.path("durable-fdatasync")
    fd = env.sc.open(path, CREAT_WR)
    try:
        env.sc.write(fd, b"A" * 10000)
        env.sc.fdatasync(fd)
    finally:
        env.sc.close(fd)
    env.write_file(DROP_CACHES, b"3\n")
    data = env.read_file(path)
    env.check_equal(len(data), 10000, "fdatasync persisted the length")
    env.check_equal(data, b"A" * 10000, "fdatasync persisted the bytes")


@generic(93, "auto", "quick", "writeback")
def test_o_sync_write_is_durable(env):
    path = env.path("osync")
    fd = env.sc.open(path, CREAT_WR | OpenFlags.O_SYNC)
    try:
        env.sc.write(fd, b"synchronous " * 100)
        ino = env.sc.fstat(fd).st_ino
        env.check_equal(env.fs_under_test.writeback.pending(ino), 0,
                        "O_SYNC leaves no unflushed dirty bytes behind")
    finally:
        env.sc.close(fd)
    env.write_file(DROP_CACHES, b"3\n")
    env.check_equal(env.read_file(path), b"synchronous " * 100)


@generic(94, "auto", "quick", "writeback")
def test_o_dsync_write_is_durable(env):
    path = env.path("odsync")
    fd = env.sc.open(path, CREAT_WR | OpenFlags.O_DSYNC)
    try:
        env.sc.write(fd, b"data-sync")
        ino = env.sc.fstat(fd).st_ino
        env.check_equal(env.fs_under_test.writeback.pending(ino), 0,
                        "O_DSYNC flushes each write's data")
    finally:
        env.sc.close(fd)
    env.check_equal(env.read_file(path), b"data-sync")


@generic(95, "auto", "quick", "writeback")
def test_unsynced_write_survives_drop_caches(env):
    # The simulated drop_caches settles dirty data first (the
    # `sync; echo 3 > drop_caches` idiom in one step), so an unsynced write
    # must still be readable afterwards.
    path = env.path("unsynced")
    env.create_file(path, b"written but never fsynced")
    env.write_file(DROP_CACHES, b"1\n")
    env.check_equal(env.read_file(path), b"written but never fsynced")


@generic(96, "auto", "quick", "caching")
def test_drop_caches_slab_invalidates_dentries(env):
    path = env.path("dentry-victim")
    env.create_file(path, b"x")
    env.sc.stat(path)                        # populate the dcache
    gen_before = env.fs_under_test.dentry_gen
    env.write_file(DROP_CACHES, b"2\n")
    env.check_equal(env.fs_under_test.dentry_gen, gen_before + 1,
                    "mode 2 bumps the dentry generation")
    env.check_equal(env.sc.stat(path).st_size, 1, "lookup still resolves")


@generic(97, "auto", "quick", "caching")
def test_drop_caches_empties_page_cache(env):
    path = env.path("resident")
    env.create_file(path, b"B" * 16384)
    env.read_file(path)                      # make the pages resident
    env.write_file(DROP_CACHES, b"3\n")
    env.check_equal(len(env.fs_under_test.page_cache), 0,
                    "mode 3 leaves no resident pages")
    env.check_equal(env.read_file(path), b"B" * 16384, "content re-readable")


@generic(98, "auto", "quick", "caching")
def test_drop_caches_rejects_invalid_values(env):
    for payload in (b"0", b"5", b"not-a-mode"):
        _check_write_rejected(env, DROP_CACHES, payload, errno.EINVAL)


@generic(99, "auto", "quick", "writeback")
def test_truncate_discards_dirty_data(env):
    path = env.path("trunc-dirty")
    env.create_file(path, b"C" * 65536)      # dirty, below any flush threshold
    env.sc.truncate(path, 0)
    env.check_equal(env.sc.stat(path).st_size, 0, "truncate wins over dirty pages")
    env.check_equal(env.read_file(path), b"", "no stale bytes resurface")
    env.create_file(path, b"fresh")
    env.check_equal(env.read_file(path), b"fresh", "file usable after the cycle")


@generic(100, "auto", "quick", "writeback")
def test_truncate_shrink_then_extend_zero_fills(env):
    path = env.path("shrink-extend")
    env.create_file(path, b"D" * 10000)
    env.sc.truncate(path, 3000)
    env.sc.truncate(path, 8000)
    data = env.read_file(path)
    env.check_equal(data[:3000], b"D" * 3000, "kept prefix intact")
    env.check_equal(data[3000:], b"\x00" * 5000,
                    "re-extended range reads as zeros, not stale data")


@generic(101, "auto", "quick", "writeback")
def test_truncate_mid_page(env):
    path = env.path("midpage")
    env.create_file(path, b"E" * 8192)
    env.sc.truncate(path, 4500)              # cut inside the second page
    env.write_file(DROP_CACHES, b"1\n")
    data = env.read_file(path)
    env.check_equal(len(data), 4500)
    env.check_equal(data, b"E" * 4500, "partial page survives exactly")


@generic(102, "auto", "quick", "writeback")
def test_write_beyond_truncated_eof(env):
    path = env.path("trunc-hole")
    env.create_file(path, b"F" * 4096)
    env.sc.truncate(path, 1000)
    fd = env.sc.open(path, RW)
    try:
        env.sc.pwrite(fd, b"tail", 3000)
    finally:
        env.sc.close(fd)
    data = env.read_file(path)
    env.check_equal(data[:1000], b"F" * 1000)
    env.check_equal(data[1000:3000], b"\x00" * 2000,
                    "gap between old EOF and the write is a hole of zeros")
    env.check_equal(data[3000:], b"tail")


@generic(103, "auto", "quick", "rename")
def test_rename_over_open_target(env):
    winner, loser = env.path("ren-winner"), env.path("ren-loser")
    env.create_file(loser, b"about to be replaced")
    env.create_file(winner, b"replacement content")
    fd = env.sc.open(loser, OpenFlags.O_RDONLY)
    try:
        env.sc.rename(winner, loser)
        env.check_equal(env.sc.read(fd, 100), b"about to be replaced",
                        "open descriptor still reads the replaced inode")
        env.check_equal(env.sc.fstat(fd).st_nlink, 0,
                        "replaced inode reports zero links")
        env.check_equal(env.read_file(loser), b"replacement content")
    finally:
        env.sc.close(fd)


@generic(104, "auto", "quick", "rename")
def test_open_descriptor_follows_rename(env):
    old, new = env.path("follow-old"), env.path("follow-new")
    env.create_file(old, b"")
    fd = env.sc.open(old, OpenFlags.O_WRONLY)
    try:
        env.sc.rename(old, new)
        env.sc.write(fd, b"written after the rename")
        env.sc.fsync(fd)
    finally:
        env.sc.close(fd)
    env.check_equal(env.read_file(new), b"written after the rename",
                    "write through the descriptor lands in the renamed file")


@generic(105, "auto", "quick", "rename", "writeback")
def test_fsync_replaced_open_file(env):
    target, source = env.path("fsync-replaced"), env.path("fsync-source")
    env.create_file(target, b"")
    fd = env.sc.open(target, OpenFlags.O_WRONLY)
    try:
        env.sc.write(fd, b"dirty data on the doomed inode")
        env.create_file(source, b"new")
        env.sc.rename(source, target)
        env.sc.fsync(fd)                     # must not error on the orphan
        env.check_equal(env.sc.fstat(fd).st_size, 30)
    finally:
        env.sc.close(fd)
    env.check_equal(env.read_file(target), b"new")


@generic(106, "auto", "quick", "seek")
def test_seek_data_and_hole(env):
    path = env.path("seekdh")
    env.create_file(path, b"G" * 5000)
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.check_equal(env.sc.lseek(fd, 0, SeekWhence.SEEK_DATA), 0,
                        "SEEK_DATA at 0 stays at 0")
        env.check_equal(env.sc.lseek(fd, 1234, SeekWhence.SEEK_DATA), 1234)
        hole = env.sc.lseek(fd, 0, SeekWhence.SEEK_HOLE)
        env.check_equal(hole, 5000, "the implicit hole starts at EOF")
    finally:
        env.sc.close(fd)


@generic(107, "auto", "quick", "seek")
def test_seek_data_past_eof_is_enxio(env):
    path = env.path("seekeof")
    env.create_file(path, b"hi")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.check_errno(errno.ENXIO, env.sc.lseek, fd, 2, SeekWhence.SEEK_DATA)
        env.check_errno(errno.ENXIO, env.sc.lseek, fd, 99, SeekWhence.SEEK_HOLE)
    finally:
        env.sc.close(fd)
    empty = env.path("seekempty")
    env.create_file(empty)
    fd = env.sc.open(empty, OpenFlags.O_RDONLY)
    try:
        env.check_errno(errno.ENXIO, env.sc.lseek, fd, 0, SeekWhence.SEEK_DATA)
    finally:
        env.sc.close(fd)


@generic(108, "auto", "quick", "prealloc", "caching")
def test_punched_hole_survives_drop_caches(env):
    path = env.path("punch-drop")
    env.create_file(path, b"H" * 16384)
    fd = env.sc.open(path, RW)
    try:
        env.sc.fallocate(fd, FallocateMode.PUNCH_HOLE | FallocateMode.KEEP_SIZE,
                         4096, 8192)
    finally:
        env.sc.close(fd)
    env.write_file(DROP_CACHES, b"3\n")
    data = env.read_file(path)
    env.check_equal(len(data), 16384, "size unchanged")
    env.check_equal(data[4096:12288], b"\x00" * 8192, "hole stays zeroed")
    env.check_equal(data[:4096], b"H" * 4096, "leading extent intact")
    env.check_equal(data[12288:], b"H" * 4096, "trailing extent intact")


@generic(109, "auto", "quick", "caching")
def test_sparse_write_survives_drop_caches(env):
    path = env.path("sparse-drop")
    fd = env.sc.open(path, CREAT_RW)
    try:
        env.sc.pwrite(fd, b"island", 300000)
    finally:
        env.sc.close(fd)
    env.write_file(DROP_CACHES, b"3\n")
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        env.check_equal(env.sc.pread(fd, 6, 300000), b"island")
        env.check_equal(env.sc.pread(fd, 16, 100000), b"\x00" * 16,
                        "hole reads as zeros after the caches are gone")
    finally:
        env.sc.close(fd)


@generic(110, "auto", "quick", "prealloc")
def test_punch_entire_file(env):
    path = env.path("punch-all")
    env.create_file(path, b"I" * 8192)
    fd = env.sc.open(path, RW)
    try:
        env.sc.fallocate(fd, FallocateMode.PUNCH_HOLE | FallocateMode.KEEP_SIZE,
                         0, 8192)
    finally:
        env.sc.close(fd)
    env.check_equal(env.sc.stat(path).st_size, 8192, "KEEP_SIZE holds the size")
    env.check_equal(env.read_file(path), b"\x00" * 8192, "everything is hole")


@generic(111, "auto", "quick", "writeback")
def test_many_small_writes_one_fsync(env):
    path = env.path("aggregated")
    pattern = b"".join(bytes([i % 251]) * 97 for i in range(64))
    fd = env.sc.open(path, CREAT_WR)
    try:
        for i in range(64):
            env.sc.write(fd, bytes([i % 251]) * 97)
        env.sc.fsync(fd)
    finally:
        env.sc.close(fd)
    env.write_file(DROP_CACHES, b"3\n")
    env.check_equal(env.read_file(path), pattern,
                    "aggregated writeback preserved every record")


@generic(112, "auto", "quick", "writeback")
def test_fsync_is_per_inode(env):
    # Settle global dirty state first so the background flusher stays idle.
    # The descriptors stay open throughout: releasing the last descriptor is
    # itself a flush point (the FUSE client writes pending data back on
    # release), which would empty the counters this test observes.
    env.write_file(DROP_CACHES, b"1\n")
    a, b = env.path("per-ino-a"), env.path("per-ino-b")
    fd_a = env.sc.open(a, CREAT_WR, 0o644)
    fd_b = env.sc.open(b, CREAT_WR, 0o644)
    try:
        env.sc.write(fd_a, b"J" * 32768)
        env.sc.write(fd_b, b"K" * 32768)
        ino_a, ino_b = env.sc.fstat(fd_a).st_ino, env.sc.fstat(fd_b).st_ino
        engine = env.fs_under_test.writeback
        env.check(engine.pending(ino_a) > 0 and engine.pending(ino_b) > 0,
                  "both files carry unflushed dirty bytes")
        env.sc.fsync(fd_a)
        env.check_equal(engine.pending(ino_a), 0, "fsync drained only its inode")
        env.check(engine.pending(ino_b) > 0, "the other inode stays pending")
        env.sc.fsync(fd_b)
        env.check_equal(engine.pending(ino_b), 0)
    finally:
        env.sc.close(fd_a)
        env.sc.close(fd_b)


@generic(113, "auto", "quick", "writeback")
def test_append_fsync_drop_readback(env):
    path = env.path("append-durable")
    env.create_file(path, b"log:")
    for chunk in (b"one,", b"two,", b"three"):
        fd = env.sc.open(path, OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
        try:
            env.sc.write(fd, chunk)
            env.sc.fsync(fd)
        finally:
            env.sc.close(fd)
    env.write_file(DROP_CACHES, b"3\n")
    env.check_equal(env.read_file(path), b"log:one,two,three")
    env.check_equal(env.sc.stat(path).st_size, 17)


@generic(114, "auto", "quick", "prealloc", "seek")
def test_keep_size_prealloc_invisible_to_seek_hole(env):
    path = env.path("prealloc-seek")
    env.create_file(path, b"L" * 3000)
    fd = env.sc.open(path, RW)
    try:
        env.sc.fallocate(fd, FallocateMode.KEEP_SIZE, 0, 1 << 20)
        env.check_equal(env.sc.fstat(fd).st_size, 3000,
                        "preallocation beyond EOF does not change the size")
        env.check_equal(env.sc.lseek(fd, 0, SeekWhence.SEEK_HOLE), 3000,
                        "SEEK_HOLE reports EOF, not the preallocated tail")
        env.check_equal(env.sc.lseek(fd, 0, SeekWhence.SEEK_DATA), 0)
    finally:
        env.sc.close(fd)


# ---------------------------------------------------------------------------
# Reclaim and read shaping (generic/115-130)
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _reclaim_budget(env, slack_bytes: int):
    """Enable memory-pressure reclaim with ``slack_bytes`` of headroom above
    the page caches' current footprint, restoring the machine afterwards."""
    kernel = env.machine.kernel
    mem, vm = kernel.mem, kernel.vm
    saved = (mem.total_bytes, mem.reserved_bytes, mem.reclaim_enabled)
    mem.reserved_bytes = 0
    mem.total_bytes = (vm.cached_bytes_total() + vm.dirty_bytes_total()
                       + slack_bytes)
    mem.reclaim_enabled = True
    try:
        yield vm
    finally:
        mem.total_bytes, mem.reserved_bytes, mem.reclaim_enabled = saved


@contextlib.contextmanager
def _vm_knobs(env, **knobs):
    """Write ``/proc/sys/vm`` knobs for the duration, restoring the per-engine
    tunables exactly afterwards (the shared machine must stay untouched)."""
    vm = env.machine.kernel.vm
    state = vm.snapshot()
    try:
        for name, value in knobs.items():
            env.write_file(f"/proc/sys/vm/{name}", f"{value}\n".encode())
        yield vm
    finally:
        vm.restore(state)


def _dirty_file(env, name: str, nbytes: int):
    """Create a file of ``nbytes`` dirty bytes, keeping the descriptor open
    (closing it is itself a flush point on the FUSE client)."""
    fd = env.sc.open(env.path(name), CREAT_WR, 0o644)
    env.sc.write(fd, b"m" * nbytes)
    return fd, env.sc.fstat(fd).st_ino


@generic(115, "auto", "quick", "reclaim")
def test_cache_bounded_under_memavailable(env):
    """The page caches never outgrow the MemAvailable budget once reclaim is
    coupled to the memory model."""
    vm = env.machine.kernel.vm
    reclaimed_before = vm.reclaim_stats.pages_reclaimed
    with _reclaim_budget(env, slack_bytes=256 << 10) as vm:
        path = env.path("bounded")
        env.create_file(path, b"R" * (1 << 20))     # 4x the slack
        env.read_file(path)
        budget = vm.cache_budget_bytes()
        env.check(budget is not None, "reclaim budget is live")
        env.check(vm.cached_bytes_total() <= budget,
                  f"Cached {vm.cached_bytes_total()} exceeds the budget {budget}")
        env.check(vm.reclaim_stats.pages_reclaimed > reclaimed_before,
                  "growth beyond the budget reclaimed pages")


@generic(116, "auto", "quick", "reclaim", "writeback")
def test_reclaim_flushes_dirty_pages_before_dropping(env):
    """Dirty victims are written back through their owning engine (reason
    "reclaim") before the pages drop, and the data stays intact.

    The background flusher is disabled and the caches start empty, so the
    dirty data is both unflushed and the LRU-oldest when pressure arrives —
    reclaim has no clean pages to hide behind.
    """
    vm = env.machine.kernel.vm
    engine = env.fs_under_test.writeback
    old_payload = b"".join(bytes([i % 251]) * 1024 for i in range(64))   # 64 KiB
    big_payload = b"".join(bytes([i % 199]) * 1024 for i in range(512))  # 512 KiB
    with _vm_knobs(env, dirty_background_bytes=0, dirty_bytes=0):
        env.write_file(DROP_CACHES, b"3\n")
        with _reclaim_budget(env, slack_bytes=128 << 10):
            flushed_before = vm.reclaim_stats.pages_flushed
            reclaim_before = engine.stats.flushes_by_reason.get("reclaim", 0)
            old = env.path("dirty-victim-old")
            fd_old = env.sc.open(old, CREAT_WR, 0o644)
            try:
                env.sc.write(fd_old, old_payload)      # oldest + dirty
                big = env.path("dirty-victim-big")
                env.create_file(big, big_payload)      # pressure
                env.check(vm.reclaim_stats.pages_flushed > flushed_before,
                          "reclaim flushed dirty pages before dropping them")
                env.check(engine.stats.flushes_by_reason.get("reclaim", 0)
                          > reclaim_before,
                          "the owning engine saw reclaim-reason flushes")
                env.check_equal(env.read_file(old), old_payload,
                                "reclaimed dirty data reads back intact")
                env.check_equal(env.read_file(big), big_payload,
                                "the pressure workload reads back intact")
            finally:
                env.sc.close(fd_old)


@generic(117, "auto", "quick", "reclaim", "caching")
def test_drop_caches_vs_reclaim_interaction(env):
    """drop_caches empties the caches below the budget; writes that stay
    inside the freed headroom then proceed without further reclaim."""
    with _reclaim_budget(env, slack_bytes=512 << 10) as vm:
        passes_start = vm.reclaim_stats.reclaims
        env.create_file(env.path("pressure-a"), b"A" * (1 << 20))
        env.check(vm.reclaim_stats.reclaims > passes_start,
                  "outgrowing the budget reclaims")
        env.write_file(DROP_CACHES, b"1\n")
        env.check_equal(vm.cached_bytes_total(), 0,
                        "drop_caches leaves no resident pages")
        passes_before = vm.reclaim_stats.reclaims
        env.create_file(env.path("pressure-b"), b"B" * (64 << 10))
        env.check_equal(vm.reclaim_stats.reclaims, passes_before,
                        "writes inside the freed headroom do not reclaim")
    # Re-tightening the budget around the new, smaller footprint puts the
    # caches back under pressure immediately.
    with _reclaim_budget(env, slack_bytes=64 << 10) as vm:
        passes_before = vm.reclaim_stats.reclaims
        env.create_file(env.path("pressure-c"), b"C" * (512 << 10))
        env.check(vm.reclaim_stats.reclaims > passes_before,
                  "a re-tightened budget reclaims again")


@generic(118, "auto", "quick", "writeback", "reclaim")
def test_periodic_flusher_expires_aged_dirty_data(env):
    """vm.dirty_writeback_centisecs wakes the flusher on the virtual clock:
    aged dirty data is written back with *no* further write activity."""
    clock = env.machine.clock
    engine = env.fs_under_test.writeback
    with _vm_knobs(env, dirty_writeback_centisecs=5):
        fd, ino = _dirty_file(env, "aged", 32 << 10)
        try:
            env.check(engine.pending(ino) > 0, "write left dirty bytes pending")
            clock.advance(11 * 10_000_000)       # > 2 periods, zero writes
            env.check_equal(engine.pending(ino), 0,
                            "the periodic wakeup flushed the aged data")
            env.check(engine.stats.flushes_by_reason.get("periodic", 0) >= 1,
                      "the flush is attributed to the periodic flusher")
        finally:
            env.sc.close(fd)


@generic(119, "auto", "quick", "writeback")
def test_periodic_flusher_zero_disables(env):
    """dirty_writeback_centisecs=0 (the default) never flushes on idle time."""
    clock = env.machine.clock
    engine = env.fs_under_test.writeback
    fd, ino = _dirty_file(env, "idle", 32 << 10)
    try:
        pending = engine.pending(ino)
        env.check(pending > 0, "write left dirty bytes pending")
        clock.advance(10_000_000_000)            # 10 virtual seconds idle
        env.check_equal(engine.pending(ino), pending,
                        "no wakeup fires while the knob is 0")
    finally:
        env.sc.close(fd)


@generic(120, "auto", "quick", "writeback")
def test_periodic_flusher_honours_expire_age(env):
    """With both knobs set, the wakeup only writes back data older than
    dirty_expire_centisecs — younger data survives the ticks."""
    clock = env.machine.clock
    engine = env.fs_under_test.writeback
    with _vm_knobs(env, dirty_writeback_centisecs=2, dirty_expire_centisecs=10):
        fd, ino = _dirty_file(env, "young", 32 << 10)
        try:
            clock.advance(5 * 10_000_000)        # two ticks, data aged 5cs
            env.check(engine.pending(ino) > 0,
                      "data younger than the expiry survives the ticks")
            clock.advance(7 * 10_000_000)        # now aged past 10cs
            env.check_equal(engine.pending(ino), 0,
                            "the next tick expires it")
        finally:
            env.sc.close(fd)


@generic(121, "auto", "quick", "sysctl")
def test_invalid_vm_sysctl_values_einval(env):
    """Out-of-range and non-numeric sysctl writes fail with EINVAL and leave
    the knob untouched."""
    for knob, payload in (("dirty_ratio", b"101"),
                          ("dirty_background_ratio", b"-1"),
                          ("dirty_writeback_centisecs", b"-5"),
                          ("vfs_cache_pressure", b"-100"),
                          ("dirty_writeback_centisecs", b"not-a-number")):
        before = env.machine.kernel.vm.get(knob)
        _check_write_rejected(env, f"/proc/sys/vm/{knob}", payload, errno.EINVAL)
        env.check_equal(env.machine.kernel.vm.get(knob), before,
                        f"rejected write left vm.{knob} untouched")


@generic(122, "auto", "quick", "reclaim", "caching")
def test_vfs_cache_pressure_weights_dcache_shrinking(env):
    """vfs_cache_pressure=0 never shrinks dentries during reclaim; the
    default pressure of 100 shrinks one dentry cache per reclaim pass."""
    vm = env.machine.kernel.vm
    with _vm_knobs(env, vfs_cache_pressure=0):
        with _reclaim_budget(env, slack_bytes=128 << 10):
            shrinks_before = vm.reclaim_stats.dcache_shrinks
            passes_before = vm.reclaim_stats.reclaims
            env.create_file(env.path("nopressure"), b"D" * (512 << 10))
            env.check(vm.reclaim_stats.reclaims > passes_before,
                      "the write forced a reclaim pass")
            env.check_equal(vm.reclaim_stats.dcache_shrinks, shrinks_before,
                            "pressure 0 leaves every dentry cache alone")
    with _vm_knobs(env, vfs_cache_pressure=100):
        with _reclaim_budget(env, slack_bytes=128 << 10):
            shrinks_before = vm.reclaim_stats.dcache_shrinks
            env.create_file(env.path("pressure"), b"E" * (512 << 10))
            env.check(vm.reclaim_stats.dcache_shrinks > shrinks_before,
                      "pressure 100 shrinks dentry caches as pages reclaim")


@generic(123, "auto", "quick", "reclaim")
def test_reclaim_conservation(env):
    """Every reclaimed page was either dropped clean or flushed first, and
    the byte counter agrees with the page counters."""
    vm = env.machine.kernel.vm
    with _reclaim_budget(env, slack_bytes=128 << 10):
        env.create_file(env.path("conserve"), b"F" * (768 << 10))
    stats = vm.reclaim_stats
    env.check_equal(stats.pages_reclaimed,
                    stats.pages_dropped + stats.pages_flushed,
                    "reclaimed == dropped-clean + flushed-dirty")
    env.check_equal(stats.bytes_reclaimed, stats.pages_reclaimed * 4096,
                    "byte and page accounting agree")


@generic(124, "auto", "quick", "reclaim")
def test_meminfo_coherent_under_pressure(env):
    """/proc/meminfo renders the same state reclaim enforces: Cached matches
    the registered caches and MemAvailable == MemFree + Cached."""
    def meminfo_kb():
        fd = env.sc.open("/proc/meminfo", OpenFlags.O_RDONLY)
        try:
            text = env.sc.read(fd, 1 << 14).decode()
        finally:
            env.sc.close(fd)
        return {line.split(":")[0]: int(line.split()[1])
                for line in text.splitlines()}

    vm = env.machine.kernel.vm
    with _reclaim_budget(env, slack_bytes=256 << 10):
        env.create_file(env.path("coherent"), b"G" * (512 << 10))
        fields = meminfo_kb()
        env.check_equal(fields["Cached"], vm.cached_bytes_total() >> 10,
                        "meminfo Cached matches the registered caches")
        env.check_equal(fields["MemAvailable"],
                        fields["MemFree"] + fields["Cached"],
                        "MemAvailable == MemFree + Cached")
        env.check_equal(fields["Dirty"], vm.dirty_bytes_total() >> 10,
                        "meminfo Dirty matches the registered engines")


def _bdi_and_sysfs_path(env):
    """The fs-under-test's backing-device info and its /sys/class/bdi path."""
    bdi = env.fs_under_test.writeback.bdi
    return bdi, f"/sys/class/bdi/{bdi.name}/read_ahead_kb"


def _count_shaped_fetches(env, path: str, chunk: int = 16 << 10) -> int:
    """Cold sequential read of ``path`` in ``chunk``-sized preads, returning
    the number of backing-device fetches (BDI shaped-read count)."""
    bdi = env.fs_under_test.writeback.bdi
    env.write_file(DROP_CACHES, b"1\n")
    before = bdi.stats.shaped_reads
    size = env.sc.stat(path).st_size
    fd = env.sc.open(path, OpenFlags.O_RDONLY)
    try:
        offset = 0
        while offset < size:
            data = env.sc.pread(fd, chunk, offset)
            if not data:
                break
            offset += len(data)
    finally:
        env.sc.close(fd)
    return bdi.stats.shaped_reads - before


@contextlib.contextmanager
def _read_shaping(env, read_ahead_kb: int | None):
    """Set the device's read bandwidth (so fetches are counted) and optionally
    its read_ahead_kb through the sysfs file; restore both afterwards."""
    bdi, knob_path = _bdi_and_sysfs_path(env)
    saved = (bdi.read_bandwidth_bytes_s, bdi.read_ahead_kb)
    bdi.read_bandwidth_bytes_s = 100 << 30          # ~free, but counted
    try:
        if read_ahead_kb is not None:
            env.write_file(knob_path, f"{read_ahead_kb}\n".encode())
        yield bdi
    finally:
        bdi.read_bandwidth_bytes_s, bdi.read_ahead_kb = saved


@generic(125, "auto", "quick", "readahead")
def test_per_device_read_ahead_honoured(env):
    """/sys/class/bdi/<dev>/read_ahead_kb steers the sequential-read fetch
    count: one backing fetch per readahead window."""
    path = env.path("ra-honoured")
    env.create_file(path, b"H" * (512 << 10))
    fetches = {}
    for window_kb in (64, 256):
        with _read_shaping(env, read_ahead_kb=window_kb):
            fetches[window_kb] = _count_shaped_fetches(env, path)
    env.check_equal(fetches[64], 8, "512 KiB / 64 KiB windows = 8 fetches")
    env.check_equal(fetches[256], 2, "512 KiB / 256 KiB windows = 2 fetches")


@generic(126, "auto", "quick", "readahead")
def test_read_ahead_zero_disables_readahead(env):
    """read_ahead_kb=0 turns readahead off: every chunk read is a fetch."""
    path = env.path("ra-off")
    env.create_file(path, b"I" * (256 << 10))
    with _read_shaping(env, read_ahead_kb=0):
        fetches = _count_shaped_fetches(env, path, chunk=16 << 10)
    env.check_equal(fetches, 16, "256 KiB in 16 KiB chunks = 16 fetches")


@generic(127, "auto", "quick", "readahead", "sysctl")
def test_read_ahead_sysfs_file_round_trip(env):
    """The sysfs knob reads back what was written and rejects bad input."""
    bdi, knob_path = _bdi_and_sysfs_path(env)
    saved = bdi.read_ahead_kb
    try:
        env.write_file(knob_path, b"512\n")
        env.check_equal(env.read_file(knob_path, 64), b"512\n",
                        "knob reads back the write")
        env.check_equal(bdi.read_ahead_kb, 512, "the live BDI object follows")
        for payload in (b"-1", b"words"):
            _check_write_rejected(env, knob_path, payload, errno.EINVAL)
        env.check_equal(bdi.read_ahead_kb, 512, "rejected writes change nothing")
        env.check_errno(errno.ENOENT, env.sc.stat,
                        "/sys/class/bdi/no-such-device/read_ahead_kb")
    finally:
        bdi.read_ahead_kb = saved


@generic(128, "auto", "quick", "readahead")
def test_read_bandwidth_shapes_cold_reads(env):
    """A read bandwidth charges exactly bytes/bandwidth of virtual time on
    cache-miss fetches; warm reads are never shaped."""
    path = env.path("read-shaped")
    env.create_file(path, b"J" * (256 << 10))
    bdi = env.fs_under_test.writeback.bdi
    saved = bdi.read_bandwidth_bytes_s
    env.write_file(DROP_CACHES, b"1\n")
    bdi.read_bandwidth_bytes_s = 50 << 20           # 50 MiB/s
    try:
        busy_before = bdi.stats.read_busy_ns
        bytes_before = bdi.stats.shaped_read_bytes
        env.read_file(path)
        fetched = bdi.stats.shaped_read_bytes - bytes_before
        env.check(fetched >= 256 << 10, "the cold read fetched the file")
        env.check_equal(bdi.stats.read_busy_ns - busy_before,
                        fetched * 1_000_000_000 // (50 << 20),
                        "shaping charges exactly bytes/bandwidth")
        warm_busy = bdi.stats.read_busy_ns
        env.read_file(path)
        env.check_equal(bdi.stats.read_busy_ns, warm_busy,
                        "page-cache hits pay no read-bandwidth cost")
    finally:
        bdi.read_bandwidth_bytes_s = saved


@generic(129, "auto", "quick", "reclaim")
def test_unbounded_budget_never_reclaims(env):
    """With reclaim disabled (the default) the budget reads as unbounded and
    no workload ever touches the reclaim counters."""
    vm = env.machine.kernel.vm
    env.check(vm.cache_budget_bytes() is None, "default budget is unbounded")
    stats_before = (vm.reclaim_stats.pages_reclaimed,
                    vm.reclaim_stats.reclaims)
    path = env.path("unbounded")
    env.create_file(path, b"K" * (2 << 20))
    env.read_file(path)
    env.check_equal((vm.reclaim_stats.pages_reclaimed,
                     vm.reclaim_stats.reclaims), stats_before,
                    "no reclaim activity with an unbounded budget")


@generic(130, "auto", "quick", "reclaim", "caching")
def test_reclaim_then_drop_caches_settles_clean(env):
    """After pressure, a full drop_caches leaves zero Cached bytes, the
    budget trivially satisfied and every byte still readable."""
    payload = b"".join(bytes([i % 199]) * 512 for i in range(1024))  # 512 KiB
    with _reclaim_budget(env, slack_bytes=128 << 10) as vm:
        path = env.path("settle")
        env.create_file(path, payload)
        env.write_file(DROP_CACHES, b"3\n")
        env.check_equal(vm.cached_bytes_total(), 0, "drop emptied the caches")
        budget = vm.cache_budget_bytes()
        env.check(budget is not None and budget >= 0, "budget stays defined")
        env.check_equal(env.read_file(path), payload, "content intact")


# ---------------------------------------------------------------------------
# Cgroup memory controller (generic/131-146)
# ---------------------------------------------------------------------------
CGROUPFS = "/sys/fs/cgroup"


def _memcg_stat(env, cg_dir: str) -> dict[str, int]:
    """Parse a cgroup's ``memory.stat`` into a dict."""
    text = env.read_file(f"{cg_dir}/memory.stat", 1 << 14).decode()
    return {line.split()[0]: int(line.split()[1])
            for line in text.splitlines() if line}


@contextlib.contextmanager
def _memcg(env, max_bytes: int | None = None, high_bytes: int | None = None,
           attach: bool = True):
    """A fresh cgroup with the test process attached, everything applied
    through the cgroupfs files (the operator path); detaches the process and
    removes the cgroup afterwards, so the shared machine stays untouched."""
    kernel = env.machine.kernel
    pid = env.sc.process.pid
    original = kernel.cgroups.cgroup_of(pid).path
    name = env.unique_name("memcg")
    cg_dir = f"{CGROUPFS}/{name}"
    env.sc.mkdir(cg_dir)
    try:
        if max_bytes is not None:
            env.write_file(f"{cg_dir}/memory.max", f"{max_bytes}\n".encode())
        if high_bytes is not None:
            env.write_file(f"{cg_dir}/memory.high", f"{high_bytes}\n".encode())
        if attach:
            env.write_file(f"{cg_dir}/cgroup.procs", f"{pid}\n".encode())
        yield kernel.cgroups.lookup(f"/{name}"), cg_dir
    finally:
        procs_file = f"{CGROUPFS}{original.rstrip('/')}/cgroup.procs"
        env.write_file(procs_file, f"{pid}\n".encode())
        env.sc.rmdir(cg_dir)


@generic(131, "auto", "quick", "cgroup")
def test_memory_current_tracks_page_cache(env):
    """memory.current follows the cgroup's page-cache charges exactly: zero
    at creation, the written bytes while resident, zero after drop_caches."""
    with _memcg(env) as (cgroup, cg_dir):
        env.check_equal(env.read_file(f"{cg_dir}/memory.current", 1 << 14), b"0\n",
                        "a fresh cgroup holds no charges")
        env.create_file(env.path("charged"), b"C" * (256 << 10))
        current = int(env.read_file(f"{cg_dir}/memory.current", 1 << 14))
        env.check_equal(current, 256 << 10,
                        "memory.current charges the written pages")
        env.check_equal(current, cgroup.mem_cache_bytes,
                        "the file renders the live counter")
        env.write_file(DROP_CACHES, b"1\n")
        env.check_equal(int(env.read_file(f"{cg_dir}/memory.current", 1 << 14)), 0,
                        "dropping the caches uncharges everything")


@generic(132, "auto", "quick", "cgroup")
def test_memcg_charge_uncharge_conservation(env):
    """Hierarchical conservation: the root cgroup's counters equal the
    kernel-wide Cached/Dirty totals at every step — charges can neither leak
    nor double-count."""
    kernel = env.machine.kernel
    root, vm = kernel.cgroups.root, kernel.vm

    def check(when: str) -> None:
        env.check_equal(root.mem_cache_bytes, vm.cached_bytes_total(),
                        f"root memory.current == Cached ({when})")
        env.check_equal(root.mem_dirty_bytes, vm.dirty_bytes_total(),
                        f"root file_dirty == Dirty ({when})")

    check("before")
    with _memcg(env) as (cgroup, _cg_dir):
        env.create_file(env.path("conserve"), b"K" * (512 << 10))
        check("while charged")
        env.check(cgroup.mem_cache_bytes <= root.mem_cache_bytes,
                  "a child's charges are part of the root's")
        env.read_file(env.path("conserve"))
        check("after re-reading")
    env.write_file(DROP_CACHES, b"1\n")
    check("after drop_caches")


@generic(133, "auto", "quick", "cgroup", "reclaim")
def test_memory_max_honoured_by_reclaim(env):
    """Growth past memory.max triggers per-cgroup reclaim: usage is bounded
    by the limit while the data stays fully readable."""
    payload = b"".join(bytes([i % 241]) * 1024 for i in range(1024))  # 1 MiB
    with _memcg(env, max_bytes=256 << 10) as (cgroup, cg_dir):
        path = env.path("bounded")
        env.create_file(path, payload)
        current = int(env.read_file(f"{cg_dir}/memory.current", 1 << 14))
        env.check(current <= 256 << 10,
                  f"memory.current {current} exceeds memory.max")
        env.check(cgroup.memcg_stats.pages_reclaimed > 0,
                  "outgrowing the limit reclaimed pages")
        env.check_equal(env.read_file(path), payload,
                        "reclaimed data reads back intact")


@generic(134, "auto", "quick", "cgroup")
def test_memory_max_zero_and_max_mean_unlimited(env):
    """Both ``0`` and ``max`` disable the limit: no workload reclaims, and
    the knob reads back "max"."""
    with _memcg(env) as (cgroup, cg_dir):
        for sentinel in (b"0\n", b"max\n"):
            env.write_file(f"{cg_dir}/memory.max", sentinel)
            env.check_equal(env.read_file(f"{cg_dir}/memory.max", 1 << 14), b"max\n",
                            f"{sentinel!r} reads back as unlimited")
            env.create_file(env.path(env.unique_name("unlimited")),
                            b"U" * (512 << 10))
            env.check_equal(cgroup.memcg_stats.pages_reclaimed, 0,
                            "an unlimited cgroup never reclaims")


@generic(135, "auto", "quick", "cgroup", "reclaim")
def test_memcg_hierarchy_tightest_limit_wins(env):
    """A parent's memory.max bounds its whole subtree even when the child's
    own limit is looser — the tightest limit along the path wins."""
    kernel = env.machine.kernel
    pid = env.sc.process.pid
    original = kernel.cgroups.cgroup_of(pid).path
    parent_dir = f"{CGROUPFS}/{env.unique_name('tight')}"
    child_dir = f"{parent_dir}/leaf"
    env.sc.mkdir(parent_dir)
    env.sc.mkdir(child_dir)
    try:
        env.write_file(f"{parent_dir}/memory.max", b"131072\n")
        env.write_file(f"{child_dir}/memory.max", b"1048576\n")
        env.write_file(f"{child_dir}/cgroup.procs", f"{pid}\n".encode())
        child = kernel.cgroups.cgroup_of(pid)
        env.check_equal(child.effective_memory_limit(), 131072,
                        "the parent's tighter limit is the effective one")
        env.create_file(env.path("treewide"), b"T" * (512 << 10))
        env.check(child.mem_cache_bytes <= 131072,
                  "the child's usage is bounded by the parent's limit")
        parent = child.parent
        env.check(parent.mem_cache_bytes <= 131072,
                  "the parent's hierarchical usage respects its own limit")
        env.check(parent.memcg_stats.pages_reclaimed > 0,
                  "the over-limit parent did the reclaiming")
    finally:
        env.write_file(f"{CGROUPFS}{original.rstrip('/')}/cgroup.procs",
                       f"{pid}\n".encode())
        env.sc.rmdir(child_dir)
        env.sc.rmdir(parent_dir)


@generic(136, "auto", "quick", "cgroup", "reclaim")
def test_memcg_reclaim_is_isolated_per_cgroup(env):
    """A greedy cgroup under pressure reclaims only its own pages: a
    neighbour's charges — and resident pages — survive untouched."""
    with _memcg(env) as (neighbour, _dir):
        env.create_file(env.path("neighbour"), b"N" * (256 << 10))
        env.read_file(env.path("neighbour"))
        neighbour_usage = neighbour.mem_cache_bytes
        env.check_equal(neighbour_usage, 256 << 10, "the neighbour is charged")
        with _memcg(env, max_bytes=128 << 10) as (greedy, _greedy_dir):
            env.create_file(env.path("greedy"), b"G" * (512 << 10))
            env.check(greedy.memcg_stats.pages_reclaimed > 0,
                      "the greedy cgroup was reclaimed")
            env.check_equal(neighbour.mem_cache_bytes, neighbour_usage,
                            "the neighbour's charges are untouched")
        # The neighbour's pages are still resident: re-reading them is pure
        # page-cache hits (no new misses).
        misses_before = env.fs_under_test.page_cache.stats.misses
        env.read_file(env.path("neighbour"))
        env.check_equal(env.fs_under_test.page_cache.stats.misses, misses_before,
                        "the neighbour's pages stayed resident")


@generic(137, "auto", "quick", "cgroup", "reclaim", "writeback")
def test_memcg_reclaim_flushes_dirty_pages_first(env):
    """Per-cgroup reclaim writes dirty victims back through the owning
    engine (reason "reclaim") before dropping them; the data survives."""
    engine = env.fs_under_test.writeback
    payload = b"".join(bytes([i % 233]) * 1024 for i in range(256))  # 256 KiB
    with _vm_knobs(env, dirty_background_bytes=0, dirty_bytes=0):
        with _memcg(env, max_bytes=128 << 10) as (cgroup, _dir):
            reclaim_before = engine.stats.flushes_by_reason.get("reclaim", 0)
            path = env.path("dirty-victim")
            fd = env.sc.open(path, CREAT_WR, 0o644)
            try:
                env.sc.write(fd, payload)
                env.check(cgroup.memcg_stats.pages_flushed > 0,
                          "reclaim flushed dirty pages before dropping them")
                env.check(engine.stats.flushes_by_reason.get("reclaim", 0)
                          > reclaim_before,
                          "the owning engine saw reclaim-reason flushes")
                env.check(cgroup.mem_cache_bytes <= 128 << 10,
                          "usage settled under the limit")
            finally:
                env.sc.close(fd)
            env.check_equal(env.read_file(path), payload,
                            "reclaimed dirty data reads back intact")


@generic(138, "auto", "quick", "cgroup", "writeback")
def test_memory_high_throttle_is_deterministic(env):
    """Writers over memory.high stall for exactly bytes * throttle_ns_per_byte
    of virtual time — twice the same workload, twice the same stall."""
    kernel = env.machine.kernel
    rate = kernel.memcg.throttle_ns_per_byte
    record = 64 << 10

    def run_once(tag: str) -> tuple[int, int]:
        with _memcg(env, high_bytes=record) as (cgroup, _dir):
            fd = env.sc.open(env.path(f"throttled-{tag}"), CREAT_WR, 0o644)
            try:
                for _ in range(4):
                    env.sc.write(fd, b"S" * record)
            finally:
                env.sc.close(fd)
            return (cgroup.memcg_stats.throttle_stall_ns,
                    cgroup.memcg_stats.throttle_events)

    first = run_once("a")
    second = run_once("b")
    env.check_equal(first, second, "the stall is deterministic")
    # The first record lands exactly at the ceiling (not over); the next
    # three each stall for their full size.
    env.check_equal(first, (3 * record * rate, 3),
                    "stall == bytes-dirtied-over-high * throttle rate")


@generic(139, "auto", "quick", "cgroup", "writeback")
def test_memcg_throttle_off_without_memory_high(env):
    """With no memory.high configured nothing ever stalls: the cgroup and
    engine throttle counters stay untouched."""
    engine = env.fs_under_test.writeback
    stalled_before = engine.stats.throttle_stall_ns
    with _memcg(env) as (cgroup, _dir):
        fd = env.sc.open(env.path("unthrottled"), CREAT_WR, 0o644)
        try:
            for _ in range(4):
                env.sc.write(fd, b"F" * (64 << 10))
        finally:
            env.sc.close(fd)
        env.check_equal(cgroup.memcg_stats.throttle_events, 0,
                        "no stall events without a ceiling")
        env.check_equal(cgroup.memcg_stats.throttle_stall_ns, 0,
                        "no stall time without a ceiling")
    env.check_equal(engine.stats.throttle_stall_ns, stalled_before,
                    "the engine saw no writer stalls")


@generic(140, "auto", "quick", "cgroup", "sysctl")
def test_memcg_file_validation(env):
    """Bad cgroupfs writes are rejected with the Linux errnos and leave the
    knobs untouched: EINVAL for garbage limits, EACCES for read-only files,
    ESRCH for unknown pids."""
    with _memcg(env, attach=False) as (_cgroup, cg_dir):
        for knob in ("memory.max", "memory.high"):
            for payload in (b"-1", b"words", b"1.5"):
                _check_write_rejected(env, f"{cg_dir}/{knob}", payload, errno.EINVAL)
            env.check_equal(env.read_file(f"{cg_dir}/{knob}", 1 << 14), b"max\n",
                            f"rejected writes left {knob} untouched")
        for readonly in ("memory.current", "memory.peak", "memory.stat"):
            _check_write_rejected(env, f"{cg_dir}/{readonly}", b"1", errno.EACCES)
        fd = env.sc.open(f"{cg_dir}/cgroup.procs", OpenFlags.O_WRONLY)
        try:
            env.check_errno(errno.ESRCH, env.sc.write, fd, b"999999")
            env.check_errno(errno.EINVAL, env.sc.write, fd, b"not-a-pid")
        finally:
            env.sc.close(fd)


@generic(141, "auto", "quick", "cgroup", "reclaim")
def test_memory_max_below_usage_reclaims_synchronously(env):
    """Lowering memory.max below the current usage reclaims synchronously
    during the write instead of rejecting it (Linux semantics)."""
    with _memcg(env) as (cgroup, cg_dir):
        env.create_file(env.path("pre-grown"), b"P" * (512 << 10))
        env.check_equal(cgroup.mem_cache_bytes, 512 << 10, "fully charged")
        env.write_file(f"{cg_dir}/memory.max", b"131072\n")
        env.check(cgroup.mem_cache_bytes <= 131072,
                  "the write itself reclaimed the excess")
        env.check(cgroup.memcg_stats.pages_reclaimed >= (384 << 10) // 4096,
                  "at least the excess pages were reclaimed")


@generic(142, "auto", "quick", "cgroup", "writeback")
def test_memory_stat_coherent_with_engine(env):
    """memory.stat renders the same state the caches and engines enforce:
    ``file`` matches the charged pages and ``file_dirty`` the engine's
    unflushed pending, before and after fsync."""
    engine = env.fs_under_test.writeback
    with _vm_knobs(env, dirty_background_bytes=0, dirty_bytes=0):
        with _memcg(env) as (_cgroup, cg_dir):
            fd = env.sc.open(env.path("stat-coherent"), CREAT_WR, 0o644)
            try:
                env.sc.write(fd, b"D" * (128 << 10))
                ino = env.sc.fstat(fd).st_ino
                stat = _memcg_stat(env, cg_dir)
                env.check_equal(stat["file"], 128 << 10, "file == charged pages")
                env.check_equal(stat["file_dirty"], engine.pending(ino),
                                "file_dirty == the engine's pending bytes")
                env.check_equal(stat["file_dirty"], 128 << 10,
                                "every written byte is still dirty")
                env.sc.fsync(fd)
                stat = _memcg_stat(env, cg_dir)
                env.check_equal(stat["file_dirty"], 0, "fsync uncharged dirty")
                env.check_equal(stat["file"], 128 << 10, "pages stay resident")
            finally:
                env.sc.close(fd)


@generic(143, "auto", "quick", "cgroup")
def test_cgroup_procs_round_trip(env):
    """Writing a pid to cgroup.procs moves the process: the file lists it
    and /proc/<pid>/cgroup follows, exactly what Cntr does to its injected
    tools."""
    pid = env.sc.process.pid
    with _memcg(env) as (cgroup, cg_dir):
        procs = env.read_file(f"{cg_dir}/cgroup.procs", 1 << 14).decode()
        env.check(str(pid) in procs.split(), "cgroup.procs lists the member")
        proc_line = env.read_file(f"/proc/{pid}/cgroup").decode().strip()
        env.check_equal(proc_line, f"0::{cgroup.path}",
                        "/proc/<pid>/cgroup shows the new membership")
    proc_line = env.read_file(f"/proc/{pid}/cgroup").decode().strip()
    env.check(not proc_line.endswith(cgroup.path),
              "detaching restored the previous membership")


@generic(144, "auto", "quick", "cgroup")
def test_cgroupfs_mkdir_rmdir_semantics(env):
    """mkdir/rmdir on the cgroupfs create and remove live cgroups; EBUSY
    protects populated ones and removed paths vanish with ENOENT."""
    kernel = env.machine.kernel
    pid = env.sc.process.pid
    original = kernel.cgroups.cgroup_of(pid).path
    name = env.unique_name("mkrm")
    cg_dir = f"{CGROUPFS}/{name}"
    env.sc.makedirs(f"{cg_dir}/nested")
    env.check_equal(kernel.cgroups.lookup(f"/{name}/nested").name, "nested",
                    "mkdir created the cgroup in the live hierarchy")
    env.check("nested" in env.sc.listdir(cg_dir), "readdir shows the child")
    env.check_errno(errno.EBUSY, env.sc.rmdir, cg_dir)      # has a child
    env.write_file(f"{cg_dir}/nested/cgroup.procs", f"{pid}\n".encode())
    env.check_errno(errno.EBUSY, env.sc.rmdir, f"{cg_dir}/nested")  # has a proc
    env.write_file(f"{CGROUPFS}{original.rstrip('/')}/cgroup.procs",
                   f"{pid}\n".encode())
    env.sc.rmdir(f"{cg_dir}/nested")
    env.sc.rmdir(cg_dir)
    env.check_errno(errno.ENOENT, env.sc.stat, f"{cg_dir}/memory.current")
    env.check_errno(errno.ENOENT, env.sc.listdir, cg_dir)


@generic(145, "auto", "quick", "cgroup")
def test_memory_peak_high_watermark(env):
    """memory.peak is the high watermark of memory.current: it survives
    uncharging and only ever rises."""
    with _memcg(env) as (_cgroup, cg_dir):
        env.create_file(env.path("peak-a"), b"A" * (256 << 10))
        peak = int(env.read_file(f"{cg_dir}/memory.peak", 1 << 14))
        env.check(peak >= 256 << 10, "the peak covers the first burst")
        env.write_file(DROP_CACHES, b"1\n")
        env.check_equal(int(env.read_file(f"{cg_dir}/memory.current", 1 << 14)), 0,
                        "the charges are gone")
        env.check_equal(int(env.read_file(f"{cg_dir}/memory.peak", 1 << 14)), peak,
                        "the watermark survives the uncharge")
        env.create_file(env.path("peak-b"), b"B" * (512 << 10))
        env.check(int(env.read_file(f"{cg_dir}/memory.peak", 1 << 14)) >= 512 << 10,
                  "a larger burst raises the watermark")


@generic(146, "auto", "quick", "cgroup", "reclaim")
def test_meminfo_coherent_under_memcg_reclaim(env):
    """Per-cgroup reclaim keeps /proc/meminfo coherent: Cached and Dirty
    track the registered caches and engines, and the root cgroup's counters
    agree with both."""
    kernel = env.machine.kernel
    with _memcg(env, max_bytes=128 << 10) as (cgroup, _dir):
        env.create_file(env.path("coherent"), b"M" * (512 << 10))
        env.check(cgroup.memcg_stats.pages_reclaimed > 0, "pressure reclaimed")
        fields = {}
        for line in env.read_file("/proc/meminfo").decode().splitlines():
            fields[line.split(":")[0]] = int(line.split()[1])
        vm = kernel.vm
        env.check_equal(fields["Cached"], vm.cached_bytes_total() >> 10,
                        "meminfo Cached matches the registered caches")
        env.check_equal(fields["Dirty"], vm.dirty_bytes_total() >> 10,
                        "meminfo Dirty matches the registered engines")
        env.check_equal(kernel.cgroups.root.mem_cache_bytes,
                        vm.cached_bytes_total(),
                        "root memory.current == Cached, byte-exact")


# ---------------------------------------------------------------------------
# The four paper-documented CntrFS failures
# ---------------------------------------------------------------------------
@generic(228, "auto", "quick")
def test_rlimit_fsize_enforced(env):
    """generic/228: writes beyond RLIMIT_FSIZE must fail with EFBIG.

    CntrFS replays file operations in the server process, where the caller's
    RLIMIT_FSIZE is neither set nor enforced, so this fails on CntrFS.
    """
    path = env.path("rlimit")
    writer = unprivileged(env, uid=0, keep_caps=frozenset(KNOWN_CAPABILITIES))
    writer.setrlimit_fsize(4096)
    fd = writer.open(path, CREAT_WR, 0o644)
    try:
        writer.write(fd, b"A" * 4096)
        env.check_errno(errno.EFBIG, writer.pwrite, fd, b"over the limit", 4096)
    finally:
        writer.close(fd)


@generic(375, "auto", "quick", "perms")
def test_setgid_cleared_with_acl(env):
    """generic/375: chmod must clear setgid when the owner is not in the owning group.

    CntrFS delegates POSIX ACL interpretation to the backing filesystem (via
    setfsuid/setfsgid on inode creation), so the ACL-aware clearing does not
    happen and the setgid bit survives — the paper's first failure case.
    """
    path = env.path("acl-setgid")
    env.create_file(path, b"x", mode=0o644)
    env.sc.chown(path, 6000, 6100)
    acl = PosixAcl.from_mode(0o664)
    acl.add(AclTag.GROUP, 6200, 0o6)
    env.sc.set_acl(path, acl)
    owner = unprivileged(env, uid=6000, gid=6001,
                         keep_caps=frozenset({"CAP_DAC_OVERRIDE", "CAP_FOWNER"}))
    owner.chmod(path, 0o2755)
    mode = env.sc.stat(path).st_mode
    if mode & FileMode.S_ISGID:
        raise TestFailure("setgid bit was not cleared by chmod for an owner "
                          "outside the owning group of the ACL")


@generic(391, "auto", "quick", "aio")
def test_direct_io_open(env):
    """generic/391: O_DIRECT reads/writes.

    CntrFS does not support direct I/O because FUSE makes direct I/O and mmap
    mutually exclusive and CntrFS needs mmap to execute binaries, so the open
    fails — the paper's third failure case.
    """
    path = env.path("directio")
    env.create_file(path, b"D" * 8192)
    try:
        fd = env.sc.open(path, RW | OpenFlags.O_DIRECT)
    except FsError as exc:
        raise TestFailure(f"O_DIRECT open failed: {exc}") from exc
    try:
        env.check_equal(env.sc.read(fd, 4096), b"D" * 4096)
    finally:
        env.sc.close(fd)


@generic(426, "auto", "quick", "ioctl")
def test_exportable_file_handles(env):
    """generic/426: re-open files via name_to_handle_at/open_by_handle_at.

    CntrFS inodes are created on demand and destroyed when the kernel forgets
    them, so they cannot be exported as persistent handles — the paper's
    fourth failure case (and one many container runtimes block anyway).
    """
    path = env.path("handle")
    env.create_file(path, b"handle me")
    try:
        handle = env.sc.name_to_handle_at(path)
        fd = env.sc.open_by_handle_at(handle)
    except FsError as exc:
        raise TestFailure(f"file-handle export unsupported: {exc}") from exc
    try:
        env.check_equal(env.sc.read(fd, 100), b"handle me")
    finally:
        env.sc.close(fd)


# ---------------------------------------------------------------------------
# Advisory locking, extended: POSIX byte ranges, lock lifetime, advisoriness
# ---------------------------------------------------------------------------
def _lock_procs(env, count=2):
    return [unprivileged(env, uid=0, keep_caps=frozenset(KNOWN_CAPABILITIES))
            for _ in range(count)]


@generic(151, "auto", "quick", "locks")
def test_disjoint_ranges_do_not_conflict(env):
    path = env.path("range-disjoint")
    env.create_file(path, b"R" * 4096)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK, start=0, length=100)
        b.flock(fd2, LockType.F_WRLCK, start=100, length=100)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(152, "auto", "quick", "locks")
def test_overlapping_write_ranges_conflict(env):
    path = env.path("range-overlap")
    env.create_file(path, b"R" * 4096)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK, start=0, length=200)
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK,
                        start=100, length=200)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(153, "auto", "quick", "locks")
def test_read_lock_blocks_overlapping_write(env):
    path = env.path("range-rw")
    env.create_file(path, b"R" * 4096)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_RDLCK, start=0, length=500)
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK,
                        start=400, length=100)
        # ... but another read lock on the same bytes is fine.
        b.flock(fd2, LockType.F_RDLCK, start=400, length=100)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(154, "auto", "quick", "locks")
def test_unlock_releases_the_range(env):
    path = env.path("range-unlock")
    env.create_file(path, b"R" * 4096)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK, start=0, length=100)
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK,
                        start=50, length=10)
        a.flock(fd1, LockType.F_UNLCK, start=0, length=100)
        b.flock(fd2, LockType.F_WRLCK, start=50, length=10)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(155, "auto", "quick", "locks")
def test_to_eof_lock_covers_every_higher_offset(env):
    path = env.path("range-eof")
    env.create_file(path, b"R" * 4096)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK, start=1000, length=0)
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK,
                        start=1 << 30, length=16)
        b.flock(fd2, LockType.F_WRLCK, start=0, length=1000)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(156, "auto", "quick", "locks")
def test_same_owner_upgrades_read_to_write(env):
    path = env.path("range-upgrade")
    env.create_file(path, b"R" * 4096)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_RDLCK, start=0, length=100)
        a.flock(fd1, LockType.F_WRLCK, start=0, length=100)
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_RDLCK,
                        start=0, length=100)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(157, "auto", "quick", "locks")
def test_close_releases_range_locks(env):
    path = env.path("range-close")
    env.create_file(path, b"R" * 4096)
    a, b = _lock_procs(env)
    fd1 = a.open(path, RW)
    a.flock(fd1, LockType.F_WRLCK, start=0, length=0)
    a.close(fd1)
    fd2 = b.open(path, RW)
    try:
        b.flock(fd2, LockType.F_WRLCK, start=0, length=0)
    finally:
        b.close(fd2)


@generic(158, "auto", "quick", "locks")
def test_unlink_under_lock(env):
    """An unlinked-but-locked file keeps its lock; a fresh file under the
    same name starts with a clean lock table."""
    path = env.path("lock-unlink")
    env.create_file(path, b"L" * 64)
    a, b = _lock_procs(env)
    fd1 = a.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK)
        env.sc.unlink(path)
        env.create_file(path, b"fresh")
        fd2 = b.open(path, RW)
        try:
            b.flock(fd2, LockType.F_WRLCK)
        finally:
            b.close(fd2)
        env.check_equal(a.pread(fd1, 4, 0), b"LLLL",
                        "old inode stays readable under its lock")
    finally:
        a.close(fd1)


@generic(159, "auto", "quick", "locks")
def test_lock_follows_inode_across_rename(env):
    path = env.path("lock-rename-src")
    moved = env.path("lock-rename-dst")
    env.create_file(path, b"L" * 64)
    a, b = _lock_procs(env)
    fd1 = a.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK)
        env.sc.rename(path, moved)
        fd2 = b.open(moved, RW)
        try:
            env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK)
        finally:
            b.close(fd2)
    finally:
        a.close(fd1)


@generic(160, "auto", "quick", "locks")
def test_lock_shared_through_hard_links(env):
    path = env.path("lock-link-a")
    alias = env.path("lock-link-b")
    env.create_file(path, b"L" * 64)
    env.sc.link(path, alias)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(alias, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK)
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(161, "auto", "quick", "locks")
def test_writer_blocked_until_all_readers_release(env):
    path = env.path("lock-readers")
    env.create_file(path, b"L" * 64)
    r1, r2, w = _lock_procs(env, 3)
    fd1, fd2 = r1.open(path, RW), r2.open(path, RW)
    fd3 = w.open(path, RW)
    try:
        r1.flock(fd1, LockType.F_RDLCK)
        r2.flock(fd2, LockType.F_RDLCK)
        env.check_errno(errno.EAGAIN, w.flock, fd3, LockType.F_WRLCK)
        r1.flock(fd1, LockType.F_UNLCK)
        env.check_errno(errno.EAGAIN, w.flock, fd3, LockType.F_WRLCK)
        r2.flock(fd2, LockType.F_UNLCK)
        w.flock(fd3, LockType.F_WRLCK)
    finally:
        r1.close(fd1)
        r2.close(fd2)
        w.close(fd3)


@generic(162, "auto", "quick", "locks")
def test_conflict_is_per_range_not_per_file(env):
    path = env.path("lock-per-range")
    env.create_file(path, b"L" * 4096)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK, start=0, length=100)
        a.flock(fd1, LockType.F_WRLCK, start=200, length=100)
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK,
                        start=250, length=10)
        b.flock(fd2, LockType.F_WRLCK, start=100, length=100)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(163, "auto", "quick", "locks")
def test_locks_survive_fsync_and_sync(env):
    path = env.path("lock-sync")
    env.create_file(path, b"L" * 64)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK)
        a.pwrite(fd1, b"sync me", 0)
        a.fsync(fd1)
        env.make_durable()
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(164, "auto", "quick", "locks")
def test_partial_unlock_keeps_other_ranges(env):
    path = env.path("lock-partial")
    env.create_file(path, b"L" * 4096)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK, start=0, length=100)
        a.flock(fd1, LockType.F_WRLCK, start=200, length=100)
        a.flock(fd1, LockType.F_UNLCK, start=0, length=100)
        b.flock(fd2, LockType.F_WRLCK, start=0, length=100)
        env.check_errno(errno.EAGAIN, b.flock, fd2, LockType.F_WRLCK,
                        start=200, length=100)
    finally:
        a.close(fd1)
        b.close(fd2)


@generic(165, "auto", "quick", "locks")
def test_locks_are_advisory(env):
    path = env.path("lock-advisory")
    env.create_file(path, b"A" * 64)
    a, b = _lock_procs(env)
    fd1, fd2 = a.open(path, RW), b.open(path, RW)
    try:
        a.flock(fd1, LockType.F_WRLCK)
        # A non-cooperating process reads and writes straight through.
        env.check_equal(b.pread(fd2, 4, 0), b"AAAA", "advisory read")
        b.pwrite(fd2, b"BBBB", 0)
        env.check_equal(a.pread(fd1, 4, 0), b"BBBB", "advisory write")
    finally:
        a.close(fd1)
        b.close(fd2)


# ---------------------------------------------------------------------------
# Crash consistency: power-fail injection and journal replay.  Every case
# starts with make_durable() so state left by earlier cases in the shared
# environment is pinned down before the power goes out.
# ---------------------------------------------------------------------------
def _drop_fd_raw(env, fd: int) -> None:
    """Lose a descriptor the way a power failure does: no close, no flush."""
    env.sc.process.fds.pop(fd, None)


@generic(166, "auto", "quick", "crash")
def test_fsynced_data_survives_power_fail(env):
    env.make_durable()
    path = env.path("crash-fsynced")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"promised" * 512)
    env.sc.fsync(fd)
    _drop_fd_raw(env, fd)
    env.power_fail()
    env.check_equal(env.read_file(path), b"promised" * 512,
                    "fsync is a durability promise")


@generic(167, "auto", "quick", "crash")
def test_unsynced_create_loss_semantics(env):
    """ext4 loses an uncommitted create entirely; CntrFS keeps it because
    the server applied the metadata (and the close-time flush) synchronously
    — the paper's delayed-sync consistency trade-off, made visible."""
    env.make_durable()
    path = env.path("crash-unsynced")
    env.create_file(path, b"maybe" * 100)
    env.power_fail()
    if env.is_cntrfs:
        env.check_equal(env.read_file(path), b"maybe" * 100,
                        "server-side state survives a client crash")
    else:
        env.check(not env.sc.exists(path),
                  "an uncommitted create must not survive an ext4 crash")


@generic(168, "auto", "quick", "crash")
def test_dirty_tail_after_fsync_is_lost(env):
    env.make_durable()
    path = env.path("crash-tail")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"D" * 1000)
    env.sc.fsync(fd)
    env.sc.pwrite(fd, b"T" * 8192, 1000)   # never flushed
    _drop_fd_raw(env, fd)
    env.power_fail()
    env.check_equal(env.read_file(path), b"D" * 1000,
                    "the unflushed tail dies with the caches")


@generic(169, "auto", "quick", "crash")
def test_fdatasync_makes_extension_durable(env):
    env.make_durable()
    path = env.path("crash-fdatasync")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"E" * 3000)
    env.sc.fdatasync(fd)
    _drop_fd_raw(env, fd)
    env.power_fail()
    env.check_equal(env.read_file(path), b"E" * 3000,
                    "fdatasync covers data and the i_size extension")


@generic(170, "auto", "quick", "crash")
def test_osync_writes_survive(env):
    env.make_durable()
    path = env.path("crash-osync")
    fd = env.sc.open(path, CREAT_WR | OpenFlags.O_SYNC, 0o644)
    env.sc.write(fd, b"S" * 2048)
    _drop_fd_raw(env, fd)
    env.power_fail()
    env.check_equal(env.read_file(path), b"S" * 2048,
                    "O_SYNC data is durable at write return")


@generic(171, "auto", "quick", "crash")
def test_committed_truncate_down_survives(env):
    env.make_durable()
    path = env.path("crash-shrink")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"F" * 4096)
    env.sc.fsync(fd)
    env.sc.ftruncate(fd, 100)
    env.sc.fsync(fd)
    _drop_fd_raw(env, fd)
    env.power_fail()
    env.check_equal(env.read_file(path), b"F" * 100,
                    "a committed shrink holds after replay")


@generic(172, "auto", "quick", "crash")
def test_truncate_down_then_up_reads_zeros(env):
    """Replay must never resurrect pre-truncate bytes in the re-extended gap
    — the delayed-allocation guarantee (zeros, not stale data)."""
    env.make_durable()
    path = env.path("crash-downup")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"G" * 1000)
    env.sc.fsync(fd)
    env.sc.ftruncate(fd, 100)
    env.sc.ftruncate(fd, 2000)
    env.sc.fsync(fd)
    _drop_fd_raw(env, fd)
    env.power_fail()
    data = env.read_file(path)
    env.check_equal(len(data), 2000, "committed size")
    env.check_equal(data[:100], b"G" * 100, "surviving prefix")
    env.check_equal(data[100:], b"\x00" * 1900,
                    "the re-extended gap must read zeros, not stale bytes")


@generic(173, "auto", "quick", "crash")
def test_committed_punch_stays_punched(env):
    env.make_durable()
    path = env.path("crash-punch")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"H" * 8192)
    env.sc.fsync(fd)
    env.sc.fallocate(fd, FallocateMode.PUNCH_HOLE | FallocateMode.KEEP_SIZE,
                     0, 4096)
    env.sc.fsync(fd)
    _drop_fd_raw(env, fd)
    env.power_fail()
    data = env.read_file(path)
    env.check_equal(data[:4096], b"\x00" * 4096, "the hole survives the crash")
    env.check_equal(data[4096:], b"H" * 4096, "bytes outside the hole survive")


@generic(174, "auto", "quick", "crash")
def test_uncommitted_truncate_loss_semantics(env):
    env.make_durable()
    path = env.path("crash-uncommitted-trunc")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"I" * 500)
    env.sc.fsync(fd)
    env.sc.ftruncate(fd, 10)       # never committed
    _drop_fd_raw(env, fd)
    env.power_fail()
    data = env.read_file(path)
    if env.is_cntrfs:
        env.check_equal(data, b"I" * 10, "SETATTR reached the server")
    else:
        env.check_equal(data, b"I" * 500,
                        "an uncommitted shrink never happened on ext4")


@generic(175, "auto", "quick", "crash")
def test_committed_rename_survives(env):
    env.make_durable()
    src, dst = env.path("crash-ren-src"), env.path("crash-ren-dst")
    env.create_file(src, b"J" * 200)
    fd = env.sc.open(src, RW)
    env.sc.fsync(fd)
    env.sc.rename(src, dst)
    env.sc.fsync(fd)               # commits the rename (compound txn)
    _drop_fd_raw(env, fd)
    env.power_fail()
    env.check(not env.sc.exists(src), "the old name is gone")
    env.check_equal(env.read_file(dst), b"J" * 200, "the new name holds")


@generic(176, "auto", "quick", "crash")
def test_uncommitted_rename_loss_semantics(env):
    env.make_durable()
    src, dst = env.path("crash-uren-src"), env.path("crash-uren-dst")
    env.create_file(src, b"K" * 100)
    env.make_durable()
    env.sc.rename(src, dst)        # never committed
    env.power_fail()
    if env.is_cntrfs:
        env.check(env.sc.exists(dst) and not env.sc.exists(src),
                  "the server applied the rename synchronously")
    else:
        env.check(env.sc.exists(src) and not env.sc.exists(dst),
                  "an uncommitted rename rolls back on ext4")


@generic(177, "auto", "quick", "crash")
def test_committed_unlink_stays_gone(env):
    env.make_durable()
    path = env.path("crash-unlink")
    env.create_file(path, b"L" * 100)
    env.make_durable()
    env.sc.unlink(path)
    anchor = env.path("crash-unlink-anchor")
    fd = env.sc.open(anchor, CREAT_RW, 0o644)
    env.sc.fsync(fd)               # commits the whole compound transaction
    env.sc.close(fd)
    env.power_fail()
    env.check(not env.sc.exists(path),
              "a committed unlink must not resurrect the file")


@generic(178, "auto", "quick", "crash")
def test_fsync_commits_the_compound_transaction(env):
    """Like jbd2, any fsync publishes every running metadata record — a
    sibling file's create becomes durable on the back of an unrelated fsync."""
    env.make_durable()
    hitchhiker = env.path("crash-hitchhiker")
    env.create_file(hitchhiker, b"M" * 64)
    env.make_durable()             # data flushed; metadata already recorded
    anchor = env.path("crash-anchor")
    fd = env.sc.open(anchor, CREAT_RW, 0o644)
    env.sc.write(fd, b"N" * 64)
    env.sc.fsync(fd)
    env.sc.close(fd)
    env.power_fail()
    env.check_equal(env.read_file(hitchhiker), b"M" * 64,
                    "the sibling create rode the compound commit")
    env.check_equal(env.read_file(anchor), b"N" * 64, "the anchor itself")


@generic(179, "auto", "quick", "crash")
def test_committed_xattr_survives(env):
    env.make_durable()
    path = env.path("crash-xattr")
    env.create_file(path, b"O" * 10)
    env.sc.setxattr(path, "user.tag", b"sticky")
    fd = env.sc.open(path, RW)
    env.sc.fsync(fd)
    env.sc.close(fd)
    env.power_fail()
    env.check_equal(env.sc.getxattr(path, "user.tag"), b"sticky",
                    "committed xattr after replay")


@generic(180, "auto", "quick", "crash")
def test_committed_hard_link_survives(env):
    env.make_durable()
    path, alias = env.path("crash-link-a"), env.path("crash-link-b")
    env.create_file(path, b"P" * 100)
    env.sc.link(path, alias)
    fd = env.sc.open(path, RW)
    env.sc.fsync(fd)
    env.sc.close(fd)
    env.power_fail()
    env.check_equal(env.read_file(alias), b"P" * 100, "alias content")
    env.check_equal(env.sc.stat(path).st_nlink, 2, "link count after replay")


@generic(181, "auto", "quick", "crash")
def test_crash_with_no_dirty_state_is_a_noop(env):
    env.make_durable()
    path = env.path("crash-clean")
    env.create_file(path, b"Q" * 300)
    env.make_durable()
    before = env.read_file(path)
    env.power_fail()
    env.check_equal(env.read_file(path), before,
                    "a clean crash changes nothing observable")


@generic(182, "auto", "quick", "crash")
def test_double_power_fail(env):
    env.make_durable()
    path = env.path("crash-double")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"R" * 128)
    env.sc.fsync(fd)
    _drop_fd_raw(env, fd)
    env.power_fail()
    env.power_fail()
    env.check_equal(env.read_file(path), b"R" * 128,
                    "back-to-back crashes replay to the same state")


@generic(183, "auto", "quick", "crash")
def test_open_descriptor_works_after_remount(env):
    """Inode numbers are stable across replay (native) and nodeids outlive
    the client (CntrFS), so a surviving descriptor still reads the durable
    content after the crash."""
    env.make_durable()
    path = env.path("crash-fd")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"S" * 256)
    env.sc.fsync(fd)
    env.power_fail()
    try:
        env.check_equal(env.sc.pread(fd, 256, 0), b"S" * 256,
                        "durable bytes through a pre-crash descriptor")
    finally:
        env.sc.process.fds.pop(fd, None)


@generic(184, "auto", "quick", "crash")
def test_crash_disarms_writeback_timer(env):
    """A crashed engine must never fire against the shared clock; the
    remount re-arms it and background writeback works again."""
    env.make_durable()
    engine = env.fs_under_test.writeback
    path = env.path("crash-timer")
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"T" * 512)
    _drop_fd_raw(env, fd)
    env.fs_under_test.crash()
    env.check_equal(engine.total_pending, 0,
                    "crash_discard drops every pending byte")
    env.check(engine._flusher_timer is None,
              "the kupdate timer is disarmed by the crash")
    env.fs_under_test.remount()
    fd = env.sc.open(path, CREAT_RW, 0o644)
    env.sc.write(fd, b"U" * 64)
    env.sc.fsync(fd)
    env.sc.close(fd)
    env.check_equal(env.read_file(path), b"U" * 64, "writeback works again")


@generic(185, "auto", "quick", "crash")
def test_synced_directory_tree_survives(env):
    env.make_durable()
    base = env.path("crash-tree")
    env.sc.makedirs(f"{base}/a/b")
    env.create_file(f"{base}/a/x", b"V" * 10)
    env.create_file(f"{base}/a/b/y", b"W" * 20)
    env.sc.symlink(f"{base}/a/x", f"{base}/a/b/z")
    env.make_durable()
    env.power_fail()
    env.check_equal(env.read_file(f"{base}/a/x"), b"V" * 10, "file in tree")
    env.check_equal(env.read_file(f"{base}/a/b/y"), b"W" * 20, "nested file")
    env.check_equal(env.sc.readlink(f"{base}/a/b/z"), f"{base}/a/x", "symlink")


# ---------------------------------------------------------------------------
# Seeded stress soups: a deterministic fsstress-style op mix checked against
# a pure in-memory shadow model, with optional power failure + durability
# ledger.  Single-environment by construction — every assertion holds on
# both the native model and CntrFS.
# ---------------------------------------------------------------------------
def _soup_shadow_write(shadow: bytearray, offset: int, data: bytes) -> None:
    if offset > len(shadow):
        shadow.extend(b"\x00" * (offset - len(shadow)))
    shadow[offset:offset + len(data)] = data


def _stress_soup(env, seed: str, ops: int, pool: int = 4,
                 crash: bool = False) -> None:
    rng = DeterministicRandom(seed)
    base = env.path(f"soup-{seed.replace('/', '-')}")
    env.sc.makedirs(base)
    env.make_durable()
    names = [f"s{i}" for i in range(pool)]
    shadow: dict[str, bytearray] = {}
    fds: dict[str, int] = {}
    ledger: dict[str, bytes] = {}
    choices = ["write"] * 6 + ["truncate", "punch", "rename", "unlink",
                               "fsync", "fsync"]
    for _ in range(ops):
        op = rng.choice(choices)
        name, other = rng.choice(names), rng.choice(names)
        path = f"{base}/{name}"
        if op == "write":
            if name not in fds:
                fds[name] = env.sc.open(path, CREAT_RW, 0o644)
                shadow.setdefault(name, bytearray())
            offset = rng.randrange(0, 16384)
            data = bytes([rng.randrange(33, 127)]) * rng.randrange(1, 4096)
            env.sc.pwrite(fds[name], data, offset)
            _soup_shadow_write(shadow[name], offset, data)
            ledger.pop(name, None)
        elif op == "truncate" and name in fds:
            size = rng.randrange(0, 20000)
            env.sc.ftruncate(fds[name], size)
            blob = shadow[name]
            if size <= len(blob):
                del blob[size:]
            else:
                blob.extend(b"\x00" * (size - len(blob)))
            ledger.pop(name, None)
        elif op == "punch" and name in fds:
            offset = rng.randrange(0, 8192)
            length = rng.randrange(1, 8192)
            env.sc.fallocate(fds[name], FallocateMode.PUNCH_HOLE |
                             FallocateMode.KEEP_SIZE, offset, length)
            blob = shadow[name]
            end = min(len(blob), offset + length)
            if offset < end:
                blob[offset:end] = b"\x00" * (end - offset)
            ledger.pop(name, None)
        elif op == "rename" and name in shadow and name != other:
            env.sc.rename(path, f"{base}/{other}")
            if other in fds:
                env.sc.close(fds.pop(other))
            if name in fds:
                fds[other] = fds.pop(name)
            shadow[other] = shadow.pop(name)
            ledger.pop(name, None)
            ledger.pop(other, None)
        elif op == "unlink" and name in shadow:
            if name in fds:
                env.sc.close(fds.pop(name))
            env.sc.unlink(path)
            shadow.pop(name)
            ledger.pop(name, None)
        elif op == "fsync" and name in fds:
            env.sc.fsync(fds[name])
            ledger[name] = bytes(shadow[name])
    # Differential check: live tree vs the shadow model, byte for byte.
    for name, blob in sorted(shadow.items()):
        env.check_equal(env.read_file(f"{base}/{name}", size=1 << 20),
                        bytes(blob), f"shadow-model divergence on {name}")
    env.check_equal(sorted(env.sc.listdir(base)), sorted(shadow),
                    "directory listing vs shadow namespace")
    if crash:
        for fd in fds.values():
            env.sc.process.fds.pop(fd, None)
        fds.clear()
        env.power_fail()
        for name, blob in sorted(ledger.items()):
            env.check_equal(env.read_file(f"{base}/{name}", size=1 << 20),
                            blob, f"durability ledger broken for {name}")
    # Leave the shared environment clean (and durable) for later cases.
    for fd in fds.values():
        env.sc.close(fd)
    for name in env.sc.listdir(base):
        env.sc.unlink(f"{base}/{name}")
    env.sc.rmdir(base)
    env.make_durable()


def _stress_case(number: int, seed: str, ops: int, pool: int, crash: bool):
    @generic(number, "auto", "stress")
    def soup(env, _seed=seed, _ops=ops, _pool=pool, _crash=crash):
        _stress_soup(env, _seed, _ops, pool=_pool, crash=_crash)
    soup.__name__ = f"test_stress_soup_{number}"
    return soup


# generic/186-197: shadow-model soups of growing size and churn.
for _i, _number in enumerate(range(186, 198)):
    _stress_case(_number, seed=f"soup/{_number}", ops=40 + 10 * _i,
                 pool=3 + _i % 4, crash=False)

# generic/198-203: the same soups with a power failure and ledger audit.
for _i, _number in enumerate(range(198, 204)):
    _stress_case(_number, seed=f"soupcrash/{_number}", ops=50 + 15 * _i,
                 pool=3 + _i % 3, crash=True)


# ---------------------------------------------------------------------------
# Observability: PSI, tracepoints, vmstat and io.stat (generic/204-209)
# ---------------------------------------------------------------------------
TRACEFS = "/sys/kernel/debug/tracing"

#: The tracepoints the observability layer declares at kernel construction.
CORE_TRACEPOINT_NAMES = ("fuse.dispatch", "journal.commit", "memcg.reclaim",
                         "sched.switch", "sched.throttle", "writeback.flush")


def _psi_read(env, path: str) -> dict[str, dict[str, int]]:
    """Parse a pressure file into ``{kind: {avg10/avg60/avg300, total}}``
    with the averages as integer percent*100 and the total in microseconds."""
    out: dict[str, dict[str, int]] = {}
    for line in env.read_file(path, 1 << 14).decode().splitlines():
        fields = line.split()
        row: dict[str, int] = {}
        for field in fields[1:]:
            key, _, value = field.partition("=")
            if key.startswith("avg"):
                whole, _, frac = value.partition(".")
                row[key] = int(whole) * 100 + int(frac)
            else:
                row[key] = int(value)
        out[fields[0]] = row
    return out


def _sum_cgroup(env, fn) -> int:
    """Sum ``fn(cgroup)`` over the whole cgroup hierarchy."""
    total = 0
    stack = [env.machine.kernel.cgroups.root]
    while stack:
        node = stack.pop()
        total += fn(node)
        stack.extend(node.children.values())
    return total


def _io_stall_sources_ns(env) -> int:
    """Every stall site that reports I/O pressure, from its own counters:
    BDI write/read shaping, synchronous ``vm.dirty_bytes`` throttling and
    (CntrFS only) FUSE background-queue congestion."""
    vm = env.machine.kernel.vm
    total = sum(bdi.stats.busy_ns + bdi.stats.read_busy_ns
                for bdi in vm.bdis().values())
    total += sum(engine.stats.dirty_throttle_ns for engine in vm.engines())
    connection = getattr(env.fs_under_test, "connection", None)
    if connection is not None:
        total += connection.queue_stats.congestion_wait_ns
    return total


@generic(204, "auto", "quick", "psi")
def test_psi_files_exist_and_parse(env):
    """The PSI surface renders the Linux format everywhere: system files
    under /proc/pressure, per-cgroup pressure files, full never exceeding
    some, and the tracefs control files listing the core tracepoints."""
    for resource in ("cpu", "memory", "io"):
        psi = _psi_read(env, f"/proc/pressure/{resource}")
        env.check_equal(sorted(psi), ["full", "some"], f"{resource} kinds")
        for kind in ("some", "full"):
            row = psi[kind]
            env.check_equal(sorted(row), ["avg10", "avg300", "avg60", "total"],
                            f"{resource} {kind} columns")
            for key in ("avg10", "avg60", "avg300"):
                env.check(0 <= row[key] <= 100_00,
                          f"{resource} {kind} {key} is a percentage")
        env.check(psi["full"]["total"] <= psi["some"]["total"],
                  f"{resource}: full time is a subset of some time")
    with _memcg(env) as (_cgroup, cg_dir):
        for name in ("cpu.pressure", "memory.pressure", "io.pressure"):
            psi = _psi_read(env, f"{cg_dir}/{name}")
            env.check_equal(sorted(psi), ["full", "some"], f"{name} kinds")
            env.check_equal(psi["some"]["total"], 0,
                            f"a fresh cgroup has no {name} stalls")
        env.check_equal(env.read_file(f"{cg_dir}/io.stat", 1 << 14), b"",
                        "a fresh cgroup has no io.stat rows")
        _check_write_rejected(env, f"{cg_dir}/memory.pressure", b"0\n", errno.EACCES)
    events = env.read_file(f"{TRACEFS}/available_events", 1 << 14).decode().split()
    for name in CORE_TRACEPOINT_NAMES:
        env.check(name in events, f"{name} is declared in available_events")
    env.check_equal(env.read_file(f"{TRACEFS}/tracing_on", 1 << 14), b"0\n",
                    "tracing starts disabled")


@generic(205, "auto", "quick", "psi")
def test_psi_cpu_decomposes_into_wait_and_throttle(env):
    """CPU pressure is exactly runnable wait plus ``cpu.max`` throttling:
    the system some total grows by ``stats.wait_ns`` + the hierarchy's
    ``throttled_ns`` delta, to the nanosecond, and the pressure files render
    the same total in microseconds."""
    kernel = env.machine.kernel
    clock = kernel.clock
    tracker = kernel.psi.system.tracker("cpu")
    base_some = tracker.total_some_ns
    base_full = tracker.total_full_ns
    base_throttled = _sum_cgroup(env, lambda n: n.cpu_stats.throttled_ns)

    name = env.unique_name("psi-capped")
    cg_dir = f"{CGROUPFS}/{name}"
    env.sc.mkdir(cg_dir)
    env.write_file(f"{cg_dir}/cpu.max", b"1000 10000")
    capped = env.machine.spawn_host_process(["/usr/bin/capped-tenant"])
    free = env.machine.spawn_host_process(["/usr/bin/free-tenant"])
    env.write_file(f"{cg_dir}/cgroup.procs",
                   f"{capped.process.pid}\n".encode())
    try:
        def spinner(ops, op_ns=100_000):
            def body():
                for _ in range(ops):
                    clock.advance(op_ns)
                    yield None
            return body

        controller = kernel.cpu_controller()
        controller.spawn(capped.process, spinner(100))
        controller.spawn(free.process, spinner(100))
        stats = controller.run()

        throttled = _sum_cgroup(
            env, lambda n: n.cpu_stats.throttled_ns) - base_throttled
        some = tracker.total_some_ns - base_some
        env.check(stats.wait_ns > 0, "a contended run accrues runnable wait")
        env.check(throttled > 0, "the 10% quota throttled the capped group")
        env.check_equal(some, stats.wait_ns + throttled,
                        "cpu some == wait + throttle, to the nanosecond")
        env.check_equal(tracker.total_full_ns - base_full, 0,
                        "cpu pressure never reports full time")
        rendered = _psi_read(env, "/proc/pressure/cpu")
        env.check_equal(rendered["some"]["total"],
                        tracker.total_some_ns // 1_000,
                        "/proc/pressure/cpu total renders microseconds")
        capped_psi = _psi_read(env, f"{cg_dir}/cpu.pressure")
        env.check(capped_psi["some"]["total"] > 0,
                  "the capped cgroup saw its own cpu pressure")
    finally:
        root_procs = f"{CGROUPFS}/cgroup.procs"
        env.write_file(root_procs, f"{capped.process.pid}\n".encode())
        env.sc.rmdir(cg_dir)


@generic(206, "auto", "quick", "psi")
def test_psi_memory_decomposes_into_throttle_and_reclaim(env):
    """Memory pressure is exactly ``memory.high`` write throttling (some)
    plus per-cgroup direct reclaim (some and full), checked against the
    memcg's own stall counters to the nanosecond."""
    kernel = env.machine.kernel
    tracker = kernel.psi.system.tracker("memory")
    base_some = tracker.total_some_ns
    base_full = tracker.total_full_ns
    base_throttle = _sum_cgroup(
        env, lambda n: n.memcg_stats.throttle_stall_ns)
    base_reclaim = _sum_cgroup(
        env, lambda n: n.memcg_stats.reclaim_cost_ns)
    with _vm_knobs(env, dirty_background_bytes=0, dirty_bytes=0), \
            _memcg(env, high_bytes=64 << 10) as (_cgroup, cg_dir):
        # Keep the descriptor open and the flush thresholds disabled so the
        # pages stay dirty until reclaim hits them (closing is itself a
        # flush point on the FUSE client).
        fd, _ino = _dirty_file(env, "psi-memstall", 256 << 10)
        try:
            throttle = _sum_cgroup(
                env,
                lambda n: n.memcg_stats.throttle_stall_ns) - base_throttle
            env.check(throttle > 0,
                      "writing past memory.high stalled the writer")
            # Lowering memory.max below usage reclaims synchronously; the
            # pages are still dirty, so the reclaim pays flush time.
            env.write_file(f"{cg_dir}/memory.max", b"65536\n")
            reclaim = _sum_cgroup(
                env,
                lambda n: n.memcg_stats.reclaim_cost_ns) - base_reclaim
            env.check(reclaim > 0, "direct reclaim charged virtual time")
            throttle = _sum_cgroup(
                env,
                lambda n: n.memcg_stats.throttle_stall_ns) - base_throttle
            some = tracker.total_some_ns - base_some
            full = tracker.total_full_ns - base_full
            env.check_equal(some, throttle + reclaim,
                            "memory some == high-throttle + reclaim, exactly")
            env.check_equal(full, reclaim,
                            "only reclaim counts as full memory pressure")
            rendered = _psi_read(env, "/proc/pressure/memory")
            env.check_equal(rendered["some"]["total"],
                            tracker.total_some_ns // 1_000,
                            "/proc/pressure/memory total renders microseconds")
            cg_psi = _psi_read(env, f"{cg_dir}/memory.pressure")
            env.check(cg_psi["some"]["total"] > 0,
                      "the limited cgroup saw its own memory pressure")
            env.check(cg_psi["full"]["total"] <= cg_psi["some"]["total"],
                      "per-cgroup full stays within some")
        finally:
            env.sc.close(fd)


@generic(207, "auto", "quick", "psi")
def test_psi_io_decomposes_into_shaping_and_throttle(env):
    """I/O pressure is exactly the sum of its stall sites — BDI write/read
    bandwidth shaping, synchronous ``vm.dirty_bytes`` throttling and FUSE
    queue congestion — checked against those counters to the nanosecond."""
    kernel = env.machine.kernel
    tracker = kernel.psi.system.tracker("io")
    base_some = tracker.total_some_ns
    base_full = tracker.total_full_ns
    base_sources = _io_stall_sources_ns(env)
    bdi = env.fs_under_test.writeback.bdi
    env.check(bdi is not None, "the fs under test flushes through a BDI")
    saved = (bdi.write_bandwidth_bytes_s, bdi.read_bandwidth_bytes_s)
    payload = b"I" * (512 << 10)
    path = env.path("psi-shaped")
    try:
        bdi.write_bandwidth_bytes_s = 8 << 20
        bdi.read_bandwidth_bytes_s = 8 << 20
        busy_before = bdi.stats.busy_ns
        read_before = bdi.stats.read_busy_ns
        env.create_file(path, payload)
        env.make_durable()
        env.check(bdi.stats.busy_ns > busy_before,
                  "the shaped flush charged write busy time")
        env.write_file(DROP_CACHES, b"1\n")
        env.check_equal(env.read_file(path), payload,
                        "shaped round trip preserves the data")
        env.check(bdi.stats.read_busy_ns > read_before,
                  "the cold read charged read busy time")
        # A tiny dirty budget makes the next write flush synchronously in
        # the writer's context: the dirty_limit stall site.
        with _vm_knobs(env, dirty_bytes=64 << 10):
            env.create_file(env.path("psi-throttled"), b"T" * (256 << 10))
            env.check(
                sum(e.stats.dirty_throttle_ns
                    for e in kernel.vm.engines()) > 0,
                "the dirty limit stalled a writer synchronously")
    finally:
        bdi.write_bandwidth_bytes_s, bdi.read_bandwidth_bytes_s = saved
    some = tracker.total_some_ns - base_some
    env.check(some > 0, "the workload accrued io pressure")
    env.check_equal(some, _io_stall_sources_ns(env) - base_sources,
                    "io some == shaping + dirty throttle + congestion, exactly")
    env.check_equal(tracker.total_full_ns - base_full, 0,
                    "none of these stalls report full io pressure")
    rendered = _psi_read(env, "/proc/pressure/io")
    env.check_equal(rendered["some"]["total"], tracker.total_some_ns // 1_000,
                    "/proc/pressure/io total renders microseconds")


@generic(208, "auto", "quick", "psi")
def test_vmstat_and_io_stat_track_writeback(env):
    """/proc/vmstat counters move with writeback and per-cgroup ``io.stat``
    charges the dirtying cgroup's device row, aggregated up to the root."""
    kernel = env.machine.kernel

    def vmstat() -> dict[str, int]:
        text = env.read_file("/proc/vmstat", 1 << 14).decode()
        return {line.split()[0]: int(line.split()[1])
                for line in text.splitlines() if line}

    before = vmstat()
    env.check(before["pgfault"] >= before["pgmajfault"],
              "major faults are a subset of faults")
    env.check(before["nr_dirtied"] >= before["nr_written"],
              "nothing is written that was never dirtied")
    payload = b"V" * (128 << 10)
    device = env.fs_under_test.writeback.bdi.name
    with _memcg(env) as (cgroup, cg_dir):
        env.create_file(env.path("psi-counted"), payload)
        env.make_durable()
        after = vmstat()
        env.check(after["nr_written"] >=
                  before["nr_written"] + len(payload) // 4096,
                  "sync advanced nr_written by at least the file's pages")
        env.check(after["nr_dirtied"] >= after["nr_written"],
                  "the dirtied/written invariant survives the sync")
        rows: dict[str, dict[str, int]] = {}
        for line in env.read_file(f"{cg_dir}/io.stat", 1 << 14).decode().splitlines():
            dev, _, rest = line.partition(" ")
            rows[dev] = {key: int(value) for key, value in
                         (field.split("=") for field in rest.split())}
        env.check(device in rows, "the flush created the device's io.stat row")
        env.check(rows[device]["wbytes"] >= len(payload),
                  "wbytes charges the dirtying cgroup for the flushed bytes")
        env.check(rows[device]["wios"] >= 1, "the flush counted as a write io")
        root_stats = kernel.cgroups.root.io_stats[device]
        env.check(root_stats.wbytes >= rows[device]["wbytes"],
                  "the root cgroup aggregates the child's write charges")
        env.write_file(DROP_CACHES, b"1\n")
        env.check_equal(env.read_file(env.path("psi-counted")), payload,
                        "the cold read round-trips")
        refreshed = {}
        for line in env.read_file(f"{cg_dir}/io.stat", 1 << 14).decode().splitlines():
            dev, _, rest = line.partition(" ")
            refreshed[dev] = {key: int(value) for key, value in
                              (field.split("=") for field in rest.split())}
        env.check(refreshed[device]["rbytes"] >= len(payload),
                  "the cache-miss read charged rbytes to the reader")
        env.check(refreshed[device]["rios"] >= 1,
                  "the cold read counted as a read io")


@generic(209, "auto", "quick", "psi")
def test_tracefs_controls_collection(env):
    """The tracefs files drive the tracer: per-tracepoint ``set_event``
    filters, ``tracing_on`` gating, ``echo > trace`` clearing, EINVAL on bad
    input and a bounded ring with explicit drop accounting."""
    tracer = env.machine.kernel.tracer

    def trace_lines() -> list[str]:
        return env.read_file(f"{TRACEFS}/trace", 1 << 14).decode().splitlines()

    _check_write_rejected(env, f"{TRACEFS}/tracing_on", b"2\n", errno.EINVAL)
    _check_write_rejected(env, f"{TRACEFS}/available_events", b"x\n", errno.EACCES)
    _check_write_rejected(env, f"{TRACEFS}/set_event", b"not-category-dot-name\n", errno.EINVAL)

    saved_capacity = tracer.capacity
    try:
        # Per-tracepoint gating: only writeback.flush is collected.
        env.write_file(f"{TRACEFS}/set_event", b"writeback.flush\n")
        env.check_equal(env.read_file(f"{TRACEFS}/set_event", 1 << 14),
                        b"writeback.flush\n", "set_event echoes the filter")
        env.create_file(env.path("psi-traced"), b"T" * 8192)
        env.make_durable()
        env.check(tracer.count("writeback.flush") >= 1,
                  "the filtered tracepoint collected its events")
        lines = trace_lines()
        env.check(any("writeback.flush" in line for line in lines
                      if not line.startswith("#")),
                  "the trace ring rendered the flush events")
        env.check(all("writeback.flush" in line for line in lines
                      if not line.startswith("#")),
                  "nothing outside the filter was collected")
        # Disable the tracepoint, clear the ring through the file.
        env.write_file(f"{TRACEFS}/set_event", b"!writeback.flush\n")
        env.write_file(f"{TRACEFS}/trace", b"\n")
        env.check_equal(tracer.count("writeback.flush"), 0,
                        "echo > trace cleared the ring and counters")
        env.check_equal(env.read_file(f"{TRACEFS}/set_event", 1 << 14), b"",
                        "!name removed the tracepoint from the filter")
        # Global switch + bounded ring: fsync storms overflow capacity 4.
        tracer.capacity = 4
        env.write_file(f"{TRACEFS}/tracing_on", b"1\n")
        fd = env.sc.open(env.path("psi-dropper"), CREAT_WR, 0o644)
        try:
            for _ in range(8):
                env.sc.write(fd, b"D" * 4096)
                env.sc.fsync(fd)
        finally:
            env.sc.close(fd)
        env.write_file(f"{TRACEFS}/tracing_on", b"0\n")
        env.check_equal(env.read_file(f"{TRACEFS}/tracing_on", 1 << 14), b"0\n",
                        "tracing_on reads back the switch")
        env.check(tracer.dropped > 0,
                  "events past the ring capacity counted as drops")
        header = trace_lines()[1]
        env.check(header.startswith("# entries: ")
                  and f"dropped: {tracer.dropped}" in header,
                  "the trace header reports the drop total")
        env.check(any(line.startswith("# dropped ")
                      for line in trace_lines()),
                  "per-tracepoint drop counters are rendered")
    finally:
        tracer.capacity = saved_capacity
        tracer.clear()
        tracer.clear_events()
        tracer.enabled = False


@generic(210, "auto", "quick", "rename")
def test_rename_onto_the_same_inode(env):
    """rename(2) onto the source's own inode, by its own name or by one of
    its hard links, succeeds and changes nothing, as Linux's ``vfs_rename``
    does.  ``RENAME_NOREPLACE`` still refuses the existing target,
    ``RENAME_EXCHANGE`` swaps nothing, and both names survive a power failure
    after the renames were committed."""
    a, b = env.path("same-ino-a"), env.path("same-ino-b")
    env.create_file(a, b"one inode, two names")
    env.sc.link(a, b)
    ino = env.sc.stat(a).st_ino
    env.make_durable()
    env.sc.rename(a, a)
    env.sc.rename(a, b)
    env.sc.rename(b, a)
    env.check_errno(errno.EEXIST, env.sc.rename, a, a, RenameFlags.RENAME_NOREPLACE)
    env.check_errno(errno.EEXIST, env.sc.rename, a, b, RenameFlags.RENAME_NOREPLACE)
    env.sc.rename(a, b, RenameFlags.RENAME_EXCHANGE)
    env.sc.rename(a, a, RenameFlags.RENAME_EXCHANGE)
    env.make_durable()
    env.power_fail()
    for path in (a, b):
        st = env.sc.stat(path)
        env.check_equal(st.st_ino, ino, f"{path} still names the inode")
        env.check_equal(st.st_nlink, 2, f"{path}: both links remain")
        env.check_equal(env.read_file(path), b"one inode, two names")


def tests_by_id() -> dict[str, TestCase]:
    """Map ``generic/NNN`` identifiers to test cases."""
    return {case.test_id: case for case in GENERIC_TESTS}
