"""Tests for the VFS path layer and the FUSE client/CntrFS stack."""

import errno
import pickle
import tracemalloc

import pytest

from repro.core.cntrfs import CntrFS
from repro.fs.constants import FallocateMode, LockType, OpenFlags
from repro.fs.errors import FsError
from repro.fs.tmpfs import TmpFS
from repro.fuse.client import FuseClientFs
from repro.fuse.options import FuseMountOptions
from repro.fuse.protocol import FuseOpcode, FuseRequest
from repro.kernel.machine import boot
from repro.xfstests.harness import cntrfs_environment


class TestVfsThroughSyscalls:
    def test_bind_mount_shares_inodes(self, machine, syscalls):
        syscalls.makedirs("/srv/data")
        fd = syscalls.open("/srv/data/shared", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"one copy")
        syscalls.close(fd)
        syscalls.makedirs("/mnt/view")
        syscalls.bind_mount("/srv/data", "/mnt/view")
        assert syscalls.read(syscalls.open("/mnt/view/shared"), 100) == b"one copy"
        assert syscalls.stat("/mnt/view/shared").st_ino == \
            syscalls.stat("/srv/data/shared").st_ino

    def test_file_bind_mount(self, machine, syscalls):
        fd = syscalls.open("/etc/app-config", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"config-a")
        syscalls.close(fd)
        fd = syscalls.open("/etc/other-config", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"config-b")
        syscalls.close(fd)
        syscalls.bind_mount("/etc/app-config", "/etc/other-config")
        assert syscalls.read(syscalls.open("/etc/other-config"), 100) == b"config-a"

    def test_umount_busy_with_child_mounts(self, machine, syscalls):
        inner = TmpFS("inner", machine.kernel.clock, machine.kernel.costs)
        outer = TmpFS("outer", machine.kernel.clock, machine.kernel.costs)
        syscalls.makedirs("/mnt/outer")
        syscalls.mount(outer, "/mnt/outer")
        syscalls.makedirs("/mnt/outer/inner")
        syscalls.mount(inner, "/mnt/outer/inner")
        with pytest.raises(FsError) as exc:
            syscalls.umount("/mnt/outer")
        assert exc.value.errno == errno.EBUSY
        syscalls.umount("/mnt/outer/inner")
        syscalls.umount("/mnt/outer")

    def test_dotdot_crosses_mountpoints(self, machine, syscalls):
        extra = TmpFS("extra", machine.kernel.clock, machine.kernel.costs)
        syscalls.makedirs("/opt/app")
        syscalls.mount(extra, "/opt/app")
        syscalls.makedirs("/opt/app/deep")
        assert syscalls.stat("/opt/app/deep/../../..").st_ino == syscalls.stat("/").st_ino

    def test_rename_across_filesystems_is_exdev(self, machine, syscalls):
        fd = syscalls.open("/root/on-rootfs", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.close(fd)
        with pytest.raises(FsError) as exc:
            syscalls.rename("/root/on-rootfs", "/tmp/on-tmpfs")
        assert exc.value.errno == errno.EXDEV

    def test_mount_propagation_private_vs_shared(self, machine, syscalls):
        from repro.kernel.namespaces import NamespaceKind
        # Host tree is shared (set up by boot); a cloned namespace receives
        # mounts made under shared mounts, but not after making it private.
        cloned = machine.spawn_host_process(["/usr/bin/cloned"])
        cloned.unshare(NamespaceKind.MNT)
        extra = TmpFS("propagated", machine.kernel.clock, machine.kernel.costs)
        machine.syscalls.makedirs("/srv/propagation-test")
        machine.syscalls.mount(extra, "/srv/propagation-test")
        assert any(m["mountpoint"] == "/srv/propagation-test"
                   for m in cloned.mount_table())
        # Now the private case: new namespace marked private sees nothing new.
        isolated = machine.spawn_host_process(["/usr/bin/isolated"])
        isolated.unshare(NamespaceKind.MNT)
        isolated.process.mnt_ns.make_all_private()
        extra2 = TmpFS("not-propagated", machine.kernel.clock, machine.kernel.costs)
        machine.syscalls.makedirs("/srv/private-test")
        machine.syscalls.mount(extra2, "/srv/private-test")
        assert not any(m["mountpoint"] == "/srv/private-test"
                       for m in isolated.mount_table())


@pytest.fixture(scope="module")
def cntr_env():
    """A CntrFS-over-tmpfs environment shared by the FUSE tests."""
    return cntrfs_environment()


class TestFuseStack:
    def test_basic_roundtrip_through_fuse(self, cntr_env):
        sc = cntr_env.sc
        path = f"{cntr_env.test_dir}/fuse-file"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        sc.write(fd, b"through the FUSE boundary")
        sc.close(fd)
        assert sc.read(sc.open(path), 100) == b"through the FUSE boundary"

    def test_mkdir_and_listing_through_fuse(self, cntr_env):
        sc = cntr_env.sc
        base = f"{cntr_env.test_dir}/tree"
        sc.makedirs(f"{base}/a/b")
        fd = sc.open(f"{base}/a/b/leaf", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sc.close(fd)
        assert sc.listdir(f"{base}/a/b") == ["leaf"]

    def test_requests_are_counted(self, cntr_env):
        stats = cntr_env.fs_under_test.connection.stats
        before = stats.requests_total
        cntr_env.sc.stat(f"{cntr_env.test_dir}")
        assert stats.requests_total >= before

    def test_entry_cache_avoids_second_lookup(self, cntr_env):
        sc = cntr_env.sc
        client = cntr_env.fs_under_test
        path = f"{cntr_env.test_dir}/cached-entry"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sc.close(fd)
        stats = client.connection.stats
        sc.stat(path)
        lookups_before = stats.requests_by_opcode.get("LOOKUP", 0)
        sc.stat(path)
        assert stats.requests_by_opcode.get("LOOKUP", 0) == lookups_before

    def test_coalesced_read_holds_one_granule_beside_the_reply(self, cntr_env):
        """A READ replayed in granules copies each into the reply as it comes."""
        sc = cntr_env.sc
        path = f"{cntr_env.test_dir}/granules"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sc.write(fd, b"g" * (1 << 20) + b"tail")
        sc.fsync(fd)
        sc.close(fd)
        server = cntr_env.fs_under_test.connection.server
        request = FuseRequest(FuseOpcode.READ, sc.stat(path).st_ino,
                              args={"offset": 4, "size": 1 << 20, "granule": 128 << 10})
        tracemalloc.start()
        try:
            reply = server.handle(request)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reply.data == b"g" * ((1 << 20) - 4) + b"tail"
        assert peak <= 1.25 * len(reply.data)

    def test_o_direct_rejected(self, cntr_env):
        sc = cntr_env.sc
        path = f"{cntr_env.test_dir}/directio"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sc.close(fd)
        with pytest.raises(FsError) as exc:
            sc.open(path, OpenFlags.O_RDONLY | OpenFlags.O_DIRECT)
        assert exc.value.errno == errno.EINVAL

    def test_xattrs_forwarded_to_backing_store(self, cntr_env):
        sc = cntr_env.sc
        path = f"{cntr_env.test_dir}/xattr-file"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sc.close(fd)
        sc.setxattr(path, "user.origin", b"fuse")
        assert sc.getxattr(path, "user.origin") == b"fuse"
        assert "user.origin" in sc.listxattr(path)

    def test_writeback_flush_on_fsync(self, cntr_env):
        sc = cntr_env.sc
        client = cntr_env.fs_under_test
        path = f"{cntr_env.test_dir}/writeback"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sc.write(fd, b"w" * 8192)
        assert client.writeback.total_pending > 0 \
            or client.options.writeback_cache is False
        sc.fsync(fd)
        assert client.writeback.total_pending == 0
        # Flushed inodes are popped, not left behind as zero entries.
        assert client.writeback.pending_inodes() == []
        sc.close(fd)

    def test_writeback_flush_pops_every_inode(self):
        """Many-file churn must not grow the pending map without bound."""
        env = cntrfs_environment()
        sc = env.sc
        client = env.fs_under_test
        base = f"{env.test_dir}/many"
        sc.makedirs(base)
        for i in range(20):
            fd = sc.open(f"{base}/f{i}", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
            sc.write(fd, b"w" * 4096)
            sc.close(fd)
        assert client.writeback.pending_inodes() == []
        assert client.writeback.total_pending == 0

    def test_truncate_keeps_pages_below_new_eof(self, cntr_env):
        sc = cntr_env.sc
        client = cntr_env.fs_under_test
        path = f"{cntr_env.test_dir}/trunc"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        sc.write(fd, b"w" * (8 * 4096))
        sc.fsync(fd)
        resident = len(client.page_cache)
        # Shrink to 4.5 pages: only pages 5..7 go; the partial page 4 stays.
        sc.ftruncate(fd, 4 * 4096 + 2048)
        assert len(client.page_cache) == resident - 3
        hits_before = client.page_cache.stats.hits
        misses_before = client.page_cache.stats.misses
        sc.lseek(fd, 0, 0)
        sc.read(fd, 4 * 4096)
        assert client.page_cache.stats.hits == hits_before + 4
        assert client.page_cache.stats.misses == misses_before
        # Extending drops nothing.
        resident = len(client.page_cache)
        sc.ftruncate(fd, 64 * 4096)
        assert len(client.page_cache) == resident
        sc.close(fd)

    def test_truncate_discards_writeback_for_dropped_pages(self, cntr_env):
        sc = cntr_env.sc
        client = cntr_env.fs_under_test
        path = f"{cntr_env.test_dir}/trunc-dirty"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sc.write(fd, b"w" * 8192)
        ino = sc.stat(path).st_ino
        assert client.writeback.pending(ino) > 0
        sc.ftruncate(fd, 0)
        # All dirty pages vanished without writeback: no pending bytes may
        # survive to be charged by the next flush.
        assert client.writeback.pending(ino) == 0
        assert client.page_cache.dirty_page_count(ino) == 0
        sc.close(fd)

    def test_punch_hole_invalidates_hole_pages(self, cntr_env):
        from repro.fs.constants import FallocateMode

        sc = cntr_env.sc
        client = cntr_env.fs_under_test
        path = f"{cntr_env.test_dir}/punch"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        sc.write(fd, b"w" * (8 * 4096))
        sc.fsync(fd)
        resident = len(client.page_cache)
        sc.fallocate(fd, FallocateMode.PUNCH_HOLE | FallocateMode.KEEP_SIZE,
                     2 * 4096, 3 * 4096)
        assert len(client.page_cache) == resident - 3
        misses_before = client.page_cache.stats.misses
        sc.lseek(fd, 2 * 4096, 0)
        assert sc.read(fd, 4096) == b"\x00" * 4096
        # Reading the hole is not a page-cache hit.
        assert client.page_cache.stats.misses > misses_before
        sc.close(fd)

    def test_unknown_opcode_returns_enosys(self, cntr_env):
        from repro.fuse.protocol import FuseRequest
        server = cntr_env.fs_under_test.connection.server
        reply = server.handle(FuseRequest(FuseOpcode.BMAP, 1, args={}))
        assert reply.error == errno.ENOSYS

    @pytest.mark.parametrize("closed_before_mount", [True, False],
                             ids=["aborted", "no-server"])
    def test_unconnected_fuse_fails_with_enotconn(self, machine, syscalls,
                                                  closed_before_mount):
        """Closing ``/dev/fuse`` before mount aborts its connection, and a
        connection with no server attached is not connected either: mounting
        on it, or sending it any request, fails with ENOTCONN."""
        kernel = machine.kernel
        fd = syscalls.open("/dev/fuse", OpenFlags.O_RDWR)
        connection = syscalls.process.get_fd(fd).connection
        if closed_before_mount:
            connection.attach_server(CntrFS(kernel, syscalls.process))
            syscalls.close(fd)
            assert connection.aborted and not connection.mounted
        with pytest.raises(FsError) as mount_error:
            FuseClientFs("unconnected", kernel.clock, kernel.costs, connection)
        assert mount_error.value.errno == errno.ENOTCONN
        for opcode in FuseOpcode:
            with pytest.raises(FsError) as request_error:
                connection.request(FuseRequest(opcode, 1))
            assert request_error.value.errno == errno.ENOTCONN, opcode

    def test_forget_batching(self):
        env = cntrfs_environment()
        sc = env.sc
        client = env.fs_under_test
        base = f"{env.test_dir}/forget"
        sc.makedirs(base)
        for i in range(80):
            fd = sc.open(f"{base}/f{i}", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
            sc.close(fd)
        for i in range(80):
            sc.unlink(f"{base}/f{i}")
        client.flush_forgets()
        assert client.connection.stats.forgets_batched >= 64


class TestMountOptions:
    def test_defaults_match_paper(self):
        options = FuseMountOptions.paper_defaults()
        assert options.keep_cache and options.writeback_cache
        assert options.parallel_dirops and options.splice_read
        assert not options.splice_write

    def test_keep_cache_off_invalidates_on_open(self):
        env = cntrfs_environment(options=FuseMountOptions.paper_defaults()
                                 .with_overrides(keep_cache=False))
        sc = env.sc
        client = env.fs_under_test
        path = f"{env.test_dir}/no-keep-cache"
        fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        sc.write(fd, b"d" * 8192)
        sc.close(fd)
        sc.read(sc.open(path), 8192)
        resident_before = len(client.page_cache)
        sc.read(sc.open(path), 8192)   # the open invalidates, so pages reload
        assert client.connection.stats.requests_by_opcode.get("READ", 0) >= 2
        assert resident_before >= 0


class TestFileDataThroughSyscalls:
    """Data syscalls behave alike on ext4-native and CntrFS-over-tmpfs."""

    @staticmethod
    def _file(env, payload):
        path = env.path("data")
        fd = env.sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_RDWR, 0o644)
        env.sc.write(fd, payload)
        return path, fd

    def test_o_trunc_drops_the_old_bytes(self, fresh_env):
        sc = fresh_env.sc
        path, fd = self._file(fresh_env, b"S" * 100)
        sc.close(fd)
        fd = sc.open(path, OpenFlags.O_RDWR | OpenFlags.O_TRUNC)
        sc.pwrite(fd, b"x", 100)
        assert sc.pread(fd, 200, 0) == b"\x00" * 100 + b"x"

    @pytest.mark.parametrize("kept", [0, 4096, 4097])
    def test_truncate_then_extend_reads_zeros(self, fresh_env, kept):
        sc = fresh_env.sc
        path, fd = self._file(fresh_env, b"S" * 3 * 4096)
        sc.close(fd)
        sc.truncate(path, kept)
        sc.truncate(path, 3 * 4096)
        fd = sc.open(path, OpenFlags.O_RDONLY)
        assert sc.read(fd, 4 * 4096) == b"S" * kept + b"\x00" * (3 * 4096 - kept)

    def test_negative_offsets_and_lengths_are_einval(self, fresh_env):
        sc = fresh_env.sc
        path, fd = self._file(fresh_env, b"0123456789")
        calls = [
            lambda: sc.pread(fd, 8, -1),
            lambda: sc.pwrite(fd, b"x", -1),
            lambda: sc.truncate(path, -1),
            lambda: sc.ftruncate(fd, -5),
            lambda: sc.fallocate(fd, FallocateMode.DEFAULT, -1, 4096),
            lambda: sc.fallocate(fd, FallocateMode.DEFAULT, 0, 0),
            lambda: sc.fallocate(fd, FallocateMode.KEEP_SIZE, 0, -4096),
        ]
        for call in calls:
            with pytest.raises(FsError) as exc:
                call()
            assert exc.value.errno == errno.EINVAL
        assert sc.stat(path).st_size == 10
        assert sc.pread(fd, 16, 0) == b"0123456789"


class TestLockTables:
    """An inode has a lock table only once a lock was taken on it."""

    def test_open_and_close_leave_no_lock_table(self, fresh_env):
        sc = fresh_env.sc
        fd = sc.open(fresh_env.path("never-locked"),
                     OpenFlags.O_CREAT | OpenFlags.O_RDWR, 0o644)
        handle = sc.process.get_fd(fd)
        sc.close(fd)
        assert handle.ino not in handle.fs._locks  # noqa: SLF001
        assert pickle.dumps(fresh_env.machine.kernel).count(b"LockTable") == 0

    def test_flock_creates_the_table_and_close_releases_the_lock(self, fresh_env):
        sc = fresh_env.sc
        fd = sc.open(fresh_env.path("locked"), OpenFlags.O_CREAT | OpenFlags.O_RDWR, 0o644)
        handle = sc.process.get_fd(fd)
        sc.flock(fd, LockType.F_WRLCK)
        table = handle.fs._locks[handle.ino]  # noqa: SLF001
        assert len(table.held_locks()) == 1
        sc.close(fd)
        assert table.held_locks() == []

    def test_booted_host_image_holds_no_lock_table(self):
        image = pickle.dumps(boot().kernel, protocol=pickle.HIGHEST_PROTOCOL)
        assert image.count(b"LockTable") == 0
