"""Tests for the kernel layer: processes, namespaces, cgroups, IPC, /proc."""

import errno

import pytest

from repro.fs.constants import FileMode, OpenFlags
from repro.fs.errors import FsError
from repro.kernel.capabilities import CapabilitySet, DOCKER_DEFAULT_CAPS
from repro.kernel.namespaces import NamespaceKind
from repro.kernel.objects import make_pipe, make_pty, make_socketpair


class TestBoot:
    def test_init_is_pid_one(self, machine):
        assert machine.init.pid == 1
        assert machine.init.ppid == 0

    def test_host_filesystem_layout(self, machine):
        sc = machine.syscalls
        assert sc.stat("/usr/bin/gdb").st_size > 1_000_000
        assert sc.readlink("/bin/bash") == "/usr/bin/bash"
        assert "proc" in [m["fs_type"] for m in sc.mount_table()]

    def test_devices_work(self, machine):
        sc = machine.syscalls
        fd = sc.open("/dev/zero")
        assert sc.read(fd, 8) == b"\x00" * 8
        sc.close(fd)
        fd = sc.open("/dev/null")
        assert sc.write(fd, b"discard") == 7
        sc.close(fd)


class TestProcesses:
    def test_fork_inherits_environment_and_cwd(self, machine, syscalls):
        syscalls.setenv("MARKER", "42")
        child = syscalls.spawn(["/usr/bin/child"])
        assert child.getenv("MARKER") == "42"
        assert child.getcwd() == syscalls.getcwd()

    def test_exit_removes_process(self, machine, syscalls):
        child = syscalls.spawn(["/usr/bin/child"])
        pid = child.process.pid
        child.exit(0)
        assert pid not in machine.kernel.processes

    def test_kill_requires_permission(self, machine, syscalls):
        victim = syscalls.spawn(["/usr/bin/victim"])
        attacker = syscalls.spawn(["/usr/bin/attacker"])
        attacker.process.uid = 999
        attacker.process.caps = CapabilitySet.empty()
        with pytest.raises(FsError):
            attacker.kill(victim.process.pid)

    def test_fd_limit(self, machine, syscalls):
        syscalls.process.rlimits.nofile = 4
        syscalls.open("/etc/hostname")
        with pytest.raises(FsError) as exc:
            for _ in range(10):
                syscalls.open("/etc/hostname")
        assert exc.value.errno == errno.EMFILE

    def test_rlimit_fsize_independent_after_fork(self, machine, syscalls):
        child = syscalls.spawn(["/usr/bin/child"])
        child.setrlimit_fsize(1024)
        assert syscalls.process.rlimits.fsize_bytes is None


class TestNamespaces:
    def test_unshare_uts_isolates_hostname(self, machine, syscalls):
        original = syscalls.gethostname()
        syscalls.unshare(NamespaceKind.UTS)
        syscalls.sethostname("isolated")
        assert syscalls.gethostname() == "isolated"
        assert machine.syscalls.gethostname() == original

    def test_unshare_mount_namespace_isolates_mounts(self, machine, syscalls):
        from repro.fs.tmpfs import TmpFS
        syscalls.unshare(NamespaceKind.MNT)
        syscalls.process.mnt_ns.make_all_private()
        extra = TmpFS("extra", machine.kernel.clock, machine.kernel.costs)
        syscalls.makedirs("/mnt/extra")
        syscalls.mount(extra, "/mnt/extra")
        child_mounts = [m["mountpoint"] for m in syscalls.mount_table()]
        host_mounts = [m["mountpoint"] for m in machine.syscalls.mount_table()]
        assert "/mnt/extra" in child_mounts
        assert "/mnt/extra" not in host_mounts

    def test_setns_joins_target_namespace(self, machine, syscalls):
        target = machine.spawn_host_process(["/usr/bin/target"])
        target.unshare(NamespaceKind.UTS)
        target.sethostname("target-ns")
        syscalls.setns(target.process.namespaces[NamespaceKind.UTS])
        assert syscalls.gethostname() == "target-ns"

    def test_unshare_requires_cap_sys_admin(self, machine, syscalls):
        syscalls.process.caps = CapabilitySet.for_container()
        with pytest.raises(FsError):
            syscalls.unshare(NamespaceKind.MNT)

    def test_pid_namespace_virtual_pids(self, machine, syscalls):
        syscalls.unshare(NamespaceKind.PID)
        child = syscalls.spawn(["/usr/bin/inner"])
        assert child.getpid() != child.getpid_global() or child.getpid() == 1

    def test_chroot_confines_path_resolution(self, machine, syscalls):
        syscalls.makedirs("/jail/etc")
        fd = syscalls.open("/jail/etc/inside", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"jailed")
        syscalls.close(fd)
        syscalls.chroot("/jail")
        assert syscalls.read(syscalls.open("/etc/inside"), 100) == b"jailed"
        assert not syscalls.exists("/usr/bin/gdb")
        assert syscalls.exists("/../../etc/inside")


class TestCgroupsAndCaps:
    def test_cgroup_attach_and_lookup(self, machine):
        cg = machine.kernel.cgroups
        cg.attach(123, "/docker/abc")
        assert cg.cgroup_of(123).path == "/docker/abc"
        assert cg.proc_cgroup_line(123) == "0::/docker/abc"

    def test_cgroup_limits_inherit(self, machine):
        cg = machine.kernel.cgroups
        parent = cg.create("/limited")
        parent.limits.memory_limit_bytes = 1 << 30
        child = cg.create("/limited/app")
        assert child.effective_memory_limit() == 1 << 30

    def test_cgroup_remove_busy(self, machine):
        cg = machine.kernel.cgroups
        cg.attach(5, "/busy")
        with pytest.raises(FsError):
            cg.remove("/busy")

    def test_capability_drop(self):
        caps = CapabilitySet.for_host_root().drop({"CAP_SYS_ADMIN"})
        assert not caps.has("CAP_SYS_ADMIN")
        assert caps.has("CAP_CHOWN")

    def test_container_capabilities_are_limited(self):
        caps = CapabilitySet.for_container()
        assert caps.effective == DOCKER_DEFAULT_CAPS
        assert not caps.has("CAP_SYS_ADMIN")


class TestProcfs:
    def test_environ_and_cmdline(self, machine, syscalls):
        syscalls.setenv("FOO", "BAR")
        pid = syscalls.process.pid
        sc = machine.syscalls
        blob = sc.read(sc.open(f"/proc/{pid}/environ"), 1 << 16)
        assert b"FOO=BAR" in blob
        cmdline = sc.read(sc.open(f"/proc/{pid}/cmdline"), 1 << 16)
        assert b"test-process" in cmdline

    def test_ns_links_differ_after_unshare(self, machine, syscalls):
        sc = machine.syscalls
        before = sc.readlink(f"/proc/{syscalls.process.pid}/ns/uts")
        syscalls.unshare(NamespaceKind.UTS)
        after = sc.readlink(f"/proc/{syscalls.process.pid}/ns/uts")
        assert before != after

    def test_status_contains_capabilities(self, machine):
        sc = machine.syscalls
        text = sc.read(sc.open("/proc/1/status"), 1 << 16).decode()
        assert "CapEff" in text and "Pid:\t1" in text

    def test_missing_pid_raises_enoent(self, machine):
        sc = machine.syscalls
        with pytest.raises(FsError):
            sc.open("/proc/99999/status")

    def test_proc_listing_contains_pids(self, machine, syscalls):
        names = machine.syscalls.listdir("/proc")
        assert str(syscalls.process.pid) in names


class TestProcSysVm:
    def test_listing_and_defaults(self, machine):
        sc = machine.syscalls
        assert "sys" in sc.listdir("/proc")
        assert sc.listdir("/proc/sys") == ["vm"]
        names = sc.listdir("/proc/sys/vm")
        assert set(names) == {"dirty_background_bytes", "dirty_background_ratio",
                              "dirty_bytes", "dirty_expire_centisecs",
                              "dirty_ratio", "dirty_writeback_centisecs",
                              "vfs_cache_pressure", "drop_caches"}
        # 0 means "per-filesystem defaults in effect"; vfs_cache_pressure
        # reads Linux's default of 100 instead.
        for name in names:
            expected = b"100\n" if name == "vfs_cache_pressure" else b"0\n"
            assert sc.read(sc.open(f"/proc/sys/vm/{name}"), 64) == expected

    def test_write_retunes_mounted_filesystems(self, machine):
        from repro.fs.constants import OpenFlags

        sc = machine.syscalls
        fd = sc.open("/proc/sys/vm/dirty_bytes", OpenFlags.O_WRONLY)
        sc.write(fd, b"1048576\n")
        sc.close(fd)
        assert sc.read(sc.open("/proc/sys/vm/dirty_bytes"), 64) == b"1048576\n"
        # The rootfs ext4 engine is registered at boot and follows the knob;
        # its background threshold keeps its per-fs default.
        assert machine.rootfs.writeback.tunables.dirty_bytes == 1 << 20
        assert machine.rootfs.writeback.tunables.dirty_background_bytes == 256 << 20

    def test_mounting_registers_engine(self, machine, syscalls):
        from repro.fs.constants import OpenFlags
        from repro.fs.ext4 import Ext4Fs

        kernel = machine.kernel
        fd = machine.syscalls.open("/proc/sys/vm/dirty_background_bytes",
                                   OpenFlags.O_WRONLY)
        machine.syscalls.write(fd, b"65536\n")
        machine.syscalls.close(fd)
        extra = Ext4Fs("extra", kernel.clock, kernel.costs)
        syscalls.makedirs("/mnt/extra")
        syscalls.mount(extra, "/mnt/extra")
        # Registration applies the already-written kernel-wide knob.
        assert extra.writeback.tunables.dirty_background_bytes == 65536

    def test_umount_unregisters_engine(self, machine, syscalls):
        from repro.fs.ext4 import Ext4Fs

        kernel = machine.kernel
        extra = Ext4Fs("ephemeral", kernel.clock, kernel.costs)
        syscalls.makedirs("/mnt/ephemeral")
        syscalls.mount(extra, "/mnt/ephemeral")
        assert extra.writeback in kernel.vm.engines()
        syscalls.umount("/mnt/ephemeral")
        assert extra.writeback not in kernel.vm.engines()
        # The rootfs engine (still mounted) is untouched.
        assert machine.rootfs.writeback in kernel.vm.engines()

    def test_unlinked_inode_releases_writeback_state(self, machine, syscalls):
        from repro.fs.constants import OpenFlags

        rootfs = machine.rootfs
        pending_before = len(rootfs.writeback.pending_inodes())
        dirty_before = rootfs.page_cache.dirty_page_count()
        syscalls.makedirs("/var/churn")
        for i in range(20):
            fd = syscalls.open(f"/var/churn/f{i}",
                               OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
            syscalls.write(fd, b"x" * 8192)
            syscalls.close(fd)
            syscalls.unlink(f"/var/churn/f{i}")
        # Inode eviction discarded the deleted files' dirty pages and pending
        # bytes: create/delete churn must not grow either map.
        assert len(rootfs.writeback.pending_inodes()) == pending_before
        assert rootfs.page_cache.dirty_page_count() == dirty_before

    def test_invalid_value_rejected(self, machine):
        from repro.fs.constants import OpenFlags

        sc = machine.syscalls
        for payload in (b"not-a-number", b"-5"):
            fd = sc.open("/proc/sys/vm/dirty_bytes", OpenFlags.O_WRONLY)
            with pytest.raises(FsError):
                sc.write(fd, payload)
            sc.close(fd)

    def test_other_proc_files_stay_read_only(self, machine):
        from repro.fs.constants import OpenFlags

        sc = machine.syscalls
        with pytest.raises(FsError):
            fd = sc.open("/proc/version", OpenFlags.O_WRONLY)
            sc.write(fd, b"nope")


def _errno_of(call, *args) -> int:
    with pytest.raises(FsError) as exc:
        call(*args)
    return exc.value.errno


class TestSyntheticFilesystems:
    """/proc, /sys/class/bdi, /sys/fs/cgroup and tracefs share one base."""

    #: (mount, an existing file, an existing directory below the mount or
    #: None); "{bdi}" is the rootfs device's bdi name.
    MOUNTS = [
        ("/proc", "/proc/uptime", "/proc/sys"),
        ("/sys/class/bdi", "/sys/class/bdi/{bdi}/read_ahead_kb", "/sys/class/bdi/{bdi}"),
        ("/sys/fs/cgroup", "/sys/fs/cgroup/memory.current", None),
        ("/sys/kernel/debug/tracing", "/sys/kernel/debug/tracing/trace", None),
    ]

    @pytest.mark.parametrize("mount,existing,directory", MOUNTS,
                             ids=[m[0] for m in MOUNTS])
    def test_namespace_changes_are_refused(self, machine, mount, existing, directory):
        # Only the kernel adds or removes entries; cgroupfs's mkdir/rmdir,
        # which create and remove cgroups, are the one exception.
        sc = machine.syscalls
        bdi = machine.rootfs.device.bdi.name
        existing = existing.format(bdi=bdi)
        before = sc.listdir(mount)
        calls = [
            (sc.open, f"{mount}/new", OpenFlags.O_CREAT | OpenFlags.O_WRONLY),
            (sc.mknod, f"{mount}/fifo", FileMode.S_IFIFO | 0o644),
            (sc.symlink, "/", f"{mount}/symlink"),
            (sc.link, existing, f"{mount}/hardlink"),
            (sc.unlink, existing),
            (sc.rename, existing, f"{mount}/renamed"),
        ]
        if directory is not None:
            calls += [(sc.mkdir, f"{mount}/dir"), (sc.rmdir, directory.format(bdi=bdi))]
        for call, *args in calls:
            assert _errno_of(call, *args) == errno.EACCES, call.__name__
        assert sc.listdir(mount) == before
        for name in ("new", "fifo", "symlink", "hardlink", "renamed", "dir"):
            assert _errno_of(sc.stat, f"{mount}/{name}") == errno.ENOENT

    @pytest.mark.parametrize("path", ["/proc/uptime", "/proc/1/status",
                                      "/proc/sys/vm/dirty_bytes",
                                      "/sys/class/bdi/{bdi}/read_ahead_kb"])
    def test_listing_a_file_is_enotdir(self, machine, path):
        path = path.format(bdi=machine.rootfs.device.bdi.name)
        assert _errno_of(machine.syscalls.listdir, path) == errno.ENOTDIR

    @pytest.mark.parametrize("name", ["memory.current", "memory.stat", "cpu.stat"])
    def test_truncating_a_read_only_cgroup_file_is_eacces(self, machine, name):
        path = f"/sys/fs/cgroup/{name}"
        flags = OpenFlags.O_WRONLY | OpenFlags.O_TRUNC
        assert _errno_of(machine.syscalls.open, path, flags) == errno.EACCES


class TestIpcObjects:
    def test_pipe_roundtrip(self):
        read_end, write_end = make_pipe()
        write_end.write(b"through the pipe")
        assert read_end.read(100) == b"through the pipe"

    def test_pipe_eof_after_writer_close(self):
        read_end, write_end = make_pipe()
        write_end.close()
        assert read_end.read(10) == b""

    def test_pipe_epipe_after_reader_close(self):
        read_end, write_end = make_pipe()
        read_end.close()
        with pytest.raises(FsError) as exc:
            write_end.write(b"x")
        assert exc.value.errno == errno.EPIPE

    def test_socketpair_bidirectional(self):
        a, b = make_socketpair()
        a.write(b"ping")
        b.write(b"pong")
        assert b.read(10) == b"ping"
        assert a.read(10) == b"pong"

    def test_pty_master_slave(self):
        master, slave = make_pty(0)
        master.write(b"ls\n")
        assert slave.read(10) == b"ls\n"
        slave.write(b"file1 file2\n")
        assert master.read(100) == b"file1 file2\n"

    def test_unix_socket_via_syscalls(self, machine, syscalls):
        server = machine.spawn_host_process(["/usr/bin/server"])
        server.unix_listen("/run/test.sock")
        client_fd = syscalls.unix_connect("/run/test.sock")
        conn_fd = server.unix_accept(3)          # listener is the first fd (3)
        syscalls.write(client_fd, b"hello server")
        assert server.read(conn_fd, 100) == b"hello server"

    def test_unix_connect_without_listener_refused(self, machine, syscalls):
        with pytest.raises(FsError) as exc:
            syscalls.unix_connect("/run/absent.sock")
        assert exc.value.errno == errno.ENOENT or exc.value.errno == errno.ECONNREFUSED

    def test_epoll_reports_readable_socket(self, machine, syscalls):
        fd_a, fd_b = syscalls.socketpair()
        epfd = syscalls.epoll_create()
        syscalls.epoll_ctl_add(epfd, fd_a, {"in"})
        assert syscalls.epoll_wait(epfd) == []
        syscalls.write(fd_b, b"wake up")
        events = syscalls.epoll_wait(epfd)
        assert events and events[0][0] == fd_a

    def test_splice_between_file_and_socket(self, machine, syscalls):
        fd = syscalls.open("/tmp/splice-src", OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        syscalls.write(fd, b"spliced payload")
        syscalls.lseek(fd, 0)
        sock_a, sock_b = syscalls.socketpair()
        moved = syscalls.splice(fd, sock_a, 1 << 16)
        assert moved == len(b"spliced payload")
        assert syscalls.read(sock_b, 100) == b"spliced payload"

    def test_ptrace_allowed_within_same_pid_namespace(self, machine, syscalls):
        target = machine.spawn_host_process(["/usr/bin/app"])
        assert syscalls.ptrace_attach(target.process.pid)
