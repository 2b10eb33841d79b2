"""The memory-pressure model: /proc/meminfo, ratio knobs, BDI, drop_caches.

Regression tests for the invariants the memory model introduced:

* ``/proc/meminfo`` and the ``vm.*`` sysctls resolve through one shared
  :class:`repro.fs.writeback.MemInfo`/:class:`VmSysctl`, so no reader can
  ever observe the two disagreeing;
* the ratio knobs resolve to byte thresholds against modelled memory with
  the bytes knobs winning when nonzero (Linux rule);
* writing ``/proc/sys/vm/drop_caches`` is observationally identical to the
  old direct ``fs.drop_caches()`` call (page counts, dentry-generation bump,
  subsequent lookup costs);
* O_SYNC/O_DSYNC writes leave no pending writeback behind;
* BDI bandwidth shaping charges exactly ``bytes / bandwidth``.
"""

from __future__ import annotations

import pytest

from repro.fs.constants import OpenFlags
from repro.fs.errors import FsError


def _read_proc(sc, path: str) -> str:
    fd = sc.open(path)
    try:
        return sc.read(fd, 1 << 16).decode()
    finally:
        sc.close(fd)


def _write_proc(sc, path: str, value) -> None:
    fd = sc.open(path, OpenFlags.O_WRONLY)
    try:
        sc.write(fd, f"{value}\n".encode())
    finally:
        sc.close(fd)


def _meminfo_kb(sc) -> dict[str, int]:
    fields = {}
    for line in _read_proc(sc, "/proc/meminfo").splitlines():
        label, rest = line.split(":", 1)
        fields[label] = int(rest.split()[0])
    return fields


class TestMeminfo:
    def test_memtotal_renders_the_modelled_memory(self, machine):
        fields = _meminfo_kb(machine.syscalls)
        assert fields["MemTotal"] == machine.kernel.mem.total_bytes >> 10
        # The historical static file said 16384000 kB; the model's default
        # reproduces it.
        assert fields["MemTotal"] == 16384000
        assert 0 <= fields["MemFree"] <= fields["MemTotal"]

    def test_dirty_field_tracks_engine_pending(self, machine, syscalls):
        before = _meminfo_kb(machine.syscalls)["Dirty"]
        fd = syscalls.open("/root/dirty.dat", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"d" * (256 << 10))
        after = _meminfo_kb(machine.syscalls)["Dirty"]
        assert after == before + 256
        syscalls.fsync(fd)
        syscalls.close(fd)
        assert _meminfo_kb(machine.syscalls)["Dirty"] == before

    def test_meminfo_and_ratios_share_one_source(self, machine):
        """The coherence invariant: /proc/meminfo and every engine's ratio
        resolution read the same MemInfo object, so changing the modelled
        memory moves both at once and no reader can see them disagree."""
        kernel = machine.kernel
        for engine in kernel.vm.engines():
            assert engine.meminfo is kernel.mem
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_ratio", 10)
        for total in (1 << 30, 256 << 20):
            kernel.mem.total_bytes = total
            memtotal_kb = _meminfo_kb(machine.syscalls)["MemTotal"]
            assert memtotal_kb == total >> 10
            limits = machine.rootfs.writeback.effective_limits()
            # What a reader computes from /proc/meminfo and /proc/sys/vm is
            # exactly what the flusher threads enforce.
            ratio = int(_read_proc(machine.syscalls, "/proc/sys/vm/dirty_ratio"))
            assert limits.dirty_bytes == (memtotal_kb << 10) * ratio // 100


class TestRatioKnobs:
    def test_ratio_resolves_against_modelled_memory(self, machine):
        machine.kernel.mem.total_bytes = 512 << 20
        # ext4's per-fs default background threshold is a nonzero bytes knob
        # and bytes knobs win; zero it first, as an operator would.
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_background_bytes", 0)
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_background_ratio", 5)
        limits = machine.rootfs.writeback.effective_limits()
        assert limits.dirty_background_bytes == (512 << 20) * 5 // 100

    def test_bytes_knob_wins_when_nonzero(self, machine):
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_ratio", 20)
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_bytes", 4096)
        assert machine.rootfs.writeback.effective_limits().dirty_bytes == 4096
        # Zeroing the bytes knob reactivates the ratio.
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_bytes", 0)
        expected = machine.kernel.mem.total_bytes * 20 // 100
        assert machine.rootfs.writeback.effective_limits().dirty_bytes == expected

    def test_ratio_range_is_validated(self, machine):
        with pytest.raises(FsError):
            _write_proc(machine.syscalls, "/proc/sys/vm/dirty_ratio", 101)
        with pytest.raises(FsError):
            _write_proc(machine.syscalls, "/proc/sys/vm/dirty_background_ratio", -1)

    def test_ratio_drives_flushes_like_bytes(self, machine, syscalls):
        """End-to-end: a ratio-derived threshold flushes at the same point
        the equivalent bytes threshold would."""
        machine.kernel.mem.total_bytes = 1 << 20          # 1 MiB modelled RAM
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_ratio", 25)   # 256 KiB
        engine = machine.rootfs.writeback
        flushes_before = engine.stats.flushes_by_reason.get("dirty_limit", 0)
        fd = syscalls.open("/root/ratio.dat", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"r" * (300 << 10))            # crosses 256 KiB
        syscalls.close(fd)
        assert engine.stats.flushes_by_reason.get("dirty_limit", 0) > flushes_before


class TestDropCachesProcfs:
    @staticmethod
    def _make_dirty_state(machine):
        sc = machine.syscalls
        sc.makedirs("/root/dropdir")
        fd = sc.open("/root/dropdir/data", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        sc.write(fd, b"z" * (128 << 10))
        sc.close(fd)
        sc.stat("/root/dropdir/data")         # warm the dcache

    @staticmethod
    def _observe_after_drop(machine):
        rootfs = machine.rootfs
        clock = machine.kernel.clock
        start = clock.now_ns
        machine.syscalls.stat("/usr/bin/ls")  # post-drop lookup cost
        return {
            "resident_pages": len(rootfs.page_cache),
            "pending": rootfs.writeback.total_pending,
            "dentry_gen": rootfs.dentry_gen,
            "lookup_cost_ns": clock.now_ns - start,
        }

    def test_procfs_write_identical_to_direct_call(self):
        """The regression lock: `echo 3 > /proc/sys/vm/drop_caches` must be
        observationally identical to the old direct fs.drop_caches() call —
        same page counts, same dentry-generation bump, same post-drop lookup
        cost."""
        from repro.kernel.machine import boot

        direct, procfs = boot(), boot()
        for machine in (direct, procfs):
            self._make_dirty_state(machine)
        gen_deltas = []
        observed = []
        for machine, use_procfs in ((direct, False), (procfs, True)):
            gen_before = machine.rootfs.dentry_gen
            if use_procfs:
                _write_proc(machine.syscalls, "/proc/sys/vm/drop_caches", 3)
            else:
                machine.rootfs.drop_caches()
            state = self._observe_after_drop(machine)
            gen_deltas.append(state.pop("dentry_gen") - gen_before)
            observed.append(state)
        assert gen_deltas[0] == gen_deltas[1] == 1
        assert observed[0] == observed[1]
        assert observed[0]["resident_pages"] == 0
        assert observed[0]["pending"] == 0

    def test_mode_1_drops_pages_keeps_dentries(self, machine):
        self._make_dirty_state(machine)
        gen_before = machine.rootfs.dentry_gen
        _write_proc(machine.syscalls, "/proc/sys/vm/drop_caches", 1)
        assert len(machine.rootfs.page_cache) == 0
        assert machine.rootfs.writeback.total_pending == 0
        assert machine.rootfs.dentry_gen == gen_before

    def test_mode_2_drops_dentries_keeps_pages(self, machine):
        self._make_dirty_state(machine)
        pages_before = len(machine.rootfs.page_cache)
        assert pages_before > 0
        gen_before = machine.rootfs.dentry_gen
        _write_proc(machine.syscalls, "/proc/sys/vm/drop_caches", 2)
        assert len(machine.rootfs.page_cache) == pages_before
        assert machine.rootfs.dentry_gen == gen_before + 1

    def test_file_reads_back_last_written_mode(self, machine):
        assert _read_proc(machine.syscalls, "/proc/sys/vm/drop_caches") == "0\n"
        _write_proc(machine.syscalls, "/proc/sys/vm/drop_caches", 2)
        assert _read_proc(machine.syscalls, "/proc/sys/vm/drop_caches") == "2\n"

    def test_invalid_mode_rejected(self, machine):
        for bad in (0, 4, 7):
            with pytest.raises(FsError):
                _write_proc(machine.syscalls, "/proc/sys/vm/drop_caches", bad)

    def test_mount_registers_umount_unregisters(self, machine, syscalls):
        from repro.fs.ext4 import Ext4Fs

        kernel = machine.kernel
        extra = Ext4Fs("extra-drop", kernel.clock, kernel.costs)
        syscalls.makedirs("/mnt/extra-drop")
        syscalls.mount(extra, "/mnt/extra-drop")
        assert extra in kernel.vm.filesystems()
        assert extra.writeback.meminfo is kernel.mem
        syscalls.umount("/mnt/extra-drop")
        assert extra not in kernel.vm.filesystems()
        # The still-mounted root filesystem keeps its registration.
        assert machine.rootfs in kernel.vm.filesystems()


class TestReclaim:
    @staticmethod
    def _tighten(machine, slack_bytes):
        kernel = machine.kernel
        kernel.mem.reserved_bytes = 0
        kernel.mem.total_bytes = (kernel.vm.cached_bytes_total()
                                  + kernel.vm.dirty_bytes_total() + slack_bytes)
        kernel.mem.reclaim_enabled = True

    def test_budget_is_rendered_memavailable(self, machine):
        """The reclaim budget and /proc/meminfo's MemAvailable are the same
        number — one formula, two surfaces."""
        self._tighten(machine, 1 << 20)
        budget = machine.kernel.vm.cache_budget_bytes()
        fields = _meminfo_kb(machine.syscalls)
        assert budget >> 10 == fields["MemAvailable"]
        assert fields["MemFree"] >= 0

    def test_pressure_reclaims_to_budget(self, machine, syscalls):
        self._tighten(machine, 256 << 10)
        vm = machine.kernel.vm
        fd = syscalls.open("/root/pressure.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"p" * (1 << 20))
        syscalls.close(fd)
        assert vm.reclaim_stats.pages_reclaimed > 0
        assert vm.cached_bytes_total() <= vm.cache_budget_bytes()

    def test_disabled_budget_reads_none(self, machine):
        assert machine.kernel.vm.cache_budget_bytes() is None

    def test_vfs_cache_pressure_debt_accumulator(self, machine, syscalls):
        """Pressure 250 shrinks two dentry caches per pass and carries 50
        points of debt into the next pass (deterministic weighting)."""
        _write_proc(machine.syscalls, "/proc/sys/vm/vfs_cache_pressure", 250)
        self._tighten(machine, 128 << 10)
        vm = machine.kernel.vm
        fd = syscalls.open("/root/dcache.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"d" * (512 << 10))
        syscalls.close(fd)
        passes = vm.reclaim_stats.reclaims
        assert passes > 0
        expected = (passes * 250) // 100
        assert vm.reclaim_stats.dcache_shrinks == expected

    def test_snapshot_restore_roundtrip(self, machine):
        vm = machine.kernel.vm
        default_background = \
            machine.rootfs.writeback.tunables.dirty_background_bytes
        state = vm.snapshot()
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_background_bytes", 0)
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_writeback_centisecs", 7)
        assert machine.rootfs.writeback.tunables.dirty_background_bytes == 0
        assert machine.rootfs.writeback._flusher_timer is not None
        vm.restore(state)
        assert machine.rootfs.writeback.tunables.dirty_background_bytes == \
            default_background
        assert machine.rootfs.writeback._flusher_timer is None
        assert vm.get("dirty_writeback_centisecs") == 0


class TestPeriodicFlusher:
    def test_tick_flushes_without_write_activity(self, machine, syscalls):
        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_writeback_centisecs", 4)
        engine = machine.rootfs.writeback
        fd = syscalls.open("/root/kupdate.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"k" * (64 << 10))
        ino = syscalls.fstat(fd).st_ino
        assert engine.pending(ino) > 0
        machine.clock.advance(9 * 10_000_000)     # two periods, zero writes
        assert engine.pending(ino) == 0
        assert engine.stats.flushes_by_reason.get("periodic", 0) >= 1
        syscalls.close(fd)

    def test_zero_keeps_the_flusher_asleep(self, machine, syscalls):
        engine = machine.rootfs.writeback
        fd = syscalls.open("/root/asleep.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"z" * (64 << 10))
        ino = syscalls.fstat(fd).st_ino
        machine.clock.advance(10_000_000_000)
        assert engine.pending(ino) == 64 << 10
        syscalls.close(fd)

    def test_mounting_under_live_knob_arms_the_engine(self, machine, syscalls):
        from repro.fs.ext4 import Ext4Fs

        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_writeback_centisecs", 5)
        kernel = machine.kernel
        extra = Ext4Fs("late-mount", kernel.clock, kernel.costs)
        assert extra.writeback._flusher_timer is None
        syscalls.makedirs("/mnt/late")
        syscalls.mount(extra, "/mnt/late")
        assert extra.writeback._flusher_timer is not None

    def test_umount_disarms_the_flusher_timer(self, machine, syscalls):
        """A detached engine must not keep firing on — and charging flush
        costs into — the shared clock after its filesystem goes away."""
        from repro.fs.ext4 import Ext4Fs

        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_writeback_centisecs", 5)
        kernel = machine.kernel
        extra = Ext4Fs("transient", kernel.clock, kernel.costs)
        syscalls.makedirs("/mnt/transient")
        syscalls.mount(extra, "/mnt/transient")
        fd = syscalls.open("/mnt/transient/dirty.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"t" * 8192)
        syscalls.close(fd)
        syscalls.umount("/mnt/transient")
        assert extra.writeback._flusher_timer is None
        pending = extra.writeback.total_pending
        machine.clock.advance(10 * 10_000_000)
        assert extra.writeback.total_pending == pending
        assert extra.writeback.stats.flushes_by_reason.get("periodic", 0) == 0

    def test_restore_does_not_rearm_unmounted_engine(self, machine, syscalls):
        """A knob snapshot taken while an engine was mounted must not, on
        restore, re-arm the kupdate timer of an engine unmounted in between
        (the conformance harness snapshot/restore straddles every case)."""
        from repro.fs.ext4 import Ext4Fs

        _write_proc(machine.syscalls, "/proc/sys/vm/dirty_writeback_centisecs", 5)
        kernel = machine.kernel
        extra = Ext4Fs("straddled", kernel.clock, kernel.costs)
        syscalls.makedirs("/mnt/straddled")
        syscalls.mount(extra, "/mnt/straddled")
        assert extra.writeback._flusher_timer is not None
        state = kernel.vm.snapshot()
        syscalls.umount("/mnt/straddled")
        assert extra.writeback._flusher_timer is None
        kernel.vm.restore(state)
        assert extra.writeback._flusher_timer is None
        flushes = extra.writeback.stats.flushes_by_reason.get("periodic", 0)
        machine.clock.advance(10 * 10_000_000)
        assert extra.writeback.stats.flushes_by_reason.get("periodic", 0) == flushes
        # A later remount re-registers the engine and re-arms it normally.
        syscalls.mount(extra, "/mnt/straddled")
        assert extra.writeback._flusher_timer is not None
        syscalls.umount("/mnt/straddled")

    def test_unregister_disarms_non_sysctl_engine(self):
        """An engine outside the /proc/sys/vm control (tmpfs style) whose
        private tunables enable the periodic flusher still follows the mount
        lifecycle: registration re-arms it, unregistration disarms it."""
        from repro.fs.writeback import VmSysctl, VmTunables, WritebackEngine
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()
        engine = WritebackEngine(
            "private", VmTunables(dirty_writeback_centisecs=5),
            lambda items, reason: None, clock=clock, sysctl_tunable=False)
        assert engine._flusher_timer is not None    # armed at construction
        vm = VmSysctl()
        vm.register(engine)
        assert engine not in vm.engines()           # stays outside vm.* knobs
        assert engine._flusher_timer is not None
        vm.unregister(engine)
        assert engine._flusher_timer is None
        clock.advance(10 * 10_000_000)              # orphan would re-arm here
        assert engine._flusher_timer is None
        vm.register(engine)                         # remount re-arms
        assert engine._flusher_timer is not None


class TestReadShaping:
    def test_sysfs_directory_follows_mounts(self, machine, syscalls):
        from repro.fs.ext4 import Ext4Fs

        sc = machine.syscalls
        names = sc.listdir("/sys/class/bdi")
        assert machine.rootfs.device.bdi.name in names
        kernel = machine.kernel
        extra = Ext4Fs("bdi-probe", kernel.clock, kernel.costs)
        syscalls.makedirs("/mnt/bdi-probe")
        syscalls.mount(extra, "/mnt/bdi-probe")
        assert extra.device.bdi.name in sc.listdir("/sys/class/bdi")
        syscalls.umount("/mnt/bdi-probe")
        assert extra.device.bdi.name not in sc.listdir("/sys/class/bdi")

    def test_colliding_device_names_stay_reachable(self, machine, syscalls):
        """Two mounts whose devices share a name both appear in
        /sys/class/bdi (the second is disambiguated) and each file retunes
        its own device."""
        from repro.fs.ext4 import Ext4Fs

        kernel = machine.kernel
        twins = []
        for mountpoint in ("/mnt/twin-a", "/mnt/twin-b"):
            fs = Ext4Fs("twin", kernel.clock, kernel.costs)
            syscalls.makedirs(mountpoint)
            syscalls.mount(fs, mountpoint)
            twins.append(fs)
        names = {fs.device.bdi.name for fs in twins}
        assert len(names) == 2
        sc = machine.syscalls
        listed = set(sc.listdir("/sys/class/bdi"))
        assert names <= listed
        fd = sc.open(f"/sys/class/bdi/{twins[1].device.bdi.name}/read_ahead_kb",
                     OpenFlags.O_WRONLY)
        sc.write(fd, b"64\n")
        sc.close(fd)
        assert twins[1].device.bdi.read_ahead_kb == 64
        assert twins[0].device.bdi.read_ahead_kb is None

    def test_non_kib_max_readahead_window_is_preserved(self, machine):
        """The FUSE BDI falls back to its *exact* default window —
        odd windows are neither floored to KiB nor silently disabled."""
        from repro.fs.writeback import BacklogDeviceInfo

        bdi = BacklogDeviceInfo("odd", default_read_ahead_bytes=512)
        assert bdi.read_ahead_bytes == 512
        bdi.read_ahead_kb = 4
        assert bdi.read_ahead_bytes == 4096
        bdi.read_ahead_kb = None
        assert bdi.read_ahead_bytes == 512

    def test_read_ahead_kb_write_retunes_the_device(self, machine):
        sc = machine.syscalls
        path = f"/sys/class/bdi/{machine.rootfs.device.bdi.name}/read_ahead_kb"
        fd = sc.open(path, OpenFlags.O_WRONLY)
        sc.write(fd, b"256\n")
        sc.close(fd)
        assert machine.rootfs.device.bdi.read_ahead_kb == 256
        assert sc.read(sc.open(path), 64) == b"256\n"

    def test_ext4_readahead_batches_sequential_misses(self, machine, syscalls):
        rootfs = machine.rootfs
        fd = syscalls.open("/root/ra.dat", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"r" * (256 << 10))
        syscalls.close(fd)

        def cold_read_device_reads() -> int:
            rootfs.drop_caches(1)
            before = rootfs.device.stats.reads
            rfd = syscalls.open("/root/ra.dat", OpenFlags.O_RDONLY)
            for offset in range(0, 256 << 10, 16 << 10):
                syscalls.pread(rfd, 16 << 10, offset)
            syscalls.close(rfd)
            return rootfs.device.stats.reads - before

        unbatched = cold_read_device_reads()     # default: no readahead
        rootfs.device.bdi.read_ahead_kb = 128
        try:
            batched = cold_read_device_reads()
        finally:
            rootfs.device.bdi.read_ahead_kb = None
        assert unbatched == 16
        assert batched == 2

    def test_read_bandwidth_charges_exactly(self, machine, syscalls):
        rootfs = machine.rootfs
        fd = syscalls.open("/root/shaped-read.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"s" * (128 << 10))
        syscalls.close(fd)
        rootfs.drop_caches(1)
        bdi = rootfs.device.bdi
        bdi.read_bandwidth_bytes_s = 64 << 20
        try:
            before = machine.clock.now_ns
            rfd = syscalls.open("/root/shaped-read.dat", OpenFlags.O_RDONLY)
            syscalls.read(rfd, 128 << 10)
            syscalls.close(rfd)
            assert bdi.stats.shaped_read_bytes == 128 << 10
            assert bdi.stats.read_busy_ns == \
                (128 << 10) * 1_000_000_000 // (64 << 20)
            assert machine.clock.now_ns - before >= bdi.stats.read_busy_ns
        finally:
            bdi.read_bandwidth_bytes_s = 0


class TestSyncOpenFlags:
    def test_o_sync_write_flushes_pending(self, machine, syscalls):
        engine = machine.rootfs.writeback
        fd = syscalls.open("/root/osync.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_SYNC)
        syscalls.write(fd, b"s" * 8192)
        ino = syscalls.fstat(fd).st_ino
        assert engine.pending(ino) == 0
        assert engine.stats.flushes_by_reason.get("fsync", 0) >= 1
        syscalls.close(fd)

    def test_o_dsync_write_flushes_pending(self, machine, syscalls):
        engine = machine.rootfs.writeback
        fd = syscalls.open("/root/odsync.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_DSYNC)
        syscalls.write(fd, b"d" * 8192)
        assert engine.pending(syscalls.fstat(fd).st_ino) == 0
        syscalls.close(fd)

    def test_plain_write_keeps_pending(self, machine, syscalls):
        engine = machine.rootfs.writeback
        fd = syscalls.open("/root/lazy.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"l" * 8192)
        assert engine.pending(syscalls.fstat(fd).st_ino) == 8192
        syscalls.close(fd)


class TestBdiShaping:
    def test_flush_charges_bytes_over_bandwidth(self, machine, syscalls):
        device_bdi = machine.rootfs.device.bdi
        assert machine.rootfs.writeback.bdi is device_bdi
        device_bdi.write_bandwidth_bytes_s = 100 << 20        # 100 MiB/s
        fd = syscalls.open("/root/shaped.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"b" * (1 << 20))
        ino = syscalls.fstat(fd).st_ino
        pending = machine.rootfs.writeback.pending(ino)
        busy_before = device_bdi.stats.busy_ns
        clock_before = machine.kernel.clock.now_ns
        syscalls.fsync(fd)
        syscalls.close(fd)
        shaped_ns = device_bdi.stats.busy_ns - busy_before
        assert shaped_ns == pending * 1_000_000_000 // (100 << 20)
        # The shaping is part of the caller-visible virtual time of the flush.
        assert machine.kernel.clock.now_ns - clock_before >= shaped_ns

    def test_default_bandwidth_is_unshaped(self, machine, syscalls):
        fd = syscalls.open("/root/unshaped.dat",
                           OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        syscalls.write(fd, b"u" * (1 << 20))
        syscalls.fsync(fd)
        syscalls.close(fd)
        assert machine.rootfs.device.bdi.stats.busy_ns == 0
        assert machine.rootfs.device.bdi.stats.shaped_flushes == 0
