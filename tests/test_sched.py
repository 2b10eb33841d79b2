"""The deterministic multi-tenant scheduler and the knobs that drive it.

Five contracts are locked down here (see PERFORMANCE.md "Multi-tenant
scheduling"):

* **fairness** — runnable tasks share the virtual CPU in proportion to their
  group's ``cpu.weight``; a single runnable task is scheduled with *zero*
  overhead, observationally identical to running its body inline (the
  scheduler analogue of the no-limit ≡ seed memcg property).
* **bandwidth** — ``cpu.max`` quota throttles a group at the enforcement
  period, stretches its wall (virtual) time, and shows up in ``cpu.stat``
  (``nr_throttled`` / ``throttled_usec``) read live through cgroupfs.
* **knob validation** — cgroupfs ``cpu.weight`` / ``cpu.max`` writes accept
  exactly the kernel's grammar and reject everything else with EINVAL;
  ``cpu.stat`` is read-only.
* **determinism** — the same seed reproduces the complete interleaving
  (pick trace and final virtual time) byte-for-byte across runs and across
  interpreters with different hash seeds.
* **FUSE concurrency** — with ``max_background`` negotiated, the bounded
  ``/dev/fuse`` background queue congests under backlog and drains faster
  with more server threads; left at 0 it is entirely unmodelled.
"""

from __future__ import annotations

import errno
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.bench.harness import BenchEnvironment
from repro.container import DockerEngine, ImageBuilder
from repro.fs.constants import OpenFlags
from repro.fs.errors import FsError
from repro.fuse.options import FuseMountOptions
from repro.kernel.cgroups import (
    CgroupLimits,
    cpu_shares_from_weight,
    cpu_weight_from_shares,
)
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRandom
from repro.sim.sched import CpuGroup, Scheduler

SRC = Path(__file__).resolve().parent.parent / "src"

MS = 1_000_000


def _spinner(clock, ops, op_ns=100_000):
    """A task body charging ``ops`` fixed-cost operations, preemptible
    between any two of them."""
    def body():
        for _ in range(ops):
            clock.advance(op_ns)
            yield None
    return body


def _cgroupfs_write(sc, path, payload: bytes):
    fd = sc.open(path, OpenFlags.O_WRONLY)
    try:
        sc.write(fd, payload)
    finally:
        sc.close(fd)


def _cgroupfs_read(sc, path) -> bytes:
    fd = sc.open(path, OpenFlags.O_RDONLY)
    try:
        return sc.read(fd, 1 << 14)
    finally:
        sc.close(fd)


def _cpu_stat(sc, cg_path) -> dict[str, int]:
    text = _cgroupfs_read(sc, f"{cg_path}/cpu.stat").decode()
    return {k: int(v) for k, v in (line.split() for line in text.splitlines())}


class TestSchedulerCore:
    """Pure sim-layer behavior: no kernel, just a clock and task bodies."""

    def test_single_task_is_equivalent_to_inline_execution(self):
        inline = VirtualClock()
        for _ in range(57):
            inline.advance(100_000)

        clock = VirtualClock()
        sched = Scheduler(clock, rng=DeterministicRandom(7))
        sched.spawn("only", _spinner(clock, 57))
        stats = sched.run()
        assert clock.now_ns == inline.now_ns
        assert stats.context_switches == 0
        assert stats.switch_cost_ns == 0
        assert stats.idle_ns == 0
        assert stats.completions == 1

    def test_equal_weights_share_equally(self):
        clock = VirtualClock()
        sched = Scheduler(clock)
        ga = sched.new_group("a")
        gb = sched.new_group("b")
        ta = sched.spawn("a", _spinner(clock, 100), group=ga)
        tb = sched.spawn("b", _spinner(clock, 100), group=gb)
        sched.run()
        assert ta.cpu_ns == tb.cpu_ns == 100 * 100_000
        assert ga.stats.usage_ns == gb.stats.usage_ns

    def test_weighted_fairness_tracks_cpu_weight(self):
        clock = VirtualClock()
        sched = Scheduler(clock)
        light = sched.new_group("light", weight=100)
        heavy = sched.new_group("heavy", weight=300)
        sched.spawn("light", _spinner(clock, 10_000), group=light)
        sched.spawn("heavy", _spinner(clock, 10_000), group=heavy)
        sched.run(until_ns=40 * MS)
        ratio = heavy.stats.usage_ns / light.stats.usage_ns
        assert 2.0 < ratio < 4.0, ratio

    def test_interleaving_alternates_under_equal_weight(self):
        clock = VirtualClock()
        sched = Scheduler(clock)  # no jitter: fixed timeslices
        sched.spawn("a", _spinner(clock, 40))
        sched.spawn("b", _spinner(clock, 40))
        stats = sched.run()
        # 100us ops on a 1ms slice: 10 ops per turn, strict alternation.
        assert stats.pick_trace[:4] == ["a", "b", "a", "b"]
        assert stats.preemptions > 0
        assert stats.context_switches >= 3

    def test_context_switch_cost_is_charged_to_the_clock(self):
        clock = VirtualClock()
        sched = Scheduler(clock, context_switch_ns=2_000)
        sched.spawn("a", _spinner(clock, 20))
        sched.spawn("b", _spinner(clock, 20))
        stats = sched.run()
        assert stats.switch_cost_ns == stats.context_switches * 2_000
        assert clock.now_ns == 40 * 100_000 + stats.switch_cost_ns

    def test_blocking_yield_sleeps_and_wakes(self):
        clock = VirtualClock()
        sched = Scheduler(clock)

        def sleeper():
            clock.advance(100_000)
            yield 5 * MS          # block for 5ms of virtual time
            clock.advance(100_000)

        sched.spawn("sleeper", sleeper())
        stats = sched.run()
        assert stats.sleeps == 1
        assert stats.idle_ns == 5 * MS
        assert clock.now_ns == 200_000 + 5 * MS

    def test_idle_fires_timers_exactly_at_their_deadlines(self):
        clock = VirtualClock()
        sched = Scheduler(clock)
        fired = []
        clock.schedule(3 * MS, lambda now: fired.append(now))
        clock.schedule(7 * MS, lambda now: fired.append(now))

        def sleeper():
            yield 10 * MS

        sched.spawn("sleeper", sleeper())
        sched.run()
        assert fired == [3 * MS, 7 * MS]
        assert clock.now_ns == 10 * MS

    def test_quota_throttles_and_stretches_virtual_time(self):
        def run_with(quota_ns):
            clock = VirtualClock()
            sched = Scheduler(clock)
            group = sched.new_group("tenant", quota_ns=quota_ns,
                                    period_ns=10 * MS)
            sched.spawn("t", _spinner(clock, 50), group=group)
            sched.run()
            return clock.now_ns, group.stats

        free_ns, free_stats = run_with(None)
        capped_ns, capped_stats = run_with(1 * MS)   # 10% of each period
        assert free_stats.nr_throttled == 0
        assert capped_stats.usage_ns == free_stats.usage_ns == 50 * 100_000
        assert capped_stats.nr_throttled >= 2
        assert capped_stats.throttled_ns > 0
        assert capped_ns > free_ns

    def test_child_group_is_throttled_by_its_parent_quota(self):
        clock = VirtualClock()
        sched = Scheduler(clock)
        parent = sched.new_group("parent", quota_ns=1 * MS, period_ns=10 * MS)
        child = sched.new_group("parent/child", parent=parent)
        sched.spawn("t", _spinner(clock, 30), group=child)
        sched.run()
        assert parent.stats.nr_throttled >= 1
        assert child.stats.usage_ns == parent.stats.usage_ns == 30 * 100_000

    def test_waking_task_cannot_hoard_vruntime_credit(self):
        clock = VirtualClock()
        sched = Scheduler(clock)

        def napper():
            yield 10 * MS                 # sleep while the spinner accrues
            for _ in range(100):
                clock.advance(100_000)
                yield None

        sched.spawn("napper", napper())
        sched.spawn("spinner", _spinner(clock, 300))
        stats = sched.run()
        woke_at = next(i for i, name in enumerate(stats.pick_trace[1:], 1)
                       if name == "napper")
        after = stats.pick_trace[woke_at:]
        streak = best = 0
        for name in after:
            streak = streak + 1 if name == "napper" else 0
            best = max(best, streak)
        # Without the wake-time vruntime floor the napper would burn its
        # 10ms sleep credit in ~10 consecutive slices.
        assert best <= 2, stats.pick_trace

    def test_same_seed_reproduces_trace_and_time_exactly(self):
        def run(seed):
            clock = VirtualClock()
            sched = Scheduler(clock, rng=DeterministicRandom(seed))
            for i in range(4):
                group = sched.new_group(f"g{i}", weight=100 + 50 * i)
                sched.spawn(f"t{i}", _spinner(clock, 200, 70_000 + i * 1_000),
                            group=group)
            stats = sched.run()
            return tuple(stats.pick_trace), clock.now_ns

        assert run(42) == run(42)
        trace_a, _ = run(42)
        trace_b, _ = run(43)
        assert trace_a != trace_b     # jitter stream actually depends on seed

    def test_group_validation(self):
        with pytest.raises(ValueError):
            CpuGroup("w", weight=0)
        with pytest.raises(ValueError):
            CpuGroup("w", weight=10_001)
        with pytest.raises(ValueError):
            CpuGroup("q", quota_ns=0)
        with pytest.raises(ValueError):
            CpuGroup("p", period_ns=0)
        with pytest.raises(ValueError):
            Scheduler(VirtualClock(), timeslice_ns=0)


class TestCpuController:
    """Kernel glue: processes, cgroups and cgroupfs drive the scheduler."""

    def _workload(self, sc, path, records=16, record_kb=64):
        """A body performing real syscalls, yielding between operations."""
        payload = b"x" * (record_kb << 10)

        def body():
            fd = sc.open(path, OpenFlags.O_CREAT | OpenFlags.O_WRONLY, 0o644)
            yield None
            for _ in range(records):
                sc.write(fd, payload)
                yield None
            sc.fsync(fd)
            yield None
            sc.close(fd)

        return body

    def test_tasks_accumulate_process_cpu_time(self, machine):
        controller = machine.kernel.cpu_controller()
        workers = [machine.spawn_host_process([f"/usr/bin/w{i}"])
                   for i in range(2)]
        for i, sc in enumerate(workers):
            sc.makedirs(f"/work{i}")
            controller.spawn(sc.process,
                             self._workload(sc, f"/work{i}/f.dat"))
        t0 = machine.clock.now_ns
        stats = controller.run()
        elapsed = machine.clock.now_ns - t0
        assert stats.completions == 2
        for sc in workers:
            assert sc.process.cpu_time_ns > 0
        total_cpu = sum(sc.process.cpu_time_ns for sc in workers)
        assert total_cpu == elapsed - stats.idle_ns - stats.switch_cost_ns

    def test_cpu_stat_reads_scheduler_charges_through_cgroupfs(self, machine,
                                                               syscalls):
        syscalls.mkdir("/sys/fs/cgroup/tenant")
        worker = machine.spawn_host_process(["/usr/bin/tenant-proc"])
        machine.kernel.cgroups.attach(worker.process.pid, "/tenant")
        worker.makedirs("/scratch")
        controller = machine.kernel.cpu_controller()
        controller.spawn(worker.process, self._workload(worker, "/scratch/f"))
        before = _cpu_stat(syscalls, "/sys/fs/cgroup/tenant")
        assert before["usage_usec"] == 0
        controller.run()
        after = _cpu_stat(syscalls, "/sys/fs/cgroup/tenant")
        assert after["usage_usec"] > 0
        assert after["usage_usec"] == \
            machine.kernel.cgroups.lookup("/tenant").cpu_stats.usage_ns // 1_000

    def test_cpu_max_written_through_cgroupfs_throttles(self):
        from repro.kernel.machine import boot

        def run_tenant(cpu_max: bytes | None):
            # A fresh machine per run keeps the two virtual clocks comparable.
            fresh = boot()
            sc = fresh.spawn_host_process(["/usr/bin/admin"])
            sc.mkdir("/sys/fs/cgroup/tenant")
            worker = fresh.spawn_host_process(["/usr/bin/worker"])
            fresh.kernel.cgroups.attach(worker.process.pid, "/tenant")
            worker.makedirs("/scratch")
            if cpu_max is not None:
                _cgroupfs_write(sc, "/sys/fs/cgroup/tenant/cpu.max", cpu_max)
            controller = fresh.kernel.cpu_controller()
            controller.spawn(worker.process,
                             self._workload(worker, "/scratch/f", records=64))
            t0 = fresh.clock.now_ns
            controller.run()
            return (fresh.clock.now_ns - t0,
                    _cpu_stat(sc, "/sys/fs/cgroup/tenant"))

        free_ns, free_stat = run_tenant(None)
        capped_ns, capped_stat = run_tenant(b"1000 10000")
        assert free_stat["nr_throttled"] == 0
        assert capped_stat["nr_throttled"] >= 1
        assert capped_stat["throttled_usec"] > 0
        assert capped_ns > free_ns
        # Identical work: usage matches, only the throttled wait differs.
        assert capped_stat["usage_usec"] == free_stat["usage_usec"]

    def test_sync_limits_picks_up_writes_made_after_spawn(self, machine,
                                                          syscalls):
        syscalls.mkdir("/sys/fs/cgroup/late")
        worker = machine.spawn_host_process(["/usr/bin/late-proc"])
        machine.kernel.cgroups.attach(worker.process.pid, "/late")
        worker.makedirs("/scratch")
        controller = machine.kernel.cpu_controller()
        controller.spawn(worker.process,
                         self._workload(worker, "/scratch/f", records=64))
        # The group exists (spawn created it) with no quota; the write lands
        # before run() because run() re-syncs every mapped group.
        _cgroupfs_write(syscalls, "/sys/fs/cgroup/late/cpu.max", b"1000 10000")
        controller.run()
        assert _cpu_stat(syscalls, "/sys/fs/cgroup/late")["nr_throttled"] >= 1

    def test_cpu_weight_written_through_cgroupfs_biases_fairness(self, machine,
                                                                 syscalls):
        controller = machine.kernel.cpu_controller()
        for name, weight in (("gold", b"800"), ("bronze", b"100")):
            syscalls.mkdir(f"/sys/fs/cgroup/{name}")
            _cgroupfs_write(syscalls, f"/sys/fs/cgroup/{name}/cpu.weight",
                            weight)
            sc = machine.spawn_host_process([f"/usr/bin/{name}"])
            machine.kernel.cgroups.attach(sc.process.pid, f"/{name}")
            sc.makedirs(f"/{name}-scratch")
            controller.spawn(sc.process,
                             self._workload(sc, f"/{name}-scratch/f",
                                            records=256))
        controller.run(until_ns=machine.clock.now_ns + 10 * MS)
        gold = machine.kernel.cgroups.lookup("/gold").cpu_stats.usage_ns
        bronze = machine.kernel.cgroups.lookup("/bronze").cpu_stats.usage_ns
        assert gold > bronze * 2, (gold, bronze)


class TestCgroupfsCpuKnobs:
    """The cpu.* files: rendering, validation, read-only enforcement."""

    def test_default_renders(self, machine, syscalls):
        syscalls.mkdir("/sys/fs/cgroup/k")
        assert _cgroupfs_read(syscalls, "/sys/fs/cgroup/k/cpu.max") == \
            b"max 100000\n"
        assert _cgroupfs_read(syscalls, "/sys/fs/cgroup/k/cpu.weight") == \
            b"100\n"
        stat = _cpu_stat(syscalls, "/sys/fs/cgroup/k")
        assert set(stat) == {"usage_usec", "nr_periods", "nr_throttled",
                             "throttled_usec"}
        assert all(v == 0 for v in stat.values())

    def test_cpu_weight_round_trips_including_bounds(self, machine, syscalls):
        syscalls.mkdir("/sys/fs/cgroup/w")
        for value in (b"1", b"50", b"100", b"10000"):
            _cgroupfs_write(syscalls, "/sys/fs/cgroup/w/cpu.weight", value)
            assert _cgroupfs_read(syscalls, "/sys/fs/cgroup/w/cpu.weight") == \
                value + b"\n"
        limits = machine.kernel.cgroups.lookup("/w").limits
        assert limits.cpu_shares == cpu_shares_from_weight(10_000)

    def test_cpu_max_grammar(self, machine, syscalls):
        syscalls.mkdir("/sys/fs/cgroup/m")
        path = "/sys/fs/cgroup/m/cpu.max"
        _cgroupfs_write(syscalls, path, b"50000 100000")
        assert _cgroupfs_read(syscalls, path) == b"50000 100000\n"
        # Omitting the period keeps the current one.
        _cgroupfs_write(syscalls, path, b"25000")
        assert _cgroupfs_read(syscalls, path) == b"25000 100000\n"
        _cgroupfs_write(syscalls, path, b"2000 10000")
        assert _cgroupfs_read(syscalls, path) == b"2000 10000\n"
        # "max" clears the quota but keeps the period.
        _cgroupfs_write(syscalls, path, b"max")
        assert _cgroupfs_read(syscalls, path) == b"max 10000\n"
        limits = machine.kernel.cgroups.lookup("/m").limits
        assert limits.cpu_quota_us is None
        assert limits.cpu_period_us == 10_000

    @pytest.mark.parametrize("knob,payload", [
        ("cpu.weight", b"0"),
        ("cpu.weight", b"10001"),
        ("cpu.weight", b"-5"),
        ("cpu.weight", b"abc"),
        ("cpu.weight", b""),
        ("cpu.max", b""),
        ("cpu.max", b"999"),                 # quota below 1ms floor
        ("cpu.max", b"0"),
        ("cpu.max", b"50000 999"),           # period below 1ms floor
        ("cpu.max", b"50000 2000000"),       # period above 1s ceiling
        ("cpu.max", b"fast"),
        ("cpu.max", b"50000 fast"),
        ("cpu.max", b"1 2 3"),
    ])
    def test_malformed_writes_are_einval(self, machine, syscalls, knob,
                                         payload):
        syscalls.mkdir("/sys/fs/cgroup/bad")
        with pytest.raises(FsError) as exc:
            _cgroupfs_write(syscalls, f"/sys/fs/cgroup/bad/{knob}", payload)
        assert exc.value.errno == errno.EINVAL
        # A rejected write leaves the knobs at their defaults.
        assert _cgroupfs_read(syscalls, "/sys/fs/cgroup/bad/cpu.max") == \
            b"max 100000\n"
        assert _cgroupfs_read(syscalls, "/sys/fs/cgroup/bad/cpu.weight") == \
            b"100\n"

    def test_cpu_stat_is_read_only(self, machine, syscalls):
        syscalls.mkdir("/sys/fs/cgroup/ro")
        with pytest.raises(FsError) as exc:
            fd = syscalls.open("/sys/fs/cgroup/ro/cpu.stat", OpenFlags.O_WRONLY)
            try:
                syscalls.write(fd, b"usage_usec 0")
            finally:
                syscalls.close(fd)
        assert exc.value.errno == errno.EACCES

    def test_weight_shares_mapping_fixed_points(self):
        assert cpu_shares_from_weight(100) == 1024
        assert cpu_weight_from_shares(1024) == 100
        assert cpu_shares_from_weight(1) == 10       # kernel floor is 2
        assert cpu_weight_from_shares(2) == 1
        assert cpu_weight_from_shares(1 << 20) == 10_000
        for weight in range(1, 10_001):
            assert cpu_weight_from_shares(cpu_shares_from_weight(weight)) == \
                weight


class TestEngineLimitsPassThrough:
    """``docker run --cpus``-style limits land on the container's cgroup."""

    def test_cpu_limits_reach_the_container_cgroup(self, machine):
        docker = DockerEngine(machine)
        image = (ImageBuilder("app", "1.0")
                 .add_dir("/usr/sbin")
                 .add_file("/usr/sbin/app", size=10_000, mode=0o755)
                 .entrypoint("/usr/sbin/app").build())
        limits = CgroupLimits(cpu_quota_us=50_000,
                              cpu_shares=cpu_shares_from_weight(300))
        container = docker.run(image, name="capped", limits=limits)
        cgroup = machine.kernel.cgroups.cgroup_of(container.init_pid)
        assert cgroup.limits.cpu_quota_us == 50_000
        assert cgroup.limits.cpu_weight() == 300
        # The engine copies the limits, so mutating the caller's object
        # never retunes a running container.
        limits.cpu_quota_us = 1_000
        assert cgroup.limits.cpu_quota_us == 50_000

    def test_scheduler_enforces_engine_supplied_quota(self, machine):
        docker = DockerEngine(machine)
        image = (ImageBuilder("busy", "1.0")
                 .add_dir("/usr/sbin")
                 .add_file("/usr/sbin/busy", size=10_000, mode=0o755)
                 .entrypoint("/usr/sbin/busy").build())
        container = docker.run(
            image, name="throttled",
            limits=CgroupLimits(cpu_quota_us=1_000, cpu_period_us=10_000))
        init = container.init_process
        controller = machine.kernel.cpu_controller()
        clock = machine.clock

        def busy():
            for _ in range(50):
                clock.advance(100_000)
                yield None

        controller.spawn(init, busy, name="busy-loop")
        controller.run()
        cgroup = machine.kernel.cgroups.cgroup_of(init.pid)
        assert cgroup.cpu_stats.nr_throttled >= 1
        assert cgroup.cpu_stats.throttled_ns > 0


class TestFuseBackgroundQueue:
    """The bounded /dev/fuse queue behind ``max_background``."""

    def _hammer(self, env, mb=4):
        # Raise the dirty thresholds so the fsync flush submits the whole
        # file as one background burst instead of trickling 128KiB batches.
        for knob, value in (("dirty_background_bytes", 64 << 20),
                            ("dirty_bytes", 128 << 20)):
            fd = env.host_sc.open(f"/proc/sys/vm/{knob}", OpenFlags.O_WRONLY)
            env.host_sc.write(fd, f"{value}\n".encode())
            env.host_sc.close(fd)
        sc, base = env.cntr_access()
        sc.makedirs(f"{base}/q")
        fd = sc.open(f"{base}/q/data", OpenFlags.O_CREAT | OpenFlags.O_WRONLY,
                     0o644)
        chunk = b"q" * (64 << 10)
        for _ in range(mb << 4):
            sc.write(fd, chunk)
        sc.fsync(fd)
        sc.close(fd)
        return env.client.connection.queue_stats

    def test_default_queue_is_unmodelled(self):
        env = BenchEnvironment(page_cache_mb=64)
        stats = self._hammer(env)
        assert env.client.connection.max_background == 0
        assert stats.queued_total == 0
        assert stats.congestion_waits == 0
        assert stats.congestion_wait_ns == 0

    def test_congestion_threshold_derives_linux_default(self, machine,
                                                        syscalls):
        fd = syscalls.open("/dev/fuse", OpenFlags.O_RDWR)
        conn = syscalls.process.get_fd(fd).connection
        conn.configure_queue(12)
        assert conn.max_background == 12
        assert conn.congestion_threshold == 9
        conn.configure_queue(12, congestion_threshold=40)
        assert conn.congestion_threshold == 12    # clamped to max_background
        conn.configure_queue(0)
        assert conn.max_background == 0

    def test_bounded_queue_congests_under_backlog(self):
        options = FuseMountOptions.paper_defaults().with_overrides(
            max_background=12)
        env = BenchEnvironment(options=options, threads=1, page_cache_mb=64)
        stats = self._hammer(env)
        assert env.client.connection.max_background == 12
        assert stats.queued_total > 0
        assert stats.max_depth > 12
        assert stats.congestion_waits > 0
        assert stats.congestion_wait_ns > 0
        assert stats.drained_total <= stats.queued_total

    def test_more_server_threads_drain_congestion_faster(self):
        def wait_ns(threads):
            options = FuseMountOptions.paper_defaults().with_overrides(
                max_background=12)
            env = BenchEnvironment(options=options, threads=threads,
                                   page_cache_mb=64)
            return self._hammer(env).congestion_wait_ns

        assert wait_ns(8) < wait_ns(1)

    def test_dispatch_is_attributed_round_robin_to_workers(self):
        env = BenchEnvironment(threads=4, page_cache_mb=64)
        self._hammer(env, mb=1)
        per_worker = env.server.stats.per_worker
        assert len(per_worker) == 4
        assert sum(per_worker) == env.client.connection.stats.requests_total
        assert all(count > 0 for count in per_worker)


class TestSchedulerDeterminism:
    """Same seed ⇒ identical trace, across runs and across interpreters."""

    SCENARIO = textwrap.dedent("""\
        import hashlib

        from repro.fs.constants import OpenFlags
        from repro.kernel.machine import boot
        from repro.sim.rng import DeterministicRandom

        machine = boot()
        admin = machine.spawn_host_process(["/usr/bin/admin"])
        controller = machine.kernel.cpu_controller(rng=DeterministicRandom(11))
        cpu_maxes = {"t0": b"2000 10000", "t1": None, "t2": b"5000 20000"}
        for name, cpu_max in sorted(cpu_maxes.items()):
            admin.mkdir(f"/sys/fs/cgroup/{name}")
            if cpu_max is not None:
                fd = admin.open(f"/sys/fs/cgroup/{name}/cpu.max",
                                OpenFlags.O_WRONLY)
                admin.write(fd, cpu_max)
                admin.close(fd)
            sc = machine.spawn_host_process([f"/usr/bin/{name}"])
            machine.kernel.cgroups.attach(sc.process.pid, f"/{name}")
            sc.makedirs(f"/{name}")

            def body(sc=sc, name=name):
                fd = sc.open(f"/{name}/f", OpenFlags.O_CREAT | OpenFlags.O_WRONLY,
                             0o644)
                yield None
                for _ in range(24):
                    sc.write(fd, b"z" * 65536)
                    yield None
                sc.fsync(fd)
                yield None
                sc.close(fd)

            controller.spawn(sc.process, body, name=name)
        stats = controller.run()
        digest = hashlib.sha256(",".join(stats.pick_trace).encode()).hexdigest()
        print(digest, machine.clock.now_ns, stats.picks, stats.context_switches)
        """)

    def _run_scenario_inline(self):
        namespace = {}
        import contextlib
        import io
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(self.SCENARIO, namespace)  # noqa: S102 - test scenario
        return out.getvalue()

    def test_same_seed_identical_trace_across_fresh_runs(self):
        assert self._run_scenario_inline() == self._run_scenario_inline()

    def test_interleaving_is_hash_seed_independent(self):
        runs = [subprocess.run(
            [sys.executable, "-c", self.SCENARIO], capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": seed})
            for seed in ("1", "2")]
        assert all(r.returncode == 0 for r in runs), \
            runs[0].stderr + runs[1].stderr
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.strip()
