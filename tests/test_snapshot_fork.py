"""Snapshot/fork isolation and equivalence properties.

The raw-speed program replaced ~200 fresh boots per run with
``Kernel.snapshot()`` + per-case forks, so the whole test pyramid now rests
on two properties:

* **Isolation** — mutating a fork (files, page caches, sysctl knobs,
  cgroups, the clock, RNG streams) and discarding it leaves the parent
  observationally identical, on the native machine and through a CntrFS
  mount alike;
* **Equivalence** — a forked boot is observationally identical to a fresh
  boot, so harnesses may substitute one for the other freely.

Observations read simulator state directly (clock, meminfo text, page-cache
contents and LRU order, cgroup accounting, writeback pending, inode tables)
rather than through syscalls, which would themselves charge virtual time
and perturb what is being compared.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fs.constants import OpenFlags
from repro.kernel.machine import boot, boot_forked
from repro.sim.rng import DeterministicRandom

CREAT_WR = OpenFlags.O_CREAT | OpenFlags.O_WRONLY
#: A companion pickle cannot serialise: a lambda has no importable name.
UNPICKLABLE_COMPANION = [lambda: None]


def _cgroup_digest(cg) -> list[tuple]:
    out = [(cg.path, cg.mem_cache_bytes, cg.mem_dirty_bytes,
            cg.stats_memory_peak, tuple(sorted(cg.procs)))]
    for name in sorted(cg.children):
        out.extend(_cgroup_digest(cg.children[name]))
    return out


def _fs_digest(fs) -> tuple:
    cache = fs.page_cache
    stats = cache.stats
    inodes = tuple(sorted(
        (ino, inode.mode, inode.nlink, inode.size)
        for ino, inode in fs._inodes.items()))  # noqa: SLF001
    return (inodes,
            tuple(sorted(cache.resident_pages().items())),
            tuple(cache.lru_order()),
            (stats.hits, stats.misses, stats.evictions, stats.writebacks),
            fs.writeback.pending(),
            tuple(sorted(fs.writeback.pending_inodes())))


def _observe(kernel, *filesystems) -> tuple:
    return (kernel.clock.now_ns,
            kernel.vm.meminfo_text(),
            tuple(_cgroup_digest(kernel.cgroups.root)),
            tuple(_fs_digest(fs) for fs in filesystems))


#: One fork-side mutation: (kind, small-int parameters).
_mutations = st.lists(
    st.tuples(st.sampled_from(["write", "mkdir", "unlink", "advance",
                               "knob", "cgroup", "rng", "sync"]),
              st.integers(min_value=0, max_value=7),
              st.integers(min_value=1, max_value=64)),
    min_size=1, max_size=12)


def _apply(sc, clock, rng, base: str, ops) -> None:
    for kind, n, size in ops:
        try:
            if kind == "write":
                fd = sc.open(f"{base}/f{n}", CREAT_WR)
                sc.write(fd, b"m" * (size * 512))
                sc.close(fd)
            elif kind == "mkdir":
                sc.mkdir(f"{base}/d{n}")
            elif kind == "unlink":
                sc.unlink(f"{base}/f{n}")
            elif kind == "advance":
                clock.advance(size * 1_000_000)
            elif kind == "knob":
                fd = sc.open("/proc/sys/vm/dirty_writeback_centisecs",
                             OpenFlags.O_WRONLY)
                sc.write(fd, str(size).encode())
                sc.close(fd)
            elif kind == "cgroup":
                sc.kernel.cgroups.create(f"/forked/{n}")
            elif kind == "rng":
                rng.random()
            elif kind == "sync":
                sc.sync()
        except Exception:
            continue    # EEXIST/ENOENT from colliding ops are fine


class TestSnapshotForkIsolation:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_mutations)
    def test_discarded_fork_leaves_native_parent_untouched(self, ops):
        machine = boot_forked()
        rng = DeterministicRandom("isolation")
        rng.random()                       # a stream position past the seed
        snap = machine.kernel.snapshot(machine, rng)
        before = _observe(machine.kernel, machine.rootfs)
        rng_state = rng.getstate()

        _kernel, (fork, fork_rng) = snap.fork()
        _apply(fork.syscalls, fork.clock, fork_rng, "/root", ops)
        mutated = any(k in ("write", "mkdir", "advance") for k, _, _ in ops)
        if mutated:
            assert _observe(fork.kernel, fork.rootfs) != before
        del fork, fork_rng

        assert _observe(machine.kernel, machine.rootfs) == before
        # The parent stream position (and substream derivation root) is
        # untouched by the fork's own draws.
        assert rng.getstate() == rng_state
        assert rng.substream("probe").initial_seed == \
            DeterministicRandom("isolation").substream("probe").initial_seed

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=_mutations)
    def test_discarded_fork_leaves_cntrfs_parent_untouched(self, ops):
        from repro.bench.harness import BenchEnvironment

        env = BenchEnvironment()
        kernel = env.machine.kernel
        snap = kernel.snapshot(env)
        before = _observe(kernel, env.backing, env.client,
                          env.machine.rootfs)

        _kernel, (fork_env,) = snap.fork()
        fork_sc, base = fork_env.cntr_access()
        _apply(fork_sc, fork_env.machine.clock, DeterministicRandom(0),
               base, ops)
        del fork_env

        assert _observe(kernel, env.backing, env.client,
                        env.machine.rootfs) == before


class TestSnapshotForkEquivalence:
    def test_forked_boot_equals_fresh_boot(self):
        fresh = boot()
        forked = boot_forked()
        assert _observe(fresh.kernel, fresh.rootfs) == \
            _observe(forked.kernel, forked.rootfs)

    def test_forks_are_independent_of_each_other(self):
        a = boot_forked()
        b = boot_forked()
        before = _observe(b.kernel, b.rootfs)
        fd = a.syscalls.open("/root/only-in-a", CREAT_WR)
        a.syscalls.write(fd, b"x" * 8192)
        a.syscalls.close(fd)
        assert _observe(b.kernel, b.rootfs) == before
        assert _observe(a.kernel, a.rootfs) != before

    def test_snapshot_is_immune_to_later_parent_mutation(self):
        machine = boot_forked()
        snap = machine.kernel.snapshot(machine)
        before = _observe(machine.kernel, machine.rootfs)
        fd = machine.syscalls.open("/root/parent-side", CREAT_WR)
        machine.syscalls.write(fd, b"p" * 4096)
        machine.syscalls.close(fd)
        _kernel, (clone,) = snap.fork()
        assert _observe(clone.kernel, clone.rootfs) == before

    def test_unpicklable_graph_fails_at_snapshot(self):
        """A snapshot is a pickled image and nothing else: a companion that
        cannot be pickled makes ``snapshot()`` raise instead of forking."""
        machine = boot_forked()
        with pytest.raises(pickle.PicklingError):
            machine.kernel.snapshot(machine, UNPICKLABLE_COMPANION)
