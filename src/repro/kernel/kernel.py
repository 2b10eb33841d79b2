"""The kernel object: process table, namespace operations, devices.

The kernel is deliberately mechanism-only: containers are *not* a kernel
concept here (exactly as the paper stresses in §2.3) — the container runtimes
in :mod:`repro.container` and Cntr itself in :mod:`repro.core` are userspace
programs that compose the primitives exposed by this class.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Callable

from repro.fs.errors import FsError
from repro.fs.mount import MountNamespace
from repro.fs.vfs import VFS, VNode
from repro.fs.writeback import MemInfo, VmSysctl
from repro.kernel.capabilities import CapabilitySet
from repro.kernel.cgroups import CgroupHierarchy
from repro.kernel.lsm import LsmRegistry, UNCONFINED
from repro.kernel.memcg import MemcgController
from repro.kernel.namespaces import (
    MntNamespace,
    Namespace,
    NamespaceKind,
    PidNamespace,
    make_host_namespaces,
)
from repro.kernel.objects import KernelObject
from repro.kernel.process import Process
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.psi import PsiRegistry
from repro.sim.trace import Tracer

#: Device numbers of the character devices the kernel knows about.
DEV_NULL_RDEV = 0x0103
DEV_ZERO_RDEV = 0x0105
DEV_URANDOM_RDEV = 0x0109
DEV_FUSE_RDEV = 0x0AE5
DEV_TTY_RDEV = 0x0500


class NullDevice(KernelObject):
    """``/dev/null``: reads return EOF, writes are discarded."""

    def read(self, size: int) -> bytes:
        return b""

    def write(self, data: bytes) -> int:
        return len(data)

    def poll(self) -> set[str]:
        return {"in", "out"}


class ZeroDevice(KernelObject):
    """``/dev/zero``: reads return zero bytes."""

    def read(self, size: int) -> bytes:
        return b"\x00" * size

    def write(self, data: bytes) -> int:
        return len(data)

    def poll(self) -> set[str]:
        return {"in", "out"}


class UrandomDevice(KernelObject):
    """``/dev/urandom``: deterministic pseudo-random bytes."""

    def __init__(self, seed: int = 0xC0FFEE) -> None:
        super().__init__()
        self._state = seed

    def read(self, size: int) -> bytes:
        out = bytearray()
        while len(out) < size:
            self._state = (self._state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            out.extend(self._state.to_bytes(8, "little"))
        return bytes(out[:size])

    def poll(self) -> set[str]:
        return {"in"}


class _CurrentPsiChain:
    """Resolve the current process's cgroup PSI chain for the registry.

    A named class instead of a closure so the kernel snapshot (which pickles
    the whole object graph) can serialise the registry's hook.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    def __call__(self):
        memcg = self.kernel.memcg
        return memcg.psi_chain(memcg.current_cgroup())


class Kernel:
    """Top-level simulated kernel."""

    def __init__(self, clock: VirtualClock | None = None,
                 costs: CostModel | None = None,
                 tracer: Tracer | None = None) -> None:
        self.clock = clock or VirtualClock()
        self.costs = costs or CostModel()
        self.tracer = tracer or Tracer(enabled=False)
        self.vfs = VFS()
        self.cgroups = CgroupHierarchy()
        self.lsm = LsmRegistry()
        #: Modelled memory size; /proc/meminfo renders it and the
        #: vm.dirty_*_ratio knobs resolve against it.
        self.mem = MemInfo()
        #: The cgroup v2 memory controller: per-cgroup page-cache budgets,
        #: memcg reclaim and memory.high write throttling.  Filesystem
        #: registration (below) wires caches and engines into it.
        self.memcg = MemcgController(self.cgroups, self.clock)
        #: Kernel-wide vm.* knobs (/proc/sys/vm) plus the memory model behind
        #: them; mounting a filesystem registers it (and its writeback
        #: engine, if any) here.
        self.vm = VmSysctl(meminfo=self.mem)
        self.vm.memcg = self.memcg
        #: Pressure-stall accounting (/proc/pressure + per-cgroup *.pressure
        #: files): every stall site reports through this registry; stalls are
        #: attributed to the current process's cgroup chain unless the site
        #: knows its victim better (scheduler throttling, memcg stalls).
        self.psi = PsiRegistry(self.clock)
        self.psi.current_groups = _CurrentPsiChain(self)
        self.memcg.psi = self.psi
        self.memcg.tracer = self.tracer
        self.vm.psi = self.psi
        self.vm.tracer = self.tracer
        self.processes: dict[int, Process] = {}
        self._next_pid = 1
        self._pty_index = 0
        #: rdev -> factory producing a KernelObject when the device is opened.
        self.device_drivers: dict[int, Callable[[], KernelObject]] = {
            DEV_NULL_RDEV: NullDevice,
            DEV_ZERO_RDEV: ZeroDevice,
            DEV_URANDOM_RDEV: UrandomDevice,
        }
        self.host_namespaces: dict[NamespaceKind, Namespace] = {}

    # ------------------------------------------------------------- processes
    def cpu_controller(self, rng=None, timeslice_ns: int | None = None):
        """A fresh multi-tenant scheduler run bound to this kernel.

        Each controller owns one :class:`repro.sim.sched.Scheduler`; benches
        seed ``rng`` (a :class:`repro.sim.rng.DeterministicRandom`) for
        reproducible jittered interleavings.  Inline single-process execution
        never touches this — with no controller the kernel behaves exactly as
        before the scheduler existed.
        """
        from repro.kernel.cpu import CpuController

        kwargs = {} if timeslice_ns is None else {"timeslice_ns": timeslice_ns}
        return CpuController(self, rng=rng, **kwargs)

    def alloc_pid(self) -> int:
        """Allocate the next global pid."""
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def create_init_process(self, mounts: MountNamespace, argv: list[str] | None = None,
                            env: dict[str, str] | None = None) -> Process:
        """Create pid 1 on the host with the initial namespace set."""
        if self.processes:
            raise FsError.eexist("init process already exists")
        self.host_namespaces = make_host_namespaces(mounts)
        pid = self.alloc_pid()
        root_mount = mounts.root_mount
        assert root_mount is not None
        root = VNode(root_mount, root_mount.root_ino)
        init = Process(
            pid=pid, ppid=0, argv=argv or ["/sbin/init"],
            env=env or {"PATH": "/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin",
                        "HOME": "/root", "TERM": "xterm"},
            namespaces=self.host_namespaces, root=root, cwd=root, cwd_path="/",
            uid=0, gid=0, caps=CapabilitySet.for_host_root(), lsm_profile=UNCONFINED)
        init.start_time_ns = self.clock.now_ns
        self.processes[pid] = init
        self._register_in_pid_ns(init)
        self.cgroups.attach(pid, "/")
        return init

    def _register_in_pid_ns(self, proc: Process) -> None:
        pid_ns = proc.pid_ns
        if pid_ns.parent is None:
            # The root PID namespace uses global pids as virtual pids.
            pid_ns.vpid_map[proc.pid] = proc.pid
            pid_ns.next_vpid = max(pid_ns.next_vpid, proc.pid + 1)
            if pid_ns.init_pid is None:
                pid_ns.init_pid = proc.pid
        else:
            pid_ns.register(proc.pid)

    def fork(self, parent: Process, argv: list[str] | None = None,
             env: dict[str, str] | None = None) -> Process:
        """Fork a child of ``parent`` (optionally exec-ing new argv/env)."""
        self.clock.advance(self.costs.context_switch_ns)
        pid = self.alloc_pid()
        child = Process(
            pid=pid, ppid=parent.pid,
            argv=list(argv) if argv is not None else list(parent.argv),
            env=dict(env) if env is not None else dict(parent.env),
            namespaces=dict(parent.namespaces),
            root=parent.root, cwd=parent.cwd, cwd_path=parent.cwd_path,
            uid=parent.uid, gid=parent.gid, groups=parent.groups,
            caps=parent.caps, lsm_profile=parent.lsm_profile)
        child.umask = parent.umask
        child.rlimits = dataclasses.replace(parent.rlimits)
        child.start_time_ns = self.clock.now_ns
        self.processes[pid] = child
        parent.children.append(pid)
        self._register_in_pid_ns(child)
        self.cgroups.attach(pid, self.cgroups.cgroup_of(parent.pid).path)
        return child

    def exit_process(self, proc: Process, code: int = 0) -> None:
        """Terminate a process, releasing descriptors and namespace membership."""
        proc.close_all_fds()
        proc.state = "zombie"
        proc.exit_code = code
        proc.pid_ns.unregister(proc.pid)
        self.cgroups.detach(proc.pid)
        # Reap immediately; orphaned children are re-parented to init (pid 1).
        for child_pid in proc.children:
            child = self.processes.get(child_pid)
            if child is not None and child.state == "running":
                child.ppid = 1
        proc.state = "dead"
        self.processes.pop(proc.pid, None)

    def find_process(self, pid: int) -> Process:
        """Look up a live process by global pid."""
        proc = self.processes.get(pid)
        if proc is None:
            raise FsError.esrch(f"pid {pid}")
        return proc

    def processes_in_pid_ns(self, pid_ns: PidNamespace) -> list[Process]:
        """All live processes that are members of ``pid_ns``."""
        return [self.processes[p] for p in pid_ns.member_pids() if p in self.processes]

    # ------------------------------------------------------------- namespaces
    def unshare(self, proc: Process, kinds: set[NamespaceKind]) -> None:
        """``unshare(2)``: move the process into fresh namespaces of ``kinds``."""
        self.clock.advance(self.costs.syscall_ns)
        if NamespaceKind.USER not in kinds and not proc.caps.has("CAP_SYS_ADMIN"):
            raise FsError.eperm("unshare requires CAP_SYS_ADMIN")
        # Iterate in enum definition order: set order is hash-seed dependent
        # and must never decide the sequence of namespace swaps.
        for kind in [k for k in NamespaceKind if k in kinds]:
            current = proc.namespaces[kind]
            new_ns = current.clone_for_unshare()
            proc.namespaces[kind] = new_ns
            if kind == NamespaceKind.PID:
                assert isinstance(new_ns, PidNamespace)
                # PID namespace membership only changes for children; the
                # caller itself stays in its old namespace in Linux.  The
                # simulation applies it immediately for simplicity but keeps
                # the vpid of the caller stable.
                new_ns.register(proc.pid)
            if kind == NamespaceKind.MNT:
                assert isinstance(new_ns, MntNamespace)
                root_mount = new_ns.mounts.root_mount
                assert root_mount is not None
                # Re-anchor root/cwd onto the copied mount tree.
                proc.root = VNode(self._find_equivalent_mount(new_ns.mounts, proc.root),
                                  proc.root.ino)
                proc.cwd = VNode(self._find_equivalent_mount(new_ns.mounts, proc.cwd),
                                 proc.cwd.ino)

    @staticmethod
    def _find_equivalent_mount(mounts: MountNamespace, vnode: VNode):
        """After a mount-namespace copy, find the copied mount matching ``vnode``."""
        for m in mounts.mounts:
            if m.fs is vnode.mount.fs and m.root_ino == vnode.mount.root_ino \
                    and m.mountpoint_path == vnode.mount.mountpoint_path:
                return m
        return mounts.root_mount

    def setns(self, proc: Process, target: Namespace) -> None:
        """``setns(2)``: join an existing namespace."""
        self.clock.advance(self.costs.syscall_ns)
        if not proc.caps.has("CAP_SYS_ADMIN"):
            raise FsError.eperm("setns requires CAP_SYS_ADMIN")
        proc.namespaces[target.kind] = target
        if target.kind == NamespaceKind.MNT:
            assert isinstance(target, MntNamespace)
            root_mount = target.mounts.root_mount
            assert root_mount is not None
            proc.root = VNode(root_mount, root_mount.root_ino)
            proc.cwd = VNode(root_mount, root_mount.root_ino)
            proc.cwd_path = "/"
        if target.kind == NamespaceKind.PID:
            assert isinstance(target, PidNamespace)
            target.register(proc.pid)

    def setns_all_of(self, proc: Process, target: Process,
                     kinds: set[NamespaceKind] | None = None) -> None:
        """Join every namespace of ``target`` (what ``cntr attach`` does)."""
        # Enum definition order, not set order: the join sequence must not
        # depend on PYTHONHASHSEED.
        for kind in [k for k in NamespaceKind if kinds is None or k in kinds]:
            self.setns(proc, target.namespaces[kind])

    # ------------------------------------------------------------- devices
    def register_device(self, rdev: int, factory: Callable[[], KernelObject]) -> None:
        """Register a character-device driver."""
        self.device_drivers[rdev] = factory

    def open_device(self, rdev: int) -> KernelObject:
        """Open a character device by device number."""
        factory = self.device_drivers.get(rdev)
        if factory is None:
            raise FsError(6, msg=f"no driver for device {rdev:#x}")  # ENXIO
        return factory()

    def next_pty_index(self) -> int:
        """Allocate a pseudo-terminal index."""
        idx = self._pty_index
        self._pty_index += 1
        return idx

    # ------------------------------------------------------------- crash model
    def crash(self) -> None:
        """Power-fail the machine and bring it straight back up.

        Every filesystem under vm control crashes according to its own loss
        semantics — tmpfs resets to an empty tree, ext4 drops its caches and
        replays the journal on remount, a FUSE client loses its writeback
        cache — and is remounted immediately.  Processes and their descriptor
        tables survive in the simulation (the harness keeps driving them);
        handles into vanished inodes surface ESTALE/ENOENT on next use, which
        is exactly the stale-handle behaviour crash tests want to observe.
        """
        filesystems = self.vm.filesystems()
        for fs in filesystems:
            fs.crash()
        for fs in filesystems:
            fs.remount()

    # ------------------------------------------------------------- snapshot/fork
    def snapshot(self, *companions: object) -> "KernelSnapshot":
        """Freeze this kernel (plus any companion objects) into a snapshot.

        The snapshot captures everything reachable from the kernel — mount
        trees, page caches, the cgroup hierarchy, the virtual clock, RNG
        streams — together with ``companions`` (harness-level objects such as
        syscall handles or environment wrappers that must stay wired to the
        same object graph).  Each :meth:`KernelSnapshot.fork` then yields an
        independent copy-on-boot clone, which is ~2x cheaper than a fresh
        :func:`repro.kernel.machine.boot` and skips all environment setup
        replay.  The parent kernel is never touched: the snapshot is a
        pickled byte image, and forks unpickle it.  A graph that pickle
        cannot serialise (a lambda or closure anywhere in it) raises pickle's
        error here.
        """
        return KernelSnapshot(self, companions)

    # ------------------------------------------------------------- misc
    def ptrace_allowed(self, tracer: Process, target: Process) -> bool:
        """Yama-style check: same PID namespace (or a descendant) + CAP_SYS_PTRACE."""
        if not tracer.caps.has("CAP_SYS_PTRACE") and tracer.uid != target.uid:
            return False
        ns = target.pid_ns
        while ns is not None:
            if ns.ns_id == tracer.pid_ns.ns_id:
                return True
            ns = ns.parent
        return False


class KernelSnapshot:
    """A frozen, forkable image of a :class:`Kernel` and its companions.

    Built once via :meth:`Kernel.snapshot`, then forked many times.
    The snapshot holds a pickled byte image of ``(kernel, companions)`` taken
    at construction; every fork unpickles *that image*, so clones share
    nothing with each other or with the original kernel.  Virtual-clock
    state, RNG stream positions (including
    :class:`repro.sim.rng.DeterministicRandom` substream derivation seeds)
    and all filesystem state are preserved exactly, which is what makes
    snapshot-clone ≡ fresh-boot for the test harnesses.
    """

    def __init__(self, kernel: Kernel, companions: tuple[object, ...] = ()) -> None:
        self._blob = pickle.dumps((kernel, companions),
                                  protocol=pickle.HIGHEST_PROTOCOL)
        self.forks = 0

    def fork(self) -> tuple[Kernel, tuple[object, ...]]:
        """A fully independent clone: ``(kernel, companions)``."""
        self.forks += 1
        return pickle.loads(self._blob)
