"""Synthetic sysfs surfaces: ``/sys/class/bdi``, ``/sys/fs/cgroup`` and tracefs.

All three are :class:`repro.kernel.synthetic.SyntheticFS` filesystems, like
``/proc``: each supplies its tree, its content and its write handling.

Linux exposes every backing device's writeback state under
``/sys/class/bdi/<dev>/``; the knob that matters for the reproduction is
``read_ahead_kb``, the per-device readahead window that replaced the global
``max_readahead`` constant on the ext4/FUSE read paths.  Devices appear here
when their filesystem is mounted (``Syscalls.mount`` registers the
filesystem — and thereby its engine's BDI — with :class:`VmSysctl`) and
disappear at the last umount, exactly like ``/proc`` entries follow
processes.

Reads render the live knob value; writes retune the live
:class:`repro.fs.writeback.BacklogDeviceInfo` object, so the next cache-miss
fetch on that device uses the new window.  Invalid values are ``EINVAL``,
matching the sysctl convention.

:class:`CgroupFS` is the same idea for the cgroup v2 hierarchy: a *writable*
synthetic filesystem mounted at ``/sys/fs/cgroup`` whose directories mirror
the live :class:`repro.kernel.cgroups.CgroupHierarchy` (``mkdir`` creates a
cgroup, ``rmdir`` removes an empty one) and whose files are the memory
controller's interface — ``memory.max`` / ``memory.high`` (writable;
``max``/``0`` mean unlimited, anything non-integer or negative is
``EINVAL``, and lowering ``memory.max`` below the current usage triggers
synchronous reclaim, per Linux semantics), the read-only ``memory.current``
/ ``memory.peak`` / ``memory.stat``, and ``cgroup.procs`` (read the member
pids, write a pid to move a process, the operation Cntr performs on its
injected tools).

:class:`TracingFS`, mounted at ``/sys/kernel/debug/tracing``, is the
ftrace-shaped control surface over the kernel's
:class:`repro.sim.trace.Tracer`: it lists the tracepoints, selects the ones
that record, shows or clears the event ring and switches collection on and
off.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fs.errors import FsError
from repro.fs.inode import Inode
from repro.kernel.cgroups import cpu_shares_from_weight
from repro.kernel.synthetic import DIR, FILE, Node, SyntheticFS
from repro.sim.sched import CPU_WEIGHT_MAX, CPU_WEIGHT_MIN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.writeback import BacklogDeviceInfo
    from repro.kernel.cgroups import Cgroup

#: Files generated inside every ``/sys/class/bdi/<dev>`` directory.
BDI_FILES = ("read_ahead_kb",)


class BdiSysFS(SyntheticFS):
    """The ``/sys/class/bdi`` directory, bound to the kernel's BDI registry.

    A device directory and its files belong to the bdi's name.
    """

    fs_type = "sysfs"
    writable = frozenset(BDI_FILES)

    def _bdi(self, device: str) -> "BacklogDeviceInfo":
        bdi = self.kernel.vm.bdis().get(device)
        if bdi is None:
            raise FsError.enoent(f"/sys/class/bdi/{device}")
        return bdi

    def child(self, node: Node, name: str) -> Node | None:
        if node.owner is None:
            return Node(DIR, name, "") if name in self.kernel.vm.bdis() else None
        if name in BDI_FILES:
            self._bdi(node.owner)          # ENOENT once the mount is gone
            return node.entry(FILE, name)
        return None

    def children(self, node: Node):
        if node.owner is None:
            return [(device, Node(DIR, device, "")) for device in self.kernel.vm.bdis()]
        return [(name, node.entry(FILE, name)) for name in BDI_FILES]

    def render(self, node: Node) -> bytes:
        # read_ahead_kb: the effective window (knob, or the filesystem's
        # default), rendered in KiB as Linux does.
        return f"{self._bdi(node.owner).read_ahead_bytes >> 10}\n".encode()

    def parse(self, node: Node, text: str) -> int:
        try:
            value = int(text.split()[0]) if text else 0
        except ValueError:
            raise FsError.einval(f"bdi.{node.name}: {text!r}") from None
        if value < 0:
            raise FsError.einval(f"bdi.{node.name} = {value}")
        return value

    def store(self, node: Node, value: int) -> None:
        self._bdi(node.owner).read_ahead_kb = value


# ---------------------------------------------------------------------------
# /sys/fs/cgroup — the writable synthetic cgroupfs
# ---------------------------------------------------------------------------
#: Files generated inside every cgroup directory.
CGROUP_FILES = ("cgroup.procs", "cpu.max", "cpu.pressure", "cpu.stat",
                "cpu.weight", "io.pressure", "io.stat",
                "memory.current", "memory.high", "memory.max",
                "memory.peak", "memory.pressure", "memory.stat")
#: The files a write is allowed to reach (everything else is read-only).
CGROUP_WRITABLE = ("cgroup.procs", "cpu.max", "cpu.weight",
                   "memory.high", "memory.max")
#: ``cpu.max`` bounds, matching the kernel's CFS bandwidth limits (usec).
CPU_QUOTA_MIN_US = 1_000
CPU_PERIOD_MIN_US = 1_000
CPU_PERIOD_MAX_US = 1_000_000


class CgroupFS(SyntheticFS):
    """The ``/sys/fs/cgroup`` mount, bound to the kernel's cgroup hierarchy.

    A cgroup's directory and files belong to its path; ``rmdir`` drops them
    with the cgroup, so a later cgroup of the same path gets new inodes.
    """

    fs_type = "cgroup2"
    dir_mode = 0o755
    writable = frozenset(CGROUP_WRITABLE)
    root_owner = "/"

    def _cgroup(self, path: str) -> "Cgroup":
        return self.kernel.cgroups.lookup(path)

    @staticmethod
    def _child_path(parent_path: str, name: str) -> str:
        return f"{parent_path.rstrip('/')}/{name}"

    # ------------------------------------------------------------- tree
    def child(self, node: Node, name: str) -> Node | None:
        cgroup = self._cgroup(node.owner)
        if name in CGROUP_FILES:
            return node.entry(FILE, name)
        if name in cgroup.children:
            return Node(DIR, self._child_path(node.owner, name), "")
        return None

    def children(self, node: Node):
        cgroup = self._cgroup(node.owner)
        return ([(name, node.entry(FILE, name)) for name in CGROUP_FILES]
                + [(name, Node(DIR, self._child_path(node.owner, name), ""))
                   for name in cgroup.children])

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int = 0,
              gid: int = 0) -> Inode:
        self._charge_metadata("mkdir")
        node = self.node_of(dir_ino)
        if node.kind != DIR:
            raise FsError.enotdir(name)
        parent = self._cgroup(node.owner)
        if "/" in name or not name or name in CGROUP_FILES:
            raise FsError.einval(name)
        if name in parent.children:
            raise FsError.eexist(name)
        child_path = self._child_path(node.owner, name)
        self.kernel.cgroups.create(child_path)
        return self._inode(Node(DIR, child_path, ""))

    def rmdir(self, dir_ino: int, name: str) -> None:
        self._charge_metadata("rmdir")
        node = self.node_of(dir_ino)
        if node.kind != DIR:
            raise FsError.enotdir(name)
        parent = self._cgroup(node.owner)
        if name not in parent.children:
            raise FsError.enoent(name)
        child_path = self._child_path(node.owner, name)
        # EBUSY while member processes or children remain, as in Linux.
        self.kernel.cgroups.remove(child_path)
        self._forget(child_path)

    # ------------------------------------------------------------- content
    def render(self, node: Node) -> bytes:
        cgroup = self._cgroup(node.owner)
        if node.name == "memory.current":
            return f"{cgroup.mem_cache_bytes}\n".encode()
        if node.name == "memory.peak":
            return f"{cgroup.stats_memory_peak}\n".encode()
        if node.name in ("memory.max", "memory.high"):
            limit = cgroup.limits.memory_limit_bytes if node.name == "memory.max" \
                else cgroup.limits.memory_high_bytes
            if limit is None or limit <= 0:
                return b"max\n"
            return f"{limit}\n".encode()
        if node.name == "memory.stat":
            return self.kernel.memcg.memory_stat_text(cgroup).encode()
        if node.name == "cpu.max":
            return cgroup.limits.cpu_max_text().encode()
        if node.name == "cpu.weight":
            return f"{cgroup.limits.cpu_weight()}\n".encode()
        if node.name == "cpu.stat":
            stats = cgroup.cpu_stats
            return (f"usage_usec {stats.usage_ns // 1_000}\n"
                    f"nr_periods {stats.nr_periods}\n"
                    f"nr_throttled {stats.nr_throttled}\n"
                    f"throttled_usec {stats.throttled_ns // 1_000}\n").encode()
        if node.name == "cgroup.procs":
            return "".join(f"{pid}\n" for pid in sorted(cgroup.procs)).encode()
        if node.name.endswith(".pressure"):
            resource = node.name.rsplit(".", 1)[0]
            now_ns = self.kernel.clock.now_ns
            return cgroup.psi.render(resource, now_ns).encode()
        if node.name == "io.stat":
            rows = [f"{dev} rbytes={s.rbytes} wbytes={s.wbytes}"
                    f" rios={s.rios} wios={s.wios}\n"
                    for dev, s in sorted(cgroup.io_stats.items())]
            return "".join(rows).encode()
        raise FsError.enoent(node.name)

    # ------------------------------------------------------------- writes
    def parse(self, node: Node, text: str) -> str:
        # Only the cgroup's existence is checked before the charge; store()
        # checks the value after it.
        self._cgroup(node.owner)
        return text

    def store(self, node: Node, text: str) -> None:
        cgroup = self._cgroup(node.owner)
        if node.name == "cgroup.procs":
            try:
                pid = int(text)
            except ValueError:
                raise FsError.einval(f"cgroup.procs: {text!r}") from None
            if pid not in self.kernel.processes:
                raise FsError.esrch(f"pid {pid}")
            self.kernel.cgroups.attach(pid, node.owner)
            return
        if node.name == "cpu.weight":
            try:
                weight = int(text)
            except ValueError:
                raise FsError.einval(f"cpu.weight: {text!r}") from None
            if not CPU_WEIGHT_MIN <= weight <= CPU_WEIGHT_MAX:
                raise FsError.einval(f"cpu.weight = {weight}")
            cgroup.limits.cpu_shares = cpu_shares_from_weight(weight)
            return
        if node.name == "cpu.max":
            # "$MAX $PERIOD": quota "max" or usec >= 1000; the period is
            # optional (keeping the current one) and bounded like CFS.
            fields = text.split()
            if not 1 <= len(fields) <= 2:
                raise FsError.einval(f"cpu.max: {text!r}")
            if fields[0] == "max":
                quota = None
            else:
                try:
                    quota = int(fields[0])
                except ValueError:
                    raise FsError.einval(f"cpu.max: {text!r}") from None
                if quota < CPU_QUOTA_MIN_US:
                    raise FsError.einval(f"cpu.max quota = {quota}")
            period = cgroup.limits.cpu_period_us
            if len(fields) == 2:
                try:
                    period = int(fields[1])
                except ValueError:
                    raise FsError.einval(f"cpu.max: {text!r}") from None
                if not CPU_PERIOD_MIN_US <= period <= CPU_PERIOD_MAX_US:
                    raise FsError.einval(f"cpu.max period = {period}")
            cgroup.limits.cpu_quota_us = quota
            cgroup.limits.cpu_period_us = period
            return
        # memory.max / memory.high: "max" (or 0) means unlimited, as on Linux.
        if text == "max":
            limit = None
        else:
            try:
                limit = int(text)
            except ValueError:
                raise FsError.einval(f"{node.name}: {text!r}") from None
            if limit < 0:
                raise FsError.einval(f"{node.name} = {limit}")
            if limit == 0:
                limit = None
        if node.name == "memory.max":
            cgroup.limits.memory_limit_bytes = limit
            if limit is not None and cgroup.mem_cache_bytes > limit:
                # Linux reclaims synchronously when the new limit sits below
                # the current usage instead of rejecting the write.
                self.kernel.memcg.enforce(cgroup)
        else:
            cgroup.limits.memory_high_bytes = limit


# ---------------------------------------------------------------------------
# /sys/kernel/debug/tracing — the synthetic ftrace control surface
# ---------------------------------------------------------------------------
#: Files generated inside the tracing directory.
TRACING_FILES = ("available_events", "set_event", "trace", "tracing_on")
#: The files a write is allowed to reach.
TRACING_WRITABLE = ("set_event", "trace", "tracing_on")


class TracingFS(SyntheticFS):
    """The ``/sys/kernel/debug/tracing`` mount, bound to the kernel tracer.

    A small ftrace-shaped control surface over :class:`repro.sim.trace.Tracer`:

    * ``available_events`` — every declared or observed tracepoint, sorted;
    * ``set_event`` — read the per-tracepoint filter; write ``name`` to
      enable one, ``!name`` to disable it, an empty write to clear all;
    * ``trace`` — the bounded event ring with a header carrying the entry
      and drop counts (``echo > trace`` clears it, as on Linux);
    * ``tracing_on`` — the global collection switch (``0`` / ``1``).
    """

    fs_type = "tracefs"
    writable = frozenset(TRACING_WRITABLE)

    def child(self, node: Node, name: str) -> Node | None:
        return node.entry(FILE, name) if name in TRACING_FILES else None

    def children(self, node: Node):
        return [(name, node.entry(FILE, name)) for name in TRACING_FILES]

    def render(self, node: Node) -> bytes:
        tracer = self.kernel.tracer
        if node.name == "available_events":
            return "".join(f"{name}\n"
                           for name in tracer.available_events()).encode()
        if node.name == "set_event":
            return "".join(f"{name}\n"
                           for name in sorted(tracer.event_filter)).encode()
        if node.name == "tracing_on":
            return b"1\n" if tracer.enabled else b"0\n"
        if node.name == "trace":
            events = list(tracer.events())
            lines = [f"# tracer: repro\n"
                     f"# entries: {len(events)} dropped: {tracer.dropped}\n"]
            for key, count in sorted(tracer.dropped_by_key.items()):
                lines.append(f"# dropped {key}: {count}\n")
            for ev in events:
                row = f"{ev.timestamp_ns} {ev.key} cost_ns={ev.cost_ns}"
                if ev.detail:
                    row += f" {ev.detail}"
                lines.append(row + "\n")
            return "".join(lines).encode()
        raise FsError.enoent(node.name)

    def store(self, node: Node, text: str) -> None:
        tracer = self.kernel.tracer
        if node.name == "tracing_on":
            if text not in ("0", "1"):
                raise FsError.einval(f"tracing_on: {text!r}")
            tracer.enabled = text == "1"
            return
        if node.name == "trace":
            # Any write clears the ring, matching `echo > trace`.
            tracer.clear()
            return
        # set_event: one directive per whitespace-separated token.
        tokens = text.split()
        if not tokens:
            tracer.clear_events()
            return
        for token in tokens:
            enable = not token.startswith("!")
            name = token.lstrip("!")
            try:
                tracer.set_event(name, enable=enable)
            except ValueError as exc:
                raise FsError.einval(str(exc)) from None

    def truncate(self, ino: int, size: int) -> None:
        super().truncate(ino, size)
        # `echo > trace` opens with O_TRUNC, which clears the ring on Linux.
        if self.node_of(ino).name == "trace":
            self.kernel.tracer.clear()
