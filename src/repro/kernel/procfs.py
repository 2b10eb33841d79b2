"""The synthetic ``/proc`` filesystem.

Cntr's container-context gathering (design step #1) works exclusively by
reading ``/proc``: the namespaces links, environment, capability sets, cgroup
membership, uid/gid maps and mount table of the container's init process.
This module provides a procfs instance bound to a PID namespace, exactly like
Linux, so the same information is available to the reproduction of that step
and so that ``/proc`` can be bind-mounted from the application container into
Cntr's nested namespace (design step #3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fs.errors import FsError
from repro.fs.writeback import VmSysctl
from repro.kernel.namespaces import NamespaceKind, PidNamespace
from repro.kernel.synthetic import DIR, FILE, LINK, Node, SyntheticFS
from repro.sim.psi import PSI_RESOURCES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: Files generated inside every ``/proc/<pid>`` directory.
PID_FILES = ("status", "environ", "cmdline", "cgroup", "mounts", "mountinfo",
             "limits", "uid_map", "gid_map", "stat", "comm")
#: Symlinks generated inside every ``/proc/<pid>`` directory.
PID_LINKS = ("root", "cwd", "exe")
#: Entries of ``/proc/<pid>/ns``.
NS_LINKS = tuple(kind.value for kind in NamespaceKind)
#: Top-level non-pid entries.
TOP_FILES = ("mounts", "filesystems", "uptime", "version", "cpuinfo", "meminfo",
             "vmstat")
#: Entries of ``/proc/pressure`` (the PSI files).
PRESSURE_FILES = PSI_RESOURCES
#: Writable ``/proc/sys/vm`` files: the writeback knobs plus drop_caches.
SYS_VM_FILES = VmSysctl.KNOBS + ("drop_caches",)
#: The path of the ``/proc/sys/vm`` files below ``/proc``.
SYS_VM = "sys/vm/"

#: The fixed directories, by path below ``/proc`` (``TOP_DIRS``, beside the
#: pid directories) and below ``/proc/<pid>`` (``PID_DIRS``): each maps an
#: entry name to its kind, in listing order.
TOP_DIRS = {
    "": {**dict.fromkeys(TOP_FILES, FILE), "sys": DIR, "pressure": DIR},
    "sys": {"vm": DIR},
    "sys/vm": dict.fromkeys(SYS_VM_FILES, FILE),
    "pressure": dict.fromkeys(PRESSURE_FILES, FILE),
}
PID_DIRS = {
    "": {**dict.fromkeys(PID_FILES, FILE), **dict.fromkeys(PID_LINKS, LINK),
         "ns": DIR, "attr": DIR},
    "ns": dict.fromkeys(NS_LINKS, LINK),
    "attr": {"current": FILE, "exec": FILE},
}


class ProcFS(SyntheticFS):
    """A procfs instance bound to a PID namespace.

    Nodes below ``/proc/<pid>`` belong to the process's global pid, the rest
    to None; only the ``/proc/sys/vm`` files are writable.
    """

    fs_type = "proc"
    writable = frozenset(SYS_VM + name for name in SYS_VM_FILES)

    def __init__(self, name: str, kernel: "Kernel", pid_ns: PidNamespace) -> None:
        super().__init__(name, kernel)
        self.pid_ns = pid_ns

    def _resolve_pid(self, name: str) -> int | None:
        """Translate a directory name (a vpid in this namespace) to a global pid."""
        if not name.isdigit():
            return None
        vpid = int(name)
        for global_pid, mapped in self.pid_ns.vpid_map.items():
            if mapped == vpid and global_pid in self.kernel.processes:
                return global_pid
        return None

    # ------------------------------------------------------------- tree
    def child(self, node: Node, name: str) -> Node | None:
        layout = TOP_DIRS if node.owner is None else PID_DIRS
        kind = layout[node.name].get(name)
        if kind is not None:
            return node.entry(kind, name)
        if node.owner is None and not node.name:
            pid = self._resolve_pid(name)
            if pid is not None:
                return Node(DIR, pid, "")
        return None

    def children(self, node: Node):
        layout = TOP_DIRS if node.owner is None else PID_DIRS
        for name, kind in layout[node.name].items():
            yield name, node.entry(kind, name)
        if node.owner is None and not node.name:
            for global_pid in self.pid_ns.member_pids():
                if global_pid in self.kernel.processes:
                    yield str(self.pid_ns.vpid_of(global_pid)), Node(DIR, global_pid, "")

    # ------------------------------------------------------------- writes
    def parse(self, node: Node, text: str) -> int:
        try:
            return int(text.split()[0]) if text else 0
        except ValueError:
            raise FsError.einval(f"vm.{node.name[len(SYS_VM):]}: {text!r}") from None

    def store(self, node: Node, value: int) -> None:
        knob = node.name[len(SYS_VM):]
        if knob == "drop_caches":
            self.kernel.vm.drop_caches(value)
        else:
            self.kernel.vm.set(knob, value)

    # ------------------------------------------------------------- content
    def _proc(self, pid: int):
        proc = self.kernel.processes.get(pid)
        if proc is None:
            raise FsError.esrch(f"pid {pid}")
        return proc

    def render(self, node: Node) -> bytes:
        if node.owner is None:
            return self._render_top(node.name)
        proc = self._proc(node.owner)
        name = node.name
        if name.startswith("ns/"):
            kind = NamespaceKind(name.split("/", 1)[1])
            return proc.namespaces[kind].proc_link().encode()
        if name == "root":
            return b"/"
        if name == "cwd":
            return proc.cwd_path.encode()
        if name == "exe":
            return (proc.argv[0] if proc.argv else "").encode()
        if name == "environ":
            return b"\x00".join(f"{k}={v}".encode() for k, v in proc.env.items()) + b"\x00"
        if name == "cmdline":
            return b"\x00".join(a.encode() for a in proc.argv) + b"\x00"
        if name == "comm":
            return (proc.comm + "\n").encode()
        if name == "cgroup":
            return (self.kernel.cgroups.proc_cgroup_line(proc.pid) + "\n").encode()
        if name in ("mounts", "mountinfo"):
            rows = proc.mnt_ns.mount_table()
            lines = [f"{r['source']} {r['mountpoint']} {r['fs_type']} {r['options']} 0 0"
                     for r in rows]
            return ("\n".join(lines) + "\n").encode()
        if name == "status":
            caps = proc.caps.to_proc_status()
            lines = [
                f"Name:\t{proc.comm}",
                "State:\tS (sleeping)" if proc.state == "running" else "State:\tZ (zombie)",
                f"Pid:\t{proc.vpid()}",
                f"PPid:\t{proc.ppid}",
                f"Uid:\t{proc.uid}\t{proc.uid}\t{proc.uid}\t{proc.uid}",
                f"Gid:\t{proc.gid}\t{proc.gid}\t{proc.gid}\t{proc.gid}",
                f"Groups:\t{' '.join(str(g) for g in sorted(proc.groups))}",
                f"NStgid:\t{proc.vpid()}",
            ] + [f"{k}:\t{v}" for k, v in caps.items()] + [
                "Seccomp:\t0",
            ]
            return ("\n".join(lines) + "\n").encode()
        if name == "limits":
            fsize = proc.rlimits.fsize_bytes
            fsize_text = "unlimited" if fsize is None else str(fsize)
            lines = [
                "Limit                     Soft Limit           Hard Limit           Units",
                f"Max file size             {fsize_text:<20} {fsize_text:<20} bytes",
                f"Max open files            {proc.rlimits.nofile:<20} {proc.rlimits.nofile:<20} files",
            ]
            return ("\n".join(lines) + "\n").encode()
        if name == "uid_map":
            user_ns = proc.namespaces[NamespaceKind.USER]
            rows = getattr(user_ns, "uid_map", [(0, 0, 4294967295)])
            return ("".join(f"{a:>10} {b:>10} {c:>10}\n" for a, b, c in rows)).encode()
        if name == "gid_map":
            user_ns = proc.namespaces[NamespaceKind.USER]
            rows = getattr(user_ns, "gid_map", [(0, 0, 4294967295)])
            return ("".join(f"{a:>10} {b:>10} {c:>10}\n" for a, b, c in rows)).encode()
        if name == "stat":
            return (f"{proc.vpid()} ({proc.comm}) S {proc.ppid} 0 0 0 -1 0 0\n").encode()
        if name == "attr/current":
            return (proc.lsm_profile.proc_attr_current + "\n").encode()
        if name == "attr/exec":
            return b"\n"
        raise FsError.enoent(name)

    def _render_top(self, name: str) -> bytes:
        if name.startswith(SYS_VM):
            knob = name[len(SYS_VM):]
            if knob == "drop_caches":
                return f"{self.kernel.vm.drop_caches_last}\n".encode()
            return f"{self.kernel.vm.get(knob)}\n".encode()
        if name == "filesystems":
            return b"nodev\tproc\nnodev\ttmpfs\nnodev\tfuse\n\text4\n"
        if name == "uptime":
            seconds = self.clock.now_s
            return f"{seconds:.2f} {seconds:.2f}\n".encode()
        if name == "version":
            return b"Linux version 4.14.13-repro (simulated) #1 SMP\n"
        if name == "cpuinfo":
            block = "\n".join(
                f"processor\t: {i}\nmodel name\t: Intel(R) Xeon(R) CPU E5-2686 v4 @ 2.30GHz"
                for i in range(4))
            return (block + "\n").encode()
        if name == "meminfo":
            # Rendered by VmSysctl from the same MemInfo the ratio knobs
            # resolve against, so the two surfaces can never disagree.
            return self.kernel.vm.meminfo_text().encode()
        if name == "vmstat":
            return self.kernel.vm.vmstat_text().encode()
        if name.startswith("pressure/"):
            resource = name.split("/", 1)[1]
            now_ns = self.kernel.clock.now_ns
            return self.kernel.psi.system.render(resource, now_ns).encode()
        if name == "mounts":
            return b"rootfs / rootfs rw 0 0\n"
        raise FsError.enoent(name)
