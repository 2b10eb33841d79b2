"""The cgroup v2 memory controller: per-cgroup page-cache budgets.

Cntr moves the processes it injects into the container's cgroup precisely so
that the debugging tools are subject to the container's resource limits
(design §3.2.3).  ``MemcgController`` gives each cgroup its own share of the
page cache that the kernel-wide ``MemAvailable`` budget
(:meth:`repro.fs.writeback.VmSysctl.balance`) governs as a whole, so a greedy
container's cache cannot starve every other filesystem.  It has three
mechanisms:

* **hierarchical charge/uncharge** — every page entering a registered page
  cache (and every dirty byte entering a registered writeback engine) is
  charged to the cgroup of the process performing the syscall, walking up to
  the root so ``memory.current`` of an ancestor always covers its subtree.
  Ownership is per inode, first-toucher: the cgroup that first instantiates
  an inode's pages owns all of them until they leave the cache (the model's
  page-granular stand-in for Linux's per-page ``page->memcg``).  One ledger
  holds both kinds of charge, keyed by page cache or by engine.
* **per-cgroup LRU reclaim** — growth past the tightest ``memory.max`` along
  the charge path runs :func:`repro.fs.writeback.reclaim_lru`, the loop of
  the kernel-wide reclaim, restricted to the inodes *owned by that cgroup's
  subtree*.  The kernel-wide :meth:`repro.fs.writeback.VmSysctl.balance`
  runs *after* the memcg pass, enforcing the global budget on whatever the
  per-cgroup limits let through.
* **write throttling** — a writer dirtying data while ``memory.current`` sits
  above ``memory.high`` is stalled for a deterministic
  ``bytes * throttle_ns_per_byte`` of virtual time (the shape of Linux's
  ``mem_cgroup_handle_over_high`` penalty), charged to the
  :class:`~repro.sim.clock.VirtualClock` and surfaced in ``memory.stat`` and
  :class:`~repro.fs.writeback.WritebackStats`.

With no limit set anywhere (the default) the controller is pure bookkeeping:
it never advances the clock and never reclaims, so the system is
observationally identical to one without it — the property
``tests/test_memcg.py`` locks down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.fs.writeback import reclaim_lru
from repro.kernel.cgroups import Cgroup, CgroupHierarchy, CgroupIoStat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.filesystem import Filesystem
    from repro.fs.pagecache import PageCache
    from repro.fs.writeback import WritebackEngine
    from repro.sim.clock import VirtualClock
    from repro.sim.psi import PsiGroup, PsiRegistry
    from repro.sim.trace import Tracer

#: Default writer-stall price while over ``memory.high``: 2 ns per dirtied
#: byte (~500 MB/s of modelled throttle drain).
MEMCG_THROTTLE_NS_PER_BYTE = 2


def _limit_of(value: int | None) -> int | None:
    """Normalise a limit knob: ``None`` and ``0`` both mean unlimited."""
    if value is None or value <= 0:
        return None
    return value


class MemcgController:
    """Charge attribution, per-cgroup reclaim and write throttling.

    One instance lives on the :class:`~repro.kernel.kernel.Kernel`
    (``kernel.memcg``); :class:`~repro.fs.writeback.VmSysctl` forwards
    filesystem registration so every mounted page cache and writeback engine
    reports its growth here, exactly as they already report to the
    kernel-wide knobs.
    """

    def __init__(self, cgroups: CgroupHierarchy, clock: "VirtualClock") -> None:
        self.cgroups = cgroups
        self.clock = clock
        self.throttle_ns_per_byte = MEMCG_THROTTLE_NS_PER_BYTE
        #: Pid of the process whose syscall is executing; set by
        #: ``Syscalls._charge`` (the model's ``current``).  Charges are
        #: attributed to this process's cgroup.
        self._current_pid = 0
        self._filesystems: list["Filesystem"] = []
        #: The charge ledger.  Each page cache (resident bytes) and each
        #: engine (dirty bytes) is one key: key -> {ino -> owning cgroup} and
        #: key -> {ino -> charged bytes}, always over the same inodes.  Keyed
        #: by the objects themselves (identity hash), not by ``id()``: a
        #: kernel snapshot pickles the whole object graph and raw ids do not
        #: survive the round trip, while object keys are rebuilt with it.
        self._owner: dict[object, dict[int, Cgroup]] = {}
        self._charged: dict[object, dict[int, int]] = {}
        #: Cgroups whose resident charges grew since the last balance pass
        #: and that have a limit somewhere on their charge path
        #: (insertion-ordered).
        self._pending: dict[Cgroup, None] = {}
        self._balancing = False
        #: Observability hooks, installed by the kernel: the PSI registry
        #: (memory stalls: ``memory.high`` throttling as ``some``, reclaim
        #: passes as ``some``+``full``) and the tracepoint registry
        #: (``memcg.reclaim``).  Both optional; pure bookkeeping when unset.
        self.psi: "PsiRegistry | None" = None
        self.tracer: "Tracer | None" = None

    # ------------------------------------------------------------ attribution
    def current_cgroup(self) -> Cgroup:
        """The cgroup of the process whose syscall is executing."""
        return self.cgroups.cgroup_of(self._current_pid)

    @staticmethod
    def psi_chain(cgroup: Cgroup) -> "list[PsiGroup]":
        """The PSI groups a stall in ``cgroup`` is attributed to (leaf→root)."""
        groups = []
        node = cgroup
        while node is not None:
            groups.append(node.psi)
            node = node.parent
        return groups

    # ------------------------------------------------------------ registration
    def register_fs(self, fs: "Filesystem") -> None:
        """Bring a mounted filesystem's cache and engine under the controller."""
        if fs in self._filesystems:
            return
        self._filesystems.append(fs)
        cache = getattr(fs, "page_cache", None)
        if cache is not None:
            cache.memcg = self
        engine = getattr(fs, "writeback", None)
        if engine is not None:
            engine.memcg = self
            if engine.bdi is not None:
                # Device reads report through the BDI so ``io.stat`` rbytes
                # are attributed to the faulting process's cgroup.
                engine.bdi.memcg = self

    def unregister_fs(self, fs: "Filesystem") -> None:
        """Detach a filesystem (last umount), releasing its charges."""
        if fs not in self._filesystems:
            return
        self._filesystems.remove(fs)
        cache = getattr(fs, "page_cache", None)
        if cache is not None and cache.memcg is self:
            self.release(cache)
            cache.memcg = None
        engine = getattr(fs, "writeback", None)
        if engine is not None and engine.memcg is self:
            self.release(engine, dirty=True)
            engine.memcg = None
            if engine.bdi is not None and engine.bdi.memcg is self:
                engine.bdi.memcg = None

    def set_current(self, pid: int) -> None:
        """Record the process whose syscall is executing (charge attribution)."""
        self._current_pid = pid

    # ------------------------------------------------------------ charging
    def _walk(self, cgroup: Cgroup, delta: int, dirty: bool) -> bool:
        """Apply a charge delta from ``cgroup`` up to the root.

        Returns True when some node on the path carries a memory limit or a
        high ceiling — the only case where an enforcement pass can have any
        work to do.
        """
        limited = False
        node = cgroup
        while node is not None:
            if dirty:
                node.mem_dirty_bytes += delta
            else:
                node.mem_cache_bytes += delta
                if node.mem_cache_bytes > node.stats_memory_peak:
                    node.stats_memory_peak = node.mem_cache_bytes
            limits = node.limits
            # Inlined _limit_of (hot path): None and <= 0 mean unlimited.
            lm = limits.memory_limit_bytes
            hm = limits.memory_high_bytes
            if (lm is not None and lm > 0) or (hm is not None and hm > 0):
                limited = True
            node = node.parent
        return limited

    def charge(self, key: object, ino: int, nbytes: int, dirty: bool = False) -> Cgroup:
        """Charge ``nbytes`` of ``ino`` under ``key`` to the inode's owner.

        ``key`` is a page cache (resident bytes, ``memory.current``) or, with
        ``dirty``, a writeback engine (``file_dirty``).  The current cgroup
        becomes the owner of an inode it is the first to touch.  Returns the
        owner.
        """
        owners = self._owner.get(key)
        if owners is None:
            owners = self._owner[key] = {}
            self._charged[key] = {}
        owner = owners.get(ino)
        if owner is None:
            owner = owners[ino] = self.current_cgroup()
        charged = self._charged[key]
        charged[ino] = charged.get(ino, 0) + nbytes
        if self._walk(owner, nbytes, dirty) and not dirty:
            self._pending[owner] = None
        return owner

    def uncharge(self, key: object, ino: int, nbytes: int, dirty: bool = False) -> None:
        """Release up to ``nbytes`` of ``ino``'s charge under ``key``.  Bytes
        that predate the memcg wiring were never charged and are skipped."""
        owners = self._owner.get(key)
        owner = owners.get(ino) if owners else None
        if owner is None:
            return
        charged = self._charged[key]
        have = charged[ino]
        take = min(have, nbytes)
        if take <= 0:
            return
        if have > take:
            charged[ino] = have - take
        else:
            del charged[ino]
            del owners[ino]
        self._walk(owner, -take, dirty)

    def release(self, key: object, dirty: bool = False) -> None:
        """Uncharge everything held under ``key`` at once (a page cache
        invalidated whole, or a filesystem unregistered)."""
        owners = self._owner.pop(key, {})
        for ino, nbytes in self._charged.pop(key, {}).items():
            self._walk(owners[ino], -nbytes, dirty)

    # ------------------------------------------------------------ dirty + stall
    def note_dirty(self, engine: "WritebackEngine", ino: int, nbytes: int) -> None:
        """Account freshly dirtied bytes, stalling the writer while the owning
        cgroup sits above ``memory.high`` (balance_dirty_pages semantics)."""
        if nbytes <= 0:
            return
        owner = self.charge(engine, ino, nbytes, dirty=True)
        over = self._over_high(owner)
        if over is not None:
            stall = nbytes * self.throttle_ns_per_byte
            if stall > 0:
                # The breach is counted on the node whose ceiling was
                # exceeded (as reclaim stats are counted on the enforcing
                # node), which is the writer's own cgroup unless an
                # ancestor's high is the one that bit.
                over.memcg_stats.throttle_events += 1
                over.memcg_stats.throttle_stall_ns += stall
                engine.stats.throttle_stall_ns += stall
                self.clock.advance(stall)
                if self.psi is not None:
                    # The stalled writer is the victim: memory pressure on
                    # its own chain, delta identical to the
                    # ``throttle_stall_ns`` increment above.
                    self.psi.account("memory", stall,
                                     groups=self.psi_chain(owner))

    def _over_high(self, cgroup: Cgroup) -> Cgroup | None:
        """The nearest ancestor (or ``cgroup`` itself) above its high ceiling."""
        node = cgroup
        while node is not None:
            high = _limit_of(node.limits.memory_high_bytes)
            if high is not None and node.mem_cache_bytes > high:
                return node
            node = node.parent
        return None

    def dirty_flushed(self, engine: "WritebackEngine",
                      items: list[tuple[int, int]]) -> None:
        """Pending bytes were written back: uncharge them."""
        for ino, nbytes in items:
            self.uncharge(engine, ino, nbytes, dirty=True)

    # ------------------------------------------------------------ enforcement
    def balance(self) -> None:
        """Enforce ``memory.max`` for every cgroup whose charges grew.

        Called by every registered page cache after growth (before the
        kernel-wide :meth:`VmSysctl.balance`, so the per-container limits are
        applied first and the global budget sees the result).  A no-op unless
        some charge path carries a limit — the default configuration never
        enters the loop.
        """
        if self._balancing or not self._pending:
            return
        self._balancing = True
        try:
            while self._pending:
                cgroup = next(iter(self._pending))
                del self._pending[cgroup]
                self._enforce(cgroup)
        finally:
            self._balancing = False

    def enforce(self, cgroup: Cgroup) -> None:
        """Synchronously reclaim ``cgroup``'s subtree back under its limits
        (the ``memory.max``-written-below-usage path of the cgroupfs)."""
        if self._balancing:
            return
        self._balancing = True
        try:
            self._enforce(cgroup)
        finally:
            self._balancing = False

    def _enforce(self, cgroup: Cgroup) -> None:
        # Tightest-limit-wins falls out of walking the whole charge path:
        # every over-limit ancestor reclaims its own subtree down to its own
        # limit, so the strictest one has the final word.
        node = cgroup
        while node is not None:
            limit = _limit_of(node.limits.memory_limit_bytes)
            if limit is not None and node.mem_cache_bytes > limit:
                self._reclaim(node, limit)
            node = node.parent

    def _owned_pred(self, cache: "PageCache", node: Cgroup) -> Callable[[int], bool]:
        """An O(1)-per-extent membership test for "``ino`` is owned by
        ``node``'s subtree" in the given cache.

        The owned set is materialised once (one ancestor walk per owned
        inode, not per live extent): ownership cannot grow during a reclaim
        pass — no charges happen inside it — and inodes that become fully
        evicted simply stop having live extents, so a stale member is
        harmless.
        """
        owned = set()
        for ino, owner in self._owner.get(cache, {}).items():
            walk = owner
            while walk is not None:
                if walk is node:
                    owned.add(ino)
                    break
                walk = walk.parent
        return owned.__contains__

    def _reclaim(self, node: Cgroup, limit: int) -> None:
        """Evict the LRU-oldest pages owned by ``node``'s subtree until its
        ``memory.current`` fits ``limit`` (or nothing owned remains)."""
        t0 = self.clock.now_ns
        stats = node.memcg_stats
        filters = {}
        for fs in self._filesystems:
            cache = getattr(fs, "page_cache", None)
            if cache is not None:
                filters[cache] = self._owned_pred(cache, node)
        freed = reclaim_lru(self._filesystems,
                            lambda: node.mem_cache_bytes - limit, stats, filters)
        delta = self.clock.now_ns - t0
        stats.reclaim_cost_ns += delta
        if delta > 0:
            if self.psi is not None:
                # Direct reclaim stops the charging task dead: some *and*
                # full memory pressure on the enforcing cgroup's chain.
                self.psi.account("memory", delta, full=True,
                                 groups=self.psi_chain(node))
            tracer = self.tracer
            if tracer is not None and tracer.active:
                tracer.emit(self.clock.now_ns, "memcg.reclaim", cost_ns=delta,
                            cgroup=node.path, bytes=freed)

    # ------------------------------------------------------------ block I/O
    def io_read(self, device: str, nbytes: int) -> None:
        """A device read on ``device``: charge ``io.stat`` rbytes/rios to the
        current process's cgroup chain (zero virtual cost — the BDI itself
        charges the transfer time)."""
        if nbytes <= 0:
            return
        node = self.current_cgroup()
        while node is not None:
            row = node.io_stats.get(device)
            if row is None:
                row = node.io_stats[device] = CgroupIoStat()
            row.rbytes += nbytes
            row.rios += 1
            node = node.parent

    def io_wrote(self, engine: "WritebackEngine", device: str,
                 items: list[tuple[int, int]]) -> None:
        """Writeback hit the device: charge ``io.stat`` wbytes/wios per flushed
        inode to the *dirtying* cgroup (cgroup-writeback attribution), falling
        back to the current cgroup for bytes that predate the memcg wiring."""
        owners = self._owner.get(engine, {})
        fallback = None
        for ino, nbytes in items:
            if nbytes <= 0:
                continue
            owner = owners.get(ino)
            if owner is None:
                if fallback is None:
                    fallback = self.current_cgroup()
                owner = fallback
            node = owner
            while node is not None:
                row = node.io_stats.get(device)
                if row is None:
                    row = node.io_stats[device] = CgroupIoStat()
                row.wbytes += nbytes
                row.wios += 1
                node = node.parent

    def total_pages_reclaimed(self) -> int:
        """Pages reclaimed by *per-cgroup* enforcement across the hierarchy
        (``/proc/vmstat`` ``pgsteal_memcg``); the root subtree sum would
        double-count, so walk every node."""
        total = 0
        stack = [self.cgroups.root]
        while stack:
            node = stack.pop()
            total += node.memcg_stats.pages_reclaimed
            stack.extend(node.children.values())
        return total

    # ------------------------------------------------------------ rendering
    def memory_stat_text(self, cgroup: Cgroup) -> str:
        """Render the cgroup's ``memory.stat`` file."""
        stats = cgroup.memcg_stats
        rows = [
            ("file", cgroup.mem_cache_bytes),
            ("file_dirty", cgroup.mem_dirty_bytes),
            ("reclaims", stats.reclaims),
            ("pages_dropped", stats.pages_dropped),
            ("pages_flushed", stats.pages_flushed),
            ("bytes_reclaimed", stats.bytes_reclaimed),
            ("reclaim_cost_ns", stats.reclaim_cost_ns),
            ("throttle_events", stats.throttle_events),
            ("throttle_stall_ns", stats.throttle_stall_ns),
        ]
        return "".join(f"{key} {value}\n" for key, value in rows)
