"""Writeback and the memory model it runs in.

:class:`WritebackEngine` is the writeback mechanism of every filesystem with a
backing store (ext4 and the FUSE client; tmpfs has none).  It does three
things:

* **dirty accounting** — per-inode pending byte counters (what has been
  written but whose writeback cost has not been charged yet),
* **flush thresholds** — the ``vm.dirty_background_bytes`` /
  ``vm.dirty_bytes`` / ``vm.dirty_expire_centisecs`` policy deciding *when*
  the simulated flusher threads run,
* **writeback cost charging** — the engine is the only component that decides
  to flush; the *price* of a flush stays filesystem-specific and is paid in
  the ``flush_fn`` callback each filesystem provides (FUSE protocol costs for
  the client, device writes for ext4).

Each filesystem picks default tunables for its own flush points: the FUSE
client flushes when total pending crosses ``CostModel.writeback_batch_bytes``
and ext4 when it crosses 256 MiB.  The pinned benchmark figures depend on
exactly these points.

Tunables are exposed kernel-wide through ``/proc/sys/vm/*`` (see
:class:`VmSysctl` and :mod:`repro.kernel.procfs`): writing a value applies it
to every registered engine, the way Linux's global writeback control applies
to all mounted filesystems.  A value of ``0`` disables that trigger.

The memory model the engines run in lives here too:

* :class:`MemInfo` — the simulated kernel's modelled memory size, rendered as
  ``/proc/meminfo`` and the base against which the ``vm.dirty_ratio`` /
  ``vm.dirty_background_ratio`` knobs resolve to byte thresholds.  As in
  Linux, the ``*_bytes`` knobs win whenever they are nonzero.
* :class:`BacklogDeviceInfo` (BDI) — per-backing-device writeback state.
  Each engine flushes *through* its device's BDI, which adds the cost of the
  device's modelled write bandwidth to the per-fs ``flush_fn`` price.  The
  default bandwidth of ``0`` means "unshaped": no cost is added.
* ``/proc/sys/vm/drop_caches`` — a writable procfs file (1 = page cache,
  2 = dentries/inodes, 3 = both) applied to every registered filesystem.
* **budget** — with ``MemInfo.reclaim_enabled`` the registered page caches
  collectively draw from one budget,
  ``total_bytes − reserved_bytes − Dirty`` (exactly the rendered
  ``MemAvailable``), so ``MemFree`` can never go negative.
* **LRU reclaim** — :func:`reclaim_lru` evicts the oldest extents across
  the registered filesystems (their caches share one
  :class:`repro.fs.pagecache.SeqCounter`), dropping clean pages and flushing
  dirty ones through the owning :class:`WritebackEngine` first
  (``WB_REASON_RECLAIM``), the kernel's shrink_page_list order.
  :meth:`VmSysctl.balance` runs it against the kernel-wide budget and
  :class:`repro.kernel.memcg.MemcgController` against a cgroup's
  ``memory.max``, restricted to the inodes that cgroup owns.
* **dcache pressure** — each reclaim pass accumulates
  ``vm.vfs_cache_pressure`` points of debt; every 100 points shrinks one
  registered filesystem's dentry cache (round-robin), so ``0`` never
  reclaims dentries and ``200`` shrinks twice per pass.
* **periodic flusher** — ``vm.dirty_writeback_centisecs`` arms a virtual
  clock timer per engine (``kupdate``): every period the engine writes back
  dirty data older than ``dirty_expire_centisecs`` (or the period itself
  when expiry is disabled) with *no write activity required*.  ``0`` (the
  default) disables the wakeup, so flushing is driven by writes alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, NamedTuple

from repro.fs.errors import FsError
from repro.fs.pagecache import SeqCounter
from repro.sim.clock import VirtualClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fs.filesystem import Filesystem
    from repro.sim.psi import PsiRegistry
    from repro.sim.trace import Tracer

#: Flush reasons, in the order the simulated flusher evaluates them.
WB_REASON_EXPIRED = "expired"          # dirty data older than dirty_expire_centisecs
WB_REASON_DIRTY_LIMIT = "dirty_limit"  # total pending crossed vm.dirty_bytes
WB_REASON_BACKGROUND = "background"    # total pending crossed vm.dirty_background_bytes
WB_REASON_SYNC = "sync"                # explicit flush (sync(2), drop_caches, release)
WB_REASON_FSYNC = "fsync"              # fsync(2)/fdatasync(2) on one inode
WB_REASON_PERIODIC = "periodic"        # vm.dirty_writeback_centisecs timer wakeup
WB_REASON_RECLAIM = "reclaim"          # memory pressure: flush before dropping

#: Centisecond, in virtual nanoseconds.
CENTISEC_NS = 10_000_000

#: ``drop_caches`` mode bits, as in Linux's Documentation/sysctl/vm.txt.
DROP_PAGECACHE = 1
DROP_SLAB = 2          # dentries and inodes


@dataclass
class MemInfo:
    """The simulated kernel's modelled memory size (``/proc/meminfo``).

    ``total_bytes`` is the base against which the ``vm.dirty_ratio`` /
    ``vm.dirty_background_ratio`` knobs resolve; ``reserved_bytes`` stands in
    for the kernel text plus anonymous pages, so ``MemFree`` has a plausible
    shape.  The object is shared by reference between :class:`VmSysctl` and
    every registered engine — mutating ``total_bytes`` retunes ratio-driven
    thresholds and the rendered ``/proc/meminfo`` at once, so the two can
    never disagree.
    """

    #: Defaults chosen to reproduce the MemTotal/MemFree lines the static
    #: /proc/meminfo reported before the model existed (16384000/12000000 kB).
    total_bytes: int = 16_384_000 << 10
    reserved_bytes: int = 4_384_000 << 10
    #: Couple page-cache capacity to this memory model: when True, growth
    #: beyond the cache budget (``total − reserved − Dirty``) triggers LRU
    #: reclaim across every registered filesystem (see
    #: :meth:`VmSysctl.balance`).  Off by default — the unbounded budget is
    #: the historical behaviour every committed benchmark figure pins.
    reclaim_enabled: bool = False


class ResolvedVmLimits(NamedTuple):
    """One coherent snapshot of an engine's effective flush thresholds."""

    dirty_background_bytes: int
    dirty_bytes: int
    dirty_expire_centisecs: int
    dirty_writeback_centisecs: int = 0


@dataclass
class VmTunables:
    """The ``vm.dirty_*`` knobs driving one writeback engine.

    All knobs follow the same convention: ``0`` disables the trigger.  Each
    filesystem picks defaults that reproduce its historical flush points;
    :class:`VmSysctl` overrides them kernel-wide when an experiment writes to
    ``/proc/sys/vm/*``.  The ratio knobs resolve against the modelled memory
    size; the ``*_bytes`` knobs win whenever they are nonzero, as in Linux.
    """

    #: Pending bytes at which the background flusher threads kick in and
    #: write everything back (Linux starts writing *some* data back here; the
    #: simulated flushers always catch up fully, matching the seed).
    dirty_background_bytes: int = 0
    #: Hard limit: a writer crossing it blocks and writes back synchronously.
    dirty_bytes: int = 0
    #: Dirty data older than this (virtual centiseconds) is written back by
    #: the expiry check (piggybacked on write activity) and by the periodic
    #: flusher wakeup.
    dirty_expire_centisecs: int = 0
    #: Period (virtual centiseconds) of the kupdate-style flusher wakeup that
    #: expires aged dirty data *independent of write activity* (a virtual
    #: clock timer; see :meth:`WritebackEngine.retune`).  0 disables it.
    dirty_writeback_centisecs: int = 0
    #: Percentage of modelled memory acting as the hard limit when
    #: ``dirty_bytes`` is 0.
    dirty_ratio: int = 0
    #: Percentage of modelled memory acting as the background threshold when
    #: ``dirty_background_bytes`` is 0.
    dirty_background_ratio: int = 0

    def resolve(self, mem_total_bytes: int) -> ResolvedVmLimits:
        """Resolve ratios to byte thresholds against the modelled memory.

        This is the *single* resolution point for every reader of the knobs
        (the flusher threads, ``/proc/meminfo``, tests): bytes knobs win when
        nonzero, ratios apply against ``mem_total_bytes`` otherwise.
        """
        background = self.dirty_background_bytes
        if background == 0 and self.dirty_background_ratio > 0 and mem_total_bytes > 0:
            background = mem_total_bytes * self.dirty_background_ratio // 100
        dirty = self.dirty_bytes
        if dirty == 0 and self.dirty_ratio > 0 and mem_total_bytes > 0:
            dirty = mem_total_bytes * self.dirty_ratio // 100
        return ResolvedVmLimits(dirty_background_bytes=background,
                                dirty_bytes=dirty,
                                dirty_expire_centisecs=self.dirty_expire_centisecs,
                                dirty_writeback_centisecs=self.dirty_writeback_centisecs)

    def as_dict(self) -> dict[str, int]:
        """The knobs as a plain dict (reports, benchmarks)."""
        return {
            "dirty_background_bytes": self.dirty_background_bytes,
            "dirty_bytes": self.dirty_bytes,
            "dirty_expire_centisecs": self.dirty_expire_centisecs,
            "dirty_writeback_centisecs": self.dirty_writeback_centisecs,
            "dirty_ratio": self.dirty_ratio,
            "dirty_background_ratio": self.dirty_background_ratio,
        }


@dataclass
class BdiStats:
    """Bandwidth-shaping accounting for one backing device."""

    shaped_flushes: int = 0          # flushes that paid a bandwidth cost
    shaped_bytes: int = 0            # bytes pushed through the shaper
    busy_ns: int = 0                 # virtual time spent in the write shaper
    shaped_reads: int = 0            # read fetches that paid a bandwidth cost
    shaped_read_bytes: int = 0       # bytes pulled through the read shaper
    read_busy_ns: int = 0            # virtual time spent in the read shaper


class BacklogDeviceInfo:
    """Per-backing-device writeback state (the kernel's ``struct bdi``).

    Every writeback engine flushes through a BDI; the BDI shapes the flush by
    the device's modelled write bandwidth, charging ``bytes / bandwidth`` of
    virtual time on top of whatever the filesystem's ``flush_fn`` paid.  A
    bandwidth of ``0`` (the default) means "unshaped": the flush costs exactly
    what the per-fs callback charged, which is how the pre-BDI engine behaved
    and what keeps the default benchmarks byte-identical.

    The read side mirrors it: ``read_bandwidth_bytes_s`` shapes cache-miss
    fetches on the ext4/FUSE read paths (0 = unshaped), and ``read_ahead_kb``
    is the per-device readahead window — the ``/sys/class/bdi/<dev>/
    read_ahead_kb`` knob.  ``None`` (the default) means "the filesystem's own
    default window" (``default_read_ahead_bytes``: the FUSE client's exact
    ``MAX_READAHEAD``, no readahead for ext4), so untouched devices behave
    byte-identically to the pre-knob code even for windows that are not
    whole KiB.
    """

    def __init__(self, name: str, write_bandwidth_bytes_s: int = 0,
                 read_bandwidth_bytes_s: int = 0,
                 read_ahead_kb: int | None = None,
                 default_read_ahead_bytes: int = 0) -> None:
        self.name = name
        #: Modelled device write bandwidth in bytes/second (0 = unshaped).
        self.write_bandwidth_bytes_s = write_bandwidth_bytes_s
        #: Modelled device read bandwidth in bytes/second (0 = unshaped).
        self.read_bandwidth_bytes_s = read_bandwidth_bytes_s
        #: Per-device readahead window in KiB (None = filesystem default).
        self.read_ahead_kb = read_ahead_kb
        #: The filesystem's own window, in exact bytes, used until the sysfs
        #: knob is written.
        self.default_read_ahead_bytes = default_read_ahead_bytes
        self.stats = BdiStats()
        #: Observability hooks: shaping time reports as I/O pressure through
        #: ``psi`` (installed by :meth:`VmSysctl.register_fs`) and device reads
        #: report to the memory controller's ``io.stat`` accounting
        #: (installed by ``MemcgController.register_fs``).  Both optional.
        self.psi: "PsiRegistry | None" = None
        self.memcg = None

    def write_cost_ns(self, nbytes: int) -> int:
        """Virtual nanoseconds the shaper charges for flushing ``nbytes``."""
        if self.write_bandwidth_bytes_s <= 0 or nbytes <= 0:
            return 0
        return nbytes * 1_000_000_000 // self.write_bandwidth_bytes_s

    def charge(self, clock: VirtualClock | None, nbytes: int) -> int:
        """Apply the bandwidth shaping for one flush of ``nbytes``."""
        cost = self.write_cost_ns(nbytes)
        if cost and clock is not None:
            clock.advance(cost)
            self.stats.shaped_flushes += 1
            self.stats.shaped_bytes += nbytes
            self.stats.busy_ns += cost
            if self.psi is not None:
                # The flusher sat in the shaper for exactly the ``busy_ns``
                # increment: I/O pressure on the current process's chain.
                self.psi.account("io", cost)
        return cost

    def read_cost_ns(self, nbytes: int) -> int:
        """Virtual nanoseconds the shaper charges for fetching ``nbytes``."""
        if self.read_bandwidth_bytes_s <= 0 or nbytes <= 0:
            return 0
        return nbytes * 1_000_000_000 // self.read_bandwidth_bytes_s

    def charge_read(self, clock: VirtualClock | None, nbytes: int) -> int:
        """Apply the read-bandwidth shaping for one cache-miss fetch."""
        if nbytes > 0 and self.memcg is not None:
            # Every device read is real block I/O regardless of shaping:
            # count it in io.stat before the (optional) bandwidth charge.
            self.memcg.io_read(self.name, nbytes)
        cost = self.read_cost_ns(nbytes)
        if cost and clock is not None:
            clock.advance(cost)
            self.stats.shaped_reads += 1
            self.stats.shaped_read_bytes += nbytes
            self.stats.read_busy_ns += cost
            if self.psi is not None:
                self.psi.account("io", cost)
        return cost

    @property
    def read_ahead_bytes(self) -> int:
        """The effective readahead window in bytes: the sysfs knob when
        written, else the filesystem's exact default."""
        if self.read_ahead_kb is None:
            return self.default_read_ahead_bytes
        return self.read_ahead_kb << 10

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"BacklogDeviceInfo({self.name!r}, "
                f"{self.write_bandwidth_bytes_s} B/s)")


@dataclass
class WritebackStats:
    """Flush accounting for one engine (benchmarks and tests read this)."""

    flushes: int = 0                 # flush() calls that flushed at least one inode
    flushed_bytes: int = 0           # pending bytes drained by flushes
    discarded_bytes: int = 0         # pending bytes dropped without a flush
    #: Virtual time writers through this engine spent stalled by the memory
    #: controller (balance_dirty_pages-style memory.high throttling).
    throttle_stall_ns: int = 0
    #: Virtual time writers spent blocked in synchronous ``vm.dirty_bytes``
    #: flushes — the ``flush_fn`` portion only; the BDI accounts its own
    #: shaping time separately, so the two never double-count a nanosecond.
    dirty_throttle_ns: int = 0
    flushes_by_reason: dict = field(default_factory=dict)

    @property
    def mean_flush_bytes(self) -> float:
        """Average pending bytes drained per flush."""
        return self.flushed_bytes / self.flushes if self.flushes else 0.0


class WritebackEngine:
    """Per-filesystem dirty accounting plus simulated flusher threads.

    The engine never charges virtual time itself: when a threshold decides a
    flush must happen, it pops the pending counters and hands the
    ``(ino, pending_bytes)`` batch to ``flush_fn(items, reason)``, which
    charges whatever that filesystem's writeback costs are and cleans the
    filesystem's page cache.  Keeping the *decision* here and the *price*
    there is what lets three very different filesystems share one subsystem.
    """

    def __init__(self, name: str, tunables: VmTunables,
                 flush_fn: Callable[[list[tuple[int, int]], str], None],
                 clock: VirtualClock | None = None,
                 meminfo: MemInfo | None = None,
                 bdi: BacklogDeviceInfo | None = None) -> None:
        self.name = name
        self.tunables = tunables
        self.flush_fn = flush_fn
        self.clock = clock
        #: Modelled memory the ratio knobs resolve against; assigned by
        #: :meth:`VmSysctl.register_fs` so every engine shares the kernel's
        #: one MemInfo.  Without it ratios read as disabled.
        self.meminfo = meminfo
        #: The backing device's writeback state; flushes are shaped by its
        #: modelled write bandwidth (None or bandwidth 0 = unshaped).
        self.bdi = bdi
        #: Memory controller (``MemcgController``); assigned at filesystem
        #: registration.  Dirty bytes are then charged to the owning cgroup
        #: and writers over ``memory.high`` are stalled.  ``None`` (the
        #: default) keeps the engine outside any cgroup accounting.
        self.memcg = None
        #: Observability hooks (``VmSysctl.register_fs`` installs both):
        #: dirty-limit writer stalls report as I/O pressure; flushes fire the
        #: ``writeback.flush`` tracepoint.
        self.psi: "PsiRegistry | None" = None
        self.tracer: "Tracer | None" = None
        self.stats = WritebackStats()
        #: ino -> unflushed dirty bytes.  Flushed/discarded inodes are popped,
        #: never left behind as zero entries.
        self._pending: dict[int, int] = {}
        self._total = 0
        #: ino -> virtual timestamp of the oldest unflushed dirty byte.
        self._first_dirty_ns: dict[int, int] = {}
        #: Re-entrancy latch: a flush_fn must not trigger nested flushes.
        self._flushing = False
        #: The armed kupdate timer (dirty_writeback_centisecs), if any.
        self._flusher_timer = None
        self._arm_periodic_flusher()

    # ------------------------------------------------------------- inspection
    @property
    def total_pending(self) -> int:
        """Unflushed dirty bytes across all inodes."""
        return self._total

    def pending(self, ino: int | None = None) -> int:
        """Unflushed dirty bytes, optionally for one inode."""
        if ino is None:
            return self._total
        return self._pending.get(ino, 0)

    def pending_inodes(self) -> list[int]:
        """Inodes with unflushed dirty bytes (tests / debugging)."""
        return list(self._pending)

    def effective_limits(self) -> ResolvedVmLimits:
        """One coherent snapshot of the thresholds currently in force.

        Every threshold decision inside the engine reads this snapshot (never
        the raw knobs twice), and it resolves through the same
        :meth:`VmTunables.resolve` that ``/proc/meminfo`` readers use — so a
        knob or memory-size change can never be half-applied mid-operation.
        """
        mem_total = self.meminfo.total_bytes if self.meminfo is not None else 0
        return self.tunables.resolve(mem_total)

    # ------------------------------------------------------------- accounting
    def note_dirty(self, ino: int, nbytes: int) -> None:
        """Account ``nbytes`` of freshly written data, then let the simulated
        flusher threads react to the thresholds."""
        if nbytes <= 0:
            return
        self._pending[ino] = self._pending.get(ino, 0) + nbytes
        self._total += nbytes
        if self.clock is not None and ino not in self._first_dirty_ns:
            self._first_dirty_ns[ino] = self.clock.now_ns
        if self.memcg is not None:
            # Charge the dirty bytes to the writer's cgroup; a writer over
            # its memory.high ceiling is stalled here, before the flusher
            # threads react (the balance_dirty_pages call site in Linux).
            self.memcg.note_dirty(self, ino, nbytes)
        self._run_flushers()

    def discard(self, ino: int, nbytes: int | None = None) -> int:
        """Drop pending accounting without charging a flush.

        Used by invalidation paths: when an inode's dirty pages are dropped
        from the page cache without writeback (truncate, hole punching), the
        corresponding flush obligation disappears with them — otherwise the
        next flush would charge WRITE requests for pages that no longer
        exist.  Returns the bytes discarded.
        """
        pending = self._pending.get(ino, 0)
        if pending <= 0:
            return 0
        dropped = pending if nbytes is None else min(pending, nbytes)
        remaining = pending - dropped
        if remaining > 0:
            self._pending[ino] = remaining
        else:
            del self._pending[ino]
            self._first_dirty_ns.pop(ino, None)
        self._total -= dropped
        self.stats.discarded_bytes += dropped
        if self.memcg is not None:
            self.memcg.uncharge(self, ino, dropped, dirty=True)
        return dropped

    def crash_discard(self) -> int:
        """Power-fail: every unflushed byte is lost without a writeback.

        Drops the pending accounting for all inodes (through :meth:`discard`,
        so cgroup dirty charges are uncharged too) and disarms the kupdate
        timer — a crashed engine must never fire against the shared clock.
        Remounting re-arms it via :meth:`retune`.  Returns the bytes lost.
        """
        dropped = 0
        for ino in list(self._pending):
            dropped += self.discard(ino)
        self.disarm_periodic_flusher()
        return dropped

    # ------------------------------------------------------------- flushing
    def flush(self, ino: int | None = None, reason: str = WB_REASON_SYNC) -> int:
        """Write back pending data (all inodes, or just ``ino``).

        Pops the pending counters first — a flushed inode leaves no zero
        entry behind — then pays the filesystem's writeback price through
        ``flush_fn``.  Returns the pending bytes drained.
        """
        if ino is None:
            items = [(node, pending) for node, pending in self._pending.items()
                     if pending > 0]
        else:
            pending = self._pending.get(ino, 0)
            items = [(ino, pending)] if pending > 0 else []
        if not items:
            return 0
        flushed = 0
        for node, pending in items:
            flushed += pending
            del self._pending[node]
            self._first_dirty_ns.pop(node, None)
        self._total -= flushed
        self.stats.flushes += 1
        self.stats.flushed_bytes += flushed
        self.stats.flushes_by_reason[reason] = \
            self.stats.flushes_by_reason.get(reason, 0) + 1
        if self.memcg is not None:
            if self.bdi is not None:
                # io.stat wbytes go to the *dirtying* cgroup — resolve the
                # owners before dirty_flushed pops them below.
                self.memcg.io_wrote(self, self.bdi.name, items)
            self.memcg.dirty_flushed(self, items)
        clock = self.clock
        t0 = clock.now_ns if clock is not None else 0
        self._flushing = True
        try:
            self.flush_fn(items, reason)
        finally:
            self._flushing = False
        if clock is not None and reason == WB_REASON_DIRTY_LIMIT:
            # A dirty_limit flush runs synchronously in the writer's context
            # (vm.dirty_bytes blocks the writer): what flush_fn charged is
            # the writer's stall.  The BDI shaping below accounts itself.
            stall = clock.now_ns - t0
            if stall > 0:
                self.stats.dirty_throttle_ns += stall
                if self.psi is not None:
                    self.psi.account("io", stall)
        # Bandwidth shaping happens through the backing device's BDI, on top
        # of whatever the filesystem-specific callback charged.
        if self.bdi is not None:
            self.bdi.charge(self.clock, flushed)
        tracer = self.tracer
        if tracer is not None and tracer.active and clock is not None:
            tracer.emit(clock.now_ns, "writeback.flush", reason=reason,
                        bytes=flushed, inodes=len(items))
        return flushed

    # ------------------------------------------------------- periodic flusher
    def retune(self) -> None:
        """Re-apply tunables that need active re-arming (the periodic flusher).

        Called by :meth:`VmSysctl.set`/:meth:`VmSysctl.register_fs` after
        knob writes; cheap enough to call unconditionally.
        """
        self._arm_periodic_flusher()

    def disarm_periodic_flusher(self) -> None:
        """Stop the kupdate timer (unmount): a detached engine must not keep
        firing on — and charging flush costs into — the shared clock.
        Re-registering re-arms via :meth:`retune`."""
        if self._flusher_timer is not None:
            self._flusher_timer.cancel()
            self._flusher_timer = None

    def _arm_periodic_flusher(self) -> None:
        self.disarm_periodic_flusher()
        period = self.tunables.dirty_writeback_centisecs
        if period > 0 and self.clock is not None:
            self._flusher_timer = self.clock.schedule(
                self.clock.now_ns + period * CENTISEC_NS, self._periodic_tick)

    def _periodic_tick(self, now_ns: int) -> None:
        """One kupdate wakeup: write back aged dirty data, then re-arm.

        Dirty data older than ``dirty_expire_centisecs`` is flushed; with
        expiry disabled the wakeup period itself is the age threshold (the
        two are coupled in Linux too — kupdate exists to enforce the expiry
        without write activity).  Runs *on the virtual clock*: whoever
        advances time past the deadline fires the tick, no writes required.
        """
        self._flusher_timer = None
        period = self.tunables.dirty_writeback_centisecs
        if period <= 0:
            return
        if not self._flushing and self._first_dirty_ns:
            expire = self.effective_limits().dirty_expire_centisecs or period
            deadline = now_ns - expire * CENTISEC_NS
            expired = [ino for ino, born in self._first_dirty_ns.items()
                       if born <= deadline]
            for ino in expired:
                self.flush(ino, reason=WB_REASON_PERIODIC)
        self._arm_periodic_flusher()

    def _run_flushers(self) -> None:
        """Evaluate the thresholds, oldest-first: expiry, hard limit, background."""
        if self._flushing:
            return
        limits = self.effective_limits()
        if (limits.dirty_expire_centisecs > 0 and self.clock is not None
                and self._first_dirty_ns):
            deadline = self.clock.now_ns - limits.dirty_expire_centisecs * CENTISEC_NS
            expired = [node for node, born in self._first_dirty_ns.items()
                       if born <= deadline]
            for node in expired:
                self.flush(node, reason=WB_REASON_EXPIRED)
        if limits.dirty_bytes > 0 and self._total >= limits.dirty_bytes:
            self.flush(reason=WB_REASON_DIRTY_LIMIT)
        elif (limits.dirty_background_bytes > 0
                and self._total >= limits.dirty_background_bytes):
            self.flush(reason=WB_REASON_BACKGROUND)


@dataclass
class ReclaimStats:
    """Memory-pressure reclaim accounting (kernel-wide, on :class:`VmSysctl`)."""

    reclaims: int = 0              # balance passes that reclaimed something
    pages_dropped: int = 0         # clean pages dropped without writeback
    pages_flushed: int = 0         # dirty pages flushed via their engine, then dropped
    bytes_reclaimed: int = 0       # total bytes freed by reclaim
    dcache_shrinks: int = 0        # dentry caches shrunk under vfs_cache_pressure

    @property
    def pages_reclaimed(self) -> int:
        """Every reclaimed page was either dropped clean or flushed first."""
        return self.pages_dropped + self.pages_flushed


def reclaim_lru(filesystems: "list[Filesystem]", excess: Callable[[], int],
                stats, filters: dict | None = None) -> int:
    """Evict LRU-oldest page-cache extents until ``excess()`` is not positive.

    The one reclaim loop of the kernel-wide budget (:meth:`VmSysctl.balance`)
    and of per-cgroup limits (``MemcgController``).  Each round picks the
    oldest extent across the filesystems' page caches (they share one
    sequence counter) and evicts up to ``excess()`` bytes of it: clean pages
    are dropped, a dirty victim is flushed through its filesystem's engine
    first (``WB_REASON_RECLAIM``).  A flush shrinks ``Dirty``, so ``excess``
    is re-read every round.  ``filters`` maps a page cache to a predicate
    over inode numbers that restricts its victims; without it every extent
    is a candidate.  The loop stops early when nothing more can be freed.

    ``stats`` is the caller's :class:`ReclaimStats` or ``MemcgStats``: its
    page counts grow per round, and ``reclaims``/``bytes_reclaimed`` once
    per call that freed something.  Returns the bytes freed.
    """
    freed = 0
    while True:
        want = excess()
        if want <= 0:
            break
        victim = victim_filter = None
        best_seq = None
        for fs in filesystems:
            cache = getattr(fs, "page_cache", None)
            if cache is None:
                continue
            ino_filter = None if filters is None else filters[cache]
            seq = cache.oldest_seq(ino_filter=ino_filter)
            if seq is not None and (best_seq is None or seq < best_seq):
                best_seq, victim, victim_filter = seq, fs, ino_filter
        if victim is None:
            break
        cache = victim.page_cache
        flush_inode = partial(victim.writeback.flush, reason=WB_REASON_RECLAIM)
        clean, flushed = cache.reclaim_oldest(-(-want // cache.page_size),
                                              flush_inode,
                                              ino_filter=victim_filter)
        if clean == 0 and flushed == 0:
            break
        stats.pages_dropped += clean
        stats.pages_flushed += flushed
        freed += (clean + flushed) * cache.page_size
    if freed:
        stats.reclaims += 1
        stats.bytes_reclaimed += freed
    return freed


class VmSysctl:
    """The kernel-wide ``/proc/sys/vm`` knobs and the memory model behind them.

    Mounting a filesystem registers it here (see ``Syscalls.mount``): its
    writeback engine comes under the kernel-wide ``vm.dirty_*`` knobs, its
    page cache joins the shared LRU age space and memory budget, its BDI
    appears under ``/sys/class/bdi`` and the filesystem itself becomes
    reachable from ``/proc/sys/vm/drop_caches``.  Writing a knob applies it
    to every registered engine at once, like Linux's single global
    writeback control.  Until a knob is written it reads as ``0``, meaning
    "each filesystem uses its own default thresholds" (``vfs_cache_pressure``
    defaults to Linux's 100 instead).

    ``VmSysctl`` is also the single source of truth for the memory model:
    ``/proc/meminfo`` is rendered from :meth:`meminfo_text`, the ratio knobs
    resolve against the same shared :class:`MemInfo`, and the reclaim budget
    (:meth:`cache_budget_bytes`) is exactly the rendered ``MemAvailable`` —
    so no reader can observe any two of the surfaces disagreeing.
    """

    KNOBS = ("dirty_background_bytes", "dirty_background_ratio", "dirty_bytes",
             "dirty_expire_centisecs", "dirty_ratio",
             "dirty_writeback_centisecs", "vfs_cache_pressure")
    #: Knobs expressed as a percentage of modelled memory.
    RATIO_KNOBS = ("dirty_background_ratio", "dirty_ratio")
    #: Knobs propagated to every registered engine's VmTunables; the rest
    #: (vfs_cache_pressure) are kernel-global and live only here.
    ENGINE_KNOBS = ("dirty_background_bytes", "dirty_background_ratio",
                    "dirty_bytes", "dirty_expire_centisecs", "dirty_ratio",
                    "dirty_writeback_centisecs")
    #: Unwritten-knob read values where "0" is not the Linux default.
    DEFAULT_KNOBS = {"vfs_cache_pressure": 100}

    def __init__(self, meminfo: MemInfo | None = None) -> None:
        self.meminfo = meminfo or MemInfo()
        #: The cgroup memory controller (``Kernel.memcg``); when set,
        #: filesystem registration also wires each page cache and engine into
        #: the per-cgroup charge accounting.
        self.memcg = None
        #: Observability registries (``Kernel.psi`` / ``Kernel.tracer``);
        #: when set, filesystem registration propagates them to each engine
        #: and its BDI so stall sites report pressure and flushes fire
        #: tracepoints.  Both optional.
        self.psi: "PsiRegistry | None" = None
        self.tracer: "Tracer | None" = None
        self._engines: list[WritebackEngine] = []
        self._filesystems: list["Filesystem"] = []
        self._bdis: dict[str, BacklogDeviceInfo] = {}
        self._overrides: dict[str, int] = {}
        #: Last value written to /proc/sys/vm/drop_caches (Linux shows it back).
        self.drop_caches_last = 0
        #: Shared extent sequence source: every registered page cache adopts
        #: it, making extent ages comparable across filesystems (the global
        #: LRU reclaim order).
        self._page_seq = SeqCounter()
        self.reclaim_stats = ReclaimStats()
        self._balancing = False
        #: vfs_cache_pressure accumulator: 100 points = one dcache shrink.
        self._dcache_debt = 0
        self._dcache_rr = 0

    # ------------------------------------------------------------ registration
    def register_fs(self, fs: "Filesystem") -> None:
        """Register a mounted filesystem (idempotent): drop_caches reach, its
        engine under the kernel-wide knobs, its BDI under ``/sys/class/bdi``,
        its page cache in the shared LRU age space and memory budget."""
        if fs in self._filesystems:
            return
        self._filesystems.append(fs)
        engine = getattr(fs, "writeback", None)
        if engine is not None:
            self._engines.append(engine)
            engine.meminfo = self.meminfo
            engine.psi = self.psi
            engine.tracer = self.tracer
            for knob, value in self._overrides.items():
                if knob in self.ENGINE_KNOBS:
                    setattr(engine.tunables, knob, value)
            engine.retune()
            bdi = engine.bdi
            if bdi is not None:
                bdi.psi = self.psi
                if self._bdis.get(bdi.name) is not bdi:
                    # Disambiguate colliding device names (two mounts
                    # constructed with the same fs name) so every live device
                    # stays reachable from /sys/class/bdi; the BDI's own name
                    # follows its sysfs key.
                    name, n = bdi.name, 1
                    while bdi.name in self._bdis:
                        bdi.name = f"{name}-{n}"
                        n += 1
                    self._bdis[bdi.name] = bdi
        cache = getattr(fs, "page_cache", None)
        if cache is not None:
            cache.share_seq_counter(self._page_seq)
            cache.pressure = self
        if self.memcg is not None:
            self.memcg.register_fs(fs)

    def unregister_fs(self, fs: "Filesystem") -> None:
        """Unregister a filesystem whose last mount went away."""
        if fs in self._filesystems:
            self._filesystems.remove(fs)
        engine = getattr(fs, "writeback", None)
        if engine is not None:
            if engine in self._engines:
                self._engines.remove(engine)
            # A detached engine must never keep firing on — and charging
            # flush costs into — the shared clock; remounting re-arms it.
            engine.disarm_periodic_flusher()
            if engine.psi is self.psi:
                engine.psi = None
            if engine.tracer is self.tracer:
                engine.tracer = None
            bdi = engine.bdi
            if bdi is not None:
                if bdi.psi is self.psi:
                    bdi.psi = None
                if self._bdis.get(bdi.name) is bdi:
                    del self._bdis[bdi.name]
        cache = getattr(fs, "page_cache", None)
        if cache is not None and cache.pressure is self:
            cache.pressure = None
        if self.memcg is not None:
            self.memcg.unregister_fs(fs)

    def engines(self) -> list[WritebackEngine]:
        """The registered engines (reports / debugging)."""
        return list(self._engines)

    def filesystems(self) -> list["Filesystem"]:
        """The registered filesystems (reports / debugging)."""
        return list(self._filesystems)

    def bdis(self) -> dict[str, BacklogDeviceInfo]:
        """Registered backing devices by name (the /sys/class/bdi surface)."""
        return dict(self._bdis)

    # ------------------------------------------------------------ knob access
    def get(self, knob: str) -> int:
        """Current kernel-wide value (0 = per-filesystem defaults in effect)."""
        if knob not in self.KNOBS:
            raise FsError.enoent(f"vm.{knob}")
        return self._overrides.get(knob, self.DEFAULT_KNOBS.get(knob, 0))

    def set(self, knob: str, value: int) -> None:
        """Write a knob, retuning every registered engine."""
        if knob not in self.KNOBS:
            raise FsError.enoent(f"vm.{knob}")
        if value < 0 or (knob in self.RATIO_KNOBS and value > 100):
            raise FsError.einval(f"vm.{knob} = {value}")
        self._overrides[knob] = value
        if knob not in self.ENGINE_KNOBS:
            return
        for engine in self._engines:
            setattr(engine.tunables, knob, value)
            if knob == "dirty_writeback_centisecs":
                engine.retune()

    def snapshot(self) -> dict:
        """Capture the retunable state (knob overrides + per-engine tunables).

        Conformance tests retune the kernel-wide knobs mid-run and must put
        the shared machine back exactly as found; restoring overrides alone
        is not enough because writing a knob overwrites each engine's per-fs
        default (e.g. the FUSE client's 128 KiB background threshold).
        """
        return {"overrides": dict(self._overrides),
                "engines": [(engine, engine.tunables.as_dict())
                            for engine in self._engines]}

    def restore(self, state: dict) -> None:
        """Undo knob writes made since the matching :meth:`snapshot`."""
        self._overrides = dict(state["overrides"])
        for engine, knobs in state["engines"]:
            for knob, value in knobs.items():
                setattr(engine.tunables, knob, value)
            if engine in self._engines:
                engine.retune()
            else:
                # Unmounted since the snapshot: put its knobs back for a
                # later remount, but leave the kupdate timer down — retuning
                # here would re-arm a timer on an engine no mount owns
                # (orphaned periodic wakeups on the shared clock).
                engine.disarm_periodic_flusher()

    # ------------------------------------------------------------ drop_caches
    def drop_caches(self, mode: int) -> None:
        """``echo mode > /proc/sys/vm/drop_caches`` for every registered fs."""
        if mode not in (DROP_PAGECACHE, DROP_SLAB, DROP_PAGECACHE | DROP_SLAB):
            raise FsError.einval(f"vm.drop_caches = {mode}")
        self.drop_caches_last = mode
        for fs in list(self._filesystems):
            fs.drop_caches(mode)

    # ------------------------------------------------------------ reclaim
    def cache_budget_bytes(self) -> int | None:
        """Bytes the registered page caches may collectively hold.

        ``None`` means reclaim is disabled (unbounded budget, the default).
        The formula is exactly the rendered ``MemAvailable``
        (``total − reserved − Dirty``): keeping ``Cached`` at or under it is
        the same statement as ``MemFree`` never going negative, so the budget
        and ``/proc/meminfo`` cannot disagree.
        """
        if not self.meminfo.reclaim_enabled:
            return None
        return max(0, self.meminfo.total_bytes - self.meminfo.reserved_bytes
                   - self.dirty_bytes_total())

    def balance(self) -> int:
        """Reclaim until the page caches fit the memory budget.

        Called by every registered page cache after growth.  Runs
        :func:`reclaim_lru` over every registered filesystem against the live
        budget; a pass that reclaimed something accumulates
        ``vfs_cache_pressure`` dcache-shrink debt.  Returns the bytes
        reclaimed.
        """
        if self._balancing or not self.meminfo.reclaim_enabled:
            return 0
        self._balancing = True
        try:
            freed = reclaim_lru(
                self._filesystems,
                lambda: self.cached_bytes_total() - self.cache_budget_bytes(),
                self.reclaim_stats)
            if freed:
                self._shrink_dcache()
            return freed
        finally:
            self._balancing = False

    def _shrink_dcache(self) -> None:
        """Apply ``vm.vfs_cache_pressure`` after a reclaim pass.

        Debt accumulates ``pressure`` points per pass; every 100 points
        shrinks one registered filesystem's dentry cache (round-robin), so
        ``0`` never touches dentries, 100 (the Linux default) shrinks one per
        pass and 200 shrinks two.
        """
        pressure = self.get("vfs_cache_pressure")
        if pressure <= 0 or not self._filesystems:
            return
        self._dcache_debt += pressure
        while self._dcache_debt >= 100:
            self._dcache_debt -= 100
            fs = self._filesystems[self._dcache_rr % len(self._filesystems)]
            self._dcache_rr += 1
            fs.drop_caches(DROP_SLAB)
            self.reclaim_stats.dcache_shrinks += 1

    # ------------------------------------------------------------ /proc/meminfo
    def dirty_bytes_total(self) -> int:
        """Unflushed dirty bytes across every registered engine (``Dirty:``)."""
        return sum(engine.total_pending for engine in self._engines)

    def cached_bytes_total(self) -> int:
        """Resident page-cache bytes across registered filesystems."""
        total = 0
        for fs in self._filesystems:
            cache = getattr(fs, "page_cache", None)
            if cache is not None:
                total += cache.resident_bytes
        return total

    def meminfo_text(self) -> str:
        """Render ``/proc/meminfo`` from the shared memory model.

        Readers of ``/proc/meminfo`` and the ratio-resolving flusher threads
        go through the same object, so ``MemTotal`` here is — by construction,
        not by synchronization — the base the ratios resolve against.
        """
        total = self.meminfo.total_bytes
        dirty = self.dirty_bytes_total()
        cached = self.cached_bytes_total()
        free = max(0, total - self.meminfo.reserved_bytes - dirty - cached)
        rows = [
            ("MemTotal", total),
            ("MemFree", free),
            ("MemAvailable", free + cached),
            ("Cached", cached),
            ("Dirty", dirty),
            ("Writeback", 0),   # flushes complete instantly in virtual time
        ]
        return "".join(f"{label + ':':<16}{value >> 10:>8} kB\n"
                       for label, value in rows)

    def vmstat_text(self) -> str:
        """Render ``/proc/vmstat`` live from the registered caches and engines.

        Pure derived bookkeeping (documented zero-virtual-cost): page-state
        gauges come from the same sources as ``/proc/meminfo`` so the two
        surfaces can never disagree; the event counters map the model onto
        Linux's names — ``pgfault`` is every page-cache access,
        ``pgmajfault`` the misses that reached a device, ``pgsteal_direct``
        the kernel-wide reclaim and ``pgsteal_memcg`` the per-cgroup one.
        Counts are in 4 KiB pages, as in Linux.
        """
        page = 4096
        hits = misses = 0
        for fs in self._filesystems:
            cache = getattr(fs, "page_cache", None)
            if cache is not None:
                hits += cache.stats.hits
                misses += cache.stats.misses
        flushed = sum(e.stats.flushed_bytes for e in self._engines)
        discarded = sum(e.stats.discarded_bytes for e in self._engines)
        dirty = self.dirty_bytes_total()
        cached = self.cached_bytes_total()
        free = max(0, self.meminfo.total_bytes - self.meminfo.reserved_bytes
                   - dirty - cached)
        reclaim = self.reclaim_stats
        memcg_steal = self.memcg.total_pages_reclaimed() \
            if self.memcg is not None else 0
        rows = [
            ("nr_free_pages", free // page),
            ("nr_file_pages", cached // page),
            ("nr_dirty", dirty // page),
            ("nr_writeback", 0),
            # Everything ever dirtied either drained through a flush, was
            # discarded without one, or is still pending — so the three
            # components always sum to the cumulative nr_dirtied.
            ("nr_dirtied", (flushed + discarded + dirty) // page),
            ("nr_written", flushed // page),
            ("pgfault", hits + misses),
            ("pgmajfault", misses),
            ("pgscan_direct", reclaim.pages_reclaimed),
            ("pgsteal_direct", reclaim.pages_reclaimed),
            ("pgsteal_memcg", memcg_steal),
        ]
        return "".join(f"{name} {value}\n" for name, value in rows)
