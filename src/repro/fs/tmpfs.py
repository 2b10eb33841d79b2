"""tmpfs: the in-memory filesystem the paper mounts CntrFS on top of for xfstests."""

from __future__ import annotations

from repro.fs.filesystem import Filesystem
from repro.fs.writeback import WB_REASON_FSYNC, VmTunables, WritebackEngine
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import Tracer


class TmpFS(Filesystem):
    """Memory-backed filesystem: metadata and data operations are cheap.

    tmpfs has no backing device, so ``fsync`` is effectively free and the
    copy-on-write ioctls used by some xfstests are unsupported (the paper
    notes that four generic tests were skipped for exactly this reason).
    """

    fs_type = "tmpfs"
    supports_direct_io = False          # like real tmpfs, O_DIRECT is refused
    supports_reflink = False            # no copy-on-write ioctl support

    def __init__(self, name: str, clock: VirtualClock, costs: CostModel,
                 tracer: Tracer | None = None, capacity_bytes: int = 8 << 30) -> None:
        super().__init__(name, clock, costs, tracer, capacity_bytes=capacity_bytes)
        #: Dirty accounting lives on the unified engine like every other
        #: filesystem, but tmpfs pages have no backing store to write to:
        #: all thresholds are disabled, flushing costs nothing, and the
        #: vm.dirty_* sysctls do not retune it (as in Linux, where tmpfs is
        #: outside the writeback control).
        self.writeback = WritebackEngine(name, VmTunables(),
                                         self._writeback_flush, clock=clock,
                                         sysctl_tunable=False)

    def _writeback_flush(self, items, reason: str) -> None:
        # Nothing to write back to: the data already lives in memory.
        pass

    def _charge_write(self, ino: int, offset: int, size: int) -> None:
        super()._charge_write(ino, offset, size)
        self.writeback.note_dirty(ino, size)

    def _charge_fsync(self, ino: int, datasync: bool) -> None:
        # Nothing to persist: charge only the syscall-ish bookkeeping cost.
        self.writeback.flush(ino, reason=WB_REASON_FSYNC)
        self.clock.advance(self.costs.tmpfs_op_ns)
        tracer = self.tracer
        if tracer.active:
            tracer.emit(self.clock.now_ns, f"{self.fs_type}.fsync", self.costs.tmpfs_op_ns)

    def sync(self) -> None:
        self.writeback.flush()
        super().sync()

    def _inode_released(self, ino: int) -> None:
        # A dead inode's dirty bytes vanish with it; without this the
        # pending map would grow forever across create/delete churn.
        super()._inode_released(ino)
        self.writeback.discard(ino)

    def drop_caches(self, mode: int = 3) -> None:
        """tmpfs pages cannot be dropped (they *are* the data, as in Linux);
        only the dirty accounting is settled and the dentries invalidated."""
        if mode & 1:
            self.writeback.flush()
        super().drop_caches(mode)

    def crash(self) -> None:
        """Power-fail: tmpfs lives entirely in RAM, so *everything* is lost.

        The tree resets to an empty root — the state a fresh tmpfs mount
        presents after reboot.  ``sync``/``fsync`` never made tmpfs data
        durable (there is no backing store), exactly as in Linux.
        """
        from repro.fs.filesystem import ROOT_INO
        from repro.fs.inode import DirectoryInode

        self.writeback.crash_discard()
        self._inodes = {ROOT_INO: DirectoryInode(
            ino=ROOT_INO, mode=self.root().mode, nlink=2, fs_name=self.name)}
        self.root_ino = ROOT_INO
        # _next_ino stays monotonic: stale references (old FUSE nodeids,
        # cached stats) must never alias a post-crash inode.
        super().crash()

    def remount(self) -> None:
        """Power restored: re-arm the engine; the empty tree *is* the mount."""
        self.writeback.retune()
        super().remount()
