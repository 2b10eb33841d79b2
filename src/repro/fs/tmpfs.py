"""tmpfs: the in-memory filesystem the paper mounts CntrFS on top of for xfstests."""

from __future__ import annotations

from repro.fs.filesystem import Filesystem
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import Tracer


class TmpFS(Filesystem):
    """Memory-backed filesystem: metadata and data operations are cheap.

    tmpfs has no backing device, so it has no writeback engine and ``fsync``
    and ``sync`` charge only the base bookkeeping cost; as in Linux, its pages
    are outside the ``vm.dirty_*`` writeback control.  The copy-on-write
    ioctls used by some xfstests are unsupported (the paper notes that four
    generic tests were skipped for exactly this reason).
    """

    fs_type = "tmpfs"
    supports_direct_io = False          # like real tmpfs, O_DIRECT is refused
    supports_reflink = False            # no copy-on-write ioctl support

    def __init__(self, name: str, clock: VirtualClock, costs: CostModel,
                 tracer: Tracer | None = None, capacity_bytes: int = 8 << 30) -> None:
        super().__init__(name, clock, costs, tracer, capacity_bytes=capacity_bytes)

    def crash(self) -> None:
        """Power-fail: tmpfs lives entirely in RAM, so *everything* is lost.

        The tree resets to an empty root — the state a fresh tmpfs mount
        presents after reboot.  ``sync``/``fsync`` never made tmpfs data
        durable (there is no backing store), exactly as in Linux.
        """
        from repro.fs.filesystem import ROOT_INO
        from repro.fs.inode import DirectoryInode

        self._inodes = {ROOT_INO: DirectoryInode(
            ino=ROOT_INO, mode=self.root().mode, nlink=2, fs_name=self.name)}
        self.root_ino = ROOT_INO
        # _next_ino stays monotonic: stale references (old FUSE nodeids,
        # cached stats) must never alias a post-crash inode.
        super().crash()
