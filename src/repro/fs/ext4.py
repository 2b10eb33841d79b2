"""A journaled, disk-cost-modelled filesystem standing in for ext4 on EBS GP2.

The paper's performance baseline is ext4 on an SSD-backed EBS volume.  What
matters for reproducing the *relative* overhead of CntrFS is that the native
filesystem (a) serves cached reads from the page cache essentially for free,
(b) absorbs buffered writes into dirty pages and flushes them in batches, and
(c) pays real latency for cache misses, fsync and journal commits.  ``Ext4Fs``
models exactly those three behaviours on top of the generic in-memory
filesystem semantics.
"""

from __future__ import annotations

import errno

from repro.fs.blockdev import BlockDevice
from repro.fs.constants import FallocateMode
from repro.fs.errors import FsError
from repro.fs.filesystem import ROOT_INO, Filesystem
from repro.fs.inode import DirectoryInode, RegularInode
from repro.fs.journal import Ext4Journal, inode_kind
from repro.fs.pagecache import PageCache
from repro.fs.writeback import (
    WB_REASON_FSYNC,
    WB_REASON_RECLAIM,
    VmTunables,
    WritebackEngine,
)
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import Tracer

#: Dirty bytes at which the background flusher threads historically kicked
#: in; now the default ``vm.dirty_background_bytes`` of an ext4 instance.
EXT4_DIRTY_BACKGROUND_BYTES = 256 << 20


class Ext4Fs(Filesystem):
    """ext4-like filesystem backed by a :class:`BlockDevice` with a page cache."""

    fs_type = "ext4"
    supports_direct_io = True
    supports_export_handles = True
    supports_reflink = False

    def __init__(self, name: str, clock: VirtualClock, costs: CostModel,
                 tracer: Tracer | None = None, capacity_bytes: int = 100 << 30,
                 page_cache_bytes: int = 12 << 30,
                 device: BlockDevice | None = None,
                 writeback_tunables: VmTunables | None = None) -> None:
        super().__init__(name, clock, costs, tracer, capacity_bytes=capacity_bytes)
        self.device = device or BlockDevice(f"{name}-dev", capacity_bytes, clock, costs)
        self.page_cache = PageCache(max_bytes=page_cache_bytes, page_size=costs.page_size)
        self._dirty_metadata = 0
        #: The unified writeback engine (vm.dirty_*-driven flusher threads),
        #: flushing through the block device's BDI for bandwidth shaping.
        self.writeback = WritebackEngine(
            name,
            writeback_tunables or VmTunables(
                dirty_background_bytes=EXT4_DIRTY_BACKGROUND_BYTES),
            self._writeback_flush, clock=clock, bdi=self.device.bdi)
        #: The ordered-mode transaction log behind ``journal_commit_ns``:
        #: metadata mutations accumulate in a running transaction committed
        #: at fsync/fdatasync/sync; data durability rides on writeback (see
        #: ``repro.fs.journal``).  A fresh filesystem starts checkpointed —
        #: mkfs wrote the empty tree to the platter.
        self.journal = Ext4Journal()
        self.journal.checkpoint(self._inodes)

    def _inode_released(self, ino: int) -> None:
        # Inode eviction, as in the kernel: an unlinked file's pages —
        # including dirty ones — are discarded, never written back.
        super()._inode_released(ino)
        self.page_cache.invalidate(ino)
        self.writeback.discard(ino)

    # --------------------------------------------------------- journal records
    # Every metadata mutation appends a logical record to the running
    # transaction *after* the base operation succeeds (a failed op journals
    # nothing).  Pre-state needed by a record is gathered with uncharged
    # dict lookups guarded by try/except, so failure paths charge exactly
    # what they always did — recording is pure bookkeeping, no clock time.
    def create(self, dir_ino, name, mode, uid=0, gid=0):
        inode = super().create(dir_ino, name, mode, uid, gid)
        self._record_birth(dir_ino, name, inode)
        return inode

    def mkdir(self, dir_ino, name, mode, uid=0, gid=0):
        inode = super().mkdir(dir_ino, name, mode, uid, gid)
        self._record_birth(dir_ino, name, inode)
        return inode

    def symlink(self, dir_ino, name, target, uid=0, gid=0):
        inode = super().symlink(dir_ino, name, target, uid, gid)
        self._record_birth(dir_ino, name, inode)
        return inode

    def mknod(self, dir_ino, name, mode, rdev=0, uid=0, gid=0):
        inode = super().mknod(dir_ino, name, mode, rdev, uid, gid)
        self._record_birth(dir_ino, name, inode)
        return inode

    def _record_birth(self, parent: int, name: str, inode) -> None:
        self.journal.record(
            "create", parent=parent, name=name, ino=inode.ino,
            kind=inode_kind(inode), mode=inode.mode, uid=inode.uid,
            gid=inode.gid, rdev=inode.rdev,
            target=getattr(inode, "target", ""), now_ns=inode.ctime_ns)

    def link(self, dir_ino, name, target_ino):
        target = super().link(dir_ino, name, target_ino)
        self.journal.record("link", parent=dir_ino, name=name, ino=target.ino)
        return target

    def unlink(self, dir_ino, name):
        ino = self._peek_child(dir_ino, name)
        super().unlink(dir_ino, name)
        if ino is not None:
            self.journal.record("unlink", parent=dir_ino, name=name, ino=ino)

    def rmdir(self, dir_ino, name):
        ino = self._peek_child(dir_ino, name)
        super().rmdir(dir_ino, name)
        if ino is not None:
            self.journal.record("rmdir", parent=dir_ino, name=name, ino=ino)

    def _peek_child(self, dir_ino: int, name: str) -> int | None:
        """The child's ino, or None when the base op will raise anyway."""
        directory = self._inodes.get(dir_ino)
        if isinstance(directory, DirectoryInode):
            return directory.entries.get(name)
        return None

    def rename(self, old_dir, old_name, new_dir, new_name, flags=0):
        from repro.fs.constants import RenameFlags

        ino = self._peek_child(old_dir, old_name)
        replaced = self._peek_child(new_dir, new_name)
        moved = self._inodes.get(ino) if ino is not None else None
        super().rename(old_dir, old_name, new_dir, new_name, flags)
        # A rename onto the source's own inode changed nothing: no record.
        if ino is not None and ino != replaced:
            self.journal.record(
                "rename", old_dir=old_dir, old_name=old_name, new_dir=new_dir,
                new_name=new_name, ino=ino,
                exchange=bool(flags & RenameFlags.RENAME_EXCHANGE),
                replaced_ino=replaced, is_dir=isinstance(moved, DirectoryInode))

    def write(self, ino, offset, data):
        inode = self._inodes.get(ino)
        old_size = inode.size if isinstance(inode, RegularInode) else None
        written = super().write(ino, offset, data)
        if old_size is not None and offset + written > old_size:
            # Ordered mode journals the i_size extension; the data itself
            # becomes durable through writeback, not through the journal.
            self.journal.record_size(ino, offset + written)
        return written

    def truncate(self, ino, size):
        super().truncate(ino, size)
        # An ordered data op, not a bare size record: the committed clone
        # must clip and zero-fill so a down-then-up sequence never reads
        # back stale pre-truncate bytes after replay.
        self.journal.record_truncate(ino, size)

    def fallocate(self, ino, mode, offset, length):
        inode = self._inodes.get(ino)
        old_size = inode.size if isinstance(inode, RegularInode) else None
        super().fallocate(ino, mode, offset, length)
        if mode & FallocateMode.PUNCH_HOLE or mode & FallocateMode.ZERO_RANGE:
            # The extent-map change is journaled: a committed punch stays
            # punched even when no writeback flush follows it.
            self.journal.record_punch(ino, offset, length)
            return
        extends = (not mode & FallocateMode.KEEP_SIZE)
        if old_size is not None and extends and offset + length > old_size:
            self.journal.record_size(ino, offset + length)

    def setattr(self, ino, *, mode=None, uid=None, gid=None, size=None,
                atime_ns=None, mtime_ns=None):
        super().setattr(ino, mode=mode, uid=uid, gid=gid, size=size,
                        atime_ns=atime_ns, mtime_ns=mtime_ns)
        inode = self._inodes.get(ino)
        if inode is None:
            return
        self.journal.record("attr", ino=ino, mode=inode.mode, uid=inode.uid,
                            gid=inode.gid, atime_ns=inode.atime_ns,
                            mtime_ns=inode.mtime_ns, ctime_ns=inode.ctime_ns)
        if size is not None:
            self.journal.record_truncate(ino, size)

    def setxattr(self, ino, name, value, flags=0):
        super().setxattr(ino, name, value, flags)
        self.journal.record("xattr_set", ino=ino, name=name, value=bytes(value))

    def removexattr(self, ino, name):
        super().removexattr(ino, name)
        self.journal.record("xattr_remove", ino=ino, name=name)

    # --------------------------------------------------------- crash model
    def checkpoint(self) -> None:
        """Declare the current live tree fully durable (clean-mount baseline).

        Zero virtual-time cost: this models state that was *already* written
        out (mkfs, or an image populated before the experiment starts), not
        an act of writing it now.
        """
        self.journal.checkpoint(self._inodes)

    def crash(self) -> None:
        """Power-fail: dirty pages, pending writeback and the running
        (uncommitted) journal transaction are gone; committed metadata and
        written-back data survive in the journal's durable image."""
        self.journal.discard_running()
        self.page_cache.invalidate_all()
        self.writeback.crash_discard()
        self._dirty_metadata = 0
        super().crash()

    def remount(self) -> None:
        """Mount-time journal replay: rebuild the live tree from the durable
        image.  Charges one ``journal_commit_ns`` when there are committed
        transactions to replay — the e2fsck/jbd2 recovery pass — and nothing
        on a checkpointed (clean) filesystem."""
        if self.journal.uncheckpointed_txns:
            self.clock.advance(self.costs.journal_commit_ns)
            tracer = self.tracer
            if tracer.active:
                tracer.emit(self.clock.now_ns, f"{self.fs_type}.replay",
                            self.costs.journal_commit_ns)
        self._inodes = self.journal.replay(fs_name=self.name,
                                           store_data=self.store_data)
        if ROOT_INO not in self._inodes:
            raise FsError(errno.EIO, self.name, "durable image lost the root")
        self.root_ino = ROOT_INO
        self._next_ino = max(self._inodes) + 1
        self.journal.checkpoint(self._inodes)
        self.writeback.retune()
        super().remount()

    # ------------------------------------------------------------------ costs
    def _charge_metadata(self, op: str) -> None:
        cost = self.costs.metadata_op_ns
        self.clock.advance(cost)
        tracer = self.tracer
        if tracer.active:
            tracer.emit(self.clock.now_ns, f"{self.fs_type}.{op}", cost)
        self._dirty_metadata += 1

    def _charge_read(self, ino: int, offset: int, size: int) -> None:
        if size <= 0:
            self.clock.advance(self.costs.syscall_ns)
            return
        hits, misses = self.page_cache.access(ino, offset, size)
        page = self.costs.page_size
        hit_cost = int(self.costs.page_cache_hit_per_byte_ns * hits * page)
        self.clock.advance(hit_cost)
        if misses:
            fetch_pages = misses
            # Per-device readahead (/sys/class/bdi/<dev>/read_ahead_kb): a
            # miss extends the fetch window so subsequent sequential reads
            # hit the page cache.  The historical default is 0 — no
            # readahead — which keeps untouched devices byte-identical.
            # Window pages are pulled through page_cache.access, so they
            # count as accesses in PageCacheStats, matching how the FUSE
            # read path has always accounted its readahead window.
            ra = self.device.bdi.read_ahead_bytes
            if ra > 0:
                inode = self._inodes.get(ino)
                file_size = inode.size if isinstance(inode, RegularInode) else 0
                window_end = min(offset + max(size, ra), file_size)
                if window_end > offset + size:
                    _ra_hits, ra_misses = self.page_cache.access(
                        ino, offset + size, window_end - (offset + size))
                    fetch_pages += ra_misses
            # The device pays the seek/stream cost and its BDI's read-
            # bandwidth shaping (0 = unshaped, the default).
            self.device.read(offset, fetch_pages * page)
        tracer = self.tracer
        if tracer.active:
            tracer.emit(self.clock.now_ns, f"{self.fs_type}.read", hit_cost,
                        hits=hits, misses=misses)

    def _charge_write(self, ino: int, offset: int, size: int) -> None:
        if size <= 0:
            self.clock.advance(self.costs.syscall_ns)
            return
        dirtied = self.page_cache.write(ino, offset, size)
        cost = int(self.costs.page_cache_hit_per_byte_ns * size
                   + self.costs.metadata_op_ns * 0.1)
        self.clock.advance(cost)
        tracer = self.tracer
        if tracer.active:
            tracer.emit(self.clock.now_ns, f"{self.fs_type}.write", cost,
                        dirtied=dirtied)
        # The engine accounts newly dirtied bytes and runs the flusher
        # threads against the vm.dirty_* thresholds; only then may memory
        # pressure react, so reclaim always sees the pending counters.
        self.writeback.note_dirty(ino, dirtied * self.costs.page_size)
        self.page_cache.balance_pressure()

    def _charge_fsync(self, ino: int, datasync: bool) -> None:
        nbytes = self.page_cache.dirty_page_count(ino) * self.costs.page_size
        self.writeback.flush(ino, reason=WB_REASON_FSYNC)
        if not datasync or self._dirty_metadata:
            self.clock.advance(self.costs.journal_commit_ns)
            self._dirty_metadata = 0
        # The running transaction commits on *every* fsync/fdatasync, exactly
        # like jbd2's compound transaction.  The time charged above is
        # unchanged from the pre-journal model: a datasync with clean charged
        # metadata still publishes any coalesced i_size records for free —
        # real fdatasync forces a commit for size changes too, and keeping
        # the cost identical is what preserves the pinned benchmark figures.
        self.journal.commit()
        self.device.flush()
        tracer = self.tracer
        if tracer.active:
            tracer.emit(self.clock.now_ns, "journal.commit",
                        fs=self.name, reason="fsync")
            tracer.emit(self.clock.now_ns, f"{self.fs_type}.fsync", nbytes)

    def _writeback_flush(self, items, reason: str) -> None:
        """Writeback price of this filesystem, paid when the engine flushes.

        fsync — and reclaim, which targets one inode's pages at a time —
        writes back one inode's dirty pages; every other reason models the
        flusher threads catching up in one sequential device write (the
        bytes charged come from the page cache — the authoritative count of
        what is actually dirty — not from the pending counters).
        """
        self._capture_durable_data(items)
        if reason in (WB_REASON_FSYNC, WB_REASON_RECLAIM):
            for ino, _pending in items:
                nbytes = self.page_cache.dirty_page_count(ino) * self.costs.page_size
                if nbytes:
                    self.device.write(0, nbytes)
                    self.page_cache.clean(ino)
            return
        nbytes = self.page_cache.dirty_page_count() * self.costs.page_size
        if nbytes:
            self.device.write(0, nbytes)
            self.page_cache.clean()
        tracer = self.tracer
        if tracer.active:
            tracer.emit(self.clock.now_ns, f"{self.fs_type}.writeback", nbytes)

    def _capture_durable_data(self, items) -> None:
        """Ordered mode: data that was written back is durable.  Snapshot each
        flushed inode's content as the journal's durable data image (pure
        bookkeeping; clones are O(materialised pages) and O(1) for the
        ``store=False`` benchmark mode)."""
        for ino, _pending in items:
            inode = self._inodes.get(ino)
            if isinstance(inode, RegularInode):
                self.journal.capture_data(ino, inode.data.clone())

    def _flush_all(self, reason: str) -> None:
        """Flush everything, recording a writeback trace line even when idle."""
        if self.writeback.flush(reason=reason) == 0 and self.tracer.active:
            self.tracer.emit(self.clock.now_ns, f"{self.fs_type}.writeback", 0)

    def sync(self) -> None:
        """``sync(2)``: flush dirty pages and commit the journal."""
        self._flush_all("sync")
        self.clock.advance(self.costs.journal_commit_ns)
        self.journal.commit()
        self.device.flush()
        self._dirty_metadata = 0
        tracer = self.tracer
        if tracer.active:
            tracer.emit(self.clock.now_ns, "journal.commit",
                        fs=self.name, reason="sync")

    def drop_caches(self, mode: int = 3) -> None:
        """``echo mode > /proc/sys/vm/drop_caches`` for this filesystem:
        1 drops the page cache (flushing dirty data first), 2 the dentries."""
        if mode & 1:
            self._flush_all("drop_caches")
            self.page_cache.invalidate_all()
        if mode & 2:
            self.invalidate_dentries()
