"""The kernel-side FUSE driver, mountable as a regular filesystem.

``FuseClientFs`` is what the nested namespace in Cntr actually mounts as its
new root: a :class:`repro.fs.filesystem.Filesystem` whose every operation is
translated into FUSE requests on a :class:`repro.fuse.device.FuseConnection`.
It reproduces the kernel-side behaviours the paper's optimizations manipulate:

* dentry/attribute caches (cheap repeated lookups once resolved),
* the page cache, optionally retained across ``open()`` (``FOPEN_KEEP_CACHE``),
* the writeback cache that coalesces small writes into ``MAX_WRITE``-sized
  WRITE requests (``FUSE_WRITEBACK_CACHE``),
* readahead-sized READ batching on the background queue (``FUSE_ASYNC_READ``),
* serialized vs. parallel directory operations (``FUSE_PARALLEL_DIROPS``),
* batched FORGET requests,
* splice-based zero-copy transfer on the read and/or write path,
* per-request overhead growing slightly with the number of server threads
  (the effect measured in the paper's Figure 4),
* the uncached ``security.capability`` xattr lookup the kernel performs on
  every write, which the paper identifies as the source of the Apache and
  IOzone write overheads.

Inodes are *proxies*: their numbers equal the server-side nodeids and their
attributes mirror the last reply that mentioned them.
"""

from __future__ import annotations

import math

from repro.fs.constants import FallocateMode, FileMode, RenameFlags
from repro.fs.errors import FsError
from repro.fs.filesystem import Filesystem
from repro.fs.inode import (
    DeviceInode,
    DirectoryInode,
    FifoInode,
    FileData,
    Inode,
    RegularInode,
    SocketInode,
    SymlinkInode,
)
from repro.fs.pagecache import PageCache
from repro.fs.stat import StatVfs
from repro.fs.writeback import (
    WB_REASON_FSYNC,
    BacklogDeviceInfo,
    VmTunables,
    WritebackEngine,
)
from repro.fuse.device import FuseConnection
from repro.fuse.options import FuseMountOptions
from repro.fuse.protocol import (OPCODE_NAME, FuseAttr, FuseOpcode, FuseReply,
                                 FuseRequest)
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.trace import Tracer

#: Number of dropped nodeids accumulated before a BATCH_FORGET is emitted.
FORGET_BATCH_SIZE = 64
#: Maximum size of one WRITE request payload (``max_write``).
MAX_WRITE = 128 * 1024
#: Readahead window negotiated at INIT time (``max_readahead``); it seeds the
#: mount's per-device BDI knob (``/sys/class/bdi/<dev>/read_ahead_kb``), which
#: is what the read path actually consults — retuning the device knob at
#: runtime overrides this mount-time value, as on Linux.
MAX_READAHEAD = 128 * 1024


class FuseClientFs(Filesystem):
    """FUSE client filesystem forwarding operations to a userspace server."""

    fs_type = "fuse.cntrfs"
    #: O_DIRECT is unsupported because CntrFS chose mmap support instead
    #: (xfstests #391 analogue).
    supports_direct_io = False
    #: Inodes are not exportable by handle (xfstests #426 analogue).
    supports_export_handles = False
    #: ACLs are delegated to the backing filesystem, so chmod does not
    #: interpret them (xfstests #375 analogue).
    interprets_acls_on_chmod = False
    #: RLIMIT_FSIZE of the writing process is not enforced when operations are
    #: replayed by the server (xfstests #228 analogue).
    enforces_fsize_limit = False

    def __init__(self, name: str, clock: VirtualClock, costs: CostModel,
                 connection: FuseConnection, options: FuseMountOptions | None = None,
                 tracer: Tracer | None = None,
                 page_cache_bytes: int = 12 << 30,
                 writeback_tunables: VmTunables | None = None) -> None:
        super().__init__(name, clock, costs, tracer, capacity_bytes=1 << 50)
        self.connection = connection
        self.options = options or FuseMountOptions()
        self.page_cache = PageCache(max_bytes=page_cache_bytes, page_size=costs.page_size)
        self._entry_cache: dict[tuple[int, str], int] = {}
        self._attr_fresh: set[int] = set()
        #: The FUSE connection is this filesystem's "backing device"; its BDI
        #: shapes writeback flushes (and, with a read bandwidth, cache-miss
        #: fetches) when given a modelled bandwidth.  Its readahead window
        #: defaults to exactly MAX_READAHEAD and is retunable per device
        #: through /sys/class/bdi/<dev>/read_ahead_kb.
        self.bdi = BacklogDeviceInfo(f"{name}-fuse-conn",
                                     default_read_ahead_bytes=MAX_READAHEAD)
        #: The unified writeback engine; the default background threshold is
        #: the seed's aggregation limit, so flush points are byte-identical.
        self.writeback = WritebackEngine(
            name,
            writeback_tunables or VmTunables(
                dirty_background_bytes=costs.writeback_batch_bytes),
            self._writeback_flush, clock=clock, bdi=self.bdi)
        self._pending_forgets: list[int] = []
        #: Crash pre-images: backing-file content captured before the first
        #: unflushed writeback write dirties an inode.  The eager WRITE
        #: forwarding below keeps the simulated data consistent, but those
        #: bytes are not durable until the dirty pages flush — on a client
        #: power-fail the server rewinds each still-dirty file to its shadow.
        self._crash_shadow: dict[int, FileData] = {}
        #: When True (the default, as in Linux) every write triggers an
        #: uncached security.capability xattr lookup round trip.
        self.xattr_lookup_on_write = True
        # Replace the root placeholder created by the base class with a proxy
        # whose nodeid follows the FUSE convention (1).
        self._send_init()

    # ------------------------------------------------------------ protocol I/O
    def _send_init(self) -> None:
        request = FuseRequest(FuseOpcode.INIT, nodeid=1,
                              args={"options": self.options})
        # Negotiate the bounded background queue; the default 0 leaves it
        # unmodelled.
        self.connection.configure_queue(self.options.max_background)
        self.connection.request(request)
        self.connection.mark_mounted()
        # Fetch the real root attributes from the server.
        reply = self._send(FuseOpcode.GETATTR, 1, {})
        if reply.attr is not None:
            self._update_proxy(1, reply.attr)

    def _overhead(self, nreq: int, dirop: bool, payload: int, received: int) -> float:
        """Protocol cost of ``nreq`` requests transferring ``payload`` /
        ``received`` bytes in total.

        This is the arithmetic (O(1)) form of charging one request per
        ``max_read``/``MAX_WRITE``-sized chunk: the per-request fixed costs
        (queueing, small reply, dirop serialization, thread contention,
        splice pipe setup, splice header peek) scale with ``nreq``, the copy
        and splice byte costs are linear in the totals, so the sum is exact.
        """
        costs = self.costs
        options = self.options
        overhead = (costs.fuse_request_ns + costs.fuse_small_reply_ns) * nreq
        if dirop and not options.parallel_dirops:
            overhead += costs.fuse_request_ns * 1.5 * nreq
        if options.threads > 1:
            overhead += (costs.fuse_thread_contention_ns *
                         math.log2(options.threads) * nreq)
        if payload:
            if options.splice_write:
                # Splice writes need an extra context switch to peek the header.
                overhead += (costs.fuse_splice_setup_ns +
                             costs.context_switch_ns) * nreq
                overhead += costs.splice_per_byte_ns * payload
            else:
                overhead += costs.copy_cost(payload)
        if received:
            if options.splice_read:
                overhead += costs.fuse_splice_setup_ns * nreq
                overhead += costs.splice_per_byte_ns * received
            else:
                overhead += costs.copy_cost(received)
        return overhead

    def _send(self, opcode: FuseOpcode, nodeid: int, args: dict,
              payload: bytes = b"", expected_reply_bytes: int = 0,
              dirop: bool = False, nreq: int = 1) -> FuseReply:
        """Send one dispatch standing for ``nreq`` wire requests, charging
        their protocol costs up front, and return the reply.

        The server handles a coalesced extent (``nreq`` > 1) as one operation
        but accounts ``nreq`` requests (see
        :class:`repro.fuse.protocol.FuseRequest`).  Modelling choice: on an
        error reply the whole batch has already been charged and counted,
        whereas a chunked loop stopped at the first failing wire request.
        Error paths feed no figure, so the one-shot charge stays there.
        """
        overhead = int(self._overhead(nreq, dirop, len(payload), expected_reply_bytes))
        self.clock.advance(overhead)
        tracer = self.tracer
        if tracer.active:
            tracer.emit(self.clock.now_ns, f"fuse.{OPCODE_NAME[opcode].lower()}",
                        overhead, coalesced=nreq)
        request = FuseRequest(opcode, nodeid, args=args, payload=payload,
                              coalesced=nreq)
        reply = self.connection.request(request)
        if not reply.ok:
            raise FsError(reply.error)
        return reply

    # ------------------------------------------------------------ proxy inodes
    def _update_proxy(self, nodeid: int, attr: FuseAttr,
                      parent_ino: int | None = None, symlink_target: str = "") -> Inode:
        ftype = attr.mode & FileMode.S_IFMT
        existing = self._inodes.get(nodeid)
        if existing is None or existing.file_type != ftype:
            if ftype == FileMode.S_IFDIR:
                inode = DirectoryInode(ino=nodeid, mode=attr.mode)
            elif ftype == FileMode.S_IFLNK:
                inode = SymlinkInode(ino=nodeid, mode=attr.mode, target=symlink_target)
            elif ftype in (FileMode.S_IFBLK, FileMode.S_IFCHR):
                inode = DeviceInode(ino=nodeid, mode=attr.mode)
            elif ftype == FileMode.S_IFIFO:
                inode = FifoInode(ino=nodeid, mode=attr.mode)
            elif ftype == FileMode.S_IFSOCK:
                inode = SocketInode(ino=nodeid, mode=attr.mode)
            else:
                inode = RegularInode(ino=nodeid, mode=attr.mode,
                                     data=FileData(store=False))
            inode.fs_name = self.name
            self._inodes[nodeid] = inode
        inode = self._inodes[nodeid]
        inode.mode = attr.mode
        inode.uid = attr.uid
        inode.gid = attr.gid
        inode.nlink = attr.nlink
        inode.rdev = attr.rdev
        inode.atime_ns = attr.atime_ns
        inode.mtime_ns = attr.mtime_ns
        inode.ctime_ns = attr.ctime_ns
        inode.generation = attr.generation
        if isinstance(inode, RegularInode):
            inode.data.truncate(attr.size)
        if isinstance(inode, SymlinkInode) and symlink_target:
            inode.target = symlink_target
        if isinstance(inode, DirectoryInode) and parent_ino is not None:
            inode.parent_ino = parent_ino
        self._attr_fresh.add(nodeid)
        return inode

    def iget(self, ino: int) -> Inode:
        inode = self._inodes.get(ino)
        if inode is not None:
            return inode
        # Unknown nodeid: ask the server (can happen after cache invalidation).
        reply = self._send(FuseOpcode.GETATTR, ino, {})
        if reply.attr is None:
            raise FsError.estale(f"nodeid {ino}")
        return self._update_proxy(ino, reply.attr)

    def _forget(self, nodeid: int) -> None:
        self._attr_fresh.discard(nodeid)
        self._pending_forgets.append(nodeid)
        if len(self._pending_forgets) >= FORGET_BATCH_SIZE:
            self.flush_forgets()

    def flush_forgets(self) -> None:
        """Flush batched FORGET intents (on batch overflow and at unmount).

        However many nodeids accumulated, the cost is charged arithmetically
        per FORGET_BATCH_SIZE-sized batch and the whole set goes out as one
        coalesced BATCH_FORGET dispatch.
        """
        count = len(self._pending_forgets)
        if not count:
            return
        batches = math.ceil(count / FORGET_BATCH_SIZE)
        self.clock.advance(self.costs.fuse_forget_batch_ns * batches)
        self.connection.request(FuseRequest(
            FuseOpcode.BATCH_FORGET, 0,
            args={"nodeids": list(self._pending_forgets)}, coalesced=batches))
        self.connection.stats.forgets_batched += count
        self._pending_forgets.clear()

    def drop_caches(self, mode: int = 3) -> None:
        """``echo mode > /proc/sys/vm/drop_caches`` for this mount: 1 drops
        the page cache (flushing the writeback buffer first), 2 the dentry
        and attribute caches (the FUSE analogue of the slab caches)."""
        if mode & 1:
            self.flush_writeback()
            self.page_cache.invalidate_all()
        if mode & 2:
            self._entry_cache.clear()
            self._attr_fresh.clear()
            self.invalidate_dentries()

    # ------------------------------------------------------------ open hooks
    def on_open(self, ino: int, flags: int) -> None:
        """Called by the VFS when a file backed by this mount is opened."""
        self._send(FuseOpcode.OPEN, ino, {"flags": int(flags)})
        if not self.options.keep_cache:
            # Without FOPEN_KEEP_CACHE the kernel invalidates the inode's page
            # cache on every open, so the cache is never shared across opens.
            # Dirty pages are written back first (invalidate_inode_pages2
            # semantics): dropping them while their bytes still sat in the
            # writeback engine would make the next flush charge WRITE
            # requests for pages that no longer exist.
            if self.writeback.pending(ino):
                self.flush_writeback(ino)
            self.page_cache.invalidate(ino)

    def on_release(self, ino: int) -> None:
        """Called by the VFS when the last descriptor for an inode is closed."""
        if self.writeback.pending(ino):
            self.flush_writeback(ino)
        self.connection.request(FuseRequest(FuseOpcode.RELEASE, ino, args={}))

    # ------------------------------------------------------------ dir operations
    def charge_lookup_hit(self, dir_ino: int, name: str, ino: int) -> None:
        if ino in self._inodes and ino in self._attr_fresh:
            # Matches the entry-cache hit path below: half an in-kernel tmpfs op.
            self.clock.advance(int(self.costs.tmpfs_op_ns * 0.5))
        else:
            # Stale proxy attributes (e.g. after fallocate): the kernel
            # revalidates with a full LOOKUP round trip, as the entry-cache
            # miss path always did.
            self.lookup(dir_ino, name)

    def lookup(self, dir_ino: int, name: str) -> Inode:
        cached = self._entry_cache.get((dir_ino, name))
        if cached is not None and cached in self._inodes and cached in self._attr_fresh:
            # Dentry-cache hit: no round trip, only the in-kernel cost.
            self.clock.advance(int(self.costs.tmpfs_op_ns * 0.5))
            return self._inodes[cached]
        reply = self._send(FuseOpcode.LOOKUP, dir_ino, {"name": name}, dirop=True)
        if reply.attr is None or reply.nodeid is None:
            raise FsError.enoent(name)
        inode = self._update_proxy(reply.nodeid, reply.attr, parent_ino=dir_ino,
                                   symlink_target=reply.target)
        self._entry_cache[(dir_ino, name)] = reply.nodeid
        return inode

    def create(self, dir_ino: int, name: str, mode: int, uid: int = 0,
               gid: int = 0) -> RegularInode:
        reply = self._send(FuseOpcode.CREATE, dir_ino,
                           {"name": name, "mode": mode, "uid": uid, "gid": gid},
                           dirop=True)
        inode = self._update_proxy(reply.nodeid, reply.attr, parent_ino=dir_ino)
        self._entry_cache[(dir_ino, name)] = reply.nodeid
        assert isinstance(inode, RegularInode)
        return inode

    def mkdir(self, dir_ino: int, name: str, mode: int, uid: int = 0,
              gid: int = 0) -> DirectoryInode:
        reply = self._send(FuseOpcode.MKDIR, dir_ino,
                           {"name": name, "mode": mode, "uid": uid, "gid": gid},
                           dirop=True)
        inode = self._update_proxy(reply.nodeid, reply.attr, parent_ino=dir_ino)
        self._entry_cache[(dir_ino, name)] = reply.nodeid
        assert isinstance(inode, DirectoryInode)
        return inode

    def symlink(self, dir_ino: int, name: str, target: str, uid: int = 0,
                gid: int = 0) -> SymlinkInode:
        reply = self._send(FuseOpcode.SYMLINK, dir_ino,
                           {"name": name, "target": target, "uid": uid, "gid": gid},
                           dirop=True)
        inode = self._update_proxy(reply.nodeid, reply.attr, parent_ino=dir_ino,
                                   symlink_target=target)
        self._entry_cache[(dir_ino, name)] = reply.nodeid
        assert isinstance(inode, SymlinkInode)
        return inode

    def mknod(self, dir_ino: int, name: str, mode: int, rdev: int = 0,
              uid: int = 0, gid: int = 0) -> Inode:
        reply = self._send(FuseOpcode.MKNOD, dir_ino,
                           {"name": name, "mode": mode, "rdev": rdev,
                            "uid": uid, "gid": gid}, dirop=True)
        inode = self._update_proxy(reply.nodeid, reply.attr, parent_ino=dir_ino)
        self._entry_cache[(dir_ino, name)] = reply.nodeid
        return inode

    def link(self, dir_ino: int, name: str, target_ino: int) -> Inode:
        reply = self._send(FuseOpcode.LINK, dir_ino,
                           {"name": name, "target": target_ino}, dirop=True)
        inode = self._update_proxy(reply.nodeid, reply.attr)
        self._entry_cache[(dir_ino, name)] = reply.nodeid
        return inode

    def unlink(self, dir_ino: int, name: str) -> None:
        self._send(FuseOpcode.UNLINK, dir_ino, {"name": name}, dirop=True)
        self.invalidate_dentries()
        nodeid = self._entry_cache.pop((dir_ino, name), None)
        if nodeid is not None:
            self._forget(nodeid)

    def rmdir(self, dir_ino: int, name: str) -> None:
        self._send(FuseOpcode.RMDIR, dir_ino, {"name": name}, dirop=True)
        self.invalidate_dentries()
        nodeid = self._entry_cache.pop((dir_ino, name), None)
        if nodeid is not None:
            self._forget(nodeid)

    def rename(self, old_dir: int, old_name: str, new_dir: int, new_name: str,
               flags: int = 0) -> None:
        self._send(FuseOpcode.RENAME2 if flags else FuseOpcode.RENAME, old_dir,
                   {"old_name": old_name, "new_dir": new_dir,
                    "new_name": new_name, "flags": flags}, dirop=True)
        self.invalidate_dentries()
        nodeid = self._entry_cache.pop((old_dir, old_name), None)
        overwritten = self._entry_cache.pop((new_dir, new_name), None)
        if overwritten is not None and overwritten != nodeid \
                and not (flags & RenameFlags.RENAME_EXCHANGE):
            # Rename over an existing entry: the replaced inode's proxy
            # attributes (nlink above all) are stale now, and the kernel
            # drops its dentry reference exactly as unlink does.  An open
            # descriptor keeps the inode readable through its nodeid.
            self._forget(overwritten)
        if nodeid is not None:
            self._entry_cache[(new_dir, new_name)] = nodeid
            inode = self._inodes.get(nodeid)
            if isinstance(inode, DirectoryInode):
                inode.parent_ino = new_dir

    def readdir(self, dir_ino: int) -> list[tuple[str, int, int]]:
        self._send(FuseOpcode.OPENDIR, dir_ino, {})
        reply = self._send(FuseOpcode.READDIR, dir_ino, {},
                           expected_reply_bytes=4096, dirop=True)
        self.connection.request(FuseRequest(FuseOpcode.RELEASEDIR, dir_ino, args={}))
        entries = [(".", dir_ino, int(FileMode.S_IFDIR)),
                   ("..", dir_ino, int(FileMode.S_IFDIR))]
        entries.extend(reply.entries)
        return entries

    def readlink(self, ino: int) -> str:
        inode = self._inodes.get(ino)
        if isinstance(inode, SymlinkInode) and inode.target:
            self.clock.advance(int(self.costs.tmpfs_op_ns * 0.5))
            return inode.target
        reply = self._send(FuseOpcode.READLINK, ino, {}, expected_reply_bytes=256)
        return reply.target

    # ------------------------------------------------------------ data I/O
    def read(self, ino: int, offset: int, size: int) -> bytes:
        inode = self.iget(ino)
        if not isinstance(inode, RegularInode):
            raise FsError.einval(f"nodeid {ino} has no data")
        size = max(0, min(size, inode.size - offset))
        if size == 0:
            self.clock.advance(self.costs.syscall_ns)
            return b""
        hits, misses = self.page_cache.access(ino, offset, size)
        if hits:
            self.clock.advance(int(self.costs.page_cache_hit_per_byte_ns *
                                   hits * self.costs.page_size))
        if misses:
            # Readahead: the kernel issues large readahead-window requests,
            # so subsequent sequential reads hit the page cache instead of
            # paying one round trip per call.  The window is the device's
            # (/sys/class/bdi read_ahead_kb, MAX_READAHEAD unless retuned);
            # 0 disables readahead.
            readahead = self.bdi.read_ahead_bytes
            if readahead > 0:
                fetch_size = min(max(size, readahead), inode.size - offset)
                granule = readahead
            else:
                fetch_size = size
                granule = 4 * self.costs.page_size
            self.page_cache.access(ino, offset, fetch_size)
            # The whole fetch extent goes out as one coalesced dispatch whose
            # request count and transfer costs are computed arithmetically
            # (ceil-div by the request granule) instead of looping per chunk.
            # The granule travels with the request so the server charges its
            # backing filesystem per wire request, exactly as a chunked
            # dispatch loop would have.
            nreq = max(1, -(-fetch_size // granule))
            if readahead > 0:
                # Readahead requests ride the kernel's background queue; a
                # window larger than max_background congests the submitter.
                self.connection.submit_background(nreq)
            reply = self._send(FuseOpcode.READ, ino,
                               {"offset": offset, "size": fetch_size,
                                "granule": granule},
                               expected_reply_bytes=fetch_size, nreq=nreq)
            # Read-side BDI shaping: the wire fetch pays bytes/bandwidth on
            # top of the protocol costs (0 = unshaped, the default).
            self.bdi.charge_read(self.clock, fetch_size)
            return bytes(reply.data[:size])
        # Full page-cache hit: fetch the bytes from the server without
        # charging a round trip (the data is already resident in the kernel;
        # the fetch below is only for simulation correctness).
        reply = self.connection.request(
            FuseRequest(FuseOpcode.READ, ino, args={"offset": offset, "size": size,
                                                    "cache_fill": True}))
        if not reply.ok:
            # Fall back to a real round trip if the cheap path failed.
            reply = self._send(FuseOpcode.READ, ino,
                               {"offset": offset, "size": size},
                               expected_reply_bytes=size)
        return reply.data

    def write(self, ino: int, offset: int, data: bytes) -> int:
        inode = self.iget(ino)
        if not isinstance(inode, RegularInode):
            raise FsError.einval(f"nodeid {ino} has no data")
        size = len(data)
        if self.xattr_lookup_on_write:
            # The kernel checks security.capability before every write and the
            # FUSE protocol offers no way to cache the (missing) attribute.
            # The probe is cheaper than a full data request (tiny negative
            # reply), so it is charged at a fraction of the base request cost.
            self.clock.advance(int(self.costs.fuse_request_ns * 0.4))
            self.connection.request(FuseRequest(
                FuseOpcode.GETXATTR, ino, args={"name": "security.capability"}))
        if self.options.writeback_cache:
            self._capture_crash_shadow(ino)
            self.page_cache.write(ino, offset, size)
            self.clock.advance(int(self.costs.page_cache_hit_per_byte_ns * size))
            # Data still has to reach the server for correctness; the request
            # below carries no protocol cost because the writeback flush
            # accounts for it in aggregated form.
            self.connection.request(FuseRequest(
                FuseOpcode.WRITE, ino,
                args={"offset": offset, "size": size, "writeback": True},
                payload=bytes(data)))
            # The engine accounts the dirty bytes and runs the simulated
            # flusher threads against the vm.dirty_* thresholds; only then
            # may memory pressure react (reclaim must find the pending
            # counters so it can flush-before-drop).
            self.writeback.note_dirty(ino, size)
            self.page_cache.balance_pressure()
        elif size:
            # Synchronous writes: one coalesced dispatch per extent, with the
            # MAX_WRITE-sized request count computed by ceil-div; the granule
            # lets the server charge its backing store per wire request.
            self._send(FuseOpcode.WRITE, ino,
                       {"offset": offset, "size": size, "granule": MAX_WRITE},
                       payload=bytes(data), nreq=-(-size // MAX_WRITE))
            self.page_cache.write(ino, offset, size)
            self.page_cache.balance_pressure()
        inode.data.truncate(max(inode.size, offset + size))
        inode.mtime_ns = self.clock.now_ns
        return size

    def flush_writeback(self, ino: int | None = None) -> int:
        """Flush the writeback buffer, charging the aggregated WRITE requests."""
        return self.writeback.flush(ino)

    def _writeback_flush(self, items: list[tuple[int, int]], reason: str) -> None:
        """Writeback price of this filesystem, paid when the engine flushes.

        The aggregated flush is charged arithmetically: ceil-div each inode's
        pending bytes by MAX_WRITE for the request count, then one linear
        transfer cost for the whole extent.
        """
        for node, pending in items:
            requests = max(1, math.ceil(pending / MAX_WRITE))
            # The flusher queues the whole inode batch on the background
            # list before any of it is serviced; admission may stall on the
            # congestion threshold.
            self.connection.submit_background(requests)
            self.clock.advance(int(self._overhead(requests, False, pending, 0)))
            self.clock.advance(self.costs.fuse_writeback_flush_ns)
            self.page_cache.clean(node)
            # The flushed bytes are on the server now: the inode's data would
            # survive a client crash, so its pre-image shadow is retired.
            self._crash_shadow.pop(node, None)

    def _drop_pagecache_range(self, ino: int, start_page: int,
                              end_page: int | None = None) -> int:
        """Invalidate a page range, keeping the writeback engine in lockstep.

        Pages dropped here disappear *without* writeback (Linux semantics for
        truncated / hole-punched data), so once an inode has no dirty pages
        left its pending bytes are discarded rather than charged later.
        While dirty pages remain, the pending bytes stay: the eventual flush
        cleans and pays for them.
        """
        dropped = self.page_cache.invalidate_range(ino, start_page, end_page)
        if dropped and self.page_cache.dirty_page_count(ino) == 0:
            self.writeback.discard(ino)
            # Every formerly-dirty page was truncated or punched away, and
            # those same extents were zeroed synchronously on the server —
            # nothing volatile distinguishes the live file from its shadow.
            self._crash_shadow.pop(ino, None)
        return dropped

    def truncate(self, ino: int, size: int) -> None:
        reply = self._send(FuseOpcode.SETATTR, ino, {"size": size})
        if reply.attr is not None:
            self._update_proxy(ino, reply.attr)
        self._shadow_truncate(ino, size)
        self._truncate_pagecache(ino, size)

    def _truncate_pagecache(self, ino: int, size: int) -> None:
        """Linux ``truncate_pagecache``: only pages wholly beyond the new EOF
        are dropped (the partial page at EOF stays resident, zeroed by the
        server); extending a file drops nothing."""
        first_dropped = -(-size // self.costs.page_size)
        self._drop_pagecache_range(ino, first_dropped)

    def fallocate(self, ino: int, mode: int, offset: int, length: int) -> None:
        self._send(FuseOpcode.FALLOCATE, ino,
                   {"mode": mode, "offset": offset, "length": length})
        self._attr_fresh.discard(ino)
        shadow = self._crash_shadow.get(ino)
        if shadow is not None:
            # The server applied this synchronously; a crash must not undo it.
            if mode & FallocateMode.PUNCH_HOLE:
                shadow.punch_hole(offset, length)
            elif not mode & FallocateMode.KEEP_SIZE:
                shadow.truncate(max(len(shadow), offset + length))
        if mode & FallocateMode.PUNCH_HOLE:
            # Linux truncate_pagecache_range: pages wholly inside the hole
            # are dropped, so reads of the hole are not page-cache hits; the
            # partial pages at the edges stay (the server zeroes them).
            page = self.costs.page_size
            first = -(-offset // page)
            last = (offset + length) // page
            self._drop_pagecache_range(ino, first, last)

    def fsync(self, ino: int, datasync: bool = False) -> None:
        self.writeback.flush(ino, reason=WB_REASON_FSYNC)
        self._send(FuseOpcode.FSYNC, ino, {"datasync": datasync})

    def sync(self) -> None:
        self.flush_writeback()
        self._send(FuseOpcode.FSYNC, 1, {"datasync": False})

    # ------------------------------------------------------------ crash model
    def _capture_crash_shadow(self, ino: int) -> None:
        """Snapshot the backing file before its first unflushed dirtying.

        Pure bookkeeping: the snapshot travels outside the FUSE protocol and
        charges nothing, so the clean-path cost profile is untouched.
        """
        if ino in self._crash_shadow:
            return
        server = getattr(self.connection, "server", None)
        snapshot_of = getattr(server, "crash_snapshot", None)
        if snapshot_of is None:
            return
        shadow = snapshot_of(ino)
        if shadow is not None:
            self._crash_shadow[ino] = shadow

    def _shadow_truncate(self, ino: int, size: int) -> None:
        """Mirror a synchronous (hence durable) truncate onto the pre-image."""
        shadow = self._crash_shadow.get(ino)
        if shadow is not None:
            shadow.truncate(size)

    def crash(self) -> None:
        """Power-fail the client mount: the writeback cache's loss window.

        Metadata operations (create, rename, truncate, xattrs, ...) reached
        the server synchronously and survive.  Data written through the
        writeback cache was forwarded eagerly only to keep the simulated
        bytes consistent — until the dirty pages flush it is *not* durable,
        so every still-dirty backing file is rewound to its pre-image shadow.
        All client-side caches (pages, dentries, attributes, proxy inodes)
        die with the kernel, and the flusher timer is disarmed.
        """
        server = getattr(self.connection, "server", None)
        restore = getattr(server, "crash_restore", None)
        if restore is not None:
            for nodeid, shadow in self._crash_shadow.items():
                restore(nodeid, shadow)
        self._crash_shadow.clear()
        self.page_cache.invalidate_all()
        self.writeback.crash_discard()
        self._entry_cache.clear()
        self._attr_fresh.clear()
        self._pending_forgets.clear()
        # Proxy inodes are kernel memory; remount re-fetches them on demand.
        self._inodes.clear()
        super().crash()

    def remount(self) -> None:
        """Reconnect after :meth:`crash`: refresh the root, re-arm writeback."""
        reply = self._send(FuseOpcode.GETATTR, 1, {})
        if reply.attr is not None:
            self._update_proxy(1, reply.attr)
        self.writeback.retune()
        super().remount()

    # ------------------------------------------------------------ attributes
    def getattr(self, ino: int):
        if ino in self._attr_fresh and ino in self._inodes:
            self.clock.advance(int(self.costs.tmpfs_op_ns * 0.5))
            return self._inodes[ino].stat(st_dev=self.fs_id)
        reply = self._send(FuseOpcode.GETATTR, ino, {})
        inode = self._update_proxy(ino, reply.attr)
        return inode.stat(st_dev=self.fs_id)

    def setattr(self, ino: int, *, mode: int | None = None, uid: int | None = None,
                gid: int | None = None, size: int | None = None,
                atime_ns: int | None = None, mtime_ns: int | None = None) -> None:
        reply = self._send(FuseOpcode.SETATTR, ino,
                           {"mode": mode, "uid": uid, "gid": gid, "size": size,
                            "atime_ns": atime_ns, "mtime_ns": mtime_ns})
        if reply.attr is not None:
            self._update_proxy(ino, reply.attr)
        if size is not None:
            self._shadow_truncate(ino, size)
            self._truncate_pagecache(ino, size)

    # ------------------------------------------------------------ xattrs
    def setxattr(self, ino: int, name: str, value: bytes, flags: int = 0) -> None:
        self._send(FuseOpcode.SETXATTR, ino, {"name": name, "flags": flags},
                   payload=bytes(value))

    def getxattr(self, ino: int, name: str) -> bytes:
        reply = self._send(FuseOpcode.GETXATTR, ino, {"name": name},
                           expected_reply_bytes=256)
        return reply.data

    def listxattr(self, ino: int) -> list[str]:
        reply = self._send(FuseOpcode.LISTXATTR, ino, {}, expected_reply_bytes=256)
        return reply.names

    def removexattr(self, ino: int, name: str) -> None:
        self._send(FuseOpcode.REMOVEXATTR, ino, {"name": name})

    # ------------------------------------------------------------ misc
    def statfs(self) -> StatVfs:
        reply = self._send(FuseOpcode.STATFS, 1, {})
        if reply.statfs is not None:
            return reply.statfs
        return super().statfs()
