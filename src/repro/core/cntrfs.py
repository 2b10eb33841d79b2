"""CntrFS: the FUSE server that exports the fat container's (or host's) files.

The server runs as a process in the *serving* mount namespace (the host or the
fat container, depending on where the tools live) and handles FUSE requests
coming from the nested namespace inside the application container.  Nodeids
map to resolved positions (:class:`repro.fs.vfs.VNode`) in the serving
namespace, so the exported tree spans every mount the serving namespace can
see — exactly the property that lets a single debug container serve many
application containers.

Per the paper (§5.2.2), the expensive operation is LOOKUP: for every lookup
the server needs an ``open()`` + ``stat()`` pair on the backing filesystem to
detect hard links, which is what makes cold-cache, lookup-heavy workloads
(compilebench read-tree, postmark) the worst cases.
"""

from __future__ import annotations

import io

from repro.fs.errors import FsError
from repro.fs.inode import RegularInode, SymlinkInode
from repro.fs.vfs import VNode, VFS
from repro.fuse.protocol import FuseReply, FuseRequest
from repro.fuse.server import FuseServer
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process

#: The FUSE root nodeid.
ROOT_NODEID = 1


class CntrFS(FuseServer):
    """The CntrFS server."""

    def __init__(self, kernel: Kernel, server_process: Process,
                 export_root: VNode | None = None, threads: int = 4,
                 delay_sync: bool = True) -> None:
        super().__init__(threads=threads)
        self.kernel = kernel
        self.server_process = server_process
        #: The writeback-cache consistency trade-off (§3.3): fsync is
        #: acknowledged once the data reaches the server's page cache and the
        #: expensive device barrier is deferred to background writeback.  Set
        #: to False to restore strictly synchronous semantics (ablation).
        self.delay_sync = delay_sync
        self.vfs: VFS = kernel.vfs
        root = export_root or server_process.root
        self._nodes: dict[int, VNode] = {ROOT_NODEID: root}
        self._by_key: dict[tuple[int, int], int] = {(root.fs.fs_id, root.ino): ROOT_NODEID}
        self._next_nodeid = 2
        self._open_counts: dict[int, int] = {}

    # ------------------------------------------------------------- node table
    def _vnode(self, nodeid: int) -> VNode:
        vnode = self._nodes.get(nodeid)
        if vnode is None:
            raise FsError.estale(f"nodeid {nodeid}")
        return vnode

    def _register(self, vnode: VNode) -> int:
        key = (vnode.fs.fs_id, vnode.ino)
        nodeid = self._by_key.get(key)
        if nodeid is not None:
            self._nodes[nodeid] = vnode
            return nodeid
        nodeid = self._next_nodeid
        self._next_nodeid += 1
        self._nodes[nodeid] = vnode
        self._by_key[key] = nodeid
        return nodeid

    def _attr_of(self, vnode: VNode):
        return self.attr_from_stat(vnode.fs.getattr(vnode.ino))

    # ------------------------------------------------------------- handlers
    def _acknowledge(self, request: FuseRequest) -> FuseReply:
        return FuseReply(unique=request.unique)

    #: INIT accepts every option the client negotiates, OPENDIR needs no
    #: handle (READDIR lists by nodeid) and BATCH_FORGET drops nothing: a
    #: nodeid stays registered, so a later LOOKUP of its inode reuses it.
    op_init = op_opendir = op_batch_forget = _acknowledge

    def op_lookup(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        name = request.args["name"]
        # The open()+stat() pair CntrFS performs to detect whether the inode
        # was already seen under a different path (hard links).
        self.kernel.clock.advance(self.kernel.costs.fuse_lookup_userspace_ns)
        child_inode = parent.fs.lookup(parent.ino, name)
        child = VNode(parent.mount, child_inode.ino)
        child = VFS._cross_mounts(self.server_process.mnt_ns, child)
        nodeid = self._register(child)
        target = ""
        resolved = child.inode()
        if isinstance(resolved, SymlinkInode):
            target = resolved.target
        return FuseReply(unique=request.unique, nodeid=nodeid,
                         attr=self._attr_of(child), target=target)

    def op_getattr(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        return FuseReply(unique=request.unique, attr=self._attr_of(vnode))

    def op_setattr(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        args = request.args
        vnode.fs.setattr(vnode.ino,
                         mode=args.get("mode"), uid=args.get("uid"),
                         gid=args.get("gid"), size=args.get("size"),
                         atime_ns=args.get("atime_ns"), mtime_ns=args.get("mtime_ns"))
        return FuseReply(unique=request.unique, attr=self._attr_of(vnode))

    def op_readlink(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        return FuseReply(unique=request.unique, target=vnode.fs.readlink(vnode.ino))

    def op_symlink(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        args = request.args
        inode = parent.fs.symlink(parent.ino, args["name"], args["target"],
                                  uid=args.get("uid", 0), gid=args.get("gid", 0))
        child = VNode(parent.mount, inode.ino)
        return FuseReply(unique=request.unique, nodeid=self._register(child),
                         attr=self._attr_of(child), target=args["target"])

    def op_mknod(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        args = request.args
        inode = parent.fs.mknod(parent.ino, args["name"], args["mode"],
                                args.get("rdev", 0), uid=args.get("uid", 0),
                                gid=args.get("gid", 0))
        child = VNode(parent.mount, inode.ino)
        return FuseReply(unique=request.unique, nodeid=self._register(child),
                         attr=self._attr_of(child))

    def op_mkdir(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        args = request.args
        inode = parent.fs.mkdir(parent.ino, args["name"], args["mode"],
                                uid=args.get("uid", 0), gid=args.get("gid", 0))
        child = VNode(parent.mount, inode.ino)
        return FuseReply(unique=request.unique, nodeid=self._register(child),
                         attr=self._attr_of(child))

    def op_create(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        args = request.args
        inode = parent.fs.create(parent.ino, args["name"], args["mode"],
                                 uid=args.get("uid", 0), gid=args.get("gid", 0))
        child = VNode(parent.mount, inode.ino)
        nodeid = self._register(child)
        self._open_counts[nodeid] = self._open_counts.get(nodeid, 0) + 1
        child.fs.pin(child.ino)
        return FuseReply(unique=request.unique, nodeid=nodeid,
                         attr=self._attr_of(child))

    def op_unlink(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        parent.fs.unlink(parent.ino, request.args["name"])
        return FuseReply(unique=request.unique)

    def op_rmdir(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        parent.fs.rmdir(parent.ino, request.args["name"])
        return FuseReply(unique=request.unique)

    def op_rename(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        args = request.args
        new_parent = self._vnode(args["new_dir"])
        if new_parent.fs is not parent.fs:
            raise FsError.exdev(args["new_name"])
        parent.fs.rename(parent.ino, args["old_name"], new_parent.ino,
                         args["new_name"], args.get("flags", 0))
        return FuseReply(unique=request.unique)

    op_rename2 = op_rename

    def op_link(self, request: FuseRequest) -> FuseReply:
        parent = self._vnode(request.nodeid)
        args = request.args
        target = self._vnode(args["target"])
        if target.fs is not parent.fs:
            raise FsError.exdev(args["name"])
        inode = parent.fs.link(parent.ino, args["name"], target.ino)
        child = VNode(parent.mount, inode.ino)
        return FuseReply(unique=request.unique, nodeid=self._register(child),
                         attr=self._attr_of(child))

    def op_open(self, request: FuseRequest) -> FuseReply:
        nodeid = request.nodeid
        vnode = self._vnode(nodeid)
        self._open_counts[nodeid] = self._open_counts.get(nodeid, 0) + 1
        # Hold the backing inode open for as long as the client does, so that
        # unlink-while-open keeps working through the FUSE boundary.
        vnode.fs.pin(vnode.ino)
        return FuseReply(unique=request.unique)

    def op_release(self, request: FuseRequest) -> FuseReply:
        nodeid = request.nodeid
        if nodeid in self._open_counts:
            self._open_counts[nodeid] -= 1
            if self._open_counts[nodeid] <= 0:
                del self._open_counts[nodeid]
            vnode = self._nodes.get(nodeid)
            if vnode is not None:
                vnode.fs.unpin(vnode.ino)
        return FuseReply(unique=request.unique)

    op_releasedir = op_release

    def op_read(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        args = request.args
        if args.get("cache_fill"):
            # The client's page cache already holds these bytes; the transfer
            # exists only to keep the simulated data consistent, so it must
            # not charge backing-filesystem costs.
            inode = vnode.inode()
            data = inode.data.read(args["offset"], args["size"]) \
                if isinstance(inode, RegularInode) else b""
            return FuseReply(unique=request.unique, data=data)
        offset, size = args["offset"], args["size"]
        granule = args.get("granule") or size
        if granule >= size:
            data = vnode.fs.read(vnode.ino, offset, size)
        else:
            # Coalesced dispatch: replay the backing reads at wire-request
            # granularity so per-call fixed costs (device seeks, metadata
            # charges) match a chunked request loop exactly.  The buffer is
            # sized once and each chunk is copied in as it arrives, so at
            # most one chunk is alive beside it, and ``getvalue`` hands it
            # over without another copy.  A final join over every chunk would
            # double the peak of a 1 MiB read; once live data fills glibc's
            # heap, that peak makes glibc trim the heap and fault it back in
            # on every read.
            out = io.BytesIO()
            out.seek(size - 1)
            out.write(b"\0")
            out.seek(0)
            for pos in range(offset, offset + size, granule):
                out.write(vnode.fs.read(vnode.ino, pos, min(granule, offset + size - pos)))
            out.truncate()  # a short read at end of file
            data = out.getvalue()
        return FuseReply(unique=request.unique, data=data)

    def op_write(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        offset = request.args["offset"]
        payload = request.payload
        granule = request.args.get("granule") or len(payload)
        if granule >= len(payload):
            written = vnode.fs.write(vnode.ino, offset, payload)
        else:
            # Coalesced dispatch: charge the backing store per wire request.
            view = memoryview(payload)
            written = 0
            for pos in range(0, len(payload), granule):
                written += vnode.fs.write(vnode.ino, offset + pos,
                                          bytes(view[pos:pos + granule]))
        return FuseReply(unique=request.unique, size=written)

    def op_readdir(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        entries = [(name, ino, ftype)
                   for name, ino, ftype in vnode.fs.readdir(vnode.ino)
                   if name not in (".", "..")]
        return FuseReply(unique=request.unique, entries=entries)

    def op_statfs(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        return FuseReply(unique=request.unique, statfs=vnode.fs.statfs())

    def op_fsync(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        if self.delay_sync:
            # Delayed-sync semantics: data already sits in the backing page
            # cache (the WRITE requests put it there); the device flush is
            # deferred, trading write consistency for performance exactly as
            # the paper's writeback optimization describes.
            return FuseReply(unique=request.unique)
        vnode.fs.fsync(vnode.ino, request.args.get("datasync", False))
        return FuseReply(unique=request.unique)

    def op_fallocate(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        args = request.args
        vnode.fs.fallocate(vnode.ino, args["mode"], args["offset"], args["length"])
        return FuseReply(unique=request.unique)

    def op_setxattr(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        vnode.fs.setxattr(vnode.ino, request.args["name"], request.payload,
                          request.args.get("flags", 0))
        return FuseReply(unique=request.unique)

    def op_getxattr(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        value = vnode.fs.getxattr(vnode.ino, request.args["name"])
        return FuseReply(unique=request.unique, data=value)

    def op_listxattr(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        return FuseReply(unique=request.unique, names=vnode.fs.listxattr(vnode.ino))

    def op_removexattr(self, request: FuseRequest) -> FuseReply:
        vnode = self._vnode(request.nodeid)
        vnode.fs.removexattr(vnode.ino, request.args["name"])
        return FuseReply(unique=request.unique)

    # ------------------------------------------------------ crash bookkeeping
    def crash_snapshot(self, nodeid: int):
        """Pre-image of a backing file's content, for the client crash model.

        The client's writeback cache forwards WRITEs to the server eagerly so
        the simulated data stays consistent, but those bytes are *not* durable
        until the client flushes its dirty pages.  Before the first unflushed
        write dirties a file, the client captures this pre-image; if the
        client power-fails it hands the image back via :meth:`crash_restore`.
        Pure bookkeeping — no costs, no stats, no page-cache traffic.
        """
        vnode = self._nodes.get(nodeid)
        if vnode is None:
            return None
        try:
            inode = vnode.inode()
        except FsError:
            return None
        if not isinstance(inode, RegularInode):
            return None
        return inode.data.clone()

    def crash_restore(self, nodeid: int, snapshot) -> None:
        """Rewind a backing file to a :meth:`crash_snapshot` pre-image."""
        vnode = self._nodes.get(nodeid)
        if vnode is None or snapshot is None:
            return
        try:
            inode = vnode.inode()
        except FsError:
            return
        if isinstance(inode, RegularInode):
            inode.data = snapshot
