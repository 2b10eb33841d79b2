"""Path-level VFS: path resolution, permissions, open file descriptions.

The VFS sits between the per-process syscall facade (:mod:`repro.kernel.syscalls`)
and the concrete filesystems.  It implements everything that in Linux lives in
``fs/namei.c`` and ``fs/open.c``: walking paths across mounts and symlinks,
permission checks (including capability overrides), the open-flag semantics,
sticky-bit deletion rules, setuid/setgid clearing and the ``RLIMIT_FSIZE``
check whose absence in CntrFS reproduces xfstests failure #228.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from sys import intern as _intern

from repro.fs.constants import (
    AccessMode,
    FileMode,
    OpenFlags,
    SeekWhence,
    SYMLOOP_MAX,
    PATH_MAX,
)
from repro.fs.errors import FsError
from repro.fs.filesystem import Filesystem
from repro.fs.inode import DirectoryInode, Inode, RegularInode, SymlinkInode
from repro.fs.mount import Mount, MountNamespace
from repro.fs.stat import FileStat, StatVfs

#: Capabilities relevant to filesystem access control.
CAP_DAC_OVERRIDE = "CAP_DAC_OVERRIDE"
CAP_DAC_READ_SEARCH = "CAP_DAC_READ_SEARCH"
CAP_FOWNER = "CAP_FOWNER"
CAP_FSETID = "CAP_FSETID"
CAP_CHOWN = "CAP_CHOWN"
CAP_MKNOD = "CAP_MKNOD"
CAP_SYS_ADMIN = "CAP_SYS_ADMIN"
CAP_SYS_CHROOT = "CAP_SYS_CHROOT"
CAP_SETUID = "CAP_SETUID"
CAP_SETGID = "CAP_SETGID"
CAP_NET_ADMIN = "CAP_NET_ADMIN"
CAP_SYS_PTRACE = "CAP_SYS_PTRACE"
CAP_KILL = "CAP_KILL"
CAP_AUDIT_WRITE = "CAP_AUDIT_WRITE"

#: The default capability bounding set Docker grants to containers.
DEFAULT_CONTAINER_CAPS = frozenset({
    CAP_CHOWN, CAP_DAC_OVERRIDE, CAP_FOWNER, CAP_FSETID, CAP_KILL,
    CAP_MKNOD, CAP_SETGID, CAP_SETUID, CAP_SYS_CHROOT, CAP_AUDIT_WRITE,
})

#: Everything (what a root process on the host holds).
ALL_CAPS = DEFAULT_CONTAINER_CAPS | frozenset({
    CAP_DAC_READ_SEARCH, CAP_SYS_ADMIN, CAP_NET_ADMIN, CAP_SYS_PTRACE,
})

#: Plain-int copies of the open-flag bits checked on every read/write; going
#: through ``IntFlag.__and__`` per I/O syscall dominates the actual check.
_O_ACCMODE = int(OpenFlags.O_ACCMODE)
_O_RDONLY = int(OpenFlags.O_RDONLY)
_O_WRONLY = int(OpenFlags.O_WRONLY)
_O_RDWR = int(OpenFlags.O_RDWR)
_O_APPEND = int(OpenFlags.O_APPEND)
_O_SYNC = int(OpenFlags.O_SYNC)
_O_DSYNC = int(OpenFlags.O_DSYNC)
_O_NOFOLLOW = int(OpenFlags.O_NOFOLLOW)
_O_CREAT = int(OpenFlags.O_CREAT)
_O_EXCL = int(OpenFlags.O_EXCL)
_O_DIRECTORY = int(OpenFlags.O_DIRECTORY)
_O_DIRECT = int(OpenFlags.O_DIRECT)
_O_TRUNC = int(OpenFlags.O_TRUNC)

#: Same treatment for the rwx access bits and the sticky bit: the permission
#: check runs on every path component of every syscall.
_R_OK = int(AccessMode.R_OK)
_W_OK = int(AccessMode.W_OK)
_X_OK = int(AccessMode.X_OK)
_S_ISVTX = int(FileMode.S_ISVTX)

#: Memoised ``path -> components`` splits with interned component strings.
#: Path resolution re-splits the same handful of paths on every syscall, and
#: interning makes the dcache's ``(mount, ino, name)`` key hashing/equality a
#: pointer comparison.  The table is a pure function of the path string, so
#: sharing it process-wide is safe; wholesale clearing bounds its size.
_SPLIT_CACHE_MAX = 16384
_split_cache: dict[str, tuple[str, ...]] = {}


def _split_components(path: str) -> tuple[str, ...]:
    comps = _split_cache.get(path)
    if comps is None:
        if len(_split_cache) >= _SPLIT_CACHE_MAX:
            _split_cache.clear()
        comps = tuple(_intern(c) for c in path.split("/") if c)
        _split_cache[path] = comps
    return comps


@dataclass(frozen=True)
class Credentials:
    """Identity and privilege of the caller of a VFS operation."""

    uid: int = 0
    gid: int = 0
    groups: frozenset[int] = frozenset()
    capabilities: frozenset[str] = ALL_CAPS
    umask: int = 0o022
    #: ``RLIMIT_FSIZE`` in bytes, or None for unlimited.
    fsize_limit: int | None = None

    def has_cap(self, cap: str) -> bool:
        """True when the caller holds ``cap``."""
        return cap in self.capabilities

    def all_gids(self) -> frozenset[int]:
        """Primary plus supplementary group ids."""
        return self.groups | {self.gid}

    def with_caps(self, caps: frozenset[str]) -> "Credentials":
        """Copy of the credentials with a replaced capability set."""
        return replace(self, capabilities=frozenset(caps))


class VNode:
    """A resolved position in the mount tree: (mount, inode number).

    A hand-rolled value class rather than a frozen dataclass: path
    resolution creates one per component, and ``object.__setattr__`` in the
    generated frozen ``__init__`` is measurable at that volume.  Equality
    and hashing keep the (mount, ino) value semantics.
    """

    __slots__ = ("mount", "ino")

    def __init__(self, mount: Mount, ino: int) -> None:
        self.mount = mount
        self.ino = ino

    def __eq__(self, other: object) -> bool:
        if other.__class__ is VNode:
            return self.mount == other.mount and self.ino == other.ino
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mount, self.ino))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VNode(mount={self.mount!r}, ino={self.ino!r})"

    @property
    def fs(self) -> Filesystem:
        """Filesystem the inode lives on."""
        return self.mount.fs

    def inode(self) -> Inode:
        """The inode object."""
        return self.mount.fs.iget(self.ino)


@dataclass(slots=True)
class PathContext:
    """Everything path resolution needs from the calling process."""

    ns: MountNamespace
    root: VNode
    cwd: VNode
    creds: Credentials


class OpenFile:
    """An open file description (the thing a file descriptor points at)."""

    def __init__(self, vnode: VNode, flags: int, path: str, owner_pid: int = 0) -> None:
        self.vnode = vnode
        self.flags = int(flags)
        self.path = path
        self.owner_pid = owner_pid
        self.offset = 0
        self.closed = False
        vnode.fs.pin(vnode.ino)

    @property
    def fs(self) -> Filesystem:
        """Filesystem of the open inode."""
        return self.vnode.fs

    @property
    def ino(self) -> int:
        """Inode number of the open file."""
        return self.vnode.ino

    def inode(self) -> Inode:
        """The open inode."""
        return self.vnode.inode()

    @property
    def readable(self) -> bool:
        """True when the description permits reads."""
        acc = self.flags & _O_ACCMODE
        return acc == _O_RDONLY or acc == _O_RDWR

    @property
    def writable(self) -> bool:
        """True when the description permits writes."""
        acc = self.flags & _O_ACCMODE
        return acc == _O_WRONLY or acc == _O_RDWR

    @property
    def append(self) -> bool:
        """True for O_APPEND descriptions."""
        return bool(self.flags & _O_APPEND)

    def close(self) -> None:
        """Release the description (idempotent)."""
        if not self.closed:
            self.closed = True
            self.fs.release_locks(self.ino, self.owner_pid)
            release_hook = getattr(self.fs, "on_release", None)
            if callable(release_hook):
                release_hook(self.ino)
            self.fs.unpin(self.ino)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpenFile({self.path!r}, ino={self.ino}, flags={self.flags:#o})"


class DentryCache:
    """The VFS dentry cache (dcache): ``(mount, parent_ino, name) -> ino``.

    Path resolution used to re-walk every component through the concrete
    filesystem's ``lookup`` on every syscall; the dcache makes repeated walks
    O(components) dict probes, like ``fs/dcache.c``.  Correctness relies on
    per-filesystem dentry generations (:attr:`Filesystem.dentry_gen`): any
    operation that removes or rebinds an existing name — unlink, rmdir,
    rename, ``drop_caches`` — bumps the generation, instantly invalidating
    every cached entry of that filesystem.  Only positive entries are cached,
    so pure name additions need no invalidation, and filesystems with
    synthetic namespaces (procfs) opt out via ``dcacheable = False``.

    Mount and unmount need no invalidation at all: entries are keyed by the
    mount the walk is in and store the child inode *before* mount crossing,
    which resolution applies afterwards against the live mount table.
    """

    def __init__(self, max_entries: int = 1 << 20) -> None:
        self.max_entries = max_entries
        self._entries: dict[tuple[int, int, str], tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, mount: Mount, parent_ino: int, name: str) -> int | None:
        """Cached child ino, or None on a miss or a stale generation."""
        fs = mount.fs
        if not fs.dcacheable:
            return None
        key = (mount.mount_id, parent_ino, name)
        entry = self._entries.get(key)
        if entry is not None:
            ino, gen = entry
            if gen == fs.dentry_gen:
                self.hits += 1
                return ino
            del self._entries[key]
        self.misses += 1
        return None

    def insert(self, mount: Mount, parent_ino: int, name: str, ino: int) -> None:
        """Remember a positive lookup result."""
        fs = mount.fs
        if not fs.dcacheable:
            return
        if len(self._entries) >= self.max_entries:
            # Wholesale shrink: crude, O(1) amortized, and safe — the cache
            # refills from resolution traffic.
            self._entries.clear()
        self._entries[(mount.mount_id, parent_ino, name)] = (ino, fs.dentry_gen)

    def clear(self) -> None:
        """Drop every cached entry."""
        self._entries.clear()


class VFS:
    """Path-level filesystem operations over a mount namespace."""

    def __init__(self) -> None:
        self.dcache = DentryCache()

    # --------------------------------------------------------------- resolution
    def resolve(self, ctx: PathContext, path: str, *, follow: bool = True,
                want_parent: bool = False) -> VNode | tuple[VNode, str]:
        """Resolve ``path`` to a :class:`VNode`.

        With ``want_parent`` the final component is *not* resolved; the return
        value is ``(parent_vnode, final_name)`` which create-style operations
        use.
        """
        if not path:
            raise FsError.enoent(path)
        if len(path) > PATH_MAX:
            raise FsError.enametoolong(path)
        start = ctx.root if path.startswith("/") else ctx.cwd
        components = _split_components(path)
        if want_parent and not components:
            raise FsError.einval(path)
        return self._walk(ctx, start, components, follow=follow,
                          want_parent=want_parent, depth=0, orig_path=path)

    def _walk(self, ctx: PathContext, start: VNode, components: tuple[str, ...], *,
              follow: bool, want_parent: bool, depth: int,
              orig_path: str) -> VNode | tuple[VNode, str]:
        if depth > SYMLOOP_MAX:
            raise FsError.eloop(orig_path)
        current = self._cross_mounts(ctx.ns, start)
        creds = ctx.creds
        n = len(components)
        i = 0
        while i < n:
            name = components[i]
            is_last = i == n - 1
            # One iget per component: the is_dir test and the search-permission
            # check share the same inode object (observably identical to the
            # former separate _require_search fetch).
            inode = current.inode()
            if want_parent and is_last:
                self._check_access(inode, creds, _X_OK)
                return current, name
            if not inode.is_dir:
                raise FsError.enotdir("/".join(components[:i + 1]))
            self._check_access(inode, creds, _X_OK)
            child = self._lookup_component(ctx, current, name)
            child = self._cross_mounts(ctx.ns, child)
            child_inode = child.inode()
            if isinstance(child_inode, SymlinkInode) and (follow or not is_last):
                target = child.fs.readlink(child.ino)
                rest = components[i + 1:]
                new_components = _split_components(target) + rest
                new_start = ctx.root if target.startswith("/") else current
                return self._walk(ctx, new_start, new_components, follow=follow,
                                  want_parent=want_parent, depth=depth + 1,
                                  orig_path=orig_path)
            current = child
            i += 1
        return current

    def _lookup_component(self, ctx: PathContext, current: VNode, name: str) -> VNode:
        if name == ".":
            return current
        if name == "..":
            return self._lookup_dotdot(ctx, current)
        fs = current.fs
        cached = self.dcache.lookup(current.mount, current.ino, name)
        if cached is not None:
            # Dentry-cache hit: skip the filesystem lookup but charge the same
            # virtual cost its warm path would have, keeping figures invariant.
            fs.charge_lookup_hit(current.ino, name, cached)
            return VNode(current.mount, cached)
        inode = fs.lookup(current.ino, name)
        self.dcache.insert(current.mount, current.ino, name, inode.ino)
        return VNode(current.mount, inode.ino)

    def _lookup_dotdot(self, ctx: PathContext, current: VNode) -> VNode:
        # Never escape the process root (chroot jail).
        if current.mount is ctx.root.mount and current.ino == ctx.root.ino:
            return current
        mount = current.mount
        ino = current.ino
        # At a mount root: step up to the mountpoint in the parent mount first.
        while ino == mount.root_ino and mount.parent is not None:
            parent_mount = mount.parent
            ino = mount.mountpoint_ino if mount.mountpoint_ino is not None else parent_mount.root_ino
            mount = parent_mount
            if mount is ctx.root.mount and ino == ctx.root.ino:
                return VNode(mount, ino)
        inode = mount.fs.iget(ino)
        if isinstance(inode, DirectoryInode) and inode.parent_ino is not None:
            return VNode(mount, inode.parent_ino)
        return VNode(mount, ino)

    @staticmethod
    def _cross_mounts(ns: MountNamespace, vnode: VNode) -> VNode:
        stacked = ns.mount_at(vnode.mount, vnode.ino)
        if stacked is None:
            # Nothing mounted here (the overwhelmingly common case): hand the
            # caller's vnode back without allocating a copy.
            return vnode
        mount, ino = stacked, stacked.root_ino
        while True:
            stacked = ns.mount_at(mount, ino)
            if stacked is None:
                return VNode(mount, ino)
            mount, ino = stacked, stacked.root_ino

    # --------------------------------------------------------------- permissions
    def _check_access(self, inode: Inode, creds: Credentials, want: int) -> None:
        """Check rwx ``want`` bits (4/2/1) against mode, ACL and capabilities."""
        if want == 0:
            return
        acl_verdict = None
        if inode.acl is not None:
            acl_verdict = inode.acl.check(creds.uid, set(creds.all_gids()),
                                          inode.uid, inode.gid, want)
        if acl_verdict is None:
            if creds.uid == inode.uid:
                granted = (inode.mode >> 6) & 0o7
            elif inode.gid in creds.all_gids():
                granted = (inode.mode >> 3) & 0o7
            else:
                granted = inode.mode & 0o7
            allowed = (granted & want) == want
        else:
            allowed = acl_verdict
        if allowed:
            return
        # Capability overrides.
        if creds.has_cap(CAP_DAC_OVERRIDE):
            if want & _X_OK and inode.is_regular:
                # Exec requires at least one execute bit even for CAP_DAC_OVERRIDE.
                if not (inode.mode & 0o111):
                    raise FsError.eacces()
            return
        if creds.has_cap(CAP_DAC_READ_SEARCH) and not (want & _W_OK):
            if want & _X_OK and not inode.is_dir:
                raise FsError.eacces()
            return
        raise FsError.eacces()

    def _require_search(self, ctx: PathContext, dir_vnode: VNode) -> None:
        self._check_access(dir_vnode.inode(), ctx.creds, _X_OK)

    def _require_write_dir(self, ctx: PathContext, dir_vnode: VNode) -> None:
        if dir_vnode.mount.read_only:
            raise FsError.erofs(dir_vnode.mount.mountpoint_path)
        self._check_access(dir_vnode.inode(), ctx.creds, _W_OK | _X_OK)

    def _check_sticky_delete(self, ctx: PathContext, dir_inode: Inode,
                             victim: Inode) -> None:
        if not (dir_inode.mode & _S_ISVTX):
            return
        creds = ctx.creds
        if creds.uid in (victim.uid, dir_inode.uid) or creds.has_cap(CAP_FOWNER):
            return
        raise FsError.eperm()

    # --------------------------------------------------------------- open/close
    def open(self, ctx: PathContext, path: str, flags: int, mode: int = 0o644,
             owner_pid: int = 0) -> OpenFile:
        """``open(2)``."""
        flags = int(flags)
        want_write = (flags & _O_ACCMODE) in (_O_WRONLY, _O_RDWR)
        follow = not (flags & _O_NOFOLLOW)
        creds = ctx.creds

        if flags & _O_CREAT:
            parent, name = self.resolve(ctx, path, want_parent=True)
            try:
                existing = parent.fs.lookup(parent.ino, name)
                exists = True
            except FsError:
                existing = None
                exists = False
            if exists and flags & _O_EXCL:
                raise FsError.eexist(path)
            if not exists:
                self._require_write_dir(ctx, parent)
                effective_mode = mode & ~creds.umask & 0o7777
                inode = parent.fs.create(parent.ino, name, effective_mode,
                                         uid=creds.uid, gid=creds.gid)
                vnode = VNode(parent.mount, inode.ino)
                return self._finish_open(ctx, vnode, flags, path, owner_pid,
                                         just_created=True)
            vnode = self._cross_mounts(ctx.ns, VNode(parent.mount, existing.ino))
            if isinstance(vnode.inode(), SymlinkInode) and follow:
                vnode = self.resolve(ctx, path, follow=True)
        else:
            vnode = self.resolve(ctx, path, follow=follow)

        inode = vnode.inode()
        if isinstance(inode, SymlinkInode):
            raise FsError.eloop(path)
        if flags & _O_DIRECTORY and not inode.is_dir:
            raise FsError.enotdir(path)
        if inode.is_dir and want_write:
            raise FsError.eisdir(path)
        return self._finish_open(ctx, vnode, flags, path, owner_pid)

    def _finish_open(self, ctx: PathContext, vnode: VNode, flags: int, path: str,
                     owner_pid: int, just_created: bool = False) -> OpenFile:
        inode = vnode.inode()
        accmode = flags & _O_ACCMODE
        want_write = accmode in (_O_WRONLY, _O_RDWR)
        want_read = accmode in (_O_RDONLY, _O_RDWR)
        if not just_created:
            want = 0
            if want_read:
                want |= _R_OK
            if want_write:
                want |= _W_OK
            self._check_access(inode, ctx.creds, want)
        if want_write and vnode.mount.read_only:
            raise FsError.erofs(path)
        if flags & _O_DIRECT and not vnode.fs.supports_direct_io:
            raise FsError.einval("O_DIRECT not supported by this filesystem")
        if flags & _O_TRUNC and want_write and isinstance(inode, RegularInode):
            vnode.fs.truncate(vnode.ino, 0)
        open_hook = getattr(vnode.fs, "on_open", None)
        if callable(open_hook):
            open_hook(vnode.ino, flags)
        return OpenFile(vnode, flags, path, owner_pid=owner_pid)

    # --------------------------------------------------------------- data I/O
    def read(self, handle: OpenFile, size: int) -> bytes:
        """Read from the current offset."""
        data = self.pread(handle, size, handle.offset)
        handle.offset += len(data)
        return data

    def pread(self, handle: OpenFile, size: int, offset: int) -> bytes:
        """Positional read."""
        if offset < 0:
            raise FsError.einval("negative offset")
        if handle.closed:
            raise FsError.ebadf(handle.path)
        if not handle.readable:
            raise FsError.ebadf(f"{handle.path} not open for reading")
        return handle.fs.read(handle.ino, offset, size)

    def write(self, handle: OpenFile, data: bytes, creds: Credentials | None = None) -> int:
        """Write at the current offset (or at EOF for O_APPEND)."""
        if handle.append:
            handle.offset = handle.inode().size
        written = self.pwrite(handle, data, handle.offset, creds=creds)
        handle.offset += written
        return written

    def pwrite(self, handle: OpenFile, data: bytes, offset: int,
               creds: Credentials | None = None) -> int:
        """Positional write, enforcing RLIMIT_FSIZE when the filesystem layer does."""
        if offset < 0:
            raise FsError.einval("negative offset")
        if handle.closed:
            raise FsError.ebadf(handle.path)
        if not handle.writable:
            raise FsError.ebadf(f"{handle.path} not open for writing")
        if creds is not None and creds.fsize_limit is not None:
            enforced = getattr(handle.fs, "enforces_fsize_limit", True)
            if enforced and offset + len(data) > creds.fsize_limit:
                raise FsError.efbig(handle.path)
        written = handle.fs.write(handle.ino, offset, data)
        # O_SYNC / O_DSYNC: every write is followed by the equivalent of
        # fsync(2) / fdatasync(2) before it "returns" to the caller.
        flags = handle.flags
        if flags & _O_SYNC == _O_SYNC:
            handle.fs.fsync(handle.ino, datasync=False)
        elif flags & _O_DSYNC:
            handle.fs.fsync(handle.ino, datasync=True)
        return written

    def lseek(self, handle: OpenFile, offset: int, whence: SeekWhence) -> int:
        """Reposition the file offset (``SEEK_DATA``/``SEEK_HOLE`` included).

        The simulated filesystems expose the minimal conformant hole
        geometry (the one Linux guarantees for filesystems without extent
        enumeration): the whole file is one data extent with the implicit
        hole at EOF.
        """
        if whence == SeekWhence.SEEK_SET:
            new = offset
        elif whence == SeekWhence.SEEK_CUR:
            new = handle.offset + offset
        elif whence == SeekWhence.SEEK_END:
            new = handle.inode().size + offset
        elif whence in (SeekWhence.SEEK_DATA, SeekWhence.SEEK_HOLE):
            size = handle.inode().size
            if offset < 0:
                raise FsError.einval("negative seek")
            if offset >= size:
                raise FsError.enxio(f"offset {offset} beyond EOF {size}")
            new = offset if whence == SeekWhence.SEEK_DATA else size
        else:
            raise FsError.einval(f"bad whence {whence}")
        if new < 0:
            raise FsError.einval("negative seek")
        handle.offset = new
        return new

    def ftruncate(self, handle: OpenFile, size: int) -> None:
        """Truncate via an open description."""
        if size < 0:
            raise FsError.einval("negative length")
        if not handle.writable:
            raise FsError.ebadf(handle.path)
        handle.fs.truncate(handle.ino, size)

    def fsync(self, handle: OpenFile, datasync: bool = False) -> None:
        """Flush an open file to stable storage."""
        handle.fs.fsync(handle.ino, datasync)

    def fallocate(self, handle: OpenFile, mode: int, offset: int, length: int) -> None:
        """Preallocate space in an open file."""
        if offset < 0 or length <= 0:
            raise FsError.einval(f"bad range {offset}+{length}")
        if not handle.writable:
            raise FsError.ebadf(handle.path)
        handle.fs.fallocate(handle.ino, mode, offset, length)

    # --------------------------------------------------------------- metadata ops
    def stat(self, ctx: PathContext, path: str, follow: bool = True) -> FileStat:
        """``stat(2)`` / ``lstat(2)``."""
        vnode = self.resolve(ctx, path, follow=follow)
        return vnode.fs.getattr(vnode.ino)

    def fstat(self, handle: OpenFile) -> FileStat:
        """``fstat(2)``."""
        return handle.fs.getattr(handle.ino)

    def exists(self, ctx: PathContext, path: str, follow: bool = True) -> bool:
        """True when the path resolves."""
        try:
            self.resolve(ctx, path, follow=follow)
            return True
        except FsError:
            return False

    def access(self, ctx: PathContext, path: str, mode: int) -> None:
        """``access(2)``; raises on failure."""
        vnode = self.resolve(ctx, path)
        if mode == AccessMode.F_OK:
            return
        self._check_access(vnode.inode(), ctx.creds, mode)

    def mkdir(self, ctx: PathContext, path: str, mode: int = 0o755) -> VNode:
        """``mkdir(2)``."""
        parent, name = self.resolve(ctx, path, want_parent=True)
        self._require_write_dir(ctx, parent)
        inode = parent.fs.mkdir(parent.ino, name, mode & ~ctx.creds.umask,
                                uid=ctx.creds.uid, gid=ctx.creds.gid)
        return VNode(parent.mount, inode.ino)

    def makedirs(self, ctx: PathContext, path: str, mode: int = 0o755,
                 exist_ok: bool = True) -> VNode:
        """Create a directory and all missing parents."""
        parts = [c for c in path.split("/") if c]
        prefix = "" if path.startswith("/") else "."
        vnode = ctx.root if path.startswith("/") else ctx.cwd
        built = prefix
        for part in parts:
            built = f"{built}/{part}"
            try:
                vnode = self.mkdir(ctx, built, mode)
            except FsError as exc:
                if exc.errno == 17 and exist_ok:  # EEXIST
                    vnode = self.resolve(ctx, built)
                else:
                    raise
        return vnode

    def rmdir(self, ctx: PathContext, path: str) -> None:
        """``rmdir(2)``."""
        parent, name = self.resolve(ctx, path, want_parent=True)
        self._require_write_dir(ctx, parent)
        child_inode = parent.fs.lookup(parent.ino, name)
        if ctx.ns.mount_at(parent.mount, child_inode.ino) is not None:
            raise FsError.ebusy(path)
        self._check_sticky_delete(ctx, parent.inode(), child_inode)
        parent.fs.rmdir(parent.ino, name)

    def unlink(self, ctx: PathContext, path: str) -> None:
        """``unlink(2)``."""
        parent, name = self.resolve(ctx, path, want_parent=True)
        self._require_write_dir(ctx, parent)
        child_inode = parent.fs.lookup(parent.ino, name)
        if ctx.ns.mount_at(parent.mount, child_inode.ino) is not None:
            raise FsError.ebusy(path)
        self._check_sticky_delete(ctx, parent.inode(), child_inode)
        parent.fs.unlink(parent.ino, name)

    def symlink(self, ctx: PathContext, target: str, path: str) -> VNode:
        """``symlink(2)``."""
        parent, name = self.resolve(ctx, path, want_parent=True)
        self._require_write_dir(ctx, parent)
        inode = parent.fs.symlink(parent.ino, name, target,
                                  uid=ctx.creds.uid, gid=ctx.creds.gid)
        return VNode(parent.mount, inode.ino)

    def readlink(self, ctx: PathContext, path: str) -> str:
        """``readlink(2)``."""
        vnode = self.resolve(ctx, path, follow=False)
        return vnode.fs.readlink(vnode.ino)

    def link(self, ctx: PathContext, existing: str, new: str) -> None:
        """``link(2)``; cross-filesystem links fail with EXDEV."""
        src = self.resolve(ctx, existing, follow=False)
        parent, name = self.resolve(ctx, new, want_parent=True)
        if src.fs is not parent.fs:
            raise FsError.exdev(new)
        self._require_write_dir(ctx, parent)
        parent.fs.link(parent.ino, name, src.ino)

    def rename(self, ctx: PathContext, old: str, new: str, flags: int = 0) -> None:
        """``rename(2)`` / ``renameat2(2)``."""
        old_parent, old_name = self.resolve(ctx, old, want_parent=True)
        new_parent, new_name = self.resolve(ctx, new, want_parent=True)
        if old_parent.fs is not new_parent.fs or old_parent.mount is not new_parent.mount:
            raise FsError.exdev(new)
        self._require_write_dir(ctx, old_parent)
        self._require_write_dir(ctx, new_parent)
        victim = old_parent.fs.lookup(old_parent.ino, old_name)
        self._check_sticky_delete(ctx, old_parent.inode(), victim)
        old_parent.fs.rename(old_parent.ino, old_name, new_parent.ino, new_name, flags)

    def mknod(self, ctx: PathContext, path: str, mode: int, rdev: int = 0) -> VNode:
        """``mknod(2)``; device nodes require CAP_MKNOD."""
        ftype = mode & FileMode.S_IFMT
        if ftype in (FileMode.S_IFBLK, FileMode.S_IFCHR) and not ctx.creds.has_cap(CAP_MKNOD):
            raise FsError.eperm(path)
        parent, name = self.resolve(ctx, path, want_parent=True)
        self._require_write_dir(ctx, parent)
        inode = parent.fs.mknod(parent.ino, name, mode, rdev,
                                uid=ctx.creds.uid, gid=ctx.creds.gid)
        return VNode(parent.mount, inode.ino)

    def readdir(self, ctx: PathContext, path: str) -> list[tuple[str, int, int]]:
        """List a directory by path."""
        vnode = self.resolve(ctx, path)
        self._check_access(vnode.inode(), ctx.creds, _R_OK)
        return vnode.fs.readdir(vnode.ino)

    def listdir(self, ctx: PathContext, path: str) -> list[str]:
        """Names in a directory, excluding the dot entries."""
        return [name for name, _ino, _type in self.readdir(ctx, path)
                if name not in (".", "..")]

    def chmod(self, ctx: PathContext, path: str, mode: int) -> None:
        """``chmod(2)`` with POSIX setgid-clearing semantics.

        When the caller is not in the file's owning group (and lacks
        CAP_FSETID) the setgid bit is cleared.  Filesystems that do not
        interpret ACLs themselves (the FUSE client) skip the ACL-aware part
        of this check, which is what makes the xfstests #375 analogue fail.
        """
        vnode = self.resolve(ctx, path)
        inode = vnode.inode()
        creds = ctx.creds
        if creds.uid != inode.uid and not creds.has_cap(CAP_FOWNER):
            raise FsError.eperm(path)
        if mode & FileMode.S_ISGID and not creds.has_cap(CAP_FSETID) \
                and vnode.fs.interprets_acls_on_chmod:
            # Filesystems that delegate ACL handling to their backing store
            # (the FUSE client) skip this policy entirely, which is what makes
            # the xfstests #375 analogue fail on CntrFS.
            owning_groups = {inode.gid}
            if inode.acl is not None:
                owning_groups |= inode.acl.named_group_ids()
            if not (owning_groups & set(creds.all_gids())):
                mode &= ~FileMode.S_ISGID
        vnode.fs.setattr(vnode.ino, mode=mode)

    def chown(self, ctx: PathContext, path: str, uid: int, gid: int,
              follow: bool = True) -> None:
        """``chown(2)``; changing the owner requires CAP_CHOWN."""
        vnode = self.resolve(ctx, path, follow=follow)
        inode = vnode.inode()
        creds = ctx.creds
        if uid >= 0 and uid != inode.uid and not creds.has_cap(CAP_CHOWN):
            raise FsError.eperm(path)
        if gid >= 0 and creds.uid != inode.uid and not creds.has_cap(CAP_CHOWN):
            raise FsError.eperm(path)
        new_mode = None
        if not creds.has_cap(CAP_FSETID) and inode.mode & (FileMode.S_ISUID | FileMode.S_ISGID):
            new_mode = inode.mode & ~(FileMode.S_ISUID | FileMode.S_ISGID) & 0o7777
        vnode.fs.setattr(vnode.ino, uid=uid if uid >= 0 else None,
                         gid=gid if gid >= 0 else None, mode=new_mode)

    def truncate(self, ctx: PathContext, path: str, size: int) -> None:
        """``truncate(2)``."""
        if size < 0:
            raise FsError.einval("negative length")
        vnode = self.resolve(ctx, path)
        self._check_access(vnode.inode(), ctx.creds, _W_OK)
        if vnode.mount.read_only:
            raise FsError.erofs(path)
        vnode.fs.truncate(vnode.ino, size)

    def utimens(self, ctx: PathContext, path: str, atime_ns: int | None,
                mtime_ns: int | None, follow: bool = True) -> None:
        """``utimensat(2)``."""
        vnode = self.resolve(ctx, path, follow=follow)
        inode = vnode.inode()
        creds = ctx.creds
        if creds.uid != inode.uid and not creds.has_cap(CAP_FOWNER):
            self._check_access(inode, creds, _W_OK)
        vnode.fs.setattr(vnode.ino, atime_ns=atime_ns, mtime_ns=mtime_ns)

    def statfs(self, ctx: PathContext, path: str) -> StatVfs:
        """``statfs(2)``."""
        vnode = self.resolve(ctx, path)
        return vnode.fs.statfs()

    # --------------------------------------------------------------- ACLs / handles
    def set_acl(self, ctx: PathContext, path: str, acl) -> None:
        """Attach a POSIX access ACL to a file (``setfacl``)."""
        vnode = self.resolve(ctx, path)
        inode = vnode.inode()
        if ctx.creds.uid != inode.uid and not ctx.creds.has_cap(CAP_FOWNER):
            raise FsError.eperm(path)
        inode.acl = acl

    def get_acl(self, ctx: PathContext, path: str):
        """Read the POSIX access ACL of a file (``getfacl``), or None."""
        vnode = self.resolve(ctx, path)
        return vnode.inode().acl

    def name_to_handle(self, ctx: PathContext, path: str) -> tuple[int, int, int]:
        """``name_to_handle_at(2)``: an opaque, re-openable file handle.

        Filesystems whose inodes are not exportable (the FUSE client: inodes
        are created and destroyed on demand by the kernel) refuse with
        EOPNOTSUPP, reproducing xfstests failure #426.
        """
        vnode = self.resolve(ctx, path)
        if not vnode.fs.supports_export_handles:
            raise FsError.enotsup("filesystem does not export file handles")
        inode = vnode.inode()
        return (vnode.fs.fs_id, vnode.ino, inode.generation)

    def open_by_handle(self, ctx: PathContext, handle: tuple[int, int, int],
                       owner_pid: int = 0) -> OpenFile:
        """``open_by_handle_at(2)``."""
        fs_id, ino, generation = handle
        for mount in ctx.ns.mounts:
            if mount.fs.fs_id == fs_id:
                if not mount.fs.supports_export_handles:
                    raise FsError.enotsup("filesystem does not export file handles")
                inode = mount.fs.iget(ino)
                if inode.generation != generation:
                    raise FsError.estale("handle generation mismatch")
                return OpenFile(VNode(mount, ino), OpenFlags.O_RDONLY,
                                path=f"<handle:{ino}>", owner_pid=owner_pid)
        raise FsError.estale("no mounted filesystem matches the handle")

    # --------------------------------------------------------------- xattrs
    def setxattr(self, ctx: PathContext, path: str, name: str, value: bytes,
                 flags: int = 0, follow: bool = True) -> None:
        """``setxattr(2)``."""
        vnode = self.resolve(ctx, path, follow=follow)
        self._check_access(vnode.inode(), ctx.creds, _W_OK)
        vnode.fs.setxattr(vnode.ino, name, value, flags)

    def getxattr(self, ctx: PathContext, path: str, name: str,
                 follow: bool = True) -> bytes:
        """``getxattr(2)``."""
        vnode = self.resolve(ctx, path, follow=follow)
        return vnode.fs.getxattr(vnode.ino, name)

    def listxattr(self, ctx: PathContext, path: str, follow: bool = True) -> list[str]:
        """``listxattr(2)``."""
        vnode = self.resolve(ctx, path, follow=follow)
        return vnode.fs.listxattr(vnode.ino)

    def removexattr(self, ctx: PathContext, path: str, name: str,
                    follow: bool = True) -> None:
        """``removexattr(2)``."""
        vnode = self.resolve(ctx, path, follow=follow)
        self._check_access(vnode.inode(), ctx.creds, _W_OK)
        vnode.fs.removexattr(vnode.ino, name)
