"""Inode object model.

Inodes are plain in-memory objects owned by a :class:`repro.fs.filesystem.Filesystem`.
Data for regular files is stored in a page-granular :class:`FileData` container so
that the page cache and the FUSE driver can reason about page boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fs.acl import PosixAcl
from repro.fs.constants import FileMode, NAME_MAX
from repro.fs.errors import FsError
from repro.fs.stat import FileStat

PAGE_SIZE = 4096
#: What a hole reads as; shared by every read, so it must stay immutable.
_ZERO_PAGE = bytes(PAGE_SIZE)

#: Plain-int copies of the file-type mode bits.  ``mode`` arithmetic runs on
#: every path-resolution step; going through ``IntFlag.__and__`` there costs
#: more than the rest of the check combined (it re-enters the enum machinery
#: per operation), so the hot properties below use these ints directly.
_S_IFMT = int(FileMode.S_IFMT)
_S_IFDIR = int(FileMode.S_IFDIR)
_S_IFREG = int(FileMode.S_IFREG)
_S_IFLNK = int(FileMode.S_IFLNK)


class FileData:
    """Byte contents of a regular file, stored sparsely as 4 KiB pages.

    Only pages that have actually been written are materialised; holes read
    back as zeros.  With ``store=False`` the container tracks sizes without
    keeping any bytes at all — the performance benchmarks use this mode so
    that multi-gigabyte simulated workloads do not consume real memory (the
    cost model never looks at the bytes, only at the sizes).

    ``read`` copies each stored byte exactly once: it allocates its result
    and fills it in one pass over the pages, with no staging buffer, and the
    ``bytes`` it returns share nothing with the pages.
    """

    def __init__(self, initial: bytes = b"", store: bool = True) -> None:
        self.store = store
        self._pages: dict[int, bytearray] = {}
        self._size = 0
        if initial:
            self.write(0, initial)

    def __len__(self) -> int:
        return self._size

    def read(self, offset: int, size: int) -> bytes:
        """Read up to ``size`` bytes starting at ``offset``."""
        if offset >= self._size or size <= 0:
            return b""
        size = min(size, self._size - offset)
        if not self.store:
            return b"\x00" * size
        end = offset + size
        first, last = offset // PAGE_SIZE, (end - 1) // PAGE_SIZE
        get = self._pages.get
        parts = [get(idx, _ZERO_PAGE) for idx in range(first, last + 1)]
        parts[-1] = memoryview(parts[-1])[:end - last * PAGE_SIZE]
        parts[0] = memoryview(parts[0])[offset - first * PAGE_SIZE:]
        return b"".join(parts)

    def write(self, offset: int, data: bytes) -> int:
        """Write ``data`` at ``offset``; holes before ``offset`` read as zeros."""
        end = offset + len(data)
        if self.store and data:
            pos = offset
            remaining = memoryview(data)
            while remaining:
                page_idx, page_off = divmod(pos, PAGE_SIZE)
                chunk = min(len(remaining), PAGE_SIZE - page_off)
                page = self._pages.get(page_idx)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    self._pages[page_idx] = page
                page[page_off:page_off + chunk] = remaining[:chunk]
                remaining = remaining[chunk:]
                pos += chunk
        self._size = max(self._size, end)
        return len(data)

    def truncate(self, size: int) -> None:
        """Resize the file to exactly ``size`` bytes (growth creates a hole)."""
        if size < self._size and self.store:
            last_page, keep = divmod(size, PAGE_SIZE)
            # Pages from ceil(size / PAGE_SIZE) on lie wholly past the new end.
            for idx in [i for i in self._pages if i >= last_page + (keep > 0)]:
                del self._pages[idx]
            page = self._pages.get(last_page)
            if page is not None:
                page[keep:] = bytes(PAGE_SIZE - keep)
        self._size = size

    def punch_hole(self, offset: int, length: int) -> None:
        """Zero a byte range without changing the file size.

        Fully covered pages are dropped from the sparse store (restoring the
        hole) instead of being overwritten with zeros.
        """
        if not self.store:
            return
        end = min(offset + length, self._size)
        pos = offset
        while pos < end:
            page_idx, page_off = divmod(pos, PAGE_SIZE)
            chunk = min(end - pos, PAGE_SIZE - page_off)
            if chunk == PAGE_SIZE:
                self._pages.pop(page_idx, None)
            else:
                page = self._pages.get(page_idx)
                if page is not None:
                    page[page_off:page_off + chunk] = b"\x00" * chunk
            pos += chunk
        return

    def clone(self) -> "FileData":
        """An independent copy sharing nothing with the original.

        Cost is proportional to the number of materialised pages, so the
        ``store=False`` benchmark mode clones in O(1) regardless of size.
        The crash-consistency journal uses clones as its durable data images.
        """
        copy = FileData(store=self.store)
        copy._size = self._size
        copy._pages = {idx: bytearray(page) for idx, page in self._pages.items()}
        return copy

    def to_bytes(self) -> bytes:
        """Full file contents."""
        return self.read(0, self._size)

    def stored_bytes(self) -> int:
        """Bytes of real memory used for page storage."""
        return len(self._pages) * PAGE_SIZE


@dataclass
class Inode:
    """Common inode state shared by every file type."""

    ino: int
    mode: int
    uid: int = 0
    gid: int = 0
    nlink: int = 1
    rdev: int = 0
    atime_ns: int = 0
    mtime_ns: int = 0
    ctime_ns: int = 0
    xattrs: dict[str, bytes] = field(default_factory=dict)
    acl: PosixAcl | None = None
    generation: int = 0
    fs_name: str = ""

    def __post_init__(self) -> None:
        # Normalise IntFlag-typed modes to plain ints once at construction so
        # every later mode check is integer arithmetic, not enum dispatch.
        self.mode = int(self.mode)

    @property
    def file_type(self) -> int:
        """File-type bits of the mode."""
        return self.mode & _S_IFMT

    @property
    def is_dir(self) -> bool:
        """True for directory inodes."""
        return self.mode & _S_IFMT == _S_IFDIR

    @property
    def is_regular(self) -> bool:
        """True for regular-file inodes."""
        return self.mode & _S_IFMT == _S_IFREG

    @property
    def is_symlink(self) -> bool:
        """True for symbolic-link inodes."""
        return self.mode & _S_IFMT == _S_IFLNK

    @property
    def size(self) -> int:
        """Logical size in bytes; overridden by concrete inode types."""
        return 0

    def touch(self, now_ns: int, *, atime: bool = False, mtime: bool = False,
              ctime: bool = False) -> None:
        """Update the requested timestamps to ``now_ns``."""
        if atime:
            self.atime_ns = now_ns
        if mtime:
            self.mtime_ns = now_ns
        if ctime:
            self.ctime_ns = now_ns

    def chmod(self, mode: int, now_ns: int) -> None:
        """Change permission bits, preserving the file-type bits."""
        self.mode = self.file_type | (mode & 0o7777)
        self.ctime_ns = now_ns

    def chown(self, uid: int, gid: int, now_ns: int) -> None:
        """Change ownership; ``-1`` leaves the corresponding id unchanged.

        Following POSIX, a chown by a non-owner clears the setuid/setgid bits;
        the VFS layer handles that policy, this method only records state.
        """
        if uid >= 0:
            self.uid = uid
        if gid >= 0:
            self.gid = gid
        self.ctime_ns = now_ns

    # --- extended attributes -------------------------------------------------
    def set_xattr(self, name: str, value: bytes, flags: int = 0) -> None:
        """Set one extended attribute, honouring XATTR_CREATE/REPLACE flags."""
        from repro.fs.constants import XattrFlags

        if flags & XattrFlags.XATTR_CREATE and name in self.xattrs:
            raise FsError.eexist(name)
        if flags & XattrFlags.XATTR_REPLACE and name not in self.xattrs:
            raise FsError.enodata(name)
        if len(name) > NAME_MAX:
            raise FsError.erange(name)
        self.xattrs[name] = bytes(value)

    def get_xattr(self, name: str) -> bytes:
        """Read one extended attribute."""
        if name not in self.xattrs:
            raise FsError.enodata(name)
        return self.xattrs[name]

    def remove_xattr(self, name: str) -> None:
        """Delete one extended attribute."""
        if name not in self.xattrs:
            raise FsError.enodata(name)
        del self.xattrs[name]

    def list_xattrs(self) -> list[str]:
        """Names of all extended attributes, sorted."""
        return sorted(self.xattrs)

    def stat(self, st_dev: int, block_size: int = PAGE_SIZE) -> FileStat:
        """Produce a :class:`FileStat` snapshot."""
        size = self.size
        blocks = (size + 511) // 512
        return FileStat(
            st_dev=st_dev,
            st_ino=self.ino,
            st_mode=self.mode,
            st_nlink=self.nlink,
            st_uid=self.uid,
            st_gid=self.gid,
            st_rdev=self.rdev,
            st_size=size,
            st_blksize=block_size,
            st_blocks=blocks,
            st_atime_ns=self.atime_ns,
            st_mtime_ns=self.mtime_ns,
            st_ctime_ns=self.ctime_ns,
        )


@dataclass
class RegularInode(Inode):
    """A regular file backed by :class:`FileData`."""

    data: FileData = field(default_factory=FileData)

    @property
    def size(self) -> int:
        return len(self.data)


@dataclass
class DirectoryInode(Inode):
    """A directory: an ordered mapping of names to child inode numbers."""

    entries: dict[str, int] = field(default_factory=dict)
    #: Inode number of the parent directory (``None`` for a filesystem root,
    #: which is its own parent).  Used by the VFS to resolve ``..``.
    parent_ino: int | None = None

    @property
    def size(self) -> int:
        # Model directory size the way ext4 reports it: one block minimum.
        return max(PAGE_SIZE, len(self.entries) * 32)

    def lookup(self, name: str) -> int:
        """Return the inode number bound to ``name``."""
        if name not in self.entries:
            raise FsError.enoent(name)
        return self.entries[name]

    def add(self, name: str, ino: int) -> None:
        """Bind ``name`` to ``ino``; fails if the name already exists."""
        if len(name) > NAME_MAX:
            raise FsError.enametoolong(name)
        if name in self.entries:
            raise FsError.eexist(name)
        self.entries[name] = ino

    def replace(self, name: str, ino: int) -> None:
        """Bind ``name`` to ``ino``, overwriting any previous binding."""
        if len(name) > NAME_MAX:
            raise FsError.enametoolong(name)
        self.entries[name] = ino

    def remove(self, name: str) -> int:
        """Unbind ``name`` and return the inode number it pointed to."""
        if name not in self.entries:
            raise FsError.enoent(name)
        return self.entries.pop(name)

    def is_empty(self) -> bool:
        """True when the directory has no entries (besides the implicit dots)."""
        return not self.entries

    def names(self) -> list[str]:
        """Entry names in insertion order."""
        return list(self.entries)


@dataclass
class SymlinkInode(Inode):
    """A symbolic link holding its target path."""

    target: str = ""

    @property
    def size(self) -> int:
        return len(self.target)


@dataclass
class DeviceInode(Inode):
    """A character or block device node."""

    @property
    def size(self) -> int:
        return 0


@dataclass
class FifoInode(Inode):
    """A named pipe; the pipe buffer itself lives in the kernel layer."""

    pipe_id: int | None = None

    @property
    def size(self) -> int:
        return 0


@dataclass
class SocketInode(Inode):
    """A Unix-domain socket bound into the filesystem namespace."""

    socket_id: int | None = None

    @property
    def size(self) -> int:
        return 0
