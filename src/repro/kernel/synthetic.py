"""The one base of the kernel's synthetic filesystems.

``/proc``, ``/sys/class/bdi``, ``/sys/fs/cgroup`` and tracefs show live
kernel state as files.  Nothing they list is stored: every listing and every
read renders the state of the moment, and a write hands its value to the
kernel object the file belongs to.  :class:`SyntheticFS` holds everything
they share — the table that gives each :class:`Node` one inode, the path
walk, listings, reads, ``stat``, writes and the refusal of namespace changes
— so that a subclass supplies only three things:

* its tree: :meth:`~SyntheticFS.child` and :meth:`~SyntheticFS.children`;
* its content: :meth:`~SyntheticFS.render`;
* its write handling: :meth:`~SyntheticFS.parse` validates a write before
  the one ``sysctl`` charge, :meth:`~SyntheticFS.store` applies it after.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from repro.fs.constants import FileMode
from repro.fs.errors import FsError
from repro.fs.filesystem import Filesystem
from repro.fs.inode import DirectoryInode, Inode, RegularInode, SymlinkInode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel

#: The three kinds of node.  Compare them with ``==``, never ``is``: the
#: nodes of a forked kernel hold unpickled copies of these strings.
DIR, FILE, LINK = "dir", "file", "link"
#: ``readdir`` file-type bits of each kind.
_TYPE_BITS = {DIR: int(FileMode.S_IFDIR), FILE: int(FileMode.S_IFREG),
              LINK: int(FileMode.S_IFLNK)}


class Node(NamedTuple):
    """What one inode of a synthetic filesystem stands for."""

    #: DIR, FILE or LINK.
    kind: str
    #: The kernel object the node belongs to: a pid, a bdi name, a cgroup
    #: path, or None for the filesystem's own top level.
    owner: object
    #: The node's path below its owner's directory ("" for that directory).
    name: str

    def entry(self, kind: str, name: str) -> Node:
        """The node ``name`` inside this directory, with the same owner."""
        return Node(kind, self.owner, f"{self.name}/{name}" if self.name else name)


class SyntheticFS(Filesystem):
    """A filesystem whose namespace and content are rendered from the kernel.

    Each :class:`Node` gets one inode the first time a lookup or listing
    reaches it, and keeps it: inode numbers are allocated in the order
    nodes are first seen, and a node's owner is part of its identity, so an
    inode never comes to stand for a different kernel object.
    """

    supports_direct_io = False
    supports_export_handles = False
    #: Entries appear and disappear with processes, mounts and cgroups,
    #: without any name-mutating filesystem call the dentry generation could
    #: track — never dcache them.
    dcacheable = False
    #: Mode bits of every directory below the root.
    dir_mode = 0o555
    #: Node names of the files a write may reach (mode 0644; the rest 0444).
    writable: frozenset[str] = frozenset()
    #: The owner of the root directory.
    root_owner: object = None

    def __init__(self, name: str, kernel: "Kernel") -> None:
        super().__init__(name, kernel.clock, kernel.costs, kernel.tracer,
                         capacity_bytes=0)
        self.kernel = kernel
        root = Node(DIR, self.root_owner, "")
        self._nodes: dict[int, Node] = {self.root_ino: root}
        self._ino_of: dict[Node, int] = {root: self.root_ino}

    # ------------------------------------------------------------- subclass
    def child(self, node: Node, name: str) -> Node | None:
        """The entry ``name`` of directory ``node``, or None if it has none."""
        raise NotImplementedError

    def children(self, node: Node) -> Iterable[tuple[str, Node]]:
        """Directory ``node``'s entries as ``(name, node)`` pairs, in order."""
        raise NotImplementedError

    def render(self, node: Node) -> bytes:
        """A file's current content, or a symlink's target."""
        raise NotImplementedError

    def parse(self, node: Node, text: str) -> object:
        """Check a write to ``node`` before it is charged; the result goes
        to :meth:`store`.  ``text`` is the written bytes as stripped ASCII."""
        return text

    def store(self, node: Node, value: object) -> None:
        """Apply a write that :meth:`parse` accepted."""
        raise NotImplementedError

    # ------------------------------------------------------------- node table
    def node_of(self, ino: int) -> Node:
        """The node behind an inode number."""
        node = self._nodes.get(ino)
        if node is None:
            raise FsError.estale(f"{self.fs_type} ino {ino}")
        return node

    def _inode(self, node: Node) -> Inode:
        ino = self._ino_of.get(node)
        if ino is not None:
            return self._inodes[ino]
        ino = self._alloc_ino()
        if node.kind == DIR:
            inode = DirectoryInode(ino=ino, mode=FileMode.S_IFDIR | self.dir_mode,
                                   fs_name=self.name)
        elif node.kind == LINK:
            inode = SymlinkInode(ino=ino, mode=FileMode.S_IFLNK | 0o777,
                                 target=self.render(node).decode(), fs_name=self.name)
        else:
            mode = 0o644 if node.name in self.writable else 0o444
            inode = RegularInode(ino=ino, mode=FileMode.S_IFREG | mode,
                                 fs_name=self.name)
        self._inodes[ino] = inode
        self._nodes[ino] = node
        self._ino_of[node] = ino
        return inode

    def _forget(self, owner: object) -> None:
        """Drop the inodes of ``owner``, a kernel object that is gone."""
        for node in [known for known in self._ino_of if known.owner == owner]:
            ino = self._ino_of.pop(node)
            del self._nodes[ino]
            del self._inodes[ino]

    # ------------------------------------------------------------- fs interface
    def lookup(self, dir_ino: int, name: str) -> Inode:
        self._charge_metadata("lookup")
        node = self.node_of(dir_ino)
        if node.kind != DIR:
            raise FsError.enotdir(name)
        found = self.child(node, name)
        if found is None:
            raise FsError.enoent(name)
        return self._inode(found)

    def readdir(self, dir_ino: int) -> list[tuple[str, int, int]]:
        self._charge_metadata("readdir")
        node = self.node_of(dir_ino)
        if node.kind != DIR:
            raise FsError.enotdir(node.name)
        out = [(".", dir_ino, _TYPE_BITS[DIR]), ("..", dir_ino, _TYPE_BITS[DIR])]
        for name, entry in self.children(node):
            out.append((name, self._inode(entry).ino, _TYPE_BITS[entry.kind]))
        return out

    def readlink(self, ino: int) -> str:
        self._charge_metadata("readlink")
        node = self.node_of(ino)
        if node.kind != LINK:
            raise FsError.einval(node.name)
        return self.render(node).decode()

    def read(self, ino: int, offset: int, size: int) -> bytes:
        node = self.node_of(ino)
        if node.kind != FILE:
            raise FsError.eisdir(node.name)
        content = self.render(node)
        self._charge_read(ino, offset, min(size, len(content)))
        return content[offset:offset + size]

    def getattr(self, ino: int):
        self._charge_metadata("getattr")
        inode = self.iget(ino)
        node = self._nodes[ino]
        if node.kind == FILE:
            # st_size is the length a read would return now.
            content = self.render(node)
            inode.data.truncate(0)
            inode.data.write(0, content)
        return inode.stat(st_dev=self.fs_id)

    def _writable_node(self, ino: int) -> Node:
        node = self._nodes.get(ino)
        if node is None or node.name not in self.writable:
            raise FsError.eacces(f"{self.fs_type} ino {ino} is read-only")
        return node

    def write(self, ino: int, offset: int, data: bytes) -> int:
        node = self._writable_node(ino)
        value = self.parse(node, data.decode("ascii", errors="replace").strip())
        self._charge_metadata("sysctl")
        self.store(node, value)
        return len(data)

    def truncate(self, ino: int, size: int) -> None:
        # O_TRUNC on a writable file (the shell's `echo N >` idiom) is a no-op.
        self._writable_node(ino)

    # The namespace is the kernel's: no call adds, removes or renames an entry
    # (CgroupFS alone lets mkdir/rmdir create and remove cgroups).
    def _refuse(self, *args, **kwargs):
        raise FsError.eacces(f"{self.fs_type} entries are made by the kernel")

    create = mkdir = mknod = symlink = link = unlink = rmdir = rename = _refuse
