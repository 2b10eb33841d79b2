"""FUSE wire protocol: opcodes, requests, replies and attribute records."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

_unique_counter = itertools.count(1)


class FuseOpcode(enum.Enum):
    """The subset of FUSE opcodes CntrFS implements (full filesystem API)."""

    LOOKUP = 1
    FORGET = 2
    GETATTR = 3
    SETATTR = 4
    READLINK = 5
    SYMLINK = 6
    MKNOD = 8
    MKDIR = 9
    UNLINK = 10
    RMDIR = 11
    RENAME = 12
    LINK = 13
    OPEN = 14
    READ = 15
    WRITE = 16
    STATFS = 17
    RELEASE = 18
    FSYNC = 20
    SETXATTR = 21
    GETXATTR = 22
    LISTXATTR = 23
    REMOVEXATTR = 24
    FLUSH = 25
    INIT = 26
    OPENDIR = 27
    READDIR = 28
    RELEASEDIR = 29
    FSYNCDIR = 30
    GETLK = 31
    SETLK = 32
    ACCESS = 34
    CREATE = 35
    INTERRUPT = 36
    BMAP = 37
    DESTROY = 38
    IOCTL = 39
    POLL = 40
    BATCH_FORGET = 42
    FALLOCATE = 43
    READDIRPLUS = 44
    RENAME2 = 45
    LSEEK = 46
    COPY_FILE_RANGE = 47

#: Opcodes that never receive a reply.
NO_REPLY_OPCODES = frozenset({FuseOpcode.FORGET, FuseOpcode.BATCH_FORGET})
#: Opcode -> name, precomputed (``Enum.name`` is a descriptor lookup, too
#: slow for the per-request statistics paths).
OPCODE_NAME = {op: op.name for op in FuseOpcode}


@dataclass(frozen=True)
class FuseAttr:
    """Attribute block carried in LOOKUP/GETATTR/CREATE replies."""

    ino: int
    mode: int
    nlink: int
    uid: int
    gid: int
    rdev: int
    size: int
    atime_ns: int
    mtime_ns: int
    ctime_ns: int
    generation: int = 0


@dataclass(slots=True)
class FuseRequest:
    """One request sent from the kernel driver to the userspace server.

    ``coalesced`` is the number of wire-protocol requests this object stands
    for: the kernel driver batches a large extent transfer (e.g. a readahead
    window split into ``max_read``-sized READs, or a writeback flush split
    into ``max_write``-sized WRITEs) into a single dispatch whose protocol
    costs were charged arithmetically.  Accounting (the connection's request
    counts, the server's per-worker counts) counts ``coalesced`` requests;
    handlers see one operation.
    """

    opcode: FuseOpcode
    nodeid: int
    args: dict = field(default_factory=dict)
    payload: bytes = b""
    unique: int = field(default_factory=lambda: next(_unique_counter))
    coalesced: int = 1

    @property
    def payload_size(self) -> int:
        """Bytes of data attached to the request."""
        return len(self.payload)


@dataclass(slots=True)
class FuseReply:
    """One reply returned by the userspace server."""

    unique: int
    error: int = 0                     # negated errno, 0 on success
    attr: FuseAttr | None = None
    nodeid: int | None = None
    data: bytes = b""
    entries: list[tuple[str, int, int]] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    statfs: object | None = None
    target: str = ""
    size: int = 0

    @property
    def ok(self) -> bool:
        """True when the server completed the request successfully."""
        return self.error == 0

    @property
    def data_size(self) -> int:
        """Bytes of data attached to the reply."""
        return len(self.data) if self.data else self.size
