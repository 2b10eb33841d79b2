"""FUSE userspace server base class.

:class:`FuseServer` implements the dispatch loop and the error handling;
the concrete server (CntrFS in :mod:`repro.core.cntrfs`) implements the
per-opcode handlers.  The server runs "in" a particular process (on the host
or inside the fat container) — the process's mount namespace and credentials
determine what the server can see, which is the mechanism Cntr uses to export
the fat container's files.
"""

from __future__ import annotations

import errno
from dataclasses import dataclass, field

from repro.fs.errors import FsError
from repro.fuse.protocol import OPCODE_NAME, FuseAttr, FuseReply, FuseRequest


@dataclass
class FuseServerStats:
    """Server-side accounting (request counts live on the connection)."""

    #: Requests picked up by each worker loop (index = worker id).  The
    #: dispatch below hands requests to workers round-robin — the
    #: deterministic stand-in for N threads blocking on ``/dev/fuse`` reads —
    #: so the per-worker counts stay balanced like a real multi-queue server.
    per_worker: list = field(default_factory=list)


class FuseServer:
    """Base class for userspace FUSE servers.

    A subclass handles an opcode by defining ``op_<opcode name in lower
    case>`` (``op_lookup`` for LOOKUP); an opcode without such a method gets
    an ENOSYS reply, as from a real server that does not implement it.

    ``threads`` models the worker loops a real server runs over ``/dev/fuse``:
    each dispatch is attributed to the next loop round-robin (``per_worker``
    stats), the client charges the per-request thread-contention cost for
    ``threads`` > 1, and the connection's background queue drains ``threads``
    requests per submission interval — so the thread count shows up in
    queueing delay, exactly the axis the paper's Figure 4 sweeps.
    """

    def __init__(self, threads: int = 4) -> None:
        self.threads = max(1, threads)
        self.stats = FuseServerStats(per_worker=[0] * self.threads)
        self._next_worker = 0
        self._handlers = {}
        for opcode, name in OPCODE_NAME.items():
            handler = getattr(self, f"op_{name.lower()}", None)
            if handler is not None:
                self._handlers[opcode] = handler

    def handle(self, request: FuseRequest) -> FuseReply:
        """Dispatch one request to its handler, mapping FsError to an errno reply.

        A coalesced dispatch (``request.coalesced > 1``) stands for a batch of
        identical wire requests over one extent; it is handled once but
        attributed to its worker at its full request count.
        """
        self.stats.per_worker[self._next_worker] += request.coalesced
        self._next_worker = (self._next_worker + 1) % self.threads
        handler = self._handlers.get(request.opcode)
        if handler is None:
            return FuseReply(unique=request.unique, error=errno.ENOSYS)
        try:
            return handler(request)
        except FsError as exc:
            return FuseReply(unique=request.unique, error=exc.errno or errno.EIO)

    @staticmethod
    def attr_from_stat(st) -> FuseAttr:
        """Convert a :class:`repro.fs.stat.FileStat` to a FUSE attribute block."""
        return FuseAttr(ino=st.st_ino, mode=st.st_mode, nlink=st.st_nlink,
                        uid=st.st_uid, gid=st.st_gid, rdev=st.st_rdev,
                        size=st.st_size, atime_ns=st.st_atime_ns,
                        mtime_ns=st.st_mtime_ns, ctime_ns=st.st_ctime_ns)
