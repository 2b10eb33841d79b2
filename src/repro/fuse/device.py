"""``/dev/fuse`` and the kernel<->userspace FUSE connection.

In the real system the CntrFS process opens ``/dev/fuse``, passes the file
descriptor to ``mount(2)`` and then reads requests from it in a worker-thread
loop.  The simulation preserves that structure: opening the device produces a
:class:`FuseDeviceHandle` holding a :class:`FuseConnection`; the client
filesystem pushes :class:`~repro.fuse.protocol.FuseRequest` objects into the
connection and the attached server handles them.  Because the simulation is
single-threaded the round trip happens synchronously, but every request still
pays the queueing/context-switch costs of the real protocol, which is what the
paper's performance numbers are made of.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.fs.errors import FsError
from repro.fuse.protocol import (NO_REPLY_OPCODES, OPCODE_NAME, FuseReply,
                                 FuseRequest)
from repro.kernel.objects import KernelObject

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fuse.server import FuseServer
    from repro.kernel.kernel import Kernel

_connection_counter = itertools.count(1)


@dataclass
class FuseConnectionStats:
    """Per-connection request accounting (used by tests and benchmark reports)."""

    requests_total: int = 0
    requests_by_opcode: dict[str, int] = field(default_factory=dict)
    bytes_to_server: int = 0
    bytes_from_server: int = 0
    errors: int = 0
    forgets_batched: int = 0

    def record(self, request: FuseRequest, reply: FuseReply | None) -> None:
        """Record one round trip (a coalesced dispatch counts all its requests)."""
        self.requests_total += request.coalesced
        name = OPCODE_NAME[request.opcode]
        self.requests_by_opcode[name] = \
            self.requests_by_opcode.get(name, 0) + request.coalesced
        self.bytes_to_server += request.payload_size
        if reply is not None:
            self.bytes_from_server += reply.data_size
            if not reply.ok:
                self.errors += 1


@dataclass
class FuseQueueStats:
    """Accounting for the bounded ``/dev/fuse`` background queue."""

    queued_total: int = 0          # background requests that entered the queue
    drained_total: int = 0         # requests retired by server worker loops
    max_depth: int = 0             # high watermark of the backlog
    congestion_waits: int = 0      # submissions that blocked on the threshold
    congestion_wait_ns: int = 0    # virtual time writers spent blocked


class FuseConnection:
    """A kernel<->server FUSE session.

    When the mount negotiates ``max_background`` > 0, the connection models
    the kernel's bounded background queue for *asynchronous* request bursts
    (readahead READ batches, writeback WRITE flushes — the request classes
    the real ``fuse_conn->max_background`` governs).  A burst enters the
    queue all at once via :meth:`submit_background`; the server's worker
    loops retire one queued request per ``fuse_request_ns`` each, draining
    the backlog against virtual time between bursts; and a submitter whose
    burst pushes the backlog past ``max_background`` blocks — charging
    virtual time — until the loops drain it back to
    ``congestion_threshold``, exactly the writer stall
    ``fuse_set_congested`` produces.  With the default ``max_background`` =
    0 the queue is unmodelled and the request path is byte-identical to the
    historical synchronous round trip.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.connection_id = next(_connection_counter)
        self.kernel = kernel
        self.server: "FuseServer | None" = None
        self.mounted = False
        self.aborted = False
        self.stats = FuseConnectionStats()
        self.max_background = 0
        self.congestion_threshold = 0
        self.queue_stats = FuseQueueStats()
        self._backlog = 0
        self._last_drain_ns = 0

    def attach_server(self, server: "FuseServer") -> None:
        """Attach the userspace server that will handle requests."""
        self.server = server

    def configure_queue(self, max_background: int,
                        congestion_threshold: int = 0) -> None:
        """Negotiate the background-queue bounds (INIT time).

        ``congestion_threshold`` 0 derives the Linux default of 3/4 of
        ``max_background``.
        """
        self.max_background = max(0, max_background)
        if self.max_background and not congestion_threshold:
            congestion_threshold = max(1, self.max_background * 3 // 4)
        self.congestion_threshold = min(congestion_threshold,
                                        self.max_background)
        self._last_drain_ns = self.kernel.clock.now_ns

    def submit_background(self, count: int) -> None:
        """Admit one async burst of ``count`` wire requests to the queue.

        Called by the client filesystem where the kernel queues background
        requests: once per readahead READ batch and once per inode batch of
        a writeback flush.  May charge the submitter a congestion stall.
        """
        if not self.max_background or count <= 0:
            return
        workers = self.server.threads if self.server is not None else 1
        service_ns = self.kernel.costs.fuse_request_ns
        now = self.kernel.clock.now_ns
        # The worker loops ran concurrently since the last burst, each
        # retiring one queued request per service interval.
        capacity = (now - self._last_drain_ns) * workers // service_ns
        drained = min(self._backlog, capacity)
        self._backlog -= drained
        self.queue_stats.drained_total += drained
        self._last_drain_ns = now
        self._backlog += count
        self.queue_stats.queued_total += count
        if self._backlog > self.queue_stats.max_depth:
            self.queue_stats.max_depth = self._backlog
        if self._backlog > self.max_background:
            # The submitter blocks until the workers drain the backlog to
            # the congestion threshold: one service interval per round of
            # ``workers`` retirements.
            excess = self._backlog - self.congestion_threshold
            rounds = -(-excess // workers)
            stall_ns = rounds * service_ns
            self.queue_stats.congestion_waits += 1
            self.queue_stats.congestion_wait_ns += stall_ns
            self.queue_stats.drained_total += excess
            self._backlog = self.congestion_threshold
            self.kernel.clock.advance(stall_ns)
            self._last_drain_ns = self.kernel.clock.now_ns
            psi = getattr(self.kernel, "psi", None)
            if psi is not None:
                # The submitter sat out the drain: I/O pressure for exactly
                # the ``congestion_wait_ns`` increment, attributed to the
                # current process's cgroup chain.
                psi.account("io", stall_ns)

    def mark_mounted(self) -> None:
        """Called by the client filesystem once it is mounted in a namespace."""
        self.mounted = True

    def abort(self) -> None:
        """Abort the connection (``umount -f`` / server crash)."""
        self.aborted = True
        self.mounted = False

    def request(self, request: FuseRequest) -> FuseReply:
        """Send one request to the server and return its reply.

        The caller (the kernel-side client filesystem) is responsible for
        charging the protocol costs; the server charges whatever its backing
        filesystem operations cost while handling the request.
        """
        if self.aborted:
            raise FsError.enotconn("FUSE connection aborted")
        if self.server is None:
            raise FsError.enotconn("no FUSE server attached")
        tracer = self.kernel.tracer
        if tracer is not None and tracer.active:
            tracer.emit(self.kernel.clock.now_ns, "fuse.dispatch",
                        opcode=OPCODE_NAME[request.opcode],
                        coalesced=request.coalesced)
        reply = self.server.handle(request)
        if request.opcode in NO_REPLY_OPCODES:
            self.stats.record(request, None)
            return FuseReply(unique=request.unique)
        self.stats.record(request, reply)
        return reply


class FuseDeviceHandle(KernelObject):
    """The object a process gets back from opening ``/dev/fuse``."""

    def __init__(self, kernel: "Kernel") -> None:
        super().__init__()
        self.connection = FuseConnection(kernel)

    def read(self, size: int) -> bytes:
        # The real device blocks until a request arrives; the simulated
        # request flow is synchronous so there is never anything to read here.
        raise FsError.eagain("no pending FUSE requests (synchronous simulation)")

    def write(self, data: bytes) -> int:
        raise FsError.einval("raw FUSE replies are not modelled; use FuseServer")

    def poll(self) -> set[str]:
        return {"out"}

    def close(self) -> None:
        super().close()
        if not self.connection.mounted:
            self.connection.abort()


class _FuseDeviceFactory:
    """Picklable factory bound to one kernel (a lambda here would make the
    whole kernel graph unpicklable, and kernel snapshots pickle it)."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    def __call__(self) -> "FuseDeviceHandle":
        return FuseDeviceHandle(self.kernel)


def register_fuse_device(kernel: "Kernel") -> None:
    """Install the ``/dev/fuse`` driver into a kernel."""
    from repro.kernel.kernel import DEV_FUSE_RDEV

    kernel.register_device(DEV_FUSE_RDEV, _FuseDeviceFactory(kernel))
