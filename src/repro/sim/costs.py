"""Cost model: the virtual-time price list charged by the simulated kernel.

The constants are calibrated so that the *ratios* between a native filesystem
access and the same access routed through the simulated FUSE driver land in
the ranges the paper reports (Figure 2-4).  Absolute values are loosely based
on published micro-benchmarks of syscall, context-switch and FUSE round-trip
latencies on commodity x86 hardware circa 2018; they are not meant to match
the paper's EC2 testbed in absolute terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass
class CostModel:
    """Per-operation virtual-time costs, in nanoseconds unless stated."""

    # --- generic kernel costs -------------------------------------------------
    syscall_ns: int = 300                  # user->kernel->user trap
    context_switch_ns: int = 2_000         # full process context switch

    # --- memory / copy costs --------------------------------------------------
    copy_per_byte_ns: float = 0.06         # memcpy through userspace buffers
    splice_per_byte_ns: float = 0.015      # page remapping, no copy
    page_cache_hit_per_byte_ns: float = 0.25   # copy_to_user + accounting

    # --- in-memory filesystem (tmpfs) costs -----------------------------------
    tmpfs_op_ns: int = 400                 # metadata operation on tmpfs
    tmpfs_per_byte_ns: float = 0.02

    # --- disk-backed filesystem (ext4-like) costs ------------------------------
    disk_seek_ns: int = 110_000            # SSD-backed EBS GP2 random access
    disk_per_byte_ns: float = 0.9          # ~1.1 GB/s effective streaming
    journal_commit_ns: int = 180_000       # jbd2 commit
    metadata_op_ns: int = 1_000            # dcache-warm dentry/inode operation
    sync_barrier_ns: int = 250_000         # fsync/flush barrier latency

    # --- FUSE protocol costs ----------------------------------------------------
    fuse_request_ns: int = 6_000           # queue + 2 context switches + dispatch
    fuse_small_reply_ns: int = 1_200       # serializing a metadata reply
    fuse_forget_batch_ns: int = 900        # single batched FORGET round trip
    fuse_lookup_userspace_ns: int = 20_000  # open()+stat() pair done by CntrFS
    fuse_thread_contention_ns: int = 350   # per-request loss with many threads
    fuse_splice_setup_ns: int = 1_800      # pipe setup for splice read/write
    fuse_writeback_flush_ns: int = 20_000  # flushing an aggregated writeback batch

    # --- network-ish costs used by socket proxy / apache workload ---------------
    unix_socket_rtt_ns: int = 8_000
    epoll_wait_ns: int = 1_200

    # --- page / block geometry ---------------------------------------------------
    page_size: int = 4096
    writeback_batch_bytes: int = 128 * 1024   # max aggregation by the writeback cache

    def copy_cost(self, nbytes: int) -> float:
        """Cost of copying ``nbytes`` through a userspace buffer."""
        return self.copy_per_byte_ns * nbytes

    def splice_cost(self, nbytes: int) -> float:
        """Cost of moving ``nbytes`` with splice (page remapping)."""
        return self.fuse_splice_setup_ns + self.splice_per_byte_ns * nbytes

    def disk_read_cost(self, nbytes: int, sequential: bool = True) -> float:
        """Cost of reading ``nbytes`` from the simulated disk."""
        seek = self.disk_seek_ns if not sequential else self.disk_seek_ns * 0.08
        return seek + self.disk_per_byte_ns * nbytes

    def disk_write_cost(self, nbytes: int, sequential: bool = True) -> float:
        """Cost of writing ``nbytes`` to the simulated disk."""
        seek = self.disk_seek_ns if not sequential else self.disk_seek_ns * 0.1
        return seek + self.disk_per_byte_ns * nbytes

    def with_overrides(self, **kwargs) -> "CostModel":
        """Return a copy with selected parameters replaced."""
        return replace(self, **kwargs)


#: Cost model used by default throughout the reproduction.
DEFAULT_COST_MODEL = CostModel()
