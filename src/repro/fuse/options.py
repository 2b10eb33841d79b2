"""FUSE mount options / negotiated INIT flags.

Each field is one a run turns: the §3.3 optimizations the paper evaluates
individually in §5.2.3 (Figures 3 and 4), the splice-write ablation and the
bounded background queue of the multi-tenant scale bench.  The defaults
match the configuration CntrFS ships with: every optimization on except
splice-write, which the paper measured as a net loss and disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class FuseMountOptions:
    """Options negotiated between the FUSE client (kernel) and server."""

    #: FOPEN_KEEP_CACHE: keep the page cache across open() calls so reads can
    #: be shared between processes (§3.3 "Caching", Figure 3a).
    keep_cache: bool = True
    #: FUSE_WRITEBACK_CACHE: buffer writes in the kernel and flush them in
    #: large batches (§3.3 "Caching", Figure 3b).
    writeback_cache: bool = True
    #: FUSE_PARALLEL_DIROPS: allow concurrent lookups/readdirs (§3.3
    #: "Batching", Figure 3c).
    parallel_dirops: bool = True
    #: Splice for READ replies (§3.3 "Splicing", Figure 3d).
    splice_read: bool = True
    #: Splice for WRITE requests; disabled by default, as in the paper,
    #: because the extra context switch slows every other request down.
    splice_write: bool = False
    #: Number of CntrFS worker threads reading /dev/fuse (§3.3
    #: "Multithreading", Figure 4).
    threads: int = 4
    #: Bounded ``/dev/fuse`` background queue (``fuse_conn->max_background``,
    #: Linux default 12; writers congest at the Linux default threshold of
    #: 3/4 of it).  0 — the default here — leaves the queue unmodelled
    #: (legacy unbounded behavior), which keeps single-tenant runs
    #: byte-identical to the pinned figures; the multi-tenant scale bench
    #: opts in explicitly.
    max_background: int = 0

    def with_overrides(self, **kwargs) -> "FuseMountOptions":
        """Copy with selected options replaced."""
        return replace(self, **kwargs)

    @classmethod
    def paper_defaults(cls) -> "FuseMountOptions":
        """The configuration evaluated in the paper's Figure 2."""
        return cls()
