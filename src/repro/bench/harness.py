"""Benchmark harness: matched native/CntrFS environments and figure generators."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.phoronix import (
    ALL_WORKLOADS,
    IoZoneRead,
    ThreadedIoRead,
    Workload,
    workload_slug,
)
from repro.core.cntrfs import CntrFS
from repro.fs.constants import OpenFlags
from repro.fs.ext4 import Ext4Fs
from repro.fuse.client import FuseClientFs
from repro.fuse.device import FuseDeviceHandle
from repro.fuse.options import FuseMountOptions
from repro.kernel.machine import Machine, boot
from repro.kernel.syscalls import Syscalls
from repro.slim.analyzer import DockerSlim, SlimReport
from repro.slim.catalogue import TOP50_CATALOGUE, build_catalogue_image


@dataclass
class ComparisonResult:
    """Native vs CntrFS comparison for one workload."""

    workload: str
    native_ns: int
    cntr_ns: int
    paper_overhead: float

    @property
    def overhead(self) -> float:
        """Relative overhead: virtual time through CntrFS / native virtual time."""
        return self.cntr_ns / self.native_ns if self.native_ns else float("inf")

    @property
    def cntr_is_faster(self) -> bool:
        """True when CntrFS beats the native filesystem on this workload."""
        return self.overhead < 1.0

    def agrees_with_paper_direction(self) -> bool:
        """True when measured and paper agree on who wins."""
        return (self.overhead >= 1.0) == (self.paper_overhead >= 1.0)


#: Two per-process caches.  ``_ENV_SNAPSHOTS`` holds the post-construction
#: kernel snapshot of each environment configuration (effective mount options,
#: page-cache size, delay_sync): the figures build byte-identical environments
#: over and over (Figure 2 alone builds two per workload), and repeats fork the
#: frozen image instead of re-running boot + mounts + FUSE negotiation.
#: ``_EXPERIMENTS`` holds the virtual ns of each experiment :func:`_measure`
#: ran, keyed by the workload's class and parameters, the effective mount
#: options and the side: Figure 3's "after" bars and Figure 4's 4-thread point
#: are Figure 2's own CntrFS runs.  The simulator is deterministic and every
#: measurement starts on a fresh fork, so a cached number is exactly the one a
#: re-run would produce.
_ENV_SNAPSHOTS: dict[tuple, object] = {}
_EXPERIMENTS: dict[tuple, int] = {}


def _effective_options(options: FuseMountOptions | None, threads: int) -> FuseMountOptions:
    """The mount options an environment runs with: ``threads`` applied, so
    ``options=None`` and an equal explicit object are one configuration."""
    return (options or FuseMountOptions.paper_defaults()).with_overrides(threads=threads)


class BenchEnvironment:
    """One measurement environment: an ext4 backing store reachable both
    natively and through a CntrFS mount."""

    def __init__(self, options: FuseMountOptions | None = None,
                 threads: int = 4, page_cache_mb: int = 2048,
                 delay_sync: bool = True) -> None:
        fuse_options = _effective_options(options, threads)
        key = (fuse_options, page_cache_mb, delay_sync)
        snap = _ENV_SNAPSHOTS.get(key)
        if snap is not None:
            _kernel, (clone,) = snap.fork()
            self.__dict__.update(clone.__dict__)
            return
        self.machine: Machine = boot(store_data=False,
                                     page_cache_bytes=page_cache_mb << 20)
        kernel = self.machine.kernel
        self.backing = Ext4Fs("bench-backing", kernel.clock, kernel.costs,
                              kernel.tracer, page_cache_bytes=page_cache_mb << 20)
        self.backing.store_data = False
        self.host_sc = self.machine.spawn_host_process(["/usr/bin/bench-host"])
        self.host_sc.makedirs("/data")
        self.host_sc.mount(self.backing, "/data")

        fuse_fd = self.host_sc.open("/dev/fuse", OpenFlags.O_RDWR)
        handle = self.host_sc.process.get_fd(fuse_fd)
        assert isinstance(handle, FuseDeviceHandle)
        export_root = kernel.vfs.resolve(self.host_sc._ctx(), "/data")  # noqa: SLF001
        self.server = CntrFS(kernel, self.host_sc.process, export_root=export_root,
                             threads=threads, delay_sync=delay_sync)
        handle.connection.attach_server(self.server)

        self.client_sc = self.machine.spawn_host_process(["/usr/bin/bench-client"])
        self.client = FuseClientFs("bench-cntrfs", kernel.clock, kernel.costs,
                                   handle.connection, options=fuse_options,
                                   tracer=kernel.tracer,
                                   page_cache_bytes=page_cache_mb << 20)
        self.client.store_data = False
        self.client_sc.makedirs("/cntr")
        self.client_sc.mount(self.client, "/cntr")
        _ENV_SNAPSHOTS[key] = kernel.snapshot(self)

    # ------------------------------------------------------------- access paths
    def native_access(self) -> tuple[Syscalls, str]:
        """Syscalls + base directory for the native (ext4) configuration."""
        return self.host_sc, "/data"

    def cntr_access(self) -> tuple[Syscalls, str]:
        """Syscalls + base directory for the CntrFS configuration."""
        return self.client_sc, "/cntr"

    def drop_caches(self) -> None:
        """Drop page/dentry caches machine-wide (cold-cache experiments).

        Goes through ``/proc/sys/vm/drop_caches`` — the operator path — which
        reaches every registered filesystem (the ext4 backing store *and* the
        CntrFS client), exactly like ``echo 3 > /proc/sys/vm/drop_caches`` on
        a real host.
        """
        fd = self.host_sc.open("/proc/sys/vm/drop_caches", OpenFlags.O_WRONLY)
        self.host_sc.write(fd, b"3\n")
        self.host_sc.close(fd)

    def drop_fuse_caches(self) -> None:
        """Invalidate only the FUSE-side caches, keeping the backing warm.

        This is *narrower* than ``drop_caches`` on purpose: the paper's
        cold-FUSE methodology measures a freshly mounted CntrFS against a
        backing store that just produced the data, so only the client's
        dentry/attribute/page caches are dropped (the simulation's stand-in
        for umount+mount of the FUSE client).
        """
        self.client.drop_caches()

    def measure(self, func) -> int:
        """Virtual nanoseconds spent inside ``func()``."""
        start = self.machine.clock.now_ns
        func()
        return self.machine.clock.now_ns - start


def _run_in(env: BenchEnvironment, workload: Workload, through_cntr: bool) -> int:
    """Prepare natively, run the measured phase through the requested path."""
    native_sc, native_base = env.native_access()
    run_sc, run_base = env.cntr_access() if through_cntr else (native_sc, native_base)
    workdir = workload_slug(workload.name)
    native_sc.makedirs(f"{native_base}/{workdir}")
    workload.prepare(native_sc, f"{native_base}/{workdir}")
    # Settle the backing store (flush dirty state from prepare) but keep its
    # page cache warm — the benchmark runs on the same machine that produced
    # the input data, exactly as in the paper's methodology.  Only the
    # FUSE-side caches start cold.
    env.backing.sync()
    env.drop_fuse_caches()
    return env.measure(lambda: workload.run(run_sc, f"{run_base}/{workdir}"))


def _workload_key(workload: Workload) -> tuple:
    """A workload's identity: its class plus every parameter it holds.

    Not ``Workload.__eq__``: the base dataclass compares only name,
    paper_overhead and description, and leaves instances unhashable.
    """
    return type(workload), tuple(sorted(vars(workload).items()))


def _measure(workload: Workload, through_cntr: bool,
             options: FuseMountOptions | None = None, threads: int = 4) -> int:
    """Virtual ns of ``workload`` run on one side of a fresh environment.

    Each experiment runs once per process: a repeat returns the number the
    first run measured (see ``_EXPERIMENTS``).
    """
    key = (_workload_key(workload), _effective_options(options, threads), through_cntr)
    ns = _EXPERIMENTS.get(key)
    if ns is None:
        env = BenchEnvironment(options=options, threads=threads)
        ns = _EXPERIMENTS[key] = _run_in(env, workload, through_cntr)
    return ns


def run_comparison(workload: Workload, options: FuseMountOptions | None = None,
                   threads: int = 4) -> ComparisonResult:
    """Run one workload natively and through CntrFS, in fresh environments."""
    native_ns = _measure(workload, False, options, threads)
    cntr_ns = _measure(workload, True, options, threads)
    return ComparisonResult(workload=workload.name, native_ns=native_ns,
                            cntr_ns=cntr_ns, paper_overhead=workload.paper_overhead)


# ---------------------------------------------------------------------------
# Figure 2: relative overhead of every Phoronix workload
# ---------------------------------------------------------------------------
def figure2_phoronix_overheads(workloads: list[Workload] | None = None,
                               options: FuseMountOptions | None = None) -> list[ComparisonResult]:
    """Regenerate Figure 2: one ComparisonResult per workload."""
    results = []
    for workload in (workloads if workloads is not None else ALL_WORKLOADS):
        results.append(run_comparison(workload, options=options))
    return results


def format_figure2(results: list[ComparisonResult]) -> str:
    """Render Figure 2 as a table of measured vs paper overheads."""
    lines = [f"{'benchmark':<22} {'measured':>9} {'paper':>7}  agreement"]
    for r in results:
        agree = "yes" if r.agrees_with_paper_direction() else "NO"
        lines.append(f"{r.workload:<22} {r.overhead:>8.1f}x {r.paper_overhead:>6.1f}x  {agree}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 3: effectiveness of the individual optimizations
# ---------------------------------------------------------------------------
@dataclass
class OptimizationEffect:
    """Before/after measurement for one optimization toggle."""

    name: str
    metric: str
    before: float
    after: float
    paper_note: str = ""

    @property
    def improvement(self) -> float:
        """after / before (values > 1 mean the optimization helps)."""
        return self.after / self.before if self.before else float("inf")


def _throughput_mb_s(nbytes: int, duration_ns: int) -> float:
    if duration_ns <= 0:
        return float("inf")
    return (nbytes / 1e6) / (duration_ns / 1e9)


def figure3_optimization_effects() -> list[OptimizationEffect]:
    """Regenerate Figure 3: read cache, writeback cache, batching, splice read."""
    defaults = FuseMountOptions.paper_defaults()
    effects = []

    # (a) Read cache (FOPEN_KEEP_CACHE): threaded read throughput.
    read_wl = ThreadedIoRead()
    read_bytes = read_wl.size * read_wl.threads
    before_ns = _measure(read_wl, True, defaults.with_overrides(keep_cache=False))
    after_ns = _measure(read_wl, True, defaults.with_overrides(keep_cache=True))
    effects.append(OptimizationEffect(
        name="read_cache", metric="threaded read [MB/s]",
        before=_throughput_mb_s(read_bytes, before_ns),
        after=_throughput_mb_s(read_bytes, after_ns),
        paper_note="~10x higher throughput with FOPEN_KEEP_CACHE (Figure 3a)"))

    # (b) Writeback cache: sequential write throughput.
    from repro.bench.phoronix import IoZoneWrite
    write_wl = IoZoneWrite()
    before_ns = _measure(write_wl, True, defaults.with_overrides(writeback_cache=False))
    after_ns = _measure(write_wl, True, defaults.with_overrides(writeback_cache=True))
    effects.append(OptimizationEffect(
        name="writeback_cache", metric="sequential write [MB/s]",
        before=_throughput_mb_s(write_wl.size, before_ns),
        after=_throughput_mb_s(write_wl.size, after_ns),
        paper_note="+65% over native write throughput with writeback (Figure 3b)"))

    # (c) Batching (FUSE_PARALLEL_DIROPS): compilebench read-tree throughput.
    from repro.bench.phoronix import CompilebenchRead
    read_tree = CompilebenchRead()
    tree_bytes = read_tree.dirs * read_tree.files_per_dir * 5 * 1024
    before_ns = _measure(read_tree, True, defaults.with_overrides(parallel_dirops=False))
    after_ns = _measure(read_tree, True, defaults.with_overrides(parallel_dirops=True))
    effects.append(OptimizationEffect(
        name="batching", metric="read compiled tree [MB/s]",
        before=_throughput_mb_s(tree_bytes, before_ns),
        after=_throughput_mb_s(tree_bytes, after_ns),
        paper_note="~2.5x speedup with PARALLEL_DIROPS (Figure 3c)"))

    # (d) Splice read: sequential read throughput.
    seq_read = IoZoneRead()
    before_ns = _measure(seq_read, True, defaults.with_overrides(splice_read=False))
    after_ns = _measure(seq_read, True, defaults.with_overrides(splice_read=True))
    effects.append(OptimizationEffect(
        name="splice_read", metric="sequential read [MB/s]",
        before=_throughput_mb_s(seq_read.size, before_ns),
        after=_throughput_mb_s(seq_read.size, after_ns),
        paper_note="~5% improvement from splice reads (Figure 3d)"))
    return effects


# ---------------------------------------------------------------------------
# Figure 4: multithreading sweep
# ---------------------------------------------------------------------------
@dataclass
class ThreadSweepPoint:
    """Throughput measured with one CntrFS thread count."""

    threads: int
    duration_ns: int
    throughput_mb_s: float


def figure4_thread_sweep(thread_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
                         size_mb: int = 32) -> list[ThreadSweepPoint]:
    """Regenerate Figure 4: IOzone sequential read vs CntrFS thread count."""
    points = []
    for threads in thread_counts:
        workload = IoZoneRead(size_mb=size_mb)
        duration = _measure(workload, True, threads=threads)
        points.append(ThreadSweepPoint(
            threads=threads, duration_ns=duration,
            throughput_mb_s=_throughput_mb_s(workload.size, duration)))
    return points


# ---------------------------------------------------------------------------
# Figure 5: Docker-Slim reduction of the Top-50 images
# ---------------------------------------------------------------------------
@dataclass
class SlimSweepResult:
    """Figure 5 data: per-image reductions plus the histogram."""

    reports: list[SlimReport] = field(default_factory=list)

    @property
    def reductions(self) -> list[float]:
        """Reduction percentages, one per image."""
        return [r.reduction_percent for r in self.reports]

    @property
    def mean_reduction(self) -> float:
        """Average reduction across the catalogue."""
        reductions = self.reductions
        return sum(reductions) / len(reductions) if reductions else 0.0

    def histogram(self, bucket_width: float = 10.0) -> dict[str, int]:
        """Reduction histogram with ``bucket_width``-percent buckets (Figure 5)."""
        buckets: dict[str, int] = {}
        for reduction in self.reductions:
            low = int(reduction // bucket_width) * int(bucket_width)
            high = low + int(bucket_width)
            key = f"{low}-{high}%"
            buckets[key] = buckets.get(key, 0) + 1
        return dict(sorted(buckets.items(), key=lambda kv: int(kv[0].split("-")[0])))

    def count_below(self, threshold_percent: float) -> int:
        """Images whose reduction is below the threshold."""
        return sum(1 for r in self.reductions if r < threshold_percent)

    def count_between(self, low: float, high: float) -> int:
        """Images whose reduction falls inside [low, high]."""
        return sum(1 for r in self.reductions if low <= r <= high)


def figure5_docker_slim(max_files: int | None = 400) -> SlimSweepResult:
    """Regenerate Figure 5: slim every catalogue image and report reductions."""
    slimmer = DockerSlim()
    result = SlimSweepResult()
    for entry in TOP50_CATALOGUE:
        image = build_catalogue_image(entry, max_files=max_files)
        result.reports.append(slimmer.analyze_static(image))
    return result


def format_figure5(result: SlimSweepResult) -> str:
    """Render Figure 5 as a histogram table."""
    lines = [f"mean reduction: {result.mean_reduction:.1f}% "
             f"(paper: 66.6%)",
             f"images below 10% reduction: {result.count_below(10.0)} (paper: 6)",
             "histogram (reduction % -> #images):"]
    for bucket, count in result.histogram().items():
        lines.append(f"  {bucket:>8}: {'#' * count} ({count})")
    return "\n".join(lines)
