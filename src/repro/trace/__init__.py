"""``repro.trace`` — run a workload with the observability layer attached.

The CLI boots a standard benchmark environment
(:class:`repro.bench.harness.BenchEnvironment`), enables the tracer, attaches
a wildcard tracepoint subscriber, runs one named workload through CntrFS and
emits a JSON report: per-tracepoint counts and virtual costs (from both the
collector subscriber and the tracer's own counters), drop counters, the
top-N cost summary, PSI totals sampled at each phase boundary plus the
rendered ``/proc/pressure`` files, and the final ``/proc/vmstat``.

The report is deterministic except for the single ``wall_s`` field (the only
wall-clock read; ``repro.trace`` is on the determinism gate's wall-clock
allowlist for it), so CI can diff consecutive runs after dropping that key.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.bench.harness import BenchEnvironment
from repro.bench.phoronix import (
    ALL_WORKLOADS,
    IoZoneRead,
    IoZoneWrite,
    Workload,
    workload_slug,
)
from repro.sim.psi import PSI_RESOURCES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.kernel import Kernel
    from repro.sim.trace import TraceEvent


def workload_registry() -> dict[str, Workload]:
    """Every Phoronix workload, keyed by CLI slug."""
    return {workload_slug(w.name): w for w in ALL_WORKLOADS}


class TraceCollector:
    """Wildcard subscriber accumulating per-tracepoint counts and costs.

    A named class (not a closure) so a kernel carrying an attached collector
    stays snapshot-picklable.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.costs: dict[str, int] = {}

    def __call__(self, event: "TraceEvent") -> None:
        key = event.key
        self.counts[key] = self.counts.get(key, 0) + 1
        self.costs[key] = self.costs.get(key, 0) + event.cost_ns


def psi_sample(kernel: "Kernel") -> dict[str, dict[str, int]]:
    """System-level PSI totals, per resource."""
    out = {}
    for resource in PSI_RESOURCES:
        tracker = kernel.psi.system.tracker(resource)
        out[resource] = {"some_total_ns": tracker.total_some_ns,
                         "full_total_ns": tracker.total_full_ns}
    return out


def parse_vmstat(text: str) -> dict[str, int]:
    """``/proc/vmstat`` text -> {counter: value}."""
    out = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        out[name] = int(value)
    return out


def run_traced(workload: Workload, top: int = 10) -> dict:
    """Run ``workload`` through CntrFS with observability on; build the report.

    Mirrors :func:`repro.bench.harness._run_in` phase structure (prepare
    natively, settle, run through the FUSE mount) but samples PSI at every
    phase boundary and keeps the tracer hot throughout.
    """
    env = BenchEnvironment()
    kernel = env.machine.kernel
    tracer = kernel.tracer
    collector = TraceCollector()
    subscription = tracer.attach("*", collector)
    tracer.enabled = True

    timeline = [{"phase": "boot", "virtual_ns": kernel.clock.now_ns,
                 "psi": psi_sample(kernel)}]
    native_sc, native_base = env.native_access()
    run_sc, run_base = env.cntr_access()
    workdir = workload_slug(workload.name)
    native_sc.makedirs(f"{native_base}/{workdir}")
    workload.prepare(native_sc, f"{native_base}/{workdir}")
    env.backing.sync()
    env.drop_fuse_caches()
    timeline.append({"phase": "prepared", "virtual_ns": kernel.clock.now_ns,
                     "psi": psi_sample(kernel)})
    duration_ns = env.measure(
        lambda: workload.run(run_sc, f"{run_base}/{workdir}"))
    timeline.append({"phase": "ran", "virtual_ns": kernel.clock.now_ns,
                     "psi": psi_sample(kernel)})

    tracer.enabled = False
    tracer.detach(subscription)
    now_ns = kernel.clock.now_ns
    report = {
        "workload": workload_slug(workload.name),
        "virtual_ns": duration_ns,
        "tracepoints": {
            key: {"count": tracer.count(key), "cost_ns": tracer.total_cost(key)}
            for key in sorted(tracer.counts_by_key())},
        "subscriber": {
            key: {"count": collector.counts[key],
                  "cost_ns": collector.costs[key]}
            for key in sorted(collector.counts)},
        "dropped": {"total": tracer.dropped,
                    "by_key": dict(sorted(tracer.dropped_by_key.items()))},
        "top": [{"tracepoint": key, "count": count, "cost_ns": cost_ns}
                for key, count, cost_ns in tracer.summary(top)],
        "psi": {
            "timeline": timeline,
            "files": {resource: kernel.psi.system.render(resource, now_ns)
                      for resource in PSI_RESOURCES}},
        "vmstat": parse_vmstat(kernel.vm.vmstat_text()),
    }
    return report


def smoke_workloads() -> list[Workload]:
    """The small write+read pair the CI smoke run traces."""
    return [IoZoneWrite(size_mb=4), IoZoneRead(size_mb=4)]
