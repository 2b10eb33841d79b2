"""The observability layer: PSI accounting, tracepoints and the trace CLI.

Four contracts are locked down here (see PERFORMANCE.md "Observability"):

* **exact decomposition** — PSI totals are task-stall time summed straight
  from the stall sites, so ``total=`` decomposes to the nanosecond against
  the per-subsystem counters (the xfstests ``psi`` group asserts each
  resource; here the primitives are pinned: full ⊆ some, bucketed
  rectangular averages, deterministic rendering).
* **zero virtual cost** — accounting and reading pressure never advance the
  virtual clock: an instrumented run (PSI renders, vmstat, tracer summaries
  interleaved everywhere, no subscribers attached) is byte-identical in
  virtual time to an uninstrumented one.
* **deterministic ordering** — ``Tracer.summary()`` breaks cost ties by key,
  so equal-cost tracepoints render in the same order regardless of
  insertion order or interpreter hash seed.
* **snapshot safety** — the PSI registry, its cgroup-chain resolver and
  attached subscribers survive :meth:`Kernel.snapshot`/fork, and forked
  clones account independently.
"""

from __future__ import annotations

import pytest

from repro.fs.constants import OpenFlags
from repro.kernel.machine import boot
from repro.sim.clock import VirtualClock
from repro.sim.psi import (
    BUCKET_NS,
    PSI_RESOURCES,
    PSI_WINDOWS_S,
    PsiGroup,
    PsiRegistry,
    PsiStallTracker,
)
from repro.sim.trace import Tracer
from repro.trace import (
    TraceCollector,
    parse_vmstat,
    psi_sample,
    run_traced,
    smoke_workloads,
    workload_registry,
    workload_slug,
)

CREAT_WR = OpenFlags.O_CREAT | OpenFlags.O_WRONLY


# ---------------------------------------------------------------------------
# PSI primitives
# ---------------------------------------------------------------------------
class TestPsiStallTracker:
    def test_full_is_a_subset_of_some(self):
        tracker = PsiStallTracker()
        tracker.account(1_000_000, 500_000)
        tracker.account(2_000_000, 250_000, full=True)
        assert tracker.total_some_ns == 750_000
        assert tracker.total_full_ns == 250_000
        assert tracker.total_full_ns <= tracker.total_some_ns

    def test_non_positive_deltas_are_ignored(self):
        tracker = PsiStallTracker()
        tracker.account(1_000_000, 0)
        tracker.account(1_000_000, -5)
        assert tracker.total_some_ns == 0
        assert tracker.render(1_000_000) == (
            "some avg10=0.00 avg60=0.00 avg300=0.00 total=0\n"
            "full avg10=0.00 avg60=0.00 avg300=0.00 total=0\n")

    def test_rectangular_average_is_exact(self):
        tracker = PsiStallTracker()
        # 500ms stalled inside the first virtual second: 5.00% of a 10s
        # window, 0.83% of 60s, 0.16% of 300s — pure integer arithmetic.
        tracker.account(BUCKET_NS, 500_000_000)
        line = tracker.render(BUCKET_NS).splitlines()[0]
        assert line == "some avg10=5.00 avg60=0.83 avg300=0.16 total=500000"

    def test_stall_spreads_across_buckets(self):
        tracker = PsiStallTracker()
        # A 2s stall ending at t=3s spans buckets 1 and 2 entirely.
        tracker.account(3 * BUCKET_NS, 2 * BUCKET_NS)
        assert tracker._some == {1: BUCKET_NS, 2: BUCKET_NS}

    def test_averages_cap_at_one_hundred(self):
        tracker = PsiStallTracker()
        # Overlapping stalls can exceed wall time; the average stays capped.
        for _ in range(3):
            tracker.account(10 * BUCKET_NS, 10 * BUCKET_NS)
        line = tracker.render(10 * BUCKET_NS).splitlines()[0]
        assert line.startswith("some avg10=100.00")

    def test_history_is_pruned_beyond_the_largest_window(self):
        tracker = PsiStallTracker()
        tracker.account(BUCKET_NS, 100)
        far_future = (max(PSI_WINDOWS_S) + 10) * BUCKET_NS
        tracker.account(far_future, 100)
        assert len(tracker._some) == 1
        # The total is monotonic even after the history window slid past.
        assert tracker.total_some_ns == 200

    def test_same_history_renders_the_same_bytes(self):
        a, b = PsiStallTracker(), PsiStallTracker()
        for tracker in (a, b):
            tracker.account(1_500_000_000, 400_000_000)
            tracker.account(2_500_000_000, 100_000_000, full=True)
        assert a.render(3 * BUCKET_NS) == b.render(3 * BUCKET_NS)


class TestPsiRegistry:
    def test_accounts_system_and_explicit_groups(self):
        clock = VirtualClock()
        registry = PsiRegistry(clock)
        group = PsiGroup()
        clock.advance(1_000_000)
        registry.account("io", 250_000, groups=(group,))
        assert registry.system.tracker("io").total_some_ns == 250_000
        assert group.tracker("io").total_some_ns == 250_000

    def test_resolves_current_groups_when_unspecified(self):
        clock = VirtualClock()
        registry = PsiRegistry(clock)
        chain = (PsiGroup(), PsiGroup())
        registry.current_groups = lambda: chain
        registry.account("memory", 123_456, full=True)
        for group in chain:
            assert group.tracker("memory").total_full_ns == 123_456

    def test_accounting_never_touches_the_clock(self):
        clock = VirtualClock()
        registry = PsiRegistry(clock)
        clock.advance(5_000)
        before = clock.now_ns
        registry.account("cpu", 1_000_000)
        registry.system.render("cpu", clock.now_ns)
        assert clock.now_ns == before

    def test_unknown_resource_raises(self):
        registry = PsiRegistry(VirtualClock())
        with pytest.raises(KeyError):
            registry.account("network", 1_000)


# ---------------------------------------------------------------------------
# Tracer ordering and gating
# ---------------------------------------------------------------------------
class TestTracerSummary:
    def _tracer_with(self, order):
        tracer = Tracer(enabled=True)
        for key in order:
            tracer.emit(1_000, key, cost_ns=7_000)
        return tracer

    def test_equal_costs_tie_break_by_key(self):
        forward = self._tracer_with(["b.two", "a.one", "c.three"])
        rows = forward.summary()
        assert [row[0] for row in rows] == ["a.one", "b.two", "c.three"]

    def test_summary_is_insertion_order_independent(self):
        forward = self._tracer_with(["b.two", "a.one", "c.three"])
        backward = self._tracer_with(["c.three", "b.two", "a.one"])
        assert forward.summary() == backward.summary()

    def test_higher_cost_still_sorts_first(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1_000, "a.cheap", cost_ns=10)
        tracer.emit(2_000, "z.dear", cost_ns=1_000_000)
        assert [row[0] for row in tracer.summary()] == ["z.dear", "a.cheap"]


# ---------------------------------------------------------------------------
# Observational equivalence: reading pressure costs nothing
# ---------------------------------------------------------------------------
def _stall_heavy_workload(machine, observe):
    """A workload crossing every stall site; ``observe()`` is interleaved
    between operations and must not change the virtual outcome."""
    kernel = machine.kernel
    sc = machine.spawn_host_process(["/usr/bin/workload"])
    sc.makedirs("/work")
    kernel.cgroups.create("/tenant")
    kernel.cgroups.lookup("/tenant").limits.memory_high_bytes = 64 << 10
    kernel.cgroups.attach(sc.process.pid, "/tenant")
    observe()
    fd = sc.open("/work/data", CREAT_WR, 0o644)
    for _ in range(4):
        sc.write(fd, b"W" * (64 << 10))
        observe()
    sc.fsync(fd)
    observe()
    sc.close(fd)
    sc.read(sc.open("/work/data", OpenFlags.O_RDONLY), 1 << 20)
    observe()
    return kernel.clock.now_ns


@pytest.mark.parametrize("spin", [1, 3])
def test_reading_pressure_is_observationally_free(spin):
    """An instrumented run — PSI renders, vmstat, tracer summaries read
    ``spin`` times between every operation, no subscribers attached — ends
    at byte-identical virtual time and byte-identical pressure files."""
    def noop():
        pass

    machines = {}
    for label in ("plain", "observed"):
        machine = boot()
        kernel = machine.kernel

        def observe(kernel=kernel, enabled=label == "observed"):
            if not enabled:
                return
            now = kernel.clock.now_ns
            for _ in range(spin):
                for resource in PSI_RESOURCES:
                    kernel.psi.system.render(resource, now)
                kernel.vm.vmstat_text()
                kernel.tracer.summary()
                kernel.tracer.counts_by_key()
                psi_sample(kernel)

        machines[label] = (machine, _stall_heavy_workload(machine, observe))

    plain_machine, plain_ns = machines["plain"]
    observed_machine, observed_ns = machines["observed"]
    assert observed_ns == plain_ns
    now = plain_machine.kernel.clock.now_ns
    for resource in PSI_RESOURCES:
        assert (observed_machine.kernel.psi.system.render(resource, now)
                == plain_machine.kernel.psi.system.render(resource, now))
    assert (observed_machine.kernel.vm.vmstat_text()
            == plain_machine.kernel.vm.vmstat_text())


def test_memory_stalls_actually_accrued_above():
    """Guard for the equivalence test: the workload it runs is genuinely
    stall-heavy (else the byte-identical claim would be vacuous)."""
    machine = boot()
    _stall_heavy_workload(machine, lambda: None)
    tracker = machine.kernel.psi.system.tracker("memory")
    assert tracker.total_some_ns > 0


# ---------------------------------------------------------------------------
# Snapshot / fork safety
# ---------------------------------------------------------------------------
def test_psi_and_subscribers_survive_snapshot_fork():
    machine = boot()
    kernel = machine.kernel
    collector = TraceCollector()
    kernel.tracer.attach("writeback.flush", collector)
    kernel.psi.account("io", 42_000)

    snap = kernel.snapshot(machine)
    _forked_kernel, (forked_machine,) = snap.fork()
    forked = forked_machine.kernel
    assert forked.psi.system.tracker("io").total_some_ns == 42_000
    # The forked registry resolves cgroup chains against the forked kernel.
    assert forked.psi.current_groups.kernel is forked
    # Forked accounting does not leak back into the original.
    forked.psi.account("io", 8_000)
    assert kernel.psi.system.tracker("io").total_some_ns == 42_000
    assert forked.psi.system.tracker("io").total_some_ns == 50_000
    # The attached subscriber was cloned and stays functional: the forked
    # clone sees forked events, the original never does.
    forked.tracer.emit(1, "writeback.flush", cost_ns=5)
    forked_collector = forked.tracer._subscribers["writeback.flush"][0].callback
    assert forked_collector is not collector
    assert forked_collector.counts == {"writeback.flush": 1}
    assert collector.counts == {}


# ---------------------------------------------------------------------------
# repro.trace CLI plumbing
# ---------------------------------------------------------------------------
class TestTraceCli:
    def test_workload_slug(self):
        assert workload_slug("IOzone: Write") == "iozone-write"
        assert workload_slug("Sqlite 3.7") == "sqlite-37"

    def test_registry_covers_all_workloads(self):
        registry = workload_registry()
        assert "iozone-write" in registry
        assert all(slug == workload_slug(w.name)
                   for slug, w in registry.items())

    def test_parse_vmstat_roundtrip(self):
        parsed = parse_vmstat("nr_dirty 3\npgfault 17\n")
        assert parsed == {"nr_dirty": 3, "pgfault": 17}

    def test_smoke_workloads_are_small_and_fixed(self):
        pair = smoke_workloads()
        assert [w.size for w in pair] == [4 << 20, 4 << 20]

    def test_smoke_run_passes_its_own_invariants(self, tmp_path, capsys):
        from repro.trace.__main__ import main

        out = tmp_path / "report.json"
        assert main(["--smoke", "--output", str(out)]) == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["problems"] == []
        report = payload["reports"][0]
        assert report["tracepoints"] == report["subscriber"]
        assert "fuse.dispatch" in report["tracepoints"]
        assert report["virtual_ns"] > 0
        phases = [entry["phase"] for entry in report["psi"]["timeline"]]
        assert phases == ["boot", "prepared", "ran"]

    @pytest.mark.parametrize("workload", smoke_workloads(), ids=lambda w: w.name)
    def test_traced_run_is_the_figure_experiment(self, workload):
        """A traced run makes the figure harness's measurement: the same
        phases, and tracing charges no virtual time of its own."""
        from repro.bench import harness

        assert run_traced(workload)["virtual_ns"] == harness._measure(workload, True)

    @pytest.mark.parametrize("top", ["-1", "-5"])
    def test_negative_top_is_rejected(self, top, capsys):
        from repro.trace.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", "--top", top])
        assert excinfo.value.code == 2
        assert "--top: must be >= 0" in capsys.readouterr().err

    def test_trace_module_is_wallclock_allowlisted(self):
        from repro.analyze.core import DEFAULT_CONFIG

        assert "repro.trace.__main__" in DEFAULT_CONFIG.wallclock_allow
        assert "repro.trace" in DEFAULT_CONFIG.layers
        patterns = DEFAULT_CONFIG.zero_cost
        assert any(p.startswith("PsiStallTracker") for p in patterns)
        assert any(p.startswith("Tracer") for p in patterns)
