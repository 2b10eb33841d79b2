"""Writeback-subsystem guard: tunables must steer flushes, defaults must not.

Two contracts are enforced here (see PERFORMANCE.md "The unified writeback
contract"):

* **Default equivalence** — with untouched ``vm.dirty_*`` knobs the unified
  engine reproduces the seed's flush points exactly, pinned as exact
  ``virtual_ms`` values of the hot-path smoke workload (the simulation is
  deterministic, so exact equality is meaningful and portable).
* **Tunability** — lowering ``vm.dirty_bytes`` (or the background threshold)
  yields more, smaller flushes and monotonically more virtual time, because
  each flush pays the fixed ``fuse_writeback_flush_ns`` while byte costs are
  constant.  Asserted live at smoke scale and against the committed
  ``BENCH_writeback.json``.
"""

import json
import os

import pytest

from repro.bench.writeback import run_dirty_workload

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_writeback.json")

#: The scenarios that existed before the memcg sweep.  Their committed rows
#: are append-only history: the guard below pins their canonical JSON by
#: hash, so a regeneration can only ever *add* scenarios (or rows with new
#: keys on new rows), never rewrite what previous PRs published.
HISTORICAL_SCENARIOS = (
    "defaults", "dirty_bytes", "dirty_background_bytes",
    "dirty_expire_centisecs", "fsync_storm", "dirty_ratio",
    "bdi_write_bandwidth", "mem_pressure", "read_bdi",
)
HISTORICAL_SCENARIOS_SHA256 = \
    "42de77d8c9e11ca5c9b43f6eae1ec647e706f306c5c50df55762d4ee8357d414"

#: Exact seed-era virtual times of the 16 MiB hot-path smoke phases.  The
#: unified writeback engine (PR 2) must leave them untouched under default
#: tunables; update ONLY for a deliberate cost-model change.
SEED_HOTPATH_16MB_VIRTUAL_MS = {
    "seq_write": 14.026,
    "seq_read_cold": 7.932804,
    "seq_read_warm": 4.283004,
}


def test_default_tunables_reproduce_seed_flush_points():
    from repro.bench.hotpath import run_hotpath

    results = run_hotpath(size_mb=16, record_kb=64, page_cache_mb=256)
    measured = {r.workload: round(r.virtual_ms, 6) for r in results}
    assert measured == SEED_HOTPATH_16MB_VIRTUAL_MS


@pytest.fixture(scope="module")
def dirty_bytes_sweep():
    """8 MiB of dirty writes under a falling vm.dirty_bytes hard limit."""
    return [
        run_dirty_workload("dirty_bytes",
                           {"dirty_background_bytes": 0, "dirty_bytes": limit},
                           size_mb=8, page_cache_mb=256)
        for limit in (512 << 10, 2 << 20, 8 << 20)
    ]


def test_lower_dirty_bytes_means_more_smaller_flushes(dirty_bytes_sweep):
    flushes = [r.flushes for r in dirty_bytes_sweep]
    mean_kb = [r.mean_flush_kb for r in dirty_bytes_sweep]
    assert flushes == sorted(flushes, reverse=True) and flushes[0] > flushes[-1]
    assert mean_kb == sorted(mean_kb) and mean_kb[0] < mean_kb[-1]
    for r in dirty_bytes_sweep:
        assert set(r.flushes_by_reason) == {"dirty_limit"}


def test_flush_count_deltas_explain_virtual_time(dirty_bytes_sweep):
    """The virtual-time delta between two settings is exactly the fixed
    per-flush cost times the flush-count delta: byte-proportional costs
    (copies, page-cache accounting, per-request overheads) are identical
    because the same bytes travel in the same total number of max_write-sized
    requests either way.  Each extra flush costs the client its
    ``fuse_writeback_flush_ns`` and — because /proc/sys/vm retunes every
    mounted filesystem — one random-access seek on the backing ext4, whose
    flusher catches up at the same cadence with a device write at offset 0."""
    from repro.sim.costs import DEFAULT_COST_MODEL as costs

    virtual = [r.virtual_ms for r in dirty_bytes_sweep]
    assert virtual == sorted(virtual, reverse=True) and virtual[0] > virtual[-1]
    per_flush_ns = costs.fuse_writeback_flush_ns + costs.disk_seek_ns
    for a, b in zip(dirty_bytes_sweep, dirty_bytes_sweep[1:], strict=False):
        expected_delta_ms = (a.flushes - b.flushes) * per_flush_ns / 1e6
        assert (a.virtual_ms - b.virtual_ms) == \
            pytest.approx(expected_delta_ms, rel=1e-3)


def test_fsync_cadence_drives_flushes_when_thresholds_idle():
    runs = [run_dirty_workload("fsync_storm", {"dirty_background_bytes": 0},
                               size_mb=8, fsync_every=every, page_cache_mb=256)
            for every in (16, 64)]
    assert runs[0].flushes > runs[1].flushes
    for r in runs:
        assert set(r.flushes_by_reason) == {"fsync"}


def test_dirty_ratio_resolves_like_dirty_bytes():
    """A ratio over a shrunk modelled memory must act exactly like the byte
    threshold it resolves to: same flush count, same flush sizes, same
    virtual time (the deterministic simulation makes equality exact)."""
    ratio_run = run_dirty_workload(
        "dirty_ratio", {"dirty_background_bytes": 0, "dirty_ratio": 4},
        size_mb=8, page_cache_mb=256, mem_total_mb=64)
    bytes_run = run_dirty_workload(
        "dirty_bytes",
        {"dirty_background_bytes": 0, "dirty_bytes": (64 << 20) * 4 // 100},
        size_mb=8, page_cache_mb=256)
    assert ratio_run.flushes == bytes_run.flushes
    assert ratio_run.mean_flush_kb == bytes_run.mean_flush_kb
    assert ratio_run.virtual_ms == bytes_run.virtual_ms
    # Threshold crossings flush as "dirty_limit"; the sub-threshold residue
    # is written back at release ("sync") — identically in both runs.
    assert ratio_run.flushes_by_reason == bytes_run.flushes_by_reason
    assert ratio_run.flushes_by_reason.get("dirty_limit", 0) > 0


def test_bdi_bandwidth_shapes_flush_cost():
    """Lower modelled write bandwidth => more virtual time, with the delta
    exactly the BDI busy time; bytes flushed are conserved."""
    runs = [run_dirty_workload(
                "bdi", {"dirty_background_bytes": 0, "dirty_bytes": 1 << 20},
                size_mb=8, page_cache_mb=256, bdi_write_mb_s=bandwidth)
            for bandwidth in (0, 400, 100)]
    base = runs[0]
    assert base.bdi_busy_ms == 0.0
    for run in runs[1:]:
        assert run.flushes == base.flushes
        assert run.flushed_kb == base.flushed_kb
        assert run.virtual_ms - base.virtual_ms == \
            pytest.approx(run.bdi_busy_ms, abs=1e-6)
    virtual = [r.virtual_ms for r in runs]
    assert virtual == sorted(virtual) and virtual[0] < virtual[-1]


def test_mem_pressure_reclaims_more_as_memory_shrinks():
    """Smaller modelled memory ⇒ more reclaimed pages, more reclaim-reason
    flushes and more virtual time; the reclaim-off baseline reclaims
    nothing."""
    from repro.bench.writeback import run_dirty_workload

    runs = [run_dirty_workload("mem_pressure", {"dirty_background_bytes": 0},
                               size_mb=8, page_cache_mb=256, reclaim_mem_mb=mem)
            for mem in (0, 6, 3)]
    base = runs[0]
    assert base.reclaimed_kb == 0.0 and base.reclaim_flushed_kb == 0.0
    reclaimed = [r.reclaimed_kb for r in runs]
    assert reclaimed == sorted(reclaimed) and reclaimed[0] < reclaimed[-1]
    for run in runs[1:]:
        assert run.reclaim_flushed_kb > 0, \
            "pressure flushes dirty pages through the engine"
        assert run.flushes > base.flushes
        assert run.virtual_ms > base.virtual_ms


def test_read_bdi_bandwidth_shapes_read_cost():
    """Lower modelled read bandwidth ⇒ more virtual time, with the delta
    exactly the BDI read-busy time; bytes fetched are conserved."""
    from repro.bench.writeback import run_read_workload

    runs = [run_read_workload("read_bdi", size_mb=8, page_cache_mb=256,
                              bdi_read_mb_s=bandwidth)
            for bandwidth in (0, 400, 100)]
    base = runs[0]
    assert base.bdi_read_busy_ms == 0.0
    for run in runs[1:]:
        assert run.read_kb == base.read_kb
        assert run.virtual_ms - base.virtual_ms == \
            pytest.approx(run.bdi_read_busy_ms, abs=1e-6)
    virtual = [r.virtual_ms for r in runs]
    assert virtual == sorted(virtual) and virtual[0] < virtual[-1]


def test_committed_bench_json_shows_tunable_flush_behaviour():
    with open(BENCH_JSON) as fh:
        data = json.load(fh)
    scenarios = data["scenarios"]
    # Every swept scenario is ordered from the most aggressive setting to the
    # laziest: flush counts fall, flush sizes grow, virtual time falls.  The
    # ratio sweep behaves exactly like a bytes sweep because the ratios
    # resolve to byte thresholds against the modelled memory.
    for name in ("dirty_bytes", "dirty_background_bytes",
                 "dirty_expire_centisecs", "fsync_storm", "dirty_ratio"):
        runs = scenarios[name]
        assert len(runs) >= 2, name
        flushes = [r["flushes"] for r in runs]
        mean_kb = [r["mean_flush_kb"] for r in runs]
        virtual = [r["virtual_ms"] for r in runs]
        assert flushes == sorted(flushes, reverse=True) and flushes[0] > flushes[-1]
        assert mean_kb == sorted(mean_kb) and mean_kb[0] < mean_kb[-1]
        assert virtual == sorted(virtual, reverse=True), name
    # The BDI sweep conserves flush behaviour and grows only the bandwidth
    # term: virtual-time deltas against the unshaped baseline decompose to
    # the BDI busy time exactly.
    bdi_runs = scenarios["bdi_write_bandwidth"]
    base = bdi_runs[0]
    assert base["bdi_write_mb_s"] == 0 and base["bdi_busy_ms"] == 0.0
    for run in bdi_runs[1:]:
        assert run["flushes"] == base["flushes"]
        assert run["flushed_kb"] == base["flushed_kb"]
        assert run["virtual_ms"] - base["virtual_ms"] == \
            pytest.approx(run["bdi_busy_ms"], abs=2e-3)
    bdi_virtual = [r["virtual_ms"] for r in bdi_runs]
    assert bdi_virtual == sorted(bdi_virtual) and bdi_virtual[0] < bdi_virtual[-1]
    # The default run flushes at the seed's aggregation points: one
    # background flush per writeback_batch_bytes of dirty data.
    default = scenarios["defaults"][0]
    assert default["tunables"] == {}
    assert default["mean_flush_kb"] == 128.0
    assert set(default["flushes_by_reason"]) == {"background"}
    # The pre-reclaim scenario rows carry none of the reclaim/read fields:
    # their JSON is byte-identical to the PR 3 file.
    for name in ("defaults", "dirty_bytes", "dirty_background_bytes",
                 "dirty_expire_centisecs", "fsync_storm", "dirty_ratio",
                 "bdi_write_bandwidth"):
        for run in scenarios[name]:
            assert "reclaim_mem_mb" not in run and "bdi_read_mb_s" not in run
    # The memory-pressure sweep: the reclaim-off baseline reclaims nothing;
    # shrinking memory reclaims more, flushes more and costs more time.
    pressure = scenarios["mem_pressure"]
    assert pressure[0]["reclaim_mem_mb"] == 0
    assert pressure[0]["reclaimed_kb"] == 0.0
    mems = [r["reclaim_mem_mb"] for r in pressure[1:]]
    assert mems == sorted(mems, reverse=True)
    reclaimed = [r["reclaimed_kb"] for r in pressure]
    flushes = [r["flushes"] for r in pressure]
    assert reclaimed == sorted(reclaimed) and reclaimed[0] < reclaimed[-1]
    assert flushes == sorted(flushes) and flushes[0] < flushes[-1]
    for run in pressure[1:]:
        assert run["reclaim_flushed_kb"] > 0
        assert run["flushes_by_reason"].get("reclaim", 0) > 0
        assert run["virtual_ms"] > pressure[0]["virtual_ms"]
    # The read sweep: bytes fetched conserved, virtual-time deltas equal to
    # the BDI read-busy time exactly, monotone in falling bandwidth.
    reads = scenarios["read_bdi"]
    read_base = reads[0]
    assert read_base["bdi_read_mb_s"] == 0 and read_base["bdi_read_busy_ms"] == 0.0
    for run in reads[1:]:
        assert run["read_kb"] == read_base["read_kb"]
        assert run["virtual_ms"] - read_base["virtual_ms"] == \
            pytest.approx(run["bdi_read_busy_ms"], abs=2e-3)
    read_virtual = [r["virtual_ms"] for r in reads]
    assert read_virtual == sorted(read_virtual) and read_virtual[0] < read_virtual[-1]


def test_committed_bench_json_memcg_sweep():
    """The memcg sweep: shrinking memory.max ⇒ monotonically more per-cgroup
    reclaim, flush-before-drop and writer stall; the virtual-time delta
    against the unlimited base row is exactly stall + reclaim cost."""
    with open(BENCH_JSON) as fh:
        scenarios = json.load(fh)["scenarios"]
    # Historical rows never carry the memcg keys (byte-identical history).
    for name in HISTORICAL_SCENARIOS:
        for run in scenarios[name]:
            assert "memcg_max_mb" not in run and "memcg_stall_ms" not in run
    rows = scenarios["memcg"]
    base = rows[0]
    assert base["memcg_max_mb"] == 0
    assert base["memcg_reclaimed_kb"] == 0.0
    assert base["memcg_stall_ms"] == 0.0 and base["memcg_reclaim_cost_ms"] == 0.0
    maxes = [r["memcg_max_mb"] for r in rows[1:]]
    assert maxes == sorted(maxes, reverse=True)
    reclaimed = [r["memcg_reclaimed_kb"] for r in rows]
    flushed = [r["memcg_reclaim_flushed_kb"] for r in rows]
    stalls = [r["memcg_stall_ms"] for r in rows]
    virtual = [r["virtual_ms"] for r in rows]
    assert reclaimed == sorted(reclaimed) and reclaimed[0] < reclaimed[-1]
    assert flushed == sorted(flushed) and flushed[0] < flushed[-1]
    assert stalls == sorted(stalls) and stalls[0] < stalls[-1]
    assert virtual == sorted(virtual) and virtual[0] < virtual[-1]
    for run in rows[1:]:
        assert run["memcg_high_mb"] == run["memcg_max_mb"] // 2
        assert run["memcg_reclaim_cost_ms"] > 0, "reclaim flushed dirty backing pages"
        assert run["virtual_ms"] - base["virtual_ms"] == pytest.approx(
            run["memcg_stall_ms"] + run["memcg_reclaim_cost_ms"], abs=2e-3)


def test_memcg_sweep_decomposes_exactly_live():
    """Live, unrounded: the memcg rows' virtual-time delta equals writer
    stall plus reclaim flush cost to the nanosecond, per-cgroup reclaim is
    conserved exactly, and a shrinking budget reclaims monotonically more."""
    runs = [run_dirty_workload("memcg", {"dirty_background_bytes": 0},
                               size_mb=8, record_kb=128, fsync_every=1,
                               page_cache_mb=256,
                               memcg_max_mb=mem_max, memcg_high_mb=mem_max // 2)
            for mem_max in (0, 4, 2)]
    base = runs[0]
    assert base.memcg_reclaimed_kb == 0.0 and base.memcg_stall_ms == 0.0
    for run in runs[1:]:
        # Exact decomposition: the only costs a budget adds are the writer
        # stalls and the reclaim windows (flush-before-drop of the backing
        # store's dirty pages, which the unlimited run never flushes).
        assert run.virtual_ms - base.virtual_ms == pytest.approx(
            run.memcg_stall_ms + run.memcg_reclaim_cost_ms, abs=1e-6)
        assert run.memcg_reclaim_flushed_kb > 0
        assert run.memcg_stall_ms > 0
    reclaimed = [r.memcg_reclaimed_kb for r in runs]
    assert reclaimed == sorted(reclaimed) and reclaimed[0] < reclaimed[-1]
    # Conservation, exact: every reclaimed byte is a dropped-clean or
    # flushed-dirty page and the counters agree — checked on the live
    # cgroup object of a fresh run.
    from repro.bench.harness import BenchEnvironment
    from repro.bench.writeback import apply_memcg_limits, apply_vm_tunables
    env = BenchEnvironment(page_cache_mb=256)
    apply_vm_tunables(env, {"dirty_background_bytes": 0})
    cgroup = apply_memcg_limits(env, 2, 1)
    sc, basedir = env.cntr_access()
    sc.makedirs(f"{basedir}/wb")
    from repro.fs.constants import OpenFlags
    fd = sc.open(f"{basedir}/wb/c.dat", OpenFlags.O_CREAT | OpenFlags.O_WRONLY, 0o644)
    for _ in range(64):
        sc.write(fd, b"c" * (128 << 10))
        sc.fsync(fd)
    sc.close(fd)
    stats = cgroup.memcg_stats
    assert stats.pages_reclaimed == stats.pages_dropped + stats.pages_flushed
    assert stats.bytes_reclaimed == stats.pages_reclaimed * 4096
    assert cgroup.mem_cache_bytes <= 2 << 20


def test_committed_bench_json_history_is_append_only(assert_history_pinned):
    """Byte-level guard: the pre-memcg scenarios' rows are pinned by hash.
    Regenerating the file may only append new scenarios (or new keys on new
    rows); rewriting published history fails here."""
    assert_history_pinned(BENCH_JSON, "scenarios", HISTORICAL_SCENARIOS,
                          HISTORICAL_SCENARIOS_SHA256)
