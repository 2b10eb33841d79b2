"""Hot-path regression guard: the simulator must stay O(extents), not O(pages).

The full 1 GiB acceptance run lives in ``BENCH_hotpath.json`` (regenerate with
``PYTHONPATH=src python -m repro.bench.hotpath``); CI runs a smoke-scale pass
plus structural assertions that would catch a regression to per-page loops
long before wall-clock timing does.
"""

import json
import os

import pytest

from repro.bench.hotpath import run_hotpath

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json")

SMOKE_MB = 64


@pytest.fixture(scope="module")
def smoke():
    return run_hotpath(size_mb=SMOKE_MB, record_kb=64, page_cache_mb=512)


def test_hotpath_smoke_runs_all_phases(smoke):
    assert [r.workload for r in smoke] == \
        ["seq_write", "seq_read_cold", "seq_read_warm"]
    assert all(r.virtual_ms > 0 for r in smoke)


def test_hotpath_smoke_is_not_pathologically_slow(smoke):
    """The seed implementation took >10s for the write phase at this scale
    (O(resident pages) writeback scans); the extent engine takes well under a
    second.  A generous bound keeps this robust on slow CI machines while
    still catching any O(pages)-per-syscall regression."""
    write = next(r for r in smoke if r.workload == "seq_write")
    assert write.wall_seconds < 5.0, \
        f"sequential write took {write.wall_seconds:.1f}s at {SMOKE_MB}MiB"


def test_sequential_workload_stays_extent_compact():
    """After a sequential write+read, the page cache must hold the file in a
    number of extents orders of magnitude below its page count."""
    from repro.bench.harness import BenchEnvironment
    from repro.fs.constants import OpenFlags

    env = BenchEnvironment(page_cache_mb=256)
    sc, base = env.cntr_access()
    sc.makedirs(f"{base}/compact")
    fd = sc.open(f"{base}/compact/f", OpenFlags.O_CREAT | OpenFlags.O_WRONLY, 0o644)
    for _ in range(256):                      # 16 MiB in 64 KiB records
        sc.write(fd, b"w" * 65536)
    sc.fsync(fd)
    sc.close(fd)
    cache = env.client.page_cache
    assert len(cache) == 4096                 # 16 MiB resident
    assert cache.extent_count() < 4096 // 4, \
        f"{cache.extent_count()} extents for {len(cache)} pages"
    # fsync flushed the writeback buffer: the dirty index must be fully
    # drained, at extent as well as page granularity.
    assert cache.dirty_extent_count() == 0
    assert cache.dirty_page_count() == 0


def test_committed_bench_json_proves_the_speedup():
    """Acceptance criterion: >=5x wall-clock on the 1 GiB workload vs seed."""
    with open(BENCH_JSON) as fh:
        data = json.load(fh)
    assert "seed" in data and "optimized" in data
    assert data["speedup"]["total"] >= 5.0
    # The cost model must not have drifted: simulated time is identical in
    # both runs, phase by phase.
    seed_phases = {p["workload"]: p for p in data["seed"]["phases"]}
    for phase in data["optimized"]["phases"]:
        assert phase["virtual_ms"] == seed_phases[phase["workload"]]["virtual_ms"]
