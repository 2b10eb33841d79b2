"""Multi-tenant scale guard: the scheduler axes must steer the numbers.

Three contracts are enforced here (see PERFORMANCE.md "Multi-tenant
scheduling"):

* **Axis shapes** — in the committed ``BENCH_scale.json``, more containers
  mean proportionally more virtual time at constant per-tenant CPU usage;
  more server threads mean monotonically less background-queue congestion
  stall; a tighter ``cpu.max`` means more throttled time at *identical*
  usage.  The same shapes are re-measured live at smoke scale.
* **Determinism** — re-running a cell with the same seed reproduces the
  pick-trace digest and the virtual time exactly.
* **Append-only history** — the committed sweeps are pinned by hash; a
  regeneration may only add new sweeps or rows with new keys on new rows,
  never rewrite what previous PRs published.
"""

import json
import os

import pytest

from repro.bench.scale import run_scale

BENCH_JSON = os.path.join(os.path.dirname(__file__), "..", "BENCH_scale.json")

#: The sweeps that exist as of this file's introduction.  Their committed
#: rows are append-only history, pinned by the canonical-JSON hash below.
HISTORICAL_SWEEPS = ("containers", "threads", "cpu_max")
HISTORICAL_SWEEPS_SHA256 = \
    "8715dec23ce2c1b8ef636fae4adb977bd9113af6c5ea053ffb7102cae370e06a"


@pytest.fixture(scope="module")
def committed():
    with open(BENCH_JSON) as fh:
        return json.load(fh)["sweeps"]


def test_committed_history_is_append_only(assert_history_pinned):
    assert_history_pinned(BENCH_JSON, "sweeps", HISTORICAL_SWEEPS,
                          HISTORICAL_SWEEPS_SHA256)


def test_committed_containers_sweep_scales_linearly(committed):
    runs = committed["containers"]
    counts = [r["containers"] for r in runs]
    virtual = [r["virtual_ms"] for r in runs]
    assert counts == sorted(counts) and counts[0] < counts[-1]
    assert virtual == sorted(virtual) and virtual[0] < virtual[-1]
    # Fairness: per-tenant CPU usage is independent of the tenant count
    # (same workload, same weights), so total usage scales linearly.
    per_tenant = [r["usage_usec_total"] / r["containers"] for r in runs]
    for usage in per_tenant[1:]:
        assert usage == pytest.approx(per_tenant[0], rel=0.02)
    # Within a run every tenant gets the same usage (equal weights).
    for r in runs:
        usages = [t["usage_usec"] for t in r["tenants"]]
        assert max(usages) - min(usages) <= max(2, max(usages) // 50)


def test_committed_threads_sweep_drains_congestion(committed):
    runs = committed["threads"]
    threads = [r["threads"] for r in runs]
    waits = [r["queue_congestion_wait_ms"] for r in runs]
    assert threads == sorted(threads) and threads[0] < threads[-1]
    assert waits == sorted(waits, reverse=True) and waits[0] > waits[-1]
    for r in runs:
        assert r["queue_congestion_waits"] > 0
        assert r["queue_max_depth"] > 12     # bursts overflow max_background


def test_committed_cpu_max_sweep_throttles_not_works(committed):
    runs = committed["cpu_max"]
    base = runs[0]
    assert base["cpu_max"] == "max"
    assert base["nr_throttled_total"] == 0
    assert base["throttled_usec_total"] == 0
    throttled = [r["throttled_usec_total"] for r in runs]
    virtual = [r["virtual_ms"] for r in runs]
    assert throttled == sorted(throttled) and throttled[-1] > 0
    assert virtual == sorted(virtual) and virtual[0] < virtual[-1]
    # The quota changes *when* tenants run, never how much work they do.
    for r in runs[1:]:
        assert r["usage_usec_total"] == base["usage_usec_total"]


def test_committed_rows_carry_reproducibility_evidence(committed):
    for runs in committed.values():
        for r in runs:
            assert len(r["pick_digest"]) == 64
            assert r["seed"] == runs[0]["seed"]


@pytest.fixture(scope="module")
def live_cells():
    """Two smoke-scale cells, one of them run twice for the determinism lock."""
    return {
        "t1": run_scale(2, 1, records=32),
        "t4": run_scale(2, 4, records=32),
        "t4_again": run_scale(2, 4, records=32),
        "capped": run_scale(2, 4, cpu_max="1000 10000", records=48),
    }


def test_live_same_seed_reproduces_exactly(live_cells):
    first, again = live_cells["t4"], live_cells["t4_again"]
    assert first.pick_digest == again.pick_digest
    assert first.virtual_ms == again.virtual_ms
    assert first.usage_usec_total == again.usage_usec_total


def test_live_threads_reduce_congestion_wait(live_cells):
    assert live_cells["t4"].queue_congestion_wait_ms < \
        live_cells["t1"].queue_congestion_wait_ms
    assert live_cells["t1"].queue_congestion_waits > 0


def test_live_quota_adds_throttled_wait(live_cells):
    free, capped = live_cells["t4"], live_cells["capped"]
    assert capped.nr_throttled_total > 0
    assert capped.throttled_usec_total > 0
    assert free.nr_throttled_total == 0
