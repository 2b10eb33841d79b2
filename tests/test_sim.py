"""Tests for the virtual-time substrate (clock, cost model, tracer, RNG)."""

import pytest

from repro.sim import CostModel, DeterministicRandom, Tracer, VirtualClock
from repro.sim.clock import StopwatchRegion


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now_ns == 0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(100)
        clock.advance(250)
        assert clock.now_ns == 350

    def test_advance_accepts_integral_floats(self):
        # Cost-model arithmetic naturally produces integral floats (200.0);
        # they are whole nanoseconds and must keep working.
        clock = VirtualClock()
        clock.advance(250.0)
        assert clock.now_ns == 250

    def test_advance_rejects_fractional_floats(self):
        # Regression: advance() used to silently truncate fractional deltas
        # (int(delta_ns)), so repeated sub-nanosecond charges — e.g. the
        # scheduler's per-timeslice accounting — could drift against the
        # cost model.  Fractional costs must now be floored visibly at the
        # charge site; the clock itself rejects them.
        clock = VirtualClock()
        clock.advance(100)
        with pytest.raises(ValueError):
            clock.advance(250.7)
        assert clock.now_ns == 100, "a rejected advance must not move time"

    def test_advance_rejects_nan_and_inf(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                VirtualClock().advance(bad)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start_ns=-5)

    def test_seconds_property(self):
        clock = VirtualClock()
        clock.advance(2_500_000_000)
        assert clock.now_s == pytest.approx(2.5)

    def test_elapsed_since(self):
        clock = VirtualClock()
        t0 = clock.now_ns
        clock.advance(42)
        assert clock.elapsed_since(t0) == 42

    def test_stopwatch_region(self):
        clock = VirtualClock()
        with StopwatchRegion(clock) as region:
            clock.advance(1234)
        assert region.elapsed_ns == 1234


class TestClockTimerReentrancy:
    """Regression tests for `_fire_due` under reentrant dispatch.

    The scheduler idles the clock forward in big jumps, so timer callbacks
    (kupdate-style flushers) routinely charge time — nested advances — and
    re-schedule themselves while a dispatch is running.  These lock the
    audited contract: `_next_deadline` can never go stale-high (a missed
    fire), timers made due mid-dispatch fire in the same dispatch, and
    dispatch order stays (deadline, creation order) deterministic.
    """

    def test_callback_scheduling_earlier_timer_then_advancing(self):
        # The ISSUE scenario: a running callback schedules a timer *earlier*
        # than every pending deadline, then advances past it.  The nested
        # advance must not fire reentrantly, but the new timer must still
        # fire inside the same outer dispatch — and `_next_deadline` must be
        # left pointing at the true earliest pending deadline.
        clock = VirtualClock()
        fired = []

        def late(now):
            fired.append(("late", now))

        def first(now):
            clock.schedule(now + 10, lambda t: fired.append(("early", t)))
            clock.advance(50)         # nested: crosses the new deadline

        clock.schedule(100, first)
        clock.schedule(1_000, late)
        clock.advance(100)
        assert fired == [("early", 150)], "the earlier timer fires in-dispatch"
        clock.advance(1_000)
        assert fired == [("early", 150), ("late", 1_150)]

    def test_nested_advance_does_not_fire_reentrantly(self):
        clock = VirtualClock()
        order = []

        def outer(now):
            order.append("outer-start")
            clock.schedule(now, lambda t: order.append("due-now"))
            clock.advance(0)          # deadline already due; must wait
            order.append("outer-end")

        clock.schedule(10, outer)
        clock.advance(10)
        assert order == ["outer-start", "outer-end", "due-now"]

    def test_next_deadline_not_stale_after_dispatch(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(10, lambda t: clock.schedule(t + 5, fired.append))
        clock.advance(10)
        assert clock.next_timer_deadline_ns == 15
        # The rescheduled timer must actually fire on the next crossing —
        # a stale-high `_next_deadline` would swallow it.
        clock.advance(5)
        assert fired == [15]

    def test_cancelled_head_timer_is_skipped_not_fired(self):
        clock = VirtualClock()
        fired = []
        head = clock.schedule(10, lambda t: fired.append("head"))
        clock.schedule(20, lambda t: fired.append("tail"))
        head.cancel()
        assert clock.next_timer_deadline_ns == 20
        clock.advance(25)
        assert fired == ["tail"]

    def test_raising_callback_leaves_consistent_state(self):
        clock = VirtualClock()
        fired = []
        clock.schedule(10, lambda t: (_ for _ in ()).throw(RuntimeError("boom")))
        clock.schedule(20, lambda t: fired.append(t))
        with pytest.raises(RuntimeError):
            clock.advance(10)
        # The finally-block recomputed `_next_deadline`; the survivor fires.
        clock.advance(10)
        assert fired == [20]

    def test_tie_break_is_creation_order(self):
        clock = VirtualClock()
        order = []
        clock.schedule(10, lambda t: order.append("a"))
        clock.schedule(10, lambda t: order.append("b"))
        clock.advance(10)
        assert order == ["a", "b"]


class TestCostModel:
    def test_copy_cost_scales_with_bytes(self):
        costs = CostModel()
        assert costs.copy_cost(2000) == pytest.approx(2 * costs.copy_cost(1000))

    def test_splice_cheaper_than_copy_for_large_transfers(self):
        costs = CostModel()
        size = 1 << 20
        assert costs.splice_cost(size) < costs.copy_cost(size)

    def test_random_disk_read_pays_full_seek(self):
        costs = CostModel()
        assert costs.disk_read_cost(4096, sequential=False) > \
            costs.disk_read_cost(4096, sequential=True)

    def test_with_overrides_does_not_mutate_original(self):
        costs = CostModel()
        changed = costs.with_overrides(fuse_request_ns=1)
        assert changed.fuse_request_ns == 1
        assert costs.fuse_request_ns != 1


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(0, "fs.read", 100)
        assert tracer.count("fs.read") == 0

    def test_enabled_tracer_counts_and_costs(self):
        tracer = Tracer(enabled=True)
        tracer.emit(0, "fs.read", 100)
        tracer.emit(10, "fs.read", 50)
        assert tracer.count("fs.read") == 2
        assert tracer.total_cost("fs.read") == 150

    def test_capacity_limits_event_storage_but_not_counts(self):
        tracer = Tracer(enabled=True, capacity=2)
        for i in range(5):
            tracer.emit(i, "fs.write", 1)
        assert tracer.count("fs.write") == 5
        assert len(list(tracer.events())) == 2
        assert tracer.dropped == 3

    def test_summary_sorted_by_cost(self):
        tracer = Tracer(enabled=True)
        tracer.emit(0, "a.cheap", 1)
        tracer.emit(0, "a.expensive", 1000)
        assert tracer.summary()[0][0] == "a.expensive"

    def test_clear(self):
        tracer = Tracer(enabled=True)
        tracer.emit(0, "x.y", 5)
        tracer.clear()
        assert tracer.count("x.y") == 0


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        a, b = DeterministicRandom("seed"), DeterministicRandom("seed")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a, b = DeterministicRandom("one"), DeterministicRandom("two")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_reseed_restarts_stream(self):
        rng = DeterministicRandom(7)
        first = [rng.random() for _ in range(3)]
        rng.reseed()
        assert [rng.random() for _ in range(3)] == first

    def test_zipf_index_in_range(self):
        rng = DeterministicRandom(1)
        for _ in range(100):
            assert 0 <= rng.zipf_index(10) < 10

    def test_zipf_rejects_empty_population(self):
        with pytest.raises(ValueError):
            DeterministicRandom(1).zipf_index(0)
