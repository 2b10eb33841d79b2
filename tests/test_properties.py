"""Property-based tests (hypothesis) for the core data structures."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fs.constants import LockType, OpenFlags
from repro.fs.inode import PAGE_SIZE, FileData
from repro.fs.locks import LockRange, LockTable
from repro.fs.pagecache import PageCache
from repro.fs.errors import FsError

# Keep examples small: every operation is pure Python.
SMALL_OFFSET = st.integers(min_value=0, max_value=64 * 1024)
SMALL_DATA = st.binary(min_size=0, max_size=4096)

write_ops = st.tuples(SMALL_OFFSET, SMALL_DATA)

#: Non-zero and with a period prime to the page size, so a stale, missing or
#: misplaced byte never reads back as the byte the model expects.
_PATTERN = bytes(range(1, 256)) * 64
#: Positions at, next to and between page edges.  The file stays within a
#: few pages, so that operations keep landing on each other's pages.
FILE_POS = st.one_of(
    st.builds(lambda page, delta: max(0, page * PAGE_SIZE + delta),
              st.integers(0, 4), st.integers(-2, 2)),
    st.integers(0, 4 * PAGE_SIZE),
)
SPAN = st.integers(0, 3 * PAGE_SIZE + 2)

file_data_ops = st.one_of(
    st.tuples(st.just("write"), FILE_POS, SPAN, st.integers(0, 254)),
    st.tuples(st.just("truncate"),
              st.one_of(st.integers(0, 4).map(lambda n: n * PAGE_SIZE), FILE_POS)),
    st.tuples(st.just("punch"), FILE_POS, SPAN),
    st.tuples(st.just("clone")),
    st.tuples(st.just("read"), FILE_POS, SPAN),
)


class TestFileDataProperties:
    @given(st.lists(file_data_ops, min_size=10, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_matches_reference_bytearray_model(self, ops):
        """FileData must behave exactly like a flat, zero-filled bytearray.

        Writes, truncates (biased to page-aligned sizes), hole punches,
        clones and reads interleave.  Every read must return ``bytes`` equal
        to the model's range and stay equal after later mutations; every
        clone must keep the contents it had when it was taken.
        """
        data = FileData()
        model = bytearray()
        reads, clones = [], []
        for op, *args in ops:
            if op == "write":
                offset, length, phase = args
                payload = _PATTERN[phase:phase + length]
                data.write(offset, payload)
                if len(model) < offset:
                    model.extend(bytes(offset - len(model)))
                model[offset:offset + length] = payload
            elif op == "truncate":
                (size,) = args
                data.truncate(size)
                del model[size:]
                model.extend(bytes(size - len(model)))
            elif op == "punch":
                offset, length = args
                data.punch_hole(offset, length)
                end = min(offset + length, len(model))
                if offset < end:
                    model[offset:end] = bytes(end - offset)
            elif op == "clone":
                clones.append((data, bytes(model)))
                data = data.clone()
            else:
                offset, length = args
                expected = bytes(model[offset:offset + length])
                out = data.read(offset, length)
                assert type(out) is bytes
                assert out == expected
                reads.append((out, expected))
            assert len(data) == len(model)
        assert data.to_bytes() == model
        for out, expected in reads:
            assert out == expected
        for original, contents in clones:
            assert original.to_bytes() == contents

    @given(st.lists(write_ops, max_size=10), st.integers(min_value=0, max_value=32768))
    @settings(max_examples=40, deadline=None)
    def test_truncate_matches_reference(self, ops, new_size):
        data = FileData()
        reference = bytearray()
        for offset, payload in ops:
            data.write(offset, payload)
            end = offset + len(payload)
            if len(reference) < end:
                reference.extend(b"\x00" * (end - len(reference)))
            reference[offset:end] = payload
        data.truncate(new_size)
        if len(reference) < new_size:
            reference.extend(b"\x00" * (new_size - len(reference)))
        else:
            del reference[new_size:]
        assert data.to_bytes() == bytes(reference)

    @given(SMALL_OFFSET, SMALL_DATA, SMALL_OFFSET, st.integers(min_value=0, max_value=8192))
    @settings(max_examples=50, deadline=None)
    def test_reads_never_exceed_file_size(self, woff, payload, roff, rsize):
        data = FileData()
        data.write(woff, payload)
        out = data.read(roff, rsize)
        assert len(out) <= max(0, len(data) - roff) if roff < len(data) else out == b""


class TestPageCacheProperties:
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=3),
                              SMALL_OFFSET,
                              st.integers(min_value=1, max_value=16384)),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_second_access_is_always_a_hit(self, accesses):
        cache = PageCache()          # unbounded
        for ino, offset, size in accesses:
            cache.access(ino, offset, size)
            hits, misses = cache.access(ino, offset, size)
            assert misses == 0, "a repeated access with no eviction must hit"

    @given(st.integers(min_value=1, max_value=64),
           st.lists(st.tuples(SMALL_OFFSET, st.integers(min_value=1, max_value=16384)),
                    min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_capacity_is_never_exceeded(self, max_pages, accesses):
        cache = PageCache(max_bytes=max_pages * 4096)
        for offset, size in accesses:
            cache.access(1, offset, size)
            assert len(cache) <= max_pages


class _ReferencePageCache:
    """Naive per-page model of the extent page cache's batch semantics.

    Residency/dirtiness is one ``OrderedDict`` entry per ``(ino, page)`` key.
    ``access``/``write`` are batch operations (hits and misses counted for the
    whole range before insertion), eviction pops the LRU front one page at a
    time, and an eviction pass charges one writeback per maximal contiguous
    dirty run evicted — the semantics documented in PERFORMANCE.md.
    """

    def __init__(self, max_pages=None, page_size=4096):
        from collections import OrderedDict
        from repro.fs.pagecache import PageCacheStats

        self.page_size = page_size
        self.max_pages = max_pages
        self.pages = OrderedDict()       # (ino, page) -> dirty
        self.stats = PageCacheStats()

    def __len__(self):
        return len(self.pages)

    def _evict(self):
        prev = None
        while self.max_pages is not None and len(self.pages) > self.max_pages:
            (ino, page), dirty = self.pages.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                contiguous = (prev is not None and prev[2]
                              and prev[0] == ino and prev[1] == page - 1)
                if not contiguous:
                    self.stats.writebacks += 1
            prev = (ino, page, dirty)

    def access(self, ino, offset, size):
        from repro.fs.pagecache import page_span
        span = page_span(offset, size, self.page_size)
        hits = sum(1 for p in span if (ino, p) in self.pages)
        misses = len(span) - hits
        for p in span:
            key = (ino, p)
            dirty = self.pages.pop(key, False)
            self.pages[key] = dirty
        self.stats.hits += hits
        self.stats.misses += misses
        self._evict()
        return hits, misses

    def write(self, ino, offset, size):
        from repro.fs.pagecache import page_span
        span = page_span(offset, size, self.page_size)
        dirtied = sum(1 for p in span if not self.pages.get((ino, p), False))
        for p in span:
            self.pages.pop((ino, p), None)
            self.pages[(ino, p)] = True
        self._evict()
        return dirtied

    def is_resident(self, ino, page):
        key = (ino, page)
        if key in self.pages:
            self.pages.move_to_end(key)
            return True
        return False

    def clean(self, ino=None):
        cleaned = 0
        for key, dirty in self.pages.items():
            if dirty and (ino is None or key[0] == ino):
                self.pages[key] = False
                cleaned += 1
        if cleaned:
            self.stats.writebacks += 1
        return cleaned

    def invalidate(self, ino):
        victims = [k for k in self.pages if k[0] == ino]
        for key in victims:
            del self.pages[key]
        return len(victims)

    def invalidate_range(self, ino, start_page, end_page=None):
        if end_page is None:
            end_page = 1 << 62
        victims = [k for k in self.pages
                   if k[0] == ino and start_page <= k[1] < end_page]
        for key in victims:
            del self.pages[key]
        return len(victims)

    def dirty_pages(self, ino=None):
        return sorted(k for k, dirty in self.pages.items()
                      if dirty and (ino is None or k[0] == ino))

    def resident_pages(self):
        return dict(self.pages)

    def lru_order(self):
        return list(self.pages)


# One operation: (kind, ino, offset, size) over a handful of inodes.  Sizes up
# to 16 pages keep runs fast while still splitting/merging extents heavily.
_pc_ops = st.lists(
    st.tuples(st.sampled_from(["access", "write", "clean", "clean_all",
                               "invalidate", "invalidate_range",
                               "invalidate_tail", "probe"]),
              st.integers(min_value=1, max_value=3),
              st.integers(min_value=0, max_value=48 * 4096),
              st.integers(min_value=0, max_value=16 * 4096)),
    min_size=1, max_size=40)


class TestPageCacheExtentEquivalence:
    """The extent engine must be observationally equivalent to the per-page
    reference model: same return values, same stats, same resident/dirty
    state, same LRU order — for any operation sequence."""

    def _run(self, ops, max_pages):
        from repro.fs.pagecache import PageCache

        max_bytes = None if max_pages is None else max_pages * 4096
        cache = PageCache(max_bytes=max_bytes)
        ref = _ReferencePageCache(max_pages=max_pages)
        for kind, ino, offset, size in ops:
            if kind == "access":
                assert cache.access(ino, offset, size) == ref.access(ino, offset, size)
            elif kind == "write":
                assert cache.write(ino, offset, size) == ref.write(ino, offset, size)
            elif kind == "clean":
                assert cache.clean(ino) == ref.clean(ino)
            elif kind == "clean_all":
                assert cache.clean() == ref.clean()
            elif kind == "invalidate":
                assert cache.invalidate(ino) == ref.invalidate(ino)
            elif kind == "invalidate_range":
                start, end = offset // 4096, (offset + size) // 4096
                assert cache.invalidate_range(ino, start, end) == \
                    ref.invalidate_range(ino, start, end)
            elif kind == "invalidate_tail":
                start = offset // 4096
                assert cache.invalidate_range(ino, start) == \
                    ref.invalidate_range(ino, start)
            elif kind == "probe":
                page = offset // 4096
                assert cache.is_resident(ino, page) == ref.is_resident(ino, page)
            assert len(cache) == len(ref)
            assert cache.resident_pages() == ref.resident_pages()
            assert cache.dirty_pages() == ref.dirty_pages()
            assert cache.dirty_page_count() == len(ref.dirty_pages())
            assert (cache.stats.hits, cache.stats.misses, cache.stats.evictions,
                    cache.stats.writebacks) == \
                   (ref.stats.hits, ref.stats.misses, ref.stats.evictions,
                    ref.stats.writebacks)
        assert cache.lru_order() == ref.lru_order()

    @given(_pc_ops)
    @settings(max_examples=60, deadline=None)
    def test_unbounded_cache_matches_reference(self, ops):
        self._run(ops, max_pages=None)

    @given(_pc_ops, st.integers(min_value=1, max_value=24))
    @settings(max_examples=60, deadline=None)
    def test_bounded_cache_matches_reference(self, ops, max_pages):
        self._run(ops, max_pages=max_pages)

    # Nested interior carves of a single large extent are where split
    # bookkeeping can misorder same-age fragments; hammer that shape.
    _carve_ops = st.lists(
        st.tuples(st.sampled_from(["access", "write", "probe"]),
                  st.just(1),
                  st.integers(min_value=0, max_value=12 * 4096),
                  st.integers(min_value=1, max_value=3 * 4096)),
        min_size=1, max_size=25)

    @given(_carve_ops, st.one_of(st.none(), st.integers(min_value=4, max_value=14)))
    @settings(max_examples=60, deadline=None)
    def test_nested_interior_carves_match_reference(self, ops, max_pages):
        self._run([("access", 1, 0, 12 * 4096)] + ops, max_pages=max_pages)

    def test_nested_split_fragments_keep_page_order(self):
        """Regression: two interior carves of one extent must leave the
        untouched fragments in page order at their original LRU age, exactly
        like the per-page model (same-seq heap ties break by start page)."""
        self._run([("access", 1, 0, 10 * 4096),        # pages 0-9
                   ("access", 1, 4 * 4096, 2 * 4096),  # carve [4,6)
                   ("access", 1, 2 * 4096, 4096),      # carve [2,3)
                   ("access", 2, 0, 3 * 4096)],        # force eviction order out
                  max_pages=10)


class TestWritebackEngineProperties:
    """Threshold, conservation and pop-on-flush invariants of the engine."""

    _engine_ops = st.lists(
        st.tuples(st.sampled_from(["note", "note", "note", "flush", "flush_all",
                                   "discard", "discard_part", "tick"]),
                  st.integers(min_value=1, max_value=4),           # ino
                  st.integers(min_value=1, max_value=64 * 1024)),  # nbytes
        min_size=1, max_size=50)

    @given(_engine_ops,
           st.integers(min_value=0, max_value=128 * 1024),   # background
           st.integers(min_value=0, max_value=128 * 1024),   # dirty limit
           st.integers(min_value=0, max_value=20))           # expire centisecs
    @settings(max_examples=80, deadline=None)
    def test_invariants_hold_for_any_interleaving(self, ops, background,
                                                  dirty, expire):
        from repro.fs.writeback import VmTunables, WritebackEngine
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()
        flushed_items: list[tuple[int, int]] = []

        def flush_fn(items, reason):
            flushed_items.extend(items)

        engine = WritebackEngine(
            "prop", VmTunables(dirty_background_bytes=background,
                               dirty_bytes=dirty,
                               dirty_expire_centisecs=expire),
            flush_fn, clock=clock)
        noted = 0
        for kind, ino, nbytes in ops:
            if kind == "note":
                engine.note_dirty(ino, nbytes)
                noted += nbytes
                # The flushers ran: no enabled threshold may stay exceeded.
                if background:
                    assert engine.total_pending < background
                if dirty:
                    assert engine.total_pending < dirty
            elif kind == "flush":
                before = engine.pending(ino)
                assert engine.flush(ino) == before
            elif kind == "flush_all":
                before = engine.total_pending
                assert engine.flush() == before
                assert engine.total_pending == 0
            elif kind == "discard":
                engine.discard(ino)
            elif kind == "discard_part":
                engine.discard(ino, nbytes)
            elif kind == "tick":
                clock.advance(nbytes * 1_000)   # up to ~65ms of idle time
            # Universal invariants, checked after every operation:
            pending_map = {i: engine.pending(i) for i in engine.pending_inodes()}
            assert all(v > 0 for v in pending_map.values()), \
                "flushed/discarded inodes must be popped, not zeroed"
            assert engine.total_pending == sum(pending_map.values())
            assert noted == (engine.stats.flushed_bytes +
                             engine.stats.discarded_bytes + engine.total_pending)
        # Every byte handed to flush_fn is a byte the stats account for.
        assert sum(p for _, p in flushed_items) == engine.stats.flushed_bytes

    @given(st.integers(min_value=1, max_value=10),
           st.integers(min_value=1, max_value=16 * 1024))
    @settings(max_examples=40, deadline=None)
    def test_expiry_flushes_aged_inodes(self, expire_cs, nbytes):
        from repro.fs.writeback import CENTISEC_NS, VmTunables, WritebackEngine
        from repro.sim.clock import VirtualClock

        clock = VirtualClock()
        engine = WritebackEngine(
            "prop", VmTunables(dirty_expire_centisecs=expire_cs),
            lambda items, reason: None, clock=clock)
        engine.note_dirty(1, nbytes)
        clock.advance(expire_cs * CENTISEC_NS)
        # The next write activity wakes the flusher, which must expire ino 1.
        engine.note_dirty(2, 1)
        assert engine.pending(1) == 0
        assert engine.stats.flushes_by_reason.get("expired", 0) >= 1


class TestMemoryPressureProperties:
    """Issue invariants of the memory-pressure model: ratio-derived
    thresholds are observationally equivalent to the same value set via the
    bytes knobs, and BDI bandwidth shaping conserves flushed bytes."""

    _note_ops = st.lists(
        st.tuples(st.integers(min_value=1, max_value=4),             # ino
                  st.integers(min_value=1, max_value=48 * 1024)),    # nbytes
        min_size=1, max_size=40)

    @given(_note_ops,
           st.integers(min_value=1, max_value=100),                  # ratio %
           st.integers(min_value=64 * 1024, max_value=1 << 20))      # mem total
    @settings(max_examples=60, deadline=None)
    def test_ratio_equivalent_to_bytes(self, ops, ratio, mem_total):
        from repro.fs.writeback import MemInfo, VmTunables, WritebackEngine

        log_ratio: list[tuple] = []
        log_bytes: list[tuple] = []
        ratio_engine = WritebackEngine(
            "ratio", VmTunables(dirty_ratio=ratio),
            lambda items, reason: log_ratio.append((tuple(items), reason)),
            meminfo=MemInfo(total_bytes=mem_total))
        bytes_engine = WritebackEngine(
            "bytes", VmTunables(dirty_bytes=mem_total * ratio // 100),
            lambda items, reason: log_bytes.append((tuple(items), reason)))
        for ino, nbytes in ops:
            ratio_engine.note_dirty(ino, nbytes)
            bytes_engine.note_dirty(ino, nbytes)
            # Observationally equivalent after every step: pending state,
            # flush decisions and the exact batches handed to flush_fn.
            assert ratio_engine.total_pending == bytes_engine.total_pending
            assert log_ratio == log_bytes
        assert ratio_engine.stats.flushes == bytes_engine.stats.flushes
        assert ratio_engine.stats.flushed_bytes == bytes_engine.stats.flushed_bytes
        assert ratio_engine.stats.flushes_by_reason == \
            bytes_engine.stats.flushes_by_reason

    @given(_note_ops,
           st.integers(min_value=1, max_value=100),
           st.integers(min_value=64 * 1024, max_value=1 << 20))
    @settings(max_examples=40, deadline=None)
    def test_background_ratio_equivalent_to_bytes(self, ops, ratio, mem_total):
        from repro.fs.writeback import MemInfo, VmTunables, WritebackEngine

        ratio_engine = WritebackEngine(
            "ratio", VmTunables(dirty_background_ratio=ratio),
            lambda items, reason: None, meminfo=MemInfo(total_bytes=mem_total))
        bytes_engine = WritebackEngine(
            "bytes", VmTunables(dirty_background_bytes=mem_total * ratio // 100),
            lambda items, reason: None)
        for ino, nbytes in ops:
            ratio_engine.note_dirty(ino, nbytes)
            bytes_engine.note_dirty(ino, nbytes)
            assert ratio_engine.total_pending == bytes_engine.total_pending
        assert ratio_engine.stats.flushes_by_reason == \
            bytes_engine.stats.flushes_by_reason

    @given(st.integers(min_value=0, max_value=64 * 1024))            # threshold
    @settings(max_examples=40, deadline=None)
    def test_bytes_knob_wins_over_ratio(self, dirty_bytes):
        """Nonzero bytes knobs shadow the ratio knobs entirely (Linux rule)."""
        from repro.fs.writeback import MemInfo, VmTunables, WritebackEngine

        both = WritebackEngine(
            "both", VmTunables(dirty_bytes=dirty_bytes, dirty_ratio=7),
            lambda items, reason: None, meminfo=MemInfo(total_bytes=1 << 20))
        limits = both.effective_limits()
        if dirty_bytes > 0:
            assert limits.dirty_bytes == dirty_bytes
        else:
            assert limits.dirty_bytes == (1 << 20) * 7 // 100

    @given(_note_ops,
           st.lists(st.integers(min_value=0, max_value=1 << 30),
                    min_size=2, max_size=5))                         # bandwidths
    @settings(max_examples=40, deadline=None)
    def test_bdi_shaping_conserves_flushed_bytes(self, ops, bandwidths):
        """Sweeping the modelled write bandwidth changes only the virtual
        time spent flushing — never which bytes are flushed."""
        from repro.fs.writeback import (
            BacklogDeviceInfo,
            VmTunables,
            WritebackEngine,
        )
        from repro.sim.clock import VirtualClock

        results = []
        for bandwidth in bandwidths:
            clock = VirtualClock()
            engine = WritebackEngine(
                "bdi", VmTunables(dirty_background_bytes=32 * 1024),
                lambda items, reason: None, clock=clock,
                bdi=BacklogDeviceInfo("dev", bandwidth))
            for ino, nbytes in ops:
                engine.note_dirty(ino, nbytes)
            engine.flush()
            results.append((engine.stats.flushes, engine.stats.flushed_bytes,
                            clock.now_ns, engine.bdi.stats.busy_ns))
        flushes, flushed, elapsed, busy = zip(*results, strict=True)
        # Conservation: the flush decisions and total flushed bytes are
        # independent of the bandwidth.
        assert len(set(flushes)) == 1
        assert len(set(flushed)) == 1
        # Decomposition: all elapsed virtual time is the shaper's (flush_fn
        # charges nothing here), so elapsed == BDI busy for every bandwidth.
        assert elapsed == busy


class _PressureFs:
    """A filesystem reduced to what the reclaim coordinator interacts with:
    a page cache, a writeback engine whose flush cleans the cache, and the
    note-dirty-then-balance write path of ext4/fuse."""

    PAGE_SIZE = 4096

    def __init__(self, name, clock=None, background=0):
        from repro.fs.writeback import VmTunables, WritebackEngine

        self.page_cache = PageCache(page_size=self.PAGE_SIZE)
        self.writeback = WritebackEngine(
            name, VmTunables(dirty_background_bytes=background),
            self._flush, clock=clock)
        self.dcache_drops = 0

    def _flush(self, items, reason):
        for ino, _pending in items:
            self.page_cache.clean(ino)

    def drop_caches(self, mode=3):
        if mode & 2:
            self.dcache_drops += 1

    def write(self, ino, offset, size):
        dirtied = self.page_cache.write(ino, offset, size)
        self.writeback.note_dirty(ino, dirtied * self.PAGE_SIZE)
        self.page_cache.balance_pressure()

    def read(self, ino, offset, size):
        self.page_cache.access(ino, offset, size)


class TestReclaimProperties:
    """Issue invariants of the reclaim subsystem: conservation (dropped +
    flushed == reclaimed, the cache never outgrows the budget), the
    infinite-budget engine being observationally the seed engine, and the
    periodic flusher matching the write-driven expiry on its period grid."""

    _rw_ops = st.lists(
        st.tuples(st.sampled_from(["write", "write", "read"]),
                  st.integers(min_value=1, max_value=4),          # ino
                  st.integers(min_value=0, max_value=64),         # page offset
                  st.integers(min_value=1, max_value=32)),        # pages
        min_size=1, max_size=40)

    @staticmethod
    def _vm(total_pages, reclaim=True):
        from repro.fs.writeback import MemInfo, VmSysctl

        mem = MemInfo(total_bytes=total_pages * _PressureFs.PAGE_SIZE,
                      reserved_bytes=0, reclaim_enabled=reclaim)
        return VmSysctl(meminfo=mem)

    @given(_rw_ops, st.integers(min_value=4, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_reclaim_conservation_and_budget(self, ops, budget_pages):
        vm = self._vm(budget_pages)
        filesystems = [_PressureFs("a"), _PressureFs("b")]
        for fs in filesystems:
            vm.register_fs(fs)
        for kind, ino, page, pages in ops:
            fs = filesystems[ino % 2]
            if kind == "write":
                fs.write(ino, page * fs.PAGE_SIZE, pages * fs.PAGE_SIZE)
            else:
                fs.read(ino, page * fs.PAGE_SIZE, pages * fs.PAGE_SIZE)
            stats = vm.reclaim_stats
            # Conservation: every reclaimed page was dropped clean or
            # flushed first, and bytes agree with pages.
            assert stats.pages_reclaimed == \
                stats.pages_dropped + stats.pages_flushed
            assert stats.bytes_reclaimed == \
                stats.pages_reclaimed * _PressureFs.PAGE_SIZE
            # The budget bound: Cached never exceeds the live budget.
            budget = vm.cache_budget_bytes()
            assert budget is not None
            assert vm.cached_bytes_total() <= budget
            # Flushed-before-dropped: a reclaimed page can never leave
            # pending bytes behind without dirty pages backing them, per fs.
            for member in filesystems:
                if member.page_cache.dirty_page_count() == 0:
                    assert member.writeback.total_pending >= 0

    @given(_rw_ops)
    @settings(max_examples=60, deadline=None)
    def test_infinite_budget_is_observationally_the_seed_engine(self, ops):
        """A reclaim-enabled kernel whose budget is never crossed behaves
        byte-for-byte like one with reclaim disabled (the seed)."""
        enabled = (self._vm(1 << 30, reclaim=True), _PressureFs("on"))
        disabled = (self._vm(1 << 30, reclaim=False), _PressureFs("off"))
        for vm, fs in (enabled, disabled):
            vm.register_fs(fs)
        for kind, ino, page, pages in ops:
            for _vm_obj, fs in (enabled, disabled):
                if kind == "write":
                    fs.write(ino, page * fs.PAGE_SIZE, pages * fs.PAGE_SIZE)
                else:
                    fs.read(ino, page * fs.PAGE_SIZE, pages * fs.PAGE_SIZE)
        fs_on, fs_off = enabled[1], disabled[1]
        assert fs_on.page_cache.resident_pages() == \
            fs_off.page_cache.resident_pages()
        assert fs_on.page_cache.lru_order() == fs_off.page_cache.lru_order()
        assert vars(fs_on.page_cache.stats) == vars(fs_off.page_cache.stats)
        assert vars(fs_on.writeback.stats) == vars(fs_off.writeback.stats)
        assert enabled[0].reclaim_stats.pages_reclaimed == 0
        assert disabled[0].reclaim_stats.pages_reclaimed == 0

    @given(st.lists(st.integers(min_value=1, max_value=64 * 1024),
                    min_size=1, max_size=30),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_periodic_flusher_matches_expiry_on_its_grid(self, sizes, period):
        """With writes arriving on the flusher's period grid (one fresh inode
        per write), the periodic flusher (period=E, no expiry knob) produces
        the identical flush schedule — same inodes, same bytes, same virtual
        times — as the write-driven expiry (expire=E, no timer)."""
        from repro.fs.writeback import CENTISEC_NS, VmTunables, WritebackEngine
        from repro.sim.clock import VirtualClock

        logs = {"periodic": [], "expired": []}
        clocks = {}
        engines = {}
        for mode, tunables in (
                ("periodic", VmTunables(dirty_writeback_centisecs=period)),
                ("expired", VmTunables(dirty_expire_centisecs=period))):
            clock = VirtualClock()
            clocks[mode] = clock

            def flush_fn(items, reason, _mode=mode, _clock=clock):
                logs[_mode].append((tuple(items), _clock.now_ns))

            engines[mode] = WritebackEngine(mode, tunables, flush_fn,
                                            clock=clock)
        for step, nbytes in enumerate(sizes):
            for mode in ("periodic", "expired"):
                clocks[mode].advance(period * CENTISEC_NS)
                engines[mode].note_dirty(step + 1, nbytes)
        assert logs["periodic"] == logs["expired"]
        # The reasons differ — that is the only observable difference.
        assert set(engines["periodic"].stats.flushes_by_reason) <= {"periodic"}
        assert set(engines["expired"].stats.flushes_by_reason) <= {"expired"}
        # And the distinguishing behaviour: with no further writes, only the
        # periodic engine drains the remaining aged data.
        for mode in ("periodic", "expired"):
            clocks[mode].advance(3 * period * CENTISEC_NS)
        assert engines["periodic"].total_pending == 0
        if sizes:
            assert engines["expired"].total_pending > 0


class _ClientWritebackModel:
    """The FuseClientFs coupling between page cache and writeback engine,
    reduced to its accounting skeleton (same rules, no FUSE plumbing)."""

    MAX_WRITE = 4 * 4096

    def __init__(self, max_pages=None, background=128 * 1024):
        import math

        from repro.fs.pagecache import PageCache
        from repro.fs.writeback import VmTunables, WritebackEngine

        self._math = math
        max_bytes = None if max_pages is None else max_pages * 4096
        self.cache = PageCache(max_bytes=max_bytes)
        self.charged_requests = 0
        self.flushed_inodes = 0
        self.engine = WritebackEngine(
            "model", VmTunables(dirty_background_bytes=background),
            self._flush_fn)

    def _flush_fn(self, items, reason):
        for ino, pending in items:
            self.charged_requests += max(
                1, self._math.ceil(pending / self.MAX_WRITE))
            self.flushed_inodes += 1
            self.cache.clean(ino)

    # -- the exact coupling rules FuseClientFs implements ------------------
    def write(self, ino, offset, size):
        self.cache.write(ino, offset, size)
        self.engine.note_dirty(ino, size)

    def fsync(self, ino):
        self.engine.flush(ino, reason="fsync")

    def open_no_keep_cache(self, ino):
        if self.engine.pending(ino):
            self.engine.flush(ino)
        self.cache.invalidate(ino)

    def _drop_range(self, ino, start_page, end_page=None):
        dropped = self.cache.invalidate_range(ino, start_page, end_page)
        if dropped and self.cache.dirty_page_count(ino) == 0:
            self.engine.discard(ino)

    def truncate(self, ino, size):
        self._drop_range(ino, -(-size // 4096))

    def punch_hole(self, ino, offset, length):
        first = -(-offset // 4096)
        last = (offset + length) // 4096
        self._drop_range(ino, first, last)


_client_ops = st.lists(
    st.tuples(st.sampled_from(["write", "write", "write", "fsync", "reopen",
                               "truncate", "punch", "read"]),
              st.integers(min_value=1, max_value=3),
              st.integers(min_value=0, max_value=24 * 4096),
              st.integers(min_value=1, max_value=8 * 4096)),
    min_size=1, max_size=40)


class TestWritebackAccountingProperties:
    """Issue invariant: pending-byte counters, ``dirty_page_count`` and
    charged writebacks stay in lockstep across write/flush/invalidate/evict
    interleavings."""

    def _run(self, ops, max_pages, background):
        model = _ClientWritebackModel(max_pages=max_pages, background=background)
        cache, engine = model.cache, model.engine
        for kind, ino, offset, size in ops:
            if kind == "write":
                model.write(ino, offset, size)
            elif kind == "fsync":
                model.fsync(ino)
                assert engine.pending(ino) == 0
                assert cache.dirty_page_count(ino) == 0
            elif kind == "reopen":
                model.open_no_keep_cache(ino)
                assert engine.pending(ino) == 0
                assert cache.dirty_page_count(ino) == 0
            elif kind == "truncate":
                model.truncate(ino, offset)
            elif kind == "punch":
                model.punch_hole(ino, offset, size)
            elif kind == "read":
                cache.access(ino, offset, size)
            # Lockstep invariants after every operation:
            pending_map = {i: engine.pending(i) for i in engine.pending_inodes()}
            assert all(v > 0 for v in pending_map.values())
            assert engine.total_pending == sum(pending_map.values())
            for node in (1, 2, 3):
                if cache.dirty_page_count(node) > 0:
                    assert engine.pending(node) > 0, \
                        "dirty pages with no pending bytes would never flush"
                if max_pages is None and engine.pending(node) > 0:
                    assert cache.dirty_page_count(node) > 0, \
                        "pending bytes for vanished pages would be overcharged"
        # Charged writebacks in lockstep: every flushed inode cleaned dirty
        # pages (one PageCache writeback each); evictions account the rest.
        if max_pages is None:
            assert cache.stats.writebacks == model.flushed_inodes
        else:
            assert cache.stats.writebacks >= model.flushed_inodes
        # Request charging is exact per flush: ceil(pending / max_write).
        assert model.charged_requests >= model.flushed_inodes

    @given(_client_ops)
    @settings(max_examples=60, deadline=None)
    def test_unbounded_cache_lockstep(self, ops):
        self._run(ops, max_pages=None, background=128 * 1024)

    @given(_client_ops, st.integers(min_value=4, max_value=32))
    @settings(max_examples=60, deadline=None)
    def test_bounded_cache_lockstep(self, ops, max_pages):
        self._run(ops, max_pages=max_pages, background=128 * 1024)

    @given(_client_ops, st.integers(min_value=4096, max_value=64 * 1024))
    @settings(max_examples=40, deadline=None)
    def test_lockstep_for_any_background_threshold(self, ops, background):
        self._run(ops, max_pages=None, background=background)


class TestLockTableProperties:
    lock_requests = st.lists(
        st.tuples(st.integers(min_value=1, max_value=4),              # owner
                  st.sampled_from([LockType.F_RDLCK, LockType.F_WRLCK,
                                   LockType.F_UNLCK]),
                  st.integers(min_value=0, max_value=1000),           # start
                  st.integers(min_value=0, max_value=500)),           # length
        max_size=25)

    @given(lock_requests)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_granted_locks_never_conflict(self, requests):
        """Invariant: the set of granted locks is always conflict-free."""
        table = LockTable()
        for owner, lock_type, start, length in requests:
            try:
                table.acquire(owner, lock_type, start, length)
            except FsError:
                pass
            held = table.held_locks()
            for i, a in enumerate(held):
                for b in held[i + 1:]:
                    assert not a.conflicts_with(b), f"conflicting locks granted: {a} {b}"

    @given(st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=50),
           st.integers(min_value=0, max_value=100), st.integers(min_value=0, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_range_overlap_symmetry(self, s1, l1, s2, l2):
        a, b = LockRange(s1, l1), LockRange(s2, l2)
        assert a.overlaps(b) == b.overlaps(a)


class TestVfsPathProperties:
    name_strategy = st.text(alphabet="abcdefgh", min_size=1, max_size=8)

    @given(st.lists(name_strategy, min_size=1, max_size=4), st.binary(max_size=256))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_write_read_roundtrip_at_any_depth(self, components, payload):
        """Whatever is written at a path is read back, regardless of nesting."""
        from repro.fs.ext4 import Ext4Fs
        from repro.fs.mount import MountNamespace
        from repro.fs.vfs import Credentials, PathContext, VFS, VNode

        from repro.sim import CostModel, VirtualClock
        fs = Ext4Fs("prop", VirtualClock(), CostModel())
        ns = MountNamespace(fs)
        vfs = VFS()
        root = VNode(ns.root_mount, fs.root_ino)
        ctx = PathContext(ns=ns, root=root, cwd=root, creds=Credentials())
        directory = "/" + "/".join(components[:-1]) if len(components) > 1 else "/"
        if directory != "/":
            vfs.makedirs(ctx, directory)
        path = directory.rstrip("/") + "/" + components[-1]
        handle = vfs.open(ctx, path, OpenFlags.O_CREAT | OpenFlags.O_RDWR, 0o644)
        vfs.write(handle, payload)
        handle.close()
        handle = vfs.open(ctx, path, OpenFlags.O_RDONLY)
        assert vfs.read(handle, len(payload) + 10) == payload
        handle.close()
        assert vfs.stat(ctx, path).st_size == len(payload)
