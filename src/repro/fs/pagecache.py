"""Extent-based page cache model.

The page cache does not hold file data (data always lives on the inode); it
tracks which pages are *resident* and which are *dirty*, because residency and
dirtiness are what determine the virtual-time cost of an access and the number
of FUSE/disk requests issued.  This is the same modelling choice throughout
the reproduction: correctness state is exact, performance state is a cost
model.

Representation
--------------
Residency is stored as **extents** — per-inode sorted lists of disjoint
``[start, end)`` page intervals — instead of one dict entry per page, so every
operation costs O(extents touched), not O(pages touched).  A GB-sized
sequential access touches a handful of intervals where the seed implementation
iterated over 260k dict keys.

LRU semantics are *exactly* equivalent to the historical per-page
``OrderedDict`` implementation: every access/write appends the touched range
at the MRU end (splitting whatever it overlapped), extents carry monotonically
increasing sequence numbers, and eviction trims pages from the start of the
globally oldest extent — which is the same order a per-page LRU dict would
produce, because a batch access always left its pages contiguous at the MRU
end in ascending page order.

Two deliberate semantic choices (see PERFORMANCE.md):

* ``access``/``write`` are *batch* operations: hits and misses for the whole
  range are determined before any insertion or eviction happens.  The seed
  interleaved per-page inserts with evictions, which only diverges when a
  single access spans a significant fraction of the whole cache capacity.
* An eviction charges **one writeback per maximal run of contiguous dirty
  pages** (per inode) evicted in a single eviction pass, modelling the kernel
  coalescing neighbouring dirty pages into one writeback bio.  The seed
  charged one writeback per dirty page evicted.  ``clean()`` still counts one
  writeback per flush, as before.

The per-page double LRU bookkeeping of the seed (``is_resident`` moving a key
to the MRU end and ``_insert`` immediately moving it again on a miss) is gone:
each operation touches the LRU structure once per extent.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

PAGE_SIZE = 4096


def page_span(offset: int, size: int, page_size: int = PAGE_SIZE) -> range:
    """Page indices covered by the byte range ``[offset, offset+size)``."""
    if size <= 0:
        return range(0)
    first = offset // page_size
    last = (offset + size - 1) // page_size
    return range(first, last + 1)


@dataclass
class PageCacheStats:
    """Hit/miss accounting for one page cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of page accesses served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Extent:
    """A run of contiguous resident pages of one inode with one dirty flag.

    Extents are also the nodes of the cache's intrusive LRU list (``prev`` /
    ``nxt``), kept sorted by ``(seq, start)`` ascending — oldest first.
    """

    __slots__ = ("ino", "start", "end", "dirty", "seq", "eid", "prev", "nxt")

    def __init__(self, ino: int, start: int, end: int, dirty: bool,
                 seq: int, eid: int) -> None:
        self.ino = ino
        self.start = start
        self.end = end
        self.dirty = dirty
        self.seq = seq
        self.eid = eid
        self.prev: _Extent | None = None
        self.nxt: _Extent | None = None

    def __len__(self) -> int:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "D" if self.dirty else "c"
        return f"<ext ino={self.ino} [{self.start},{self.end}) {flag} seq={self.seq}>"


def _start(ext: _Extent) -> int:
    return ext.start


def _bisect_start(lst: list[_Extent], x: int) -> int:
    """``bisect_right(lst, x, key=_start)`` without per-probe key-fn calls.

    Extent lists are usually one or two entries long, so the dominant cost of
    the stdlib form is the Python-level ``_start`` callback it makes on every
    probe; the inlined attribute compare removes it.  Most calls come from
    sequential streams and land at or past the last extent's start, so that
    case returns before the search.
    """
    hi = len(lst)
    if not hi or lst[-1].start <= x:
        return hi
    lo = 0
    while lo < hi:
        mid = (lo + hi) >> 1
        if lst[mid].start <= x:
            lo = mid + 1
        else:
            hi = mid
    return lo


class SeqCounter:
    """Monotonic extent sequence source.

    Each cache owns one by default; :meth:`PageCache.share_seq_counter` lets
    the kernel hand every registered cache the *same* counter, which makes
    extent sequence numbers a global LRU age — the property the cross-
    filesystem reclaim order relies on.
    """

    __slots__ = ("value",)

    def __init__(self, value: int = 0) -> None:
        self.value = value

    def next(self) -> int:
        v = self.value
        self.value += 1
        return v


class PageCache:
    """LRU page cache tracking residency and dirtiness in per-inode extents."""

    def __init__(self, max_bytes: int | None = None, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size
        self.max_pages = None if max_bytes is None else max(1, max_bytes // page_size)
        self.stats = PageCacheStats()
        #: ino -> list of disjoint extents sorted by start.
        self._by_ino: dict[int, list[_Extent]] = {}
        #: eid -> live extent (size == live extent count, no stale entries).
        self._live: dict[int, _Extent] = {}
        #: Intrusive doubly-linked LRU list between two sentinels, sorted by
        #: ``(seq, start)`` ascending: ``_lru_head.nxt`` is the globally
        #: oldest extent, ``_lru_tail.prev`` the newest.  The order is
        #: maintained with O(1) splices, no heap and no lazy deletion:
        #: fresh extents take a strictly larger seq than every live one (the
        #: counter is monotonic and ``share_seq_counter`` fast-forwards), so
        #: they append at the tail; a split's right remainder inherits the
        #: original seq and splices in immediately after the trimmed extent
        #: (same-seq entries are disjoint fragments of one original segment,
        #: so any same-seq sibling further right starts beyond the original
        #: end and still sorts after the remainder); partial eviction only
        #: grows ``start`` within the extent's own range, which never
        #: reorders it relative to its disjoint same-seq siblings.
        self._lru_head = _Extent(-1, 0, 0, False, -1, -1)
        self._lru_tail = _Extent(-1, 0, 0, False, -1, -1)
        self._lru_head.nxt = self._lru_tail
        self._lru_tail.prev = self._lru_head
        #: Per-inode dirty index: ino -> {eid: extent} holding only dirty
        #: extents, so ``clean``/``dirty_pages`` never scan clean state.
        self._dirty_exts: dict[int, dict[int, _Extent]] = {}
        #: ino -> dirty page count (kept in lockstep with ``_dirty_exts``).
        self._dirty_count: dict[int, int] = {}
        self._pages = 0
        self._seqs = SeqCounter()
        self._next_eid = 0
        #: Memory-pressure coordinator (``VmSysctl``); assigned at filesystem
        #: registration.  When set, every growth is followed by a balance
        #: pass so the cache stays inside the kernel-wide memory budget.
        self.pressure = None
        #: Memory controller (``MemcgController``); assigned at filesystem
        #: registration.  Residency changes are reported per inode so pages
        #: are charged to (and reclaimed from) the owning cgroup.  ``None``
        #: (the default) keeps the cache outside any cgroup accounting.
        self.memcg = None

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return self._pages

    @property
    def resident_bytes(self) -> int:
        """Bytes currently resident."""
        return self._pages * self.page_size

    def extent_count(self) -> int:
        """Number of live extents (the quantity hot-path work scales with)."""
        return len(self._live)

    def dirty_extent_count(self, ino: int | None = None) -> int:
        """Number of dirty extents, optionally restricted to one inode."""
        if ino is not None:
            return len(self._dirty_exts.get(ino, ()))
        return sum(len(d) for d in self._dirty_exts.values())

    def dirty_page_count(self, ino: int | None = None) -> int:
        """Dirty pages, in O(1), from the per-inode dirty index."""
        if ino is not None:
            return self._dirty_count.get(ino, 0)
        return sum(self._dirty_count.values())

    def dirty_inodes(self) -> list[int]:
        """Inode numbers that currently have dirty pages, sorted."""
        return sorted(self._dirty_count)

    def is_resident(self, ino: int, page: int) -> bool:
        """True when the page is cached (and refresh its LRU position)."""
        lst = self._by_ino.get(ino)
        if not lst:
            return False
        if len(lst) == 1:
            ext = lst[0]
            if ext.start > page or ext.end <= page:
                return False
        else:
            i = _bisect_start(lst, page) - 1
            if i < 0 or lst[i].end <= page:
                return False
        removed = self._remove_range(ino, page, page + 1)
        self._insert_segments(ino, removed)
        return True

    def resident_pages(self) -> dict[tuple[int, int], bool]:
        """``(ino, page) -> dirty`` snapshot (tests / debugging only)."""
        out: dict[tuple[int, int], bool] = {}
        for ino, lst in self._by_ino.items():
            for ext in lst:
                for page in range(ext.start, ext.end):
                    out[(ino, page)] = ext.dirty
        return out

    def lru_order(self) -> list[tuple[int, int]]:
        """``(ino, page)`` keys from LRU to MRU (tests / debugging only)."""
        out = []
        ext = self._lru_head.nxt
        while ext is not self._lru_tail:
            out.extend((ext.ino, page) for page in range(ext.start, ext.end))
            ext = ext.nxt
        return out

    # ------------------------------------------------------------- operations
    def _refresh_exact(self, ino: int, a: int, b: int) -> _Extent | None:
        """Fast path for ``[a, b)`` covered by exactly one extent.

        Splices the extent to the MRU tail with a fresh sequence number —
        observationally identical to what the general remove/reinsert path
        produces for this geometry (same extent layout, same single
        ``_seqs.next()`` draw, net-zero memcg charge), without the extent
        churn.  Returns the refreshed extent, or None when the geometry
        doesn't match and the caller must take the general path.
        """
        lst = self._by_ino.get(ino)
        if not lst:
            return None
        if len(lst) == 1:           # dominant case: one extent per inode
            ext = lst[0]
        else:
            i = _bisect_start(lst, a) - 1
            if i < 0:
                return None
            ext = lst[i]
        if ext.start != a or ext.end != b:
            return None
        tail = self._lru_tail
        node = tail.prev
        if node is not ext:
            ext.prev.nxt = ext.nxt
            ext.nxt.prev = ext.prev
            ext.prev = node
            ext.nxt = tail
            node.nxt = ext
            tail.prev = ext
        ext.seq = self._seqs.next()
        return ext

    def access(self, ino: int, offset: int, size: int) -> tuple[int, int]:
        """Record a read access; returns ``(hit_pages, miss_pages)`` and caches misses."""
        span = page_span(offset, size, self.page_size)
        if not len(span):
            return 0, 0
        a, b = span.start, span.stop
        ext = self._refresh_exact(ino, a, b)
        if ext is not None:
            hits = b - a
            self.stats.hits += hits
            self._evict_to_capacity()
            self.balance_pressure()
            return hits, 0
        removed = self._remove_range(ino, a, b)
        hits = sum(hi - lo for lo, hi, _ in removed)
        misses = (b - a) - hits
        self._insert_segments(ino, self._fill_gaps(a, b, removed))
        self.stats.hits += hits
        self.stats.misses += misses
        self._evict_to_capacity()
        self.balance_pressure()
        return hits, misses

    def write(self, ino: int, offset: int, size: int) -> int:
        """Record a buffered write; returns the number of pages dirtied."""
        span = page_span(offset, size, self.page_size)
        if not len(span):
            return 0
        a, b = span.start, span.stop
        ext = self._refresh_exact(ino, a, b)
        if ext is not None:
            already_dirty = (b - a) if ext.dirty else 0
            if not ext.dirty:
                ext.dirty = True
                self._note_dirty_pages(ino, b - a)
                self._dirty_exts.setdefault(ino, {})[ext.eid] = ext
            self._evict_to_capacity()
            return (b - a) - already_dirty
        removed = self._remove_range(ino, a, b)
        already_dirty = sum(hi - lo for lo, hi, dirty in removed if dirty)
        self._insert_segments(ino, [(a, b, True)])
        self._evict_to_capacity()
        # No pressure balancing here: the caller runs it via
        # ``balance_pressure()`` *after* accounting the dirty bytes with its
        # writeback engine, so reclaim always finds the pending counters that
        # let it flush-before-drop (see the write paths in ext4/fuse).
        return (b - a) - already_dirty

    def dirty_pages(self, ino: int | None = None) -> list[tuple[int, int]]:
        """All dirty ``(ino, page)`` keys (sorted), optionally for one inode."""
        targets = [ino] if ino is not None else sorted(self._dirty_exts)
        out: list[tuple[int, int]] = []
        for target in targets:
            for ext in sorted(self._dirty_exts.get(target, {}).values(), key=_start):
                out.extend((target, page) for page in range(ext.start, ext.end))
        return out

    def clean(self, ino: int | None = None) -> int:
        """Mark dirty pages clean (after writeback); returns pages cleaned.

        O(dirty extents touched): the per-inode dirty index means neither the
        whole cache nor even one inode's clean extents are scanned.
        """
        targets = [ino] if ino is not None else list(self._dirty_exts)
        cleaned = 0
        for target in targets:
            dirty = self._dirty_exts.pop(target, None)
            if not dirty:
                continue
            for ext in dirty.values():
                ext.dirty = False
                cleaned += len(ext)
            self._dirty_count.pop(target, None)
        if cleaned:
            self.stats.writebacks += 1
        return cleaned

    def invalidate(self, ino: int) -> int:
        """Drop every page of ``ino`` from the cache; returns pages dropped."""
        lst = self._by_ino.pop(ino, None)
        if not lst:
            return 0
        dropped = 0
        for ext in lst:
            dropped += len(ext)
            del self._live[ext.eid]
            self._unlink(ext)
        self._pages -= dropped
        self._memcg_delta(ino, -dropped)
        self._dirty_exts.pop(ino, None)
        self._dirty_count.pop(ino, None)
        return dropped

    def invalidate_range(self, ino: int, start_page: int,
                         end_page: int | None = None) -> int:
        """Drop resident pages of ``ino`` in ``[start_page, end_page)``.

        ``end_page=None`` means "to the end of the address space" (the
        truncate case: Linux only drops pages wholly beyond the new EOF, and
        extending a file drops nothing).  Returns pages dropped.
        """
        if end_page is None:
            end_page = 1 << 62
        if end_page <= start_page:
            return 0
        removed = self._remove_range(ino, start_page, end_page)
        return sum(hi - lo for lo, hi, _ in removed)

    def invalidate_all(self) -> None:
        """Drop the whole cache (used when a FUSE mount does not keep caches)."""
        if self.memcg is not None:
            self.memcg.release(self)
        self._by_ino.clear()
        self._live.clear()
        self._lru_head.nxt = self._lru_tail
        self._lru_tail.prev = self._lru_head
        self._dirty_exts.clear()
        self._dirty_count.clear()
        self._pages = 0

    # ------------------------------------------------------------- reclaim
    def share_seq_counter(self, counter: SeqCounter) -> None:
        """Adopt a shared extent sequence counter (global LRU comparability).

        The shared counter is fast-forwarded past this cache's own, so the
        cache-local LRU order (strict per-cache monotonicity) is preserved —
        only cross-cache comparability is added.
        """
        counter.value = max(counter.value, self._seqs.value)
        self._seqs = counter

    def oldest_seq(self, ino_filter=None) -> int | None:
        """Sequence number of the LRU-oldest live extent (None when empty).

        With ``ino_filter`` (a predicate over inode numbers), only extents of
        matching inodes are considered — the per-cgroup reclaim order, found
        by walking the LRU list from the old end (first match wins).
        """
        if ino_filter is not None:
            ext = self._oldest_matching(ino_filter)
            return None if ext is None else ext.seq
        ext = self._lru_head.nxt
        return None if ext is self._lru_tail else ext.seq

    def _oldest_matching(self, ino_filter) -> "_Extent | None":
        """The LRU-oldest live extent whose inode passes ``ino_filter``.

        The LRU list is sorted by ``(seq, start)``, so the first matching
        node from the old end is the minimum — no full scan needed.
        """
        ext = self._lru_head.nxt
        while ext is not self._lru_tail:
            if ino_filter(ext.ino):
                return ext
            ext = ext.nxt
        return None

    def reclaim_oldest(self, max_pages: int, flush_inode,
                       ino_filter=None) -> tuple[int, int]:
        """Evict up to ``max_pages`` from the LRU-oldest extent (reclaim path).

        A dirty victim is written back *first* through ``flush_inode(ino)``
        (the owning filesystem's writeback engine, which pays the flush price
        and cleans the inode's pages), then dropped clean — the kernel's
        shrink_page_list order.  Returns ``(clean_dropped, dirty_flushed)``
        page counts; both zero when the cache is empty.  Unlike capacity
        eviction this path never counts evictions/writebacks in
        :class:`PageCacheStats` — the reclaim coordinator keeps its own
        accounting and the engine charged the flush.

        ``ino_filter`` restricts the victim choice to matching inodes (the
        per-cgroup reclaim path); the global path keeps using the heap top.
        """
        if max_pages <= 0:
            return 0, 0
        if ino_filter is None:
            ext = self._lru_head.nxt
            if ext is self._lru_tail:
                return 0, 0
        else:
            ext = self._oldest_matching(ino_filter)
            if ext is None:
                return 0, 0
        was_dirty = ext.dirty
        if ext.dirty:
            flush_inode(ext.ino)
            if ext.dirty:
                # No engine pending backed these pages (already-discarded
                # obligations): they drop unwritten, like truncated pages.
                self._drop_dirty_ext(ext.ino, ext.eid)
                self._note_dirty_pages(ext.ino, -len(ext))
                ext.dirty = False
        lst = self._by_ino[ext.ino]
        i = _bisect_start(lst, ext.start) - 1
        take = min(len(ext), max_pages)
        self._pages -= take
        self._memcg_delta(ext.ino, -take)
        ext.start += take
        if ext.start >= ext.end:
            del self._live[ext.eid]
            self._unlink(ext)
            lst.pop(i)
            if not lst:
                del self._by_ino[ext.ino]
        return (0, take) if was_dirty else (take, 0)

    def balance_pressure(self) -> None:
        """Let the memory controllers react to growth: the per-cgroup limits
        first (memcg reclaim), then the kernel-wide budget — the same
        layering as memcg reclaim under global reclaim in Linux."""
        if self.memcg is not None:
            self.memcg.balance()
        if self.pressure is not None:
            self.pressure.balance()

    # ------------------------------------------------------------- internals
    def _memcg_delta(self, ino: int, delta_pages: int) -> None:
        """Report a residency change of ``ino`` to the memory controller."""
        memcg = self.memcg
        if memcg is not None:
            if delta_pages > 0:
                memcg.charge(self, ino, delta_pages * self.page_size)
            elif delta_pages < 0:
                memcg.uncharge(self, ino, -delta_pages * self.page_size)

    def _remove_range(self, ino: int, a: int, b: int) -> list[tuple[int, int, bool]]:
        """Carve ``[a, b)`` out of the inode's extents.

        Returns the removed pieces as ``(start, end, dirty)`` in page order.
        Partially overlapped extents are trimmed in place (keeping their LRU
        age); an extent straddling both edges is split, the right remainder
        inheriting the original sequence number.
        """
        lst = self._by_ino.get(ino)
        if not lst:
            return []
        removed: list[tuple[int, int, bool]] = []
        i = _bisect_start(lst, a) - 1
        if i < 0 or lst[i].end <= a:
            i += 1
        while i < len(lst):
            ext = lst[i]
            if ext.start >= b:
                break
            lo = max(ext.start, a)
            hi = min(ext.end, b)
            removed.append((lo, hi, ext.dirty))
            self._pages -= hi - lo
            if ext.dirty:
                self._note_dirty_pages(ino, -(hi - lo))
            left = ext.start < lo
            right = ext.end > hi
            if left and right:
                rest = self._new_extent(ino, hi, ext.end, ext.dirty,
                                        seq=ext.seq, after=ext)
                if rest.dirty:
                    # The remainder keeps its pages' dirty-index entry; the
                    # page count was only adjusted for the removed middle.
                    self._dirty_exts.setdefault(ino, {})[rest.eid] = rest
                ext.end = lo
                lst.insert(i + 1, rest)
                break
            if left:
                ext.end = lo
                i += 1
            elif not right:
                del self._live[ext.eid]
                self._unlink(ext)
                if ext.dirty:
                    self._drop_dirty_ext(ino, ext.eid)
                lst.pop(i)
            else:
                ext.start = hi
                break
        if not lst:
            del self._by_ino[ino]
        self._memcg_delta(ino, -sum(hi - lo for lo, hi, _ in removed))
        return removed

    @staticmethod
    def _fill_gaps(a: int, b: int, removed: list[tuple[int, int, bool]]
                   ) -> list[tuple[int, int, bool]]:
        """Cover ``[a, b)`` with the removed pieces plus clean gap segments,
        coalescing neighbours with the same dirty flag."""
        segments: list[tuple[int, int, bool]] = []

        def push(lo: int, hi: int, dirty: bool) -> None:
            if segments and segments[-1][2] == dirty and segments[-1][1] == lo:
                segments[-1] = (segments[-1][0], hi, dirty)
            else:
                segments.append((lo, hi, dirty))

        pos = a
        for lo, hi, dirty in removed:
            if lo > pos:
                push(pos, lo, False)
            push(lo, hi, dirty)
            pos = hi
        if pos < b:
            push(pos, b, False)
        return segments

    def _insert_segments(self, ino: int, segments: list[tuple[int, int, bool]]) -> None:
        """Append segments (disjoint, ascending) at the MRU end."""
        if not segments:
            return
        lst = self._by_ino.setdefault(ino, [])
        pos = _bisect_start(lst, segments[0][0])
        new = []
        dirty_index = None
        for lo, hi, dirty in segments:
            ext = self._new_extent(ino, lo, hi, dirty)
            new.append(ext)
            self._pages += hi - lo
            if dirty:
                self._note_dirty_pages(ino, hi - lo)
                if dirty_index is None:
                    dirty_index = self._dirty_exts.setdefault(ino, {})
                dirty_index[ext.eid] = ext
        lst[pos:pos] = new
        self._memcg_delta(ino, sum(hi - lo for lo, hi, _ in segments))

    def _new_extent(self, ino: int, start: int, end: int, dirty: bool,
                    seq: int | None = None,
                    after: _Extent | None = None) -> _Extent:
        if seq is None:
            seq = self._seqs.next()
        eid = self._next_eid
        self._next_eid += 1
        ext = _Extent(ino, start, end, dirty, seq, eid)
        self._live[eid] = ext
        # Fresh seqs are strictly larger than every live one (MRU append);
        # seq-inheriting splits splice right after their origin (``after``).
        node = self._lru_tail.prev if after is None else after
        ext.prev = node
        ext.nxt = node.nxt
        node.nxt.prev = ext
        node.nxt = ext
        return ext

    @staticmethod
    def _unlink(ext: _Extent) -> None:
        ext.prev.nxt = ext.nxt
        ext.nxt.prev = ext.prev
        ext.prev = ext.nxt = None

    def _note_dirty_pages(self, ino: int, delta: int) -> None:
        count = self._dirty_count.get(ino, 0) + delta
        if count > 0:
            self._dirty_count[ino] = count
        else:
            self._dirty_count.pop(ino, None)

    def _drop_dirty_ext(self, ino: int, eid: int) -> None:
        exts = self._dirty_exts.get(ino)
        if exts is not None:
            exts.pop(eid, None)
            if not exts:
                del self._dirty_exts[ino]

    def _evict_to_capacity(self) -> None:
        """Trim the LRU tail until within capacity.

        Evictions are counted per page (as before); writebacks are charged
        once per maximal contiguous dirty run evicted in this pass.
        """
        if self.max_pages is None or self._pages <= self.max_pages:
            return
        prev_ino: int | None = None
        prev_end = -1
        prev_dirty = False
        while self._pages > self.max_pages:
            ext = self._lru_head.nxt
            lst = self._by_ino[ext.ino]
            i = _bisect_start(lst, ext.start) - 1
            take = min(len(ext), self._pages - self.max_pages)
            self.stats.evictions += take
            if ext.dirty:
                contiguous = (prev_dirty and prev_ino == ext.ino
                              and prev_end == ext.start)
                if not contiguous:
                    self.stats.writebacks += 1
                self._note_dirty_pages(ext.ino, -take)
            prev_ino, prev_end, prev_dirty = ext.ino, ext.start + take, ext.dirty
            self._pages -= take
            self._memcg_delta(ext.ino, -take)
            ext.start += take
            if ext.start >= ext.end:
                del self._live[ext.eid]
                self._unlink(ext)
                if ext.dirty:
                    self._drop_dirty_ext(ext.ino, ext.eid)
                lst.pop(i)
                if not lst:
                    del self._by_ino[ext.ino]
