"""Tracepoint registry: named, typed kernel tracepoints with subscribers.

Grown from the original flat event log in three steps that each preserve the
hot-path contract established by the raw-speed work (PR 9):

* **Gating.**  ``tracer.active`` is a plain attribute — true iff full
  tracing is enabled, a per-event filter entry exists, or a subscriber is
  attached.  Every call site reads it before building the event's fields
  and pays one attribute load + branch when observability is off; nothing
  else runs.  ``enabled`` is a property whose setter keeps ``active`` in
  sync.
* **Tracepoints.**  :meth:`Tracer.emit` is the one recording call.
  :data:`CORE_TRACEPOINTS` declares the stable, typed probe points (sched
  switch/throttle, memcg reclaim, writeback flush, journal commit, FUSE
  dispatch); ``emit`` formats their fields deterministically and rejects
  undeclared fields on declared points.  Other names (the per-filesystem
  ``fs_type.op`` cost events, the FUSE client's ``fuse.<opcode>``) register
  dynamically as they are first emitted, like ftrace's ``trace_marker``.
* **Subscribers.**  :meth:`Tracer.attach` registers a callback on one
  tracepoint (or ``"*"`` for all); subscribers see every matching event
  even when collection is off, and never alter the virtual clock.

The in-memory ring stays bounded by ``capacity`` with explicit global and
per-tracepoint drop counters, surfaced by the synthetic
``/sys/kernel/debug/tracing`` filesystem (``repro.kernel.sysfs``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterator

#: The declared tracepoint catalogue: name -> ordered field tuple.  These are
#: the probes wired into the kernel at fixed sites; dynamically emitted names
#: (the ``fs_type.op`` cost events) join ``available_events`` as they are
#: first seen.
CORE_TRACEPOINTS: dict[str, tuple[str, ...]] = {
    "sched.switch": ("prev", "next"),
    "sched.throttle": ("group", "until_ns"),
    "memcg.reclaim": ("cgroup", "bytes"),
    "writeback.flush": ("reason", "bytes", "inodes"),
    "journal.commit": ("fs", "reason"),
    "fuse.dispatch": ("opcode", "coalesced"),
}


@dataclass(frozen=True)
class TraceEvent:
    """A single traced operation."""

    timestamp_ns: int
    category: str
    name: str
    cost_ns: int = 0
    detail: str = ""

    @property
    def key(self) -> str:
        """The tracepoint name, ``category.name``."""
        return f"{self.category}.{self.name}"


@dataclass(frozen=True)
class TraceSubscription:
    """Handle returned by :meth:`Tracer.attach`; pass to :meth:`Tracer.detach`."""

    name: str
    callback: Callable[[TraceEvent], None]
    token: int


class Tracer:
    """The tracepoint registry: collects events, dispatches to subscribers.

    Collection (counters + the bounded ring) runs when tracing is enabled
    globally or the event's tracepoint is in the ``set_event`` filter;
    subscriber dispatch runs whenever a matching subscriber is attached.
    With none of the three, :meth:`emit` returns after one branch.
    """

    def __init__(self, enabled: bool = False, capacity: int | None = 200_000) -> None:
        self._enabled = enabled
        #: Fast-path gate: collection or dispatch has work to do.  Plain
        #: attribute so hot call sites skip property descriptor overhead.
        self.active = enabled
        self.capacity = capacity
        self._events: list[TraceEvent] = []
        self._counts: Counter[str] = Counter()
        self._costs: Counter[str] = Counter()
        self.dropped = 0
        self.dropped_by_key: Counter[str] = Counter()
        self._event_filter: set[str] = set()
        self._subscribers: dict[str, list[TraceSubscription]] = {}
        self._next_token = 0

    # ------------------------------------------------------------- gating
    @property
    def enabled(self) -> bool:
        """Global collection switch (``tracing_on`` in the synthetic tracefs)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self._sync_active()

    def _sync_active(self) -> None:
        self.active = bool(self._enabled or self._event_filter
                           or self._subscribers)

    # -------------------------------------------------------- tracepoints
    def available_events(self) -> list[str]:
        """Every declared or observed tracepoint name, sorted."""
        names = set(CORE_TRACEPOINTS)
        names.update(self._counts)
        names.update(self._event_filter)
        names.update(k for k in self._subscribers if k != "*")
        return sorted(names)

    def set_event(self, name: str, enable: bool = True) -> None:
        """Enable (or disable) per-tracepoint collection for ``name``."""
        if "." not in name:
            raise ValueError(f"tracepoint names are category.name: {name!r}")
        if enable:
            self._event_filter.add(name)
        else:
            self._event_filter.discard(name)
        self._sync_active()

    def clear_events(self) -> None:
        """Empty the per-tracepoint filter (``echo > set_event``)."""
        self._event_filter.clear()
        self._sync_active()

    @property
    def event_filter(self) -> frozenset[str]:
        """The per-tracepoint collection filter, read-only."""
        return frozenset(self._event_filter)

    # -------------------------------------------------------- subscribers
    def attach(self, name: str,
               callback: Callable[[TraceEvent], None]) -> TraceSubscription:
        """Subscribe ``callback`` to tracepoint ``name`` (``"*"`` = all).

        Callbacks observe; they must not charge the virtual clock.  When the
        tracer lives inside a kernel that will be snapshotted, callbacks
        must be picklable (a small class, not a lambda).
        """
        if name != "*" and "." not in name:
            raise ValueError(f"tracepoint names are category.name: {name!r}")
        sub = TraceSubscription(name, callback, self._next_token)
        self._next_token += 1
        self._subscribers.setdefault(name, []).append(sub)
        self._sync_active()
        return sub

    def detach(self, subscription: TraceSubscription) -> None:
        """Remove a subscription (idempotent)."""
        subs = self._subscribers.get(subscription.name)
        if not subs:
            return
        remaining = [s for s in subs if s.token != subscription.token]
        if remaining:
            self._subscribers[subscription.name] = remaining
        else:
            del self._subscribers[subscription.name]
        self._sync_active()

    # ---------------------------------------------------------- recording
    def emit(self, timestamp_ns: int, name: str, cost_ns: int = 0,
             **fields) -> None:
        """Fire tracepoint ``name`` (``category.event``) with keyword fields.

        One branch and out when nothing is attached.  Declared tracepoints
        render their fields in declaration order and reject unknown ones;
        undeclared names render fields sorted and register the name
        dynamically.
        """
        if not self.active:
            return
        declared = CORE_TRACEPOINTS.get(name)
        if declared is not None:
            unknown = [f for f in fields if f not in declared]
            if unknown:
                raise ValueError(f"tracepoint {name} has no field(s) "
                                 f"{sorted(unknown)}; declared: {declared}")
            order = [f for f in declared if f in fields]
        else:
            order = sorted(fields)
        detail = " ".join(f"{f}={fields[f]}" for f in order)
        category, _, event_name = name.partition(".")
        event = None
        if self._enabled or name in self._event_filter:
            self._counts[name] += 1
            self._costs[name] += int(cost_ns)
            if self.capacity is not None and len(self._events) >= self.capacity:
                self.dropped += 1
                self.dropped_by_key[name] += 1
            else:
                event = TraceEvent(timestamp_ns, category, event_name,
                                   int(cost_ns), detail)
                self._events.append(event)
        subscribers = self._subscribers
        if subscribers:
            direct = subscribers.get(name)
            wildcard = subscribers.get("*")
            if direct or wildcard:
                if event is None:
                    event = TraceEvent(timestamp_ns, category, event_name,
                                       int(cost_ns), detail)
                for sub in direct or ():
                    sub.callback(event)
                for sub in wildcard or ():
                    sub.callback(event)

    # ------------------------------------------------------------ reading
    def events(self, category: str | None = None) -> Iterator[TraceEvent]:
        """Iterate events, optionally filtered by category."""
        for ev in self._events:
            if category is None or ev.category == category:
                yield ev

    def count(self, key: str) -> int:
        """Number of events recorded under ``category.name``."""
        return self._counts.get(key, 0)

    def total_cost(self, key: str) -> int:
        """Total virtual nanoseconds recorded under ``category.name``."""
        return self._costs.get(key, 0)

    def counts_by_key(self) -> dict[str, int]:
        """All counts as a plain dictionary."""
        return dict(self._counts)

    def clear(self) -> None:
        """Drop recorded events and counters; keep filters and subscribers."""
        self._events.clear()
        self._counts.clear()
        self._costs.clear()
        self.dropped = 0
        self.dropped_by_key.clear()

    def summary(self, top: int = 20) -> list[tuple[str, int, int]]:
        """``(key, count, total_cost_ns)`` rows, highest cost first.

        Equal-cost rows tie-break on the key so reports are byte-stable
        across runs regardless of dict insertion order.
        """
        rows = [(k, self._counts[k], self._costs[k]) for k in self._counts]
        rows.sort(key=lambda r: (-r[2], r[0]))
        return rows[:top]
